import dataclasses
import math

import pytest

from ivln.config import Config, parse_config_file, resolve_config
from ivln.coverage import ObservationModel


def test_defaults_are_valid():
    cfg = Config()
    cfg.validate()
    d = cfg.to_dict()
    assert d["d_th"] == 3.0
    assert d["occlusion"] is True


def test_parse_file_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# rollout settings\n"
        "seed = 11\n"
        "d_th = 2.5  # meters\n"
        "geodesic = yes\n"
        "occlusion = off\n"
        "\n"
        "policy = noisy:0.3\n"
        "max_steps = none\n"
    )
    values = parse_config_file(str(path))
    assert values == {
        "seed": 11,
        "d_th": 2.5,
        "geodesic": True,
        "occlusion": False,
        "policy": "noisy:0.3",
        "max_steps": None,
    }


def test_parse_file_errors_carry_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\nmystery = 4\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2.*mystery"):
        parse_config_file(str(path))
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(str(path))
    path.write_text("seed = lots\n")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_config_file(str(path))
    path.write_text("geodesic = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config_file(str(path))


def test_resolution_order(tmp_path, monkeypatch):
    path = tmp_path / "layer.cfg"
    path.write_text("seed = 3\nd_th = 9.0\n")
    cfg = resolve_config(str(path), {"d_th": 1.5, "seed": None})
    assert cfg.seed == 3  # file beats defaults
    assert cfg.d_th == 1.5  # flag beats file; None overrides are ignored
    monkeypatch.setenv("IVLN_CONFIG", str(path))
    assert resolve_config().seed == 3
    assert resolve_config(None, {}).d_th == 9.0


def test_a_none_max_steps_override_restores_the_default_budget(tmp_path):
    path = tmp_path / "steps.cfg"
    path.write_text("max_steps = 3\n")
    assert resolve_config(str(path)).max_steps == 3
    assert resolve_config(str(path), {"max_steps": None}).max_steps is None
    assert resolve_config(str(path), {"max_steps": 5}).max_steps == 5


def test_validation_rejects_bad_values():
    for field, value in [
        ("d_th", 0.0),
        ("success_radius", -1.0),
        ("oracle_correction_radius", 0.0),
        ("map_mode", "hologram"),
        ("max_steps", 0),
        ("turn_deg", -15.0),
        ("turn_deg", 45.0),
        ("crop_size", 0),
        ("step_timeout", 0.0),
    ]:
        cfg = Config(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate()


@pytest.mark.parametrize(
    "field", ["d_th", "success_radius", "oracle_correction_radius", "radius", "turn_deg", "step_timeout"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validation_rejects_a_float_setting_that_is_not_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value!r}$"):
        Config(**{field: value}).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_observation_radius_must_be_positive_and_finite(value):
    with pytest.raises(ValueError, match="observation radius must be positive and finite"):
        ObservationModel(radius=value)


def test_resolve_validates(tmp_path):
    path = tmp_path / "neg.cfg"
    path.write_text("d_th = -1\n")
    with pytest.raises(ValueError):
        resolve_config(str(path))


def test_every_default_written_to_a_file_resolves_to_the_defaults(tmp_path):
    path = tmp_path / "defaults.cfg"
    path.write_text("".join(f"{f.name} = {f.default}\n" for f in dataclasses.fields(Config)))
    assert resolve_config(str(path)) == Config()
