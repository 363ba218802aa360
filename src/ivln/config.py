"""Layered runtime configuration: the one settings object of the
command-line tools and the rollout.

Precedence, lowest to highest: dataclass defaults, a key=value config
file (explicit path or the IVLN_CONFIG environment variable), then
command-line flags.  Validation runs before any work starts and the
resolved config is embedded in every report so results are
self-describing.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .mapper import MAP_MODES
from .metrics import DEFAULT_DTH, DEFAULT_SUCCESS_RADIUS

# agent steps per episode when max_steps is None
DEFAULT_MAX_STEPS_CONTINUOUS = 500
DEFAULT_MAX_STEPS_DISCRETE = 15
# the float fields that must be positive and finite
_POSITIVE_FLOATS = ("d_th", "success_radius", "oracle_correction_radius", "radius", "turn_deg", "step_timeout")


@dataclass
class Config:
    seed: int = 0
    d_th: float = DEFAULT_DTH
    success_radius: float = DEFAULT_SUCCESS_RADIUS
    oracle_correction_radius: float = 0.5
    geodesic: bool = False
    map_mode: str = "none"
    policy: str = "oracle"
    max_steps: int | None = None
    turn_deg: float = 15.0
    crop_size: int = 64
    step_timeout: float = 10.0
    radius: float = 3.0
    occlusion: bool = True

    def validate(self) -> None:
        for name in _POSITIVE_FLOATS:
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.turn_deg >= 45:
            raise ValueError(f"turn_deg must be below 45, got {self.turn_deg!r}: a forward step takes the nearest of "
                             "8 compass directions, and a turn that overshoots that 45-degree sector turns back forever")
        if self.map_mode != "none" and self.map_mode not in MAP_MODES:
            raise ValueError(f"unknown map mode {self.map_mode!r}, expected none or one of {MAP_MODES}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.crop_size < 1:
            raise ValueError("crop_size must be at least 1")

    def budget(self, scene) -> int:
        """Agent steps per episode in ``scene``: max_steps, or the per-kind default."""
        if self.max_steps is not None:
            return self.max_steps
        return DEFAULT_MAX_STEPS_DISCRETE if scene.is_discrete else DEFAULT_MAX_STEPS_CONTINUOUS

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}


def read_value(name: str, raw: str):
    """Config field ``name`` as a config line or a flag writes it, ``raw``,
    parsed as the type of its default; only a None default (max_steps, an
    int) accepts none/null."""
    default = _FIELDS[name].default
    raw = raw.strip()
    if default is None and raw.lower() in ("none", "null"):
        return None
    kind = int if default is None else type(default)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {name}: expected a boolean, got {raw!r}")
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"config key {name}: cannot parse {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Read key=value lines; '#' starts a comment, blank lines are skipped.
    Each ValueError starts with ``path:line``, and a key is set once."""
    out, set_on = {}, {}
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                line = data.decode("utf-8").split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, raw = line.partition("=")
                key = key.strip()
                if not eq:
                    raise ValueError(f"expected key=value, got {line!r}")
                if key not in _FIELDS:
                    raise ValueError(f"unknown config key {key!r}")
                if key in set_on:
                    raise ValueError(f"config key {key} is set again, first on line {set_on[key]}")
                out[key], set_on[key] = read_value(key, raw), lineno
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def resolve_config(config_file: str | None = None, overrides: dict | None = None) -> Config:
    """Defaults <- config file (or IVLN_CONFIG) <- explicit overrides.

    A None override is dropped, except for a key whose default is None
    (max_steps), where it restores that default over the file's value.
    """
    values = {}
    path = config_file or os.environ.get("IVLN_CONFIG")
    if path:
        values.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if val is not None or (key in _FIELDS and _FIELDS[key].default is None):
            values[key] = val
    cfg = Config(**values)
    cfg.validate()
    return cfg
