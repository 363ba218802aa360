import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ivln
from ivln import cli, harness
from ivln.cli import main
from ivln.coverage import ObservationModel, coverage_curves
from ivln.environment import load_scene, save_scene
from ivln.metrics import EpisodeTrace, TourTrace, read_traces, write_traces
from ivln.tourgen import Episode, Tour, load_episodes, load_tours, save_episodes, save_tours

from conftest import scene_from_ascii

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*argv):
    return main([str(a) for a in argv])


def scripts_table_text(text):
    """``[project.scripts]`` of a pyproject read as plain text (no tomllib on 3.10)."""
    scripts = {}
    in_table = False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def declared_scripts():
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"]
    return scripts_table_text(text)


def run_process(*argv):
    """Run ``argv`` as a child whose PYTHONPATH leads with the imported ivln's root."""
    env = dict(os.environ)
    package_root = str(Path(ivln.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([str(a) for a in argv], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """A full artifact chain: scene -> episodes -> tours -> oracle traces."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "scene": root / "scene.json",
        "graph": root / "graph.json",
        "episodes": root / "episodes.json",
        "tours": root / "tours.json",
        "traces": root / "traces.jsonl",
        "report": root / "report.json",
    }
    assert run_cli("gen-env", "--rooms", 3, "--seed", 7,
                   "--out", paths["scene"], "--graph-out", paths["graph"]) == 0
    assert run_cli("gen-episodes", "--scene", paths["scene"], "--count", 6, "--n", 2,
                   "--min-length", 4, "--max-length", 10, "--seed", 7,
                   "--out", paths["episodes"]) == 0
    assert run_cli("gen-tours", "--scene", paths["scene"], "--episodes", paths["episodes"],
                   "--out", paths["tours"]) == 0
    assert run_cli("run", "--scene", paths["scene"], "--tours", paths["tours"],
                   "--episodes", paths["episodes"], "--policy", "oracle",
                   "--out", paths["traces"]) == 0
    return paths


def test_pipeline_oracle_scores_perfect(pipeline, capsys):
    code = run_cli("eval", "--traces", pipeline["traces"], "--episodes", pipeline["episodes"],
                   "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--out", pipeline["report"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t-nDTW 100.0" in out
    report = json.loads(pipeline["report"].read_text())
    assert report["summary"]["t_ndtw"] == 100.0
    assert report["summary"]["ndtw"] == pytest.approx(1.0)
    assert report["summary"]["sr"] == pytest.approx(1.0)
    assert report["config"]["d_th"] == 3.0


def test_pipeline_is_deterministic(pipeline, tmp_path):
    tours2 = tmp_path / "tours.json"
    traces2 = tmp_path / "traces.jsonl"
    assert run_cli("gen-tours", "--scene", pipeline["scene"],
                   "--episodes", pipeline["episodes"], "--out", tours2) == 0
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", tours2,
                   "--episodes", pipeline["episodes"], "--policy", "oracle",
                   "--out", traces2) == 0
    assert tours2.read_bytes() == pipeline["tours"].read_bytes()
    assert traces2.read_bytes() == pipeline["traces"].read_bytes()


def test_graph_twin_is_loadable(pipeline):
    scene = load_scene(pipeline["graph"])
    assert scene.graph is not None
    assert any(n.startswith("r") for n in scene.graph.nodes)


def test_parse_error_exit_code(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json")
    assert run_cli("eval", "--traces", bad, "--episodes", pipeline["episodes"], "--out", tmp_path / "r.json") == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "never_written.json"
    assert run_cli("gen-episodes", "--scene", missing, "--out", tmp_path / "e.json") == 2


def test_eval_checks_the_geodesic_flag_before_reading_any_file(tmp_path, capsys):
    code = run_cli("eval", "--traces", tmp_path / "nonexistent.jsonl", "--episodes", tmp_path / "nonexistent.json",
                   "--geodesic", "--out", tmp_path / "r.json")
    assert code == 2
    assert "--geodesic needs --scene" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_requires_the_episode_set(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("eval", "--traces", pipeline["traces"], "--out", tmp_path / "r.json")
    assert exc_info.value.code == 2
    assert "--episodes" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_run_checks_the_map_out_flag_before_running(pipeline, tmp_path, capsys):
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--map-out", tmp_path / "map.json",
                   "--out", tmp_path / "t.jsonl")
    assert code == 2
    assert "--map-out needs --map" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "map.json").exists()


EMPTY_INPUTS = [  # command, the pipeline files it reads, the one emptied
    ("run", ("scene", "episodes", "tours"), "tours"),
    ("coverage", ("scene", "episodes", "tours"), "tours"),
    ("gen-tours", ("scene", "episodes"), "episodes"),
    ("eval", ("scene", "episodes", "tours", "traces"), "traces"),
    ("stats", ("tours",), "tours"),
]


@pytest.mark.parametrize("command, inputs, emptied", EMPTY_INPUTS, ids=[command for command, _, _ in EMPTY_INPUTS])
def test_a_command_refuses_a_file_without_records(pipeline, tmp_path, capsys, command, inputs, emptied):
    empty = tmp_path / "empty.json"
    # a trace file holds one JSON line per tour
    empty.write_text("" if emptied == "traces" else json.dumps({"format_version": "1", emptied: []}))
    files = [x for name in inputs for x in (f"--{name}", empty if name == emptied else pipeline[name])]
    flags = ("--map", "iterative", "--map-out", tmp_path / "map.json") if command == "run" else ()
    assert run_cli(command, *files, *flags, "--out", tmp_path / "out") == 3
    what = "tour traces" if emptied == "traces" else emptied
    assert f"no {what} in {empty}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["empty.json"]


@pytest.fixture
def two_tours(synth, tmp_path):
    """Files of two tours over different paths: three episodes each of the
    synthetic world's first tour, which walks each path once."""
    scene, ids = synth["scene"], synth["tours"][0].episode_ids
    paths = {"scene": tmp_path / "scene.json", "episodes": tmp_path / "episodes.json",
             "tours": tmp_path / "tours.json", "traces": tmp_path / "traces.jsonl"}
    save_scene(scene, paths["scene"])
    save_episodes(synth["episodes"], paths["episodes"])
    save_tours([Tour("first", scene.scene_id, ids[:3]), Tour("last", scene.scene_id, ids[3:6])],
               synth["episodes"], paths["tours"])
    return paths


def record_senses(monkeypatch):
    """Each batch of poses the rollout's walks sense, in order."""
    batches = []
    sense = harness.sense

    def recording(occ_map, grid, poses, *args):
        batches.append(list(poses))
        return sense(occ_map, grid, poses, *args)

    monkeypatch.setattr(harness, "sense", recording)
    return batches


def walked_points(trace):
    """The (x, y) of every pose a tour's walk takes, in order."""
    return [(p.x, p.y) for e in trace.episodes
            for p in e.agent_path + [q for seg in e.segments for q in seg.points]]


def run_two_tours(two_tours, *flags):
    assert run_cli("run", "--scene", two_tours["scene"], "--tours", two_tours["tours"],
                   "--episodes", two_tours["episodes"], "--policy", "noisy:0.2", "--seed", 3,
                   "--map", "iterative", *flags, "--out", two_tours["traces"]) == 0
    return read_traces(two_tours["traces"], {ep.episode_id: ep for ep in load_episodes(two_tours["episodes"])})


def test_run_without_map_out_senses_nothing_for_a_builtin_policy(two_tours, monkeypatch):
    batches = record_senses(monkeypatch)
    traces = run_two_tours(two_tours)
    assert [t.tour_id for t in traces] == ["first", "last"] and all(walked_points(t) for t in traces)
    assert batches == []


def test_run_and_build_map_sense_only_the_last_tour_in_small_batches(two_tours, monkeypatch, tmp_path):
    batches = record_senses(monkeypatch)
    first, last = run_two_tours(two_tours, "--map-out", tmp_path / "map.json")
    assert walked_points(first)[:8] != walked_points(last)[:8]
    want = walked_points(last)
    assert [(p.position.x, p.position.y) for batch in batches for p in batch] == want
    # the queue folds each chunk as it fills, and what is left at the end
    sizes = [len(batch) for batch in batches]
    assert set(sizes[:-1]) == {harness.SENSE_CHUNK} and 0 < sizes[-1] <= harness.SENSE_CHUNK
    batches.clear()
    assert run_cli("build-map", "--scene", two_tours["scene"], "--traces", two_tours["traces"],
                   "--episodes", two_tours["episodes"], "--mode", "iterative",
                   "--out", tmp_path / "replayed.json") == 0
    assert [(p.position.x, p.position.y) for batch in batches for p in batch] == want
    assert [len(batch) for batch in batches] == sizes
    assert (tmp_path / "replayed.json").read_bytes() == (tmp_path / "map.json").read_bytes()


def edited_episodes(pipeline, tmp_path, edit):
    """Copy the pipeline's episode file with ``edit`` applied to its payload."""
    data = json.loads(pipeline["episodes"].read_text())
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(edit(data)))
    return out


@pytest.mark.parametrize("field", ["instruction_ids", "scan", "heading"])
def test_an_episode_record_without_a_field_is_bad_input(pipeline, tmp_path, capsys, field):
    def drop_field(data):
        del data["episodes"][0][field]
        return data

    edited = edited_episodes(pipeline, tmp_path, drop_field)
    code = run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", edited, "--out", tmp_path / "t.json")
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_a_missing_episode_field_is_named_with_its_file_and_record(pipeline, tmp_path, capsys):
    def drop_scan(data):
        del data["episodes"][1]["scan"]
        return data

    edited = edited_episodes(pipeline, tmp_path, drop_scan)
    code = run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", edited, "--out", tmp_path / "t.json")
    assert code == 2
    assert f"error: {edited} episode record 1: missing field 'scan'" in capsys.readouterr().err


def test_a_bare_list_of_episode_records_is_bad_input(pipeline, tmp_path):
    edited = edited_episodes(pipeline, tmp_path, lambda data: data["episodes"])
    code = run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", edited, "--out", tmp_path / "t.json")
    assert code == 2
    assert not (tmp_path / "t.json").exists()


def test_a_node_id_path_entry_is_bad_input(pipeline, tmp_path):
    def node_first(data):
        data["episodes"][0]["path"][0] = next(iter(load_scene(pipeline["graph"]).graph.nodes))
        return data

    edited = edited_episodes(pipeline, tmp_path, node_first)
    code = run_cli("eval", "--traces", pipeline["traces"], "--episodes", edited, "--out", tmp_path / "r.json")
    assert code == 2
    assert not (tmp_path / "r.json").exists()


def test_a_three_digit_node_id_path_entry_is_bad_input(pipeline, tmp_path, capsys):
    # three characters unpack like three coordinates, but they are text
    def digits_first(data):
        data["episodes"][0]["path"][0] = "123"
        return data

    edited = edited_episodes(pipeline, tmp_path, digits_first)
    code = run_cli("eval", "--traces", pipeline["traces"], "--episodes", edited, "--out", tmp_path / "r.json")
    assert code == 2
    assert "'123'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_zero_length_graph_edge_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["graph"].read_text())
    a, b = payload["edges"][0]
    payload["nodes"][b] = payload["nodes"][a]
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("gen-episodes", "--scene", bad, "--out", tmp_path / "e.json") == 2
    assert f"edge ({a}, {b}) has zero length" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_a_bare_list_of_tours_is_bad_input(pipeline, tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(pipeline["tours"].read_text())["tours"]))
    assert run_cli("stats", "--tours", bare, "--out", tmp_path / "s.json") == 2
    assert not (tmp_path / "s.json").exists()


def test_eval_names_the_line_of_a_trace_record_that_is_not_json(pipeline, tmp_path, capsys):
    lines = pipeline["traces"].read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines[:2]) + "{not json\n" + "".join(lines[2:]))
    assert run_cli("eval", "--traces", bad, "--episodes", pipeline["episodes"], "--out", tmp_path / "r.json") == 2
    assert f"{bad} line 3: " in capsys.readouterr().err


def test_eval_rejects_a_trace_episode_missing_from_the_episode_set(pipeline, tmp_path, capsys):
    data = json.loads(pipeline["episodes"].read_text())
    dropped = data["episodes"].pop(0)["episode_id"]
    fewer = tmp_path / "fewer.json"
    fewer.write_text(json.dumps(data))
    code = run_cli("eval", "--traces", pipeline["traces"], "--episodes", fewer, "--out", tmp_path / "r.json")
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(rf"traces\.jsonl line \d+: episode {dropped}_\d is not in the episode set", err)


def test_max_steps_none_flag_restores_the_default_budget(pipeline, tmp_path):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("max_steps = 1\n")
    run = ("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
           "--episodes", pipeline["episodes"], "--policy", "oracle", "--config", cfg)
    by_file, by_flag = tmp_path / "by_file.jsonl", tmp_path / "by_flag.jsonl"
    assert run_cli(*run, "--out", by_file) == 0
    assert run_cli(*run, "--max-steps", "none", "--out", by_flag) == 0
    assert by_file.read_bytes() != pipeline["traces"].read_bytes()
    assert by_flag.read_bytes() == pipeline["traces"].read_bytes()


def test_max_steps_flag_caps_each_agent_phase(pipeline, tmp_path):
    out = tmp_path / "capped.jsonl"
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", "oracle", "--max-steps", 5, "--out", out) == 0
    by_id = {ep.episode_id: ep for ep in load_episodes(pipeline["episodes"])}
    capped = [ep for t in read_traces(out, by_id) for ep in t.episodes]
    full = [ep for t in read_traces(pipeline["traces"], by_id) for ep in t.episodes]
    assert max(len(ep.actions) for ep in full) > 5
    for got, want in zip(capped, full, strict=True):
        # the oracle's phase, cut after 5 actions when it ran longer
        assert got.actions == want.actions[:5]
        assert got.stop_called == (len(want.actions) <= 5)



def test_one_parser_reads_each_call_as_a_fresh_one(pipeline, tmp_path, monkeypatch):
    parsed = []
    config = cli._config
    monkeypatch.setattr(cli, "_config", lambda args: parsed.append(args) or config(args))
    run = ["run", "--scene", pipeline["scene"], "--tours", pipeline["tours"], "--episodes", pipeline["episodes"],
           "--policy", "oracle", "--out", tmp_path / "traces.jsonl"]
    assert run_cli(*run, "--max-steps", 5) == 0
    assert run_cli("stats", "--tours", pipeline["tours"]) == 0
    assert run_cli(*run) == 0  # --max-steps defaults to SUPPRESS: absent, not the first call's 5
    assert cli.build_parser() is cli.build_parser()
    assert parsed[0].max_steps == 5 and not hasattr(parsed[1], "max_steps")
    assert vars(parsed[1]) == vars(cli.build_parser.__wrapped__().parse_args([str(a) for a in run]))
    assert (tmp_path / "traces.jsonl").read_bytes() == pipeline["traces"].read_bytes()

def test_infeasible_exit_code(tmp_path, capsys):
    assert run_cli("gen-env", "--rooms", 0, "--out", tmp_path / "s.json") == 3
    assert "error:" in capsys.readouterr().err


OUT_OF_RANGE_FLAGS = [
    ("gen-env", "--sealed-prob", "nan", "sealed_door_probability must lie in [0, 1], got nan"),
    ("gen-env", "--resolution", "nan", "resolution must be positive and finite, got nan"),
    ("gen-env", "--room-min", "0", "room_size_range must be positive and finite, got (0.0, 5.0)"),
    ("gen-env", "--room-max", "inf", "room_size_range must be positive and finite, got (3.0, inf)"),
    ("gen-env", "--door-width", "nan", "door_width must be positive and finite, got nan"),
    ("gen-episodes", "--min-length", "nan", "length_range must be finite, got (nan, 15.0)"),
    ("gen-episodes", "--max-length", "inf", "length_range must be finite, got (5.0, inf)"),
    ("gen-episodes", "--max-length", "3", "length_range must hold 0 <= min <= max, got (5.0, 3.0)"),
    ("gen-episodes", "--min-length", "-1", "length_range must hold 0 <= min <= max, got (-1.0, 15.0)"),
]


@pytest.mark.parametrize("command, flag, value, message", OUT_OF_RANGE_FLAGS,
                         ids=[flag[2:] if value in ("nan", "inf", "0") else f"{flag[2:]}={value}"
                              for _, flag, value, _ in OUT_OF_RANGE_FLAGS])
def test_generator_flag_out_of_range_is_bad_input_naming_the_setting(
        pipeline, tmp_path, capsys, command, flag, value, message):
    scene = ("--scene", pipeline["scene"]) if command == "gen-episodes" else ()
    out = tmp_path / "out.json"
    assert run_cli(command, *scene, flag, value, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="session")
def other_scene(tmp_path_factory):
    """A scene whose id, syn-8, no pipeline file carries."""
    path = tmp_path_factory.mktemp("other") / "scene.json"
    assert run_cli("gen-env", "--rooms", 3, "--seed", 8, "--out", path) == 0
    return path


SCENE_COMMANDS = [  # command, the pipeline files it reads, its other flags
    ("gen-tours", ("episodes",), ()),
    ("run", ("episodes", "tours"), ("--policy", "oracle")),
    ("eval", ("episodes", "tours", "traces"), ("--geodesic",)),
    ("coverage", ("episodes", "tours"), ()),
    ("build-map", ("episodes", "traces"), ()),
]


@pytest.mark.parametrize("command, inputs, flags", SCENE_COMMANDS, ids=[command for command, _, _ in SCENE_COMMANDS])
def test_a_command_refuses_episodes_of_another_scene(pipeline, other_scene, tmp_path, capsys, command, inputs, flags):
    out = tmp_path / "out"
    files = [x for name in inputs for x in (f"--{name}", pipeline[name])]
    assert run_cli(command, "--scene", other_scene, *files, *flags, "--out", out) == 2
    first = load_episodes(pipeline["episodes"])[0].episode_id
    assert (f"error: {pipeline['episodes']}: episode {first} belongs to scene 'syn-7', not to 'syn-8'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "coverage"])
def test_a_command_refuses_a_tour_of_another_scene(pipeline, tmp_path, capsys, command):
    data = json.loads(pipeline["tours"].read_text())
    data["tours"][-1]["scene_id"] = "syn-8"
    tours = tmp_path / "tours.json"
    tours.write_text(json.dumps(data))
    flags = ("--policy", "oracle") if command == "run" else ()
    out = tmp_path / "out"
    assert run_cli(command, "--scene", pipeline["scene"], "--episodes", pipeline["episodes"],
                   "--tours", tours, *flags, "--out", out) == 2
    tour_id = data["tours"][-1]["tour_id"]
    assert f"error: {tours}: tour {tour_id} belongs to scene 'syn-8', not to 'syn-7'" in capsys.readouterr().err
    assert not out.exists()


def test_mixed_instruction_counts_rejected(pipeline, tmp_path, capsys):
    def add_an_instruction(data):
        record = data["episodes"][0]
        record["instructions"].append("walk on")
        record["instruction_ids"].append(f"{record['instruction_ids'][-1]}x")
        return data

    lopsided = edited_episodes(pipeline, tmp_path, add_an_instruction)
    out = tmp_path / "t.json"
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", lopsided, "--out", out) == 3
    err = capsys.readouterr().err
    assert "differing episode counts [2, 3]" in err and "uniform" in err
    assert not out.exists()


def test_instruction_ids_that_do_not_match_the_instructions_are_bad_input(pipeline, tmp_path, capsys):
    data = json.loads(pipeline["episodes"].read_text())
    record = data["episodes"][0]
    record["instruction_ids"] = record["instruction_ids"][:1]
    short = tmp_path / "short_ids.json"
    short.write_text(json.dumps(data))
    code = run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", short,
                   "--out", tmp_path / "t.json")
    assert code == 2
    assert f"{short} episode record 0: 1 instruction_ids for 2 instructions" in capsys.readouterr().err


def misspell_an_oracle_phase(traces, out) -> int:
    """Copy a trace file with its first oracle record's phase misspelled;
    returns that record's line number."""
    records = [json.loads(line) for line in traces.read_text().splitlines()]
    index = next(i for i, rec in enumerate(records) if rec["phase"] != "agent")
    records[index]["phase"] = "oracle_gaol"
    out.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return index + 1


def test_eval_rejects_a_misspelled_trace_phase(pipeline, tmp_path, capsys):
    bad = tmp_path / "gaol.jsonl"
    line = misspell_an_oracle_phase(pipeline["traces"], bad)
    assert run_cli("eval", "--traces", bad, "--episodes", pipeline["episodes"],
                   "--out", tmp_path / "r.json") == 2
    assert f"line {line}: unknown trace phase 'oracle_gaol'" in capsys.readouterr().err


def test_build_map_rejects_a_misspelled_trace_phase(pipeline, tmp_path, capsys):
    bad = tmp_path / "gaol.jsonl"
    line = misspell_an_oracle_phase(pipeline["traces"], bad)
    assert run_cli("build-map", "--scene", pipeline["scene"], "--traces", bad,
                   "--episodes", pipeline["episodes"], "--out", tmp_path / "m.json") == 2
    assert f"line {line}: unknown trace phase 'oracle_gaol'" in capsys.readouterr().err


def test_eval_reports_missing_episodes(pipeline, tmp_path, capsys):
    tours = json.loads(pipeline["tours"].read_text())
    first_tour = tours["tours"][0]["tour_id"]
    donor = tours["tours"][1]["episodes"][0]["episode_id"]
    grown = json.loads(pipeline["tours"].read_text())
    grown["tours"][0]["episodes"].append({"episode_id": donor})
    records = pipeline["traces"].read_text().splitlines(keepends=True)
    cases = [  # tour file, trace lines, the episode or tour the error names
        (grown, records, donor),  # a listed episode the trace lacks
        (dict(tours, tours=tours["tours"][1:]), records, first_tour),  # a tour the tour file lacks
    ]
    for i, (tour_file, lines, named) in enumerate(cases):
        (tmp_path / f"tours{i}.json").write_text(json.dumps(tour_file))
        (tmp_path / f"traces{i}.jsonl").write_text("".join(lines))
        code = run_cli("eval", "--traces", tmp_path / f"traces{i}.jsonl", "--episodes", pipeline["episodes"],
                       "--tours", tmp_path / f"tours{i}.json", "--out", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert code == 3
        assert first_tour in err and named in err


@pytest.mark.parametrize("start, final, cause", [
    ((6, 1), (1, 1), "the reference start"),  # SPL would be NaN
    ((1, 1), (6, 1), "the final position"),  # NE would be infinite
])
def test_eval_refuses_an_episode_whose_goal_is_out_of_reach(tmp_path, capsys, start, final, cause):
    scene = scene_from_ascii(["....#...", "....#...", "....#..."], scene_id="sealed")  # the right room is sealed
    c = scene.grid.cell_center
    reference = [c(start), c((2, 1)), c((0, 1))]
    files = {name: tmp_path / name for name in ("scene.json", "episodes.json", "traces.jsonl", "r.json")}
    save_scene(scene, files["scene.json"])
    save_episodes([Episode("e", "p", "sealed", reference, 0.0, "i", "go left")], files["episodes.json"])
    write_traces([TourTrace("t", [EpisodeTrace("e", [c(start), c(final)], reference)])], files["traces.jsonl"])
    assert run_cli("eval", "--traces", files["traces.jsonl"], "--episodes", files["episodes.json"],
                   "--scene", files["scene.json"], "--out", files["r.json"]) == 2
    assert f"error: tour t episode e: {cause} does not reach the goal" in capsys.readouterr().err
    assert not files["r.json"].exists()


def eval_flags(pipeline, kind):
    return {"alone": [], "tours": ["--tours", pipeline["tours"]], "scene": ["--scene", pipeline["scene"]],
            "geodesic": ["--scene", pipeline["scene"], "--geodesic"]}[kind]


@pytest.mark.parametrize("kind", ["alone", "scene", "tours"])
def test_eval_refuses_a_repeated_agent_record(pipeline, tmp_path, capsys, kind):
    records = pipeline["traces"].read_text().splitlines(keepends=True)
    first = json.loads(records[0])
    twice = tmp_path / "twice.jsonl"
    twice.write_text("".join(records[:1] + records))
    assert run_cli("eval", "--traces", twice, "--episodes", pipeline["episodes"], *eval_flags(pipeline, kind),
                   "--out", tmp_path / "r.json") == 2
    named = f"{twice} line 2: agent record of tour {first['tour_id']} episode {first['episode_id']} repeats line 1"
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("kind", ["alone", "scene", "geodesic"])
def test_eval_refuses_a_non_finite_agent_point(pipeline, tmp_path, capsys, value, kind):
    records = pipeline["traces"].read_text().splitlines(keepends=True)
    first = json.loads(records[0])
    first["points"][-1][0] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join([json.dumps(first) + "\n"] + records[1:]))
    assert run_cli("eval", "--traces", bad, "--episodes", pipeline["episodes"], *eval_flags(pipeline, kind),
                   "--out", tmp_path / "r.json") == 2
    last = len(first["points"]) - 1
    assert f"{bad} line 1: field 'points' item {last} must be three finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_non_finite_episode_path_point_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["episodes"].read_text())
    payload["episodes"][1]["path"][1][0] = math.inf
    episodes, tours = tmp_path / "episodes.json", tmp_path / "tours.json"
    episodes.write_text(json.dumps(payload))
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", episodes, "--out", tours) == 2
    assert f"{episodes} episode record 1: field 'path' item 1 must be three finite numbers" in capsys.readouterr().err
    assert not tours.exists()


def test_a_far_off_episode_path_point_fails_to_snap(pipeline, tmp_path, capsys):
    def far_point(data):
        data["episodes"][0]["path"][1][0] = 10**30
        return data

    far = edited_episodes(pipeline, tmp_path, far_point)
    out = tmp_path / "r.json"
    assert run_cli("eval", "--traces", pipeline["traces"], "--episodes", far, "--scene", pipeline["scene"],
                   "--geodesic", "--out", out) == 3
    err = capsys.readouterr().err
    assert "error: no navigable location within" in err and "(1e+30, " in err
    assert not out.exists()


def test_an_episode_id_repeated_across_records_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["episodes"].read_text())
    records = payload["episodes"]
    records[1]["episode_id"] = records[0]["episode_id"]
    episodes, tours = tmp_path / "episodes.json", tmp_path / "tours.json"
    episodes.write_text(json.dumps(payload))
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", episodes, "--out", tours) == 2
    assert f"{episodes} episode record 1: episode id {records[0]['episode_id']}_0 repeats record 0" in capsys.readouterr().err
    assert not tours.exists()


def test_a_repeated_tour_id_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["tours"].read_text())
    first = payload["tours"][0]["tour_id"]
    payload["tours"][1]["tour_id"] = first
    tours, traces = tmp_path / "tours.json", tmp_path / "traces.jsonl"
    tours.write_text(json.dumps(payload))
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", tours, "--episodes", pipeline["episodes"],
                   "--policy", "oracle", "--out", traces) == 2
    assert f"{tours} tour record 1: tour id {first} repeats record 0" in capsys.readouterr().err
    assert not traces.exists()


def test_a_non_finite_tour_id_is_bad_input_and_writes_no_trace(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["tours"].read_text())
    payload["tours"][0]["tour_id"] = math.inf
    tours, traces = tmp_path / "tours.json", tmp_path / "traces.jsonl"
    tours.write_text(json.dumps(payload))  # the bare Infinity token that json.load accepts
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", tours, "--episodes", pipeline["episodes"],
                   "--policy", "oracle", "--out", traces) == 2
    assert f"{tours} tour record 0: field 'tour_id' must be a string or an integer, got inf" in capsys.readouterr().err
    assert not traces.exists()


def test_a_nan_scene_id_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["scene"].read_text())
    payload["scene_id"] = math.nan
    scene, out = tmp_path / "scene.json", tmp_path / "episodes.json"
    scene.write_text(json.dumps(payload))
    assert run_cli("gen-episodes", "--scene", scene, "--out", out) == 2
    assert f"{scene}: field 'scene_id' must be a string or an integer, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [{}, True, 2.5], ids=["object", "bool", "float"])
def test_a_tour_entry_episode_id_that_is_not_an_id_is_named(pipeline, tmp_path, capsys, value):
    payload = json.loads(pipeline["tours"].read_text())
    payload["tours"][0]["episodes"][1]["episode_id"] = value
    tours = tmp_path / "tours.json"
    tours.write_text(json.dumps(payload))
    assert run_cli("stats", "--tours", tours) == 2
    assert (f"{tours} tour record 0 episode entry 1: field 'episode_id' must be a string or an integer, got {value!r}"
            in capsys.readouterr().err)


def test_an_episode_listed_twice_in_one_tour_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["tours"].read_text())
    entries = payload["tours"][0]["episodes"]
    entries.append(entries[0])
    tours = tmp_path / "tours.json"
    tours.write_text(json.dumps(payload))
    named = f"{tours} tour record 0 episode entry {len(entries) - 1}: episode {entries[0]['episode_id']} repeats entry 0"
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", tours, "--episodes", pipeline["episodes"],
                   "--policy", "oracle", "--out", tmp_path / "traces.jsonl") == 2
    assert named in capsys.readouterr().err
    assert run_cli("eval", "--traces", pipeline["traces"], "--episodes", pipeline["episodes"],
                   "--tours", tours, "--out", tmp_path / "r.json") == 2
    assert named in capsys.readouterr().err


def test_coverage_csv(pipeline, tmp_path, capsys):
    out = tmp_path / "coverage.csv"
    code = run_cli("coverage", "--tours", pipeline["tours"], "--episodes", pipeline["episodes"],
                   "--scene", pipeline["scene"], "--out", out, "--json", tmp_path / "c.json")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "episode_index,upcoming_pct_mean,tour_pct_mean,n_tours"
    last = lines[-1].split(",")
    assert last[1] == ""  # terminal record: no upcoming episode
    assert float(last[2]) == 100.0


def test_coverage_occlusion_flag_writes_the_curve_of_its_model(pipeline, tmp_path):
    # the pipeline's scene has walls between its rooms, so the curves differ
    scene = load_scene(pipeline["scene"])
    by_id = {ep.episode_id: ep for ep in load_episodes(pipeline["episodes"])}
    tours = load_tours(pipeline["tours"])
    written = {}
    for flag in ("on", "off"):
        out, want = tmp_path / f"{flag}.csv", tmp_path / f"{flag}_want.csv"
        assert run_cli("coverage", "--tours", pipeline["tours"], "--episodes", pipeline["episodes"],
                       "--scene", pipeline["scene"], "--occlusion", flag, "--out", out) == 0
        coverage_curves(tours, by_id, scene, ObservationModel(occlusion=flag == "on")).save_csv(want)
        written[flag] = out.read_bytes()
        assert written[flag] == want.read_bytes()
    assert written["on"] != written["off"]


def test_stats_block(pipeline, tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert run_cli("stats", "--tours", pipeline["tours"], "--out", out) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"\s*scenes\s+episodes\s+tours\s+tours/scene\s+mean\s+min\s+max\s+stddev", lines[0])
    payload = json.loads(out.read_text())
    assert payload["tours"] == 2
    assert payload["episodes"] == 12


def test_failing_external_agent_flushes_partial(pipeline, tmp_path, capsys):
    agent = tmp_path / "dies_early.py"
    agent.write_text(
        "import json, sys\n"
        "for count, line in enumerate(sys.stdin, start=1):\n"
        "    sys.stdout.write(json.dumps({'type': 'ack', 'protocol_version': 3}) + '\\n')\n"
        "    sys.stdout.flush()\n"
        "    if count >= 2:\n"
        "        sys.exit(1)\n"
    )
    traces = tmp_path / "partial.jsonl"
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"],
                   "--policy", f"ext:{sys.executable} {agent}", "--out", traces)
    err = capsys.readouterr().err
    assert code == 1
    assert "flushed" in err
    assert traces.exists()
    first = json.loads(traces.read_text().splitlines()[0])
    assert first["phase"] == "agent"


def test_external_agent_exit_status_and_stderr_in_error(pipeline, tmp_path, capsys):
    agent = tmp_path / "exits_7.py"
    agent.write_text("import sys\nsys.stderr.write('boom\\n')\nsys.exit(7)\n")
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"],
                   "--policy", f"ext:{sys.executable} {agent}", "--out", tmp_path / "t.jsonl")
    err = capsys.readouterr().err
    assert code == 1
    assert "exit status 7" in err
    assert "boom" in err


def test_an_agent_that_acks_reset_plainly_is_refused(pipeline, tmp_path, capsys):
    agent = tmp_path / "plain_ack.py"
    agent.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.write(json.dumps({'type': 'ack'}) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    traces = tmp_path / "refused.jsonl"
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"],
                   "--policy", f"ext:{sys.executable} {agent}", "--out", traces)
    err = capsys.readouterr().err
    assert code == 1
    assert "protocol_version None" in err and "version 3" in err
    assert traces.read_text() == ""


@pytest.mark.parametrize("command, flag", [("eval", "--d-th"), ("eval", "--success-radius"),
                                           ("run", "--step-timeout"), ("coverage", "--radius")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_setting_that_is_not_finite_is_bad_input(pipeline, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    inputs = ("--traces", pipeline["traces"]) if command == "eval" else (
        "--scene", pipeline["scene"], "--tours", pipeline["tours"])
    code = run_cli(command, *inputs, "--episodes", pipeline["episodes"], flag, value, "--out", out)
    field = flag[2:].replace("-", "_")
    assert code == 2
    assert f"{field} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_policy_is_a_usage_error(pipeline, tmp_path):
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", "clairvoyant",
                   "--out", tmp_path / "t.jsonl")
    assert code == 2


MALFORMED_POLICY_SPECS = [
    ("tcp:localhost", "is not tcp:<host>:<port>"),
    ("tcp:localhost:port", "is not tcp:<host>:<port>"),
    ("tcp:a:1:2", "is not tcp:<host>:<port>"),
    ("tcp:localhost:70000", "has a port outside 1..65535"),
    ("tcp:localhost:0", "has a port outside 1..65535"),
    ("noisy:abc", "is not noisy:<probability>"),
    ("ext:", "names no command"),
    ('ext:"foo', "is not ext:<command>: No closing quotation"),
]


@pytest.mark.parametrize("spec, form", MALFORMED_POLICY_SPECS, ids=[spec for spec, _ in MALFORMED_POLICY_SPECS])
def test_a_malformed_tcp_policy_spec_is_named(pipeline, tmp_path, capsys, spec, form):
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", spec, "--out", tmp_path / "t.jsonl")
    assert code == 2
    assert f"error: policy spec {spec!r} {form}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tours", "episodes"])
def test_a_file_without_its_record_list_is_named(pipeline, tmp_path, capsys, key):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    if key == "tours":
        code = run_cli("stats", "--tours", empty)
    else:
        code = run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", empty, "--out", tmp_path / "t.json")
    assert code == 2
    assert f"error: {empty}: missing field {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("keys, field, where", [
    ((1,), "scene_id", "tour record 1"),
    ((0,), "episodes", "tour record 0"),
    ((0, "episodes", 1), "episode_id", "tour record 0 episode entry 1"),
], ids=["scene_id", "episodes", "episode_id"])
def test_a_missing_tour_field_is_named_with_its_file_and_record(pipeline, tmp_path, capsys, keys, field, where):
    data = json.loads(pipeline["tours"].read_text())
    record = data["tours"]
    for key in keys:
        record = record[key]
    del record[field]
    edited = tmp_path / "tours.json"
    edited.write_text(json.dumps(data))
    assert run_cli("stats", "--tours", edited) == 2
    assert f"error: {edited} {where}: missing field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("phase, field", [("agent", "stop_called"), ("agent", "tour_id"), ("oracle", "points")])
def test_a_missing_trace_field_is_named_with_its_file_and_line(pipeline, tmp_path, capsys, phase, field):
    records = [json.loads(line) for line in pipeline["traces"].read_text().splitlines()]
    index = next(i for i, rec in enumerate(records) if (rec["phase"] == "agent") == (phase == "agent"))
    del records[index][field]
    edited = tmp_path / "traces.jsonl"
    edited.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert run_cli("eval", "--traces", edited, "--episodes", pipeline["episodes"], "--out", tmp_path / "r.json") == 2
    assert f"error: {edited} line {index + 1}: missing field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("tour_id", True), ("episode_id", None)])
def test_a_trace_id_that_is_not_an_id_is_named_with_its_line(pipeline, tmp_path, capsys, field, value):
    records = [json.loads(line) for line in pipeline["traces"].read_text().splitlines()]
    records[1][field] = value
    edited = tmp_path / "traces.jsonl"
    edited.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert run_cli("eval", "--traces", edited, "--episodes", pipeline["episodes"], "--out", tmp_path / "r.json") == 2
    assert (f"error: {edited} line 2: field {field!r} must be a string or an integer, got {value!r}"
            in capsys.readouterr().err)


def test_a_scene_with_an_integer_id_runs_the_pipeline(pipeline, tmp_path):
    payload = json.loads(pipeline["scene"].read_text())
    payload["scene_id"] = 5
    files = {name: tmp_path / name for name in ("scene.json", "episodes.json", "tours.json", "traces.jsonl")}
    files["scene.json"].write_text(json.dumps(payload))
    scene, episodes, tours, traces = files.values()
    assert run_cli("gen-episodes", "--scene", scene, "--count", 4, "--seed", 7, "--out", episodes) == 0
    assert {record["scan"] for record in json.loads(episodes.read_text())["episodes"]} == {"5"}
    assert run_cli("gen-tours", "--scene", scene, "--episodes", episodes, "--out", tours) == 0
    assert run_cli("run", "--scene", scene, "--tours", tours, "--episodes", episodes, "--policy", "oracle",
                   "--out", traces) == 0
    assert run_cli("eval", "--scene", scene, "--tours", tours, "--episodes", episodes, "--traces", traces,
                   "--out", tmp_path / "report.json") == 0


def test_integer_tour_and_trace_ids_match_the_episodes_of_that_text(pipeline, tmp_path):
    def one_instruction_and_an_integer_id(data):
        for index, record in enumerate(data["episodes"]):
            record.update(episode_id=index, instructions=record["instructions"][:1],
                          instruction_ids=record["instruction_ids"][:1])
        return data

    episodes = edited_episodes(pipeline, tmp_path, one_instruction_and_an_integer_id)
    tours, traces = tmp_path / "tours.json", tmp_path / "traces.jsonl"
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", episodes, "--out", tours) == 0
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", tours, "--episodes", episodes,
                   "--policy", "oracle", "--out", traces) == 0
    # the same tours and traces with every tour, entry and trace id an integer
    payload = json.loads(tours.read_text())
    number = {tour["tour_id"]: k for k, tour in enumerate(payload["tours"])}
    for tour in payload["tours"]:
        tour["tour_id"] = number[tour["tour_id"]]
        for entry in tour["episodes"]:
            entry["episode_id"] = int(entry["episode_id"])
    records = [json.loads(line) for line in traces.read_text().splitlines()]
    for record in records:
        record.update(tour_id=number[record["tour_id"]], episode_id=int(record["episode_id"]))
    int_tours, int_traces = tmp_path / "int_tours.json", tmp_path / "int_traces.jsonl"
    int_tours.write_text(json.dumps(payload))
    int_traces.write_text("".join(json.dumps(record) + "\n" for record in records))

    assert [t.episode_ids for t in load_tours(int_tours)] == [t.episode_ids for t in load_tours(tours)]
    by_id = {ep.episode_id: ep for ep in load_episodes(episodes)}
    assert ([[e.episode_id for e in t.episodes] for t in read_traces(int_traces, by_id)]
            == [[e.episode_id for e in t.episodes] for t in read_traces(traces, by_id)])
    assert run_cli("eval", "--tours", int_tours, "--episodes", episodes, "--traces", int_traces,
                   "--out", tmp_path / "report.json") == 0


def test_a_key_error_inside_a_stage_escapes_main(pipeline, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("a bug, not bad input")

    monkeypatch.setattr(cli, "build_report", broken)
    with pytest.raises(KeyError, match="a bug, not bad input"):
        run_cli("eval", "--traces", pipeline["traces"], "--episodes", pipeline["episodes"],
                "--out", tmp_path / "r.json")
    assert not (tmp_path / "r.json").exists()


def test_build_map_replays_to_identical_snapshot(pipeline, tmp_path):
    live = tmp_path / "live.json"
    traces = tmp_path / "mapped.jsonl"
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", "oracle",
                   "--map", "iterative", "--map-out", live, "--out", traces) == 0
    replayed = tmp_path / "replayed.json"
    assert run_cli("build-map", "--scene", pipeline["scene"], "--traces", traces,
                   "--episodes", pipeline["episodes"], "--mode", "iterative",
                   "--out", replayed) == 0
    assert replayed.read_bytes() == live.read_bytes()


def test_build_map_on_an_empty_trace_file_writes_no_map(pipeline, tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "map.json"
    empty.write_text("")
    assert run_cli("build-map", "--scene", pipeline["scene"], "--traces", empty,
                   "--episodes", pipeline["episodes"], "--out", out) == 3
    assert f"no tour traces in {empty}" in capsys.readouterr().err
    assert not out.exists()


def test_map_rollout_makes_no_crop_when_no_policy_reads_one(pipeline, tmp_path, monkeypatch):
    calls = []
    crop = harness.crop_layers
    monkeypatch.setattr(harness, "crop_layers", lambda *args: calls.append(args) or crop(*args))
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", "noisy:0.2", "--seed", 3,
                   "--map", "iterative", "--map-out", tmp_path / "map.json",
                   "--out", tmp_path / "traces.jsonl") == 0
    assert (tmp_path / "map.json").exists()
    assert calls == []


def test_scene_payload_that_does_not_fit_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["scene"].read_text())
    payload["height"] += 1  # the navigable and semantic payloads are one row short
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("gen-episodes", "--scene", bad, "--out", tmp_path / "e.json") == 2
    assert "expected" in capsys.readouterr().err


def edited(key, edit):
    """The text of the pipeline's ``key`` file with ``edit`` applied to its
    payload, or for the traces to the first record, an agent record."""
    def text(pipeline):
        lines = pipeline[key].read_text().splitlines(keepends=True)
        payload = json.loads(lines[0])
        edit(payload)
        return json.dumps(payload) + "\n" + "".join(lines[1:])
    return text


def edited_episode(**fields):
    return edited("episodes", lambda payload: payload["episodes"][0].update(fields))


def edited_trace(**fields):
    return edited("traces", lambda record: record.update(fields))


MALFORMED_INPUTS = [  # case, the input the file stands for, its text, the error after the file's path
    ("list", "scene", lambda pipeline: "[]", ": expected a JSON object"),
    ("no type", "scene", edited("scene", lambda payload: payload.pop("type")), ": missing field 'type'"),
    ("mesh", "scene", edited("scene", lambda payload: payload.update(type="mesh")),
     ": field 'type' must be graph or grid, got 'mesh'"),
    ("grid without resolution", "scene", edited("scene", lambda payload: payload.pop("resolution")),
     ": missing field 'resolution'"),
    ("graph without edges", "scene", edited("graph", lambda payload: payload.pop("edges")), ": missing field 'edges'"),
    ("truncated", "scene", lambda pipeline: '{"type": ', " line 1: Expecting value (column 10)"),
    ("number", "scene", lambda pipeline: "5", ": expected a JSON object"),
    ("string", "scene", lambda pipeline: '"grid type"', ": expected a JSON object"),
    ("floor_z list", "scene", edited("scene", lambda payload: payload.update(floor_z=[])),
     ": field 'floor_z' must be a finite number, got []"),
    ("semantic", "scene", edited("scene", lambda payload: payload.update(semantic="x")),
     ": Invalid base64-encoded string"),
    ("graph nodes list", "scene", edited("graph", lambda payload: payload.update(nodes=[])),
     ": field 'nodes' must be an object, got []"),
    ("graph edges object", "scene", edited("graph", lambda payload: payload.update(edges={})),
     ": field 'edges' must be a list, got {}"),
    ("three-id graph edge", "scene", edited("graph", lambda payload: payload["edges"].insert(1, ["d0", "r0", "r1"])),
     ": field 'edges' item 1 must be a pair of ids, got ['d0', 'r0', 'r1']"),
    ("float width", "scene", edited("scene", lambda payload: payload.update(width=35.0)),
     ": field 'width' must be a non-negative integer, got 35.0"),
    ("bool resolution", "scene", edited("scene", lambda payload: payload.update(resolution=True)),
     ": field 'resolution' must be a finite number, got True"),
    ("two-number origin", "scene", edited("scene", lambda payload: payload.update(origin=[0.0, 0.0])),
     ": field 'origin' must be three finite numbers, got [0.0, 0.0]"),
    ("tour file number", "tours", lambda pipeline: "5", ": expected a JSON object"),
    ("episode record", "episodes", lambda pipeline: '{"episodes": [5]}', ": field 'episodes' item 0 must be an object, got 5"),
    ("tour record", "tours", lambda pipeline: '{"tours": [5]}', ": field 'tours' item 0 must be an object, got 5"),
    ("trace line", "traces", lambda pipeline: pipeline["traces"].read_text().splitlines()[0] + "\n5\n",
     " line 2: expected a JSON object"),
    ("text heading", "episodes", edited_episode(heading="1"),
     " episode record 0: field 'heading' must be a finite number, got '1'"),
    ("bool heading", "episodes", edited_episode(heading=True),
     " episode record 0: field 'heading' must be a finite number, got True"),
    ("text instructions", "episodes", edited_episode(instructions="ab"),
     " episode record 0: field 'instructions' must be a list, got 'ab'"),
    ("object instructions", "episodes", edited_episode(instructions={"0": "go"}),
     " episode record 0: field 'instructions' must be a list, got {'0': 'go'}"),
    ("number instruction", "episodes", edited_episode(instructions=["go", 5]),
     " episode record 0: field 'instructions' item 1 must be text, got 5"),
    ("empty path", "episodes", edited_episode(path=[]),
     " episode record 0: field 'path' must be a non-empty list, got []"),
    ("text stop_called", "traces", edited_trace(stop_called="yes"),
     " line 1: field 'stop_called' must be true or false, got 'yes'"),
    ("text actions", "traces", edited_trace(actions="forward"), " line 1: field 'actions' must be a list, got 'forward'"),
    ("number actions", "traces", edited_trace(actions=5), " line 1: field 'actions' must be a list, got 5"),
    ("number action", "traces", edited_trace(actions=[1]), " line 1: field 'actions' item 0 must be text, got 1"),
    ("empty agent points", "traces", edited_trace(points=[]),
     " line 1: field 'points' must be a non-empty list, got []"),
]


@pytest.mark.parametrize("case, kind, text, message", MALFORMED_INPUTS, ids=[row[0] for row in MALFORMED_INPUTS])
def test_a_malformed_scene_file_is_bad_input_and_named(pipeline, tmp_path, capsys, case, kind, text, message):
    # a scene runs gen-episodes, and episodes, tours and traces the first command that reads them
    bad = tmp_path / "input.json"
    bad.write_text(text(pipeline))
    out = tmp_path / "out.json"
    argv = {
        "scene": ("gen-episodes", "--scene", bad, "--out", out),
        "episodes": ("gen-tours", "--scene", pipeline["scene"], "--episodes", bad, "--out", out),
        "tours": ("stats", "--tours", bad),
        "traces": ("eval", "--traces", bad, "--episodes", pipeline["episodes"], "--out", out),
    }[kind]
    assert run_cli(*argv) == 2
    assert f"error: {bad}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_scene_file_that_is_not_utf8_is_bad_input_named_once(pipeline, tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_bytes(b'{"type": "grid", "scene_id": "caf\xe9"}')
    assert run_cli("gen-episodes", "--scene", bad, "--out", tmp_path / "e.json") == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: 'utf-8' codec can't decode byte 0xe9" in err and err.count(str(bad)) == 1


def test_a_scene_with_a_nan_token_is_bad_input(pipeline, tmp_path, capsys):
    payload = json.loads(pipeline["scene"].read_text())
    payload["floor_z"] = math.nan
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(payload))  # writes the bare NaN token that json.load accepts
    assert "NaN" in bad.read_text()
    traces = tmp_path / "t.jsonl"
    assert run_cli("run", "--scene", bad, "--tours", pipeline["tours"], "--episodes", pipeline["episodes"],
                   "--out", traces) == 2
    assert f"{bad}: field 'floor_z' must be a finite number, got nan" in capsys.readouterr().err
    assert not traces.exists()


@pytest.mark.parametrize("case, name", [("node", "node "), ("floor_z", "floor_z"), ("resolution", "resolution")])
def test_a_scene_number_beyond_the_float_range_is_bad_input_and_named(pipeline, tmp_path, capsys, case, name):
    key = "graph" if case == "node" else "scene"
    payload = json.loads(pipeline[key].read_text())
    if case == "node":
        name = f"nodes: field {min(payload['nodes'])!r}"
        payload["nodes"][min(payload["nodes"])][0] = 10**400
    else:
        name = f"field {name!r}"
        payload[case] = 10**400
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(payload))  # an integer literal that float() cannot hold
    out = tmp_path / "e.json"
    assert run_cli("gen-episodes", "--scene", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{name} " in err and "Traceback" not in err
    assert not out.exists()


def test_build_map_replays_at_the_configured_turn(pipeline, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "turn30.cfg"
    cfg.write_text("turn_deg = 30\n")
    live = tmp_path / "live.json"
    traces = tmp_path / "turn30.jsonl"
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", "oracle", "--config", cfg,
                   "--map", "iterative", "--map-out", live, "--out", traces) == 0
    replay_args = ("build-map", "--scene", pipeline["scene"], "--traces", traces,
                   "--episodes", pipeline["episodes"], "--mode", "iterative")
    by_file = tmp_path / "by_file.json"
    assert run_cli(*replay_args, "--config", cfg, "--out", by_file) == 0
    assert by_file.read_bytes() == live.read_bytes()
    monkeypatch.setenv("IVLN_CONFIG", str(cfg))
    by_env = tmp_path / "by_env.json"
    assert run_cli(*replay_args, "--out", by_env) == 0
    assert by_env.read_bytes() == live.read_bytes()
    # at the default 15 degrees the logged moves do not replay
    monkeypatch.delenv("IVLN_CONFIG")
    capsys.readouterr()
    assert run_cli(*replay_args, "--out", tmp_path / "at15.json") == 2
    assert re.search(r"episode \S+.* step \d+: replay is at", capsys.readouterr().err)


def test_run_refuses_a_turn_of_45_degrees_or_more_before_any_step(pipeline, tmp_path, capsys):
    cfg = tmp_path / "turn60.cfg"
    cfg.write_text("turn_deg = 60\n")
    traces = tmp_path / "turn60.jsonl"
    assert run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--policy", "oracle", "--config", cfg, "--out", traces) == 2
    assert "turn_deg must be below 45, got 60.0" in capsys.readouterr().err
    assert not traces.exists()


def test_config_file_and_flag_precedence(pipeline, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tour build settings\nseed = 5\n")
    by_flag = tmp_path / "by_flag.json"
    by_file = tmp_path / "by_file.json"
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", pipeline["episodes"],
                   "--seed", 5, "--out", by_flag) == 0
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", pipeline["episodes"],
                   "--config", cfg, "--out", by_file) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
    # flags beat the file, and the file is picked up from the environment
    monkeypatch.setenv("IVLN_CONFIG", str(cfg))
    by_env_flag = tmp_path / "by_env_flag.json"
    baseline = tmp_path / "baseline.json"
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", pipeline["episodes"],
                   "--seed", 0, "--out", by_env_flag) == 0
    monkeypatch.delenv("IVLN_CONFIG")
    assert run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", pipeline["episodes"],
                   "--seed", 0, "--out", baseline) == 0
    assert by_env_flag.read_bytes() == baseline.read_bytes()


def test_bad_config_key_rejected(pipeline, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    code = run_cli("gen-tours", "--scene", pipeline["scene"], "--episodes", pipeline["episodes"],
                   "--config", cfg, "--out", tmp_path / "t.json")
    assert code == 2


def run_with_config(pipeline, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "traces.jsonl"
    code = run_cli("run", "--scene", pipeline["scene"], "--tours", pipeline["tours"],
                   "--episodes", pipeline["episodes"], "--config", cfg, "--out", out)
    return code, out


def test_config_file_map_mode_none_is_the_default(pipeline, tmp_path):
    code, out = run_with_config(pipeline, tmp_path, "map_mode = none\n")
    assert code == 0
    assert out.read_bytes() == pipeline["traces"].read_bytes()


def test_config_file_policy_none_is_a_usage_error(pipeline, tmp_path, capsys):
    code, _ = run_with_config(pipeline, tmp_path, "policy = none\n")
    assert code == 2
    assert "unknown policy spec 'none'" in capsys.readouterr().err


def test_config_file_int_key_rejects_a_boolean(pipeline, tmp_path, capsys):
    code, out = run_with_config(pipeline, tmp_path, "seed = true\n")
    assert code == 2
    assert "config key seed: cannot parse 'true'" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_entry_point(pipeline):
    # the declared `ivln` target, called the way pip's generated wrapper
    # calls it, so no installed executable is needed
    module, attr = declared_scripts()["ivln"].split(":")
    wrapper = ("import sys; from importlib import import_module; "
               f"sys.exit(getattr(import_module({module!r}), {attr!r})())")
    proc = run_process(sys.executable, "-c", wrapper, "stats", "--tours", pipeline["tours"])
    assert proc.returncode == 0, proc.stderr
    assert "tours/scene" in proc.stdout


def test_pyproject_text_reader_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    assert scripts_table_text(text) == tomllib.loads(text)["project"]["scripts"]


@pytest.mark.skipif(shutil.which("ivln") is None, reason="no installed `ivln` executable on PATH")
def test_installed_console_script(pipeline):
    proc = subprocess.run(
        ["ivln", "stats", "--tours", str(pipeline["tours"])],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tours/scene" in proc.stdout


def test_python_m_ivln(pipeline):
    proc = run_process(sys.executable, "-m", "ivln", "stats", "--tours", pipeline["tours"])
    assert proc.returncode == 0, proc.stderr
    assert "tours/scene" in proc.stdout
