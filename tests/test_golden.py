"""Golden artifact hashes: the pipeline's bytes at fixed seeds.

Drives ``ivln.cli.main`` in-process through the ``scripts/run_demo.py``
chain plus a geodesic eval, an episodic-map run and replay, an
episodic-map run of the template agent (``scripts/example_agent.py``) and
a 16-path tour, which the local search orders, on a grid scene, and
through episodes, tours, a noisy rollout and a geodesic eval on its graph
twin, then compares the sha256 of every artifact with ``tests/golden/sha256.json``.  A refactor that keeps
behaviour keeps these bytes; a change that means to alter them
regenerates the table with ``python tests/test_golden.py``
(which prints the entries it adds, removes and changes) and says which
artifacts changed and why.  The JSON artifacts must also
be in the canonical form ``ivln.environment.json_line`` writes.
"""

import hashlib
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ivln.cli import main
from ivln.environment import json_line

SEEDS = (3, 7)
TABLE = Path(__file__).resolve().parent / "golden" / "sha256.json"
AGENT = Path(__file__).resolve().parents[1] / "scripts" / "example_agent.py"


def _cli(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"ivln {' '.join(map(str, argv))} exited {code}")


def run_chain(out: Path, seed: int) -> None:
    """The run_demo.py grid chain, an episodic-map run and replay, the
    template agent's episodic-map run, a tour over more paths than the
    exact ordering takes, and the graph-twin pipeline."""
    scene, graph = out / "scene.json", out / "graph.json"
    episodes, tours, traces = out / "episodes.json", out / "tours.json", out / "traces.jsonl"
    _cli("gen-env", "--rooms", 3, "--seed", seed, "--out", scene, "--graph-out", graph)
    _cli("gen-episodes", "--scene", scene, "--count", 8, "--n", 2,
         "--min-length", 4, "--max-length", 12, "--seed", seed, "--out", episodes)
    _cli("gen-tours", "--scene", scene, "--episodes", episodes, "--seed", seed, "--out", tours)
    _cli("run", "--scene", scene, "--tours", tours, "--episodes", episodes,
         "--policy", "noisy:0.2", "--seed", seed, "--map", "iterative",
         "--map-out", out / "map.json", "--out", traces)
    _cli("eval", "--traces", traces, "--episodes", episodes, "--scene", scene,
         "--tours", tours, "--out", out / "report.json", "--csv", out / "per_episode.csv")
    _cli("eval", "--traces", traces, "--episodes", episodes, "--scene", scene,
         "--tours", tours, "--geodesic", "--out", out / "report_geodesic.json")
    _cli("coverage", "--tours", tours, "--episodes", episodes, "--scene", scene,
         "--out", out / "coverage.csv", "--json", out / "coverage.json")
    _cli("stats", "--tours", tours, "--out", out / "stats.json")
    _cli("build-map", "--scene", scene, "--traces", traces, "--episodes", episodes,
         "--mode", "iterative", "--out", out / "map_replayed.json")
    episodic_traces = out / "traces_episodic.jsonl"
    _cli("run", "--scene", scene, "--tours", tours, "--episodes", episodes,
         "--policy", "noisy:0.2", "--seed", seed, "--map", "episodic",
         "--map-out", out / "map_episodic.json", "--out", episodic_traces)
    _cli("build-map", "--scene", scene, "--traces", episodic_traces, "--episodes", episodes,
         "--mode", "episodic", "--out", out / "map_episodic_replayed.json")
    _cli("run", "--scene", scene, "--tours", tours, "--episodes", episodes,
         "--policy", f"ext:{shlex.join([sys.executable, str(AGENT)])}", "--map", "episodic",
         "--map-out", out / "map_agent.json", "--out", out / "traces_agent.jsonl")
    _cli("gen-episodes", "--scene", scene, "--count", 16, "--n", 1,
         "--min-length", 4, "--max-length", 12, "--seed", seed, "--out", out / "episodes_16.json")
    _cli("gen-tours", "--scene", scene, "--episodes", out / "episodes_16.json", "--seed", seed,
         "--out", out / "tours_16.json")

    g_episodes, g_tours = out / "graph_episodes.json", out / "graph_tours.json"
    g_traces = out / "graph_traces.jsonl"
    _cli("gen-episodes", "--scene", graph, "--count", 6, "--n", 2,
         "--min-length", 2, "--max-length", 12, "--seed", seed, "--out", g_episodes)
    _cli("gen-tours", "--scene", graph, "--episodes", g_episodes, "--seed", seed,
         "--out", g_tours)
    _cli("run", "--scene", graph, "--tours", g_tours, "--episodes", g_episodes,
         "--policy", "noisy:0.2", "--seed", seed, "--out", g_traces)
    _cli("eval", "--traces", g_traces, "--episodes", g_episodes, "--scene", graph,
         "--tours", g_tours, "--geodesic", "--out", out / "graph_report.json")
    _cli("coverage", "--tours", g_tours, "--episodes", g_episodes, "--scene", graph,
         "--out", out / "graph_coverage.csv", "--json", out / "graph_coverage.json")


def artifact_hashes(root: Path) -> dict[str, str]:
    hashes = {}
    for seed in SEEDS:
        out = root / f"seed{seed}"
        out.mkdir()
        run_chain(out, seed)
        for path in sorted(out.iterdir()):
            hashes[f"seed{seed}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The chains' output root and its artifact hashes, made once."""
    root = tmp_path_factory.mktemp("golden")
    return root, artifact_hashes(root)


def test_artifacts_match_golden_hashes(chain):
    want = json.loads(TABLE.read_text(encoding="utf-8"))
    _, got = chain
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"artifacts differ from the golden hashes: {changed}"


def test_json_artifacts_are_canonical_lines(chain):
    root, _ = chain
    artifacts = sorted((root / "seed3").glob("*.json*"))
    assert len(artifacts) == 23
    for path in artifacts:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True) if path.suffix == ".jsonl" else [text]
        assert lines, path.name
        for line in lines:
            assert line == json_line(json.loads(line)), path.name


def table_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per entry that ``new`` adds to, removes from or changes in ``old``."""
    return ([f"added {name}" for name in sorted(new.keys() - old.keys())]
            + [f"removed {name}" for name in sorted(old.keys() - new.keys())]
            + [f"changed {name}" for name in sorted(old.keys() & new.keys()) if old[name] != new[name]])


def test_table_changes_names_each_added_removed_and_changed_entry():
    old = {"a.json": "1", "b.json": "2", "c.json": "3"}
    new = {"a.json": "1", "c.json": "4", "d.json": "5"}
    assert table_changes(old, new) == ["added d.json", "removed b.json", "changed c.json"]
    assert table_changes(old, dict(old)) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = artifact_hashes(Path(tmp))
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    for line in table_changes(old, table) or ["no entry changed"]:
        print(line)
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} hashes -> {TABLE}")
