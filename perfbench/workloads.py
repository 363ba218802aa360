"""The four benchmark workloads: seeded inputs, timed stages, output checks.

Each workload runs several independent instances, each with its own
scene drawn from the run's seed, so that one unusual scene moves a run's
total little.  Inputs are written by ``make_inputs`` (set-up, untimed);
``run`` drives the timed stages through ``ivln.cli.main`` and checks the
artifacts they wrote.

Rooms have a fixed 4 m span (``--room-min 4 --room-max 4``): the grid
size then no longer varies with the seed, which would otherwise move
every field and ray cast by itself.  Door and furniture placement, and
all paths, still come from the seed.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
AGENT = ROOT / "scripts" / "example_agent.py"
ROOM_SPAN = ("--room-min", 4, "--room-max", 4)


@dataclass(frozen=True)
class Workload:
    name: str
    key_stage: str  # the stage this workload exists to stress
    stages: tuple[str, ...]
    instance_s: float  # nominal timed seconds of one instance, 2-core x86 VM
    setup_repeats: int  # fresh set-up processes per run; more where set-up is short
    full: dict
    tiny: dict
    make_inputs: Callable
    run: Callable


def _gen_env(call, d: Path, seed: int, rooms: int) -> None:
    call("gen-env", "--rooms", rooms, *ROOM_SPAN, "--seed", seed,
         "--out", d / "scene.json", "--graph-out", d / "graph.json")


def _rollout_inputs(call, d: Path, seed: int, size: dict) -> None:
    _gen_env(call, d, seed, size["rooms"])
    lo, hi = size["lengths"]
    call("gen-episodes", "--scene", d / "scene.json", "--count", size["paths"], "--n", size["n"],
         "--min-length", lo, "--max-length", hi, "--seed", seed, "--out", d / "episodes.json")
    call("gen-tours", "--scene", d / "scene.json", "--episodes", d / "episodes.json",
         "--seed", seed, "--out", d / "tours.json")


# ---------------------------------------------------------------------------
# artifact readers for the checks (plain JSON, independent of ivln)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _episode_paths(path: Path) -> dict[str, str]:
    """In-memory episode id -> path id, as load_episodes fans them out."""
    out = {}
    for rec in _load(path)["episodes"]:
        texts = rec["instructions"]
        ids = [f"{rec['episode_id']}_{k}" for k in range(len(texts))] if len(texts) > 1 else [str(rec["episode_id"])]
        for eid in ids:
            out[eid] = rec["path_id"]
    return out


def _trace_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_exact_cover(episodes: Path, tours: Path) -> str | None:
    """Every episode in exactly one tour; each tour visits each path of its group once."""
    paths_of = _episode_paths(episodes)
    seen: dict[str, int] = {}
    group_of: dict[str, frozenset] = {}
    for tour in _load(tours)["tours"]:
        ids = [e["episode_id"] for e in tour["episodes"]]
        for eid in ids:
            seen[eid] = seen.get(eid, 0) + 1
        visited = [paths_of.get(eid) for eid in ids]
        if None in visited or len(set(visited)) != len(visited):
            return f"tour {tour['tour_id']} repeats a path or names an unknown episode"
        group = frozenset(visited)
        for pid in group:
            if group_of.setdefault(pid, group) != group:
                return f"path {pid} sits in tours with different path sets"
    if set(seen) != set(paths_of) or any(c != 1 for c in seen.values()):
        return "episodes are not covered exactly once"
    return None


def check_region_monotone(coverage_json: Path) -> str | None:
    for tour in _load(coverage_json)["per_tour"]:
        pcts = [r["tour_region_pct"] for r in tour["records"]]
        if any(b < a for a, b in zip(pcts, pcts[1:])):
            return f"tour {tour['tour_id']} region coverage decreases"
    return None


# ---------------------------------------------------------------------------
# corpus


def _corpus_inputs(call, d, seed, size):
    _gen_env(call, d, seed, size["rooms"])


def _corpus_run(s, d: Path, seed: int, size: dict) -> None:
    scene, graph = d / "scene.json", d / "graph.json"
    eps, tours, cov = d / "episodes.json", d / "tours.json", d / "coverage.json"
    s.call("gen_episodes", "gen-episodes", "--scene", scene, "--count", size["paths"],
           "--n", 3, "--seed", seed, "--out", eps, outputs=[eps])
    s.call("gen_tours", "gen-tours", "--scene", scene, "--episodes", eps,
           "--seed", seed, "--out", tours, outputs=[tours])
    s.call("coverage", "coverage", "--scene", scene, "--episodes", eps, "--tours", tours,
           "--radius", 3, "--occlusion", "on", "--out", d / "coverage.csv", "--json", cov,
           outputs=[d / "coverage.csv", cov])

    geps, gtours = d / "graph_episodes.json", d / "graph_tours.json"
    gtraces, greport = d / "graph_traces.jsonl", d / "graph_report.json"
    s.call("graph_corpus", "gen-episodes", "--scene", graph, "--count", size["graph_paths"],
           "--n", 2, "--seed", seed, "--out", geps, outputs=[geps])
    s.call("graph_corpus", "gen-tours", "--scene", graph, "--episodes", geps,
           "--seed", seed, "--out", gtours, outputs=[gtours])
    s.call("graph_corpus", "run", "--scene", graph, "--episodes", geps, "--tours", gtours,
           "--policy", "oracle", "--seed", seed, "--out", gtraces, outputs=[gtraces])
    s.call("graph_corpus", "eval", "--traces", gtraces, "--episodes", geps, "--scene", graph,
           "--tours", gtours, "--geodesic", "--out", greport, outputs=[greport])

    s.check("grid tours cover episodes exactly", check_exact_cover(eps, tours))
    s.check("coverage region pct non-decreasing", check_region_monotone(cov))
    s.check("graph tours cover episodes exactly", check_exact_cover(geps, gtours))
    summary = _load(greport)["summary"]
    s.check("graph oracle scores SR 1.0, t-nDTW 100.0",
            None if (summary["sr"], summary["t_ndtw"]) == (1.0, 100.0) else f"summary {summary}")


# ---------------------------------------------------------------------------
# rollout_map


def _rollout_map_run(s, d: Path, seed: int, size: dict) -> None:
    scene, eps, tours = d / "scene.json", d / "episodes.json", d / "tours.json"
    traces, live, replay, report = d / "traces.jsonl", d / "map.json", d / "map_replayed.json", d / "report.json"
    s.call("run", "run", "--scene", scene, "--episodes", eps, "--tours", tours,
           "--policy", "noisy:0.2", "--seed", seed, "--map", "iterative", "--map-out", live,
           "--out", traces, outputs=[traces, live])
    s.call("build_map", "build-map", "--scene", scene, "--traces", traces, "--episodes", eps,
           "--mode", "iterative", "--out", replay, outputs=[replay])
    s.call("eval", "eval", "--traces", traces, "--episodes", eps, "--scene", scene,
           "--tours", tours, "--out", report, outputs=[report])
    s.check("build-map replay is byte-identical to the live map",
            None if live.read_bytes() == replay.read_bytes() else "maps differ")
    want = len(_episode_paths(eps))
    got = _load(report)["summary"]["episodes"]
    s.check("eval --tours scores every episode", None if got == want else f"{got} of {want} episodes")


# ---------------------------------------------------------------------------
# eval_geodesic


def _eval_geodesic_run(s, d: Path, seed: int, size: dict) -> None:
    scene, eps, tours = d / "scene.json", d / "episodes.json", d / "tours.json"
    traces, euc, geo = d / "traces.jsonl", d / "report.json", d / "report_geodesic.json"
    # At p=0.2 the noisy oracle stops at random in most episodes, so the
    # cost matrix size (reference x agent points) varied sixfold between
    # instances; at p=0.05 most episodes finish, with detours.
    s.call("run", "run", "--scene", scene, "--episodes", eps, "--tours", tours,
           "--policy", "noisy:0.05", "--seed", seed, "--map", "none", "--out", traces,
           outputs=[traces])
    s.call("eval", "eval", "--traces", traces, "--episodes", eps, "--scene", scene,
           "--out", euc, outputs=[euc])
    s.call("eval_geodesic", "eval", "--traces", traces, "--episodes", eps, "--scene", scene,
           "--geodesic", "--out", geo, outputs=[geo])
    t_euc = _load(euc)["summary"]["t_ndtw"]
    t_geo = _load(geo)["summary"]["t_ndtw"]
    s.check("geodesic t-nDTW <= Euclidean t-nDTW",
            None if t_geo <= t_euc else f"geodesic {t_geo} > Euclidean {t_euc}")


# ---------------------------------------------------------------------------
# ext_map_agent

_TEMPLATE_ACTIONS = re.compile(r"(forward,){0,3}stop")


def _ext_map_agent_run(s, d: Path, seed: int, size: dict) -> None:
    scene, eps, tours, traces = d / "scene.json", d / "episodes.json", d / "tours.json", d / "traces.jsonl"
    agent = f"ext:{shlex.quote(sys.executable)} {shlex.quote(str(AGENT))}"
    s.call("run", "run", "--scene", scene, "--episodes", eps, "--tours", tours,
           "--policy", agent, "--seed", seed, "--map", "episodic", "--out", traces,
           outputs=[traces])
    bad = [
        rec["episode_id"]
        for rec in _trace_records(traces)
        if rec["phase"] == "agent" and not _TEMPLATE_ACTIONS.fullmatch(",".join(rec["actions"]))
    ]
    s.check("agent phases are at most 3 forwards then stop",
            None if not bad else f"episodes {bad[:5]}")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="corpus",
            key_stage="gen_tours",
            stages=("gen_episodes", "gen_tours", "coverage", "graph_corpus"),
            instance_s=5.0,
            setup_repeats=7,
            full={"rooms": 16, "paths": 16, "graph_paths": 100},
            tiny={"rooms": 4, "paths": 4, "graph_paths": 6},
            make_inputs=_corpus_inputs,
            run=_corpus_run,
        ),
        Workload(
            name="rollout_map",
            key_stage="run",
            stages=("run", "build_map", "eval"),
            instance_s=3.75,
            setup_repeats=3,
            full={"rooms": 9, "paths": 8, "n": 1, "lengths": (5, 15)},
            tiny={"rooms": 4, "paths": 3, "n": 1, "lengths": (3, 8)},
            make_inputs=_rollout_inputs,
            run=_rollout_map_run,
        ),
        Workload(
            name="eval_geodesic",
            key_stage="eval_geodesic",
            stages=("run", "eval", "eval_geodesic"),
            instance_s=3.9,
            setup_repeats=3,
            full={"rooms": 9, "paths": 3, "n": 2, "lengths": (5, 7)},
            tiny={"rooms": 4, "paths": 2, "n": 2, "lengths": (3, 8)},
            make_inputs=_rollout_inputs,
            run=_eval_geodesic_run,
        ),
        Workload(
            name="ext_map_agent",
            key_stage="run",
            stages=("run",),
            instance_s=1.25,
            setup_repeats=3,
            full={"rooms": 9, "paths": 1, "n": 1, "lengths": (8, 12)},
            tiny={"rooms": 4, "paths": 2, "n": 1, "lengths": (3, 8)},
            make_inputs=_rollout_inputs,
            run=_ext_map_agent_run,
        ),
    ]
}
