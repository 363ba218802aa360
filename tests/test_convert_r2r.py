import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ivln.coverage import ObservationModel, coverage_curves
from ivln.environment import load_scene
from ivln.tourgen import build_tours, load_episodes

CONVERTER = Path(__file__).resolve().parents[1] / "scripts" / "convert_r2r.py"


def pose_at(x, y, z):
    # row-major 4x4 with the translation in the last column
    return [1, 0, 0, x, 0, 1, 0, y, 0, 0, 1, z, 0, 0, 0, 1]


def viewpoint(vid, x, y, z, unobstructed, included=True):
    return {
        "image_id": vid,
        "pose": pose_at(x, y, z),
        "included": included,
        "unobstructed": unobstructed,
    }


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    """Two tiny scans in the conventional on-disk layout."""
    root = tmp_path_factory.mktemp("mini_r2r")
    conn = root / "connectivity"
    conn.mkdir()
    # scanA: chain v0 - v1 - v2, plus an excluded viewpoint vX whose
    # edges must be dropped
    (conn / "scanA_connectivity.json").write_text(
        json.dumps(
            [
                viewpoint("v0", 0.0, 0.0, 1.4, [False, True, False, True]),
                viewpoint("v1", 2.0, 0.0, 1.4, [True, False, True, False]),
                viewpoint("v2", 4.0, 0.0, 1.4, [False, True, False, False]),
                viewpoint("vX", 9.0, 9.0, 1.4, [True, False, False, False], included=False),
            ]
        )
    )
    # scanB: a single edge, with one direction marked obstructed; the
    # open direction is enough
    (conn / "scanB_connectivity.json").write_text(
        json.dumps(
            [
                viewpoint("w0", 0.0, 0.0, 1.2, [False, True]),
                viewpoint("w1", 0.0, 3.0, 1.2, [False, False]),
            ]
        )
    )

    def item(scan, path_id, path, heading):
        return {
            "scan": scan,
            "path_id": path_id,
            "path": path,
            "heading": heading,
            "instructions": [f"inst {path_id} #{k}" for k in range(3)],
        }

    (root / "R2R_train.json").write_text(
        json.dumps(
            [
                item("scanA", 1, ["v0", "v1", "v2"], math.pi / 2.0),
                item("scanA", 2, ["v2", "v1"], 0.0),
                item("scanB", 3, ["w0", "w1"], 1.0),
            ]
        )
    )
    out = root / "out"
    proc = subprocess.run(
        [sys.executable, str(CONVERTER), "--data-dir", str(root), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_summary_counts(mini_dataset):
    summary = json.loads((mini_dataset / "summary.json").read_text())
    assert summary == {"scenes": 2, "paths": 3, "episodes": 9}


def test_scene_graphs(mini_dataset):
    scene = load_scene(mini_dataset / "scenes" / "scanA.json")
    graph = scene.graph
    assert sorted(graph.nodes) == ["v0", "v1", "v2"]  # vX excluded
    assert graph.edges == [("v0", "v1"), ("v1", "v2")]
    assert graph.nodes["v1"].x == 2.0
    scene_b = load_scene(mini_dataset / "scenes" / "scanB.json")
    assert scene_b.graph.edges == [("w0", "w1")]  # one open direction suffices


def test_episode_conversion(mini_dataset):
    episodes = load_episodes(mini_dataset / "episodes" / "scanA.json")
    assert len(episodes) == 6
    by_id = {ep.episode_id: ep for ep in episodes}
    first = by_id["1_0"]
    assert [p.x for p in first.path] == [0.0, 2.0, 4.0]
    # compass pi/2 (due east) becomes 0 in counterclockwise-from-x terms
    assert first.start_heading == pytest.approx(0.0)
    assert first.instruction == "inst 1 #0"
    assert {ep.instruction for ep in episodes if ep.path_id == "1"} == {
        "inst 1 #0",
        "inst 1 #1",
        "inst 1 #2",
    }


def test_converted_corpus_supports_tours_and_coverage(mini_dataset):
    scene = load_scene(mini_dataset / "scenes" / "scanA.json")
    episodes = load_episodes(mini_dataset / "episodes" / "scanA.json")
    by_id = {ep.episode_id: ep for ep in episodes}
    tours = build_tours(episodes, scene, seed=0)
    assert len(tours) == 3
    assert sorted(eid for t in tours for eid in t.episode_ids) == sorted(by_id)
    curve = coverage_curves(tours, by_id, scene, ObservationModel(radius=3.0, occlusion=False))
    assert curve.records[-1]["tour_pct_mean"] == pytest.approx(100.0)
