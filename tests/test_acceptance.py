"""End-to-end acceptance checks, one test per release criterion.

Each test states its tolerance inline and prints the measured values, so
a verbose run doubles as the acceptance record.  These intentionally
re-derive expectations from first principles instead of reusing package
helpers wherever a second route exists.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ivln.config import Config
from ivln.coverage import ObservationModel, coverage_curves
from ivln.environment import Pose, Point3, geodesic_distance, load_scene
from ivln.harness import NoisyOraclePolicy, OraclePolicy, run_tour, run_tours
from ivln.mapper import (
    BAND_MARGIN,
    CameraIntrinsics,
    SemanticOccMap,
    crop_egocentric,
    integrate,
    sense,
)
from ivln.metrics import (
    EpisodeTrace,
    TourTrace,
    aggregate_t_ndtw,
    ndtw,
    scale_score,
    tour_dtw,
    tour_ndtw,
    write_traces,
)
from ivln.syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from ivln.tourgen import (
    Tour,
    build_tours,
    compute_tour_stats,
    held_karp_exact,
    load_episodes,
    partition_paths,
    solve_atsp,
    unique_paths,
)

from conftest import check_trace_invariants, open_path_cost
from test_metrics import masked_tour_dtw


def split_score(traces) -> float:
    return scale_score(aggregate_t_ndtw([(t, tour_ndtw(t)) for t in traces]))


def test_criterion_01_masked_tour_dtw_matches_block_sum():
    # 200 random tours, up to 12 episodes of up to 25 points each; the
    # masked full-matrix warp must agree with the per-episode block sum
    # to 1e-9 relative, in under 30 seconds wall clock.
    rng = random.Random(101)

    def path():
        return [
            (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-2, 2))
            for _ in range(rng.randint(1, 25))
        ]

    start = time.perf_counter()
    worst = 0.0
    for t in range(200):
        episodes = [
            EpisodeTrace(f"e{k}", path(), path()) for k in range(rng.randint(1, 12))
        ]
        trace = TourTrace(f"t{t}", episodes)
        block = tour_dtw(trace)
        masked = masked_tour_dtw(trace)
        worst = max(worst, abs(block - masked) / max(abs(block), abs(masked), 1e-30))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative gap {worst:.3e} over 200 tours in {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_02_oracle_rollouts_score_perfect(synth):
    scene, by_id, tours = synth["scene"], synth["by_id"], synth["tours"]
    traces, _ = run_tours(scene, tours, by_id, OraclePolicy(scene, by_id))
    for trace in traces:
        for ep in trace.episodes:
            assert ndtw(ep.reference_path, ep.agent_path) == pytest.approx(1.0, abs=1e-6)
    score = split_score(traces)
    print(f"criterion 2: oracle split score {score} over {len(traces)} tours")
    assert score == pytest.approx(100.0, abs=1e-6)


def test_criterion_03_score_spot_values():
    # a constant 3 m offset against a 2-point reference at d_th=3 warps
    # to cost 6, so the normalized score is exactly 1/e
    ref = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    agent = [(0.0, 3.0, 0.0), (1.0, 3.0, 0.0)]
    got = ndtw(ref, agent, d_th=3.0)
    assert abs(got - math.exp(-1.0)) <= 1e-9

    def stub_tour(tid, n):
        eps = [EpisodeTrace(f"{tid}{k}", [(0, 0, 0)], [(0, 0, 0)]) for k in range(n)]
        return TourTrace(tid, eps)

    agg = aggregate_t_ndtw([(stub_tour("a", 2), 0.5), (stub_tour("b", 8), 0.9)])
    print(f"criterion 3: spot {got:.12f}, aggregate {agg:.12f}")
    assert abs(agg - 0.82) <= 1e-12


def test_criterion_04_tour_score_resists_per_episode_gaming():
    # wreck one episode, ace the other: averaging per-episode scores
    # rewards the gaming, the tour-level score must sit strictly below it
    ref1 = [(0, 0, 0), (1, 0, 0)]
    wander = [(0, 0, 0), (40, 0, 0), (40, 40, 0), (1, 0, 0)]
    ref2 = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    trace = TourTrace(
        "gamed",
        [EpisodeTrace("bad", wander, ref1), EpisodeTrace("good", list(ref2), ref2)],
    )
    per_episode = [ndtw(ep.reference_path, ep.agent_path) for ep in trace.episodes]
    mean = sum(per_episode) / len(per_episode)
    tour = tour_ndtw(trace)
    print(f"criterion 4: tour {tour:.6f} < per-episode mean {mean:.6f}")
    assert tour < mean


def test_criterion_05_atsp_solver_quality():
    # 100 random 9-city asymmetric instances: at least 90 exact matches
    # against Held-Karp, every solution within 1.05x, under 50 ms each.
    # Each instance is solved 3 times: the orders must be identical (the
    # solver is deterministic) and the time is the best of the 3 in CPU
    # time, so other load on the host does not count against the solver.
    n = 9
    matches = 0
    worst_ratio = 1.0
    solver_time = 0.0
    for seed in range(100):
        rng = random.Random(9000 + seed)
        cost = np.array(
            [[0.0 if i == j else rng.random() for j in range(n)] for i in range(n)]
        )
        orders = []
        best = math.inf
        for _ in range(3):
            t0 = time.process_time()
            orders.append(solve_atsp(cost))
            best = min(best, time.process_time() - t0)
        solver_time += best
        assert orders[1] == orders[0] and orders[2] == orders[0]
        order = orders[0]
        got = open_path_cost(cost, order)
        _, optimum = held_karp_exact(cost)
        assert sorted(order) == list(range(n))
        ratio = got / optimum
        worst_ratio = max(worst_ratio, ratio)
        if got <= optimum + 1e-9:
            matches += 1
    per_instance_ms = 1000.0 * solver_time / 100.0
    print(
        f"criterion 5: {matches}/100 optimal, worst ratio {worst_ratio:.4f}, "
        f"{per_instance_ms:.1f} ms/instance"
    )
    assert matches >= 90
    assert worst_ratio <= 1.05
    assert per_instance_ms < 50.0


def test_criterion_06_partitioning_and_exact_cover():
    # partitions equal brute-force reachability components on worlds with
    # sealed doors, and instruction expansion covers every episode once
    for seed in (0, 1, 2):
        scene, _ = generate_scene(
            FloorplanSpec(rooms=4, sealed_door_probability=0.7, seed=seed)
        )
        episodes = generate_episodes(
            scene, EpisodeSpec(count=6, length_range=(1.0, 4.0), seed=seed)
        )
        groups = partition_paths(episodes, scene)

        reps = unique_paths(episodes)
        reachable = {
            (a.path_id, b.path_id)
            for a in reps
            for b in reps
            if math.isfinite(geodesic_distance(scene, a.path[0], b.path[0]))
        }
        comp_of = {}
        for ep in reps:
            if ep.path_id in comp_of:
                continue
            comp = len(set(comp_of.values()))
            stack = [ep.path_id]
            while stack:
                pid = stack.pop()
                if pid in comp_of:
                    continue
                comp_of[pid] = comp
                stack.extend(
                    q.path_id
                    for q in reps
                    if (pid, q.path_id) in reachable and q.path_id not in comp_of
                )
        want = {}
        for ep in reps:
            want.setdefault(comp_of[ep.path_id], set()).add(ep.path_id)
        got = {frozenset(g.path_ids) for g in groups}
        assert got == {frozenset(s) for s in want.values()}

    for duplicates in (2, 3):
        scene, _ = generate_scene(FloorplanSpec(rooms=3, seed=4))
        episodes = generate_episodes(
            scene, EpisodeSpec(count=5, instructions_per_path=duplicates, seed=4)
        )
        tours = build_tours(episodes, scene, seed=4)
        assert len(tours) == duplicates
        counts = Counter(eid for t in tours for eid in t.episode_ids)
        assert set(counts.values()) == {1}
        assert set(counts) == {ep.episode_id for ep in episodes}
    print("criterion 6: partitions match brute force; expansion covers exactly")


def test_criterion_07_correction_and_budget_invariants(synth, tmp_path):
    scene, by_id = synth["scene"], synth["by_id"]
    tour = synth["tours"][0]
    budget = Config().budget(scene)
    for seed in range(50):
        policy = NoisyOraclePolicy(scene, by_id, p_error=0.3, seed=seed)
        trace, _ = run_tour(scene, tour, by_id, policy)
        check_trace_invariants(trace, len(tour.episode_ids))
        corrected = {et.episode_id for et in trace.episodes for s in et.segments if s.kind == "oracle_goal"}
        for et in trace.episodes:
            assert len(et.actions) <= budget
            gap = geodesic_distance(scene, by_id[et.episode_id].path[-1], et.agent_path[-1])
            assert (et.episode_id in corrected) == (gap > 0.5), (seed, et.episode_id)
    for seed in (0, 17, 41):
        blobs = []
        for rerun in range(2):
            policy = NoisyOraclePolicy(scene, by_id, p_error=0.3, seed=seed)
            trace, _ = run_tour(scene, tour, by_id, policy)
            out = tmp_path / f"s{seed}_{rerun}.jsonl"
            write_traces([trace], out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"seed {seed} not reproducible"
    print("criterion 7: corrections iff gap > 0.5 m on 50 noisy runs; reruns byte-identical")


def test_criterion_08_noise_degrades_the_score_monotonically():
    scene, _ = generate_scene(FloorplanSpec(rooms=3, seed=11))
    episodes = generate_episodes(scene, EpisodeSpec(count=8, seed=11))
    tours = build_tours(episodes, scene, seed=11)
    by_id = {ep.episode_id: ep for ep in episodes}
    means = []
    for p in (0.0, 0.1, 0.3, 0.5):
        scores = []
        for seed in range(20):
            policy = NoisyOraclePolicy(scene, by_id, p_error=p, seed=seed)
            traces, _ = run_tours(scene, tours, by_id, policy)
            scores.append(split_score(traces))
        means.append(sum(scores) / len(scores))
    print("criterion 8: mean split scores " + ", ".join(f"{m:.1f}" for m in means))
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_criterion_09_mapping_fidelity():
    # a dense sensing sweep must reconstruct at least 95% IoU of the wall
    # layout; plus the band, label, and crop contracts
    scene, _ = generate_scene(
        FloorplanSpec(rooms=2, room_size_range=(7.0, 7.0), furniture_per_room=0, seed=3)
    )
    grid = scene.grid
    occ_map = SemanticOccMap.for_grid(grid, "iterative")
    intr = CameraIntrinsics.from_hfov(64, 48, 90.0)
    z = grid.floor_z + 1.25
    for iy in range(0, grid.height, 2):
        for ix in range(0, grid.width, 2):
            if not grid.navigable[iy, ix]:
                continue
            center = grid.cell_center((ix, iy))
            cams = [Pose(Point3(center.x, center.y, z), k * math.pi / 4.0) for k in range(8)]
            sense(occ_map, grid, cams, intr)
    pred = occ_map.occupancy.astype(bool)
    truth = ~grid.navigable
    iou = (pred & truth).sum() / (pred | truth).sum()
    print(f"criterion 9: occupancy IoU {iou:.4f}")
    assert iou >= 0.95
    assert not (pred & ~truth).any(), "no occupancy on navigable floor"
    assert (occ_map.semantic[pred] == grid.semantic[pred]).all()

    # vertical band: floor and ceiling returns observe but never occupy
    unit = SemanticOccMap(resolution=0.25, origin=(0, 0, 0), width=4, height=4, mode="iterative")
    pts = np.array(
        [
            [0.0, 0.0, grid.floor_z + BAND_MARGIN / 2],
            [0.25, 0.0, grid.floor_z + BAND_MARGIN + 0.01],
            [0.5, 0.0, grid.ceiling_z - BAND_MARGIN / 2],
        ]
    )
    integrate(unit, pts, np.array([7, 7, 7], dtype=np.uint8), grid.floor_z, grid.ceiling_z)
    assert unit.observed[0, 0] and unit.occupancy[0, 0] == 0
    assert unit.occupancy[0, 1] == 1 and unit.semantic[0, 1] == 7
    assert unit.observed[0, 2] and unit.occupancy[0, 2] == 0

    # higher returns win the cell label
    integrate(
        unit,
        np.array([[0.25, 0.0, 1.0], [0.25, 0.0, 2.0]]),
        np.array([4, 9], dtype=np.uint8),
        grid.floor_z,
        grid.ceiling_z,
    )
    assert unit.semantic[0, 1] == 9

    crop = crop_egocentric(occ_map, Pose(grid.cell_center((3, 3)), 0.7))
    assert crop.shape == (14, 64, 64)
    assert crop[:13].sum(axis=0).max() <= 1.0


def test_criterion_10_coverage_curves(synth):
    curve = coverage_curves(synth["tours"], synth["by_id"], synth["scene"])
    for tour_rec in curve.per_tour:
        pcts = [r["tour_region_pct"] for r in tour_rec["records"]]
        assert all(a <= b + 1e-12 for a, b in zip(pcts, pcts[1:])), tour_rec["tour_id"]
        assert pcts[-1] == pytest.approx(100.0)

    # two episodes sharing one path: the second pass is fully covered
    twins = {}
    for ep in synth["episodes"]:
        twins.setdefault(ep.path_id, []).append(ep.episode_id)
    a, b = next(ids for ids in twins.values() if len(ids) >= 2)[:2]
    retrace = Tour("retrace", synth["scene"].scene_id, [a, b])
    curve = coverage_curves([retrace], synth["by_id"], synth["scene"])
    rec = curve.records[1]
    assert rec["episode_index"] == 2
    assert rec["upcoming_pct_mean"] == pytest.approx(100.0)
    print("criterion 10: region curves monotone; retrace fully pre-covered")


@pytest.mark.skipif(
    "IVLN_R2R_DIR" not in os.environ,
    reason="R2R dataset not available; set IVLN_R2R_DIR to its root to enable",
)
def test_criterion_11_r2r_train_corpus(tmp_path):
    converter = Path(__file__).resolve().parents[1] / "scripts" / "convert_r2r.py"
    out = tmp_path / "r2r"
    proc = subprocess.run(
        [
            sys.executable,
            str(converter),
            "--data-dir",
            os.environ["IVLN_R2R_DIR"],
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenes"] == 61
    assert summary["episodes"] == 14025

    all_tours = []
    upcoming = []
    for scene_file in sorted((out / "scenes").glob("*.json")):
        scene = load_scene(scene_file)
        episodes = load_episodes(out / "episodes" / scene_file.name)
        by_id = {ep.episode_id: ep for ep in episodes}
        tours = build_tours(episodes, scene, seed=0)
        all_tours.extend(tours)
        curve = coverage_curves(
            tours, by_id, scene, ObservationModel(radius=3.0, occlusion=False)
        )
        for rec in curve.records:
            if rec["episode_index"] == 11 and rec["upcoming_pct_mean"] is not None:
                upcoming.append((rec["upcoming_pct_mean"], rec["n_tours"]))
    stats = compute_tour_stats(all_tours)
    print(
        f"criterion 11: {stats.tours} tours, mean length {stats.mean_length:.1f}, "
        f"{len(upcoming)} coverage points"
    )
    assert stats.tours == 183
    assert abs(stats.mean_length - 76.6) <= 0.5
    weight = sum(n for _, n in upcoming)
    mean_up = sum(v * n for v, n in upcoming) / weight
    assert 40.0 <= mean_up <= 60.0


def test_criterion_12_trained_agent_comparisons():
    pytest.skip(
        "trained-agent score comparisons need the original GPU training "
        "pipeline; out of scope for this toolkit"
    )
