import functools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln.environment import GridWorld, NavGraph, Point3, Scene, as_point, geodesic_distance
from ivln import metrics
from ivln.errors import EmptySequence, SnapFailure
from ivln.harness import NoisyOraclePolicy, run_tours
from ivln.syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from ivln.tourgen import build_tours
from ivln.metrics import (
    EpisodeTrace,
    OracleSegment,
    TourTrace,
    _accumulate,
    _backtrack,
    _cost_matrix,
    _geodesic_costs,
    _warp,
    aggregate_t_ndtw,
    build_report,
    dtw,
    episodic_metrics,
    ndtw,
    path_length,
    read_traces,
    scale_score,
    tour_dtw,
    tour_ndtw,
    write_traces,
)

from conftest import final_ids, geodesic_pairwise, scene_from_ascii


def masked_tour_dtw(trace: TourTrace, scene=None) -> float:
    """The same alignment as ``tour_dtw`` over one concatenated cost matrix.

    Builds the full |R| x |Q| matrix with inf outside the block diagonal
    and runs the warp over it.  Quadratic in tour length; the direct
    transcription of the masked formulation, kept to cross-check the
    block sum.
    """
    if not trace.episodes:
        raise EmptySequence(f"tour {trace.tour_id} has no episodes")
    ref = [p for ep in trace.episodes for p in ep.reference_path]
    query = [p for ep in trace.episodes for p in ep.agent_path]
    costs = np.full((len(ref), len(query)), math.inf)
    i0 = j0 = 0
    for ep in trace.episodes:
        i1 = i0 + len(ep.reference_path)
        j1 = j0 + len(ep.agent_path)
        costs[i0:i1, j0:j1] = _cost_matrix(ep.reference_path, ep.agent_path, scene)
        i0, j0 = i1, j1
    return _accumulate(costs)


# -- independent reference: top-down memoized recursion ----------------------


def recursive_dtw(ref, qry):
    @functools.lru_cache(maxsize=None)
    def go(i, j):
        cost = math.dist(ref[i], qry[j])
        if i == 0 and j == 0:
            return cost
        best = math.inf
        if i > 0:
            best = min(best, go(i - 1, j))
        if j > 0:
            best = min(best, go(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, go(i - 1, j - 1))
        return cost + best

    return go(len(ref) - 1, len(qry) - 1)


points = st.tuples(
    st.floats(-10, 10, allow_nan=False, width=32),
    st.floats(-10, 10, allow_nan=False, width=32),
    st.floats(-2, 2, allow_nan=False, width=32),
)
paths = st.lists(points, min_size=1, max_size=12)


@given(paths, paths)
@settings(max_examples=80)
def test_dtw_matches_recursive_reference(ref, qry):
    assert dtw(ref, qry) == pytest.approx(recursive_dtw(tuple(ref), tuple(qry)), abs=1e-9)


def test_dtw_hand_case():
    # reference (0,0)->(1,0); query adds a midpoint 0.5 off both ends
    ref = [(0, 0, 0), (1, 0, 0)]
    qry = [(0, 0, 0), (0.5, 0, 0), (1, 0, 0)]
    assert dtw(ref, qry) == pytest.approx(0.5)


def test_dtw_identity_is_zero():
    path = [(0, 0, 0), (1, 1, 0), (2, 0, 0)]
    assert dtw(path, path) == 0.0


def test_dtw_empty_raises():
    with pytest.raises(EmptySequence):
        dtw([], [(0, 0, 0)])
    with pytest.raises(EmptySequence):
        dtw([(0, 0, 0)], [])


def test_ndtw_spot_value_one_third():
    # single matched pair at exactly the threshold distance
    assert ndtw([(0, 0, 0)], [(3, 0, 0)], d_th=3.0) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_ndtw_perfect_is_one():
    path = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert ndtw(path, path) == 1.0


def test_ndtw_rejects_bad_threshold():
    with pytest.raises(ValueError):
        ndtw([(0, 0, 0)], [(0, 0, 0)], d_th=0.0)


@given(paths, paths)
@settings(max_examples=40)
def test_ndtw_bounds(ref, qry):
    score = ndtw(ref, qry)
    assert 0.0 < score <= 1.0


@given(st.integers(2, 5), st.integers(2, 5), st.data())
@settings(max_examples=40)
def test_accumulate_monotone_in_cell_costs(n, m, data):
    # raising any entries of the cost matrix can never lower the warp cost
    base = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(0, 5, allow_nan=False), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    bump = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(0, 5, allow_nan=False), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    assert _accumulate(base + bump) >= _accumulate(base) - 1e-9


def min_call_accumulate(costs: np.ndarray) -> float:
    """The warp recurrence with ``min`` over numpy cells: the reference
    that ``_warp``'s inline comparisons must match bit for bit."""
    n, m = costs.shape
    acc = np.empty((n, m))
    acc[0, 0] = costs[0, 0]
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + costs[0, j]
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + costs[i, 0]
        for j in range(1, m):
            acc[i, j] = costs[i, j] + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return float(acc[n - 1, m - 1])


def matrices(cells):
    """1..7 by 1..7 arrays of ``cells`` draws."""
    return st.integers(1, 7).flatmap(lambda m: st.lists(
        st.lists(cells, min_size=m, max_size=m), min_size=1, max_size=7)).map(np.array)


finite_costs = st.floats(0, 5, allow_nan=False)
cost_matrices = matrices(st.one_of(finite_costs, st.just(math.inf)))


@given(cost_matrices)
@settings(max_examples=80)
def test_warp_equals_the_min_call_recurrence_bitwise(costs):
    assert _accumulate(costs) == min_call_accumulate(costs)


@given(matrices(finite_costs))
@settings(max_examples=60)
def test_backtrack_walks_an_optimal_warp(costs):
    acc = _warp(costs)
    cells = _backtrack(acc)
    assert cells[0] == (costs.shape[0] - 1, costs.shape[1] - 1) and cells[-1] == (0, 0)
    for (i, j), (k, l) in zip(cells, cells[1:]):
        assert (i - k, j - l) in ((1, 0), (0, 1), (1, 1))
    assert sum(costs[c] for c in cells) == pytest.approx(acc[-1][-1], rel=1e-12, abs=1e-12)


# -- tour-level ---------------------------------------------------------------


def make_tour(specs, tour_id="t"):
    eps = [
        EpisodeTrace(episode_id=f"e{i}", agent_path=q, reference_path=r)
        for i, (r, q) in enumerate(specs)
    ]
    return TourTrace(tour_id=tour_id, episodes=eps)


tours = st.lists(st.tuples(paths, paths), min_size=1, max_size=6).map(make_tour)


@given(tours)
@settings(max_examples=60)
def test_block_sum_equals_masked_matrix(trace):
    a = tour_dtw(trace)
    b = masked_tour_dtw(trace)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_tour_ndtw_weighted_exponent_identity():
    r1, q1 = [(0, 0, 0)], [(3, 0, 0)]
    r2, q2 = [(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (1, 0, 0)]
    trace = make_tour([(r1, q1), (r2, q2)])
    # costs 3 and 0 over a combined reference of 3 points
    assert tour_ndtw(trace, d_th=3.0) == pytest.approx(math.exp(-3.0 / 9.0), abs=1e-12)


@given(tours)
@settings(max_examples=40)
def test_tour_ndtw_never_exceeds_length_weighted_episode_mean(trace):
    # equality actually holds; the bound form is what aggregation relies on
    total = sum(len(ep.reference_path) for ep in trace.episodes)
    exponent = sum(
        len(ep.reference_path)
        / total
        * math.log(ndtw(ep.reference_path, ep.agent_path))
        for ep in trace.episodes
    )
    assert tour_ndtw(trace) <= math.exp(exponent) + 1e-12


def test_aggregate_value():
    a = make_tour([(([(0, 0, 0)]), ([(0, 0, 0)])) for _ in range(2)], "a")
    b = make_tour([(([(0, 0, 0)]), ([(0, 0, 0)])) for _ in range(8)], "b")
    got = aggregate_t_ndtw([(a, 0.5), (b, 0.9)])
    assert got == pytest.approx(0.82, abs=1e-12)


def test_aggregate_empty_raises():
    with pytest.raises(EmptySequence):
        aggregate_t_ndtw([])


def test_scale_score():
    assert scale_score(0.8234) == 82.3
    assert scale_score(1.0) == 100.0
    assert scale_score(0.0) == 0.0


def test_anti_gaming_tour_below_unweighted_mean():
    # episode 1 wanders far; episode 2 is perfect.  A per-episode average
    # hides the damage, the tour-level score must not.
    ref1 = [(0, 0, 0), (1, 0, 0)]
    wander = [(0, 0, 0), (40, 0, 0), (40, 40, 0), (1, 0, 0)]
    ref2 = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    trace = make_tour([(ref1, wander), (ref2, ref2)])
    per_episode = [
        ndtw(ep.reference_path, ep.agent_path) for ep in trace.episodes
    ]
    assert tour_ndtw(trace) < sum(per_episode) / len(per_episode)


# -- episodic metrics ---------------------------------------------------------


def test_episodic_metrics_straight_line():
    ref = [(0, 0, 0), (2, 0, 0)]
    agent = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    m = episodic_metrics(EpisodeTrace("e", agent, ref))
    assert m.tl == pytest.approx(2.0)
    assert m.ne == pytest.approx(0.0)
    assert m.os_ == 1.0 and m.sr == 1.0
    assert m.spl == pytest.approx(1.0)
    # the extra midpoint pays 1.0 against either reference endpoint
    assert m.ndtw == pytest.approx(math.exp(-1.0 / 6.0))


def test_episodic_metrics_detour_spl():
    ref = [(0, 0, 0), (4, 0, 0)]
    agent = [(0, 0, 0), (0, 2, 0), (4, 2, 0), (4, 0, 0)]  # length 8
    m = episodic_metrics(EpisodeTrace("e", agent, ref))
    assert m.sr == 1.0
    assert m.spl == pytest.approx(4.0 / 8.0)


def test_episodic_metrics_failure_outside_radius():
    ref = [(0, 0, 0), (10, 0, 0)]
    agent = [(0, 0, 0), (3, 0, 0)]
    m = episodic_metrics(EpisodeTrace("e", agent, ref))
    assert m.ne == pytest.approx(7.0)
    assert m.sr == 0.0 and m.spl == 0.0
    assert m.os_ == 0.0  # never came within 3 m of the goal


def test_oracle_success_without_final_success():
    ref = [(0, 0, 0), (10, 0, 0)]
    agent = [(0, 0, 0), (9, 0, 0), (0, 0, 0)]  # brushed the goal, walked back
    m = episodic_metrics(EpisodeTrace("e", agent, ref))
    assert m.os_ == 1.0 and m.sr == 0.0


def test_spl_degenerate_start_on_goal():
    ref = [(0, 0, 0)]
    m = episodic_metrics(EpisodeTrace("e", [(0, 0, 0), (1, 0, 0)], ref))
    # optimal length 0: success alone decides
    assert m.spl == m.sr == 1.0


def test_episodic_metrics_geodesic_goal_distance():
    # u-shaped corridor: the two arm tops are 2 m apart in a straight
    # line but the walk goes down, across, and back up
    scene = scene_from_ascii(["...", ".#.", ".#."], resolution=1.0)
    grid = scene.grid
    start = grid.cell_center((0, 2))
    goal = grid.cell_center((2, 2))
    trace = EpisodeTrace("e", [start], [start, goal])
    plain = episodic_metrics(trace)
    geo = episodic_metrics(trace, scene=scene)
    assert plain.ne == pytest.approx(2.0)
    assert geo.ne == pytest.approx(geodesic_distance(scene, goal, start))
    assert geo.ne > plain.ne



@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_goal_distances_are_the_per_point_geodesic_distances(seed):
    # the right room is sealed off: its points are infinitely far from a goal on the left
    rows = ["....#...", "..#.#...", "....#..."]
    rng = np.random.default_rng(seed)
    c = scene_from_ascii(rows).grid.cell_center
    cells = [(ix, iy) for iy in range(3) for ix in range(8) if rows[iy][ix] == "."]
    goal = c(cells[rng.integers(6)])
    jitter = lambda cell: tuple(np.add(c(cell), (*rng.uniform(-0.12, 0.12, size=2), 0.0)))  # noqa: E731
    agent = [jitter(cells[i]) for i in rng.integers(len(cells), size=int(rng.integers(1, 8)))]
    agent.insert(int(rng.integers(len(agent) + 1)), goal)  # a point on the goal's cell: 0.0
    agent.insert(int(rng.integers(len(agent) + 1)), c((6, 1)))  # a point it cannot reach: inf
    trace = EpisodeTrace("e", agent, [jitter(cells[rng.integers(len(cells))]), goal])
    radius = float(rng.uniform(0.0, 1.0))
    got = episodic_metrics(trace, scene_from_ascii(rows), success_radius=radius)

    scene = scene_from_ascii(rows)
    ne = geodesic_distance(scene, goal, trace.final_position)
    nearest = min(geodesic_distance(scene, goal, p) for p in trace.agent_path)
    optimal = geodesic_distance(scene, goal, trace.reference_path[0])
    sr = 1.0 if ne <= radius else 0.0
    assert (got.ne, got.os_, got.sr) == (ne, 1.0 if nearest <= radius else 0.0, sr)
    spl = sr if optimal <= 0.0 else sr * optimal / max(optimal, got.tl)  # nan for an unreachable start
    assert np.array_equal([got.spl], [spl], equal_nan=True)

def geodesic_tour():
    """Two episodes on a wall-split grid, with revisited and tied points."""
    scene = scene_from_ascii(["....#...", "....#...", "....#..."])
    c = scene.grid.cell_center
    # (0.375, 0.25) ties between cells (1, 1) and (2, 1)
    e0 = EpisodeTrace("e0", [c((0, 0)), c((0, 0)), (0.375, 0.25, 0.0), c((2, 1)), c((2, 1))],
                      [c((0, 0)), c((1, 0)), c((2, 1)), c((3, 2))])
    # this agent ends across the wall from its goal: infinite cells
    e1 = EpisodeTrace("e1", [c((3, 2)), c((3, 1)), c((3, 1)), c((5, 1))],
                      [c((3, 2)), c((2, 1)), c((1, 1)), c((0, 0))])
    return scene, TourTrace("t", [e0, e1])


def test_geodesic_alignment_without_a_scene_is_refused():
    trace = EpisodeTrace("e", [(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="geodesic alignment needs a scene"):
        episodic_metrics(trace, None, geodesic=True)
    with pytest.raises(ValueError, match="geodesic alignment needs a scene"):
        build_report([TourTrace("t", [trace])], None, geodesic=True)


def test_masked_tour_dtw_matches_block_sum_under_geodesic_metric():
    scene, across = geodesic_tour()
    assert masked_tour_dtw(across, scene) == tour_dtw(across, scene) == math.inf
    _, trace = geodesic_tour()
    trace.episodes[1].agent_path[-1] = scene.grid.cell_center((3, 0))
    assert masked_tour_dtw(trace, scene) == pytest.approx(tour_dtw(trace, scene), rel=1e-12)
    assert 0.0 < tour_dtw(trace, scene) < math.inf


def test_geodesic_report_snaps_each_distinct_point_once(monkeypatch):
    scene, trace = geodesic_tour()
    points = [as_point(p) for ep in trace.episodes for p in ep.agent_path + ep.reference_path]
    assert len(set(points)) < len(points)
    calls = Counter()
    snap = GridWorld.snap

    def counted(self, point, *args, **kwargs):
        calls[as_point(point)] += 1
        return snap(self, point, *args, **kwargs)

    monkeypatch.setattr(GridWorld, "snap", counted)
    build_report([trace], scene, geodesic=True)
    assert set(calls) == set(points)
    assert max(calls.values()) == 1


# -- pruned geodesic cost matrices ------------------------------------------


def full_geodesic_dtw(ref, query, scene) -> float:
    """``dtw`` over the whole geodesic cost matrix: the unpruned reference."""
    return _accumulate(geodesic_pairwise(scene, ref, query))


def seeded_episodes(kind: str, p_error: float, seed: int):
    """A fresh seeded scene of ``kind`` and its noisy rollout's episodes."""
    grid, graph = generate_scene(FloorplanSpec(rooms=4, seed=seed))
    scene = grid if kind == "grid" else graph
    episodes = generate_episodes(scene, EpisodeSpec(count=4, length_range=(3.0, 12.0), seed=seed))
    by_id = {ep.episode_id: ep for ep in episodes}
    tours = build_tours(episodes, scene, seed=seed)
    traces, _ = run_tours(scene, tours, by_id, NoisyOraclePolicy(scene, by_id, p_error, seed=seed))
    return scene, [ep for trace in traces for ep in trace.episodes]


@pytest.mark.parametrize("kind", ["grid", "graph"])
@pytest.mark.parametrize("p_error", [0.05, 0.5])
@pytest.mark.parametrize("seed", [3, 7])
def test_pruned_geodesic_dtw_equals_the_full_matrix(kind, p_error, seed):
    scene, episodes = seeded_episodes(kind, p_error, seed)
    pruned = 0
    for ep in episodes:
        ref, query = ep.reference_path, ep.agent_path
        assert dtw(ref, query, scene) == full_geodesic_dtw(ref, query, scene)
        pruned += int(np.isinf(_geodesic_costs(ref, query, scene)).sum())
    if kind == "grid":
        assert pruned > 0  # the check above is not vacuous


def test_pruned_geodesic_dtw_on_a_split_grid_keeps_every_cell_when_the_bound_warp_is_cut():
    scene, across = geodesic_tour()
    for ep in across.episodes:  # the second ends across the wall: an inf cost
        ref, query = ep.reference_path, ep.agent_path
        assert dtw(ref, query, scene) == full_geodesic_dtw(ref, query, scene)
    c = scene.grid.cell_center
    # the bound's own optimal warp is the diagonal, whose middle cell pairs
    # (3, 1) with (5, 1) across the wall; the optimal geodesic warp goes round
    ref, query = [c((0, 1)), c((3, 1)), c((7, 1))], [c((0, 1)), c((5, 1)), c((7, 1))]
    costs = _geodesic_costs(ref, query, scene)
    assert math.isinf(costs[1, 1]) and np.isfinite(costs[[0, 1, 2, 2], [0, 0, 1, 2]]).all()
    assert costs.tobytes() == geodesic_pairwise(scene, ref, query).tobytes()
    assert 0.0 < dtw(ref, query, scene) == full_geodesic_dtw(ref, query, scene) < math.inf


def test_a_row_that_asks_only_about_its_own_source_opens_no_field():
    c = scene_from_ascii(["....#...", "....#..."]).grid.cell_center
    line = [c((0, 0)), c((1, 0)), c((2, 0)), c((3, 0))]
    for query, opened in [(line, []), (line + [c((3, 1))], [(3, 0)])]:
        scene = scene_from_ascii(["....#...", "....#..."])
        costs = _geodesic_costs(line, query, scene)
        assert sorted(scene.nav._fields) == [scene.nav.id_of[cell] for cell in opened]
        # the diagonal is kept and 0.0; a kept cell is bitwise the per-cell loop's
        assert np.diagonal(costs).tolist() == [0.0] * len(line)
        expected = geodesic_pairwise(scene_from_ascii(["....#...", "....#..."]), line, query)
        assert np.where(np.isposinf(costs), expected, costs).tobytes() == expected.tobytes()


# a walled grid with a sealed pocket (the right column) and a graph with a
# component of its own, so random paths meet inf cells, ties and detours
PROPERTY_GRID = ["........#.", ".####...#.", ".#..#.#.#.", ".#....#...", "....#.#.#.", "..#.....#."]
PROPERTY_GRAPH = NavGraph(
    nodes={"a": (0.0, 0.0, 1.0), "b": (2.0, 0.0, 1.0), "c": (2.0, 2.0, 1.0), "d": (0.0, 2.0, 1.0),
           "e": (1.0, 1.0, 1.0), "f": (9.0, 0.0, 1.0), "g": (9.6, 0.0, 1.0)},
    edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "e"), ("f", "g")],
)


def property_scene(kind):
    if kind == "grid":
        return scene_from_ascii(PROPERTY_GRID)
    return Scene(scene_id="property-graph", graph=PROPERTY_GRAPH)


def located_points(kind):
    scene = property_scene(kind)
    if kind == "grid":
        anchors = [scene.grid.cell_center(cell) for cell in scene.nav.locations]
    else:
        anchors = list(PROPERTY_GRAPH.nodes.values())
    jitter = st.floats(-0.12, 0.12, allow_nan=False)
    return st.builds(lambda p, dx, dy: Point3(p.x + dx, p.y + dy, p.z), st.sampled_from(anchors), jitter, jitter)


@given(st.sampled_from(["grid", "graph"]).flatmap(
    lambda kind: st.tuples(st.just(kind), *[st.lists(located_points(kind), min_size=1, max_size=9)] * 2)))
@settings(max_examples=120)
def test_pruned_geodesic_dtw_equals_the_full_matrix_on_random_paths(case):
    kind, ref, query = case
    got = dtw(ref, query, property_scene(kind))
    assert got == full_geodesic_dtw(ref, query, property_scene(kind))


@pytest.mark.parametrize("bad_ref, bad_query", [((0,), ()), ((), (1,)), ((1,), (0,)), ((0,), (1,)), ((2,), ())])
def test_geodesic_dtw_snap_failure_names_the_per_cell_loops_point(bad_ref, bad_query):
    scene, _ = geodesic_tour()
    ref = [scene.grid.cell_center((i, 0)) for i in range(3)]
    query = [scene.grid.cell_center((i, 1)) for i in range(2)]
    for i in bad_ref:
        ref[i] = Point3(50.0 + i, 0.0, 0.0)
    for j in bad_query:
        query[j] = Point3(0.0, 60.0 + j, 0.0)
    loop = geodesic_tour()[0]
    with pytest.raises(SnapFailure) as per_cell:
        [[geodesic_distance(loop, p, q) for q in query] for p in ref]
    with pytest.raises(SnapFailure) as pruned:
        dtw(ref, query, scene)
    assert pruned.value.point == per_cell.value.point


def test_pruned_geodesic_dtw_settles_under_half_of_the_full_matrix():
    scene, episodes = seeded_episodes("grid", 0.05, 7)
    # two fresh scenes on the rollout's grid: no field is settled yet
    pruned, full = (Scene(scene_id=scene.scene_id, grid=scene.grid) for _ in range(2))
    for ep in episodes:
        dtw(ep.reference_path, ep.agent_path, pruned)
        geodesic_pairwise(full, ep.reference_path, ep.agent_path)
    assert 0 < final_ids(pruned.nav) < final_ids(full.nav) / 2


@given(st.lists(tours, min_size=1, max_size=3))
@settings(max_examples=30)
def test_report_aligns_each_episode_once_to_the_public_scores(traces):
    calls = []
    real = metrics.dtw

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "dtw", counted)
        report = build_report(traces)
    assert len(calls) == sum(len(trace.episodes) for trace in traces)
    rows = iter(report.per_episode)
    for trace, tour_row in zip(traces, report.per_tour):
        assert tour_row["t_ndtw"] == scale_score(tour_ndtw(trace))
        for ep in trace.episodes:
            assert next(rows)["ndtw"] == round(episodic_metrics(ep).ndtw, 6) == round(
                ndtw(ep.reference_path, ep.agent_path), 6)


def test_path_length():
    assert path_length([(0, 0, 0)]) == 0.0
    assert path_length([(0, 0, 0), (3, 4, 0)]) == pytest.approx(5.0)


# -- trace serialization ------------------------------------------------------


def sample_trace():
    seg = OracleSegment("oracle_transit", [(1, 0, 0)], ["forward"])
    ep1 = EpisodeTrace(
        "ep-a", [(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (1, 0, 0)], actions=["forward", "stop"],
        segments=[seg],
    )
    ep2 = EpisodeTrace(
        "ep-b", [(1, 0, 0), (1, 1, 0)], [(1, 0, 0), (1, 2, 0)], stop_called=False,
        actions=["forward"],
    )
    return TourTrace(tour_id="t0", episodes=[ep1, ep2])


def test_trace_round_trip(tmp_path):
    from types import SimpleNamespace

    path = tmp_path / "trace.jsonl"
    trace = sample_trace()
    write_traces([trace], path)
    refs = {
        ep.episode_id: SimpleNamespace(path=ep.reference_path) for ep in trace.episodes
    }
    back = read_traces(path, refs)
    assert len(back) == 1
    got = back[0]
    assert got.tour_id == "t0"
    assert [ep.episode_id for ep in got.episodes] == ["ep-a", "ep-b"]
    assert got.episodes[0].agent_path == trace.episodes[0].agent_path
    assert got.episodes[1].stop_called is False
    assert got.episodes[0].actions == ["forward", "stop"]
    assert [s.kind for s in got.episodes[0].segments] == ["oracle_transit"]
    assert got.episodes[1].segments == []
    # writing what was read reproduces the file byte for byte
    second = tmp_path / "again.jsonl"
    write_traces(back, second)
    assert second.read_bytes() == path.read_bytes()


def test_read_traces_names_the_line_of_an_episode_missing_from_the_set(tmp_path):
    from types import SimpleNamespace

    path = tmp_path / "trace.jsonl"
    trace = sample_trace()
    write_traces([trace], path)
    refs = {"ep-a": SimpleNamespace(path=trace.episodes[0].reference_path)}
    with pytest.raises(ValueError, match=r"trace\.jsonl line 3: episode ep-b is not in the episode set"):
        read_traces(path, refs)


# the sample file: agent ep-a, its oracle_transit, agent ep-b
@pytest.mark.parametrize("edit, line", [
    pytest.param(lambda records: records.insert(0, records.pop(1)), 1, id="before-any-agent-record"),
    pytest.param(lambda records: records.append(records.pop(1)), 3, id="after-the-next-episode"),
    pytest.param(lambda records: records[1].update(episode_id="ep-b"), 2, id="other-episode"),
    pytest.param(lambda records: records[1].update(tour_id="t1"), 2, id="other-tour"),
])
def test_read_traces_rejects_an_oracle_record_that_does_not_follow_its_agent_record(tmp_path, edit, line):
    from types import SimpleNamespace

    path = tmp_path / "trace.jsonl"
    trace = sample_trace()
    write_traces([trace], path)
    records = [json.loads(text) for text in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    refs = {ep.episode_id: SimpleNamespace(path=ep.reference_path) for ep in trace.episodes}
    with pytest.raises(ValueError, match=rf"trace\.jsonl line {line}: oracle_transit record of tour t\d "
                                         r"episode ep-\w does not follow that episode's agent record"):
        read_traces(path, refs)


def test_report_shape(tmp_path):
    trace = sample_trace()
    report = build_report([trace])
    assert report.summary["tours"] == 1
    assert report.summary["episodes"] == 2
    assert 0.0 <= report.summary["t_ndtw"] <= 100.0
    out = tmp_path / "report.json"
    report.save_json(out)
    payload = json.loads(out.read_text())
    assert payload["format_version"] == "1"
    assert len(payload["per_episode"]) == 2
    csv_path = tmp_path / "per_episode.csv"
    report.save_csv(csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "tour_id,episode_id,tl,ne,os,sr,spl,ndtw"
