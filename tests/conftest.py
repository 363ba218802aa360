import heapq
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ivln.environment import GridWorld, NavGraph, Point3, Pose, Scene, geodesic_distance
from ivln.errors import DimensionMismatch, Disconnected, SamplingExhausted
from ivln.mapper import _WALL_PUSH, CameraIntrinsics, RayTable, _cameras, _columns, _lift
from ivln.syngen import _TEMPLATES, EpisodeSpec, FloorplanSpec, _bearing, generate_episodes, generate_scene
from ivln.tourgen import Episode, Tour, build_tours

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

LABEL_FLOOR = 1
LABEL_WALL = 2


def grid_from_ascii(rows, resolution=0.25, origin=(0.0, 0.0, 0.0), floor_z=0.0, ceiling_z=2.6):
    """Build a GridWorld from ascii art; rows[0] is the iy=0 row.

    '.' navigable floor, '#' wall, digits place furniture labels (4-9,
    non-navigable).
    """
    height = len(rows)
    width = len(rows[0])
    navigable = np.zeros((height, width), dtype=bool)
    semantic = np.zeros((height, width), dtype=np.uint8)
    for iy, row in enumerate(rows):
        assert len(row) == width, "ragged ascii grid"
        for ix, ch in enumerate(row):
            if ch == ".":
                navigable[iy, ix] = True
                semantic[iy, ix] = LABEL_FLOOR
            elif ch == "#":
                semantic[iy, ix] = LABEL_WALL
            else:
                semantic[iy, ix] = int(ch)
    return GridWorld(
        resolution=resolution,
        origin=origin,
        width=width,
        height=height,
        navigable=navigable,
        semantic=semantic,
        floor_z=floor_z,
        ceiling_z=ceiling_z,
    )


def scene_from_ascii(rows, scene_id="ascii", **kwargs):
    return Scene(scene_id=scene_id, grid=grid_from_ascii(rows, **kwargs))


def is_open(grid, cell) -> bool:
    """Whether ``cell`` is on the grid and navigable."""
    ix, iy = cell
    return 0 <= ix < grid.width and 0 <= iy < grid.height and bool(grid.navigable[iy, ix])


def grid_neighbors(grid, cell):
    """Navigable 8-neighbors of ``cell`` with step costs, in the offsets'
    lexicographic order; a diagonal step needs both orthogonal cells
    beside it open, so no step cuts a corner.  The per-cell reference
    for ``NavIndex``'s grid neighbor rows."""
    ix, iy = cell
    for dx, dy in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        nxt = (ix + dx, iy + dy)
        if not is_open(grid, nxt):
            continue
        if dx != 0 and dy != 0:
            if not (is_open(grid, (ix + dx, iy)) and is_open(grid, (ix, iy + dy))):
                continue
            yield nxt, grid.resolution * math.sqrt(2.0)
        else:
            yield nxt, grid.resolution


def geodesic_pairwise(scene, ref, query):
    """The full geodesic cost matrix in ``scene`` over ``ref`` x ``query``,
    one ``geodesic_distance`` per cell: the per-cell loop that the pruned
    cost matrices ``dtw`` builds are compared against."""
    return np.array([[geodesic_distance(scene, p, q) for q in query] for p in ref])


def neighbor_lists(scene):
    """Each location id's ``[(id, step), ...]`` in expansion order, built
    per location from the scene (``grid_neighbors`` on grids, sorted
    adjacency on graphs): the flat reference for ``NavIndex``'s padded
    neighbor rows."""
    nav = scene.nav
    if scene.grid is None:
        graph = scene.graph
        return [[(nav.id_of[nxt], graph.edge_weight(loc, nxt)) for nxt in graph.adjacency[loc]]
                for loc in nav.locations]
    return [[(nav.id_of[nxt], step) for nxt, step in grid_neighbors(scene.grid, loc)] for loc in nav.locations]


def heap_field(scene, source) -> np.ndarray:
    """Distances out of location id ``source`` by location id: a heap
    Dijkstra over ``neighbor_lists`` run to exhaustion, under the rule
    ``nd < dist[v] - 1e-12``.  The reference every ``NavIndex`` field,
    batched or alone, must equal bitwise below its top."""
    neighbors = neighbor_lists(scene)
    dist = [math.inf] * len(neighbors)
    dist[source] = 0.0
    closed = bytearray(len(neighbors))
    heap = [(0.0, source)]
    while heap:
        _, u = heapq.heappop(heap)
        if closed[u]:
            continue
        closed[u] = 1
        for v, step in neighbors[u]:
            nd = dist[u] + step
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist)


def astar_route(scene, a, b):
    """A* from location ``a`` to ``b`` over ``neighbor_lists`` (octile
    estimate on grids, Euclidean on graphs): ``(cost, locations)``, or
    None when ``b`` is unreachable.  The reference for ``NavIndex.route``."""
    nav = scene.nav
    neighbors = neighbor_lists(scene)
    source, goal = nav.id_of[a], nav.id_of[b]
    n = len(nav.locations)
    dist = [math.inf] * n
    dist[source] = 0.0
    parent = [-1] * n
    closed = bytearray(n)

    def estimate(v):
        if scene.grid is None:
            return math.dist(scene.graph.nodes[nav.locations[v]], scene.graph.nodes[b])
        lo, hi = sorted((abs(nav.locations[v][0] - b[0]), abs(nav.locations[v][1] - b[1])))
        return scene.grid.resolution * ((hi - lo) + math.sqrt(2.0) * lo)

    heap = [(0.0, source)]
    while heap:
        _, u = heapq.heappop(heap)
        if closed[u]:
            continue
        if u == goal:
            path = [u]
            while parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            return dist[u], [nav.locations[i] for i in reversed(path)]
        closed[u] = 1
        for v, step in neighbors[u]:
            nd = dist[u] + step
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd + estimate(v), v))
    return None


def sample_episodes_reference(scene, spec, id_prefix="ep"):
    """One attempt at a time: draw a start and a goal, search the goal's
    field out to the start, and keep the pair when its distance lies in
    the length range, until the episodes are in or the budget of 300
    attempts per path is spent.  The reference for
    ``syngen.generate_episodes``."""
    rng = random.Random(spec.seed)
    episodes = []
    if scene.grid is not None:
        locations = [(int(ix), int(iy)) for iy, ix in np.argwhere(scene.grid.navigable)]
    else:
        locations = sorted(scene.graph.nodes)
    attempts = 0
    budget = spec.count * 300
    while len(episodes) < spec.count * spec.instructions_per_path:
        if attempts >= budget:
            raise SamplingExhausted(
                f"sampled {len(episodes)} episodes in {attempts} attempts, "
                f"wanted {spec.count * spec.instructions_per_path}"
            )
        attempts += 1
        start = rng.choice(locations)
        goal = rng.choice(locations)
        if start == goal:
            continue
        d = scene.nav.distance(goal, start)
        if not (spec.length_range[0] <= d <= spec.length_range[1]):
            continue
        path = [scene.location_point(loc) for loc in scene.nav.route(start, goal)]
        idx = len(episodes) // spec.instructions_per_path
        path_id = f"{id_prefix}p{idx:04d}"
        heading = _bearing(path[0], path[1]) if len(path) > 1 else 0.0
        for k in range(spec.instructions_per_path):
            template = _TEMPLATES[k % len(_TEMPLATES)]
            text = template.format(length=d, gx=path[-1].x, gy=path[-1].y)
            episodes.append(
                Episode(
                    episode_id=f"{id_prefix}{idx:04d}_{k}",
                    path_id=path_id,
                    scene_id=scene.scene_id,
                    path=path,
                    start_heading=heading,
                    instruction_id=f"{path_id}_{k}",
                    instruction=text,
                )
            )
    return episodes


def final_ids(nav) -> int:
    """How many ids the open fields of ``nav`` hold final: those below
    the top of the round each field paused in."""
    return sum(int(np.count_nonzero(dist < top)) for dist, _, top in nav._fields.values())


# The pixel path: render a depth and a semantic frame of a grid scene and
# lift every pixel to a world point.  ``mapper.sense`` folds only each
# view's footprint and must leave a map bitwise as ``integrate`` of
# ``unproject`` of ``synthesize_views`` at each pose in turn does.


@dataclass
class DepthFrame:
    """Per-pixel forward depth in meters; 0 marks invalid rays."""

    depth: np.ndarray
    intrinsics: CameraIntrinsics
    pose: Pose

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64)
        expected = (self.intrinsics.height, self.intrinsics.width)
        if self.depth.shape != expected:
            raise DimensionMismatch(f"depth shape {self.depth.shape} != {expected}")


@dataclass
class SemanticFrame:
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)


def unproject(frame: DepthFrame, semantics: SemanticFrame | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lift a depth frame to world points.

    Returns (points, labels) with points of shape (N, 3); pixels with
    depth 0 are dropped.  Labels are 0 when no semantic frame is given.
    """
    intr = frame.intrinsics
    if semantics is not None and semantics.labels.shape != frame.depth.shape:
        raise DimensionMismatch("semantic frame shape differs from depth")
    d = frame.depth
    valid = d > 0
    v_idx, u_idx = np.nonzero(valid)
    dv = d[valid]
    points = np.stack(_lift(_cameras([frame.pose])[0], intr, u_idx, v_idx, dv), axis=1)
    if semantics is None:
        labels = np.zeros(len(dv), dtype=np.uint8)
    else:
        labels = semantics.labels[valid]
    return points, labels


def synthesize_views(grid: GridWorld, pose: Pose, intrinsics: CameraIntrinsics,
                     max_range: float = 10.0) -> tuple[DepthFrame, SemanticFrame]:
    """Render a depth and semantic frame of a grid scene at a pose.

    Depth is forward distance (not ray length); rays that leave the grid
    or exceed max_range come back 0.  The returned pose is the camera
    pose passed in, so unprojecting the frames reproduces world surfaces.
    """
    W, H = intrinsics.width, intrinsics.height
    cam = _cameras([pose])
    s_wall, wall_label, wall_hit, s_plane, plane_hit = (
        a[0] for a in _columns(RayTable(grid, intrinsics, max_range), cam))
    # each column's ray direction (forward component 1), as _columns marches it
    k = (np.arange(W) - intrinsics.cx) / intrinsics.fx
    _, _, _, cos_h, sin_h = cam[0]
    dirs = cam[0, 3:] + k[:, None] * (sin_h, -cos_h)

    depth = np.zeros((H, W))
    depth[wall_hit] = np.broadcast_to(s_wall[None, :] + _WALL_PUSH, (H, W))[wall_hit]
    depth[plane_hit] = np.broadcast_to(s_plane, (H, W))[plane_hit]

    labels = np.zeros((H, W), dtype=np.uint8)
    labels[wall_hit] = np.broadcast_to(wall_label[None, :], (H, W))[wall_hit]
    if plane_hit.any():
        sp = np.broadcast_to(s_plane, (H, W))[plane_hit]
        cols = np.broadcast_to(np.arange(W)[None, :], (H, W))[plane_hit]
        px = pose.position.x + sp * dirs[cols, 0]
        py = pose.position.y + sp * dirs[cols, 1]
        ix = np.floor((px - grid.origin.x) / grid.resolution + 0.5).astype(int)
        iy = np.floor((py - grid.origin.y) / grid.resolution + 0.5).astype(int)
        ok = (ix >= 0) & (ix < grid.width) & (iy >= 0) & (iy < grid.height)
        plane_labels = np.zeros(len(sp), dtype=np.uint8)
        plane_labels[ok] = grid.semantic[iy[ok], ix[ok]]
        labels[plane_hit] = plane_labels

    return (
        DepthFrame(depth=depth, intrinsics=intrinsics, pose=pose),
        SemanticFrame(labels=labels),
    )


def open_path_cost(cost: np.ndarray, order: list[int]) -> float:
    """Sum of ``cost`` over consecutive pairs of ``order``: an open path
    has no closing leg."""
    return float(sum(cost[order[i], order[i + 1]] for i in range(len(order) - 1)))


def held_karp_reference(cost: np.ndarray) -> tuple[list[int], float]:
    """The subset dynamic program over a dict of (mask, last) states, mask
    by mask: a candidate replaces a state's cost only when it is lower by
    more than 1e-12, and the final city is the cheapest, the smallest
    among equal costs.  The reference for ``tourgen.held_karp_exact``;
    raises Disconnected when every ordering has infinite cost."""
    n = cost.shape[0]
    if n == 0:
        return [], 0.0
    # dp[(mask, last)] = cheapest path visiting mask, ending at last
    dp = {(1 << i, i): 0.0 for i in range(n)}
    parent: dict[tuple[int, int], int] = {}
    for mask in range(1, 1 << n):
        for last in range(n):
            if not mask & (1 << last):
                continue
            base = dp.get((mask, last))
            if base is None:
                continue
            for nxt in range(n):
                if mask & (1 << nxt):
                    continue
                key = (mask | (1 << nxt), nxt)
                cand = base + cost[last, nxt]
                if cand < dp.get(key, math.inf) - 1e-12:
                    dp[key] = cand
                    parent[key] = last
    # a state that no finite path reaches has no entry
    full = (1 << n) - 1
    best_cost, best_last = min((dp.get((full, last), math.inf), last) for last in range(n))
    if best_cost == math.inf:
        raise Disconnected("every ordering has infinite cost")
    order = [best_last]
    mask = full
    while len(order) < n:
        prev = parent[(mask, order[-1])]
        mask &= ~(1 << order[-1])
        order.append(prev)
    order.reverse()
    return order, float(best_cost)


def relocation_deltas(cost, cycle: list[int]):
    """Cost change of every move of 1-3 consecutive cities of ``cycle`` into
    another gap of the rest, orientation kept: the or-opt neighbourhood
    (Or, 1976), which the solver's segment exchanges cover."""
    m = len(cycle)
    for seg_len in (1, 2, 3):
        if seg_len >= m - 1:
            break
        for start in range(m):
            seg = [cycle[(start + t) % m] for t in range(seg_len)]
            rest = [cycle[(start + seg_len + t) % m] for t in range(m - seg_len)]
            before = cost[rest[-1]][seg[0]] + cost[seg[-1]][rest[0]]
            base_edge = cost[rest[-1]][rest[0]]
            for pos in range(len(rest) - 1):
                yield (
                    cost[rest[pos]][seg[0]]
                    + cost[seg[-1]][rest[pos + 1]]
                    - cost[rest[pos]][rest[pos + 1]]
                    + base_edge
                    - before
                )


def segment_cost_delta(cost: list[list[float]], cycle: list[int], i: int, j: int, k: int) -> float:
    """Gain of reconnecting A|B|C|D, cut after positions i, j and k of
    ``cycle``, as A C B D (orientation preserved)."""
    m = len(cycle)
    a_end = cycle[i]
    b_start, b_end = cycle[i + 1], cycle[j]
    c_start, c_end = cycle[j + 1], cycle[k]
    d_start = cycle[(k + 1) % m]
    removed = cost[a_end][b_start] + cost[b_end][c_start] + cost[c_end][d_start]
    added = cost[a_end][c_start] + cost[c_end][b_start] + cost[b_end][d_start]
    return added - removed


def nearest_neighbor_reference(cost, start: int) -> list[int]:
    """Greedy cycle from ``start`` over the cheapest unvisited city, the
    smallest among equal costs.  The reference for
    ``tourgen._nearest_neighbor_cycle``."""
    cycle = [start]
    unvisited = set(range(len(cost))) - {start}
    while unvisited:
        cur = cycle[-1]
        best = min(unvisited, key=lambda j: (cost[cur][j], j))
        cycle.append(best)
        unvisited.remove(best)
    return cycle


def improve_cycle_reference(full, cycle: list[int]) -> list[int]:
    """The scalar local search over nested lists of Python floats: take
    the first cut triple ``i < j < k`` (``itertools.combinations`` order)
    whose segment exchange gains more than 1e-9, apply it, and rescan from
    (0, 1, 2) until none does.  The reference for
    ``tourgen._improve_cycle``."""
    cost = np.asarray(full).tolist()
    while True:
        for i, j, k in itertools.combinations(range(len(cycle)), 3):
            if segment_cost_delta(cost, cycle, i, j, k) < -1e-9:
                cycle = cycle[: i + 1] + cycle[j + 1 : k + 1] + cycle[i + 1 : j + 1] + cycle[k + 1 :]
                break
        else:
            return cycle


def oracle_segments(trace):
    """A tour trace's oracle segments in the order they ran."""
    return [seg for et in trace.episodes for seg in et.segments]


def check_trace_invariants(trace, n_episodes):
    """Structural checks every rollout trace must satisfy.

    Phases alternate per episode: agent, then at most one goal
    correction, then at most one transit (never after the last episode).
    Path lengths account for every non-stop action.
    """
    assert len(trace.episodes) == n_episodes
    for et in trace.episodes:
        assert et.actions, "an episode must take at least one action"
        if et.stop_called:
            assert et.actions[-1] == "stop"
        assert "stop" not in et.actions[:-1]
        moves = len(et.actions) - (1 if et.stop_called else 0)
        assert len(et.agent_path) == 1 + moves
    by_episode = {}
    for et in trace.episodes:
        for seg in et.segments:
            assert seg.kind in ("oracle_goal", "oracle_transit")
            by_episode.setdefault(et.episode_id, []).append(seg.kind)
            assert seg.points, "oracle segments record at least one position"
    order = [et.episode_id for et in trace.episodes]
    for eid, kinds in by_episode.items():
        assert len(kinds) == len(set(kinds)), f"duplicate phase for {eid}"
        if kinds == ["oracle_transit", "oracle_goal"]:
            raise AssertionError(f"transit before correction for {eid}")
        assert eid in order
    if order:
        assert "oracle_transit" not in by_episode.get(order[-1], [])


@pytest.fixture(scope="session")
def open_room():
    # 8x6 navigable box with a wall ring
    rows = ["#" * 10] + ["#" + "." * 8 + "#" for _ in range(6)] + ["#" * 10]
    return scene_from_ascii(rows, scene_id="open-room")


@pytest.fixture(scope="session")
def square_graph():
    graph = NavGraph(
        nodes={
            "a": Point3(0.0, 0.0, 1.0),
            "b": Point3(2.0, 0.0, 1.0),
            "c": Point3(2.0, 2.0, 1.0),
            "d": Point3(0.0, 2.0, 1.0),
        },
        edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )
    return Scene(scene_id="square", graph=graph)


@pytest.fixture(scope="session")
def synth():
    """One mid-size synthetic world with a 3-instruction episode set."""
    scene, graph_scene = generate_scene(FloorplanSpec(rooms=4, seed=7))
    episodes = generate_episodes(scene, EpisodeSpec(count=10, instructions_per_path=3, seed=7))
    tours = build_tours(episodes, scene, seed=7)
    return {
        "scene": scene,
        "graph_scene": graph_scene,
        "episodes": episodes,
        "by_id": {ep.episode_id: ep for ep in episodes},
        "tours": tours,
    }


@pytest.fixture(scope="session")
def split_tours(synth):
    """Three tours of ``synth`` over disjoint sets of its paths, unlike its
    own tours, which each walk all ten: what one tour's map or ray table
    held, leaked into the next, shows in the next's map."""
    scene_id, ids = synth["scene"].scene_id, synth["tours"][0].episode_ids
    return [Tour(f"t-split{i}", scene_id, ids[a:b]) for i, (a, b) in enumerate([(0, 3), (3, 6), (6, 10)])]
