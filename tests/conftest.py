import heapq
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ivln.environment import GridWorld, NavGraph, Point3, Scene
from ivln.syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from ivln.tourgen import build_tours

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


def geodesic_pairwise(metric, ref, query):
    """The full geodesic cost matrix of ``metric`` over ``ref`` x ``query``,
    one ``metric(p, q)`` per cell: the per-cell loop that the pruned cost
    matrices ``dtw`` builds are compared against."""
    return np.array([[metric(p, q) for q in query] for p in ref])


def astar_route(scene, a, b):
    """A* from location ``a`` to ``b`` over the scene's ``NavIndex``
    (octile estimate on grids, Euclidean on graphs): ``(cost, locations)``,
    or None when ``b`` is unreachable.  The reference for ``NavIndex.route``."""
    nav = scene.nav
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
        adj = nav.neighbors[u]
        for k in range(0, len(adj), 2):
            v, nd = adj[k], dist[u] + adj[k + 1]
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd + estimate(v), v))
    return None


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
    tours = build_tours(episodes, scene, 3, seed=7)
    return {
        "scene": scene,
        "graph_scene": graph_scene,
        "episodes": episodes,
        "by_id": {ep.episode_id: ep for ep in episodes},
        "tours": tours,
    }
