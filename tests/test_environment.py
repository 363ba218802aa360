import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln.environment import (
    GRID_SNAP_RADIUS,
    GridWorld,
    NavGraph,
    NavIndex,
    Point3,
    Scene,
    as_point,
    connectivity_matrix,
    decode_bitmask,
    decode_bytes,
    encode_bitmask,
    encode_bytes,
    geodesic_distance,
    load_scene,
    normalize_heading,
    read_json_lines,
    scene_from_dict,
    scene_to_dict,
    shortest_path,
    write_json,
)
from ivln.errors import Disconnected, SnapFailure
from ivln.metrics import _geodesic_costs
from ivln.syngen import FloorplanSpec, generate_scene

from conftest import (
    astar_route,
    final_ids,
    geodesic_pairwise,
    grid_from_ascii,
    grid_neighbors,
    heap_field,
    is_open,
    scene_from_ascii,
)

SQRT2 = math.sqrt(2.0)


# -- independent reference implementations ----------------------------------
# Different algorithms on purpose: a heapless O(V^2) scan for grids and
# Floyd-Warshall for graphs, so agreement is evidence rather than echo.


def scan_dijkstra(grid: GridWorld, start):
    cells = [
        (ix, iy)
        for iy in range(grid.height)
        for ix in range(grid.width)
        if grid.navigable[iy, ix]
    ]
    dist = {c: math.inf for c in cells}
    dist[start] = 0.0
    done = set()
    while len(done) < len(cells):
        pending = [(d, c) for c, d in dist.items() if c not in done]
        d, cell = min(pending)
        if math.isinf(d):
            break
        done.add(cell)
        ix, iy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (ix + dx, iy + dy)
                if nxt not in dist:
                    continue
                if dx != 0 and dy != 0:
                    if not (is_open(grid, (ix + dx, iy)) and is_open(grid, (ix, iy + dy))):
                        continue
                    step = grid.resolution * SQRT2
                else:
                    step = grid.resolution
                if d + step < dist[nxt]:
                    dist[nxt] = d + step
    return dist


def floyd_warshall(graph: NavGraph):
    ids = sorted(graph.nodes)
    index = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    dist = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for a, b in graph.edges:
        w = graph.edge_weight(a, b)
        dist[index[a]][index[b]] = w
        dist[index[b]][index[a]] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return ids, dist


@st.composite
def random_grids(draw):
    width = draw(st.integers(3, 8))
    height = draw(st.integers(3, 8))
    bits = draw(
        st.lists(st.booleans(), min_size=width * height, max_size=width * height)
    )
    navigable = np.array(bits, dtype=bool).reshape(height, width)
    navigable[1, 1] = True  # keep at least one cell
    semantic = np.where(navigable, 1, 2).astype(np.uint8)
    return GridWorld(
        resolution=0.25,
        origin=(0.0, 0.0, 0.0),
        width=width,
        height=height,
        navigable=navigable,
        semantic=semantic,
        floor_z=0.0,
        ceiling_z=2.6,
    )


@given(random_grids(), st.data())
@settings(max_examples=60)
def test_grid_geodesic_matches_scan_dijkstra(grid, data):
    cells = [
        (ix, iy)
        for iy in range(grid.height)
        for ix in range(grid.width)
        if grid.navigable[iy, ix]
    ]
    start = data.draw(st.sampled_from(cells))
    goal = data.draw(st.sampled_from(cells))
    scene = Scene(scene_id="h", grid=grid)
    expected = scan_dijkstra(grid, start)[goal]
    got = geodesic_distance(scene, grid.cell_center(start), grid.cell_center(goal))
    if math.isinf(expected):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(expected, abs=1e-9)


def test_corridor_distance():
    scene = scene_from_ascii(["." * 10])
    a = scene.grid.cell_center((0, 0))
    b = scene.grid.cell_center((9, 0))
    assert geodesic_distance(scene, a, b) == pytest.approx(9 * 0.25)
    path = shortest_path(scene, a, b)
    assert len(path) == 10
    assert path[0] == a and path[-1] == b


def test_diagonal_step_cost(open_room):
    grid = open_room.grid
    a = grid.cell_center((1, 1))
    b = grid.cell_center((2, 2))
    assert geodesic_distance(open_room, a, b) == pytest.approx(0.25 * SQRT2)


def test_corner_cutting_blocked():
    # floor at (0,0) and (1,1) only; both flanking cells are walls
    scene = scene_from_ascii([".#", "#."])
    a = scene.grid.cell_center((0, 0))
    b = scene.grid.cell_center((1, 1))
    assert math.isinf(geodesic_distance(scene, a, b))
    with pytest.raises(Disconnected):
        shortest_path(scene, a, b)


def test_corner_allowed_when_flanks_open():
    scene = scene_from_ascii(["..", ".."])
    a = scene.grid.cell_center((0, 0))
    b = scene.grid.cell_center((1, 1))
    assert geodesic_distance(scene, a, b) == pytest.approx(0.25 * SQRT2)


def test_grid_snap_tie_prefers_smallest_index():
    scene = scene_from_ascii(["..", ".."])
    # equidistant from all four cell centers
    mid = (0.125, 0.125, 0.0)
    assert scene.snap_point(mid) == (0, 0)


def test_grid_snap_radius_and_failure():
    scene = scene_from_ascii(["."])
    assert scene.snap_point((GRID_SNAP_RADIUS - 1e-6, 0.0, 0.0)) == (0, 0)
    with pytest.raises(SnapFailure) as info:
        scene.snap_point((5.0, 0.0, 0.0))
    assert info.value.radius == GRID_SNAP_RADIUS
    assert "5.0" in str(info.value)


def test_grid_snap_ignores_z():
    scene = scene_from_ascii(["."])
    assert scene.snap_point((0.0, 0.0, 40.0)) == (0, 0)


def scan_snap(grid: GridWorld, point, radius):
    """The per-cell window scan that ``GridWorld.snap`` replaced, kept as
    the reference it must match."""
    cx, cy = grid.cell_index(point)
    reach = math.ceil(radius / grid.resolution) + 1
    best = None
    for iy in range(max(0, cy - reach), min(grid.height, cy + reach + 1)):
        for ix in range(max(0, cx - reach), min(grid.width, cx + reach + 1)):
            if not grid.navigable[iy, ix]:
                continue
            center = grid.cell_center((ix, iy))
            d = math.hypot(point[0] - center.x, point[1] - center.y)
            if d <= radius and (best is None or d < best[0] - 1e-12):
                best = (d, (ix, iy))
    return None if best is None else best[1]


@given(random_grids(), st.sampled_from([GRID_SNAP_RADIUS, 0.25, 0.375, math.hypot(0.125, 0.125)]), st.data())
@settings(max_examples=150)
def test_grid_snap_equals_the_window_scan(grid, radius, data):
    # quarter cells: centers, edges and corners, where two or four cells
    # tie, out to well past the border; nudges of 1e-13 sit inside the
    # 1e-12 tie margin; corners lie exactly at the smallest radius from
    # four centers, and the last points exactly at radius from one
    quarter = st.integers(-20, 4 * 8 + 20).map(lambda k: k * 0.0625)
    nudge = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -2e-12])
    lattice = st.builds(lambda x, y, dx, dy: (x + dx, y + dy), quarter, quarter, nudge, nudge)
    corner = st.builds(lambda ix, iy, dx, dy: (ix * 0.25 + 0.125 + dx, iy * 0.25 + 0.125 + dy),
                       st.integers(-1, grid.width), st.integers(-1, grid.height), nudge, nudge)
    anywhere = st.tuples(st.floats(-3.0, 5.0), st.floats(-3.0, 5.0))
    on_radius = st.builds(
        lambda ix, iy, side: (ix * 0.25 + side[0] * radius, iy * 0.25 + side[1] * radius),
        st.integers(-1, grid.width), st.integers(-1, grid.height),
        st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
    )
    for x, y in data.draw(st.lists(st.one_of(lattice, corner, anywhere, on_radius), min_size=1, max_size=25)):
        assert grid.snap((x, y, 0.0), radius) == scan_snap(grid, (x, y, 0.0), radius), (x, y)



def every_cell_snap(grid: GridWorld, point, radius):
    """The scan's rule over every cell of the grid in ``(iy, ix)`` order."""
    best = None
    for iy in range(grid.height):
        for ix in range(grid.width):
            center = grid.cell_center((ix, iy))
            d = math.hypot(point[0] - center.x, point[1] - center.y)
            if grid.navigable[iy, ix] and d <= radius and (best is None or d < best[0] - 1e-12):
                best = (d, (ix, iy))
    return None if best is None else best[1]


@given(random_grids(), st.sampled_from([(0.0, 0.0), (-1.3, 2.7)]),
       st.sampled_from([GRID_SNAP_RADIUS, 0.25, 0.125, 0.1]), st.data())
@settings(max_examples=100)
def test_grid_snap_near_a_center_equals_every_cell_scan(grid, origin, radius, data):
    # centers, half-cell boundaries (where the early return must not
    # fire), points within 1e-12 of them, and cells off the grid
    grid = dataclasses.replace(grid, origin=(*origin, 0.0))
    half = grid.resolution / 2
    offset = st.sampled_from([0.0, 1e-13, -1e-13, 0.1, half, -half, half - 1e-12, -half + 1e-12,
                              half - 2e-12, half - 5e-13, -half + 5e-13, half + 1e-13])
    near_center = st.builds(lambda ix, iy, dx, dy: (grid.cell_center((ix, iy)).x + dx,
                                                    grid.cell_center((ix, iy)).y + dy),
                            st.integers(-2, grid.width + 1), st.integers(-2, grid.height + 1), offset, offset)
    for x, y in data.draw(st.lists(near_center, min_size=1, max_size=25)):
        assert grid.snap((x, y, 0.0), radius) == every_cell_snap(grid, (x, y), radius), (x, y)

def test_grid_snap_of_a_far_off_point_is_none():
    # far enough off that the window's first index does not fit an index array
    grid = scene_from_ascii(["..", ".."]).grid
    for point in [(1e30, 0.0, 0.0), (0.0, 1e30, 0.0), (-1e30, 0.0, 0.0), (10**30, 10**30, 0), (1e18, 0.0, 0.0)]:
        assert grid.snap(point) is None, point


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_a_non_finite_number_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"points": [[0.0, value, 0.0]]})
    assert not path.exists()


def test_graph_snap_tie_prefers_smallest_id():
    graph = NavGraph(
        nodes={"m": (0.0, 0.0, 0.0), "k": (0.6, 0.0, 0.0)},
        edges=[("k", "m")],
    )
    scene = Scene(scene_id="tie", graph=graph)
    # midpoint is 0.3 from both nodes, inside the snap radius
    assert scene.snap_point((0.3, 0.0, 0.0)) == "k"


def test_graph_snap_uses_3d_distance(square_graph):
    with pytest.raises(SnapFailure):
        square_graph.snap_point((0.0, 0.0, 2.0))  # 1.0 above node a


def test_graph_geodesic_matches_floyd_warshall(square_graph):
    graph = square_graph.graph
    ids, dist = floyd_warshall(graph)
    index = {n: i for i, n in enumerate(ids)}
    for a in ids:
        for b in ids:
            got = geodesic_distance(square_graph, graph.nodes[a], graph.nodes[b])
            assert got == pytest.approx(dist[index[a]][index[b]], abs=1e-9)


def test_graph_shortest_path_positions(square_graph):
    graph = square_graph.graph
    path = shortest_path(square_graph, graph.nodes["a"], graph.nodes["c"])
    # two hops of length 2 either way; positions must chain adjacent nodes
    assert len(path) == 3
    assert path[0] == graph.nodes["a"] and path[-1] == graph.nodes["c"]


def test_connectivity_matrix_values(open_room):
    grid = open_room.grid
    pairs = [
        (grid.cell_center((1, 1)), grid.cell_center((3, 1))),
        (grid.cell_center((5, 5)), grid.cell_center((1, 5))),
    ]
    mat = connectivity_matrix(open_room, pairs)
    assert mat.shape == (2, 2)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0
    # entry (i, j) is end_i -> start_j
    assert mat[0, 1] == pytest.approx(
        geodesic_distance(open_room, pairs[0][1], pairs[1][0])
    )
    assert mat[1, 0] == pytest.approx(
        geodesic_distance(open_room, pairs[1][1], pairs[0][0])
    )


def test_connectivity_matrix_disconnected_pairs():
    scene = scene_from_ascii(["..#..", "..#.."])
    grid = scene.grid
    left = (grid.cell_center((0, 0)), grid.cell_center((1, 0)))
    right = (grid.cell_center((3, 0)), grid.cell_center((4, 0)))
    mat = connectivity_matrix(scene, [left, right])
    assert math.isinf(mat[0, 1]) and math.isinf(mat[1, 0])
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0


def test_connectivity_matrix_snap_failure_carries_index(open_room):
    grid = open_room.grid
    good = (grid.cell_center((1, 1)), grid.cell_center((2, 1)))
    bad = (Point3(50.0, 50.0, 0.0), grid.cell_center((2, 1)))
    with pytest.raises(SnapFailure) as info:
        connectivity_matrix(open_room, [good, bad])
    assert info.value.index == 1


def test_geodesic_metric_matches_direct(open_room):
    # a fresh scene on the room's grid, so no field is open yet
    scene = Scene(scene_id="open-room", grid=open_room.grid)
    grid, nav = scene.grid, scene.nav
    p = grid.cell_center((3, 5))
    assert geodesic_distance(scene, p, p) == 0.0
    assert nav._fields == {}  # one location: no field is opened
    cells = [(1, 1), (4, 2), (8, 6), (3, 5)]
    for a in cells:
        heap = heap_field(scene, nav.id_of[a])
        for b in cells:
            got = geodesic_distance(scene, grid.cell_center(a), grid.cell_center(b))
            assert np.float64(got).tobytes() == heap[nav.id_of[b]].tobytes()


@pytest.mark.parametrize("kind", ["grid", "graph"])
def test_geodesic_distance_is_the_metrics_value(kind):
    # bitwise the heap field's entry, on every graph pair and 300 grid
    # pairs (12 sources x 25 targets) of a 9-room floorplan
    grid_scene, graph_scene = generate_scene(FloorplanSpec(rooms=9, seed=3))
    scene = grid_scene if kind == "grid" else graph_scene
    nav = scene.nav
    ids = range(len(nav.locations))
    if kind == "grid":
        rng = np.random.default_rng(3)
        pairs = {int(a): rng.integers(len(ids), size=25).tolist() for a in rng.choice(len(ids), 12, replace=False)}
    else:
        pairs = {a: list(ids) for a in ids}
    for a, targets in pairs.items():
        heap = heap_field(scene, a)
        for b in targets:
            got = geodesic_distance(scene, scene.location_point(nav.locations[a]),
                                    scene.location_point(nav.locations[b]))
            assert np.float64(got).tobytes() == heap[b].tobytes()


def split_grid_scene():
    # a wall splits the grid, so cells across it are infinitely far apart
    return scene_from_ascii(["....#...", "....#...", "....#..."])


def square_and_pair_scene():
    nodes = {
        "a": (0.0, 0.0, 1.0), "b": (2.0, 0.0, 1.0), "c": (2.0, 2.0, 1.0),
        "d": (0.0, 2.0, 1.0), "e": (9.0, 0.0, 1.0), "f": (9.6, 0.0, 1.0),
    }
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("e", "f")]
    return Scene(scene_id="square-and-pair", graph=NavGraph(nodes=nodes, edges=edges))


def pairwise_cases():
    grid = split_grid_scene().grid
    centers = [grid.cell_center(c) for c in [(0, 0), (3, 1), (5, 0), (7, 2), (1, 2)]]
    # points equidistant from two or four cell centers (the snap tie rule),
    # one of them on the wall between the halves
    ties = [Point3(0.125, 0.0, 0.0), Point3(0.375, 0.125, 0.0),
            Point3(1.375, 0.375, 0.3), Point3(1.0, 0.25, 0.0)]
    yield pytest.param(split_grid_scene, centers[:3] + ties[:2] + centers[3:], ties + centers[::-1], id="grid")
    nodes = square_and_pair_scene().graph.nodes
    # (9.3, 0, 1) is 0.3 from both e and f
    points = [nodes[n] for n in "abcdef"] + [Point3(9.3, 0.0, 1.0), Point3(0.2, 0.1, 1.0)]
    yield pytest.param(square_and_pair_scene, points[::2] + points[1::2], points, id="graph")


@pytest.mark.parametrize("make_scene, ref, query", pairwise_cases())
def test_geodesic_pairwise_equals_per_cell_loop(make_scene, ref, query):
    expected = geodesic_pairwise(make_scene(), ref, query)
    got = _geodesic_costs(ref, query, make_scene())
    assert np.isinf(expected).any() and (expected == 0.0).any()
    assert got.dtype == expected.dtype and got.shape == expected.shape
    # bitwise the loop on every kept cell; a pruned cell is inf
    assert np.where(np.isposinf(got), expected, got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad_ref, bad_query", [((0,), ()), ((), (1,)), ((1,), (0,)), ((0,), (1,)), ((2,), ())])
def test_geodesic_pairwise_snap_failure_names_the_loops_point(bad_ref, bad_query):
    grid = split_grid_scene().grid
    ref = [grid.cell_center((i, 0)) for i in range(3)]
    query = [grid.cell_center((i, 1)) for i in range(2)]
    for i in bad_ref:
        ref[i] = Point3(50.0 + i, 0.0, 0.0)
    for j in bad_query:
        query[j] = Point3(0.0, 60.0 + j, 0.0)
    with pytest.raises(SnapFailure) as per_cell:
        geodesic_pairwise(split_grid_scene(), ref, query)
    with pytest.raises(SnapFailure) as pairwise:
        _geodesic_costs(ref, query, split_grid_scene())
    assert pairwise.value.point == per_cell.value.point


def test_snap_cache_keeps_misses_and_tie_rule():
    scene = split_grid_scene()
    tie = (0.125, 0.125, 0.0)
    assert scene.snap_point(tie) == scene.snap_point(list(tie)) == (0, 0)
    for _ in range(2):
        with pytest.raises(SnapFailure):
            scene.snap_point((50.0, 0.0, 0.0))
    assert scene.nav.snaps == {Point3(*tie): (0, 0), Point3(50.0, 0.0, 0.0): None}


def step_lengths(scene, location) -> dict:
    """Neighbors of a location with their step lengths, from the scene itself."""
    if scene.grid is not None:
        return dict(grid_neighbors(scene.grid, location))
    graph = scene.graph
    return {nxt: graph.edge_weight(location, nxt) for nxt in graph.adjacency[location]}


@st.composite
def route_cases(draw):
    """A random walled grid, or a random graph with two components (no
    edge joins the first nodes to the rest), and location pairs on it."""
    if draw(st.booleans()):
        h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        navigable = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))).reshape(h, w)
        navigable[0, 0] = True
        scene = Scene(scene_id="walled", grid=GridWorld(
            resolution=0.25, origin=(0.0, 0.0, 0.0), width=w, height=h, navigable=navigable,
            semantic=np.zeros((h, w), np.uint8), floor_z=0.0, ceiling_z=2.0))
    else:
        spots = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=9, unique=True))
        cut = draw(st.integers(1, len(spots) - 1))
        edge = st.tuples(st.integers(0, len(spots) - 1), st.integers(0, len(spots) - 1))
        edges = [(f"n{i}", f"n{j}") for i, j in draw(st.lists(edge, max_size=16))
                 if i != j and (i < cut) == (j < cut)]
        nodes = {f"n{i}": (x * 0.7, y * 0.4, 1.0) for i, (x, y) in enumerate(spots)}
        scene = Scene(scene_id="two-parts", graph=NavGraph(nodes=nodes, edges=edges))
    location = st.sampled_from(scene.nav.locations)
    return scene, draw(st.lists(st.tuples(location, location), min_size=1, max_size=8))


@given(route_cases())
@settings(max_examples=150)
def test_route_is_a_shortest_route(case):
    scene, pairs = case
    for a, b in pairs:
        want = astar_route(scene, a, b)
        got = scene.nav.route(a, b)
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert got[0] == a and got[-1] == b
        lengths = [step_lengths(scene, u).get(v) for u, v in zip(got, got[1:])]
        assert None not in lengths  # consecutive locations are neighbors
        assert sum(lengths) == pytest.approx(want[0], abs=1e-9)


@given(route_cases())
@settings(max_examples=150)
def test_next_location_is_the_routes_first_step(case):
    scene, pairs = case
    for a, b in pairs:
        if a == b:
            continue
        route = NavIndex(scene).route(a, b)  # off a fresh field
        assert scene.nav.next_location(a, b) == (None if route is None else route[1])
    if scene.grid is not None:  # on graphs, collinear nodes can tie with the direct edge
        for a, _ in pairs:
            for b, _ in grid_neighbors(scene.grid, a):
                assert scene.nav.next_location(a, b) == b


@pytest.mark.parametrize("make_scene", [split_grid_scene, square_and_pair_scene])
def test_route_memo_equals_fresh_search(make_scene):
    # a route read off a field that earlier questions paused and resumed
    # equals one read off a fresh index's field
    scene = make_scene()
    nav = scene.nav
    rng = np.random.default_rng(4)
    locations = nav.locations
    pairs = [(locations[i], locations[j]) for i, j in rng.integers(len(locations), size=(30, 2))]
    unreachable = 0
    for a, b in pairs:
        fresh = NavIndex(scene).route(a, b)
        got = nav.route(a, b)
        assert got == fresh
        assert (fresh is None) == (astar_route(scene, a, b) is None)
        unreachable += fresh is None
    opened = dict(nav._fields)
    for a, b in pairs:  # the second pass is answered by the fields already open
        assert nav.route(a, b) == NavIndex(scene).route(a, b)
    assert nav._fields.keys() == opened.keys()
    assert unreachable > 0


def test_a_route_to_a_grid_neighbor_opens_no_field(open_room):
    nav = NavIndex(open_room)
    assert nav.route((2, 2), (3, 3)) == ((2, 2), (3, 3))
    assert nav.route((2, 2), (2, 1)) == ((2, 2), (2, 1))
    assert nav.route((2, 2), (2, 2)) == ((2, 2),)
    assert nav._fields == {}
    assert nav.route((2, 2), (5, 2)) == ((2, 2), (3, 2), (4, 2), (5, 2))
    assert list(nav._fields) == [nav.id_of[(5, 2)]]


def test_route_takes_the_first_neighbor_on_a_shortest_route(open_room):
    # (1, 1) -> (8, 6) is 2 straight steps and 5 diagonals: 21 routes of
    # equal length.  Neighbors are listed by (dx, dy) offset, (0, 1) before
    # (1, 0) before (1, 1); (0, 1) leaves every shortest route, so the walk
    # steps straight while a straight step stays on one, then diagonally.
    # Back from (8, 6), (-1, -1) comes first and stays on one at once.
    nav = open_room.nav
    cells = [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 4), (7, 5), (8, 6)]
    assert nav.route((1, 1), (8, 6)) == tuple(cells)
    assert nav.route((8, 6), (1, 1)) == tuple(cells[::-1])
    # (1, 1) -> (4, 2): straight, straight, diagonal, of 3 equal routes
    assert nav.route((1, 1), (4, 2)) == ((1, 1), (2, 1), (3, 1), (4, 2))
    assert nav.route((3, 3), (3, 3)) == ((3, 3),)


def test_grid_neighbor_lists_equal_the_per_cell_loop(synth):
    rng = np.random.default_rng(5)
    grids = [synth["scene"].grid, split_grid_scene().grid]
    for h, w in [(1, 1), (1, 7), (9, 4), (12, 13)]:
        grids.append(GridWorld(resolution=0.3, origin=(0.0, 0.0, 0.0), width=w, height=h,
                               navigable=rng.random((h, w)) < 0.7, semantic=np.zeros((h, w), np.uint8),
                               floor_z=0.0, ceiling_z=2.0))
    offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    seen = set()
    for grid in grids:
        nav = NavIndex(Scene(scene_id="g", grid=grid))
        assert nav.locations == sorted((int(ix), int(iy)) for iy, ix in np.argwhere(grid.navigable))
        # one column per offset: the neighbor and its step, or the id itself and inf
        want_nbr = [[u] * len(offsets) for u in range(len(nav.locations))]
        want_steps = [[math.inf] * len(offsets) for _ in nav.locations]
        for u, cell in enumerate(nav.locations):
            for nxt, step in grid_neighbors(grid, cell):
                k = offsets.index((nxt[0] - cell[0], nxt[1] - cell[1]))
                want_nbr[u][k], want_steps[u][k] = nav.id_of[nxt], step
        assert nav._nbr.tolist() == want_nbr
        assert nav._steps.tobytes() == np.array(want_steps).reshape(nav._steps.shape).tobytes()
        for cell in nav.locations:  # all 8 offsets: steps, walls, cut corners, off-grid cells
            near = {nxt for nxt, _ in grid_neighbors(grid, cell)}
            for other in [(cell[0] + dx, cell[1] + dy) for dx, dy in offsets]:
                assert nav.adjacent(cell, other) == (other in near)
                seen.add((other in near, is_open(grid, other)))
            assert not nav.adjacent(cell, cell)  # the padding holds the id itself
    assert seen == {(True, True), (False, True), (False, False)}  # a cut corner is (False, True)


def settled(nav, location, ids) -> np.ndarray:
    """Distances from ``location`` to each location id in ``ids``, read
    off its field."""
    return nav.settle([(nav.id_of[location], ids)])[0][ids]


SEARCH_KINDS = ["synth_grid", "split_grid", "synth_graph", "square_and_pair"]


def search_scene(kind, synth) -> Scene:
    return {
        "synth_grid": lambda: synth["scene"],
        "split_grid": split_grid_scene,
        "synth_graph": lambda: synth["graph_scene"],
        "square_and_pair": square_and_pair_scene,
    }[kind]()


@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_resumed_distances_equal_one_full_run(kind, synth):
    scene = search_scene(kind, synth)
    whole, paused = NavIndex(scene), NavIndex(scene)
    every = list(range(len(whole.locations)))
    rng = np.random.default_rng(12)
    sources = [whole.locations[i] for i in rng.choice(every, size=min(4, len(every)), replace=False)]
    full = {source: settled(whole, source, every) for source in sources}
    orders = {source: [int(i) for i in rng.permutation(every)] for source in sources}
    got = {source: np.full(len(every), np.nan) for source in sources}
    for source in sources:  # a partial question to every source first
        part = orders[source][: len(every) // 5]
        got[source][part] = settled(paused, source, part)
    for source in sources:  # then the rest, one id at a time
        for i in orders[source][len(every) // 5:]:
            got[source][i] = paused.distance(source, paused.locations[i])
    for source in sources:
        assert got[source].tobytes() == full[source].tobytes() == heap_field(scene, whole.id_of[source]).tobytes()
    bulk = NavIndex(scene).settle([(whole.id_of[source], every) for source in sources])
    assert np.array(bulk).tobytes() == np.array([full[source] for source in sources]).tobytes()
    if kind in ("split_grid", "square_and_pair"):
        assert any(np.isinf(row).any() for row in full.values())


def assert_fields_are_the_heap(scene, nav, heaps) -> None:
    """Check every field of ``nav`` bytewise against the heap field of its
    source (``heaps``, filled on demand) at every id below its top, and
    check that every id it reached and left out of its front lies below
    that top: the front holds every open id, each once."""
    for source, (dist, front, top) in nav._fields.items():
        if source not in heaps:
            heaps[source] = heap_field(scene, source)
        final = dist < top
        assert dist[final].tobytes() == heaps[source][final].tobytes()
        closed = np.isfinite(dist)
        assert closed[front].all() and len(set(front.tolist())) == front.size
        closed[front] = False
        assert final[closed].all()


def assert_rows_are_the_heap(scene, sources, ids) -> None:
    """Ask one ``settle`` batch ``(source, ids)`` for every source, and
    check its rows bytewise against one heap field per source
    (``heap_field``) at ``ids``; check that the batch stored every row as
    its source's field, equal to the heap below its top."""
    nav = NavIndex(scene)
    rows = nav.settle([(s, ids) for s in sources])
    heaps = {s: heap_field(scene, s) for s in sources}
    assert len(rows) == len(sources)
    for s, row in zip(sources, rows):
        assert row[ids].tobytes() == heaps[s][ids].tobytes()
        assert row is nav._fields[s][0]
    assert nav._fields.keys() == set(sources)
    assert_fields_are_the_heap(scene, nav, heaps)


@st.composite
def sealed_grids(draw):
    """A random walled grid at one of four resolutions; walls, and at
    times a wall across it, seal pockets off, so some ids are inf."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(2, 14))
    navigable = np.ones((h, w), dtype=bool)
    for iy, ix in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)), max_size=h * w // 3)):
        navigable[iy, ix] = False
    if draw(st.booleans()):
        navigable[:, draw(st.integers(0, w - 1))] = False
    navigable[0, 0] = navigable[-1, -1] = True
    resolution = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.7]))
    return Scene(scene_id="sealed", grid=GridWorld(
        resolution=resolution, origin=(0.3, -1.7, 0.0), width=w, height=h, navigable=navigable,
        semantic=np.zeros((h, w), np.uint8), floor_z=0.0, ceiling_z=2.0))


@given(sealed_grids(), st.data())
@settings(max_examples=120)
def test_settle_many_equals_settle_on_random_walled_grids(scene, data):
    # one batch of asks to many sources, each row run out or stopped part-way
    every = list(range(len(scene.nav.locations)))
    sources = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=6))
    assert_rows_are_the_heap(scene, sources, every)
    assert_rows_are_the_heap(scene, sources, data.draw(st.lists(st.sampled_from(every), max_size=6)))


def lattice_graph(rng) -> Scene:
    """A random graph on a lattice, its edges up to two lattice steps
    long: many sums of edge lengths nearly tie."""
    spots = sorted({(int(x), int(y)) for x, y in rng.integers(0, 6, size=(int(rng.integers(2, 31)), 2))})
    scale = [0.1, 0.25, 1 / 3, 0.7][int(rng.integers(4))]
    nodes = {f"n{i:02d}": (x * scale, y * scale, 1.0) for i, (x, y) in enumerate(spots)}
    edges = [(f"n{i:02d}", f"n{j:02d}") for i, j in itertools.combinations(range(len(spots)), 2)
             if max(abs(spots[i][0] - spots[j][0]), abs(spots[i][1] - spots[j][1])) <= 2 and rng.random() < 0.7]
    return Scene(scene_id="lattice", graph=NavGraph(nodes=nodes, edges=edges))


def test_settle_many_equals_settle_on_random_graphs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        scene = lattice_graph(rng)
        every = list(range(len(scene.nav.locations)))
        assert_rows_are_the_heap(scene, every, every)


@given(st.one_of(sealed_grids(), st.integers(0, 2**32 - 1).map(lambda seed: lattice_graph(np.random.default_rng(seed)))),
       st.data())
@settings(max_examples=150)
def test_fields_resumed_over_random_batches_equal_the_heap(scene, data):
    # batched and single asks to a few sources, interleaved: each ask a list
    # of ids in random order, repeats and unreachable ids included, answered
    # off fields the asks before it opened and paused; a batch mixes new,
    # resumed and repeated sources
    nav = NavIndex(scene)
    every = st.sampled_from(range(len(nav.locations)))
    ask = st.tuples(st.sampled_from(data.draw(st.lists(every, min_size=1, max_size=4))), st.lists(every, max_size=8))
    heaps = {}
    for asks in data.draw(st.lists(st.lists(ask, min_size=1, max_size=4), min_size=1, max_size=12)):
        for (source, ids), row in zip(asks, nav.settle(asks), strict=True):
            if source not in heaps:
                heaps[source] = heap_field(scene, source)
            assert row[ids].tobytes() == heaps[source][ids].tobytes()
        assert_fields_are_the_heap(scene, nav, heaps)


@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_settle_many_partial_ids_repeated_sources_and_the_diagonal(kind, synth):
    scene = search_scene(kind, synth)
    n = len(scene.nav.locations)
    rng = np.random.default_rng(3)
    ids = [int(i) for i in rng.choice(n, size=min(5, n), replace=False)]
    sources = [ids[0], int(rng.integers(n)), ids[0], ids[-1]]  # repeated, and among the ids
    assert_rows_are_the_heap(scene, sources, ids)
    assert_rows_are_the_heap(scene, sources, ids[::-1] + ids[:2])  # repeated ids
    assert_rows_are_the_heap(scene, ids, ids)  # the diagonal, 0
    assert_rows_are_the_heap(scene, ids[:1], ids[:1])
    nav = NavIndex(scene)
    assert nav.settle([]) == [] and nav._fields == {}  # an empty batch
    # an all-new block's rows stay its views
    first = nav.settle([(ids[0], ids[:2]), (ids[-1], ids[:2])])
    assert first[0].base is first[1].base is not None
    # a lone resumed field runs in place
    assert nav.settle([(ids[0], range(n))])[0] is first[0] is nav._fields[ids[0]][0]
    # a mixed block writes a resumed row back into its own array and copies a new row out
    mixed = nav.settle([(ids[-1], range(n)), (ids[1], ids)])
    assert mixed[0] is first[1] is nav._fields[ids[-1]][0]
    assert mixed[1].base is None and mixed[1] is nav._fields[ids[1]][0]
    assert_fields_are_the_heap(scene, nav, {})


@pytest.mark.parametrize("kind", ["scene", "graph_scene"])
def test_nav_points_are_the_location_points(kind, synth):
    scene = synth[kind]
    expected = np.array([scene.location_point(loc) for loc in scene.nav.locations])
    assert scene.nav.points.tobytes() == expected.tobytes()


def test_a_near_query_settles_part_of_the_scene(synth):
    nav = NavIndex(synth["scene"])
    source = nav.id_of[nav.locations[len(nav.locations) // 2]]
    k = int(np.argmax(nav._steps[source] < math.inf))  # its first neighbor
    near, step = nav._nbr[source, k], nav._steps[source, k]
    assert nav.settle([(source, [near])])[0][near] == step
    assert 0 < final_ids(nav) < len(nav.locations) // 10


@given(st.floats(-100.0, 100.0, allow_nan=False))
def test_normalize_heading_range(h):
    out = normalize_heading(h)
    assert 0.0 <= out < 2.0 * math.pi
    assert math.isclose(math.cos(out), math.cos(h), abs_tol=1e-9)
    assert math.isclose(math.sin(out), math.sin(h), abs_tol=1e-9)


def test_cell_center_cell_index_round_trip(open_room):
    grid = open_room.grid
    for cell in [(0, 0), (3, 4), (9, 7)]:
        assert grid.cell_index(grid.cell_center(cell)) == cell


def test_graph_normalizes_edges():
    graph = NavGraph(
        nodes={"a": (0, 0, 0), "b": (1, 0, 0)},
        edges=[("b", "a"), ("a", "b")],
    )
    assert graph.edges == [("a", "b")]
    assert graph.adjacency == {"a": ["b"], "b": ["a"]}


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        NavGraph(nodes={"a": (0, 0, 0)}, edges=[("a", "a")])
    with pytest.raises(ValueError):
        NavGraph(nodes={"a": (0, 0, 0)}, edges=[("a", "zz")])


def test_graph_rejects_a_zero_length_edge():
    # a route walk steps only to strictly nearer nodes, so a zero-length
    # edge between a and b would leave it nowhere to go
    nodes = {"a": (0.0, 0.0, 0.0), "b": (0.0, 0.0, 0.0), "c": (1.0, 0.0, 0.0)}
    with pytest.raises(ValueError, match=r"edge \(a, b\) has zero length"):
        NavGraph(nodes=nodes, edges=[("a", "b"), ("b", "c")])
    assert NavGraph(nodes=nodes, edges=[("a", "c"), ("b", "c")]).edges == [("a", "c"), ("b", "c")]


@pytest.mark.parametrize("field, value, message", [
    ("resolution", math.nan, "resolution must be positive and finite, got nan"),
    ("resolution", math.inf, "resolution must be positive and finite, got inf"),
    ("origin", (math.nan, 0.0, 0.0), "origin.x must be finite, got nan"),
    ("origin", (0.0, -math.inf, 0.0), "origin.y must be finite, got -inf"),
    ("origin", (0.0, 0.0, math.nan), "origin.z must be finite, got nan"),
    ("floor_z", math.nan, "floor_z must be finite, got nan"),
    ("floor_z", -math.inf, "floor_z must be finite, got -inf"),
    ("ceiling_z", math.nan, "ceiling_z must be finite, got nan"),
    ("ceiling_z", math.inf, "ceiling_z must be finite, got inf"),
])
def test_grid_rejects_geometry_that_is_not_finite(field, value, message):
    fields = dict(resolution=0.25, origin=(0.0, 0.0, 0.0), width=2, height=2, navigable=np.ones((2, 2), bool),
                  semantic=np.zeros((2, 2), np.uint8), floor_z=0.0, ceiling_z=2.6)
    fields[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        GridWorld(**fields)


@pytest.mark.parametrize("position", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, -math.inf)])
def test_graph_rejects_a_node_that_is_not_finite(position):
    with pytest.raises(ValueError, match=r"node b position .* is not finite"):
        NavGraph(nodes={"a": (0.0, 0.0, 1.0), "b": position}, edges=[("a", "b")])


@pytest.mark.parametrize("value", ["123", b"123", ["1", "2", "3"], (0.0, "1", 2.0)],
                         ids=["str", "bytes", "str items", "one str item"])
def test_as_point_accepts_only_numbers(value):
    with pytest.raises(TypeError):
        as_point(value)


@pytest.mark.parametrize("value", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0), (0.0, 0.0, math.nan), (0, 10**400, 0)],
                         ids=["inf", "-inf", "nan", "beyond-float"])
def test_as_point_accepts_only_finite_numbers(value):
    with pytest.raises(ValueError, match="a point is three finite numbers"):
        as_point(value)


def test_scene_requires_exactly_one_kind(open_room, square_graph):
    with pytest.raises(ValueError):
        Scene(scene_id="x")
    with pytest.raises(ValueError):
        Scene(scene_id="x", graph=square_graph.graph, grid=open_room.grid)


def test_bitmask_round_trip():
    rng = np.random.default_rng(3)
    mask = rng.random((13, 29)) < 0.4
    assert np.array_equal(decode_bitmask(encode_bitmask(mask), mask.shape), mask)


def test_grid_scene_json_round_trip(open_room):
    payload = scene_to_dict(open_room)
    text = json.dumps(payload, sort_keys=True)
    back = scene_from_dict(json.loads(text))
    assert back.scene_id == open_room.scene_id
    assert back.grid.resolution == open_room.grid.resolution
    assert np.array_equal(back.grid.navigable, open_room.grid.navigable)
    assert np.array_equal(back.grid.semantic, open_room.grid.semantic)
    assert scene_to_dict(back) == payload


def test_graph_scene_json_round_trip(square_graph):
    payload = scene_to_dict(square_graph)
    back = scene_from_dict(json.loads(json.dumps(payload)))
    assert back.graph.nodes == square_graph.graph.nodes
    assert back.graph.edges == square_graph.graph.edges
    assert scene_to_dict(back) == payload


def _grid_payload(scene, key, value):
    payload = scene_to_dict(scene)
    payload[key] = value
    return payload


@pytest.mark.parametrize("key", ["navigable", "semantic"])
@pytest.mark.parametrize("rows", [2, 6])
def test_scene_loader_rejects_payloads_that_do_not_fit(tmp_path, key, rows):
    # a 4x4 scene whose payload encodes a 2x4 or 6x4 array
    scene = scene_from_ascii(["...."] * 4)
    other = scene_from_ascii(["...."] * rows).grid
    value = encode_bitmask(other.navigable) if key == "navigable" else encode_bytes(other.semantic)
    payload = _grid_payload(scene, key, value)
    with pytest.raises(ValueError, match="expected"):
        scene_from_dict(payload)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_scene(path)


@pytest.mark.parametrize("read", [load_scene, lambda path: list(read_json_lines(path))], ids=["json", "json-lines"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, read):
    path = tmp_path / "scene.json"
    path.write_bytes(b'{"type": "grid", "scene_id": "caf\xe9"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xe9"):
        read(path)


def test_decoders_take_exact_payloads_only():
    mask = np.ones((3, 5), dtype=bool)  # 15 bits pack into 2 bytes
    assert decode_bitmask(encode_bitmask(mask), (3, 5)).all()
    with pytest.raises(ValueError):
        decode_bitmask(encode_bitmask(mask), (4, 5))
    values = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert np.array_equal(decode_bytes(encode_bytes(values), (3, 4)), values)
    for shape in [(2, 4), (4, 4), (3, 5)]:
        with pytest.raises(ValueError):
            decode_bytes(encode_bytes(values), shape)
