import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln import coverage
from ivln.coverage import CoverageCurve, ObservationModel, _bresenham, coverage_curves, observed_cells
from ivln.environment import NavIndex, Point3, Scene, shortest_path
from ivln.errors import Disconnected, MissingEpisode
from ivln.tourgen import Episode, Tour

from conftest import grid_from_ascii, is_open, scene_from_ascii


def P(ix, iy, res=0.25):
    return Point3(ix * res, iy * res, 0.0)


def ep(eid, cells, scene_id="ascii"):
    return Episode(
        episode_id=eid,
        path_id="path_" + eid,
        scene_id=scene_id,
        path=[P(ix, iy) for ix, iy in cells],
        start_heading=0.0,
        instruction_id=eid + "_i0",
        instruction="look around",
    )


def brute_force_disc(grid, point, radius):
    """World-space disc around the agent's cell center, all cells."""
    sx, sy = grid.cell_index(point)
    out = set()
    for iy in range(grid.height):
        for ix in range(grid.width):
            d = math.hypot((ix - sx) * grid.resolution, (iy - sy) * grid.resolution)
            if d <= radius + 1e-9:
                out.add((ix, iy))
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_disc_matches_brute_force_without_occlusion(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(3, 9, size=2)
    navigable = rng.random((h, w)) > 0.3
    rows = ["".join("." if navigable[iy, ix] else "#" for ix in range(w)) for iy in range(h)]
    grid = grid_from_ascii(rows)
    radius = float(rng.uniform(0.3, 1.3))
    model = ObservationModel(radius=radius, occlusion=False)
    pts = [Point3(*rng.uniform([0, 0, 0], [(w - 1) * 0.25, (h - 1) * 0.25, 0]))]
    got = observed_cells(pts, grid, model)
    assert got == brute_force_disc(grid, pts[0], radius)


def per_cell_scan(grid, source, model):
    """Reference visible set: a Bresenham walk per cell of the disc.

    A cell within ``reach`` whose offset passes the disc test is kept
    when it is on the grid and, with occlusion on, every cell strictly
    between it and the source is on the grid and navigable.
    """
    sx, sy = source
    reach = math.ceil(model.radius / grid.resolution)
    r_cells = model.radius / grid.resolution
    out = set()
    for iy in range(max(0, sy - reach), min(grid.height, sy + reach + 1)):
        for ix in range(max(0, sx - reach), min(grid.width, sx + reach + 1)):
            if (ix - sx) ** 2 + (iy - sy) ** 2 > r_cells * r_cells + 1e-9:
                continue
            if model.occlusion and not all(is_open(grid, c) for c in _bresenham(source, (ix, iy))):
                continue
            out.add((ix, iy))
    return out


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60)
def test_stencil_matches_per_cell_scan(seed, occlusion):
    rng = np.random.default_rng(seed)
    h, w = (int(n) for n in rng.integers(2, 10, size=2))
    rows = ["".join("." if rng.random() > 0.35 else "#" for _ in range(w)) for _ in range(h)]
    resolution = float(rng.choice([0.25, 0.2]))
    grid = grid_from_ascii(rows, resolution=resolution)
    # mostly radii off the resolution's multiples; others put cell centers
    # on the disc's edge, where rounding can leave r_cells**2 an ulp short
    if rng.random() < 0.6:
        radius = float(rng.uniform(0.1, 1.7))
    else:
        radius = resolution * math.sqrt(int(rng.integers(1, 50)))
    model = ObservationModel(radius=radius, occlusion=occlusion)
    reach = math.ceil(radius / resolution)
    floor = [(ix, iy) for iy in range(h) for ix in range(w) if grid.navigable[iy, ix]]
    walls = [(ix, iy) for iy in range(h) for ix in range(w) if not grid.navigable[iy, ix]]
    sources = floor[:2] + walls[:2] + [
        (-1, 0), (w, h - 1), (w // 2, -1), (0, h),  # just off the grid
        (-reach, h // 2), (w - 1 + reach, 0),  # as far off as a visible cell can be
        (-reach - 1, 0), (w // 2, h + reach + 3),  # farther off than reach
    ]
    sources += [(int(x), int(y)) for x, y in rng.integers(-reach - 2, max(w, h) + reach + 2, size=(6, 2))]
    for source in sources:
        got = observed_cells([grid.cell_center(source)], grid, model)
        assert got == per_cell_scan(grid, source, model), source
    # one path through every source: the memoized masks' union
    path = [grid.cell_center(source) for source in sources]
    assert observed_cells(path, grid, model) == set().union(*(per_cell_scan(grid, s, model) for s in sources))



def test_a_path_of_more_sources_than_one_block_sees_their_union(monkeypatch):
    rng = np.random.default_rng(7)
    h, w = 12, 14
    rows = ["".join("." if rng.random() > 0.3 else "#" for _ in range(w)) for _ in range(h)]
    grid = grid_from_ascii(rows)
    model = ObservationModel(radius=1.5)
    reach = math.ceil(model.radius / grid.resolution)
    blocks = []
    grid_visible = coverage._Visibility._grid_visible
    monkeypatch.setattr(coverage._Visibility, "_grid_visible", lambda vis, keys: blocks.append(len(keys))
                        or grid_visible(vis, keys))
    # every cell, a ring just off the grid, and cells farther off than reach
    sources = [(ix, iy) for iy in range(-1, h + 1) for ix in range(-1, w + 1)]
    sources += [(-reach - 1, 0), (w + reach, h // 2), (w // 2, -reach - 5)]
    path = [grid.cell_center(source) for source in sources + sources[::3]]  # each third source twice
    got = observed_cells(path, grid, model)
    assert len(blocks) > 1 and blocks[0] < (h + 2) * (w + 2)
    assert got == set().union(*(per_cell_scan(grid, s, model) for s in sources))

def test_wall_occludes_cells_behind_it():
    grid = grid_from_ascii(["....#...."])
    model = ObservationModel(radius=3.0, occlusion=True)
    seen = observed_cells([P(1, 0)], grid, model)
    assert (4, 0) in seen  # the wall face itself is visible
    assert (5, 0) not in seen
    assert (8, 0) not in seen
    assert {(0, 0), (1, 0), (2, 0), (3, 0)} <= seen


def test_occlusion_toggle():
    grid = grid_from_ascii(["....#...."])
    see_through = ObservationModel(radius=3.0, occlusion=False)
    seen = observed_cells([P(1, 0)], grid, see_through)
    assert seen == {(ix, 0) for ix in range(9)}


def test_model_validation():
    with pytest.raises(ValueError):
        ObservationModel(radius=0.0)
    assert ObservationModel().to_dict() == {"radius": 3.0, "occlusion": True}


def test_observed_cells_accepts_scene_or_grid(open_room):
    model = ObservationModel(radius=1.0)
    pts = [P(4, 3)]
    assert observed_cells(pts, open_room, model) == observed_cells(pts, open_room.grid, model)


def test_graph_coverage_is_radius_ball(square_graph):
    model = ObservationModel(radius=2.5, occlusion=True)  # occlusion ignored on graphs
    seen = observed_cells([Point3(0, 0, 1)], square_graph, model)
    assert seen == {"a", "b", "d"}  # c sits 2*sqrt(2) away


def test_graph_node_at_exactly_the_radius_is_seen(square_graph):
    # (0, -1.5) is no node; b sits exactly 2.5 from it, a 1.5, c and d farther
    point = Point3(0.0, -1.5, 1.0)
    assert observed_cells([point], square_graph, ObservationModel(radius=2.5)) == {"a", "b"}
    just_short = ObservationModel(radius=math.nextafter(2.5, 0.0))
    assert observed_cells([point], square_graph, just_short) == {"a"}


# -- curves -------------------------------------------------------------------


def test_curves_zero_start_full_finish():
    scene = scene_from_ascii(["......"])
    tours = [Tour("t", "ascii", ["e0", "e1"])]
    by_id = {
        "e0": ep("e0", [(0, 0), (1, 0)]),
        "e1": ep("e1", [(4, 0), (5, 0)]),
    }
    curve = coverage_curves(tours, by_id, scene, ObservationModel(radius=0.3))
    recs = curve.records
    assert [r["episode_index"] for r in recs] == [1, 2, 3]
    assert recs[0]["upcoming_pct_mean"] == 0.0
    assert recs[0]["tour_pct_mean"] == 0.0
    assert recs[-1]["upcoming_pct_mean"] is None
    assert recs[-1]["tour_pct_mean"] == 100.0
    assert all(r["n_tours"] == 1 for r in recs)


def test_retrace_sees_everything_second_time():
    scene = scene_from_ascii(["........", "........"])
    tours = [Tour("t", "ascii", ["e0", "e1"])]
    by_id = {
        "e0": ep("e0", [(1, 0), (6, 0)]),
        "e1": ep("e1", [(1, 0), (6, 0)]),  # same route again
    }
    curve = coverage_curves(tours, by_id, scene, ObservationModel(radius=0.5))
    assert curve.records[1]["upcoming_pct_mean"] == 100.0
    assert curve.records[1]["tour_pct_mean"] == 100.0


def test_transit_counts_toward_coverage(square_graph):
    tours = [Tour("t", "square", ["e0", "e1"])]

    def gep(eid, node_pos):
        return Episode(
            episode_id=eid,
            path_id="path_" + eid,
            scene_id="square",
            path=[node_pos],
            start_heading=0.0,
            instruction_id=eid + "_i0",
            instruction="stand",
        )

    by_id = {"e0": gep("e0", Point3(0, 0, 1)), "e1": gep("e1", Point3(2, 2, 1))}
    curve = coverage_curves(tours, by_id, square_graph, ObservationModel(radius=2.5))
    # walking the transit a->c passes within radius of every node
    assert curve.records[1]["upcoming_pct_mean"] == 100.0
    assert curve.records[1]["tour_pct_mean"] == 100.0


def test_region_pct_is_monotone(synth):
    tours = synth["tours"][:2]
    curve = coverage_curves(tours, synth["by_id"], synth["scene"], ObservationModel(radius=1.5))
    for tour_rec in curve.per_tour:
        pcts = [r["tour_region_pct"] for r in tour_rec["records"]]
        assert all(a <= b + 1e-12 for a, b in zip(pcts, pcts[1:]))
        assert pcts[-1] == pytest.approx(100.0)
    assert {r["n_tours"] for r in curve.records} == {2}



def reference_curves(tours, by_id, scene, model):
    """Each tour's records from per-source ``per_cell_scan`` sets: the
    region is every point's set, an episode's coverage its own points'."""
    grid = scene.grid

    def seen_from(points):
        return set().union(*(per_cell_scan(grid, grid.cell_index(p), model) for p in points))

    per_tour = []
    for tour in tours:
        eps = [by_id[eid] for eid in tour.episode_ids]
        region = seen_from(p for e in eps for p in e.path)
        cov = [seen_from(e.path) for e in eps]
        seen, records = set(), []
        for k in range(len(eps) + 1):
            records.append({
                "episode_index": k + 1,
                "upcoming_episode_pct": 100.0 * len(seen & cov[k]) / len(cov[k]) if k < len(eps) else None,
                "tour_region_pct": 100.0 * len(seen & region) / len(region),
            })
            if k < len(eps):
                transit = shortest_path(scene, eps[k].path[-1], eps[k + 1].path[0]) if k + 1 < len(eps) else []
                seen |= cov[k] | seen_from(transit)
        per_tour.append({"tour_id": tour.tour_id, "records": records})
    return per_tour


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_curves_equal_curves_from_per_cell_scans(seed, occlusion):
    rng = np.random.default_rng(seed)
    h, w = (int(n) for n in rng.integers(4, 12, size=2))
    rows = ["".join("." if rng.random() > 0.25 else "#" for _ in range(w)) for _ in range(h)]
    scene = scene_from_ascii(rows)
    nav = scene.nav
    if not nav.locations:
        return
    # episodes in the component of one location, so every transit has a route
    dist = nav.settle([(0, range(len(nav.locations)))])[0]
    cells = [nav.locations[i] for i in np.flatnonzero(dist < math.inf)]

    def episode(eid):
        ends = [cells[i] for i in rng.integers(len(cells), size=2)]
        inner = [(x + u, y + v) for (x, y), (u, v) in zip(rng.integers(-1, max(w, h) + 1, size=(3, 2)),
                                                          rng.uniform(-0.5, 0.5, size=(3, 2)))]
        return ep(eid, [ends[0], *inner, ends[1]])

    by_id = {f"e{k}": episode(f"e{k}") for k in range(6)}
    tours = [Tour("t0", "ascii", ["e0", "e1", "e2", "e3"]), Tour("t1", "ascii", ["e4", "e5", "e0"])]
    model = ObservationModel(radius=float(rng.uniform(0.2, 1.2)), occlusion=occlusion)
    assert coverage_curves(tours, by_id, scene, model).per_tour == reference_curves(tours, by_id, scene, model)

def test_unknown_episode_raises(open_room):
    with pytest.raises(MissingEpisode):
        coverage_curves([Tour("t", "open-room", ["ghost"])], {}, open_room)


def test_csv_and_json_round_trip(tmp_path):
    scene = scene_from_ascii(["......"])
    tours = [Tour("t", "ascii", ["e0"])]
    by_id = {"e0": ep("e0", [(0, 0), (5, 0)])}
    curve = coverage_curves(tours, by_id, scene, ObservationModel(radius=0.5))
    out = tmp_path / "curve.csv"
    curve.save_csv(out)
    with out.open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["episode_index", "upcoming_pct_mean", "tour_pct_mean", "n_tours"]
    assert rows[1] == ["1", "0.00", "0.00", "1"]
    assert rows[2][1] == ""  # terminal record has no upcoming value
    assert rows[2][2] == "100.00"
    jpath = tmp_path / "curve.json"
    curve.save_json(jpath)
    assert jpath.read_text().endswith("\n")


def test_curves_deterministic(synth):
    tours = synth["tours"][:1]
    model = ObservationModel(radius=1.0)
    a = coverage_curves(tours, synth["by_id"], synth["scene"], model)
    b = coverage_curves(tours, synth["by_id"], synth["scene"], model)
    assert a.to_dict() == b.to_dict()


# a left and a middle room joined by a door at (6, 2); the right room is sealed
TWO_ROOMS_AND_A_SEALED_ONE = [
    "#################",
    "#.....#.....#...#",
    "#...........#...#",
    "#.....#.....#...#",
    "#################",
]
TRANSIT_EPISODES = {
    eid: ep(eid, cells)
    for eid, cells in {
        "e0": [(1, 1), (4, 1)],
        "e1": [(4, 1), (8, 3)],  # starts where e0 ends
        "e2": [(9, 2), (10, 1)],  # starts a diagonal step from e1's end
        "e3": [(2, 3), (1, 2)],  # through the door from e2's end
        "e4": [(1, 3), (3, 3)],  # starts a straight step from e3's end
        "e5": [(14, 1), (15, 3)],  # in the sealed room
    }.items()
}


def curves_both_ways(monkeypatch, tours):
    """The curves (or the error) of ``coverage_curves`` with its transit
    batch and with each transit routed on its own, each on a fresh scene,
    the sources of the fields each left open and its count of searches."""
    rounds = NavIndex._rounds
    searches = []
    monkeypatch.setattr(NavIndex, "_rounds", lambda nav, *args: searches.append(1) or rounds(nav, *args))
    results = []
    for batched in (True, False):
        if not batched:
            monkeypatch.setattr(coverage, "_settle_transits", lambda scene, eps: None)
        scene = scene_from_ascii(TWO_ROOMS_AND_A_SEALED_ONE)
        searches.clear()
        try:
            got = coverage_curves(tours, TRANSIT_EPISODES, scene, ObservationModel(radius=1.0)).to_dict()
        except Disconnected as exc:
            got = (type(exc), str(exc))
        results.append((got, sorted(scene.nav._fields), len(searches)))
    return results


def test_batched_transits_equal_per_transit_routing(monkeypatch):
    tours = [Tour("t0", "ascii", ["e0", "e1", "e2", "e3", "e4"]), Tour("t1", "ascii", ["e4", "e0", "e2"])]
    (batched, batched_fields, batched_searches), (alone, alone_fields, alone_searches) = curves_both_ways(
        monkeypatch, tours)
    assert batched == alone
    assert (batched_searches, alone_searches) == (2, 3)  # one search per tour, against one per field
    # shared and adjoining ends open no field: only the transits into e3, e0 and e2 of t1 do
    scene = scene_from_ascii(TWO_ROOMS_AND_A_SEALED_ONE)
    assert batched_fields == alone_fields == sorted(scene.nav.id_of[c] for c in [(2, 3), (1, 1), (9, 2)])


def test_an_unroutable_transit_raises_as_when_routed_alone(monkeypatch):
    tours = [Tour("t0", "ascii", ["e0", "e1"]), Tour("t1", "ascii", ["e0", "e3", "e5", "e2"])]
    (batched, *_), (alone, *_) = curves_both_ways(monkeypatch, tours)
    assert batched == alone
    kind, message = batched
    assert kind is Disconnected and message.startswith(f"no route between {tuple(P(1, 2))} and {tuple(P(14, 1))} ")
