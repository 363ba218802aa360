import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln.coverage import CoverageCurve, ObservationModel, _bresenham, coverage_curves, observed_cells
from ivln.environment import Point3, Scene
from ivln.errors import MissingEpisode
from ivln.tourgen import Episode, Tour

from conftest import grid_from_ascii, scene_from_ascii


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
            if model.occlusion and not all(grid.is_navigable(c) for c in _bresenham(source, (ix, iy))):
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
