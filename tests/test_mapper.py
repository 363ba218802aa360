import base64
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln.environment import Point3, Pose
from ivln.errors import DimensionMismatch
from ivln.mapper import (
    BAND_MARGIN,
    CROP_CHANNELS,
    LABEL_COUNT,
    CameraIntrinsics,
    SemanticOccMap,
    crop_egocentric,
    crop_from_compact,
    crop_layers,
    crop_to_compact,
    integrate,
    known_map,
    load_map,
    map_from_dict,
    map_to_dict,
    save_map,
    sense,
)

from ivln import harness, mapper
from ivln.mapper import _SHORT_CROSSINGS, RayTable, _cameras, _lift, _wall_tops
from ivln.syngen import FloorplanSpec, generate_scene

from conftest import DepthFrame, SemanticFrame, grid_from_ascii, synthesize_views, unproject


INTR = CameraIntrinsics.from_hfov(64, 48, 90.0)


def project(pose: Pose, world) -> tuple[float, float, float]:
    """Independent forward pinhole projection (world -> pixel + depth)."""
    wx, wy, wz = world
    h = pose.heading
    fwd = (math.cos(h), math.sin(h))
    right = (math.sin(h), -math.cos(h))
    rx, ry = wx - pose.position.x, wy - pose.position.y
    d = rx * fwd[0] + ry * fwd[1]
    x_cam = rx * right[0] + ry * right[1]
    y_cam = pose.position.z - wz
    u = INTR.cx + x_cam * INTR.fx / d
    v = INTR.cy + y_cam * INTR.fy / d
    return u, v, d


@given(
    st.integers(0, 63),
    st.integers(0, 47),
    st.floats(0.5, 9.0),
    st.floats(0, 2 * math.pi - 1e-9),
)
@settings(max_examples=60)
def test_unproject_inverts_projection(u, v, d, heading):
    pose = Pose(Point3(1.0, -2.0, 1.3), heading)
    depth = np.zeros((48, 64))
    depth[v, u] = d
    points, labels = unproject(DepthFrame(depth=depth, intrinsics=INTR, pose=pose))
    assert points.shape == (1, 3)
    bu, bv, bd = project(pose, points[0])
    assert bu == pytest.approx(u, abs=1e-9)
    assert bv == pytest.approx(v, abs=1e-9)
    assert bd == pytest.approx(d, abs=1e-9)


def test_unproject_drops_invalid_and_carries_labels():
    depth = np.zeros((48, 64))
    depth[10, 20] = 2.0
    depth[30, 40] = 3.0
    labels = np.zeros((48, 64), dtype=np.uint8)
    labels[10, 20] = 7
    labels[30, 40] = 2
    pose = Pose(Point3(0, 0, 1.0), 0.0)
    pts, labs = unproject(
        DepthFrame(depth=depth, intrinsics=INTR, pose=pose), SemanticFrame(labels)
    )
    assert pts.shape == (2, 3)
    assert sorted(labs.tolist()) == [2, 7]


def test_unproject_shape_checks():
    pose = Pose(Point3(0, 0, 0), 0.0)
    with pytest.raises(DimensionMismatch):
        DepthFrame(depth=np.zeros((10, 10)), intrinsics=INTR, pose=pose)
    frame = DepthFrame(depth=np.zeros((48, 64)), intrinsics=INTR, pose=pose)
    with pytest.raises(DimensionMismatch):
        unproject(frame, SemanticFrame(np.zeros((5, 5), dtype=np.uint8)))


# -- integration --------------------------------------------------------------


def fresh_map(mode="iterative", size=8):
    return SemanticOccMap(
        resolution=0.25, origin=(0, 0, 0), width=size, height=size, mode=mode
    )


def test_integrate_band_rules():
    m = fresh_map()
    floor, ceil = 0.0, 2.6
    pts = np.array(
        [
            [0.25, 0.0, 1.0],  # in band: occupied
            [0.50, 0.0, floor + BAND_MARGIN / 2],  # floor return: observed only
            [0.75, 0.0, ceil - BAND_MARGIN / 2],  # ceiling return: observed only
            [1.00, 0.0, floor + BAND_MARGIN],  # boundary is outside the open band
        ]
    )
    integrate(m, pts, np.array([5, 5, 5, 5], dtype=np.uint8), floor, ceil)
    assert m.occupancy[0, 1] == 1 and m.semantic[0, 1] == 5
    for ix in (2, 3, 4):
        assert m.observed[0, ix]
        assert m.occupancy[0, ix] == 0
        assert m.semantic[0, ix] == 0


def test_integrate_highest_point_wins():
    m = fresh_map()
    pts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    integrate(m, pts, np.array([4, 9, 6], dtype=np.uint8), 0.0, 2.6)
    assert m.semantic[0, 0] == 9
    assert m.top_z[0, 0] == pytest.approx(2.0)
    # a later, lower point cannot downgrade the label
    integrate(m, np.array([[0.0, 0.0, 1.5]]), np.array([3], dtype=np.uint8), 0.0, 2.6)
    assert m.semantic[0, 0] == 9


def test_integrate_idempotent():
    m = fresh_map()
    rng = np.random.default_rng(0)
    pts = rng.uniform([0, 0, 0.0], [2.0, 2.0, 2.6], size=(200, 3))
    labels = rng.integers(1, 14, size=200).astype(np.uint8)
    integrate(m, pts, labels, 0.0, 2.6)
    snap = {k: getattr(m, k).copy() for k in ("occupancy", "semantic", "observed", "top_z")}
    integrate(m, pts, labels, 0.0, 2.6)
    for k, arr in snap.items():
        assert np.array_equal(getattr(m, k), arr), k


def test_integrate_ignores_points_off_the_map():
    m = fresh_map()
    integrate(m, np.array([[50.0, 50.0, 1.0]]), np.array([5], dtype=np.uint8), 0.0, 2.6)
    assert not m.observed.any()
    assert not m.occupancy.any()


def test_integrate_validates_shapes():
    m = fresh_map()
    with pytest.raises(DimensionMismatch):
        integrate(m, np.zeros((3, 2)), np.zeros(3, dtype=np.uint8), 0.0, 2.6)
    with pytest.raises(DimensionMismatch):
        integrate(m, np.zeros((3, 3)), np.zeros(2, dtype=np.uint8), 0.0, 2.6)


def test_known_map_is_immutable():
    grid = grid_from_ascii(["##", ".."])
    m = known_map(grid)
    with pytest.raises(ValueError):
        integrate(m, np.array([[0.0, 0.0, 1.0]]), np.array([5], dtype=np.uint8), 0.0, 2.6)


def test_known_map_mirrors_grid():
    grid = grid_from_ascii(["#.#", ".5."])
    m = known_map(grid)
    assert np.array_equal(m.occupancy.astype(bool), ~grid.navigable)
    assert np.array_equal(m.semantic, grid.semantic)
    assert m.observed.all()


# -- crops --------------------------------------------------------------------


def crop_oracle(occ_map, pose, size):
    """Scalar per-pixel reimplementation of the crop definition."""
    out = np.zeros((CROP_CHANNELS, size, size), dtype=np.float32)
    center = size // 2
    h = pose.heading
    fwd = (math.cos(h), math.sin(h))
    right = (math.sin(h), -math.cos(h))
    for row in range(size):
        for col in range(size):
            ahead = (center - row) * occ_map.resolution
            lateral = (col - center) * occ_map.resolution
            wx = pose.position.x + ahead * fwd[0] + lateral * right[0]
            wy = pose.position.y + ahead * fwd[1] + lateral * right[1]
            ix = math.floor((wx - occ_map.origin.x) / occ_map.resolution + 0.5)
            iy = math.floor((wy - occ_map.origin.y) / occ_map.resolution + 0.5)
            if not (0 <= ix < occ_map.width and 0 <= iy < occ_map.height):
                continue
            lbl = occ_map.semantic[iy, ix]
            if lbl:
                out[lbl - 1, row, col] = 1.0
            out[LABEL_COUNT, row, col] = occ_map.occupancy[iy, ix]
    return out


@given(st.integers(0, 500), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), st.integers(4, 12))
@settings(max_examples=30)
def test_crop_matches_scalar_oracle(seed, heading, size):
    rng = np.random.default_rng(seed)
    m = fresh_map(size=6)
    m.semantic = rng.integers(0, 14, size=(6, 6)).astype(np.uint8)
    m.occupancy = (m.semantic > 6).astype(np.uint8)
    pose = Pose(Point3(rng.uniform(0, 1.5), rng.uniform(0, 1.5), 0.0), heading)
    got = crop_egocentric(m, pose, size)
    want = crop_oracle(m, pose, size)
    assert np.array_equal(got, want)


def test_crop_geometry_heading_up():
    m = fresh_map(size=7)
    # one labeled cell directly north of the agent cell (3, 3)
    m.semantic[4, 3] = 5
    m.occupancy[4, 3] = 1
    agent = Pose(Point3(3 * 0.25, 3 * 0.25, 0.0), math.pi / 2)  # facing +y
    crop = crop_egocentric(m, agent, size=7)
    center = 3
    # facing +y the north cell sits one row ahead, dead center
    assert crop[4, center - 1, center] == 1.0
    assert crop[LABEL_COUNT, center - 1, center] == 1.0
    # facing +x the same cell appears one column to the left
    crop = crop_egocentric(m, Pose(agent.position, 0.0), size=7)
    assert crop[4, center, center - 1] == 1.0


def test_crop_shape_and_one_hot():
    m = fresh_map(size=10)
    rng = np.random.default_rng(1)
    m.semantic = rng.integers(0, 14, size=(10, 10)).astype(np.uint8)
    m.occupancy = rng.integers(0, 2, size=(10, 10)).astype(np.uint8)
    crop = crop_egocentric(m, Pose(Point3(1.0, 1.0, 0), 0.7))
    assert crop.shape == (14, 64, 64)
    assert crop.dtype == np.float32
    one_hot = crop[:LABEL_COUNT].sum(axis=0)
    assert one_hot.max() <= 1.0
    assert set(np.unique(crop)) <= {0.0, 1.0}


def test_crop_outside_map_is_zero():
    m = fresh_map(size=4)
    m.semantic[:] = 5
    m.occupancy[:] = 1
    crop = crop_egocentric(m, Pose(Point3(0.0, 0.0, 0), 0.0), size=64)
    # the map covers a 4x4 corner of a 64x64 window: almost all zeros
    assert crop.sum() < 2 * 16 + 1


def crop_loop(occ_map, pose, size):
    """The one-hot crop built with one pass per label, the reference for
    ``crop_egocentric``'s broadcast compare."""
    center = size // 2
    rows, cols = np.mgrid[0:size, 0:size]
    ahead = (center - rows) * occ_map.resolution
    lateral = (cols - center) * occ_map.resolution
    h = pose.heading
    wx = pose.position.x + ahead * math.cos(h) + lateral * math.sin(h)
    wy = pose.position.y + ahead * math.sin(h) + lateral * -math.cos(h)
    ix, iy = occ_map.cell_index(wx, wy)
    valid = (ix >= 0) & (ix < occ_map.width) & (iy >= 0) & (iy < occ_map.height)
    ix_c = np.clip(ix, 0, occ_map.width - 1)
    iy_c = np.clip(iy, 0, occ_map.height - 1)
    labels = np.where(valid, occ_map.semantic[iy_c, ix_c], 0)
    occ = np.where(valid, occ_map.occupancy[iy_c, ix_c], 0)
    out = np.zeros((CROP_CHANNELS, size, size), dtype=np.float32)
    for lbl in range(1, LABEL_COUNT + 1):
        out[lbl - 1] = labels == lbl
    out[LABEL_COUNT] = occ
    return out


def seeded_maps(grid, tmp_path):
    """A sensed map, the known map, and a loaded map with labels up to 255."""
    sensed = SemanticOccMap.for_grid(grid, "iterative")
    rng = np.random.default_rng(4)
    cells = np.argwhere(grid.navigable)
    for iy, ix in cells[rng.choice(len(cells), size=12, replace=False)]:
        pose = Pose(Point3(grid.origin.x + ix * grid.resolution, grid.origin.y + iy * grid.resolution,
                           grid.floor_z + 1.25), rng.uniform(0, 2 * math.pi))
        depth, sem = synthesize_views(grid, pose, INTR)
        integrate(sensed, *unproject(depth, sem), grid.floor_z, grid.ceiling_z)
    wild = SemanticOccMap.for_grid(grid, "iterative")
    wild.semantic[:] = rng.integers(0, 256, size=wild.semantic.shape)
    wild.occupancy[:] = rng.integers(0, 2, size=wild.occupancy.shape)
    save_map(wild, tmp_path / "wild.json")
    loaded = load_map(tmp_path / "wild.json")
    assert loaded.semantic.max() > LABEL_COUNT
    return [sensed, known_map(grid), loaded]


def test_compact_crop_round_trip_is_the_crop_bitwise(generated_grid, tmp_path):
    grid = generated_grid
    rng = np.random.default_rng(21)
    span_x, span_y = grid.width * grid.resolution, grid.height * grid.resolution
    for m in seeded_maps(grid, tmp_path):
        assert m.semantic.any() and m.occupancy.any()
        for i in range(60):
            # anywhere on the map or up to 2 m past its edge, so some crops
            # hang off the map and a few lie wholly outside it
            x = grid.origin.x + rng.uniform(-2.0, span_x + 2.0) if i % 4 else grid.origin.x
            y = grid.origin.y + rng.uniform(-2.0, span_y + 2.0)
            heading = [rng.uniform(-2 * math.pi, 2 * math.pi), math.radians(15 * rng.integers(24)),
                       math.pi / 2 * rng.integers(4)][i % 3]
            pose = Pose(Point3(x, y, 0.0), heading)
            size = [64, 24, 17][i % 3]
            want = crop_loop(m, pose, size)
            crop = crop_egocentric(m, pose, size)
            assert crop.dtype == np.float32 and crop.tobytes() == want.tobytes()
            wire = json.loads(json.dumps(crop_to_compact(*crop_layers(m, pose, size))))
            back = crop_from_compact(wire)
            assert back.dtype == np.float32 and back.tobytes() == want.tobytes()


def test_compact_crop_is_small_and_labels_above_13_read_as_none():
    m = fresh_map(size=10)
    m.semantic[:] = 200
    m.semantic[4, 4] = 13
    m.occupancy[:] = 1
    labels, occupied = crop_layers(m, Pose(Point3(1.0, 1.0, 0), 0.0))
    assert labels.dtype == np.uint8 and set(np.unique(labels)) == {0, 13}
    assert occupied.dtype == bool and occupied.sum() == 100
    payload = crop_to_compact(labels, occupied)
    assert payload["size"] == 64
    assert len(base64.b64decode(payload["labels"])) == 64 * 64
    assert len(base64.b64decode(payload["occupied"])) == 64 * 64 // 8
    assert len(json.dumps(payload)) < 7000


@pytest.mark.parametrize("key, delta", [("labels", -1), ("labels", 1), ("occupied", -1), ("occupied", 1)])
def test_compact_crop_payload_that_does_not_fit_is_refused(key, delta):
    m = fresh_map(size=6)
    payload = crop_to_compact(*crop_layers(m, Pose(Point3(0.5, 0.5, 0), 0.0), size=16))
    payload[key] = _resized(payload[key], 1, delta)
    with pytest.raises(ValueError, match="expected"):
        crop_from_compact(payload)


@pytest.mark.parametrize("size", [0, -4, 16.0, "16", None])
def test_compact_crop_size_must_be_a_positive_integer(size):
    payload = crop_to_compact(*crop_layers(fresh_map(size=6), Pose(Point3(0.5, 0.5, 0), 0.0), size=16))
    payload["size"] = size
    with pytest.raises(ValueError, match="size"):
        crop_from_compact(payload)


@pytest.mark.parametrize("change", ["no size", "labels not text", "a list", "size a boolean"])
def test_a_compact_crop_of_another_shape_is_refused_with_a_value_error(change):
    payload = crop_to_compact(*crop_layers(fresh_map(size=6), Pose(Point3(0.5, 0.5, 0), 0.0), size=16))
    payload = {"no size": {k: v for k, v in payload.items() if k != "size"},
               "labels not text": {**payload, "labels": 7},
               "a list": list(payload.values()),
               "size a boolean": {**payload, "size": True}}[change]
    with pytest.raises(ValueError, match="^crop: "):
        crop_from_compact(payload)


# -- snapshots ----------------------------------------------------------------


def test_map_snapshot_round_trip(tmp_path):
    m = fresh_map(size=9)
    rng = np.random.default_rng(5)
    pts = rng.uniform([0, 0, 0], [2.2, 2.2, 2.6], size=(300, 3))
    integrate(m, pts, rng.integers(1, 14, size=300).astype(np.uint8), 0.0, 2.6)
    path = tmp_path / "map.json"
    save_map(m, path)
    back = load_map(path)
    assert back.mode == m.mode
    assert np.array_equal(back.occupancy, m.occupancy)
    assert np.array_equal(back.semantic, m.semantic)
    assert np.array_equal(back.observed, m.observed)
    # top_z survives at float32 precision; a second save is byte-identical
    assert np.allclose(back.top_z, m.top_z, atol=1e-6)
    second = tmp_path / "map2.json"
    save_map(back, second)
    assert second.read_bytes() == path.read_bytes()


def test_map_snapshot_is_base64_compact(tmp_path):
    m = fresh_map(size=9)
    payload = map_to_dict(m)
    assert payload["format_version"] == "1"
    for key in ("occupancy", "semantic", "observed", "top_z"):
        assert isinstance(payload[key], str)
    assert map_from_dict(payload).width == 9


def _resized(text, decoded_size, delta):
    """Base64 text of a payload ``delta`` items of ``decoded_size`` bytes
    longer (or shorter) than ``text``."""
    raw = base64.b64decode(text)
    raw = raw + bytes(decoded_size * delta) if delta > 0 else raw[: len(raw) + decoded_size * delta]
    return base64.b64encode(raw).decode("ascii")


@pytest.mark.parametrize("key, item_size", [("occupancy", 1), ("semantic", 1), ("observed", 1), ("top_z", 4)])
@pytest.mark.parametrize("delta", [-1, 1])
def test_map_loader_rejects_payloads_that_do_not_fit(tmp_path, key, item_size, delta):
    payload = map_to_dict(fresh_map(size=9))
    payload[key] = _resized(payload[key], item_size, delta)
    with pytest.raises(ValueError, match="expected"):
        map_from_dict(payload)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_map(path)


@pytest.mark.parametrize("value, message", [
    (0, "resolution must be positive and finite, got 0.0"),
    (-1, "resolution must be positive and finite, got -1.0"),
    (10 ** 400, "field 'resolution' must be a finite number, got 1000"),
], ids=["zero", "negative", "huge"])
def test_a_map_file_whose_resolution_is_not_positive_and_finite_is_named(tmp_path, value, message):
    path = tmp_path / "map.json"
    save_map(fresh_map(size=4), path)
    payload = json.loads(path.read_text())
    payload["resolution"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_map(path)
    with pytest.raises(ValueError, match="resolution must be positive and finite, got nan"):
        SemanticOccMap(resolution=math.nan, origin=(0, 0, 0), width=4, height=4, mode="iterative")


def test_a_map_file_without_a_field_is_named(tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"format_version": "1"}')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing field 'height'$"):
        load_map(path)
    with pytest.raises(ValueError, match="^map: expected a JSON object$"):
        map_from_dict([])


# -- synthetic views ----------------------------------------------------------


def center_intrinsics():
    # odd width and height put a pixel exactly on the optical axis
    return CameraIntrinsics.from_hfov(65, 49, 90.0)


def test_synthesized_center_ray_hits_wall():
    grid = grid_from_ascii(["#....#"])
    intr = center_intrinsics()
    cam = Pose(Point3(1 * 0.25, 0.0, 1.25), 0.0)  # at cell 1, facing +x
    depth, sem = synthesize_views(grid, cam, intr)
    cv, cu = 24, 32  # optical axis pixel
    # wall cell 5 begins 3.5 cells ahead; the rendered point is nudged in
    expected = 3.5 * 0.25 + 1e-4
    assert depth.depth[cv, cu] == pytest.approx(expected, abs=1e-9)
    assert sem.labels[cv, cu] == 2


def test_synthesized_floor_and_ceiling_rows():
    # room long enough that steep rays reach the planes before the far wall
    grid = grid_from_ascii(["#" + "." * 30 + "#"])
    intr = center_intrinsics()
    cam = Pose(Point3(0.25, 0.0, 1.25), 0.0)
    depth, sem = synthesize_views(grid, cam, intr, max_range=50.0)
    col = 32
    down = depth.depth[48, col]  # steepest downward ray
    slope = -(48 - intr.cy) / intr.fy
    assert down == pytest.approx((0.0 - 1.25) / slope, abs=1e-9)
    assert sem.labels[48, col] == 1  # floor
    up = depth.depth[0, col]
    up_slope = -(0 - intr.cy) / intr.fy
    assert up == pytest.approx((2.6 - 1.25) / up_slope, abs=1e-9)
    assert sem.labels[0, col] == 1  # ceiling over a floor cell keeps its label


def test_synthesized_range_limit():
    grid = grid_from_ascii(["#" + "." * 60 + "#"])
    intr = center_intrinsics()
    cam = Pose(Point3(0.25, 0.0, 1.25), 0.0)
    depth, _ = synthesize_views(grid, cam, intr, max_range=2.0)
    assert depth.depth[24, 32] == 0.0  # wall beyond range: invalid


def test_single_view_occupancy_is_precise():
    # every cell a single integrated view marks occupied is truly a wall
    grid = grid_from_ascii(
        [
            "########",
            "#......#",
            "#..55..#",
            "#......#",
            "########",
        ]
    )
    m = SemanticOccMap.for_grid(grid, "iterative")
    for heading in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 0.7):
        cam = Pose(Point3(1 * 0.25, 1 * 0.25, 1.25), heading)
        depth, sem = synthesize_views(grid, cam, INTR)
        pts, labels = unproject(depth, sem)
        integrate(m, pts, labels, grid.floor_z, grid.ceiling_z)
    occupied = np.argwhere(m.occupancy == 1)
    assert len(occupied) > 0
    for iy, ix in occupied:
        assert not grid.navigable[iy, ix], (ix, iy)
        assert m.semantic[iy, ix] == grid.semantic[iy, ix]


# -- footprints ---------------------------------------------------------------


def pixel_path(occ_map, grid, pose, max_range):
    depth, sem = synthesize_views(grid, pose, INTR, max_range)
    integrate(occ_map, *unproject(depth, sem), grid.floor_z, grid.ceiling_z)


MAP_ARRAYS = ("occupancy", "semantic", "observed", "top_z")


def cell_units(n):
    # anywhere on or just off the grid, and exactly on cell centers and edges
    return st.one_of(st.floats(-1.5, n + 0.5), st.integers(-3, 2 * n + 1).map(lambda k: k / 2))


@st.composite
def walks(draw):
    # rooms, and open floors up to 40 cells wide, where rays need the full pass
    width, height = draw(st.integers(2, 12) | st.integers(30, 40)), draw(st.integers(1, 8))
    alphabet = draw(st.sampled_from([".....#4567", "."]))
    cells = draw(st.text(alphabet, min_size=width * height, max_size=width * height))
    grid = grid_from_ascii([cells[i * width:(i + 1) * width] for i in range(height)])
    heading = st.one_of(st.floats(-7.0, 7.0), st.integers(-8, 8).map(lambda k: k * math.pi / 4),
                        st.builds(drifted, st.floats(0.0, 2 * math.pi),
                                  st.lists(st.sampled_from([-1, 1]), max_size=60)))
    poses = draw(st.lists(st.tuples(cell_units(width), cell_units(height), heading, st.booleans()),
                          min_size=1, max_size=8))
    return grid, poses, draw(st.sampled_from([10.0, 1.3]))


def fold_in_chunks(grid, poses, clears, chunk, max_range):
    """An episodic map folded as a walk does: poses queue, a full queue of
    ``chunk`` poses is sensed in one batch, a clear drops the queue."""
    occ_map = SemanticOccMap.for_grid(grid, "episodic")
    pending = []
    for pose, clear in zip(poses, clears):
        if clear:
            pending = []
            occ_map.clear()
        pending.append(pose)
        if len(pending) == chunk:
            sense(occ_map, grid, pending, INTR, max_range)
            pending = []
    sense(occ_map, grid, pending, INTR, max_range)
    return occ_map


def assert_same_map(got, want, *where):
    for name in MAP_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), (name, *where)


@given(walks())
@settings(max_examples=200, deadline=None)
def test_footprint_fold_is_the_pixel_path(walk):
    # in-wall, off-grid and off-center poses at any heading, with clears
    # between them as an episodic map has; one pose at a time, then in
    # batches of every size, with clears inside a batch
    grid, walked, max_range = walk
    want = SemanticOccMap.for_grid(grid, "episodic")
    got = SemanticOccMap.for_grid(grid, "episodic")
    poses = [Pose(Point3(x * 0.25, y * 0.25, 1.25), heading) for x, y, heading, _ in walked]
    clears = [clear for *_, clear in walked]
    for pose, clear in zip(poses, clears):
        if clear:
            want.clear()
            got.clear()
        pixel_path(want, grid, pose, max_range)
        sense(got, grid, [pose], INTR, max_range)
        assert_same_map(got, want, pose)
    for chunk in range(2, len(poses) + 1):
        assert_same_map(fold_in_chunks(grid, poses, clears, chunk, max_range), want, chunk)


def seeded_poses(grid, count, seed, heights=(1.25,)):
    """``count`` poses on navigable cells, a quarter of them on cell edges,
    half at any heading and half on the compass, cycling through ``heights``."""
    rng = np.random.default_rng(seed)
    cells = np.argwhere(grid.navigable)
    poses = []
    for i in range(count):
        iy, ix = cells[rng.integers(len(cells))]
        offset = rng.choice([-0.5, 0.0, 0.5], size=2) if i % 4 == 0 else (0.0, 0.0)
        heading = rng.uniform(0, 2 * math.pi) if i % 2 else math.pi / 4 * rng.integers(8)
        poses.append(Pose(Point3((ix + offset[0]) * grid.resolution, (iy + offset[1]) * grid.resolution,
                                 heights[i % len(heights)]), heading))
    return poses


def test_batches_of_every_size_fold_as_one_pose_at_a_time(generated_grid):
    # enough poses for two walk-sized batches and a rest, with clears
    # inside the first and the second batch
    grid, chunk = generated_grid, harness.SENSE_CHUNK
    poses = seeded_poses(grid, 2 * chunk + 1, 21)
    clears = [i in (7, 13, chunk + 5) for i in range(len(poses))]
    for max_range in (10.0, 1.3):
        want = fold_in_chunks(grid, poses, clears, 1, max_range)
        assert want.occupancy.sum() > 10
        for size in (*range(2, 9), chunk - 1, chunk, chunk + 1, 2 * chunk):
            assert_same_map(fold_in_chunks(grid, poses, clears, size, max_range), want, size, max_range)


def test_one_batch_of_mixed_camera_heights_is_the_pixel_path(generated_grid):
    # a floor or ceiling row's depth, z and offsets hang on its pose's
    # height, so poses at three heights interleave in one batch
    grid = generated_grid
    poses = seeded_poses(grid, 12, 5, heights=(0.6, 1.25, 2.0))
    want = SemanticOccMap.for_grid(grid, "iterative")
    for pose in poses:
        pixel_path(want, grid, pose, 10.0)
    got = SemanticOccMap.for_grid(grid, "iterative")
    sense(got, grid, poses, INTR)
    assert want.observed.sum() > want.occupancy.sum() > 10
    assert_same_map(got, want)


def test_a_walk_sized_batch_stays_under_its_memory_bound(synth):
    # the first SENSE_CHUNK poses along synth's first tour, each facing
    # the next point, sensed with a fresh ray table as a walk's first fold.
    # Traced at 1.94 MB (numpy 2.4, x86-64), nearly all of it the short
    # march pass, so the 2.3 MB bound leaves 19% headroom
    grid, by_id = synth["scene"].grid, synth["by_id"]
    points = [p for eid in synth["tours"][0].episode_ids for p in by_id[eid].path]
    poses = [Pose(Point3(a.x, a.y, grid.floor_z + harness.CAMERA_HEIGHT), math.atan2(b.y - a.y, b.x - a.x))
             for a, b in zip(points, points[1:]) if a != b][:harness.SENSE_CHUNK]
    assert len(poses) == harness.SENSE_CHUNK
    occ_map, table = SemanticOccMap.for_grid(grid, "iterative"), RayTable(grid, INTR, harness.MAX_RANGE)
    tracemalloc.start()
    try:
        sense(occ_map, grid, poses, INTR, harness.MAX_RANGE, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ_map.occupancy.any()
    assert peak < 2.3e6, peak


def test_a_tie_between_poses_goes_to_the_earlier_pose():
    # facing +x from x = 0, every column meets the wall face x = 0.375 at
    # one depth, so all their top points tie in z.  From a, column 62
    # meets cell (2, 2) (label 5) just before its ray crosses into row 1,
    # so its points land in cell (2, 1) (label 6), and column 63 lands
    # there after it: a labels the cell 6.  From b, column 63 is the one
    # that crosses, the last column to land there: b labels it 5
    grid = grid_from_ascii(["....", "..6.", "..5.", "....", "...."])
    a = Pose(Point3(0.0, 0.375 + 30.5 / 32 * (0.375 + 0.5e-4), 1.25), 0.0)
    b = Pose(Point3(0.0, 0.375 + 31.5 / 32 * (0.375 + 0.5e-4), 1.25), 0.0)
    alone = {}
    for pose in (a, b):
        alone[pose] = SemanticOccMap.for_grid(grid, "iterative")
        sense(alone[pose], grid, [pose], INTR)
    assert alone[a].top_z[1, 2] == alone[b].top_z[1, 2]
    assert (alone[a].semantic[1, 2], alone[b].semantic[1, 2]) == (6, 5)
    for first, second in ((a, b), (b, a)):
        want = SemanticOccMap.for_grid(grid, "iterative")
        sense(want, grid, [first], INTR)
        sense(want, grid, [second], INTR)
        got = SemanticOccMap.for_grid(grid, "iterative")
        sense(got, grid, [first, second], INTR)
        assert got.semantic[1, 2] == alone[first].semantic[1, 2]
        assert_same_map(got, want, first)


def test_footprint_fold_is_the_pixel_path_on_a_generated_scene(generated_grid):
    grid = generated_grid
    rng = np.random.default_rng(5)
    cells = np.argwhere(grid.navigable)
    want = SemanticOccMap.for_grid(grid, "iterative")
    got = SemanticOccMap.for_grid(grid, "iterative")
    for _ in range(60):
        iy, ix = cells[rng.integers(len(cells))]
        pose = Pose(Point3(ix * grid.resolution, iy * grid.resolution, 1.25), rng.uniform(0, 2 * math.pi))
        pixel_path(want, grid, pose, 10.0)
        sense(got, grid, [pose], INTR, 10.0)
    assert want.occupancy.sum() > 50
    for name in MAP_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_footprint_breaks_a_tie_as_integrate_does():
    # facing +x, columns 62 and 63 meet the wall face x = 0.375 at one
    # distance, so their top points tie in z; column 62 meets cell (2, 2)
    # (label 5) just before its ray crosses into row 1, so its points land
    # in cell (2, 1) (label 6) with column 63's: the later pixel wins
    grid = grid_from_ascii(["....", "..6.", "..5.", "....", "...."])
    pose = Pose(Point3(0.0, 0.375 + 30.5 / 32 * (0.375 + 0.5e-4), 1.25), 0.0)
    points, labels = unproject(*synthesize_views(grid, pose, INTR))
    ix, iy = SemanticOccMap.for_grid(grid, "iterative").cell_index(points[:, 0], points[:, 1])
    z = np.where((ix == 2) & (iy == 1) & (points[:, 2] > BAND_MARGIN), points[:, 2], -np.inf)
    assert set(labels[z == z.max()]) == {5, 6}
    want = SemanticOccMap.for_grid(grid, "iterative")
    got = SemanticOccMap.for_grid(grid, "iterative")
    pixel_path(want, grid, pose, 10.0)
    sense(got, grid, [pose], INTR, 10.0)
    assert got.semantic[1, 2] == want.semantic[1, 2] == 6
    for name in MAP_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_footprint_refuses_a_floor_point_inside_the_band(monkeypatch):
    # a band that takes in the floor: the pixel path folds floor points as
    # occupied, which the footprint cannot express, so it raises before
    # it marks a cell, though floor pixels land on the grid
    monkeypatch.setattr(mapper, "BAND_MARGIN", -0.05)
    grid = grid_from_ascii(["#" + "." * 14 + "#"] * 3)
    pose = Pose(Point3(0.25, 0.25, 1.25), 0.0)
    pixel_path(SemanticOccMap.for_grid(grid, "iterative"), grid, pose, 10.0)
    occ_map = SemanticOccMap.for_grid(grid, "iterative")
    with pytest.raises(RuntimeError, match="inside the band"):
        sense(occ_map, grid, [pose], INTR, 10.0)
    assert_same_map(occ_map, SemanticOccMap.for_grid(grid, "iterative"))


def test_footprint_refuses_a_known_map():
    # the ground truth, and a known map with nothing observed, where a
    # floor cell marked before the refusal would show
    grid = grid_from_ascii(["#" + "." * 14 + "#"] * 3)
    for known in (known_map(grid), SemanticOccMap.for_grid(grid, "known")):
        before = {name: getattr(known, name).copy() for name in MAP_ARRAYS}
        with pytest.raises(ValueError, match="immutable"):
            sense(known, grid, [Pose(Point3(0.25, 0.25, 1.25), 0.0)], INTR)
        for name in MAP_ARRAYS:
            assert np.array_equal(getattr(known, name), before[name]), name


# -- ray march ----------------------------------------------------------------


def march_loop(grid, position, dirs, max_range):
    """The stepping form of the 2D grid traversal (Amanatides & Woo 1987),
    one pass over the active rays per boundary crossing; the loop that
    the closed-form march (``RayTable``) replaced, kept as the reference
    it must match bit for bit."""
    n = dirs.shape[0]
    res = grid.resolution
    ox = (position.x - grid.origin.x) / res
    oy = (position.y - grid.origin.y) / res
    cur_x = np.full(n, math.floor(ox + 0.5), dtype=int)
    cur_y = np.full(n, math.floor(oy + 0.5), dtype=int)
    vx, vy = dirs[:, 0], dirs[:, 1]
    step_x = np.where(vx > 0, 1, -1)
    step_y = np.where(vy > 0, 1, -1)
    with np.errstate(divide="ignore"):
        t_delta_x = np.where(vx != 0, res / np.abs(vx), np.inf)
        t_delta_y = np.where(vy != 0, res / np.abs(vy), np.inf)
        # distance to the first cell boundary on each axis; cell spans
        # [c - 0.5, c + 0.5] in cell units around its center
        bx = cur_x + np.where(vx > 0, 0.5, -0.5)
        by = cur_y + np.where(vy > 0, 0.5, -0.5)
        t_max_x = np.where(vx != 0, (bx - ox) * res / vx, np.inf)
        t_max_y = np.where(vy != 0, (by - oy) * res / vy, np.inf)

    s_wall = np.full(n, np.inf)
    label = np.zeros(n, dtype=np.uint8)
    active = np.ones(n, dtype=bool)
    max_iter = 4 * (grid.width + grid.height)
    for _ in range(max_iter):
        if not active.any():
            break
        take_x = active & (t_max_x <= t_max_y)
        take_y = active & ~take_x
        t_cross = np.where(take_x, t_max_x, t_max_y)
        over = active & (t_cross > max_range)
        active &= ~over
        take_x &= active
        take_y &= active
        cur_x[take_x] += step_x[take_x]
        t_max_x[take_x] += t_delta_x[take_x]
        cur_y[take_y] += step_y[take_y]
        t_max_y[take_y] += t_delta_y[take_y]
        moved = take_x | take_y
        if not moved.any():
            break
        inside = (cur_x >= 0) & (cur_x < grid.width) & (cur_y >= 0) & (cur_y < grid.height)
        escaped = moved & ~inside
        active &= ~escaped
        check = moved & inside
        if check.any():
            xs, ys = cur_x[check], cur_y[check]
            blocked = ~grid.navigable[ys, xs]
            idx = np.nonzero(check)[0][blocked]
            s_wall[idx] = t_cross[idx]
            label[idx] = grid.semantic[ys[blocked], xs[blocked]]
            active[idx] = False
    return s_wall, label


def camera_dirs(heading, intrinsics=INTR):
    h = heading
    fwd = np.array([math.cos(h), math.sin(h)])
    right = np.array([math.sin(h), -math.cos(h)])
    k = (np.arange(intrinsics.width) - intrinsics.cx) / intrinsics.fx
    return fwd[None, :] + k[:, None] * right[None, :]


# exact diagonals cross x and y boundaries at the same distance, the
# traversal's tie; axis rays run along a row or column of cells
GRAZING_DIRS = np.array([
    [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
    [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
    [1.0, 1.0 + 1e-15], [1.0 - 1e-16, 1.0], [1.0, 0.5], [0.5, -1.0],
])


def origins_of(position, dirs):
    """One origin row per ray, all at the position."""
    return np.broadcast_to([position.x, position.y], dirs.shape)


def loop(grid, position, dirs, max_range):
    with np.errstate(invalid="ignore"):  # 0/0 for an axis ray from a cell edge, as before
        return march_loop(grid, position, dirs, max_range)


def assert_same_march(got, want, *where):
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert np.array_equal(got[0], want[0]), where
    assert np.array_equal(got[1], want[1]), where


def assert_march_matches_loop(table, position, heading):
    """The table's march of the camera at ``position`` facing ``heading``,
    and the full pass of ``GRAZING_DIRS`` from there, each bitwise the
    loop's; returns the loop's distances and labels, camera rays first."""
    pose = Pose(position, heading)
    grid, max_range = table.grid, table.max_range
    want = loop(grid, position, camera_dirs(pose.heading), max_range)
    s_wall, label = table.march(_cameras([pose]))
    assert_same_march((s_wall[0], label[0]), want, position, heading, max_range)
    *got, found = table.march_rays(origins_of(position, GRAZING_DIRS), GRAZING_DIRS, table.full)
    grazing = loop(grid, position, GRAZING_DIRS, max_range)
    assert found.all()
    assert_same_march(got, grazing, position, max_range)
    return np.concatenate([want[0], grazing[0]]), np.concatenate([want[1], grazing[1]])


@pytest.fixture(scope="module")
def generated_grid():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=3))
    return scene.grid


def test_march_matches_the_loop_on_seeded_poses(generated_grid):
    grid = generated_grid
    table = RayTable(grid, INTR, 10.0)
    rng = np.random.default_rng(12)
    cells = np.argwhere(grid.navigable)
    hits = 0
    for i in range(240):
        iy, ix = cells[rng.integers(len(cells))]
        # cell centers, and points anywhere in the cell, its edges included
        offset = (0.0, 0.0) if i % 3 else rng.choice([-0.5, -0.25, 0.0, 0.3, 0.5], size=2)
        pos = Point3(grid.origin.x + (ix + offset[0]) * grid.resolution,
                     grid.origin.y + (iy + offset[1]) * grid.resolution, 1.25)
        heading = [rng.uniform(0, 2 * math.pi), math.radians(15 * rng.integers(24)),
                   math.pi / 2 * rng.integers(4)][i % 3]
        s_wall, _ = assert_march_matches_loop(table, pos, heading)
        hits += int(np.isfinite(s_wall).sum())
    assert hits > 0


def test_march_matches_the_loop_at_the_grid_edge():
    # navigable border cells: rays leave the grid instead of hitting walls
    grid = grid_from_ascii(["......", "..#...", "......", "...4..", "......"])
    table = RayTable(grid, INTR, 10.0)
    escaped = 0
    for ix, iy in [(0, 0), (5, 0), (0, 4), (5, 4), (2, 0), (0, 2), (5, 2)]:
        for dx, dy in [(0.0, 0.0), (-0.5, 0.0), (0.5, 0.5), (0.0, -0.5)]:
            pos = Point3((ix + dx) * 0.25, (iy + dy) * 0.25, 1.25)
            for heading in [0.0, math.pi / 4, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2]:
                s_wall, _ = assert_march_matches_loop(table, pos, heading)
                escaped += int(np.isinf(s_wall).sum())
    assert escaped > 0


def test_march_matches_the_loop_when_the_range_ends_on_a_crossing():
    grid = grid_from_ascii(["#......#", "#......#", "#..5...#", "#......#"])
    pos = Point3(1 * 0.25, 1 * 0.25, 1.25)
    s_wall, _ = assert_march_matches_loop(RayTable(grid, INTR, 10.0), pos, 0.3)
    # cut the range exactly at each wall distance: the wall is still seen
    # at that range and lost just below it
    for cut in np.unique(s_wall[np.isfinite(s_wall)]):
        at, _ = assert_march_matches_loop(RayTable(grid, INTR, float(cut)), pos, 0.3)
        assert np.isfinite(at).any()
        below, _ = assert_march_matches_loop(RayTable(grid, INTR, float(np.nextafter(cut, 0.0))), pos, 0.3)
        assert np.isinf(below[s_wall == cut]).all()
    # and exactly on boundary crossings that are not walls
    for cut in (0.125, 0.375, 0.625, 0.25 * math.sqrt(2)):
        assert_march_matches_loop(RayTable(grid, INTR, cut), pos, 0.3)


# a corridor 80 cells (20 m) long: down it a ray meets the near end wall
# beyond the short pass's crossings, or runs out of range before the far
# one; across it, rays meet the side walls at once
CORRIDOR = grid_from_ascii(["#" * 80, "#" + "." * 78 + "#", "#" * 80])


def test_short_then_full_march_is_the_full_pass_and_the_loop():
    pos = Point3(30 * 0.25, 0.25, 1.25)
    table = RayTable(CORRIDOR, INTR, 10.0)
    for heading in (0.0, math.pi, 0.01, math.pi - 0.02, math.pi / 2, 2.5):
        dirs = np.concatenate([camera_dirs(heading), GRAZING_DIRS])
        *_, short_found = table.march_rays(origins_of(pos, dirs), dirs, _SHORT_CROSSINGS)
        *full, full_found = table.march_rays(origins_of(pos, dirs), dirs, table.full)
        assert full_found.all()
        assert_same_march(full, assert_march_matches_loop(table, pos, heading))
        if heading in (0.0, math.pi):
            assert not short_found.all()  # some rays need the full pass
    # down the corridor toward +x the far wall lies beyond max_range
    s_wall, _ = loop(CORRIDOR, pos, np.array([[1.0, 0.0], [-1.0, 0.0]]), 10.0)
    assert np.isinf(s_wall[0]) and s_wall[1] == pytest.approx(29.5 * 0.25)


def test_one_march_of_many_origins_is_each_origin_alone(generated_grid):
    # cell centers and edges, a long corridor and an edge-of-grid room,
    # each camera and each ray bundle from its own origin, all marched
    # together, through one table and through a table each
    rng = np.random.default_rng(31)
    for grid in (generated_grid, CORRIDOR, grid_from_ascii(["......", "..#...", "......", "...4.."])):
        table = RayTable(grid, INTR, 10.0)
        cells = np.argwhere(grid.navigable)
        poses, origins = [], []
        for i in range(12):
            iy, ix = cells[rng.integers(len(cells))]
            offset = rng.choice([-0.5, 0.0, 0.3, 0.5], size=2) if i % 3 == 0 else (0.0, 0.0)
            pos = Point3(grid.origin.x + (ix + offset[0]) * grid.resolution,
                         grid.origin.y + (iy + offset[1]) * grid.resolution, 1.25)
            poses.append(Pose(pos, rng.uniform(0, 2 * math.pi)))
            origins.append(origins_of(pos, GRAZING_DIRS))
            assert_march_matches_loop(table, pos, poses[-1].heading)
        together = table.march(_cameras(poses))
        for alone in ([table.march(_cameras([p])) for p in poses],
                      [RayTable(grid, INTR, 10.0).march(_cameras([p])) for p in poses]):
            assert_same_march(together, [np.concatenate(a) for a in zip(*alone)])
        dirs = np.concatenate([GRAZING_DIRS] * len(origins))
        for crossings in (_SHORT_CROSSINGS, table.full):
            s_wall, label, found = table.march_rays(np.concatenate(origins), dirs, crossings)
            each = [table.march_rays(o, GRAZING_DIRS, crossings) for o in origins]
            assert np.array_equal(found, np.concatenate([f for *_, f in each]))
            assert np.array_equal(s_wall[found], np.concatenate([s[f] for s, _, f in each]))
            assert np.array_equal(label[found], np.concatenate([lab[f] for _, lab, f in each]))
        assert found.all()


def test_march_raises_when_the_full_pass_runs_out_of_crossings():
    table = RayTable(CORRIDOR, INTR, 10.0)
    cam = _cameras([Pose(Point3(30 * 0.25, 0.25, 1.25), math.pi)])
    table.march(cam)
    table.full = _SHORT_CROSSINGS  # down the corridor, rays need more
    with pytest.raises(RuntimeError, match="ran out of boundary crossings"):
        table.march(cam)


def drifted(start, turns):
    """The heading after a walk's 15-degree turns, left (1) or right (-1),
    summed one at a time as the walk sums them."""
    for turn in turns:
        start += turn * math.radians(15)
    return start


@st.composite
def table_marches(draw):
    # rooms, and long open rows where rays need the full pass; the border
    # cells may be navigable, so rays leave the grid
    width, height = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    alphabet = draw(st.sampled_from([".....#4567", "...........#", "."]))
    cells = draw(st.text(alphabet, min_size=width * height, max_size=width * height))
    grid = grid_from_ascii([cells[i * width:(i + 1) * width] for i in range(height)])
    heading = st.one_of(st.floats(-7.0, 7.0), st.integers(-8, 8).map(lambda k: k * math.pi / 4),
                        st.builds(drifted, st.floats(0.0, 2 * math.pi) | st.just(0.0),
                                  st.lists(st.sampled_from([-1, 1]), max_size=60)))
    poses = draw(st.lists(st.tuples(cell_units(width), cell_units(height), heading), min_size=1, max_size=8))
    # 1.3 m and 0.6 m need fewer crossings than the short pass has
    return grid, poses, draw(st.sampled_from([10.0, 1.3, 0.6]))


@given(table_marches())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_table_march_is_the_loop(march):
    # all poses in one march, then each alone through the filled table
    grid, walked, max_range = march
    table = RayTable(grid, INTR, max_range)
    poses = [Pose(Point3(x * 0.25, y * 0.25, 1.25), heading) for x, y, heading in walked]
    want = [loop(grid, pose.position, camera_dirs(pose.heading), max_range) for pose in poses]
    assert_same_march(table.march(_cameras(poses)), [np.stack(w) for w in zip(*want)], walked)
    for pose, w in zip(poses, want):
        s_wall, label = table.march(_cameras([pose]))
        assert_same_march((s_wall[0], label[0]), w, pose)


def test_sense_refuses_a_table_of_another_grid_camera_or_range():
    grid = grid_from_ascii(["#..#"])
    pose = Pose(Point3(0.25, 0.0, 1.25), 0.0)
    for table in (RayTable(grid_from_ascii(["#..#"]), INTR, 10.0), RayTable(grid, center_intrinsics(), 10.0),
                  RayTable(grid, INTR, 5.0)):
        with pytest.raises(ValueError, match="another grid, camera or range"):
            sense(SemanticOccMap.for_grid(grid, "iterative"), grid, [pose], INTR, 10.0, table)


# -- wall tops ----------------------------------------------------------------


def wall_tops_all_rows(cam, intrinsics, u, dv, wall, lo, hi):
    """Every row of each wall column lifted, then its top in-band z and the
    last row at that z taken: how ``sense`` found them before
    ``_wall_tops``, kept as its reference.  A column without an in-band
    wall row gives -inf, at row H - 1."""
    H = intrinsics.height
    wx, wy, wz = _lift(cam, intrinsics, u, np.arange(H)[:, None], dv)
    z = np.where(wall.T & (wz > lo) & (wz < hi), wz, -np.inf)
    top = z.max(axis=0, initial=-np.inf)
    return wx, wy, top, H - 1 - (z[::-1] == top).argmax(axis=0)


def assert_wall_tops_match(cam, u, dv, wall, lo, hi):
    """``_wall_tops`` bitwise the all-rows lift; the row of a column
    without an in-band wall row orders only out-of-band points, so it is
    free.  Returns the reference."""
    got = _wall_tops(cam, INTR, u, dv, wall, lo, hi)
    want = wall_tops_all_rows(cam, INTR, u, dv, wall, lo, hi)
    for name, a, b in zip(("x", "y", "top"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    seen = np.isfinite(want[2])
    assert np.array_equal(got[3][seen], want[3][seen])
    return want


@st.composite
def wall_columns(draw):
    # heights near 0, and so far up that z rounds alike across rows
    base = draw(st.sampled_from([0.0, 1e3, 2.0 ** 45, 2.0 ** 60]))
    n = draw(st.integers(1, 12))
    heading = draw(st.floats(0.0, 2 * math.pi))
    pz = base + draw(st.floats(-3.0, 3.0))
    cam = np.array([[1.0, -2.0, pz, math.cos(heading), math.sin(heading)]] * n).T
    u = np.array(draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)))
    depth = st.one_of(st.floats(0.0, 12.0), st.floats(0.0, 1e-3))
    dv = np.array(draw(st.lists(depth, min_size=n, max_size=n))) + 1e-4
    wall = np.zeros((n, INTR.height), dtype=bool)
    for i in range(n):  # one run of wall rows, as z_at_wall's bounds give
        first, last = sorted(draw(st.lists(st.integers(0, INTR.height - 1), min_size=2, max_size=2)))
        wall[i, first:last + 1] = True
    # the band's bounds anywhere, or near the z of some row of the first
    # column, where z's rounding may move the row that crosses them
    near = st.builds(lambda row, frac: pz - (row + frac - INTR.cy) * dv[0] / INTR.fy,
                     st.integers(-2, INTR.height + 1), st.floats(-1.0, 1.0))
    lo, hi = sorted(draw(st.lists(near | st.floats(-5.0, 5.0).map(lambda h: base + h), min_size=2, max_size=2)))
    return cam, u, dv, wall, lo, hi


@given(wall_columns())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_one_row_wall_top_is_the_all_rows_lift(columns):
    assert_wall_tops_match(*columns)


def test_one_row_wall_top_steps_on_over_tied_rows():
    # 2**60 m up, z rounds to 2**60 in every row of a 1 m deep column: all
    # rows of its wall run tie, and the top goes to the run's last row
    H = INTR.height
    cam = np.array([[0.0, 0.0, 2.0 ** 60, 1.0, 0.0]] * 2).T
    wall = np.zeros((2, H), dtype=bool)
    wall[0, 3:40] = True
    wall[1] = True
    *_, top, row = assert_wall_tops_match(cam, np.array([5, 60]), np.array([1.0, 1.0]), wall,
                                          2.0 ** 60 - 4096, 2.0 ** 60 + 4096)
    assert list(top) == [2.0 ** 60] * 2 and list(row) == [39, H - 1]
