import base64
import json
import math

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
    DepthFrame,
    SemanticFrame,
    SemanticOccMap,
    crop_egocentric,
    crop_from_compact,
    crop_from_flat,
    crop_layers,
    crop_to_compact,
    crop_to_flat,
    integrate,
    known_map,
    load_map,
    map_from_dict,
    map_to_dict,
    save_map,
    synthesize_views,
    unproject,
)

from ivln.mapper import _march_columns
from ivln.syngen import FloorplanSpec, generate_scene

from conftest import grid_from_ascii


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


def test_crop_flat_round_trip_through_json():
    m = fresh_map(size=5)
    rng = np.random.default_rng(2)
    m.semantic = rng.integers(0, 14, size=(5, 5)).astype(np.uint8)
    m.occupancy = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
    crop = crop_egocentric(m, Pose(Point3(0.5, 0.5, 0), 1.1), size=16)
    flat = crop_to_flat(crop)
    wired = json.loads(json.dumps(flat))
    back = crop_from_flat(wired, size=16)
    assert np.array_equal(back, crop)


@pytest.mark.parametrize("seed", range(4))
def test_crop_to_flat_matches_the_element_loop(seed):
    rng = np.random.default_rng(seed)
    crops = [
        rng.integers(0, 2, size=(CROP_CHANNELS, 8, 8)).astype(np.float32),
        rng.standard_normal((CROP_CHANNELS, 8, 8)).astype(np.float32),
        np.full((CROP_CHANNELS, 4, 4), 0.1, dtype=np.float32),
        rng.uniform(-1e3, 1e3, size=(CROP_CHANNELS, 8, 8)),  # float64 in, float32 out
        np.array([0.1, 1 / 3, -0.0, 1e-40, 2.5e38, 7.0] * CROP_CHANNELS, dtype=np.float32),
    ]
    for crop in crops:
        want = [float(v) for v in np.asarray(crop, dtype=np.float32).ravel(order="C")]
        got = crop_to_flat(crop)
        assert all(type(v) is float for v in got)
        assert json.dumps(got) == json.dumps(want)


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


# -- ray march ----------------------------------------------------------------


def march_loop(grid, position, dirs, max_range):
    """The stepping form of the 2D grid traversal (Amanatides & Woo 1987),
    one pass over the active rays per boundary crossing; the loop that
    ``_march_columns`` replaced, kept as the reference it must match bit
    for bit."""
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


def assert_march_matches_loop(grid, position, dirs, max_range):
    with np.errstate(invalid="ignore"):  # 0/0 for an axis ray from a cell edge, as before
        want = march_loop(grid, position, dirs, max_range)
    got = _march_columns(grid, position, dirs, max_range)
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert np.array_equal(got[0], want[0]), (position, max_range)
    assert np.array_equal(got[1], want[1]), (position, max_range)
    return want


@pytest.fixture(scope="module")
def generated_grid():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=3))
    return scene.grid


def test_march_matches_the_loop_on_seeded_poses(generated_grid):
    grid = generated_grid
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
        dirs = np.concatenate([camera_dirs(heading), GRAZING_DIRS])
        s_wall, _ = assert_march_matches_loop(grid, pos, dirs, 10.0)
        hits += int(np.isfinite(s_wall).sum())
    assert hits > 0


def test_march_matches_the_loop_at_the_grid_edge():
    # navigable border cells: rays leave the grid instead of hitting walls
    grid = grid_from_ascii(["......", "..#...", "......", "...4..", "......"])
    escaped = 0
    for ix, iy in [(0, 0), (5, 0), (0, 4), (5, 4), (2, 0), (0, 2), (5, 2)]:
        for dx, dy in [(0.0, 0.0), (-0.5, 0.0), (0.5, 0.5), (0.0, -0.5)]:
            pos = Point3((ix + dx) * 0.25, (iy + dy) * 0.25, 1.25)
            for heading in [0.0, math.pi / 4, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2]:
                dirs = np.concatenate([camera_dirs(heading), GRAZING_DIRS])
                s_wall, _ = assert_march_matches_loop(grid, pos, dirs, 10.0)
                escaped += int(np.isinf(s_wall).sum())
    assert escaped > 0


def test_march_matches_the_loop_when_the_range_ends_on_a_crossing():
    grid = grid_from_ascii(["#......#", "#......#", "#..5...#", "#......#"])
    pos = Point3(1 * 0.25, 1 * 0.25, 1.25)
    dirs = np.concatenate([camera_dirs(0.3), GRAZING_DIRS])
    s_wall, _ = assert_march_matches_loop(grid, pos, dirs, 10.0)
    # cut the range exactly at each wall distance: the wall is still seen
    # at that range and lost just below it
    for cut in np.unique(s_wall[np.isfinite(s_wall)]):
        at, _ = assert_march_matches_loop(grid, pos, dirs, float(cut))
        assert np.isfinite(at).any()
        below, _ = assert_march_matches_loop(grid, pos, dirs, float(np.nextafter(cut, 0.0)))
        assert np.isinf(below[s_wall == cut]).all()
    # and exactly on boundary crossings that are not walls
    for cut in (0.125, 0.375, 0.625, 0.25 * math.sqrt(2)):
        assert_march_matches_loop(grid, pos, dirs, cut)
