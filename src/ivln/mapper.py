"""Semantic occupancy mapping from synthetic views of grid scenes.

A view's surfaces are lifted through the inverse pinhole model into
world points, filtered to the vertical band between floor and ceiling
(with a margin that drops the floor and ceiling surfaces themselves),
and accumulated into a top-down grid.  A cell keeps the label of the
highest point so far observed inside it, so tall structure wins over
clutter.

Camera frame: x right, y down, z forward (optical axis).  World frame:
z up, heading measured counterclockwise from +x; see the environment
module for grid indexing conventions.

Every map is sensed as footprints (``sense``): per pose, one point per
wall column, at its top in-band z, folded in by ``integrate``, and the
cells the floor and ceiling pixels mark observed.  The tests keep the
pixel path, which renders a depth and a semantic frame per pose and
lifts every pixel, in ``tests/conftest.py`` as the reference the
footprint matches bit for bit.

Map lifetimes differ by mode: "episodic" maps clear at every episode
start, "iterative" maps persist through a tour, "known" maps are built
from the ground-truth grid and never change.  The rollout's walk
(``harness._Walk``), which live rollouts and ``build-map`` replay share,
is the one owner of that rule: it makes each tour a fresh map and clears
it where the mode says.
"""

from __future__ import annotations

import base64
import functools
import math
from dataclasses import dataclass

import numpy as np

from .environment import (
    FORMAT_VERSION,
    INT,
    NUMBER,
    POINT,
    TEXT,
    GridWorld,
    Point3,
    Pose,
    as_point,
    decode_bitmask,
    decode_bytes,
    decode_items,
    encode_bitmask,
    encode_bytes,
    read_fields,
    read_json,
    write_json,
)
from .errors import DimensionMismatch

LABEL_COUNT = 13  # semantic labels 1..13; 0 means no label observed
CROP_CHANNELS = LABEL_COUNT + 1  # one-hot labels plus an occupancy channel
BAND_MARGIN = 0.1

MAP_MODES = ("episodic", "iterative", "known")


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    @classmethod
    def from_hfov(cls, width: int, height: int, hfov_deg: float) -> "CameraIntrinsics":
        fx = (width / 2.0) / math.tan(math.radians(hfov_deg) / 2.0)
        return cls(fx=fx, fy=fx, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                   width=width, height=height)


def _cameras(poses) -> np.ndarray:
    """One row per pose: its position x, y and z, and the cosine and the
    sine of its heading."""
    cam = [(*p.position, math.cos(p.heading), math.sin(p.heading)) for p in poses]
    return np.array(cam, dtype=np.float64).reshape(-1, 5)


def _lift(cam, intr: CameraIntrinsics, u, v, dv) -> tuple:
    """World (x, y, z) of pixel column u, row v at forward depth dv, by the
    inverse pinhole model; ``cam`` unpacks to a ``_cameras`` row's five
    values.  The arrays broadcast, and every element takes the same
    operations in the same order whatever the shapes."""
    px, py, pz, cos_h, sin_h = cam
    x_cam = (u - intr.cx) * dv / intr.fx
    y_cam = (v - intr.cy) * dv / intr.fy
    return px + dv * cos_h + x_cam * sin_h, py + dv * sin_h + x_cam * -cos_h, pz - y_cam


@dataclass
class SemanticOccMap:
    """Top-down occupancy and semantics accumulated from observations."""

    resolution: float
    origin: Point3
    width: int
    height: int
    mode: str
    occupancy: np.ndarray = None
    semantic: np.ndarray = None
    observed: np.ndarray = None
    top_z: np.ndarray = None

    def __post_init__(self):
        if self.mode not in MAP_MODES:
            raise ValueError(f"unknown map mode {self.mode!r}")
        self.origin = as_point(self.origin)
        shape = (self.height, self.width)
        if self.occupancy is None:
            self.occupancy = np.zeros(shape, dtype=np.uint8)
        if self.semantic is None:
            self.semantic = np.zeros(shape, dtype=np.uint8)
        if self.observed is None:
            self.observed = np.zeros(shape, dtype=bool)
        if self.top_z is None:
            self.top_z = np.full(shape, -np.inf, dtype=np.float64)
        for name in ("occupancy", "semantic", "observed", "top_z"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionMismatch(f"{name} shape {arr.shape} != {shape}")

    @classmethod
    def for_grid(cls, grid: GridWorld, mode: str) -> "SemanticOccMap":
        return cls(
            resolution=grid.resolution,
            origin=grid.origin,
            width=grid.width,
            height=grid.height,
            mode=mode,
        )

    def clear(self) -> None:
        self.occupancy[:] = 0
        self.semantic[:] = 0
        self.observed[:] = False
        self.top_z[:] = -np.inf

    def cell_index(self, x, y):
        ix = np.floor((x - self.origin.x) / self.resolution + 0.5).astype(int)
        iy = np.floor((y - self.origin.y) / self.resolution + 0.5).astype(int)
        return ix, iy


def integrate(
    occ_map: SemanticOccMap,
    points: np.ndarray,
    labels: np.ndarray,
    floor_z: float,
    ceiling_z: float,
) -> None:
    """Fold a labeled point cloud into the map.

    Points outside the open band (floor_z + BAND_MARGIN, ceiling_z - BAND_MARGIN)
    mark cells as observed but contribute no occupancy or label, which
    drops the floor and ceiling surfaces.  In-band points occupy their
    cell; the label of a cell follows the highest in-band point seen so
    far, with strictly-higher wins so re-integrating the same cloud is a
    no-op.  Known maps are immutable; integrating into one is an error.
    """
    if occ_map.mode == "known":
        raise ValueError("known maps are immutable")
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.uint8)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DimensionMismatch(f"points must be (N, 3), got {points.shape}")
    if labels.shape[0] != points.shape[0]:
        raise DimensionMismatch("labels length differs from points")
    ix, iy = occ_map.cell_index(points[:, 0], points[:, 1])
    inside = (ix >= 0) & (ix < occ_map.width) & (iy >= 0) & (iy < occ_map.height)
    ix, iy, z, lab = ix[inside], iy[inside], points[inside, 2], labels[inside]
    occ_map.observed[iy, ix] = True

    band = (z > floor_z + BAND_MARGIN) & (z < ceiling_z - BAND_MARGIN)
    ix, iy, z, lab = ix[band], iy[band], z[band], lab[band]
    occ_map.occupancy[iy, ix] = 1

    # ascending z, stable: the last write per cell is its highest point
    order = np.argsort(z, kind="stable")
    cells = (iy * occ_map.width + ix)[order]
    top = np.full(occ_map.top_z.shape, -np.inf)
    top.ravel()[cells] = z[order]
    winner = np.zeros(occ_map.semantic.shape, dtype=np.uint8)
    winner.ravel()[cells] = lab[order]
    newer = top > occ_map.top_z
    occ_map.top_z[newer] = top[newer]
    occ_map.semantic[newer] = winner[newer]


def known_map(grid: GridWorld) -> SemanticOccMap:
    """Ground-truth map of a grid scene; mode "known", never reset."""
    m = SemanticOccMap.for_grid(grid, "known")
    m.occupancy = (~grid.navigable).astype(np.uint8)
    m.semantic = grid.semantic.copy()
    m.observed = np.ones_like(grid.navigable, dtype=bool)
    m.top_z = np.where(grid.navigable, grid.floor_z, grid.ceiling_z).astype(np.float64)
    return m


@functools.cache
def _crop_offsets(size: int, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only metres ahead of and to the right of the agent at each crop cell."""
    rows, cols = np.mgrid[0:size, 0:size]
    offsets = (size // 2 - rows) * resolution, (cols - size // 2) * resolution
    for array in offsets:
        array.flags.writeable = False
    return offsets


def crop_layers(occ_map: SemanticOccMap, pose: Pose, size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Egocentric label and occupancy grids, heading up, agent at the center.

    Returns (labels, occupied) of shape (size, size): uint8 labels
    1..13, 0 for none (a label outside 1..13 reads as none), and a bool
    occupancy.  Row 0 is farthest ahead of the agent; sampling is
    nearest-cell; cells outside the map are 0 and unoccupied.
    """
    ahead, lateral = _crop_offsets(size, occ_map.resolution)
    h = pose.heading
    fwd = (math.cos(h), math.sin(h))
    right = (math.sin(h), -math.cos(h))
    wx = pose.position.x + ahead * fwd[0] + lateral * right[0]
    wy = pose.position.y + ahead * fwd[1] + lateral * right[1]
    ix, iy = occ_map.cell_index(wx, wy)
    valid = (ix >= 0) & (ix < occ_map.width) & (iy >= 0) & (iy < occ_map.height)
    ix_c = np.clip(ix, 0, occ_map.width - 1)
    iy_c = np.clip(iy, 0, occ_map.height - 1)
    labels = np.where(valid, occ_map.semantic[iy_c, ix_c], 0).astype(np.uint8)
    labels[labels > LABEL_COUNT] = 0
    occupied = valid & (occ_map.occupancy[iy_c, ix_c] != 0)
    return labels, occupied


_LABEL_VALUES = np.arange(1, LABEL_COUNT + 1, dtype=np.uint8)[:, None, None]


def one_hot(labels: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """The float32 crop of ``crop_layers``' grids: channels 0..12 are the
    one-hot of labels 1..13, channel 13 is occupancy."""
    out = np.empty((CROP_CHANNELS, *labels.shape), dtype=np.float32)
    out[:LABEL_COUNT] = labels == _LABEL_VALUES
    out[LABEL_COUNT] = occupied
    return out


def crop_egocentric(occ_map: SemanticOccMap, pose: Pose, size: int = 64) -> np.ndarray:
    """Egocentric map crop: the ``one_hot`` of ``crop_layers``, float32 of
    shape (14, size, size)."""
    return one_hot(*crop_layers(occ_map, pose, size))


def crop_to_compact(labels: np.ndarray, occupied: np.ndarray) -> dict:
    """The compact wire form of ``crop_layers``' grids: row-major label
    bytes and an MSB-first occupancy bitmask, each base64 text."""
    return {"size": labels.shape[0], "labels": encode_bytes(labels), "occupied": encode_bitmask(occupied)}


def crop_from_compact(payload: dict) -> np.ndarray:
    """Inverse of ``crop_to_compact``: the exact float32 crop of
    ``crop_egocentric``; raises ValueError when a payload does not fit
    its size."""
    size = payload["size"]
    if type(size) is not int or size < 1:
        raise ValueError(f"crop size must be a positive integer, got {size!r}")
    shape = (size, size)
    return one_hot(decode_bytes(payload["labels"], shape), decode_bitmask(payload["occupied"], shape))


# ---------------------------------------------------------------------------
# snapshots


def map_to_dict(occ_map: SemanticOccMap) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "resolution": occ_map.resolution,
        "origin": list(occ_map.origin),
        "width": occ_map.width,
        "height": occ_map.height,
        "mode": occ_map.mode,
        "occupancy": encode_bitmask(occ_map.occupancy.astype(bool)),
        "semantic": encode_bytes(occ_map.semantic),
        "observed": encode_bitmask(occ_map.observed),
        "top_z": encode_bytes_f32(occ_map.top_z),
    }


def encode_bytes_f32(values: np.ndarray) -> str:
    return base64.b64encode(values.astype(np.float32).tobytes()).decode("ascii")


def decode_bytes_f32(data: str, shape) -> np.ndarray:
    """Inverse of ``encode_bytes_f32``; raises ValueError unless the
    payload holds exactly one float32 per cell."""
    return decode_items(data, np.float32, shape[0] * shape[1]).reshape(shape).astype(np.float64)


_MAP_FIELDS = {"height": INT, "width": INT, "resolution": NUMBER, "origin": POINT, "mode": TEXT,
               "occupancy": TEXT, "semantic": TEXT, "observed": TEXT, "top_z": TEXT}


def map_from_dict(payload: dict, where: str = "map") -> SemanticOccMap:
    """Inverse of ``map_to_dict``; each ValueError it raises starts with ``where``."""
    height, width, resolution, origin, mode, occupancy, semantic, observed, top_z = read_fields(
        payload, _MAP_FIELDS, where)
    shape = (height, width)
    try:
        return SemanticOccMap(resolution, origin, width, height, mode,
                              occupancy=decode_bitmask(occupancy, shape).astype(np.uint8),
                              semantic=decode_bytes(semantic, shape), observed=decode_bitmask(observed, shape),
                              top_z=decode_bytes_f32(top_z, shape))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def save_map(occ_map: SemanticOccMap, path) -> None:
    write_json(path, map_to_dict(occ_map))


def load_map(path) -> SemanticOccMap:
    return map_from_dict(read_json(path), str(path))


# ---------------------------------------------------------------------------
# sensing

# A view of a grid scene casts one ray per image column through the 2D
# occupancy, then resolves each row against the wall span, the floor
# plane, or the ceiling plane.  Walls fill the full floor-to-ceiling
# height.

# small forward push that lands wall points inside the wall cell instead
# of exactly on the shared cell boundary
_WALL_PUSH = 1e-4


def _columns(grid: GridWorld, cam: np.ndarray, intrinsics: CameraIntrinsics, max_range: float) -> tuple:
    """March one ray per image column of each ``_cameras`` row, all in one
    ``_march_columns`` call, and resolve each pixel's surface.

    Returns (s_wall, wall_label, wall_hit, s_plane, plane_hit), each with
    a leading axis over the cameras: per column its wall distance and
    label; per pixel whether it sees a wall; per row the distance to the
    floor or ceiling plane; per pixel whether it sees that plane.
    """
    W, H = intrinsics.width, intrinsics.height
    k = (np.arange(W) - intrinsics.cx) / intrinsics.fx
    right = cam[:, None, 4:2:-1] * (1.0, -1.0)  # (sin, -cos)
    dirs = cam[:, None, 3:] + k[:, None] * right  # (P, W, 2); forward component 1
    s_wall, wall_label = (a.reshape(len(cam), W) for a in _march_columns(
        grid, np.repeat(cam[:, :2], W, axis=0), dirs.reshape(-1, 2), max_range))

    slope = -(np.arange(H) - intrinsics.cy) / intrinsics.fy  # dz per unit forward distance
    z0 = cam[:, 2, None, None]
    sw = s_wall[:, None, :]
    sl = slope[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z_at_wall = z0 + sl * sw  # no finite z for a column without a wall
        # the floor below the horizon, the ceiling above, neither on it
        s_plane = np.where(sl < 0, grid.floor_z - z0, grid.ceiling_z - z0) / sl  # (P, H, 1)
    wall_hit = (z_at_wall >= grid.floor_z) & (z_at_wall <= grid.ceiling_z)
    plane_hit = ~wall_hit & np.isfinite(s_plane) & (s_plane <= max_range)
    return s_wall, wall_label, wall_hit, s_plane, plane_hit


def sense(occ_map: SemanticOccMap, grid: GridWorld, poses, intrinsics: CameraIntrinsics,
          max_range: float = 10.0) -> None:
    """Fold the views of a grid scene from a sequence of poses into the map.

    Leaves the map exactly as the pixel path in ``tests/conftest.py``
    does, which renders each pose's depth and semantic frames and folds
    in every pixel's point with ``integrate``, pose by pose (with the
    grid's floor and ceiling); but folds the views' footprints, all in one
    batch, instead of their pixels.  All wall
    pixels of a column share one depth, so they land in one cell: the
    column gives one point, at its highest in-band z (or -inf for none),
    with its label.  Floor and ceiling pixels lie outside the band and
    only mark their cells observed.  Raises RuntimeError, before folding
    any pose, if one of them lies inside the band, which the footprint
    does not fold.

    Folded in turn, a cell takes the label of the earliest pose to reach
    its top z, that pose's last point there in pixel order (row, column);
    one ``integrate``, whose last point at a top wins, takes them latest pose first.
    """
    cam = _cameras(poses)
    H = intrinsics.height
    s_wall, wall_label, wall_hit, s_plane, plane_hit = _columns(grid, cam, intrinsics, max_range)
    lo, hi = grid.floor_z + BAND_MARGIN, grid.ceiling_z - BAND_MARGIN
    # the push outweighs any rounding below 0, so every wall pixel has a
    # positive depth and the tests' pixel path lifts it
    pose, cols = np.nonzero(wall_hit.any(axis=1))
    wx, wy, wz = _lift(cam.T[:, pose], intrinsics, cols, np.arange(H)[:, None], s_wall[pose, cols] + _WALL_PUSH)
    z = np.where(wall_hit[pose, :, cols].T & (wz > lo) & (wz < hi), wz, -np.inf)
    top = z.max(axis=0, initial=-np.inf)
    # integrate sorts in-band points by z, stably in pixel order (v, u), so
    # a tie goes to the last pixel: the column's last row at its top z
    row = H - 1 - (z[::-1] == top).argmax(axis=0)
    order = np.lexsort((cols, row, -pose))
    # floor and ceiling pixels, one point each as the tests' pixel path
    # lifts them
    p_idx, v_idx, u_idx = np.nonzero(plane_hit & (s_plane > 0))
    px, py, pz = _lift(cam.T[:, p_idx], intrinsics, u_idx, v_idx, s_plane[p_idx, v_idx, 0])
    if ((pz > lo) & (pz < hi)).any():
        raise RuntimeError("a floor or ceiling point lies inside the band")
    # outside the band, the floor and ceiling points only mark their cells observed
    points = np.stack([np.concatenate([wx[order], px]), np.concatenate([wy[order], py]),
                       np.concatenate([top[order], pz])], axis=1)
    labels = np.zeros(len(points), dtype=np.uint8)
    labels[:len(order)] = wall_label[pose, cols][order]
    integrate(occ_map, points, labels, grid.floor_z, grid.ceiling_z)


# crossings per axis of the first march; at about 60% of the poses of a
# noisy tour through a 9-room scene, every ray stops within them
_SHORT_CROSSINGS = 24


def _march_columns(grid: GridWorld, origins: np.ndarray, dirs: np.ndarray,
                   max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """2D grid traversal (Amanatides & Woo 1987) for a bundle of rays, ray i
    from world (x, y) ``origins[i]``.

    Returns per-ray forward distance to the first non-navigable cell
    (inf for none within max_range) and that cell's label; the origin
    cell is never tested.  Rays are first marched over a few crossings
    per axis; those whose stop lies beyond them are marched again over
    all the crossings max_range can need.
    """
    k = int(max_range * np.abs(dirs).max(initial=0.0) / grid.resolution) + 3  # edge rays are long
    s_wall, label, found = _march(grid, origins, dirs, max_range, min(k, _SHORT_CROSSINGS))
    if k > _SHORT_CROSSINGS and not found.all():
        redo = ~found
        s_wall[redo], label[redo], found[redo] = _march(grid, origins[redo], dirs[redo], max_range, k)
    if not found.all():
        raise RuntimeError("ray march ran out of boundary crossings")
    return s_wall, label


def _march(grid: GridWorld, origins: np.ndarray, dirs: np.ndarray, max_range: float,
           k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_march_columns`` over the first k boundary crossings per axis.

    Returns the distances and labels, and which rays found their stop
    with every crossing up to it on hand; the others' results are void.
    The traversal is built in closed form: each axis's crossings are
    running sums of the first crossing and the cell pitch (the additions
    a stepping loop makes, in its order), a stable sort merges the two
    axes with x first on ties, and running sums of the steps give the
    cells crossed into.
    """
    res = grid.resolution
    o = (origins - (grid.origin.x, grid.origin.y)) / res
    c = np.floor(o + 0.5)  # the origin cells; a cell spans [c - 0.5, c + 0.5] in cell units
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(dirs != 0, (c + np.where(dirs > 0, 0.5, -0.5) - o) * res / dirs, np.inf)
        seq = np.repeat(np.where(dirs != 0, res / np.abs(dirs), np.inf)[:, :, None], k, axis=2)
    seq[:, :, 0] = first
    t_both = np.add.accumulate(seq, axis=2).reshape(len(dirs), 2 * k)  # x crossings, then y
    step = np.where(dirs > 0, 1, -1)
    order = np.argsort(t_both, axis=1, kind="stable")
    # x crossings up to each merged one; the merge keeps each axis in order
    nx = np.where(order < k, order + 1, np.arange(k, 3 * k) - order)
    cx = c[:, :1].astype(int) + step[:, :1] * nx
    cy = c[:, 1:].astype(int) + step[:, 1:] * (np.arange(1, 2 * k + 1) - nx)
    # as unsigned, a cell left of or below the grid lies beyond it
    inside = (cx.view(np.uint64) < grid.width) & (cy.view(np.uint64) < grid.height)
    cell = np.where(inside, cy * grid.width + cx, 0)
    # the merged order is sorted, so the crossings within range come first
    in_range = (t_both <= max_range).sum(axis=1)
    free = inside & grid.navigable.ravel()[cell] & (np.arange(2 * k) < in_range[:, None])
    rows = np.arange(len(dirs))
    end = free.argmin(axis=1)
    t_end = t_both[rows, order[rows, end]]
    # every crossing up to the stop must be on hand, or cells were skipped
    found = ~free[rows, end] & (t_end <= np.minimum(t_both[:, k - 1], t_both[:, -1]))
    hit = (end < in_range) & inside[rows, end]
    label = np.where(hit, grid.semantic.ravel()[cell[rows, end]], 0).astype(np.uint8)
    return np.where(hit, t_end, np.inf), label, found
