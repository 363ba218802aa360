"""Semantic occupancy mapping from depth and semantic frames.

Frames are unprojected through the inverse pinhole model into world
points, filtered to the vertical band between floor and ceiling (with a
margin that drops the floor and ceiling surfaces themselves), and
accumulated into a top-down grid.  A cell keeps the label of the highest
point so far observed inside it, so tall structure wins over clutter.

Camera frame: x right, y down, z forward (optical axis).  World frame:
z up, heading measured counterclockwise from +x; see the environment
module for grid indexing conventions.

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
    GridWorld,
    Point3,
    Pose,
    as_point,
    decode_bitmask,
    decode_bytes,
    decode_items,
    encode_bitmask,
    encode_bytes,
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
    x_cam = (u_idx - intr.cx) * dv / intr.fx
    y_cam = (v_idx - intr.cy) * dv / intr.fy
    h = frame.pose.heading
    px, py, pz = frame.pose.position
    fx_, fy_ = math.cos(h), math.sin(h)
    rx, ry = math.sin(h), -math.cos(h)
    wx = px + dv * fx_ + x_cam * rx
    wy = py + dv * fy_ + x_cam * ry
    wz = pz - y_cam
    points = np.stack([wx, wy, wz], axis=1)
    if semantics is None:
        labels = np.zeros(len(dv), dtype=np.uint8)
    else:
        labels = semantics.labels[valid]
    return points, labels


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
    if len(points) == 0:
        return
    ix, iy = occ_map.cell_index(points[:, 0], points[:, 1])
    inside = (ix >= 0) & (ix < occ_map.width) & (iy >= 0) & (iy < occ_map.height)
    ix, iy = ix[inside], iy[inside]
    z = points[inside, 2]
    lab = labels[inside]
    occ_map.observed[iy, ix] = True

    band = (z > floor_z + BAND_MARGIN) & (z < ceiling_z - BAND_MARGIN)
    if not band.any():
        return
    ix, iy, z, lab = ix[band], iy[band], z[band], lab[band]
    occ_map.occupancy[iy, ix] = 1

    flat = iy * occ_map.width + ix
    top = np.full(occ_map.width * occ_map.height, -np.inf)
    np.maximum.at(top, flat, z)
    # ascending z, stable: the last write per cell is its highest point
    order = np.argsort(z, kind="stable")
    winner = np.zeros_like(top, dtype=np.uint8)
    winner[flat[order]] = lab[order]
    top = top.reshape(occ_map.height, occ_map.width)
    winner = winner.reshape(occ_map.height, occ_map.width)
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


def _one_hot(labels: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    out = np.empty((CROP_CHANNELS, *labels.shape), dtype=np.float32)
    out[:LABEL_COUNT] = labels == _LABEL_VALUES
    out[LABEL_COUNT] = occupied
    return out


def crop_egocentric(occ_map: SemanticOccMap, pose: Pose, size: int = 64) -> np.ndarray:
    """Egocentric map crop: the one-hot of ``crop_layers``.

    Returns float32 of shape (14, size, size): channels 0..12 are the
    one-hot of labels 1..13, channel 13 is occupancy.
    """
    return _one_hot(*crop_layers(occ_map, pose, size))


def crop_to_flat(crop: np.ndarray) -> list[float]:
    """Crop as a flat channel-major list, the wire and export form."""
    return np.asarray(crop, dtype=np.float32).ravel().tolist()


def crop_from_flat(values, size: int = 64) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float32)
    return arr.reshape(CROP_CHANNELS, size, size)


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
    return _one_hot(decode_bytes(payload["labels"], shape), decode_bitmask(payload["occupied"], shape))


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


def map_from_dict(payload: dict) -> SemanticOccMap:
    shape = (payload["height"], payload["width"])
    return SemanticOccMap(
        resolution=payload["resolution"],
        origin=tuple(payload["origin"]),
        width=payload["width"],
        height=payload["height"],
        mode=payload["mode"],
        occupancy=decode_bitmask(payload["occupancy"], shape).astype(np.uint8),
        semantic=decode_bytes(payload["semantic"], shape),
        observed=decode_bitmask(payload["observed"], shape),
        top_z=decode_bytes_f32(payload["top_z"], shape),
    )


def save_map(occ_map: SemanticOccMap, path) -> None:
    write_json(path, map_to_dict(occ_map))


def load_map(path) -> SemanticOccMap:
    return map_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# synthetic views

# Depth and semantics are rendered from a grid scene by casting one ray
# per image column through the 2D occupancy, then resolving each row
# against the wall span, the floor plane, or the ceiling plane.  Walls
# fill the full floor-to-ceiling height.


def synthesize_views(grid: GridWorld, pose: Pose, intrinsics: CameraIntrinsics,
                     max_range: float = 10.0) -> tuple[DepthFrame, SemanticFrame]:
    """Render a depth and semantic frame of a grid scene at a pose.

    Depth is forward distance (not ray length); rays that leave the grid
    or exceed max_range come back 0.  The returned pose is the camera
    pose passed in, so unprojecting the frames reproduces world surfaces.
    """
    W, H = intrinsics.width, intrinsics.height
    h = pose.heading
    fwd = np.array([math.cos(h), math.sin(h)])
    right = np.array([math.sin(h), -math.cos(h)])
    k = (np.arange(W) - intrinsics.cx) / intrinsics.fx
    dirs = fwd[None, :] + k[:, None] * right[None, :]  # (W, 2); forward component 1

    s_wall, wall_label = _march_columns(grid, pose.position, dirs, max_range)

    v = np.arange(H)
    slope = -(v - intrinsics.cy) / intrinsics.fy  # dz per unit forward distance
    z0 = pose.position.z
    sw = s_wall[None, :]
    sl = slope[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z_at_wall = z0 + sl * sw
        s_floor = np.where(sl < 0, (grid.floor_z - z0) / sl, np.inf)
        s_ceil = np.where(sl > 0, (grid.ceiling_z - z0) / sl, np.inf)
    s_plane = np.minimum(s_floor, s_ceil)
    wall_hit = np.isfinite(sw) & (z_at_wall >= grid.floor_z) & (z_at_wall <= grid.ceiling_z)

    depth = np.zeros((H, W))
    # small forward push lands wall points inside the wall cell instead of
    # exactly on the shared cell boundary
    depth[wall_hit] = np.broadcast_to(sw + 1e-4, (H, W))[wall_hit]
    plane_hit = ~wall_hit & np.isfinite(s_plane) & (s_plane <= max_range)
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


def _march_columns(grid: GridWorld, position: Point3, dirs: np.ndarray,
                   max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """2D grid traversal (Amanatides & Woo 1987) for a bundle of rays from one origin.

    Returns per-ray forward distance to the first non-navigable cell
    (inf for none within max_range) and that cell's label; the origin
    cell is never tested.  The traversal is built in closed form: each
    axis's boundary crossings are running sums of the first crossing
    and the cell pitch (the additions a stepping loop makes, in its
    order), a stable sort merges the two axes with x first on ties, and
    running sums of the steps give the cells crossed into.
    """
    res = grid.resolution
    k = int(max_range * np.abs(dirs).max() / res) + 3  # crossings per axis; edge rays are long
    crossings, steps, start = [], [], []
    for offset, v in ((position.x - grid.origin.x, dirs[:, 0]), (position.y - grid.origin.y, dirs[:, 1])):
        o = offset / res
        c = math.floor(o + 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a cell spans [c - 0.5, c + 0.5] in cell units around its center
            first = np.where(v != 0, (c + np.where(v > 0, 0.5, -0.5) - o) * res / v, np.inf)
            seq = np.repeat(np.where(v != 0, res / np.abs(v), np.inf)[:, None], k, axis=1)
        seq[:, 0] = first
        crossings.append(np.add.accumulate(seq, axis=1))
        steps.append(np.where(v > 0, 1, -1)[:, None])
        start.append(c)
    t_both = np.concatenate(crossings, axis=1)  # x crossings, then y
    order = np.argsort(t_both, axis=1, kind="stable")
    nx = np.cumsum(order < k, axis=1)  # x crossings up to each merged one
    cx = start[0] + steps[0] * nx
    cy = start[1] + steps[1] * (np.arange(1, 2 * k + 1) - nx)
    inside = (cx >= 0) & (cx < grid.width) & (cy >= 0) & (cy < grid.height)
    cell = np.where(inside, cy * grid.width + cx, 0)
    # the merged order is sorted, so the crossings within range come first
    in_range = (t_both <= max_range).sum(axis=1)
    stop = (np.arange(2 * k) >= in_range[:, None]) | ~inside | ~grid.navigable.ravel()[cell]
    rows = np.arange(len(dirs))
    end = stop.argmax(axis=1)
    t_end = t_both[rows, order[rows, end]]
    # every crossing up to the stop must be on hand, or cells were skipped
    if not (stop[rows, end] & (t_end <= np.minimum(t_both[:, k - 1], t_both[:, -1]))).all():
        raise RuntimeError("ray march ran out of boundary crossings")
    hit = (end < in_range) & inside[rows, end]
    label = np.where(hit, grid.semantic.ravel()[cell[rows, end]], 0).astype(np.uint8)
    return np.where(hit, t_end, np.inf), label
