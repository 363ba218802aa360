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
wall column, at its top in-band z found at one row, folded in by
``integrate``; ``sense`` itself marks observed the cells of the floor
and ceiling pixels, whose depth and z it takes once per row.
The rays march through a ``RayTable``, which keeps each camera
geometry's crossing pattern for the walk that owns it.  The tests keep
the pixel path, which renders a depth and a semantic frame per pose and
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
    check_resolution,
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

# each map layer's dtype and value before anything is observed
_EMPTY = {"occupancy": np.uint8(0), "semantic": np.uint8(0), "observed": False, "top_z": -np.inf}


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
        check_resolution(self.resolution)
        self.origin = as_point(self.origin)
        shape = (self.height, self.width)
        for name, empty in _EMPTY.items():
            if getattr(self, name) is None:
                setattr(self, name, np.full(shape, empty))
            if (arr := getattr(self, name)).shape != shape:
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
        for name, empty in _EMPTY.items():
            getattr(self, name)[:] = empty

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

# crossings per axis of the short march pass; at about 60% of the poses of
# a noisy tour through a 9-room scene, every ray stops within them
_SHORT_CROSSINGS = 24


class RayTable:
    """One camera's ray march (Amanatides & Woo 1987) through one grid up
    to ``max_range``.  A ray's crossing times, their merge order and the
    cells it crosses, as offsets from its origin cell, depend only on the
    heading's cosine and sine and on the origin's offsets ``(c +- 0.5) - o``
    from its cell's edges: not on which cell it is.  Per such geometry,
    the table keeps its rays' merge order over the short pass and the flat
    offsets of the cells they cross in the grid, padded with off-grid cells.
    """

    def __init__(self, grid: GridWorld, intrinsics: CameraIntrinsics, max_range: float):
        self.grid, self.intrinsics, self.max_range = grid, intrinsics, max_range
        self._slopes = (np.arange(intrinsics.width) - intrinsics.cx) / intrinsics.fx
        # crossings per axis for any ray: its axis components are at most hypot(1, slope)
        reach = max_range * math.hypot(1.0, np.abs(self._slopes).max()) / grid.resolution
        self.full = max(int(reach) + 3, _SHORT_CROSSINGS)
        self._pad = self.full + 2  # the full pass from 2 cells off the grid stays in the padding
        self._pitch = grid.width + 2 * self._pad
        self._free = np.pad(grid.navigable, self._pad).ravel()
        self._label = np.pad(grid.semantic.astype(np.int16), self._pad, constant_values=-1).ravel()  # -1 off it
        self._offset_type = np.int16 if _SHORT_CROSSINGS * (self._pitch + 1) < 2 ** 15 else np.int32
        self._entries: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def march(self, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per ``_cameras`` row and image column, the forward distance to the
        first non-navigable cell (inf for none within max_range) and its
        label.  The rays take the short pass with their geometry's merge
        order and cell offsets; those it leaves unsettled, the full pass."""
        grid, W = self.grid, self.intrinsics.width
        right = cam[:, None, 4:2:-1] * (1.0, -1.0)  # (sin, -cos)
        dirs = (cam[:, None, 3:] + self._slopes[:, None] * right).reshape(-1, 2)  # forward component 1
        o = (cam[:, :2] - (grid.origin.x, grid.origin.y)) / grid.resolution
        c = np.floor(o + 0.5)
        keys = [row.tobytes() for row in np.concatenate([cam[:, 3:], c + 0.5 - o, c - 0.5 - o], axis=1)]

        def patterns(t):  # the short pass's merge order and cell offsets, by each pose's geometry
            order, offsets = np.empty(t.shape, dtype=np.uint8), np.empty(t.shape, dtype=self._offset_type)
            for i, key in enumerate(keys):
                rays = slice(i * W, (i + 1) * W)
                entry = self._entries.get(key)
                if entry is None:
                    merged, cells = _pattern(t[rays], dirs[rays], _SHORT_CROSSINGS, self._pitch)
                    entry = self._entries[key] = merged.astype(np.uint8), cells.astype(self._offset_type)
                order[rays], offsets[rays] = entry
            return order, offsets

        origins = np.repeat(cam[:, :2], W, axis=0)
        s_wall, label, found = self.march_rays(origins, dirs, _SHORT_CROSSINGS, patterns)
        if not found.all():
            redo = ~found
            s_wall[redo], label[redo], found[redo] = self.march_rays(origins[redo], dirs[redo], self.full)
        if not found.all():
            raise RuntimeError("ray march ran out of boundary crossings")
        return s_wall.reshape(-1, W), label.reshape(-1, W)

    def march_rays(self, origins: np.ndarray, dirs: np.ndarray, k: int, patterns=None) -> tuple:
        """Per ray from world (x, y) ``origins``, over its first k crossings
        per axis (k at most ``full``): the forward distance to the first
        non-navigable cell (inf off the grid or beyond max_range), its label,
        and whether every crossing up to it was on hand (if not, the other
        two are void).  An axis's crossings are running sums of the first and
        the cell pitch, a stepping loop's additions in its order; ``patterns``
        gives their merge order and cell offsets, by default ``_pattern``'s."""
        grid, res = self.grid, self.grid.resolution
        o = (origins - (grid.origin.x, grid.origin.y)) / res
        c = np.floor(o + 0.5)  # the origin cells; a cell spans [c - 0.5, c + 0.5] in cell units
        with np.errstate(divide="ignore", invalid="ignore"):
            first = np.where(dirs != 0, (c + np.where(dirs > 0, 0.5, -0.5) - o) * res / dirs, np.inf)
            seq = np.repeat(np.where(dirs != 0, res / np.abs(dirs), np.inf)[:, :, None], k, axis=2)
        seq[:, :, 0] = first
        t = np.add.accumulate(seq, axis=2, out=seq).reshape(len(dirs), 2 * k)  # x crossings, then y
        order, offsets = _pattern(t, dirs, k, self._pitch) if patterns is None else patterns(t)
        # from 2 cells off the grid, as from farther, the first crossing is off it
        x, y = (np.clip(c, -2, (grid.width + 1, grid.height + 1)) + self._pad).T
        crossed = np.add((y * self._pitch + x).astype(np.int32)[:, None], offsets, dtype=np.int32)
        free = self._free[crossed]
        rows = np.arange(len(t))
        end = free.argmin(axis=1)
        t_end = np.where(free[rows, end], np.inf, t[rows, order[rows, end]])
        # crossings up to either axis's last are on hand; past max_range, the first settles
        on_hand = np.minimum(t[:, k - 1], t[:, -1])
        found = (t_end <= on_hand) | (on_hand > self.max_range)
        label = np.where(t_end <= self.max_range, self._label[crossed[rows, end]], -1)
        return np.where(label >= 0, t_end, np.inf), np.maximum(label, 0).astype(np.uint8), found


def _pattern(t: np.ndarray, dirs: np.ndarray, k: int, pitch: int) -> tuple[np.ndarray, np.ndarray]:
    """The merge order of crossing times ``t``, x first on ties, and the
    flat offset, in a grid ``pitch`` cells wide, of the cell each enters."""
    order = np.argsort(t, axis=1, kind="stable")
    # x crossings up to each merged one; the merge keeps each axis in order
    nx = np.where(order < k, order + 1, np.arange(k, 3 * k) - order)
    step = np.where(dirs > 0, 1, -1)
    return order, step[:, 1:] * (np.arange(1, 2 * k + 1) - nx) * pitch + step[:, :1] * nx


def _columns(table: RayTable, cam: np.ndarray) -> tuple:
    """March one ray per image column of each ``_cameras`` row, all in one
    ``table.march``, and resolve each pixel's surface: (s_wall, wall_label,
    wall_hit, s_plane, plane_hit), each over the cameras, then per column
    its wall distance and label, per pixel whether it sees a wall, per row
    the distance to the floor or ceiling plane, per pixel whether it sees
    that plane."""
    grid, intrinsics = table.grid, table.intrinsics
    s_wall, wall_label = table.march(cam)
    slope = -(np.arange(intrinsics.height) - intrinsics.cy) / intrinsics.fy  # dz per unit forward distance
    z0 = cam[:, 2, None, None]
    sl = slope[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z_at_wall = z0 + sl * s_wall[:, None, :]  # no finite z for a column without a wall
        # the floor below the horizon, the ceiling above, neither on it
        s_plane = np.where(sl < 0, grid.floor_z - z0, grid.ceiling_z - z0) / sl  # (P, H, 1)
    wall_hit = (z_at_wall >= grid.floor_z) & (z_at_wall <= grid.ceiling_z)
    plane_hit = ~wall_hit & np.isfinite(s_plane) & (s_plane <= table.max_range)
    return s_wall, wall_label, wall_hit, s_plane, plane_hit


def _wall_tops(cam, intrinsics: CameraIntrinsics, u, dv, wall, lo: float, hi: float) -> tuple:
    """Each wall column's world x and y, its top in-band z (-inf for none)
    and the last of its rows at that z, by ``_lift``'s arithmetic; ``cam``
    unpacks to the columns' ``_cameras`` values, ``u`` and ``dv`` are
    their image columns and depths and ``wall`` (columns, rows) their wall
    pixels.  z falls row by row and the wall rows form one run, so the
    in-band wall rows do too.  The top is at the first of them, the first
    row neither before the wall nor at z >= hi, walked to from where the
    pinhole model puts z = hi."""
    H = intrinsics.height
    n = np.arange(len(u))
    start = wall.argmax(axis=1)
    row = np.clip(np.floor(intrinsics.cy + (cam[2] - hi) * intrinsics.fy / dv) + 1, start, H - 1).astype(np.intp)
    while True:
        rows = np.clip(row + np.arange(-1, 2)[:, None], 0, H - 1)
        wx, wy, wz = _lift(cam, intrinsics, u, rows, dv)
        before = (rows < start) | (wz >= hi)
        up, down = (row > 0) & ~before[0], (row < H - 1) & before[1]
        if not (up | down).any():
            break
        row = row - up + down
    top = np.where(~before[1] & wall[n, row] & (wz[1] > lo), wz[1], -np.inf)
    nxt, z_next = rows[2], wz[2]
    while (tie := (nxt > row) & wall[n, nxt] & (z_next == top)).any():  # on past rows at the top z
        row = np.where(tie, nxt, row)
        nxt = np.minimum(row + 1, H - 1)
        z_next = _lift(cam, intrinsics, u, nxt, dv)[2]
    return wx, wy, top, row


def sense(occ_map: SemanticOccMap, grid: GridWorld, poses, intrinsics: CameraIntrinsics,
          max_range: float = 10.0, table: RayTable | None = None) -> None:
    """Fold the views of a grid scene from a sequence of poses into the map.

    Leaves the map exactly as the pixel path in ``tests/conftest.py``
    does, which renders each pose's depth and semantic frames and folds
    in every pixel's point with ``integrate``, pose by pose (with the
    grid's floor and ceiling); but folds the views' footprints, all in one
    batch.  All wall pixels of a column share one depth, so they land in
    one cell: the column gives one point, at its highest in-band z (or
    -inf for none), with its label, and one ``integrate`` takes these.
    Floor and ceiling pixels lie outside the band; ``sense`` only marks
    their cells observed.  Raises RuntimeError, before folding any pose,
    if one of them lies inside the band, which the footprint does not fold.

    Folded in turn, a cell takes the label of the earliest pose to reach
    its top z, that pose's last point there in pixel order (row, column);
    one ``integrate``, whose last point at a top wins, takes them latest
    pose first.  The rays march through ``table``, a ``RayTable`` of this
    grid, camera and range, or else a new one.
    """
    if table is None:
        table = RayTable(grid, intrinsics, max_range)
    elif table.grid is not grid or table.intrinsics != intrinsics or table.max_range != max_range:
        raise ValueError("the ray table is for another grid, camera or range")
    cam = _cameras(poses)
    s_wall, wall_label, wall_hit, s_plane, plane_hit = _columns(table, cam)
    lo, hi = grid.floor_z + BAND_MARGIN, grid.ceiling_z - BAND_MARGIN
    # the push outweighs any rounding below 0, so every wall pixel has a
    # positive depth and the tests' pixel path lifts it
    pose, cols = np.nonzero(wall_hit.any(axis=1))
    wx, wy, top, row = _wall_tops(cam.T[:, pose], intrinsics, cols, s_wall[pose, cols] + _WALL_PUSH,
                                  wall_hit[pose, :, cols], lo, hi)
    # integrate sorts in-band points by z, stably in pixel order (v, u), so
    # a tie goes to the last pixel: the column's last row at its top z
    order = np.lexsort((cols, row, -pose))
    # a floor or ceiling row's pixels share one depth and one z, so the band
    # check and _lift's row terms are taken once per row
    p_row, v_row = np.nonzero(plane_hit.any(axis=2) & (s_plane[:, :, 0] > 0))
    px, py, pz, cos_h, sin_h = cam.T[:, p_row]
    dv = s_plane[p_row, v_row, 0]
    z = pz - (v_row - intrinsics.cy) * dv / intrinsics.fy
    if ((z > lo) & (z < hi)).any():
        raise RuntimeError("a floor or ceiling point lies inside the band")
    # raises for a known map before any cell is marked
    integrate(occ_map, np.stack([wx[order], wy[order], top[order]], axis=1), wall_label[pose, cols][order],
              grid.floor_z, grid.ceiling_z)
    r, u = np.nonzero(plane_hit[p_row, v_row])
    x_cam = (u - intrinsics.cx) * dv[r] / intrinsics.fx
    ix, iy = occ_map.cell_index((px + dv * cos_h)[r] + x_cam * sin_h[r], (py + dv * sin_h)[r] + x_cam * -cos_h[r])
    inside = (ix >= 0) & (ix < occ_map.width) & (iy >= 0) & (iy < occ_map.height)
    np.put(occ_map.observed, (iy * occ_map.width + ix)[inside], True)
