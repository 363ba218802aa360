"""Coverage analysis: how much of a tour has been seen before each episode.

An oracle agent is simulated through every tour: it walks each episode's
reference path and the connecting transits, observing its surroundings
with a fixed-radius disc (optionally occluded by walls).  Before each
episode the curves record what fraction of that episode's own coverage
cells are already seen, and what fraction of the whole tour region is.
A terminal record after the last episode closes each tour's curve.

Coverage is a boolean mask over grid cells (``iy * width + ix``) or
graph nodes (``NavIndex`` ids).  Occlusion applies on grids only: a cell
is hidden when a cell strictly between it and the source on their
Bresenham line is off the grid or not navigable; the two end cells are
never tested.  Graphs carry no geometry to occlude with.  A path's mask
is a union over its points, so a tour's region is its episodes' union.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .environment import FORMAT_VERSION, GridWorld, Scene, as_point, euclidean, shortest_path, write_json
from .errors import MissingEpisode, SnapFailure
from .tourgen import Episode, Tour


@dataclass
class ObservationModel:
    radius: float = 3.0
    occlusion: bool = True

    def __post_init__(self):
        if not 0 < self.radius < math.inf:  # NaN fails too
            raise ValueError(f"observation radius must be positive and finite, got {self.radius!r}")

    def to_dict(self) -> dict:
        return {"radius": self.radius, "occlusion": self.occlusion}


@dataclass
class CoverageCurve:
    """Aggregated curves plus per-tour detail."""

    records: list[dict]  # episode_index, upcoming_pct_mean, tour_pct_mean, n_tours
    per_tour: list[dict]
    model: dict

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "model": self.model,
            "records": self.records,
            "per_tour": self.per_tour,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode_index", "upcoming_pct_mean", "tour_pct_mean", "n_tours"])
            for rec in self.records:
                up = rec["upcoming_pct_mean"]
                writer.writerow(
                    [
                        rec["episode_index"],
                        "" if up is None else f"{up:.2f}",
                        f"{rec['tour_pct_mean']:.2f}",
                        rec["n_tours"],
                    ]
                )


def _bresenham(a, b):
    """Integer cells strictly between a and b on the raster line."""
    x0, y0 = a
    x1, y1 = b
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x1 > x0 else -1
    sy = 1 if y1 > y0 else -1
    err = dx - dy
    x, y = x0, y0
    cells = []
    while True:
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy
        if (x, y) == (x1, y1):
            break
        cells.append((x, y))
    return cells


@functools.cache
def _stencil(r_cells: float) -> tuple[np.ndarray, ...]:
    """Reach, the disc's offsets ``dx, dy`` and their lines' cells ``lx, ly, filler``, ``[step, offset]``."""
    reach = math.ceil(r_cells)
    span = range(-reach, reach + 1)
    offsets = [(dx, dy) for dy in span for dx in span if dx * dx + dy * dy <= r_cells * r_cells + 1e-9]
    lines = [_bresenham((0, 0), offset) for offset in offsets]
    length = max(map(len, lines))
    cells = np.array([line + [(0, 0)] * (length - len(line)) for line in lines], dtype=int)
    stencil = tuple(map(np.ascontiguousarray, (*np.array(offsets).T, *cells.reshape(len(lines), length, 2).T,
                                               np.arange(length)[:, None] >= [len(line) for line in lines])))
    for array in stencil:
        array.setflags(write=False)
    return (reach, *stencil)


class _Visibility:
    """Memoized per-source visible indices under one observation model.

    A Bresenham line depends only on ``target - source``, so one
    ``_stencil`` per radius in cells serves every grid source; a source is
    keyed by its flat index in the navigability padded by reach (one
    farther off sees nothing).  A call's new sources go a bounded block at
    a time: one ``take`` at each key plus each line cell's offset, then
    ``| filler`` (the filled-out steps, which read clear) and ``.all``.
    """

    def __init__(self, scene: Scene, model: ObservationModel):
        self.scene = scene
        self.model = model
        self._memo: dict = {}
        grid = scene.grid
        self.size = len(scene.nav.locations) if grid is None else grid.width * grid.height
        self._block = 1
        if grid is None:
            return
        self._reach, self._dx, self._dy, lx, ly, self._filler = _stencil(model.radius / grid.resolution)
        # a kept line ends on the grid, so its interior is within reach of it
        self._padded = np.pad(grid.navigable, self._reach)
        self._lines = ly * self._padded.shape[1] + lx
        self._block = max(1, 2**17 // (self._lines.size + self._dx.size))  # about 1 MB of int64 per block

    def from_path(self, points) -> np.ndarray:
        """Mask of the cells (or graph nodes) visible from any of the points."""
        out, grid, memo = np.zeros(self.size, dtype=bool), self.scene.grid, self._memo
        keys = [as_point(point) for point in points]
        if grid is not None:  # cell_index's arithmetic, then the padded grid's flat index
            cells = np.floor((np.reshape(keys, (-1, 3))[:, :2] - grid.origin[:2]) / grid.resolution + 0.5) + self._reach
            cells = cells[(cells >= 0).all(axis=1) & (cells < self._padded.shape[::-1]).all(axis=1)]
            keys = (cells.astype(np.intp) @ (1, self._padded.shape[1])).tolist()
        keys = list(dict.fromkeys(keys))  # the distinct sources, in order of first appearance
        new = [key for key in keys if key not in memo]
        visible = self._graph_visible if grid is None else self._grid_visible
        for i in range(0, len(new), self._block):
            memo.update(zip(new[i : i + self._block], visible(new[i : i + self._block])))
        for key in keys:
            out[memo[key]] = True
        return out

    def _graph_visible(self, points) -> list[np.ndarray]:
        nodes, radius, ids = self.scene.graph.nodes, self.model.radius, self.scene.nav.locations
        return [np.flatnonzero([euclidean(nodes[nid], point) <= radius for nid in ids]) for point in points]

    def _grid_visible(self, keys) -> list[np.ndarray]:
        grid, reach, keys = self.scene.grid, self._reach, np.array(keys)
        sy, sx = np.divmod(keys, self._padded.shape[1])
        tx, ty = (sx - reach)[:, None] + self._dx, (sy - reach)[:, None] + self._dy
        kept = (tx >= 0) & (tx < grid.width) & (ty >= 0) & (ty < grid.height)
        if self.model.occlusion:
            # .all reduces whole rows of steps; a clipped index lies on a line not kept
            kept &= (self._padded.take(keys[:, None, None] + self._lines, mode="clip") | self._filler).all(axis=1)
        return [row[mask] for row, mask in zip(ty * grid.width + tx, kept)]


def observed_cells(path, scene: Scene | GridWorld, model: ObservationModel) -> set:
    """Cells (or graph nodes) visible from any point of a path."""
    if isinstance(scene, GridWorld):
        scene = Scene(scene_id="", grid=scene)
    ids = np.flatnonzero(_Visibility(scene, model).from_path(path)).tolist()
    if scene.grid is None:
        return {scene.nav.locations[i] for i in ids}
    return {(i % scene.grid.width, i // scene.grid.width) for i in ids}


def _pct(part: np.ndarray, whole: np.ndarray) -> float:
    total = np.count_nonzero(whole)
    return 100.0 * np.count_nonzero(part & whole) / total if total else 0.0


def _settle_transits(scene: Scene, eps: list[Episode]) -> None:
    """Settle a tour's transit fields (each next start's field, asked at
    the previous end) in one ``NavIndex.settle`` batch, so the routes
    walked after it only read them.  Equal and grid-neighbor ends open
    no field; a pair that fails to snap is left to ``shortest_path``,
    which raises it in tour order."""
    nav, asks = scene.nav, []
    for a, b in zip(eps, eps[1:]):
        try:
            end, start = scene.snap_point(a.path[-1]), scene.snap_point(b.path[0])
        except SnapFailure:
            continue
        if end != start and not (scene.grid is not None and nav.adjacent(end, start)):
            asks.append((nav.id_of[start], (nav.id_of[end],)))
    nav.settle(asks)


def coverage_curves(
    tours: list[Tour],
    episodes_by_id: dict[str, Episode],
    scene: Scene,
    model: ObservationModel | None = None,
) -> CoverageCurve:
    """Coverage curves of oracle-driven tours, averaged per episode index.

    Episode indices are 1-based; each tour also gets a terminal record at
    index L+1 with no upcoming value, showing the final region coverage.
    An index aggregates only the tours that reach it.
    """
    if model is None:
        model = ObservationModel()
    vis = _Visibility(scene, model)

    per_tour = []
    # every tour reaches indices 1..L+1, so indices arrive in ascending order
    rows_by_index: dict[int, list[dict]] = {}
    for tour in tours:
        try:
            eps = [episodes_by_id[eid] for eid in tour.episode_ids]
        except KeyError as exc:
            raise MissingEpisode(f"tour {tour.tour_id} references unknown episode {exc}") from None
        seen = [vis.from_path([])]  # seen[k]: the cells seen before episode k + 1
        cov = [vis.from_path(ep.path) for ep in eps]
        region = np.logical_or.reduce(seen + cov)  # from_path is a union over points
        _settle_transits(scene, eps)
        for k, ep in enumerate(eps):
            transit = shortest_path(scene, ep.path[-1], eps[k + 1].path[0]) if k + 1 < len(eps) else []
            seen.append(seen[-1] | cov[k] | vis.from_path(transit))
        records = [
            {
                "episode_index": k + 1,
                "upcoming_episode_pct": _pct(before, cov[k]) if k < len(eps) else None,
                "tour_region_pct": _pct(before, region),
            }
            for k, before in enumerate(seen)
        ]
        per_tour.append({"tour_id": tour.tour_id, "records": records})
        for row in records:
            rows_by_index.setdefault(row["episode_index"], []).append(row)

    aggregated = []
    for index, rows in rows_by_index.items():
        ups = [row["upcoming_episode_pct"] for row in rows if row["upcoming_episode_pct"] is not None]
        regs = [row["tour_region_pct"] for row in rows]
        aggregated.append(
            {
                "episode_index": index,
                "upcoming_pct_mean": sum(ups) / len(ups) if ups else None,
                "tour_pct_mean": sum(regs) / len(regs),
                "n_tours": len(regs),
            }
        )
    return CoverageCurve(records=aggregated, per_tour=per_tour, model=model.to_dict())
