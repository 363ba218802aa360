"""Coverage analysis: how much of a tour has been seen before each episode.

An oracle agent is simulated through every tour: it walks each episode's
reference path and the connecting transits, observing its surroundings
with a fixed-radius disc (optionally occluded by walls).  Before each
episode the curves record what fraction of that episode's own coverage
cells are already seen, and what fraction of the whole tour region is.
A terminal record after the last episode closes each tour's curve.

On grid scenes coverage cells are grid cells and occlusion ray-casts
against occupancy; on graph scenes the "cells" are graph nodes within
the radius of a path point and occlusion does not apply (graphs carry
no geometry to occlude with).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .environment import FORMAT_VERSION, GridWorld, Scene, as_point, euclidean, shortest_path, write_json
from .errors import MissingEpisode
from .tourgen import Episode, Tour


@dataclass
class ObservationModel:
    radius: float = 3.0
    occlusion: bool = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("observation radius must be positive")

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


class _Visibility:
    """Memoized per-source visible sets under one observation model."""

    def __init__(self, scene: Scene, model: ObservationModel):
        self.scene = scene
        self.model = model
        self._memo: dict = {}
        if scene.grid is not None:
            self._reach = math.ceil(model.radius / scene.grid.resolution)

    def from_point(self, point) -> frozenset:
        point = as_point(point)
        if self.scene.grid is not None:
            key = self.scene.grid.cell_index(point)
            if key not in self._memo:
                self._memo[key] = self._grid_visible(key)
            return self._memo[key]
        key = (point.x, point.y, point.z)
        if key not in self._memo:
            graph = self.scene.graph
            self._memo[key] = frozenset(
                nid for nid in graph.nodes if euclidean(graph.nodes[nid], point) <= self.model.radius
            )
        return self._memo[key]

    def from_path(self, points) -> set:
        """Cells (or graph nodes) visible from any of the points."""
        out: set = set()
        for point in points:
            out |= self.from_point(point)
        return out

    def _grid_visible(self, source) -> frozenset:
        grid = self.scene.grid
        sx, sy = source
        r_cells = self.model.radius / grid.resolution
        out = set()
        for iy in range(max(0, sy - self._reach), min(grid.height, sy + self._reach + 1)):
            for ix in range(max(0, sx - self._reach), min(grid.width, sx + self._reach + 1)):
                if (ix - sx) ** 2 + (iy - sy) ** 2 > r_cells * r_cells + 1e-9:
                    continue
                if self.model.occlusion and not self._clear_line(source, (ix, iy)):
                    continue
                out.add((ix, iy))
        return frozenset(out)

    def _clear_line(self, source, target) -> bool:
        grid = self.scene.grid
        for cell in _bresenham(source, target):
            if not grid.in_bounds(cell) or not grid.navigable[cell[1], cell[0]]:
                return False
        return True


def observed_cells(path, scene: Scene | GridWorld, model: ObservationModel) -> set:
    """Cells (or graph nodes) visible from any point of a path."""
    if isinstance(scene, GridWorld):
        scene = Scene(scene_id="", grid=scene)
    return _Visibility(scene, model).from_path(path)


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
    for tour in tours:
        try:
            eps = [episodes_by_id[eid] for eid in tour.episode_ids]
        except KeyError as exc:
            raise MissingEpisode(f"tour {tour.tour_id} references unknown episode {exc}") from None
        cov = [vis.from_path(ep.path) for ep in eps]
        region = frozenset().union(*cov) if cov else frozenset()
        seen: set = set()
        records = []
        for k, ep in enumerate(eps):
            upcoming = 100.0 * len(seen & cov[k]) / len(cov[k]) if cov[k] else 0.0
            region_pct = 100.0 * len(seen & region) / len(region) if region else 0.0
            records.append(
                {
                    "episode_index": k + 1,
                    "upcoming_episode_pct": upcoming,
                    "tour_region_pct": region_pct,
                }
            )
            seen |= cov[k]
            if k + 1 < len(eps):
                transit = shortest_path(scene, ep.path[-1], eps[k + 1].path[0])
                seen |= vis.from_path(transit)
        final_pct = 100.0 * len(seen & region) / len(region) if region else 0.0
        records.append(
            {
                "episode_index": len(eps) + 1,
                "upcoming_episode_pct": None,
                "tour_region_pct": final_pct,
            }
        )
        per_tour.append({"tour_id": tour.tour_id, "records": records})

    max_index = max((rec["records"][-1]["episode_index"] for rec in per_tour), default=0)
    aggregated = []
    for index in range(1, max_index + 1):
        ups = []
        regs = []
        for rec in per_tour:
            for row in rec["records"]:
                if row["episode_index"] == index:
                    regs.append(row["tour_region_pct"])
                    if row["upcoming_episode_pct"] is not None:
                        ups.append(row["upcoming_episode_pct"])
        if not regs:
            continue
        aggregated.append(
            {
                "episode_index": index,
                "upcoming_pct_mean": sum(ups) / len(ups) if ups else None,
                "tour_pct_mean": sum(regs) / len(regs),
                "n_tours": len(regs),
            }
        )
    return CoverageCurve(records=aggregated, per_tour=per_tour, model=model.to_dict())
