"""Seeded synthetic scenes and episode sets.

Scenes are rectangular floorplans on a grid: an outer wall ring, a
lattice of rooms separated by one-cell walls, a door carved through
each internal wall segment (unless sealed), and a few furniture blocks
scattered inside rooms.  Every scene also has a navigation graph twin
(room centers plus door cells) so the same layout exercises both scene
kinds.

Sealing doors with ``sealed_door_probability`` (deterministically at
1.0) splits the floorplan into disconnected regions, which is what the
tour partitioning stage has to cope with.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .environment import GridWorld, NavGraph, Point3, Scene
from .errors import SamplingExhausted, SpecInfeasible
from .tourgen import Episode

LABEL_FLOOR = 1
LABEL_WALL = 2
LABEL_DOOR = 3
FURNITURE_LABELS = tuple(range(4, 14))  # ten furniture classes, labels 4..13

MIN_ROOM_SPAN = 5  # interior cells per room axis, below this a layout is rejected
_BLOCK_ATTEMPTS = 128  # at most as many new fields per draw-ahead block, one array of as many rows


@dataclass
class FloorplanSpec:
    rooms: int = 4
    room_size_range: tuple[float, float] = (3.0, 5.0)  # interior span, meters
    door_width: float = 0.75
    sealed_door_probability: float = 0.0
    furniture_per_room: int = 2
    resolution: float = 0.25
    floor_z: float = 0.0
    ceiling_z: float = 2.6
    seed: int = 0

    def __post_init__(self):
        for name, value in (("room_size_range", self.room_size_range), ("door_width", self.door_width),
                            ("resolution", self.resolution)):
            if not all(0.0 < v < math.inf for v in np.ravel(value)):  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.sealed_door_probability <= 1.0:
            raise ValueError(f"sealed_door_probability must lie in [0, 1], got {self.sealed_door_probability}")
        if self.rooms < 1:
            raise SpecInfeasible("need at least one room")
        if self.door_width < 2 * self.resolution:
            raise SpecInfeasible("door width must be at least two cells")
        if self.room_size_range[0] > self.room_size_range[1]:
            raise SpecInfeasible("room size range is inverted")
        if self.room_size_range[0] / self.resolution < MIN_ROOM_SPAN:
            raise SpecInfeasible(
                f"rooms must span at least {MIN_ROOM_SPAN} cells "
                f"({MIN_ROOM_SPAN * self.resolution} m at this resolution)"
            )


@dataclass
class EpisodeSpec:
    count: int = 10
    length_range: tuple[float, float] = (5.0, 15.0)  # geodesic, meters
    instructions_per_path: int = 1
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, self.length_range)):
            raise ValueError(f"length_range must be finite, got {self.length_range}")
        if not 0 <= self.length_range[0] <= self.length_range[1]:
            raise ValueError(f"length_range must hold 0 <= min <= max, got {self.length_range}")
        if self.count < 1 or self.instructions_per_path < 1:
            raise SpecInfeasible("episode and instruction counts must be at least 1")


_TEMPLATES = (
    "Walk {length:.0f} meters to the spot near ({gx:.1f}, {gy:.1f}).",
    "Head through the rooms and stop close to ({gx:.1f}, {gy:.1f}).",
    "Make your way across the floor until you reach ({gx:.1f}, {gy:.1f}), then wait there.",
)


def _room_lattice(rooms: int) -> tuple[int, int]:
    """Rooms are laid out on the smallest lattice holding the request."""
    rooms_x = max(1, math.ceil(math.sqrt(rooms)))
    rooms_y = max(1, math.ceil(rooms / rooms_x))
    return rooms_x, rooms_y


def generate_scene(spec: FloorplanSpec, scene_id: str | None = None) -> tuple[Scene, Scene]:
    """Build a floorplan; returns the grid scene and its graph twin."""
    if scene_id is None:
        scene_id = f"syn-{spec.seed}"
    rng = random.Random(spec.seed)
    res = spec.resolution
    rooms_x, rooms_y = _room_lattice(spec.rooms)

    def spans(count: int) -> list[int]:
        lo, hi = spec.room_size_range
        return [max(MIN_ROOM_SPAN, round(rng.uniform(lo, hi) / res)) for _ in range(count)]

    col_spans = spans(rooms_x)
    row_spans = spans(rooms_y)
    width = sum(col_spans) + rooms_x + 1
    height = sum(row_spans) + rooms_y + 1

    navigable = np.ones((height, width), dtype=bool)
    semantic = np.full((height, width), LABEL_FLOOR, dtype=np.uint8)

    # wall indices: outer ring plus one wall after every room span
    v_walls = list(itertools.accumulate((span + 1 for span in col_spans), initial=0))
    h_walls = list(itertools.accumulate((span + 1 for span in row_spans), initial=0))
    navigable[:, v_walls] = False
    navigable[h_walls, :] = False
    semantic[~navigable] = LABEL_WALL

    x_bands = [(v_walls[i] + 1, v_walls[i + 1] - 1) for i in range(rooms_x)]
    y_bands = [(h_walls[i] + 1, h_walls[i + 1] - 1) for i in range(rooms_y)]

    door_cells: list[tuple[int, int]] = []
    door_width = max(2, round(spec.door_width / res))
    if any(b[1] - b[0] + 1 < door_width + 2 for b in x_bands + y_bands):
        raise SpecInfeasible("door width does not fit the smallest room span")

    def carve(cells):
        for ix, iy in cells:
            navigable[iy, ix] = True
            semantic[iy, ix] = LABEL_DOOR

    # one door per internal wall segment between adjacent rooms
    for ix in v_walls[1:-1]:
        for y0, y1 in y_bands:
            if rng.random() < spec.sealed_door_probability:
                continue
            start = rng.randint(y0 + 1, y1 - door_width)
            carve([(ix, iy) for iy in range(start, start + door_width)])
            door_cells.append((ix, start + door_width // 2))
    for iy in h_walls[1:-1]:
        for x0, x1 in x_bands:
            if rng.random() < spec.sealed_door_probability:
                continue
            start = rng.randint(x0 + 1, x1 - door_width)
            carve([(ix, iy) for ix in range(start, start + door_width)])
            door_cells.append((start + door_width // 2, iy))

    grid = GridWorld(
        resolution=res,
        origin=Point3(0.0, 0.0, spec.floor_z),
        width=width,
        height=height,
        navigable=navigable,
        semantic=semantic,
        floor_z=spec.floor_z,
        ceiling_z=spec.ceiling_z,
    )

    room_centers = _place_furniture(grid, x_bands, y_bands, spec, rng)

    grid_scene = Scene(scene_id=scene_id, grid=grid)
    graph_scene = _graph_twin(scene_id, grid, room_centers, door_cells, x_bands, y_bands)
    return grid_scene, graph_scene


def _place_furniture(grid, x_bands, y_bands, spec, rng) -> list[tuple[int, int]]:
    """Scatter single-cell furniture blocks; rooms stay connected.

    A block is only placed where its whole 3x3 neighborhood is free, so
    blocks never touch walls or each other and passage around each block
    survives.  Furniture labels are assigned per room.  Returns one
    navigable center cell per room for the graph twin.
    """
    centers = []
    room_index = 0
    for y0, y1 in y_bands:
        for x0, x1 in x_bands:
            cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
            label = FURNITURE_LABELS[room_index % len(FURNITURE_LABELS)]
            placed = 0
            attempts = 0
            while placed < spec.furniture_per_room and attempts < 50:
                attempts += 1
                ix = rng.randint(x0 + 2, x1 - 2)
                iy = rng.randint(y0 + 2, y1 - 2)
                if (ix, iy) == (cx, cy):
                    continue
                if not grid.navigable[iy - 1 : iy + 2, ix - 1 : ix + 2].all():
                    continue
                grid.navigable[iy, ix] = False
                grid.semantic[iy, ix] = label
                placed += 1
            centers.append((cx, cy))
            room_index += 1
    return centers


def _graph_twin(scene_id, grid, room_centers, door_cells, x_bands, y_bands) -> Scene:
    """Navigation graph over room centers and door cells."""
    nodes: dict[str, Point3] = {}
    for i, cell in enumerate(room_centers):
        nodes[f"r{i}"] = grid.cell_center(cell)
    for i, cell in enumerate(door_cells):
        nodes[f"d{i}"] = grid.cell_center(cell)

    def room_of(cell) -> int | None:
        ix, iy = cell
        for ry, (y0, y1) in enumerate(y_bands):
            for rx, (x0, x1) in enumerate(x_bands):
                if x0 <= ix <= x1 and y0 <= iy <= y1:
                    return ry * len(x_bands) + rx
        return None

    edges = []
    for i, (dx, dy) in enumerate(door_cells):
        # the rooms a door joins sit just off the wall on either side
        for neighbor in ((dx - 1, dy), (dx + 1, dy), (dx, dy - 1), (dx, dy + 1)):
            room = room_of(neighbor)
            if room is not None:
                edges.append((f"r{room}", f"d{i}"))
    graph = NavGraph(nodes=nodes, edges=sorted(set(edges)))
    return Scene(scene_id=scene_id, graph=graph)


def _bearing(a: Point3, b: Point3) -> float:
    return math.atan2(b.y - a.y, b.x - a.x) % (2 * math.pi)


def _draw_ahead(scene: Scene, rng: random.Random, locations: list, count: int, max_length: float) -> list[tuple]:
    """``count`` attempts' (start, goal, geodesic distance), drawn as one
    at a time would draw them.  A pair on one location, or further apart
    in a straight line than ``max_length``, gets inf unsearched: steps and
    edges are Euclidean lengths, so no route is shorter than the straight
    line.  The other distances are one ``NavIndex.settle`` batch."""
    nav = scene.nav
    pairs = [(rng.choice(locations), rng.choice(locations)) for _ in range(count)]
    ids = np.array([(nav.id_of[start], nav.id_of[goal]) for start, goal in pairs])
    near = np.linalg.norm(nav.points[ids[:, 0]] - nav.points[ids[:, 1]], axis=1) <= max_length * (1 + 1e-9)
    asked = np.flatnonzero(near & (ids[:, 0] != ids[:, 1]))
    starts, goals = ids[asked].T.tolist()
    d = np.full(count, math.inf)
    d[asked] = [row[s] for s, row in zip(starts, nav.settle([(g, (s,)) for s, g in zip(starts, goals)]))]
    return [(start, goal, dist) for (start, goal), dist in zip(pairs, d.tolist())]


def generate_episodes(scene: Scene, spec: EpisodeSpec, id_prefix: str = "ep") -> list[Episode]:
    """Sample reference paths and templated instructions.

    Starts and goals are drawn uniformly from navigable locations, kept
    when their geodesic separation lies within the length range, and
    joined by the shortest path.  Each sampled path yields
    ``instructions_per_path`` episodes sharing that path.

    No draw depends on a distance, so attempts are drawn ahead in blocks
    of twice the paths still wanted, doubled after a block with no path,
    at most ``_BLOCK_ATTEMPTS`` and the attempts left (``_draw_ahead``),
    and taken in draw order: the episodes and the attempt count are those
    of one search per attempt.
    """
    rng = random.Random(spec.seed)
    episodes: list[Episode] = []
    if scene.grid is not None:
        iys, ixs = np.nonzero(scene.grid.navigable)  # row-major
        locations = list(zip(ixs.tolist(), iys.tolist()))
    else:
        locations = sorted(scene.graph.nodes)

    attempts, scale, drawn_at = 0, 1, None  # the block's growth, and the episodes held at its last draw
    budget = spec.count * 300
    ahead: list[tuple] = []  # the attempts drawn ahead, the next one last
    while len(episodes) < spec.count * spec.instructions_per_path:
        if attempts >= budget:
            raise SamplingExhausted(
                f"sampled {len(episodes)} episodes in {attempts} attempts, "
                f"wanted {spec.count * spec.instructions_per_path}"
            )
        if not ahead:
            scale, drawn_at = 2 * scale if len(episodes) == drawn_at else 1, len(episodes)
            wanted = spec.count - len(episodes) // spec.instructions_per_path
            count = min(2 * wanted * scale, _BLOCK_ATTEMPTS, budget - attempts)
            ahead = _draw_ahead(scene, rng, locations, count, spec.length_range[1])[::-1]
        attempts += 1
        start, goal, d = ahead.pop()
        if not (spec.length_range[0] <= d <= spec.length_range[1]):
            continue
        path = [scene.location_point(loc) for loc in scene.nav.route(start, goal)]
        idx = len(episodes) // spec.instructions_per_path
        path_id = f"{id_prefix}p{idx:04d}"
        heading = _bearing(path[0], path[1]) if len(path) > 1 else 0.0
        for k in range(spec.instructions_per_path):
            template = _TEMPLATES[k % len(_TEMPLATES)]
            text = template.format(length=d, gx=path[-1].x, gy=path[-1].y)
            episodes.append(
                Episode(
                    episode_id=f"{id_prefix}{idx:04d}_{k}",
                    path_id=path_id,
                    scene_id=scene.scene_id,
                    path=path,
                    start_heading=heading,
                    instruction_id=f"{path_id}_{k}",
                    instruction=text,
                )
            )
    return episodes
