"""Scenes and geodesic queries.

A scene is either a navigation graph (nodes at 3D positions, undirected
edges weighted by Euclidean length) or a planar occupancy grid
(8-connected navigable cells at a fixed resolution, bounded below and
above by a floor and ceiling height).  Both kinds answer the same three
questions: geodesic distance between two points, the shortest path
between them, and a pairwise connectivity matrix over path endpoints.

Every query runs on the scene's ``NavIndex``, built on first use: integer
ids for the navigable locations and one padded neighbor array per id,
the same on both scene kinds.  One kernel answers every question: rounds
of a Dijkstra in numpy (``NavIndex._rounds``), each of which closes a
window of ids at once, run until every id asked about is final.  A
source's field (its distance row, the ids it has left open and the
distance below which it is final) pauses there and resumes on the next
question, so a query costs the ball out to its farthest target, not the
whole scene, and a question inside that ball is a lookup.  Every
question goes through one entry point, ``NavIndex.settle``: it runs the
sources a batch of questions leaves open as the rows of one set of
rounds and stores each row back as its source's field.  A step toward
``b`` is read off ``b``'s field (``NavIndex.next_location``), and a
route is that step repeated (``NavIndex.route``), so the oracle's steps
toward a target and its distance-to-goal checks share one field.  Moves
and oracle steps share the index's one adjacency (``NavIndex.adjacent``).
The fields live as long as the scene and are the package's only
distance cache; the endpoint matrix (``connectivity_matrix``) is one
batch over the path ends.  The index is built from the scene as it is
at the first query, so a scene must not be mutated after it.

The index also caches ``Scene.snap_point`` by exact query point, misses
included, so each distinct point is snapped once per scene.

Conventions used throughout the package:

* grid arrays have shape ``(height, width)`` and are indexed ``[iy, ix]``;
* a cell is the tuple ``(ix, iy)``;
* ``origin`` is the world position of the center of cell ``(0, 0)``;
* headings are radians in ``[0, 2*pi)`` with 0 along +x and ``pi/2``
  along +y (counterclockwise when viewed from above).
"""

from __future__ import annotations

import base64
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import Disconnected, SnapFailure

FORMAT_VERSION = "1"

GRAPH_SNAP_RADIUS = 0.5
GRID_SNAP_RADIUS = 1.0

_SQRT2 = math.sqrt(2.0)

# (dx, dy) offsets in lexicographic order: the column order of every
# grid neighbor row, so it fixes which of several equal-length routes a
# walk takes.
_NEIGHBORS_8 = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

Cell = tuple[int, int]

_TEXT = (str, bytes)
_REAL = (int, float)
_FLOAT_MAX = sys.float_info.max


class Point3(NamedTuple):
    x: float
    y: float
    z: float


def as_point(value) -> Point3:
    """Coerce a 3-sequence of numbers (or Point3) to Point3; raises
    TypeError for text, which ``float`` would otherwise parse, and
    ValueError for a coordinate that is infinite, nan or beyond the float
    range."""
    if isinstance(value, Point3):
        return value
    if isinstance(value, _TEXT):
        raise TypeError(f"a point is three numbers, not {value!r}")
    x, y, z = value
    if isinstance(x, _TEXT) or isinstance(y, _TEXT) or isinstance(z, _TEXT):
        raise TypeError(f"a point is three numbers, not {value!r}")
    try:
        point = Point3(float(x), float(y), float(z))
    except OverflowError:  # an integer beyond the float range
        point = Point3(math.inf, math.inf, math.inf)
    if not all(map(math.isfinite, point)):
        raise ValueError(f"a point is three finite numbers, not {value!r}")
    return point


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    return math.dist(a, b)


def normalize_heading(heading: float) -> float:
    # the mod of a tiny negative rounds up to the modulus itself
    out = heading % (2.0 * math.pi)
    return 0.0 if out >= 2.0 * math.pi else out


@dataclass(frozen=True)
class Pose:
    """Agent position plus heading; heading is normalized on construction."""

    position: Point3
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "position", as_point(self.position))
        object.__setattr__(self, "heading", normalize_heading(self.heading))


@dataclass
class NavGraph:
    """Undirected navigation graph with nodes at fixed 3D positions."""

    nodes: dict[str, Point3]
    edges: list[tuple[str, str]]
    adjacency: dict[str, list[str]] = field(init=False, repr=False)

    def __post_init__(self):
        for node, position in self.nodes.items():
            if not all(abs(x) <= sys.float_info.max for x in position):  # an int beyond the float range fails too
                raise ValueError(f"node {node} position {tuple(position)} is not finite")
        self.nodes = {str(k): as_point(v) for k, v in self.nodes.items()}
        seen = set()
        normalized = []
        for a, b in self.edges:
            a, b = str(a), str(b)
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a}, {b}) references an unknown node")
            if a == b:
                raise ValueError(f"self edge at node {a}")
            if self.nodes[a] == self.nodes[b]:
                raise ValueError(f"edge ({a}, {b}) has zero length: both nodes are at {tuple(self.nodes[a])}")
            key = (a, b) if a < b else (b, a)
            if key not in seen:
                seen.add(key)
                normalized.append(key)
        normalized.sort()
        self.edges = normalized
        adjacency: dict[str, list[str]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for neighbors in adjacency.values():
            neighbors.sort()
        self.adjacency = adjacency

    def edge_weight(self, a: str, b: str) -> float:
        return euclidean(self.nodes[a], self.nodes[b])

    def snap(self, point: Sequence[float], radius: float = GRAPH_SNAP_RADIUS) -> str | None:
        """Nearest node id within radius (3D distance), or None.

        Ties break toward the smallest node id.
        """
        point = as_point(point)
        best = None
        for node_id in sorted(self.nodes):
            d = euclidean(point, self.nodes[node_id])
            if d <= radius and (best is None or d < best[0] - 1e-12):
                best = (d, node_id)
        return None if best is None else best[1]


def check_resolution(resolution) -> None:
    """Raise ValueError unless ``resolution`` is positive and finite."""
    if not 0 < resolution <= sys.float_info.max:  # NaN and an int beyond the float range fail too
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")


@dataclass
class GridWorld:
    """Planar occupancy grid with per-cell semantic labels; geometry
    only: which cells are one step apart is ``NavIndex.adjacent``'s call.

    ``navigable`` and ``semantic`` have shape ``(height, width)`` and are
    indexed ``[iy, ix]``.  Cell centers sit at
    ``origin + (ix * resolution, iy * resolution, 0)`` with z equal to
    ``floor_z``.
    """

    resolution: float
    origin: Point3
    width: int
    height: int
    navigable: np.ndarray
    semantic: np.ndarray
    floor_z: float
    ceiling_z: float

    def __post_init__(self):
        self.navigable = np.asarray(self.navigable, dtype=bool)
        self.semantic = np.asarray(self.semantic, dtype=np.uint8)
        if self.navigable.shape != (self.height, self.width):
            raise ValueError(
                f"navigable shape {self.navigable.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        if self.semantic.shape != self.navigable.shape:
            raise ValueError("semantic and navigable shapes differ")
        check_resolution(self.resolution)
        for name, value in (*zip(("origin.x", "origin.y", "origin.z"), self.origin),
                            ("floor_z", self.floor_z), ("ceiling_z", self.ceiling_z)):
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {value!r}")
        self.origin = as_point(self.origin)
        if self.ceiling_z <= self.floor_z:
            raise ValueError("ceiling_z must exceed floor_z")

    def cell_index(self, point: Sequence[float]) -> Cell:
        """Cell whose center is nearest the point (may be out of bounds)."""
        point = as_point(point)
        ix = math.floor((point.x - self.origin.x) / self.resolution + 0.5)
        iy = math.floor((point.y - self.origin.y) / self.resolution + 0.5)
        return (ix, iy)

    def cell_center(self, cell: Cell) -> Point3:
        ix, iy = cell
        return Point3(
            self.origin.x + ix * self.resolution,
            self.origin.y + iy * self.resolution,
            self.floor_z,
        )

    def snap(self, point: Sequence[float], radius: float = GRID_SNAP_RADIUS) -> Cell | None:
        """Nearest navigable cell with center within radius, or None.

        Distance is measured in the ground plane; z is ignored because the
        grid models a single floor.  Ties break toward the smallest
        ``(iy, ix)``.
        """
        point = as_point(point)
        cx, cy = self.cell_index(point)
        if 0 <= cx < self.width and 0 <= cy < self.height and self.navigable[cy, cx]:
            d = math.hypot(point.x - (self.origin.x + cx * self.resolution),
                           point.y - (self.origin.y + cy * self.resolution))
            if d <= radius and d < self.resolution / 2 - 1e-12:  # any other center is over 1e-12 farther
                return (cx, cy)
        reach = math.ceil(radius / self.resolution) + 1
        y0, x0 = max(0, cy - reach), max(0, cx - reach)
        y1, x1 = min(self.height, cy + reach + 1), min(self.width, cx + reach + 1)
        if y0 >= y1 or x0 >= x1:  # the window misses the grid: no index arithmetic on a far-off cell
            return None
        iys, ixs = np.nonzero(self.navigable[y0:y1, x0:x1])  # row-major: (iy, ix) order
        iys += y0
        ixs += x0
        # cell_center's arithmetic, then math.hypot itself for the distances
        dx = point.x - (self.origin.x + ixs * self.resolution)
        dy = point.y - (self.origin.y + iys * self.resolution)
        best = None
        for d, ix, iy in zip(map(math.hypot, dx.tolist(), dy.tolist()), ixs.tolist(), iys.tolist()):
            if d <= radius and (best is None or d < best[0] - 1e-12):
                best = (d, (ix, iy))
        return None if best is None else best[1]


@dataclass
class Scene:
    """Tagged union of the two scene kinds; exactly one side is set."""

    scene_id: str
    graph: NavGraph | None = None
    grid: GridWorld | None = None

    def __post_init__(self):
        if (self.graph is None) == (self.grid is None):
            raise ValueError("scene must hold exactly one of graph or grid")

    @property
    def is_discrete(self) -> bool:
        return self.graph is not None

    @functools.cached_property
    def nav(self) -> NavIndex:
        """The scene's location index and distance cache, built on first use."""
        return NavIndex(self)

    def snap_point(self, point: Sequence[float]):
        """Snap to a node id (graph) or cell (grid); raises SnapFailure.

        Each distinct point is snapped once per scene: the result, a miss
        included, is cached on the scene's ``NavIndex``.
        """
        point = as_point(point)
        snaps = self.nav.snaps
        try:
            location = snaps[point]
        except KeyError:
            kind = self.graph if self.graph is not None else self.grid
            location = snaps[point] = kind.snap(point)
        if location is None:
            raise SnapFailure(point, GRAPH_SNAP_RADIUS if self.graph is not None else GRID_SNAP_RADIUS)
        return location

    def location_point(self, location) -> Point3:
        """World position of a snapped location (node id or cell)."""
        if self.graph is not None:
            return self.graph.nodes[location]
        return self.grid.cell_center(location)


# ---------------------------------------------------------------------------
# shortest-path search


def _grid_adjacency(grid: GridWorld) -> tuple[np.ndarray, np.ndarray]:
    """The 8-neighbors of every navigable cell (numbered by ``(ix, iy)``)
    as padded ``(n, 8)`` id and step arrays, one column per offset, each
    filled by one shifted gather: the id itself and inf where there is no
    step.  A diagonal step is kept only when both orthogonal cells beside
    it are navigable, so no step cuts a corner."""
    open_ = np.zeros((grid.width + 2, grid.height + 2), dtype=bool)  # [ix + 1, iy + 1]
    open_[1:-1, 1:-1] = grid.navigable.T
    number = np.zeros(open_.shape, dtype=np.int32)
    xs, ys = np.nonzero(open_)  # in id order
    number[xs, ys] = np.arange(len(xs))
    nbr = np.repeat(np.arange(len(xs), dtype=np.int32)[:, None], len(_NEIGHBORS_8), axis=1)
    steps = np.full(nbr.shape, math.inf)
    for k, (dx, dy) in enumerate(_NEIGHBORS_8):
        ok = open_[xs + dx, ys + dy]
        if dx and dy:  # no corner cutting
            ok &= open_[xs + dx, ys] & open_[xs, ys + dy]
        nbr[ok, k] = number[xs[ok] + dx, ys[ok] + dy]
        steps[ok, k] = grid.resolution * _SQRT2 if dx and dy else grid.resolution
    return nbr, steps


class NavIndex:
    """Location ids, the adjacency and the distance cache of a scene.

    Ids number the navigable locations in their own order (cells by
    ``(ix, iy)``, graph nodes by id).  Row u of ``_nbr`` and ``_steps``
    holds u's neighbors and step lengths in expansion order (the
    ``_NEIGHBORS_8`` offsets on grids, sorted adjacency on graphs),
    padded to the largest degree with u itself at an infinite step: the
    scene's one adjacency, which moves and oracle steps share
    (``adjacent``).  Row u of ``points`` is u's world position, as
    ``Scene.location_point`` gives it.

    ``_fields`` is the one distance cache: per source id, a distance row,
    the ids it has left open and the top below which its distances are
    final, paused once the ids asked about are final and resumed on a
    later question.  Routes are read off the target's field with no
    parent array: ``next_location`` takes one step, to the first
    neighbor in column order that stays on a shortest route, and
    ``route`` repeats it.  Graphs have no zero-length edges (``NavGraph``
    rejects them), so every step lowers the distance.

    Every float is the one a heap Dijkstra gives.  The heap pops ids in
    (distance, id) order: steps are longer than zero, so no pop is
    followed by a smaller key.  A popped id's float is therefore the
    fold of its neighbors' candidates in that order under the rule
    ``nd < dist[v] - 1e-12``, a rule that keeps the first of two
    candidates within 1e-12 of each other.  ``_rounds`` replays that
    fold: it closes a window of ids at a time, no member of which can
    lower another, and folds each target's candidates in pop order, so
    any run of windows, paused anywhere between them, gives the heap's
    floats.
    """

    def __init__(self, scene: Scene):
        if scene.graph is not None:
            graph = scene.graph
            self.locations = sorted(graph.nodes)
            self.id_of = {loc: i for i, loc in enumerate(self.locations)}
            n, degree = len(self.locations), max(map(len, graph.adjacency.values()), default=0)
            self._nbr = np.repeat(np.arange(n, dtype=np.int32)[:, None], degree, axis=1)
            self._steps = np.full(self._nbr.shape, math.inf)
            for u, loc in enumerate(self.locations):
                adj = graph.adjacency[loc]
                self._nbr[u, : len(adj)] = [self.id_of[nxt] for nxt in adj]
                self._steps[u, : len(adj)] = [graph.edge_weight(loc, nxt) for nxt in adj]
            self.points = np.array([graph.nodes[loc] for loc in self.locations])
        else:
            grid, cells = scene.grid, np.argwhere(scene.grid.navigable.T)
            self.locations = [tuple(cell) for cell in cells.tolist()]
            self.id_of = {loc: i for i, loc in enumerate(self.locations)}
            self._nbr, self._steps = _grid_adjacency(grid)
            self.points = np.column_stack((grid.origin.x + cells[:, 0] * grid.resolution,  # cell_center's arithmetic
                                           grid.origin.y + cells[:, 1] * grid.resolution,
                                           np.full(len(cells), grid.floor_z)))
        self._grid = scene.grid
        # the rounds' window: the shortest step, less 1e-6 of it for rounding
        self._window = np.min(self._steps, initial=math.inf) * (1 - 1e-6)
        # per source id: (dist, front, top) of a search paused between rounds
        self._fields: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        # Scene.snap_point's results by exact query point; None marks a miss
        self.snaps: dict[Point3, object] = {}

    def route(self, a, b) -> tuple | None:
        """Shortest route from location ``a`` to ``b`` as a tuple of
        locations, or None when no route exists: ``next_location``
        repeated until it reaches ``b``."""
        path = [a]
        while a != b:
            a = self.next_location(a, b)
            if a is None:
                return None
            path.append(a)
        return tuple(path)

    def adjacent(self, a, b) -> bool:
        """Whether ``b`` is in location ``a``'s neighbor row; False for a
        ``b`` that is no location (a wall or an off-grid cell)."""
        u, v = self.id_of[a], self.id_of.get(b)
        return v is not None and v != u and v in self._nbr[u].tolist()

    def next_location(self, a, b):
        """The location after ``a`` (not ``b``) on the route to ``b`` the
        tie rule picks, or None when no route exists: the first neighbor,
        in column order, whose distance on ``b``'s field (final out to
        ``a``) plus the step is bitwise ``a``'s.  The neighbor that set
        ``a``'s distance passes; one that is not final yet lies at least
        as far from ``b`` as ``a`` does and cannot, nor can the padding
        (an infinite step); steps are symmetric, so every step stays on a
        shortest route.  On grids a neighbor ``b`` opens no field: the
        direct step is the only shortest route (res or sqrt(2) res,
        against at least 2 res round).  Graphs keep the field walk, where
        a node collinear with an edge can tie with it."""
        if self._grid is not None and self.adjacent(a, b):
            return b
        u = self.id_of[a]
        dist = self.settle([(self.id_of[b], (u,))])[0]
        if dist[u] == math.inf:
            return None
        nbr = self._nbr[u]
        return self.locations[nbr[np.argmax(dist[nbr] + self._steps[u] == dist[u])]]

    def settle(self, asks) -> list[np.ndarray]:
        """One distance row per ``(source, ids)`` ask: the field of location
        id ``source``, final at least at every id in ``ids``; read it, never
        write it.  An ask whose ids lie below its field's top is a lookup.
        The other sources run as the rows of one ``_rounds``, each stored
        back as its source's field: its own open entries, and its smallest
        open distance plus ``_window`` as its top.  A lone resumed field
        runs in place; a larger block copies the resumed fields in and back
        and its new rows out, so only an all-new block outlives the call."""
        fields, n = self._fields, len(self.locations)
        asked: dict[int, list] = {}  # the sources to search, in order of first ask -> the ids asked of each
        for source, ids in asks:
            field = fields.get(source)
            if field is None or not all(field[0][i] < field[2] for i in ids):
                asked.setdefault(source, []).extend(ids)
        if asked:
            old = [fields.get(source, (None, np.array([source], dtype=np.intp))) for source in asked]
            copied = len(old) > 1 and any(field[0] is not None for field in old)
            block = old[0][0][None] if len(old) == 1 and old[0][0] is not None else np.full((len(old), n), math.inf)
            for r, (dist, *_) in enumerate(old):
                if copied and dist is not None:
                    block[r] = dist
            block[np.arange(len(old)), list(asked)] = 0.0  # a resumed row holds it already
            front = np.sort(self._rounds(  # sorted, the open entries of each row follow the row before's
                block.reshape(-1), np.concatenate([r * n + field[1] for r, field in enumerate(old)]),
                np.concatenate([r * n + np.asarray(ids, dtype=np.intp) for r, ids in enumerate(asked.values())])))
            fronts = np.split(front % n, np.searchsorted(front, np.arange(1, len(old)) * n))
            for source, (dist, *_), row, front in zip(asked, old, block, fronts):
                if dist is None:
                    dist = row.copy() if copied else row
                elif copied:
                    dist[:] = row
                fields[source] = (dist, front, dist[front].min() + self._window if front.size else math.inf)
        return [fields[source][0] for source, _ in asks]

    def _rounds(self, dist: np.ndarray, front: np.ndarray, pending: np.ndarray) -> np.ndarray:
        """Search the rows of ``dist`` (one row of n ids per source, flat)
        out of their open entries ``front`` until each flat entry in
        ``pending`` is final or nothing is left open; return those still open.

        A round's window holds every open entry below the smallest open
        distance plus ``_window``: a step from a member lands above it, so
        each member is final.  A row stops before it relaxes anything once
        every entry asked of it lies below that top, its members still
        open; a later call recomputes that same round.  Otherwise the
        round relaxes its members and folds each target's candidates in
        pop order under the heap's rule (see the class docstring); a plain
        minimum, or another order, differs where two sums nearly tie.
        """
        n = len(self.locations)
        stopped = []  # the open entries of the rows that stopped
        while front.size:
            d = dist[front]
            top = d.min() + self._window
            pending = pending[dist[pending] >= top]
            if not pending.size:
                break
            if dist.size > n:  # a row whose asked entries are all final stops
                live = np.bincount(pending // n, minlength=dist.size // n)[front // n] > 0
                stopped.append(front[~live])
                front, d = front[live], d[live]
            inside = d < top
            members, d = front[inside], d[inside]
            front = front[~inside]
            order = np.lexsort((members, d))  # pop order: distance, then id
            members, d = members[order], d[order]
            u = members % n
            targets = self._nbr[u].astype(np.intp)
            targets += (members - u)[:, None]
            cands = self._steps[u]
            cands += d[:, None]
            # a distance only falls, so what the rule refuses now it refuses for good:
            # every final target, and every padding step (inf)
            keep = cands < dist[targets] - 1e-12
            targets, cands = targets[keep], cands[keep]
            order = np.argsort(targets, kind="stable")  # by target, each in pop order
            targets, cands = targets[order], cands[order]
            first = np.ones(targets.size, dtype=bool)
            first[1:] = targets[1:] != targets[:-1]
            head, c = targets[first], cands[first]
            front = np.concatenate((front, head[dist[head] == math.inf]))
            dist[head] = c  # each target's first candidate passed the rule above
            # a later candidate the rule refuses against the first, it refuses against what follows
            later = cands < c[np.cumsum(first) - 1] - 1e-12
            targets, cands = targets[later], cands[later]
            while targets.size:  # the first candidate left for each target, then the next
                first = np.ones(targets.size, dtype=bool)
                first[1:] = targets[1:] != targets[:-1]
                head, c = targets[first], cands[first]
                better = c < dist[head] - 1e-12
                dist[head[better]] = c[better]
                targets, cands = targets[~first], cands[~first]
        return np.concatenate((*stopped, front))

    def distance(self, a, b) -> float:
        """Geodesic distance between two locations, inf when unreachable."""
        target = self.id_of[b]
        return float(self.settle([(self.id_of[a], (target,))])[0][target])


# ---------------------------------------------------------------------------
# public queries


def geodesic_distance(scene: Scene, a: Sequence[float], b: Sequence[float]) -> float:
    """Length of the shortest navigable route between two points.

    Both points are snapped first (each distinct point once per scene);
    two points on one location are 0.0 apart without opening a field,
    and otherwise the answer is read from the source's resumable field
    (``NavIndex.distance``).  Unreachable pairs give ``math.inf``.
    Raises SnapFailure when a point has no navigable location in range.
    """
    la = scene.snap_point(a)
    lb = scene.snap_point(b)
    if la == lb:
        return 0.0
    return scene.nav.distance(la, lb)


def shortest_path(scene: Scene, a: Sequence[float], b: Sequence[float]) -> list[Point3]:
    """Shortest route as world positions (node positions or cell centers).

    Raises Disconnected when no route exists.
    """
    found = scene.nav.route(scene.snap_point(a), scene.snap_point(b))
    if found is None:
        raise Disconnected(f"no route between {tuple(a)} and {tuple(b)} in {scene.scene_id}")
    return [scene.location_point(loc) for loc in found]


def connectivity_matrix(scene: Scene, endpoints: Sequence[tuple[Sequence[float], Sequence[float]]]) -> np.ndarray:
    """Pairwise geodesic travel costs over path endpoints.

    ``endpoints[i]`` is the (start, end) pair of path i; entry (i, j) is
    the geodesic distance from end of path i to start of path j, inf when
    unreachable.  The diagonal is 0.  Snap failures carry the offending
    endpoint index; a path whose end does not reach its own start raises
    Disconnected carrying its index.

    All rows come from one ``NavIndex.settle`` batch over the path ends,
    whose fields stay open like any other.
    """
    starts = []
    ends = []
    for i, (start, end) in enumerate(endpoints):
        try:
            starts.append(scene.snap_point(start))
            ends.append(scene.snap_point(end))
        except SnapFailure as exc:
            raise SnapFailure(exc.point, exc.radius, index=i) from None
    nav = scene.nav
    starts = [nav.id_of[s] for s in starts]
    rows = nav.settle([(nav.id_of[e], starts) for e in ends])  # a repeated end is one row of the batch
    cost = np.array([row[starts] for row in rows]).reshape(len(ends), len(starts))
    stuck = np.flatnonzero(np.isinf(np.diagonal(cost))).tolist()
    if stuck:
        raise Disconnected(f"the end of path {stuck[0]} does not reach its start in {scene.scene_id}", index=stuck[0])
    np.fill_diagonal(cost, 0.0)
    return cost


# ---------------------------------------------------------------------------
# serialization: every artifact, trace record and agent message is one
# canonical JSON line (UTF-8, sorted keys, compact separators, one
# trailing newline), made by ``json_line``; files are written and read
# only through the helpers below it


def json_line(record) -> str:
    """``record`` in canonical form, newline included; raises ValueError
    for NaN or an infinity, which standard JSON cannot hold."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json(path, payload) -> None:
    """Write ``payload`` as one line; a payload ``json_line`` refuses leaves no file."""
    text = json_line(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    """The JSON document in ``path``; raises ValueError naming the file,
    line and column where it is not JSON, or the file when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} line {exc.lineno}: {exc.msg} (column {exc.colno})") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_json_lines(path) -> Iterator[tuple[int, object]]:
    """``(line number, record)`` for each non-blank line of a JSON-lines
    file; raises ValueError naming the line that is not JSON, or the file
    when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(f"{path} line {number}: {exc.msg} (column {exc.colno})") from None
                    yield number, record
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


# input records: a reader checks each through ``read_fields`` against a
# schema of field name -> kind, a function of the JSON value that returns
# it checked (an id as its text, a number as a float, a point as a Point3)
# or raises ValueError saying what the value must be


def _kind(what, types, test=None, convert=None):
    """A value of one of ``types`` that passes ``test``, as ``convert`` makes it."""
    def read(value):
        if type(value) in types and (test is None or test(value)):
            return value if convert is None else convert(value)
        raise ValueError(f"must be {what}, got {value!r}")
    read.types = types if test is None and convert is None else None  # for ``list_of``: a one-pass check
    return read


TEXT = _kind("text", (str,))
BOOL = _kind("true or false", (bool,))
OBJECT = _kind("an object", (dict,))
ID = _kind("a string or an integer", (str, int), convert=str)
INT = _kind("a non-negative integer", (int,), lambda value: value >= 0)
NUMBER = _kind("a finite number", _REAL, lambda value: abs(value) <= _FLOAT_MAX, float)


def POINT(value) -> Point3:
    if type(value) is list and len(value) == 3:
        x, y, z = value  # NaN and an int beyond the float range fail the bound
        if type(x) in _REAL and type(y) in _REAL and type(z) in _REAL and \
                abs(x) <= _FLOAT_MAX and abs(y) <= _FLOAT_MAX and abs(z) <= _FLOAT_MAX:
            return Point3(float(x), float(y), float(z))
    raise ValueError(f"must be three finite numbers, got {value!r}")


def list_of(kind, empty=True):
    """The kind of a list of values of ``kind``, which may be empty or not."""
    def read(value) -> list:
        if type(value) is not list or not (value or empty):
            raise ValueError(f"must be a {'' if empty else 'non-empty '}list, got {value!r}")
        if getattr(kind, "types", None) and set(map(type, value)) <= set(kind.types):
            return value
        items = []
        for index, item in enumerate(value):
            try:
                items.append(kind(item))
            except ValueError as exc:
                raise ValueError(f"item {index} {exc}") from None
        return items
    return read


POINTS = list_of(POINT, empty=False)


def read_fields(record, schema: dict, where: str) -> list:
    """``record``'s values of the fields in ``schema``, in its order, each
    checked by its kind; a ValueError names ``where`` and the field."""
    if type(record) is not dict:
        raise ValueError(f"{where}: expected a JSON object")
    values = []
    for name, kind in schema.items():
        if name not in record:
            raise ValueError(f"{where}: missing field {name!r}")
        try:
            values.append(kind(record[name]))
        except ValueError as exc:
            raise ValueError(f"{where}: field {name!r} {exc}") from None
    return values


def encode_bitmask(mask: np.ndarray) -> str:
    """Pack a boolean array row-major into base64 text."""
    return base64.b64encode(np.packbits(mask.astype(np.uint8), axis=None).tobytes()).decode("ascii")


def decode_items(data: str, dtype, count: int) -> np.ndarray:
    """Base64 text as a flat read-only array of ``count`` ``dtype`` items;
    raises ValueError when it holds any other number."""
    raw = np.frombuffer(base64.b64decode(data), dtype=dtype)
    if len(raw) != count:
        raise ValueError(f"encoded array holds {len(raw)} {np.dtype(dtype).name} items, expected {count}")
    return raw


def decode_bitmask(data: str, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of ``encode_bitmask``; raises ValueError unless the payload
    is exactly the bytes a ``shape`` mask packs into."""
    cells = shape[0] * shape[1]
    flat = np.unpackbits(decode_items(data, np.uint8, -(-cells // 8)), count=cells)
    return flat.reshape(shape).astype(bool)


def encode_bytes(values: np.ndarray) -> str:
    return base64.b64encode(values.astype(np.uint8).tobytes()).decode("ascii")


def decode_bytes(data: str, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of ``encode_bytes``; raises ValueError unless the payload
    holds exactly one byte per cell."""
    return decode_items(data, np.uint8, shape[0] * shape[1]).reshape(shape).copy()


def scene_to_dict(scene: Scene) -> dict:
    if scene.graph is not None:
        return {
            "format_version": FORMAT_VERSION,
            "scene_id": scene.scene_id,
            "type": "graph",
            "nodes": {k: list(v) for k, v in sorted(scene.graph.nodes.items())},
            "edges": [list(e) for e in scene.graph.edges],
        }
    grid = scene.grid
    return {
        "format_version": FORMAT_VERSION,
        "scene_id": scene.scene_id,
        "type": "grid",
        "resolution": grid.resolution,
        "origin": list(grid.origin),
        "width": grid.width,
        "height": grid.height,
        "floor_z": grid.floor_z,
        "ceiling_z": grid.ceiling_z,
        "navigable": encode_bitmask(grid.navigable),
        "semantic": encode_bytes(grid.semantic),
    }


_SCENE_TYPE = _kind("graph or grid", (str,), lambda value: value in ("graph", "grid"))
_EDGE = _kind("a pair of ids", (list,), lambda value: len(value) == 2 and {type(v) for v in value} <= {str, int},
              lambda value: [str(v) for v in value])
_GRAPH_FIELDS = {"scene_id": ID, "nodes": OBJECT, "edges": list_of(_EDGE)}
_GRID_FIELDS = {"scene_id": ID, "resolution": NUMBER, "origin": POINT, "width": INT, "height": INT,
                "navigable": TEXT, "semantic": TEXT, "floor_z": NUMBER, "ceiling_z": NUMBER}


def scene_from_dict(payload: dict, where: str = "scene") -> Scene:
    """Inverse of ``scene_to_dict``; each ValueError it raises starts with ``where``."""
    kind, = read_fields(payload, {"type": _SCENE_TYPE}, where)
    if kind == "graph":
        scene_id, nodes, edges = read_fields(payload, _GRAPH_FIELDS, where)
        nodes = dict(zip(nodes, read_fields(nodes, dict.fromkeys(nodes, POINT), f"{where} nodes")))
    else:
        scene_id, resolution, origin, width, height, navigable, semantic, floor_z, ceiling_z = read_fields(
            payload, _GRID_FIELDS, where)
    try:
        if kind == "graph":
            return Scene(scene_id, graph=NavGraph(nodes, edges))
        shape = (height, width)
        return Scene(scene_id, grid=GridWorld(resolution, origin, width, height, decode_bitmask(navigable, shape),
                                              decode_bytes(semantic, shape), floor_z, ceiling_z))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def save_scene(scene: Scene, path) -> None:
    write_json(path, scene_to_dict(scene))


def load_scene(path) -> Scene:
    return scene_from_dict(read_json(path), str(path))
