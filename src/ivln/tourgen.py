"""Tour construction: partition paths, order them, expand instructions.

An episodic dataset gives many short reference paths per scene, each
annotated with several instructions.  Tour construction turns these into
long ordered sequences an agent can follow in one continuous session:

1. partition the unique paths of a scene into groups that are mutually
   reachable (unreachable pairs can never appear in the same tour);
2. order each group to minimize total travel, treating every path as an
   atomic city whose entry is its start and exit is its end (exactly, in
   groups of up to 12 paths);
3. expand the ordered paths into one tour per instruction annotation,
   sampling instructions without replacement so every episode appears in
   exactly one tour.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from .environment import (
    FORMAT_VERSION, ID, NUMBER, OBJECT, POINTS, TEXT, Point3, Scene, as_point, connectivity_matrix, list_of,
    normalize_heading, read_fields, read_json, write_json,
)
from .errors import Disconnected, EmptySequence, InstructionCountMismatch, MissingEpisode, SizeLimit

ATSP_EXACT_LIMIT = 12


@dataclass
class Episode:
    """One instruction-annotated reference path."""

    episode_id: str
    path_id: str
    scene_id: str
    path: list[Point3]
    start_heading: float
    instruction_id: str
    instruction: str

    def __post_init__(self):
        self.path = [as_point(p) for p in self.path]
        self.start_heading = normalize_heading(self.start_heading)
        if not self.path:
            raise EmptySequence(f"episode {self.episode_id} has an empty path")

    @property
    def start(self) -> Point3:
        return self.path[0]

    @property
    def goal(self) -> Point3:
        return self.path[-1]


@dataclass
class PathGroup:
    """Paths of one scene that are pairwise reachable, with their slice of
    the scene's endpoint matrix (``connectivity_matrix``)."""

    scene_id: str
    path_ids: list[str]
    cost: np.ndarray = field(repr=False, compare=False)


@dataclass
class Tour:
    """Ordered episode ids to be executed back to back in one scene."""

    tour_id: str
    scene_id: str
    episode_ids: list[str]


@dataclass
class TourStats:
    scenes: int
    episodes: int
    tours: int
    tours_per_scene: float
    mean_length: float
    min_length: int
    max_length: int
    stddev_length: float


# ---------------------------------------------------------------------------
# episode I/O


_EPISODE_FIELDS = {"episode_id": ID, "path_id": ID, "scan": ID, "path": POINTS, "heading": NUMBER,
                   "instructions": list_of(TEXT), "instruction_ids": list_of(ID)}


def load_episodes(path) -> list[Episode]:
    """Read an episode file as ``save_episodes`` writes it, one Episode per
    instruction: a record with k > 1 instructions becomes episodes
    ``<episode_id>_0`` .. ``<episode_id>_<k-1>``, and a record with one
    keeps its ``episode_id``.  Each ValueError it raises names the file
    and record."""
    records, = read_fields(read_json(path), {"episodes": list_of(OBJECT)}, str(path))
    episodes = []
    record_of: dict[str, int] = {}
    for index, record in enumerate(records):
        where = f"{path} episode record {index}"
        base_id, path_id, scene_id, points, heading, instructions, ids = read_fields(record, _EPISODE_FIELDS, where)
        if len(ids) != len(instructions):
            raise ValueError(f"{where}: {len(ids)} instruction_ids for {len(instructions)} instructions")
        for k, (text, instruction_id) in enumerate(zip(instructions, ids)):
            episode_id = f"{base_id}_{k}" if len(ids) > 1 else base_id
            earlier = record_of.setdefault(episode_id, index)
            if earlier != index:
                raise ValueError(f"{where}: episode id {episode_id} repeats record {earlier}")
            episodes.append(Episode(episode_id, path_id, scene_id, points, heading, instruction_id, text))
    return episodes


def _episodes_by_path(episodes: list[Episode]) -> dict[str, list[Episode]]:
    """Episodes grouped by path_id, paths in first-appearance order."""
    by_path: dict[str, list[Episode]] = {}
    for ep in episodes:
        by_path.setdefault(ep.path_id, []).append(ep)
    return by_path


def episodes_to_records(episodes: list[Episode]) -> list[dict]:
    """Group per-instruction episodes back into on-disk records."""
    records = []
    for path_id, group in _episodes_by_path(episodes).items():
        first = group[0]
        base = first.episode_id.rsplit("_", 1)[0] if len(group) > 1 else first.episode_id
        records.append(
            {
                "episode_id": base,
                "path_id": path_id,
                "scan": first.scene_id,
                "path": [list(p) for p in first.path],
                "heading": first.start_heading,
                "instructions": [ep.instruction for ep in group],
                "instruction_ids": [ep.instruction_id for ep in group],
            }
        )
    return records


def save_episodes(episodes: list[Episode], path) -> None:
    write_json(path, {"format_version": FORMAT_VERSION, "episodes": episodes_to_records(episodes)})


# ---------------------------------------------------------------------------
# partitioning


def unique_paths(episodes: list[Episode]) -> list[Episode]:
    """One representative episode per path_id, in first-appearance order."""
    return [group[0] for group in _episodes_by_path(episodes).values()]


def partition_paths(episodes: list[Episode], scene: Scene) -> list[PathGroup]:
    """Group a scene's unique paths into mutually reachable sets.

    ``connectivity_matrix`` raises Disconnected, here naming the path,
    when some path's end does not reach its own start.  Once every path's
    ends are connected, "the end of i reaches the start of j" is an
    equivalence (the scene is undirected), so row i of the scene's
    endpoint matrix is finite exactly on i's group: the groups are the
    distinct finite rows, in first-appearance order, each with its slice
    of the matrix.
    """
    reps = unique_paths(episodes)
    if not reps:
        return []
    try:
        cost = connectivity_matrix(scene, [(ep.start, ep.goal) for ep in reps])
    except Disconnected as exc:
        raise Disconnected(f"the end of path {reps[exc.index].path_id} does not reach its start in {scene.scene_id}",
                           index=exc.index) from None
    rows: dict[bytes, list[int]] = {}
    for i, row in enumerate(np.isfinite(cost)):
        rows.setdefault(row.tobytes(), []).append(i)
    return [PathGroup(reps[0].scene_id, [reps[i].path_id for i in idx], cost[np.ix_(idx, idx)])
            for idx in rows.values()]


# ---------------------------------------------------------------------------
# open-path ordering

# The ordering problem is an open asymmetric TSP: visit every path once,
# cost(i -> j) = geodesic(end_i, start_j), no return leg.  Adding a dummy
# city with zero-cost arcs to and from every real city turns the open
# path into a closed tour; cutting the cycle at the dummy recovers the
# path.  The local search scans the cut triples i < j < k in numpy, one
# i at a time, and computes each triple's delta with the same additions
# in the same order as a scalar loop would, so the first improving
# exchange it finds is bitwise the loop's.


def _with_dummy(cost: np.ndarray) -> np.ndarray:
    n = cost.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = cost
    return out


def _nearest_neighbor_cycle(cost: np.ndarray, start: int) -> list[int]:
    """Greedy cycle from ``start``: the cheapest unvisited city next, the
    smallest among equal costs (``argmin`` keeps the first)."""
    unvisited = np.ones(len(cost), dtype=bool)
    cycle = [start]
    for _ in range(len(cost) - 1):
        unvisited[cycle[-1]] = False
        left = np.flatnonzero(unvisited)
        cycle.append(int(left[np.argmin(cost[cycle[-1], left])]))
    return cycle


def _apply_exchange(cycle, i, j, k):
    """Reconnect A|B|C|D, cut after positions i, j and k, as A C B D."""
    return cycle[: i + 1] + cycle[j + 1 : k + 1] + cycle[i + 1 : j + 1] + cycle[k + 1 :]


def _improve_cycle(full: np.ndarray, cycle: list[int]) -> list[int]:
    """Apply the first improving segment exchange, scanning cut triples
    ``i < j < k`` in ``itertools.combinations`` order, until none
    improves.  Moving any segment to another gap cuts three cycle edges
    and swaps two of the pieces, so it is one of these exchanges, and
    the result is a relocation optimum too.

    The ``(j, k)`` pairs with ``j > i`` are a suffix of ``triu_indices``,
    so each ``i`` scans one slice, and the three arcs that do not touch
    ``i`` are gathered once per scan.  Arcs of infinite cost make ``inf -
    inf`` deltas, which are nan and never improve."""
    m = len(cycle)
    js, ks = np.triu_indices(m, 1)
    firsts = np.searchsorted(js, np.arange(m - 2), side="right")
    with np.errstate(invalid="ignore"):
        while True:
            cyc = np.array(cycle + cycle[:1])
            bj, c1, ck, d = cyc[js], cyc[js + 1], cyc[ks], cyc[ks + 1]
            bc, cd, bd = full[bj, c1], full[ck, d], full[bj, d]
            for i, f in enumerate(firsts):
                a, b1 = cyc[i], cyc[i + 1]
                removed = full[a, b1] + bc[f:] + cd[f:]
                added = full[a, c1[f:]] + full[ck[f:], b1] + bd[f:]
                hits = np.flatnonzero(added - removed < -1e-9)
                if hits.size:
                    cycle = _apply_exchange(cycle, i, int(js[f + hits[0]]), int(ks[f + hits[0]]))
                    break
            else:
                return cycle


def solve_atsp(cost: np.ndarray) -> list[int]:
    """Order cities of an asymmetric open-path problem.

    Returns a permutation of range(n) minimizing the sum of ``cost`` over
    consecutive pairs (no closing leg).  Up to ``ATSP_EXACT_LIMIT``
    cities this is ``held_karp_exact``'s order.  Beyond, nearest
    neighbor from the dummy city builds the order and
    orientation-preserving segment exchanges (a relocation is one) take
    it to a local optimum; reversals are never used because the costs
    are asymmetric.  Raises Disconnected when the order found has
    infinite cost.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if n <= ATSP_EXACT_LIMIT:
        return held_karp_exact(cost)[0]
    full = _with_dummy(cost)
    cycle = _improve_cycle(full, _nearest_neighbor_cycle(full, n))
    if full[cycle, np.roll(cycle, -1)].sum() == math.inf:
        raise Disconnected("every ordering found has infinite cost")
    at = cycle.index(n)
    return cycle[at + 1 :] + cycle[:at]


def held_karp_exact(cost: np.ndarray) -> tuple[list[int], float]:
    """Exact open-path order by dynamic programming over subsets.

    ``dp[mask, last]``, the cheapest path through ``mask`` ending at
    ``last``, fills layer by layer over the size of ``mask``.  A state
    folds its candidates in ascending ``last``, keeping one only when it
    is cheaper by more than 1e-12, and the path ends at the cheapest
    city, the smallest among equal costs.  O(2^n n^2) time and O(2^n n)
    memory; raises SizeLimit beyond ``ATSP_EXACT_LIMIT`` cities, and
    Disconnected when every ordering has infinite cost.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if n == 0:
        return [], 0.0
    if n > ATSP_EXACT_LIMIT:
        raise SizeLimit(f"exact ordering supports at most {ATSP_EXACT_LIMIT} cities, got {n}")
    bits = 1 << np.arange(n)
    dp = np.full((1 << n, n), math.inf)
    dp[bits, np.arange(n)] = 0.0
    parent = np.zeros((1 << n, n), dtype=np.int8)
    members = (np.arange(1 << n)[:, None] & bits) != 0
    sizes = members.sum(axis=1)
    for size in range(2, n + 1):
        # every state (mask, nxt) of this layer, reached from mask without nxt
        mask, nxt = np.nonzero(members & (sizes == size)[:, None])
        src = mask ^ bits[nxt]
        best = np.full(len(mask), math.inf)
        prev = np.zeros(len(mask), dtype=np.int8)
        for last in range(n):
            cand = dp[src, last] + cost[last, nxt]
            better = cand < best - 1e-12
            best[better] = cand[better]
            prev[better] = last
        dp[mask, nxt] = best
        parent[mask, nxt] = prev
    order = [int(np.argmin(dp[-1]))]
    total = float(dp[-1, order[0]])
    if total == math.inf:
        raise Disconnected("every ordering has infinite cost")
    mask = (1 << n) - 1
    while len(order) < n:
        order.append(int(parent[mask, order[-1]]))
        mask ^= 1 << order[-2]
    order.reverse()
    return order, total


def order_paths(group: PathGroup) -> list[str]:
    """Order a group's paths to minimize inter-path travel over
    ``group.cost`` (``solve_atsp``)."""
    return [group.path_ids[i] for i in solve_atsp(group.cost)]


# ---------------------------------------------------------------------------
# instruction expansion


def expand_instruction_tours(
    ordered_paths: list[str],
    episodes: list[Episode],
    duplicates: int,
    seed: int,
    tour_prefix: str | None = None,
) -> list[Tour]:
    """Expand one ordered path sequence into ``duplicates`` tours.

    Every path must carry exactly ``duplicates`` episodes (one per
    instruction annotation).  Each path's episodes are shuffled once with
    the seeded generator and dealt across the duplicate tours, so the
    tours partition the episode set exactly: every episode appears in
    exactly one tour and each tour visits every path once.
    """
    if duplicates < 1:
        raise ValueError("duplicates must be at least 1")
    by_path = _episodes_by_path(episodes)
    for pid in ordered_paths:
        have = len(by_path.get(pid, []))
        if have != duplicates:
            raise InstructionCountMismatch(
                f"path {pid} has {have} episodes, expansion needs exactly {duplicates}"
            )
    rng = random.Random(seed)
    dealt: dict[str, list[Episode]] = {}
    for pid in ordered_paths:
        pool = sorted(by_path[pid], key=lambda ep: ep.episode_id)
        rng.shuffle(pool)
        dealt[pid] = pool
    scene_id = by_path[ordered_paths[0]][0].scene_id if ordered_paths else ""
    prefix = tour_prefix if tour_prefix is not None else f"{scene_id}-t"
    tours = []
    for k in range(duplicates):
        tours.append(
            Tour(
                tour_id=f"{prefix}{k}",
                scene_id=scene_id,
                episode_ids=[dealt[pid][k].episode_id for pid in ordered_paths],
            )
        )
    return tours


def build_tours(episodes: list[Episode], scene: Scene, seed: int) -> list[Tour]:
    """Full pipeline for one scene: partition, order (``order_paths``),
    expand.

    Every path must carry the same number of episodes, which sets the
    number of tours per group; raises InstructionCountMismatch otherwise,
    and EmptySequence for an empty episode list.
    """
    if not episodes:
        raise EmptySequence(f"no episodes to build tours from in {scene.scene_id}")
    counts = sorted({len(group) for group in _episodes_by_path(episodes).values()})
    if len(counts) != 1:
        raise InstructionCountMismatch(
            f"paths carry differing episode counts {counts}; tour expansion needs a uniform count"
        )
    tours = []
    for gi, group in enumerate(partition_paths(episodes, scene)):
        tours.extend(
            expand_instruction_tours(
                order_paths(group), episodes, counts[0], seed + gi, tour_prefix=f"{scene.scene_id}-g{gi}-"
            )
        )
    return tours


def compute_tour_stats(tours: list[Tour]) -> TourStats:
    """Corpus statistics over tour lengths (episodes per tour)."""
    if not tours:
        raise EmptySequence("no tours to summarize")
    lengths = [len(t.episode_ids) for t in tours]
    scenes = len({t.scene_id for t in tours})
    return TourStats(
        scenes=scenes,
        episodes=sum(lengths),
        tours=len(tours),
        tours_per_scene=len(tours) / scenes,
        mean_length=statistics.fmean(lengths),
        min_length=min(lengths),
        max_length=max(lengths),
        stddev_length=statistics.pstdev(lengths),
    )


# ---------------------------------------------------------------------------
# tour I/O


def save_tours(tours: list[Tour], episodes: list[Episode], path) -> None:
    """Write the tours with each episode's instruction id; raises
    MissingEpisode, and writes nothing, for a tour episode that is not
    in ``episodes``."""
    instruction_ids = {ep.episode_id: ep.instruction_id for ep in episodes}
    records = []
    for t in tours:
        try:
            entries = [{"episode_id": eid, "instruction_id": instruction_ids[eid]} for eid in t.episode_ids]
        except KeyError as exc:
            raise MissingEpisode(f"tour {t.tour_id} references unknown episode {exc}") from None
        records.append({"tour_id": t.tour_id, "scene_id": t.scene_id, "episodes": entries})
    write_json(path, {"format_version": FORMAT_VERSION, "tours": records})


_TOUR_FIELDS = {"tour_id": ID, "scene_id": ID, "episodes": list_of(OBJECT)}


def load_tours(path) -> list[Tour]:
    """Read a tour file as ``save_tours`` writes it; each ValueError it
    raises names the file and record."""
    records, = read_fields(read_json(path), {"tours": list_of(OBJECT)}, str(path))
    tours = []
    record_of: dict[str, int] = {}
    for index, rec in enumerate(records):
        where = f"{path} tour record {index}"
        tour_id, scene_id, entries = read_fields(rec, _TOUR_FIELDS, where)
        earlier = record_of.setdefault(tour_id, index)
        if earlier != index:
            raise ValueError(f"{where}: tour id {tour_id} repeats record {earlier}")
        entry_of: dict[str, int] = {}
        for k, entry in enumerate(entries):
            episode_id, = read_fields(entry, {"episode_id": ID}, f"{where} episode entry {k}")
            earlier = entry_of.setdefault(episode_id, k)
            if earlier != k:
                raise ValueError(f"{where} episode entry {k}: episode {episode_id} repeats entry {earlier}")
        tours.append(Tour(tour_id, scene_id, list(entry_of)))
    return tours
