"""Path-alignment and goal metrics for episodes and tours.

The alignment score between a reference path R and an agent path Q is

    ndtw(R, Q) = exp(-dtw(R, Q) / (|R| * d_th))

where dtw uses the step set {(1,0), (0,1), (1,1)}, is anchored at both
endpoints, and sums a point metric over matched pairs.  At tour level
the two paths are concatenations of per-episode blocks and the warp is
forbidden from matching points of different episodes; with both paths
sharing the episode sequence this is exactly the per-episode dtw sum,
which is how ``tour_dtw`` computes it.

Tour scores aggregate over trajectory splits weighted by episode count:

    aggregate = sum_i |T_i| * score_i / sum_j |T_j|

Scores are reported on a 0..100 scale, one decimal, via ``scale_score``.

The point metric is Euclidean without a scene and geodesic in the
scene with one.  A geodesic cost matrix is filled only where the optimal
warp can pass (``_geodesic_costs``).  The Euclidean distance between the
snapped locations' points (``NavIndex.points``), shrunk by 1e-9, is a
lower bound LB on every geodesic cell: grid steps have octile lengths
and graph edges are weighted by their 3D Euclidean length.  With
F and B the forward and backward accumulated LB, ``F + B - LB`` bounds
from below the cost of every warp through a cell, and U, the geodesic
cost along LB's own optimal warp, bounds the optimal cost from above.
Cells with ``F + B - LB > U * (1 + 1e-9)`` are set to inf without a
distance query; when U is inf every cell is kept.  The two 1e-9 factors
absorb the rounding of the sums.  The result is exact, not approximate:
every cell of the optimal warp is kept, and removing other cells can
only raise the accumulated values the warp does not take, so every
minimum along it, and the dtw value, is bitwise that of the full matrix.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .environment import (
    FORMAT_VERSION, Point3, Scene, as_point, euclidean, geodesic_distance, json_line, read_json_lines,
    require_fields, write_json,
)
from .errors import EmptySequence

DEFAULT_DTH = 3.0
DEFAULT_SUCCESS_RADIUS = 3.0

# the kinds of oracle segment, which are also their trace phases
ORACLE_GOAL, ORACLE_TRANSIT = ORACLE_PHASES = ("oracle_goal", "oracle_transit")


@dataclass
class OracleSegment:
    """Positions logged while the oracle drives (never scored)."""

    kind: str  # one of ORACLE_PHASES
    points: list[Point3]
    actions: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.points = [as_point(p) for p in self.points]


@dataclass
class EpisodeTrace:
    """Agent motion for one episode, paired with its reference path, and
    the oracle segments that followed it, in the order they ran."""

    episode_id: str
    agent_path: list[Point3]
    reference_path: list[Point3]
    stop_called: bool = True
    actions: list[str] = field(default_factory=list)
    segments: list[OracleSegment] = field(default_factory=list)

    def __post_init__(self):
        self.agent_path = [as_point(p) for p in self.agent_path]
        self.reference_path = [as_point(p) for p in self.reference_path]
        if not self.agent_path:
            raise EmptySequence(f"episode {self.episode_id}: empty agent path")
        if not self.reference_path:
            raise EmptySequence(f"episode {self.episode_id}: empty reference path")

    @property
    def final_position(self) -> Point3:
        return self.agent_path[-1]


@dataclass
class TourTrace:
    tour_id: str
    episodes: list[EpisodeTrace]


def _cost_matrix(ref, query, scene: Scene | None) -> np.ndarray:
    ref = [as_point(p) for p in ref]
    query = [as_point(p) for p in query]
    if scene is None:
        return _euclidean_matrix(np.asarray(ref), np.asarray(query))
    return _geodesic_costs(ref, query, scene)


def _euclidean_matrix(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = r[:, None, :] - q[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _geodesic_costs(ref, query, scene: Scene) -> np.ndarray:
    """The geodesic cost matrix on every cell the optimal warp can pass
    through, inf on the others; the warp cost over it is bitwise the one
    over the full matrix (the module docstring says why).

    Points are snapped in the order a per-cell loop over
    ``geodesic_distance(scene, ref[i], query[j])`` meets them
    (``ref[0]``, the queries, the rest of ``ref``), so a SnapFailure
    names the same point; a kept cell is bitwise that loop's value.  One
    ``NavIndex.settle`` batch answers U, and one the kept rows.  A location
    is exactly 0.0 from itself, so a row that asks only about its own
    source opens no field.
    """
    nav = scene.nav
    sources = [nav.id_of[scene.snap_point(p)] for p in ref[:1]]
    ids = [nav.id_of[scene.snap_point(q)] for q in query]
    sources += [nav.id_of[scene.snap_point(p)] for p in ref[1:]]
    bound = _euclidean_matrix(nav.points.take(sources, 0), nav.points.take(ids, 0)) * (1 - 1e-9)
    forward = _warp(bound)
    through = np.array(forward) + np.array(_warp(bound[::-1, ::-1]))[::-1, ::-1] - bound
    asks = [(sources[i], [ids[j] for _, j in run if ids[j] != sources[i]])  # adding 0.0 leaves U as it is
            for i, run in itertools.groupby(_backtrack(forward), key=operator.itemgetter(0))]
    asks = [ask for ask in asks if ask[1]]
    upper = 0.0  # U: one ask per run of the bound warp's cells in a row, all in one batch
    for (_, want), dist in zip(asks, nav.settle(asks)):
        for target in want:
            upper += dist[target]
    keep = through <= upper * (1 + 1e-9)
    columns = np.asarray(ids)
    wants = [[t for t in itertools.compress(ids, row) if t != source] for source, row in zip(sources, keep.tolist())]
    rows = iter(nav.settle([(source, want) for source, want in zip(sources, wants) if want]))  # one ask per row
    out = np.array([next(rows).take(columns) if want else np.where(columns == source, 0.0, math.inf)
                    for source, want in zip(sources, wants)])
    out[~keep] = math.inf  # the ids not kept may not be settled yet
    return out


def _warp(costs: np.ndarray) -> list[list[float]]:
    """Accumulated boundary-anchored warp costs over a cost matrix, as
    rows of floats: entry ``[i][j]`` is the least cost of a warp from
    ``(0, 0)`` to ``(i, j)``."""
    rows = costs.tolist()
    prev = list(itertools.accumulate(rows[0]))
    out = [prev]
    for costs_i in rows[1:]:
        diag = prev[0]
        left = diag + costs_i[0]
        row = [left]
        for cost, up in zip(costs_i[1:], prev[1:]):
            # min(up, left, diag) by comparisons: the same float, no call
            low = up if up < diag else diag
            left = cost + (left if left < low else low)
            row.append(left)
            diag = up
        out.append(row)
        prev = row
    return out


def _backtrack(acc: list[list[float]]) -> list[tuple[int, int]]:
    """The cells of an optimal warp through accumulated costs, from the
    last one back to ``(0, 0)``."""
    i, j = len(acc) - 1, len(acc[0]) - 1
    cells = [(i, j)]
    while i or j:
        if not i:
            j -= 1
        elif not j:
            i -= 1
        else:
            up, left, diag = acc[i - 1][j], acc[i][j - 1], acc[i - 1][j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        cells.append((i, j))
    return cells


def _accumulate(costs: np.ndarray) -> float:
    """Boundary-anchored warp cost over a precomputed cost matrix."""
    return _warp(costs)[-1][-1]


def dtw(reference, query, scene: Scene | None = None) -> float:
    """Dynamic time warping cost between two point sequences: over
    Euclidean distance without a scene, over geodesic distance in
    ``scene`` with one."""
    if len(reference) == 0 or len(query) == 0:
        raise EmptySequence("dtw needs non-empty sequences")
    return _accumulate(_cost_matrix(reference, query, scene))


def ndtw(reference, query, d_th: float = DEFAULT_DTH, scene: Scene | None = None) -> float:
    """Normalized alignment score in (0, 1]; 1 iff the warp cost is 0."""
    return _normalized(dtw(reference, query, scene), len(reference), d_th)


def _normalized(cost: float, reference_length: int, d_th: float) -> float:
    if d_th <= 0:
        raise ValueError("d_th must be positive")
    return math.exp(-cost / (reference_length * d_th))


def tour_dtw(trace: TourTrace, scene: Scene | None = None) -> float:
    """Warp cost over a tour with cross-episode matching forbidden.

    With infinite cost on every cross-episode cell, the optimal warp
    decomposes into independent per-episode alignments, so the tour cost
    is the sum of per-episode dtw costs.
    """
    return _tour_sum(trace, [dtw(ep.reference_path, ep.agent_path, scene) for ep in trace.episodes])


def _tour_sum(trace: TourTrace, costs: list[float]) -> float:
    """The tour cost from its episodes' dtw costs, summed in episode order."""
    if not trace.episodes:
        raise EmptySequence(f"tour {trace.tour_id} has no episodes")
    return float(sum(costs))


def tour_ndtw(trace: TourTrace, d_th: float = DEFAULT_DTH, scene: Scene | None = None) -> float:
    """Normalized tour alignment; |R| is the total reference length."""
    return _normalized(tour_dtw(trace, scene), sum(len(ep.reference_path) for ep in trace.episodes), d_th)


def aggregate_t_ndtw(scored_tours: Sequence[tuple[TourTrace, float]]) -> float:
    """Episode-count weighted mean of per-tour scores."""
    if not scored_tours:
        raise EmptySequence("no tours to aggregate")
    num = 0.0
    den = 0
    for trace, score in scored_tours:
        weight = len(trace.episodes)
        num += weight * score
        den += weight
    if den == 0:
        raise EmptySequence("tours have no episodes")
    return num / den


def scale_score(score: float) -> float:
    """Report form: 0..100, one decimal."""
    return round(100.0 * score, 1)


@dataclass
class EpisodeMetrics:
    episode_id: str
    tl: float
    ne: float
    os_: float
    sr: float
    spl: float
    ndtw: float


def path_length(points) -> float:
    pts = [as_point(p) for p in points]
    return float(sum(euclidean(pts[i], pts[i + 1]) for i in range(len(pts) - 1)))


def episodic_metrics(
    trace: EpisodeTrace,
    scene: Scene | None = None,
    success_radius: float = DEFAULT_SUCCESS_RADIUS,
    d_th: float = DEFAULT_DTH,
    geodesic: bool = False,
) -> EpisodeMetrics:
    """Standard single-episode metrics.

    Goal-relative quantities (NE, oracle success, the SPL shortest-path
    length) use geodesic distance when a scene is given, straight-line
    distance otherwise.  The alignment is geodesic only with
    ``geodesic``, which needs a scene (ValueError without one).
    """
    return _episode_metrics(trace, dtw(trace.reference_path, trace.agent_path, _aligned(scene, geodesic)),
                            success_radius, d_th, scene)


def _aligned(scene: Scene | None, geodesic: bool) -> Scene | None:
    """The scene ``dtw`` aligns over: ``scene`` with ``geodesic``, else None."""
    if geodesic and scene is None:
        raise ValueError("geodesic alignment needs a scene")
    return scene if geodesic else None


def _episode_metrics(trace: EpisodeTrace, cost: float, success_radius: float, d_th: float,
                     scene: Scene | None) -> EpisodeMetrics:
    """``episodic_metrics`` given the episode's dtw cost; goal distances
    are geodesic in ``scene``, Euclidean without one."""
    goal = trace.reference_path[-1]
    to_goal = euclidean if scene is None else lambda a, b: geodesic_distance(scene, a, b)
    tl = path_length(trace.agent_path)
    ne = to_goal(goal, trace.final_position)
    nearest = min(to_goal(goal, p) for p in trace.agent_path)
    os_ = 1.0 if nearest <= success_radius else 0.0
    sr = 1.0 if ne <= success_radius else 0.0
    optimal = to_goal(goal, trace.reference_path[0])
    if optimal <= 0.0:
        spl = sr
    else:
        spl = sr * optimal / max(optimal, tl)
    return EpisodeMetrics(
        episode_id=trace.episode_id,
        tl=tl,
        ne=ne,
        os_=os_,
        sr=sr,
        spl=spl,
        ndtw=_normalized(cost, len(trace.reference_path), d_th),
    )


# ---------------------------------------------------------------------------
# trace serialization (line-delimited JSON, one record per phase)


def _trace_record(tour_id, episode_id, phase, points, actions) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tour_id": tour_id,
        "episode_id": episode_id,
        "phase": phase,
        "points": [[p.x, p.y, p.z] for p in points],
        "actions": actions,
    }


def write_traces(traces: Sequence[TourTrace], path) -> None:
    """Write tour traces as JSONL: each episode's agent record, then its
    oracle segments."""
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            for ep in trace.episodes:
                record = _trace_record(trace.tour_id, ep.episode_id, "agent", ep.agent_path, ep.actions)
                record["stop_called"] = ep.stop_called
                fh.write(json_line(record))
                for seg in ep.segments:
                    fh.write(json_line(_trace_record(trace.tour_id, ep.episode_id, seg.kind, seg.points, seg.actions)))


def read_traces(path, episodes_by_id: dict) -> list[TourTrace]:
    """Read tour traces as ``write_traces`` writes them.

    Each agent record takes its reference path from ``episodes_by_id``,
    and each oracle record joins the segments of the agent record it
    follows.  Raises ValueError naming the line of a record that lacks a
    field, of a record whose phase is neither ``agent`` nor an oracle
    phase, of an agent record whose episode the set lacks, and of an
    oracle record that does not follow an agent record of its own tour
    and episode, and naming both lines of a second agent record of one
    tour and episode.  A point that ``as_point`` refuses raises its error
    with the line prefixed.
    """
    tours: dict[str, TourTrace] = {}  # in order of first appearance
    line_of: dict[tuple, int] = {}  # the line of each tour's agent record of an episode
    owner = None  # the tour id and trace of the latest agent record
    for number, rec in read_json_lines(path):
        where = f"{path} line {number}"
        require_fields(rec, ("tour_id", "episode_id", "phase", "points", "actions"), where)
        tid, eid, phase = rec["tour_id"], rec["episode_id"], rec["phase"]
        try:
            points = [as_point(p) for p in rec["points"]]
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        if phase == "agent":
            require_fields(rec, ("stop_called",), where)
            if eid not in episodes_by_id:
                raise ValueError(f"{where}: episode {eid} is not in the episode set")
            earlier = line_of.setdefault((tid, eid), number)
            if earlier != number:
                raise ValueError(f"{where}: agent record of tour {tid} episode {eid} repeats line {earlier}")
            ep = EpisodeTrace(eid, points, episodes_by_id[eid].path, rec["stop_called"], rec["actions"])
            tours.setdefault(tid, TourTrace(tid, [])).episodes.append(ep)
            owner = tid, ep
        elif phase in ORACLE_PHASES:
            if owner is None or owner[0] != tid or owner[1].episode_id != eid:
                raise ValueError(
                    f"{where}: {phase} record of tour {tid} episode {eid} "
                    "does not follow that episode's agent record"
                )
            owner[1].segments.append(OracleSegment(phase, points, rec["actions"]))
        else:
            raise ValueError(f"{where}: unknown trace phase {phase!r}")
    return list(tours.values())


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricReport:
    per_episode: list[dict]
    per_tour: list[dict]
    summary: dict
    config: dict

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config": self.config,
            "per_episode": self.per_episode,
            "per_tour": self.per_tour,
            "summary": self.summary,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def save_csv(self, path) -> None:
        fields = ["tour_id", "episode_id", "tl", "ne", "os", "sr", "spl", "ndtw"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self.per_episode:
                writer.writerow({k: row[k] for k in fields})


def build_report(
    traces: Sequence[TourTrace],
    scene: Scene | None = None,
    success_radius: float = DEFAULT_SUCCESS_RADIUS,
    d_th: float = DEFAULT_DTH,
    geodesic: bool = False,
    config: dict | None = None,
) -> MetricReport:
    """Score traces at episode, tour, and corpus level: goal distances
    and alignment as in ``episodic_metrics``."""
    aligned = _aligned(scene, geodesic)
    per_episode = []
    per_tour = []
    scored = []
    for trace in traces:
        # each episode's dtw feeds both its nDTW and the tour's sum
        costs = [dtw(ep.reference_path, ep.agent_path, aligned) for ep in trace.episodes]
        for ep, cost in zip(trace.episodes, costs):
            m = _episode_metrics(ep, cost, success_radius, d_th, scene)
            per_episode.append(
                {
                    "tour_id": trace.tour_id,
                    "episode_id": m.episode_id,
                    "tl": round(m.tl, 4),
                    "ne": round(m.ne, 4),
                    "os": m.os_,
                    "sr": m.sr,
                    "spl": round(m.spl, 4),
                    "ndtw": round(m.ndtw, 6),
                }
            )
        score = _normalized(_tour_sum(trace, costs), sum(len(ep.reference_path) for ep in trace.episodes), d_th)
        scored.append((trace, score))
        per_tour.append(
            {
                "tour_id": trace.tour_id,
                "episodes": len(trace.episodes),
                "t_ndtw": scale_score(score),
            }
        )
    overall = aggregate_t_ndtw(scored)
    n_eps = sum(len(t.episodes) for t in traces)
    mean = lambda key: sum(row[key] for row in per_episode) / max(1, len(per_episode))
    summary = {
        "tours": len(traces),
        "episodes": n_eps,
        "t_ndtw": scale_score(overall),
        "tl": round(mean("tl"), 2),
        "ne": round(mean("ne"), 2),
        "os": round(mean("os"), 4),
        "sr": round(mean("sr"), 4),
        "spl": round(mean("spl"), 4),
        "ndtw": round(mean("ndtw"), 4),
    }
    return MetricReport(
        per_episode=per_episode,
        per_tour=per_tour,
        summary=summary,
        config=config or {"d_th": d_th, "success_radius": success_radius},
    )
