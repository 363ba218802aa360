"""Host-speed probe: a fixed piece of work timed between the program's stages.

A shared host runs the same Python code at speeds that swing by up to
a factor of two, both within a second and over minutes.  The benchmark
runs a probe right before and after every timed interval, on the CPU
the program runs on.  Each interval is paired with the mean of its two
probes; the run's mean probe time, weighted by interval length, over
``NOMINAL_S`` is the host's mean slowdown over the run, and the run's
times divided by it are times at the nominal host speed.  The probe is
benchmark code, so no change to the program moves it.

The probe mixes what the program spends its time on: heap-driven
search over a numpy grid with per-cell scalar indexing, dict and tuple
churn, and a JSON round trip of a numpy-built array.
"""

from __future__ import annotations

import heapq
import json
import math
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.020  # probe round time at the nominal host speed
ROUNDS = 3
_SIZE = 80


def _grid() -> np.ndarray:
    free = np.ones((_SIZE, _SIZE), dtype=bool)
    free[::6, 3:-3] = False
    free[3:-3:6, ::7] = True
    return free


_FREE = _grid()
_STEPS = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
          (1, 1, math.sqrt(2)), (-1, 1, math.sqrt(2)), (1, -1, math.sqrt(2)), (-1, -1, math.sqrt(2))]


def _work() -> float:
    dist = np.full((_SIZE, _SIZE), math.inf)
    dist[1, 1] = 0.0
    heap = [(0.0, (1, 1))]
    seen: dict[tuple[int, int], int] = {}
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > dist[y, x] + 1e-12:
            continue
        seen[(x, y)] = seen.get((x, y), 0) + 1
        for dx, dy, step in _STEPS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < _SIZE and 0 <= ny < _SIZE and _FREE[ny, nx]:
                nd = d + step
                if nd < dist[ny, nx] - 1e-12:
                    dist[ny, nx] = nd
                    heapq.heappush(heap, (nd, (nx, ny)))
    finite = np.where(np.isfinite(dist), dist, -1.0)
    text = json.dumps({"field": finite.round(3).tolist(), "seen": len(seen)})
    return float(np.sum(json.loads(text)["field"]))


CHECKSUM = _work()


def probe() -> float:
    """Mean seconds of one probe round; checks the work is unchanged."""
    times = []
    for _ in range(ROUNDS):
        start = perf_counter()
        value = _work()
        times.append(perf_counter() - start)
        if value != CHECKSUM:
            raise RuntimeError("host-speed probe computed a different result")
    return statistics.fmean(times)


def bracketed(durations: list[float], probes: list[float]) -> list[tuple[float, float]]:
    """Pairs each interval with the mean of the probes right before and after it.

    ``probes`` holds one probe more than ``durations``: probe, interval,
    probe, interval, ..., probe.
    """
    return [(d, (a + b) / 2) for d, a, b in zip(durations, probes, probes[1:])]


def speed_scale(intervals: list[tuple[float, float]]) -> float:
    """Factor that takes a run's times to the nominal host speed.

    A single probe says little (consecutive probes a second apart
    differ by up to a half), so one factor from all of the run's
    intervals scales every time of the run.
    """
    total = sum(d for d, _ in intervals)
    return NOMINAL_S * total / sum(d * p for d, p in intervals)
