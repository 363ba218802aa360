"""In-memory span tracer that wraps the boundaries between ivln modules.

The tracer replaces each boundary with a wrapper that records one span
(name, start, end, parent span, stage call id) and the counters named in
``BOUNDARIES``.  Functions are patched in every ivln module that binds
them (``harness`` and ``syngen`` import the search helpers by name, and
``harness``/``cli`` import the mapper functions by name), methods on
their class.  A boundary missing from the measured code is reported as
absent instead of raising, so the traced run survives refactors.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _dijkstra_hook(tracer, args, result):
    tracer.distinct["environment.dijkstra_field"].add((tracer.stage, args[1]))
    if isinstance(result, dict):
        reached = len(result)
    else:
        reached = int(np.isfinite(result).sum())
    tracer.counters["environment.dijkstra_field.cells_reached"] += reached


def _astar_hook(tracer, args, result):
    tracer.distinct["environment.astar"].add((tracer.stage, args[2]))


def _atsp_hook(tracer, args, result):
    tracer.counters["tourgen.solve_atsp.cities"] += len(args[0])


def _dtw_hook(tracer, args, result):
    tracer.counters["metrics.dtw.cells"] += len(args[0]) * len(args[1])


def _views_hook(tracer, args, result):
    pose = args[1]
    tracer.distinct["mapper.synthesize_views"].add(
        (tracer.stage, tuple(pose.position), pose.heading)
    )


class _CountingPipe:
    """Write-through proxy that counts the bytes sent to an agent."""

    def __init__(self, pipe, tracer):
        self._pipe = pipe
        self._tracer = tracer

    def write(self, data):
        self._tracer.counters["harness.transport_send.bytes"] += len(data)
        return self._pipe.write(data)

    def __getattr__(self, name):
        return getattr(self._pipe, name)


def _count_transport_bytes(tracer, args, result):
    transport = args[0]
    transport.proc.stdin = _CountingPipe(transport.proc.stdin, tracer)


# (span name, module, attribute or Class.method, hook, untimed)
# An untimed entry only runs its hook after the call; it records no span.
BOUNDARIES = [
    ("environment.dijkstra_field", "environment", "_grid_dijkstra_field", _dijkstra_hook, False),
    ("environment.dijkstra_field", "environment", "_graph_dijkstra_field", _dijkstra_hook, False),
    ("environment.astar", "environment", "_grid_astar", _astar_hook, False),
    ("environment.astar", "environment", "_graph_astar", _astar_hook, False),
    ("environment.snap", "environment", "GridWorld.snap", None, False),
    ("environment.snap", "environment", "NavGraph.snap", None, False),
    ("environment.connectivity_matrix", "environment", "connectivity_matrix", None, False),
    ("environment.geodesic_metric", "environment", "GeodesicMetric.__call__", None, False),
    ("environment.load_scene", "environment", "load_scene", None, False),
    ("syngen.generate_episodes", "syngen", "generate_episodes", None, False),
    ("tourgen.load_episodes", "tourgen", "load_episodes", None, False),
    ("tourgen.partition_paths", "tourgen", "partition_paths", None, False),
    ("tourgen.order_paths", "tourgen", "order_paths", None, False),
    ("tourgen.solve_atsp", "tourgen", "solve_atsp", _atsp_hook, False),
    ("harness.run_tour", "harness", "run_tour", None, False),
    ("harness.observation_message", "harness", "observation_message", None, False),
    ("harness.transport_send", "harness", "SubprocessTransport.send", None, False),
    ("harness.transport_recv", "harness", "SubprocessTransport.recv", None, False),
    ("harness.transport_send", "harness", "SubprocessTransport.__init__", _count_transport_bytes, True),
    ("mapper.synthesize_views", "mapper", "synthesize_views", _views_hook, False),
    ("mapper.unproject", "mapper", "unproject", None, False),
    ("mapper.integrate", "mapper", "integrate", None, False),
    ("mapper.crop_egocentric", "mapper", "crop_egocentric", None, False),
    ("mapper.crop_to_flat", "mapper", "crop_to_flat", None, False),
    ("mapper.save_map", "mapper", "save_map", None, False),
    ("metrics.read_traces", "metrics", "read_traces", None, False),
    ("metrics.write_traces", "metrics", "write_traces", None, False),
    ("metrics.build_report", "metrics", "build_report", None, False),
    ("metrics.dtw", "metrics", "dtw", _dtw_hook, False),
    ("coverage.coverage_curves", "coverage", "coverage_curves", None, False),
]

# Policies are patched on every class of the hierarchy that defines the
# method; a span nested directly in one of the same name (a super() hop)
# is folded into its parent, so each call of the live policy is one span.
POLICY_METHODS = [("harness.policy_act", "act"), ("harness.policy_observe", "observe")]

STAGE_SPAN = "cli.stage"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, stage id]
        self._stack: list[int] = []
        self.stage = None
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.stage]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook, untimed, fold_nested):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if untimed:
                result = fn(*args, **kwargs)
            elif fold_nested and tracer._stack and tracer.spans[tracer._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            else:
                result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "ivln" or n.startswith("ivln.")]
        for name, module_name, target, hook, untimed in BOUNDARIES:
            module = sys.modules.get(f"ivln.{module_name}")
            owner_name, _, method = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or method not in vars(owner):
                self.absent.append(f"{name} ({module_name}.{target})")
                continue
            original = vars(owner)[method]
            wrapped = self._wrap(original, name, hook, untimed, fold_nested=False)
            if owner_name:
                self._set(owner, method, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        harness = sys.modules.get("ivln.harness")
        base = getattr(harness, "Policy", None)
        classes = [base] if base is not None else []
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for name, method in POLICY_METHODS:
            owners = [cls for cls in classes if method in vars(cls)]
            if not owners:
                self.absent.append(f"{name} (harness.Policy.{method})")
            for cls in owners:
                self._set(cls, method, self._wrap(vars(cls)[method], name, None, False, True))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls, total (outermost) seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            if not self._inside(parent, name):
                out[f"{name}.total_s"] += dur
        for key, value in self.counters.items():
            out[key] += value
        for key, keys in self.distinct.items():
            suffix = {
                "environment.dijkstra_field": "distinct_sources",
                "environment.astar": "distinct_targets",
                "mapper.synthesize_views": "distinct_poses",
            }[key]
            out[f"{key}.{suffix}"] = len(keys)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, stage."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def _inside(self, index, name) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

