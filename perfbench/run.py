#!/usr/bin/env python3
"""ivln benchmark: seeded pipeline workloads driven through ``ivln.cli.main``.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, its times scaled to the
nominal host speed by probes run between the stages (calibrate.py);
``--trace 1`` runs the same
instances once untraced and once with every module boundary wrapped
(see spans.py) and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; every line
before it is a human-readable report.  A full record of the run (machine,
per-instance stage times, artifact digests) goes to
``perfbench/_results/``; working artifacts go to ``perfbench/_work/`` and
are removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from calibrate import NOMINAL_S, bracketed, probe, speed_scale  # noqa: E402
from spans import STAGE_SPAN, Tracer  # noqa: E402
from workloads import AGENT, WORKLOADS  # noqa: E402


class StageFailed(Exception):
    pass


class Recorder:
    """One pass over a workload's instances: stage times, operations, digests.

    An untraced pass probes the host speed before its first stage and
    after every stage, and keeps every stage call's time in ``durations``.
    """

    def __init__(self, main, tracer: Tracer | None = None):
        self.main = main
        self.tracer = tracer
        self.times: list[dict[str, float]] = []
        self.probes: list[float] = []
        self.durations: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.act_s: list[float] = []
        self.observe_s: list[float] = []
        self.traces: list[Path] = []
        self._calls = 0
        self._prefix = ""

    def begin_instance(self, index: int) -> None:
        self.times.append(defaultdict(float))
        self._prefix = f"i{index}"

    def call(self, stage: str, *argv, outputs=()) -> None:
        """One timed ``ivln`` invocation; a non-zero exit is a failed operation."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        self._calls += 1
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is None and not self.probes:
            self.probes.append(probe())
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    self.tracer.stage = self._calls
                    code = self.tracer.span(STAGE_SPAN, self.main, argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.times[-1][stage] += elapsed
        if self.tracer is None:
            self.durations.append(elapsed)
            self.probes.append(probe())
        if code != 0:
            self.failures.append(f"ivln {' '.join(argv)} -> {code}: {err.getvalue().strip()[-400:]}")
            raise StageFailed
        for path in outputs:
            self.digests[f"{self._prefix}/{stage}/{Path(path).name}"] = sha256(Path(path))
            if Path(path).suffix == ".jsonl":
                self.traces.append(Path(path))

    def check(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"check failed: {name}: {problem}")

    def stage_total(self, stage: str) -> float:
        return sum(t.get(stage, 0.0) for t in self.times)

    def wall(self) -> list[float]:
        return [sum(t.values()) for t in self.times]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def combined(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def instance_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + k for k in range(count)]


def instance_count(workload, seconds: int, tiny: bool) -> int:
    return 1 if tiny else max(1, round(seconds / workload.instance_s))


def make_inputs(main, workload, size, seeds, root: Path) -> None:
    def call(*argv):
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"input generation failed: ivln {' '.join(argv)} -> {code}")

    for k, seed in enumerate(seeds):
        d = root / f"i{k}"
        d.mkdir(parents=True)
        workload.make_inputs(call, d, seed, size)


# ---------------------------------------------------------------------------
# policy timing: the only boundary timed in an untraced pass


@contextlib.contextmanager
def timed_policies(cli, recorder: Recorder):
    """Time every act/observe call of the policy each ``run`` builds."""
    make_policy = cli.make_policy

    def timed(method, samples):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                samples.append(perf_counter() - start)

        return wrapper

    def make_timed_policy(*args, **kwargs):
        policy = make_policy(*args, **kwargs)
        policy.act = timed(policy.act, recorder.act_s)
        policy.observe = timed(policy.observe, recorder.observe_s)
        return policy

    cli.make_policy = make_timed_policy
    try:
        yield
    finally:
        cli.make_policy = make_policy


def run_pass(cli, workload, size, seeds, inputs: Path, root: Path, tracer=None) -> Recorder:
    recorder = Recorder(cli.main, tracer)
    shutil.copytree(inputs, root)
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(timed_policies(cli, recorder))
        else:
            tracer.install()
            stack.callback(tracer.uninstall)
        for k, seed in enumerate(seeds):
            recorder.begin_instance(k)
            try:
                workload.run(recorder, root / f"i{k}", seed, size)
            except StageFailed:
                break
    return recorder


# ---------------------------------------------------------------------------
# machine record


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def sources_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": sources_digest(SRC / "ivln"),
        "bench_sha256": sources_digest(HERE),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# set-up


def timed_setups(args, work: Path) -> tuple[list[float], list[float], Path, list[str]]:
    """Run set-up in fresh processes between host-speed probes.

    Returns the times, the probes, an inputs dir and failures.
    """
    times, probes, failures, digests = [], [probe()], [], []
    last = None
    for r in range(WORKLOADS[args.workload].setup_repeats):
        out = work / f"setup{r}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only", str(out)]
        if args.tiny:
            cmd.append("--tiny")
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        times.append(perf_counter() - start)
        probes.append(probe())
        if proc.returncode != 0:
            failures.append(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            continue
        digests.append(tree_digests(out))
        last = out
    if len({combined(d) for d in digests}) > 1:
        failures.append("check failed: set-up inputs differ between processes with one seed")
    return times, probes, last, failures


def setup_only(args) -> int:
    from ivln import cli

    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.tiny else workload.full
    seeds = instance_seeds(args.seed, instance_count(workload, args.seconds, args.tiny))
    make_inputs(cli.main, workload, size, seeds, Path(args.setup_only))
    return 0


# ---------------------------------------------------------------------------
# reporting


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, count); below eleven samples the maximum
    stands in, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload, recorder: Recorder, setup_times, setup_probes) -> tuple[dict, list[str]]:
    """End-to-end metrics, every time scaled to the nominal host speed.

    One factor, from every set-up process and stage call of the run and
    the probes around them, scales every time (calibrate.py).
    """
    probes = setup_probes + recorder.probes
    scale = speed_scale(bracketed(setup_times, setup_probes) + bracketed(recorder.durations, recorder.probes))
    walls = recorder.wall()
    keys = [t.get(workload.key_stage, 0.0) for t in recorder.times]
    metrics = {
        "setup_s": median(setup_times) * scale,
        "wall_norm_s": sum(walls) * scale,
        "key_stage_norm_s": sum(keys) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probes_ms = [p * 1000 for p in probes]
    lines = [
        f"host speed: {len(probes)} probes on CPU {sorted(os.sched_getaffinity(0))}, mean {statistics.fmean(probes_ms):.3f} ms, "
        f"quartiles {fmt_q(probes_ms)}; times below are scaled by {scale:.4f} to the nominal {1000 * NOMINAL_S:.3f} ms",
        f"setup_s = {metrics['setup_s']:.4f} s  (median of {len(setup_times)} fresh processes; "
        f"raw quartiles {fmt_q(setup_times)})",
        f"wall_norm_s = {metrics['wall_norm_s']:.4f} s  (sum over {len(walls)} instances; "
        f"raw {sum(walls):.4f} s, raw per-instance quartiles {fmt_q(walls)})",
        f"key_stage_norm_s = {metrics['key_stage_norm_s']:.4f} s  ({workload.key_stage}, sum; "
        f"raw {sum(keys):.4f} s, raw per-instance quartiles {fmt_q(keys)})",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
    ]
    for stage in workload.stages:
        values = [t.get(stage, 0.0) for t in recorder.times]
        lines.append(f"{stage}_s = {sum(values):.4f} s  (sum, per-instance quartiles {fmt_q(values)})")
    lines.extend(latency_lines("policy_act", recorder.act_s))
    lines.extend(latency_lines("policy_rtt", recorder.act_s + recorder.observe_s))
    return metrics, lines


def latency_lines(name: str, samples: list[float]) -> list[str]:
    """Median and tail of per-call policy latencies (act, or act + observe)."""
    if not samples:
        return []
    ms = [x * 1000 for x in samples]
    tail, pct, n = tail_percentile(ms)
    return [f"{name}_p50_ms = {median(ms):.4f} ms, {name}_tail_ms = {tail:.4f} ms (p{pct:.1f}), {n} samples"]


def fmt_q(values) -> str:
    lo, hi = quartiles(values)
    return f"{lo:.4f}..{hi:.4f}"


RATIOS = [
    ("environment.dijkstra_field.reuse_ceiling", "environment.dijkstra_field.distinct_sources", "environment.dijkstra_field.calls"),
    ("environment.astar.reuse_ceiling", "environment.astar.distinct_targets", "environment.astar.calls"),
    ("mapper.synthesize_views.reuse_ceiling", "mapper.synthesize_views.distinct_poses", "mapper.synthesize_views.calls"),
]


def per_layer(names, plain: Recorder, traced: Recorder, tracer: Tracer) -> tuple[dict, list[str]]:
    raw = tracer.summary()
    agent = oracle = 0
    for path in traced.traces:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                if rec["phase"] == "agent":
                    agent += len(rec["actions"])
                else:
                    oracle += len(rec["actions"])
    raw["harness.agent_steps"] = agent
    raw["harness.oracle_steps"] = oracle
    for name, num, den in RATIOS:
        raw[name] = raw.get(num, 0) / raw[den] if raw.get(den) else 0.0
    for stage in {stage for w in WORKLOADS.values() for stage in w.stages}:
        raw[f"stage.{stage}_s"] = plain.stage_total(stage)
    rtt = [s * 1000 for s in plain.act_s + plain.observe_s]
    if rtt:
        raw["harness.policy_rtt_p50_ms"] = median(rtt)
        raw["harness.policy_rtt_tail_ms"] = tail_percentile(rtt)[0]
    untraced, traced_wall = sum(plain.wall()), sum(traced.wall())
    raw["trace.untraced_wall_s"] = untraced
    raw["trace.traced_wall_s"] = traced_wall
    raw["trace.overhead_s"] = traced_wall - untraced
    metrics = {name: float(raw.get(name, 0.0)) for name in names}
    lines = [f"{name} = {value:.6g}" for name, value in metrics.items() if value and "policy_rtt" not in name]
    lines.extend(latency_lines("harness.policy_rtt", plain.act_s + plain.observe_s))
    lines.append(f"tracing overhead: {traced_wall - untraced:+.3f} s on {untraced:.3f} s untraced "
                 f"({100 * (traced_wall - untraced) / untraced if untraced else 0:+.1f}%)")
    lines.append(f"not reached on this workload: {sorted(n for n, v in metrics.items() if not v)}")
    lines.append(f"absent boundaries: {tracer.absent}")
    return metrics, lines


# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep this process, its set-up processes and any agent child on one CPU.

    The host's speed differs between CPUs, and the probes only measure
    the CPU they run on.  An agent and the harness answer each other in
    turn, so sharing one CPU costs them no parallelism.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="timed work per run (sets the instance count)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="one tiny instance, for the self-test")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    missing = [p for p in (SRC / "ivln" / "cli.py", AGENT) if not p.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    os.environ.pop("IVLN_CONFIG", None)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)

    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.tiny else workload.full
    seeds = instance_seeds(args.seed, instance_count(workload, args.seconds, args.tiny))
    record = machine_record()
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            setup_times, setup_probes, failures = [], [], []
            from ivln import cli

            inputs = work / "inputs"
            make_inputs(cli.main, workload, size, seeds, inputs)
        else:
            setup_times, setup_probes, inputs, failures = timed_setups(args, work)
            from ivln import cli
        attempted = workload.setup_repeats + 1 if not args.trace else 0
        if inputs is None:
            print("\n".join(failures), file=sys.stderr)
            return 1

        plain = run_pass(cli, workload, size, seeds, inputs, work / "plain")
        recorders = [plain]
        if args.trace:
            tracer = Tracer()
            traced = run_pass(cli, workload, size, seeds, inputs, work / "traced", tracer)
            recorders.append(traced)
            attempted += 1
            if traced.digests != plain.digests:
                failures.append("check failed: traced artifacts differ from untraced ones")
        attempted += sum(s.attempted for s in recorders)
        failures += [f for s in recorders for f in s.failures]

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            metrics, lines = per_layer(units, plain, traced, tracer)
        else:
            metrics, lines = end_to_end(workload, plain, setup_times, setup_probes)

        record["loadavg_1m_end"] = os.getloadavg()[0]
        digest = combined(plain.digests)
        report_digests(args, record, plain.digests, lines)
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(f"workload {args.workload}, seed {args.seed}, {len(seeds)} instances, trace {args.trace}")
        print(f"machine {json.dumps(record, sort_keys=True)}")
        print(f"artifact digest {digest} over {len(plain.digests)} artifacts")
        for line in lines:
            print(line)
        for failure in failures:
            print(f"FAILED: {failure}")
        results = HERE / "_results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
        if args.trace:
            tracer.write(results / f"{stem}-spans.jsonl.gz")
        (results / f"{stem}.json").write_text(
            json.dumps({"machine": record, "result": result, "failures": failures,
                        "stage_times": [dict(t) for t in plain.times],
                        "setup_times": setup_times, "setup_probes": setup_probes,
                        "durations": plain.durations, "probes": plain.probes,
                        "digests": plain.digests},
                       indent=1, sort_keys=True)
        )
        print(json.dumps(result, sort_keys=True))
        return 0 if not failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_digests(args, record, digests, lines) -> None:
    """Compare artifact digests with an earlier run of the same sources and seed."""
    path = HERE / "_results" / f"digests-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else None
    sources = [record["src_sha256"], record["bench_sha256"]]
    if earlier and earlier["sources"] == sources:
        same = earlier["digests"] == digests
        lines.append(f"artifact digests {'agree with' if same else 'DIFFER from'} the earlier run of these sources")
    elif earlier:
        changed = sorted(k for k in digests if earlier["digests"].get(k) != digests[k])
        lines.append(f"artifacts changed since sources {earlier['sources'][0][:12]}: {changed or 'none'}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"sources": sources, "digests": digests}, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
