#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract, runs each workload
once untraced and once traced with ``--tiny``, and checks the result
schema, the output checks and the operation counts -- never absolute
times.  Last, it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's files, where it must fail without
printing a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message: str) -> None:
    sys.exit(f"selftest: {message}")


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        fail("run_seconds out of range")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("need 2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.fullmatch(n) for n in names):
        fail("names must be unique and well formed")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w['name']} is malformed")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m['name']} is malformed")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m['name']} is malformed")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"metric {m['name']} has a bad unit or direction")
    if {"name": "setup_s", "unit": "s", "better": "lower"}.items() - next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items():
        fail("setup_s must be seconds, lower is better")


def last_result(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run(workload: str, trace: int, spec: dict, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, spec: dict) -> None:
    proc = run(workload, trace, spec)
    result = last_result(proc.stdout)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0 or result is None:
        fail(f"{where} exited {proc.returncode}:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: checks or operations failed:\n{proc.stdout[-2000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        value = entry["value"]
        if entry["unit"] != want[name] or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: metric {name} is {entry}")
        if not trace and value <= 0:
            fail(f"{where}: end-to-end metric {name} is {value}")
    print(f"ok  {where}: {result['attempted']} operations")


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(spec["workloads"][0]["name"], 0, spec, cwd=bare)
        if proc.returncode == 0 or last_result(proc.stdout) is not None:
            fail("benchmark printed a result without the program's sources")
        print("ok  bare directory: exits", proc.returncode, "without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace, spec)
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
