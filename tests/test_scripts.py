"""Smoke runs of the scripts under scripts/ as child processes."""

import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_noise_sweep_writes_a_mean_row_per_level(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("noise_sweep.py", "--rooms", 2, "--episodes", 3, "--seeds", 2, "--p", 0.0, 0.5,
               "--out", out, cwd=tmp_path)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["p_error", "seed", "split_score"]
    assert [row[0] for row in rows[1:] if row[1] == "mean"] == ["0.0", "0.5"]
    assert len(rows) == 1 + 2 * (2 + 1)


def test_run_demo_replays_the_live_map(tmp_path):
    stdout = run_script("run_demo.py", "--out", tmp_path / "demo", cwd=tmp_path)
    assert "replayed map identical to live map: True" in stdout
