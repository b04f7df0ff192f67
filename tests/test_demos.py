"""The demo scripts run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_dissipation_trial_demo_writes_csv(tmp_path):
    csv = tmp_path / "last.csv"
    proc = run_demo("dissipation_trial.py", "--trials", "2", "--T", "2", "--csv", str(csv))
    assert re.search(r"^worst margin over 2 trials: .* \(ok\)$", proc.stdout, re.M)
    assert re.search(r"^  margin at eps: .* \(ok\)$", proc.stdout, re.M)
    assert re.search(r"^  margin at 1\.01 r: -.* \(violated\)$", proc.stdout, re.M)
    header = csv.read_text().splitlines()[0]
    assert header == ",".join(
        ["t"] + [f"x{i}" for i in range(1, 7)] + [f"y{j}" for j in range(1, 5)]
        + [f"w{j}" for j in range(1, 5)] + ["V"]
    )


def test_growing_cascade_demo_matches_the_full_design():
    out = run_demo("growing_cascade.py").stdout
    assert "record for record: True" in out
    assert re.search(r"^centralized check of the grown cascade: pass:", out, re.M)


def test_tridiagonal_certificate_demo_blocks_are_identical():
    lines = [ln for ln in run_demo("tridiagonal_certificate.py").stdout.splitlines()
             if re.match(r"block \d+:", ln)]
    assert lines == [
        f"block {i}: protocol margin is identical to the Schur complement "
        "(largest gap 0.000e+00)"
        for i in range(1, 5)
    ]
