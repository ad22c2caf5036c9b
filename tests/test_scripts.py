"""Smoke tests of the command-line sweeps in ``scripts/``: each runs as a
child process on a three-point range and must print CSV data only."""

import csv
import io
import math
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("name, argv, header, progress", [
    ("richardson_sweep.py",
     ["--family", "one_tp", "--q0-from", "-10", "--q0-to", "-9",
      "--step", "0.5"],
     "q0,lambda_plus,lambda_minus,n_r,n_h,n_eigenvalues,seconds", "q0="),
    ("application_bound_study.py",
     ["--m-from", "0.6", "--m-to", "1.0", "--step", "0.2",
      "--q-factor", "-1"],
     "m,q0,certificate_valid,bound,lambda_plus,slack,seconds", "M="),
], ids=["richardson_sweep", "application_bound_study"])
def test_script_prints_csv_rows_only(name, argv, header, progress):
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert len(rows) == 3
    width = len(header.split(","))
    for row in rows:
        assert len(row) == width
        assert all(math.isfinite(float(v)) for v in (row[0], row[1], row[-1]))
    # progress goes to stderr, one line per point
    assert proc.stderr.count(progress) == 3
    assert progress not in proc.stdout
