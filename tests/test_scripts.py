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


def run_script(name, *argv, timeout=60):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


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


@pytest.mark.parametrize("name, argv, grid", [
    ("richardson_sweep.py",
     ["--family", "one_tp", "--q0-from", "-10", "--q0-to", "-9",
      "--step", "0.1"],
     ["-10.0", "-9.9", "-9.8", "-9.7", "-9.6", "-9.5", "-9.4", "-9.3",
      "-9.2", "-9.1", "-9.0"]),
    ("application_bound_study.py",
     ["--m-from", "0.6", "--m-to", "1.0", "--step", "0.1"],
     ["0.6", "0.7", "0.8", "0.9", "1.0"]),
], ids=["richardson_sweep", "application_bound_study"])
def test_grid_point_i_is_from_plus_i_step(name, argv, grid):
    # a running sum x += step would scan -9.700000000000001 and
    # 0.7999999999999999 here
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert [row[0] for row in rows] == grid


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("name", ["richardson_sweep.py",
                                  "application_bound_study.py"])
def test_step_must_be_positive_and_finite(name, step):
    # a step that is not positive never reaches the end of the range, so
    # the short timeout fails the test instead of hanging it
    proc = run_script(name, f"--step={step}", timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"step must be positive and finite, got {float(step)!r}\n"


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
@pytest.mark.parametrize("name, argv", [
    ("richardson_sweep.py",
     ["--q0-from", "-10", "--q0-to", "-9", "--step", "0.5"]),
    ("application_bound_study.py",
     ["--m-from", "0.6", "--m-to", "1.0", "--step", "0.2"]),
], ids=["richardson_sweep", "application_bound_study"])
def test_tol_is_read_once_before_the_sweep(name, argv, tol):
    # a tolerance no point can use is one error and exit 2, not one error
    # per point and exit 0 with only the CSV header
    proc = run_script(name, *argv, f"--tol={tol}", timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"tol must be positive and finite, got {float(tol)!r}\n"
