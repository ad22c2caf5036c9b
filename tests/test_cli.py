"""End-to-end command-line interface tests (in-process and one subprocess)."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import slindef
from slindef import (Piece, PiecewiseCoefficient, ProblemSpec,
                     one_turning_point, save_problem, two_turning_point)
from slindef.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture()
def one_tp_file(tmp_path):
    path = tmp_path / "one_tp_m10.json"
    save_problem(one_turning_point(-10.0), path)
    return str(path)


@pytest.fixture()
def app_file(tmp_path):
    from slindef import application_problem
    path = tmp_path / "app.json"
    save_problem(application_problem(0.0), path)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def test_classify(capsys, one_tp_file):
    rc, out, _ = run(capsys, "classify", one_tp_file)
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "polar"


def test_classify_past_an_overflowing_witness(capsys, tmp_path):
    # the ground state of the unit-weight problem overflows its norm
    path = tmp_path / "steep.json"
    save_problem(ProblemSpec(PiecewiseCoefficient((
        Piece(-0.44603502457927724, 2.327820664204916, 2.308, -1.436),)),
        2.2687, 3.1361), path)
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert (doc["kind"], doc["is_polar"]) == ("orthogonal", False)
    assert doc["witnesses"]["energy_form_negative_trial"]["value"] is None


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------

def test_scan_csv_matches_golden(capsys, one_tp_file):
    rc, out, _ = run(capsys, "scan", one_tp_file,
                     "--window", "-60", "60", "--format", "csv")
    assert rc == 0
    assert out == (GOLDEN / "one_tp_m10_scan.csv").read_text()


def test_scan_json(capsys, one_tp_file):
    rc, out, _ = run(capsys, "scan", one_tp_file, "--window", "-60", "60")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 4
    assert doc["n_r_empirical"] == 0


def test_scan_out_file(capsys, one_tp_file, tmp_path):
    dest = tmp_path / "scan.csv"
    rc, out, _ = run(capsys, "scan", one_tp_file, "--window", "-60", "60",
                     "--format", "csv", "--out", str(dest))
    assert rc == 0
    assert out == ""
    assert dest.read_text() == (GOLDEN / "one_tp_m10_scan.csv").read_text()


def test_scan_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "scan", str(tmp_path / "nope.json"),
                     "--window", "0", "1")
    assert rc == 2
    assert "error" in err


def test_scan_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pieces": "nope"}')
    rc, _, err = run(capsys, "scan", str(bad), "--window", "0", "1")
    assert rc == 2


def test_scan_bad_window_exit_2(capsys, one_tp_file):
    rc, _, _ = run(capsys, "scan", one_tp_file, "--window", "5", "5")
    assert rc == 2


def test_scan_infinite_tol_exit_2(capsys, one_tp_file):
    rc, out, err = run(capsys, "scan", one_tp_file, "--window", "-60", "60",
                       "--tol", "inf")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("q, message", [
    ({"table": [1, 2]}, "pairs"),
    ({"const": [1]}, "'const' must be a number"),
    ({"const": "abc"}, "'const' must be a number"),   # not a table of chars
    (2.5, "q entry must be an object"),
    ({"table": [[0.0, 1.0], [1.0, "abc"]]}, "q table value is not a number"),
])
def test_scan_malformed_q_exit_2(capsys, tmp_path, q, message):
    bad = tmp_path / "bad_q.json"
    bad.write_text(json.dumps({"pieces": [
        {"x0": 0.0, "x1": 1.0, "w": 1.0, "q": q}]}))
    rc, _, err = run(capsys, "scan", str(bad), "--window", "0", "1")
    assert rc == 2
    assert err.startswith("error:")
    assert message in err


@pytest.mark.parametrize("doc, message", [
    ({"alpha": True}, "alpha is not a number: True"),
    ({"pieces": [{"x0": 0.0, "x1": True, "w": 1.0, "q": {"const": 0.0}}]},
     "piece x1 is not a number: True"),
    ({"pieces": [{"x0": 0.0, "x1": 1.0, "w": 1.0, "q": {"const": False}}]},
     "constant q is not a number: False"),
])
def test_scan_json_boolean_exit_2(capsys, tmp_path, doc, message):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"pieces": [
        {"x0": 0.0, "x1": 1.0, "w": 1.0, "q": {"const": 0.0}}], **doc}))
    rc, out, err = run(capsys, "scan", str(bad), "--window", "0", "1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err


def test_scan_non_utf8_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"pieces": "\xe9"}')
    rc, _, err = run(capsys, "scan", str(bad), "--window", "0", "1")
    assert rc == 2
    assert err.startswith("error:")


# --------------------------------------------------------------------------
# complex-scan
# --------------------------------------------------------------------------

def test_complex_scan(capsys, tmp_path):
    path = tmp_path / "p13.json"
    save_problem(one_turning_point(13.0), path)
    rc, out, _ = run(capsys, "complex-scan", str(path),
                     "--re", "-20", "20", "--im", "-20", "20")
    assert rc == 0
    doc = json.loads(out)
    eigs = doc["eigenvalues"]
    assert len(eigs) == 4
    ims = sorted(r["im_lambda"] for r in eigs)
    assert ims == sorted(-v for v in ims)     # conjugate-symmetric set


def test_complex_scan_empty(capsys, tmp_path):
    path = tmp_path / "classical.json"
    from slindef import Piece, PiecewiseCoefficient, ProblemSpec
    save_problem(ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),))),
                 path)
    rc, out, _ = run(capsys, "complex-scan", str(path),
                     "--re", "1", "50", "--im", "0.1", "10", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines == ["re_lambda,im_lambda,zeros,weighted_norm,residual"]


# --------------------------------------------------------------------------
# richardson / drift
# --------------------------------------------------------------------------

def test_richardson(capsys, one_tp_file):
    rc, out, _ = run(capsys, "richardson", one_tp_file,
                     "--window", "-60", "60")
    assert rc == 0
    doc = json.loads(out)
    assert doc["lambda_plus"] == pytest.approx(-17.118939070171837, rel=1e-9)
    assert doc["lambda_minus"] == pytest.approx(17.118939070171816, rel=1e-9)
    assert doc["tail_evidence"]["lambda_max_checked"] > 41.0


def test_richardson_csv_with_drift(capsys, app_file):
    rc, out, _ = run(capsys, "richardson", app_file, "--window", "-40", "30",
                     "--format", "csv", "--drift")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(",drift_zero1")
    assert len(lines) == 8


def test_richardson_csv_without_drift(capsys, app_file):
    rc, out, _ = run(capsys, "richardson", app_file, "--window", "-40", "30",
                     "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re_lambda,im_lambda,zeros,weighted_norm,residual"
    assert len(lines) == 8


def test_richardson_empty_window_exit_3(capsys, one_tp_file):
    rc, _, err = run(capsys, "richardson", one_tp_file, "--window", "-5", "5")
    assert rc == 3
    assert "numerical failure" in err


def test_drift(capsys, app_file):
    rc, out, _ = run(capsys, "drift", app_file,
                     "--lam", "28.23152921358738", "--zero-index", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["drift"] == pytest.approx(-0.005153606088376104, rel=1e-4)


@pytest.mark.parametrize("lam, code", [
    ("6e5", 3), ("-6e5", 3), ("1e8", 3), ("-1e8", 3), ("nan", 2), ("inf", 2)])
def test_drift_at_extreme_lambda_exits_cleanly(capsys, one_tp_file, lam, code):
    rc, _, err = run(capsys, "drift", one_tp_file,
                     f"--lam={lam}", "--zero-index", "1")
    assert rc == code
    assert "Traceback" not in err


def test_overflow_in_child_process_exits_3(tmp_path, one_tp_file):
    src = pathlib.Path(slindef.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "slindef.cli", "scan", one_tp_file,
         "--window", "6e5", "6.0001e5"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_scan_past_phase_precision_exit_3(capsys, tmp_path):
    path = tmp_path / "classical.json"
    save_problem(ProblemSpec(PiecewiseCoefficient(
        (Piece(0.0, 1.0, 1.0, 0.0),))), path)
    rc, out, err = run(capsys, "scan", str(path), "--window", "1e300", "2e300")
    assert rc == 3
    assert out == ""
    assert "phase" in err and "Traceback" not in err


def test_scan_tabulated_past_phase_precision_exit_3(capsys, tmp_path):
    # each Magnus step's phase is far below the limit, the total is not
    path = tmp_path / "tabulated.json"
    save_problem(ProblemSpec(PiecewiseCoefficient(
        (Piece(0.0, 1.0, 1.0, ((0.0, -3.0), (1.0, 2.0))),))), path)
    rc, out, err = run(capsys, "scan", str(path), "--window", "1e31", "2e31")
    assert rc == 3
    assert out == ""
    assert "phase" in err and "Traceback" not in err


def test_drift_missing_zero_exit_3(capsys, one_tp_file):
    rc, _, _ = run(capsys, "drift", one_tp_file,
                   "--lam", str(math.pi ** 2), "--zero-index", "5")
    assert rc == 3


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

def test_certify_one_tp(capsys):
    rc, out, _ = run(capsys, "certify", "--kind", "one_tp", "--q0", "-10")
    assert rc == 0
    doc = json.loads(out)
    assert doc["upper"]["bound"] == pytest.approx(10.0 - math.pi ** 2 / 4.0)
    assert doc["upper"]["valid"] and doc["lower"]["valid"]


def test_certify_one_tp_violation_exit_4(capsys):
    rc, _, err = run(capsys, "certify", "--kind", "one_tp", "--q0", "-1")
    assert rc == 4
    assert "hypothesis violation" in err


def test_certify_application(capsys):
    rc, out, _ = run(capsys, "certify", "--kind", "application", "--m", "2",
                     "--q-const", "-1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["bound"] == pytest.approx(21.0)


def test_certify_prop3(capsys, one_tp_file):
    rc, out, _ = run(capsys, "certify", one_tp_file, "--kind", "prop3",
                     "--lam", "17.118939070171816", "--mu", "0.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["direction"] == "upper_on_lambda_plus"


def test_certify_prop5_reports_invalid_without_failing(capsys, app_file):
    d = math.pi / (2.0 * math.sqrt(5.0))
    rc, out, _ = run(capsys, "certify", app_file, "--kind", "prop5",
                     "--mu", "2", "--lambda-star", "10.5",
                     "--c", "0", "--d", str(d), "--e", str(1.0 + d))
    assert rc == 0                    # checking ran fine; the answer is "no"
    doc = json.loads(out)
    assert doc["valid"] is False


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_certify_prop3_non_finite_tol_exit_2(capsys, one_tp_file, tol):
    # 5 is no eigenvalue: |D| / scale = 0.31 there
    rc, out, err = run(capsys, "certify", one_tp_file, "--kind", "prop3",
                       "--lam", "5", "--mu", "0", "--tol", tol)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("kind", ["prop4", "prop5"])
@pytest.mark.parametrize("mu", ["abc", "1,2", ""])
def test_certify_bad_mu_exit_2(capsys, app_file, kind, mu):
    rc, _, err = run(capsys, "certify", app_file, "--kind", kind,
                     "--mu", mu, "--lambda-star", "10.5",
                     "--c", "0", "--d", "0.7", "--e", "1.7")
    assert rc == 2
    assert err.startswith("error:")


def test_certify_missing_argument_exit_2(capsys):
    rc, _, _ = run(capsys, "certify", "--kind", "one_tp")
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (["--kind", "application"], "needs --m"),
    (["{app}", "--kind", "prop3", "--mu", "0"], "needs --lam and --mu"),
    (["{app}", "--kind", "prop3", "--lam", "1"], "needs --lam and --mu"),
    (["{app}", "--kind", "prop4", "--mu", "2", "--lambda-star", "10.5",
      "--c", "0", "--d", "0.7"], "needs --e"),
    (["{app}", "--kind", "prop5", "--mu", "2", "--c", "0", "--d", "0.7",
      "--e", "1.7"], "needs --lambda-star"),
])
def test_certify_missing_flag_exit_2(capsys, app_file, argv, message):
    rc, out, err = run(capsys, "certify",
                       *(app_file if a == "{app}" else a for a in argv))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_certify_prop3_needs_problem_exit_2(capsys):
    rc, _, _ = run(capsys, "certify", "--kind", "prop3",
                   "--lam", "1.0", "--mu", "0.0")
    assert rc == 2


@pytest.mark.parametrize("argv, name", [
    (["--kind", "one_tp", "--q0=nan"], "q0"),
    (["--kind", "one_tp", "--q0=-inf"], "q0"),
    (["--kind", "application", "--m=nan"], "M"),
    (["--kind", "application", "--m=inf"], "M"),
    (["{m10}", "--kind", "prop3", "--mu=0", "--lam=nan"], "lambda"),
    (["{m10}", "--kind", "prop3", "--lam=17.118939070171816", "--mu=nan"],
     "mu"),
    *[(["{app}", "--kind", kind, "--mu=2", "--lambda-star=10.5", "--c=0",
        "--d=0.7", "--e=1.7", f"--{flag}={bad}"], name)
      for kind in ("prop4", "prop5")
      for flag, name in (("mu", "mu"), ("lambda-star", "lambda_star"))
      for bad in ("nan", "inf")],
])
def test_certify_non_finite_parameter_exit_2(capsys, one_tp_file, app_file,
                                             argv, name):
    files = {"{m10}": one_tp_file, "{app}": app_file}
    rc, out, err = run(capsys, "certify", *(files.get(a, a) for a in argv))
    assert rc == 2
    assert out == ""
    assert err == f"error: {name} must be finite, got {argv[-1].split('=')[1]}\n"


# --------------------------------------------------------------------------
# warnings on stderr
# --------------------------------------------------------------------------

@pytest.fixture()
def classical_file(tmp_path):
    path = tmp_path / "classical.json"
    save_problem(ProblemSpec(PiecewiseCoefficient(
        (Piece(0.0, 1.0, 1.0, 0.0),))), path)
    return str(path)


def test_contour_retry_warns_on_stderr(capsys, classical_file):
    # the right edge lies on the fundamental eigenvalue pi^2
    rc, out, err = run(capsys, "complex-scan", classical_file,
                       "--re", "5", "9.869604401089358", "--im", "-1", "1")
    assert rc == 0
    assert json.loads(out)["eigenvalues"]
    assert err.startswith("WARNING: contour passed near a root; expanding "
                          "the rectangle by ")
    assert err.count("\n") == 1


def test_scan_edge_band_warns_on_stderr(capsys, classical_file):
    rc, out, err = run(capsys, "scan", classical_file,
                       "--window", "9.869604401089358", "50")
    assert rc == 0
    assert json.loads(out)["warnings"]
    assert err.startswith("WARNING: eigenvalue 9.869604401089")
    assert "lies within the boundary band of the window edge" in err
    assert all(line.startswith("WARNING: ")
               for line in err.rstrip("\n").split("\n"))


# --------------------------------------------------------------------------
# output bytes
# --------------------------------------------------------------------------

# Each file is the CLI's stdout for its command line, byte for byte, with
# the fixtures' problems.  certificates._jsonable turns any tuple into a
# list, so a result record (a named tuple) that reached it would change
# these silently.
GOLDEN_RUNS = {
    "classify_one_tp_m10.json": ["classify", "{m10}"],
    "classify_one_tp_p13.json": ["classify", "{p13}"],
    "certify_one_tp.json": ["certify", "--kind", "one_tp", "--q0", "-10"],
    "certify_application.json": ["certify", "--kind", "application",
                                 "--m", "2", "--q-const", "-1"],
    "certify_prop3.json": ["certify", "{m10}", "--kind", "prop3",
                           "--lam", "17.118939070171816", "--mu", "0.0"],
    "certify_prop5.json": ["certify", "{app}", "--kind", "prop5", "--mu", "2",
                           "--lambda-star", "10.5", "--c", "0",
                           "--d", "0.7024814731040726",
                           "--e", "1.7024814731040725"],
    "richardson_app_drift.csv": ["richardson", "{app}", "--window", "-40",
                                 "30", "--format", "csv", "--drift"],
    "complex_scan_one_tp_p13.json": ["complex-scan", "{p13}", "--re", "-20",
                                     "20", "--im", "-20", "20"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(capsys, tmp_path, one_tp_file, app_file, name):
    p13 = tmp_path / "p13.json"
    save_problem(one_turning_point(13.0), p13)
    files = {"{m10}": one_tp_file, "{app}": app_file, "{p13}": str(p13)}
    rc, out, _ = run(capsys, *(files.get(a, a) for a in GOLDEN_RUNS[name]))
    assert rc == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


# --------------------------------------------------------------------------
# console-script wiring
# --------------------------------------------------------------------------

def test_installed_entry_point(tmp_path):
    exe = shutil.which("slindef")
    assert exe, "console script 'slindef' is not on PATH"
    path = tmp_path / "two_tp.json"
    save_problem(two_turning_point(-1.0, 1.0, -1.0, 0.0), path)
    proc = subprocess.run([exe, "scan", str(path), "--window", "-10", "10",
                           "--format", "csv"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "re_lambda,im_lambda,zeros,weighted_norm,residual"
    assert len(lines) >= 2
