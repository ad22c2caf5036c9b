"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import closed_form as cf          # noqa: E402
import layers                     # noqa: E402
import run                        # noqa: E402
from tracer import Tracer         # noqa: E402
from workloads import (WORKLOADS, Findings, application,  # noqa: E402
                       check_real_root, one_tp)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    wl = WORKLOADS[name]
    assert json.dumps(wl.generate(7)) == json.dumps(wl.generate(7))
    assert json.dumps(wl.generate(7)) != json.dumps(wl.generate(8))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("n, p", [(19, 50.0), (40, 75.0), (99, 75.0),
                                  (100, 90.0), (199, 90.0), (200, 95.0),
                                  (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_examples(n, p):
    assert run.tail_percentile(n) == p


def test_tail_percentile_keeps_ten_beyond_and_is_highest():
    for n in range(20, 3000):
        p = run.tail_percentile(n)
        assert n - run.rank(p, n) >= 10
        higher = [q for q in run.TAIL_LADDER if q > p]
        assert all(n - run.rank(q, n) < 10 for q in higher)


def test_rank_is_nearest_rank():
    assert run.rank(90.0, 100) == 90
    assert run.rank(50.0, 100) == 50
    assert run.rank(99.9, 10_000) == 9990


def test_band_mean_averages_around_the_percentile():
    assert run.band_mean([5.0, 1.0, 3.0], 50.0) == 3.0
    assert run.band_mean(list(range(100)), 50.0) == 49.5     # 40th to 60th
    assert run.band_mean(list(range(101)), 75.0) == 75.0     # 70th to 80th


def test_tail_band_stays_clear_of_the_top_samples():
    for n in range(20, 3000):
        p = run.tail_percentile(n)
        top = math.ceil((p + (100.0 - p) / 5.0) / 100.0 * (n - 1))
        assert n - 1 - top >= 7


def test_closed_loop_completes_the_first_pass():
    lib = SimpleNamespace(errors=SimpleNamespace(SlindefError=ValueError))
    records, _, _ = run.closed_loop([lambda: 1] * 5, [None] * 5, lib, 1e-9)
    assert [k for k, *_ in records] == [0, 1, 2, 3, 4]


def test_failures_are_counted_per_op_not_per_pass():
    records = [(0, 0.1, "ok", 1), (1, 0.1, "incomplete", 2),
               (2, 0.1, "bare_exception", None), (0, 0.1, "ok", 1),
               (1, 0.1, "incomplete", 2)]
    summary = run.failure_summary(records, Findings())
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert summary["classes"]["incomplete"] == 1
    assert summary["classes"]["bare_exception"] == 1
    # a third pass over op 0 and op 1 changes nothing
    more = run.failure_summary(records + records[:2], Findings())
    assert (more["attempted"], more["failed"]) == (3, 2)


def test_scaled_times_read_at_the_nominal_speed(monkeypatch):
    monkeypatch.setattr(run, "reference_s", lambda: 2.0 * run.REF_NOMINAL_S)
    out, lat, raw = run.scaled(lambda: sum(range(10_000)))
    assert out == sum(range(10_000))
    assert lat == pytest.approx(raw / 2.0)
    monkeypatch.setattr(run, "reference_child_s",
                        lambda: 4.0 * run.REF_CHILD_NOMINAL_S)
    _, lat, raw = run.scaled(lambda: sum(range(10_000)), "child")
    assert lat == pytest.approx(raw / 4.0)


def test_reference_child_runs_the_kernel():
    assert run.reference_child_s() > 0.0
    assert WORKLOADS["cli_batch"].reference == "child"


def test_roots_past_the_rounding_limit_are_unchecked_not_passed():
    problem = application(0.0)
    lam = 435.2811663491535      # an eigenvalue whose eigenfunction decays into b
    assert cf.log_condition(problem, lam) > 18.0
    f = Findings()
    check_real_root(problem, lam, 0, None, "op 0", f)
    assert f.roots == {"judged": 0, "unchecked": 1} and not f.bad
    # 1e-7 off the root the rounding limit is not reached: judged, and wrong
    check_real_root(problem, lam * (1.0 + 1e-7), None, None, "op 1", f)
    assert f.roots == {"judged": 1, "unchecked": 1}
    assert len(f.bad) == 1 and "not a root" in f.bad[0]


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layers.PER_LAYER


def test_printed_metrics_match_benchmark_json(capsys):
    assert run.main(["--workload", "scan_const", "--seed", "1",
                     "--seconds", "0.3", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_run_prints_per_layer_metrics(capsys, monkeypatch):
    monkeypatch.setattr(WORKLOADS["pointwise"], "trace_ops", 4)
    assert run.main(["--workload", "pointwise", "--seed", "1",
                     "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["propagator.transfer_table.calls"]["value"] > 0
    assert result["metrics"]["spectrum.characteristic.complex_calls"]["value"] == 0


@pytest.mark.parametrize("name", ["scan_const", "pointwise", "cli_batch"])
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    wl = WORKLOADS[name]
    lib = run.import_library(ROOT / "src")
    ops = wl.generate(3)
    picks = [k for k, op in enumerate(ops) if not op.get("high")]
    picks = sorted(picks, key=lambda k: _size(ops[k]))[:3]
    if name == "cli_batch":
        wl.write_files(ops, tmp_path)
        runners = [wl.inprocess_runner(lib, wl.argv(op, tmp_path)) for op in ops]
    else:
        runners = wl.prepare(ops, lib, tmp_path)
    plain = [repr(runners[k]()) for k in picks]
    originals = {m.__name__: dict(vars(m)) for m in lib.modules}
    with Tracer(lib.modules) as tr:
        traced = [repr(runners[k]()) for k in picks]
    assert traced == plain
    assert sum(tr.calls.values()) > 0
    for m in lib.modules:      # every wrapped binding is restored
        assert all(vars(m)[k] is v for k, v in originals[m.__name__].items())


def _size(op: dict) -> float:
    """A rough cost order, so the test picks cheap ops."""
    if "window" in op:
        return op["window"][1]
    if "lam" in op:
        return abs(op["lam"])
    return 0.0 if op["argv"][0] == "certify" else 1.0


def test_tracer_counts_rk45_callbacks_and_routes(tmp_path):
    lib = run.import_library(ROOT / "src")
    wl = WORKLOADS["pointwise"]
    ops = [op for op in wl.generate(1)
           if op["func"] == "characteristic" and not op.get("high")][:1]
    fn = wl.prepare(ops, lib, tmp_path)[0]
    with Tracer(lib.modules) as tr:
        fn()
    values = layers.metrics(tr, 1, {})
    assert values["propagator.transfer_table.calls"] == 1
    assert values["propagator.transfer_const.calls"] == 1
    assert values["propagator.rk45.rhs_evals"] > 6 * values["propagator.rk45.calls"]
    assert values["spectrum.characteristic.real_calls"] == 1


def test_closed_form_matches_the_golden_scan():
    golden = (ROOT / "tests" / "golden" / "one_tp_m10_scan.csv").read_text()
    problem = one_tp(-10.0)
    rows = [line.split(",") for line in golden.strip().split("\n")[1:]]
    for lam, _, zeros, norm, _ in rows:
        lam = float(lam)
        assert abs(cf.newton_step(problem, lam)) < 1e-12 * abs(lam)
        assert cf.count_zeros(problem, lam, at_root=True) == int(zeros)
        signed, absolute = cf.norms(problem, lam)
        assert abs(signed - float(norm)) <= 1e-9 * absolute


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "scan_const", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no slindef sources" in out.err
