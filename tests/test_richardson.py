"""Weighted norms, type thresholds, and the zero-drift law."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slindef import (
    DriftUndefined,
    EmptyWindowError,
    InvalidProblemError,
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    application_problem,
    interior_zeros,
    one_turning_point,
    richardson_numbers,
    solution_at,
    weighted_norm,
    zero_drift,
)
from slindef import richardson
from slindef.richardson import report_to_csv, report_to_dict, weighted_partial
from slindef.spectrum import EigenRecord, ScanResult, _empirical_indices

from oracles import simpson_weighted_norm

APP_LAMBDA_TOP = 28.23152921358738      # third positive-type eigenvalue, q=0
APP_DRIFT_ZERO1 = -0.005153606088376104  # d x_1 / d lambda there


# --------------------------------------------------------------------------
# Weighted norms
# --------------------------------------------------------------------------

class TestWeightedNorm:
    def test_sine_closed_form(self, classical_spec):
        # the unit-slope start gives y = sin(kx)/k on [0,1] with w = 1, so
        # the integral is (1 - sin 2k / 2k) / (2 k^2)
        for k in (1.0, 2.0, math.pi, 7.3):
            lam = k * k
            want = 0.5 * (1.0 - math.sin(2.0 * k) / (2.0 * k)) / lam
            assert weighted_norm(classical_spec, lam) == pytest.approx(
                want, rel=1e-12)

    @given(st.floats(min_value=-80.0, max_value=80.0))
    def test_positive_weight_gives_positive_norm(self, lam):
        spec = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, 2.0, -3.0),)))
        assert weighted_norm(spec, lam) > 0.0

    @pytest.mark.parametrize("lam", [-35.0, -5.0, 0.0, 20.0, 55.0])
    def test_matches_simpson_oracle(self, one_tp_m10, lam):
        want = simpson_weighted_norm(one_tp_m10, lam)
        got = weighted_norm(one_tp_m10, lam)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("lam", [-11.0, 3.0, 41.0])
    def test_matches_simpson_oracle_sampled_piece(self, lam):
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, -1.0, ((0.0, 0.0), (0.6, 4.0), (1.0, -2.0))),
            Piece(1.0, 2.0, 2.0, 1.0),
        )))
        want = simpson_weighted_norm(spec, lam)
        got = weighted_norm(spec, lam)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @given(st.floats(min_value=-500.0, max_value=1e3),
           st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1,
                    max_size=4, unique=True),
           st.lists(st.floats(min_value=-10.0, max_value=30.0), min_size=6,
                    max_size=6),
           st.floats(min_value=0.1, max_value=0.9))
    def test_matches_simpson_oracle_tabulated_range(self, lam, inner, qs,
                                                     clip):
        xs = [0.0, *sorted(inner), 1.0]
        table = tuple(zip(xs, qs))
        tab = Piece(0.0, 1.0, -1.0, table)
        spec = ProblemSpec(PiecewiseCoefficient((tab, Piece(1.0, 2.0, 2.0, 1.0))))
        want = simpson_weighted_norm(spec, lam)
        assert weighted_norm(spec, lam) == pytest.approx(want, rel=1e-8,
                                                         abs=1e-8)
        # the same table cut at ``clip``: its full norm is the partial one
        cut = tuple((x, q) for x, q in table if x < clip) + (
            (clip, tab.q_at(clip)),)
        head = ProblemSpec(PiecewiseCoefficient((Piece(0.0, clip, -1.0, cut),)))
        want = simpson_weighted_norm(head, lam)
        assert weighted_partial(spec, lam, clip) == pytest.approx(
            want, rel=1e-8, abs=1e-8)

    def test_partial_reaches_full(self, app_spec):
        lam = 7.0
        assert weighted_partial(app_spec, lam, app_spec.b) == pytest.approx(
            weighted_norm(app_spec, lam), rel=1e-12)
        assert weighted_partial(app_spec, lam, app_spec.a) == 0.0

    def test_rejects_complex_lambda(self, classical_spec):
        with pytest.raises(InvalidProblemError):
            weighted_norm(classical_spec, 1.0 + 1.0j)

    @pytest.mark.parametrize("x_hi", [-0.1, 1.1])
    def test_partial_rejects_x_hi_outside_the_interval(self, classical_spec,
                                                       x_hi):
        with pytest.raises(InvalidProblemError, match="outside the interval"):
            weighted_partial(classical_spec, 5.0, x_hi)


# --------------------------------------------------------------------------
# Richardson numbers
# --------------------------------------------------------------------------

class TestRichardsonNumbers:
    def test_one_tp_thresholds(self, one_tp_m10):
        rep = richardson_numbers(one_tp_m10, (-60.0, 60.0), 1e-9)
        assert rep.lambda_plus == pytest.approx(-17.118939070171837, rel=1e-9)
        assert rep.lambda_minus == pytest.approx(17.118939070171816, rel=1e-9)
        assert rep.n_r_empirical == 0
        assert rep.n_h_empirical == 0

    def test_app_thresholds(self, app_spec):
        rep = richardson_numbers(app_spec, (-40.0, 30.0), 1e-9)
        assert rep.lambda_plus == pytest.approx(-6.241537589970832, rel=1e-9)
        assert rep.lambda_minus == pytest.approx(1.0867650193303984, rel=1e-9)

    def test_reported_thresholds_respect_norm_signs(self, app_spec):
        rep = richardson_numbers(app_spec, (-40.0, 30.0), 1e-9)
        recs = rep.scan.records
        lp = rep.lambda_plus
        assert all(r.weighted_norm > 0 for r in recs if r.re_lambda > lp)
        at_below = [r for r in recs if r.re_lambda <= lp]
        assert at_below and at_below[-1].weighted_norm <= 0
        lm = rep.lambda_minus
        assert all(r.weighted_norm < 0 for r in recs if r.re_lambda < lm)

    def test_definite_window_brackets_no_threshold(self, classical_spec):
        rep = richardson_numbers(classical_spec, (1.0, 100.0), 1e-9)
        assert rep.lambda_plus is None
        assert rep.lambda_minus is None
        assert rep.tail_evidence["all_positive_norm_from"] == pytest.approx(
            math.pi ** 2, rel=1e-9)

    def test_too_small_window_gives_none_with_evidence(self, one_tp_m10):
        # only the two positive-side eigenvalues: nothing witnesses a sign
        # change of the norms
        rep = richardson_numbers(one_tp_m10, (1.0, 60.0), 1e-9)
        assert rep.lambda_plus is None
        assert rep.lambda_minus is None
        assert rep.tail_evidence["lambda_max_checked"] == pytest.approx(
            41.57586512982179, rel=1e-9)

    def test_empty_window_raises(self, classical_spec):
        with pytest.raises(EmptyWindowError):
            richardson_numbers(classical_spec, (-50.0, -10.0), 1e-9)

    def test_tail_evidence_keys(self, one_tp_m10):
        rep = richardson_numbers(one_tp_m10, (-60.0, 60.0), 1e-9)
        assert set(rep.tail_evidence) == {
            "lambda_min_checked", "lambda_max_checked",
            "all_positive_norm_from", "all_negative_norm_upto"}
        assert rep.tail_evidence["all_positive_norm_from"] == pytest.approx(
            17.118939070171816, rel=1e-9)
        assert rep.tail_evidence["all_negative_norm_upto"] == pytest.approx(
            -17.118939070171837, rel=1e-9)


def _thresholds_by_definition(lams, norms):
    """lambda_plus, lambda_minus and the tail evidence read off their
    definitions, record by record."""
    pairs = list(zip(lams, norms))
    nonpos = [l for l, n in pairs if n <= 0.0]
    plus = max(nonpos) if nonpos else None
    above = [n for l, n in pairs if plus is not None and l > plus]
    if not (len(above) >= 2 and all(n > 0.0 for n in above)):
        plus = None
    nonneg = [l for l, n in pairs if n >= 0.0]
    minus = min(nonneg) if nonneg else None
    below = [n for l, n in pairs if minus is not None and l < minus]
    if not (len(below) >= 2 and all(n < 0.0 for n in below)):
        minus = None
    pos_from = [l for l in lams if all(n > 0.0 for m, n in pairs if m >= l)]
    neg_upto = [l for l in lams if all(n < 0.0 for m, n in pairs if m <= l)]
    return plus, minus, {
        "lambda_min_checked": min(lams),
        "lambda_max_checked": max(lams),
        "all_positive_norm_from": min(pos_from, default=None),
        "all_negative_norm_upto": max(neg_upto, default=None),
    }


def _indices_by_definition(counts):
    """(n_r, n_h) by trying every n_r: counts above the top doubled count
    are ignored, every count from the lowest up to it is present, once
    below n_r and at least twice from n_r up, and n_r is 0 or above the
    lowest count; n_h starts the top run of counts seen exactly twice."""
    mult = Counter(counts)
    doubled = [c for c in mult if mult[c] >= 2]
    if not doubled:
        return None, None
    low, top = min(counts), max(doubled)
    fits = [n for n in range(low, top + 1)
            if all(mult[c] == 1 for c in range(low, n))
            and all(mult[c] >= 2 for c in range(n, top + 1))]
    if not fits or 0 < fits[0] == low:
        return None, None
    n_r = fits[0]
    n_h = next((m for m in range(n_r, top + 1)
                if all(mult[c] == 2 for c in range(m, top + 1))), None)
    return n_r, n_h


class TestThresholdsProperty:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(
        st.floats(-1e3, 1e3),
        st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 1.0)),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.integers(0, 5)), min_size=1, max_size=12,
        unique_by=lambda t: t[0]))
    def test_matches_the_definitions(self, rows):
        rows.sort()
        lams, norms, counts = (list(col) for col in zip(*rows))
        records = tuple(EigenRecord(l, 0.0, c, n, 0.0) for l, n, c in rows)
        scan = ScanResult((lams[0], lams[-1]), 1e-9, records,
                          *_empirical_indices(counts))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(richardson, "find_real_eigenvalues",
                       lambda spec, window, tol: scan)
            rep = richardson_numbers(None, (lams[0], lams[-1]))
        plus, minus, tail = _thresholds_by_definition(lams, norms)
        assert (rep.lambda_plus, rep.lambda_minus) == (plus, minus)
        assert rep.tail_evidence == tail
        assert (rep.n_r_empirical, rep.n_h_empirical) == \
            _indices_by_definition(counts)


# --------------------------------------------------------------------------
# Zero drift
# --------------------------------------------------------------------------

class TestZeroDrift:
    def test_frozen_value(self, app_spec):
        got = zero_drift(app_spec, APP_LAMBDA_TOP, 1)
        assert got == pytest.approx(APP_DRIFT_ZERO1, rel=1e-4)

    def test_agrees_with_implicit_function_route(self, app_spec):
        # the implicit-function derivative -dy/dlambda / y' at the zero vs a
        # central difference of the located zeros: two unrelated computations
        lam = APP_LAMBDA_TOP
        h = 1e-5 * lam
        z_lo = interior_zeros(app_spec, lam - h)
        z_hi = interior_zeros(app_spec, lam + h)
        for idx in (1, 2):
            fd = (z_hi[idx - 1] - z_lo[idx - 1]) / (2.0 * h)
            assert zero_drift(app_spec, lam, idx) == pytest.approx(fd, rel=1e-4)

    def test_classical_zeros_drift_left(self, classical_spec):
        # for w > 0 zeros move toward a as lambda grows: y = sin(k x)/k has
        # its zeros at n pi / k, k = sqrt(lambda), so dx_n/dlambda is
        # -n pi / (2 lambda^{3/2})
        lam = (3.0 * math.pi) ** 2
        for idx in (1, 2, np.int64(2)):
            want = -idx * math.pi / (2.0 * lam ** 1.5)
            assert zero_drift(classical_spec, lam, idx) == pytest.approx(
                want, rel=1e-12)

    @pytest.mark.parametrize("spec, lam", [
        (application_problem(0.0), APP_LAMBDA_TOP),
        (application_problem(3.0), -40.0),
        (one_turning_point(-10.0), 41.57586512982179),
        (ProblemSpec(PiecewiseCoefficient((
            Piece(-1.0, 0.0, -1.0, -10.0),
            Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.5, 30.0), (1.0, 0.0))))),
            0.4, 1.1), 57.0),
    ])
    def test_equals_the_partial_norm_over_the_slope(self, spec, lam):
        # the Lagrange identity at a zero: -int_a^{x_k} w y^2 / y'(x_k)^2
        zs = interior_zeros(spec, lam)
        assert zs
        for idx, x_star in enumerate(zs, start=1):
            yp = solution_at(spec, lam, [x_star])[0].yp
            want = -weighted_partial(spec, lam, x_star) / (yp * yp)
            assert zero_drift(spec, lam, idx) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("w2", [1.0, 3.0, -2.0])
    def test_zero_on_a_breakpoint_has_a_two_sided_drift(self, w2):
        # at lambda = (2 pi)^2 the zero sits on the breakpoint 0.5; y and
        # dy/dlambda are continuous there, so the drift is the one of the
        # first piece alone, -pi / (2 lambda^{3/2})
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 0.5, 1.0, 0.0), Piece(0.5, 1.0, w2, 0.0))))
        lam = 4.0 * math.pi * math.pi
        assert interior_zeros(spec, lam)[0] == pytest.approx(0.5, abs=1e-15)
        assert zero_drift(spec, lam, 1) == pytest.approx(
            -math.pi / (2.0 * lam ** 1.5), rel=1e-12)

    def test_sign_law_follows_partial_weighted_norm(self, app_spec):
        # drift of zero k is negative exactly when int_a^{x_k} w y^2 > 0
        lam = APP_LAMBDA_TOP
        zs = interior_zeros(app_spec, lam)
        for idx, x_star in enumerate(zs, start=1):
            partial = weighted_partial(app_spec, lam, x_star)
            drift = zero_drift(app_spec, lam, idx)
            assert (drift < 0) == (partial > 0)

    def test_missing_zero_raises(self, classical_spec):
        with pytest.raises(DriftUndefined):
            zero_drift(classical_spec, math.pi ** 2, 1)   # no interior zeros

    def test_bad_index_rejected(self, classical_spec):
        with pytest.raises(InvalidProblemError):
            zero_drift(classical_spec, (2 * math.pi) ** 2, 0)

    def test_index_past_the_count_raises(self, classical_spec):
        # one interior zero at (2 pi)^2
        with pytest.raises(DriftUndefined):
            zero_drift(classical_spec, (2 * math.pi) ** 2, 2)


# --------------------------------------------------------------------------
# Report serialization
# --------------------------------------------------------------------------

class TestReportSerialization:
    def test_dict_shape(self, one_tp_m10):
        rep = richardson_numbers(one_tp_m10, (-60.0, 60.0), 1e-9)
        doc = report_to_dict(rep)
        assert doc["lambda_plus"] == rep.lambda_plus
        assert doc["lambda_minus"] == rep.lambda_minus
        assert doc["tail_evidence"] == rep.tail_evidence
        assert len(doc["scan"]["eigenvalues"]) == 4

    def test_csv_with_drift_column(self, app_spec):
        rep = richardson_numbers(app_spec, (-40.0, 30.0), 1e-9)
        lines = report_to_csv(app_spec, rep, with_drift=True).strip().split("\n")
        assert lines[0].endswith(",drift_zero1")
        assert len(lines) == 1 + len(rep.scan.records)
        # records without a first zero leave the drift cell blank
        cells = [ln.split(",")[-1] for ln in lines[1:]]
        assert any(c == "" for c in cells)
        assert any(c != "" for c in cells)
