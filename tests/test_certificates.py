"""Mechanically checked bound certificates and definiteness classification."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from slindef import (
    HypothesisViolation,
    InvalidProblemError,
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    application_problem,
    bound_one_turning_point,
    characteristic,
    certificate_to_dict,
    certificate_to_json,
    certify_application,
    certify_prop3,
    certify_prop4,
    certify_prop5,
    classify_definiteness,
    count_zeros,
    disconjugate_on,
    find_real_eigenvalues,
    interior_zeros,
    one_turning_point,
    verify_lemma_lower,
    verify_lemma_upper,
)

PI2_OVER_4 = math.pi * math.pi / 4.0

# the block weight (-1 | +1 on [0, 1/2] | -1) problem certified below
PROP5_SPEC = ProblemSpec(PiecewiseCoefficient((
    Piece(-1.0, 0.0, -1.0, 0.0),
    Piece(0.0, 0.5, 1.0, 0.0),
    Piece(0.5, 2.0, -1.0, 0.0),
)))


# --------------------------------------------------------------------------
# Single-bump comparison lemma
# --------------------------------------------------------------------------

class TestLemmaUpper:
    def test_mu_zero_exact_thirds(self):
        res = verify_lemma_upper(0.0)
        assert res.lhs == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert res.rhs == pytest.approx(0.5, rel=1e-15)
        assert res.holds and res.strict

    def test_frozen_interior_value(self):
        res = verify_lemma_upper(math.pi ** 2 / 16.0)
        assert res.lhs == pytest.approx(0.1816901138162093, rel=1e-12)
        assert res.rhs == pytest.approx(0.25, rel=1e-12)
        assert res.holds

    def test_negative_mu_allowed(self):
        res = verify_lemma_upper(-30.0)
        assert res.holds
        assert res.lhs < res.rhs

    def test_requires_mu_below_quarter_pi_squared(self):
        with pytest.raises(HypothesisViolation):
            verify_lemma_upper(PI2_OVER_4)
        with pytest.raises(HypothesisViolation):
            verify_lemma_upper(10.0)

    def test_both_sides(self):
        left = verify_lemma_upper(1.0, side="left")
        right = verify_lemma_upper(1.0, side="right")
        assert left.holds and right.holds

    def test_witness_recorded(self):
        res = verify_lemma_upper(1.0)
        assert res.witness            # the comparison functions are spelled out

    @pytest.mark.parametrize("lemma, mu", [(verify_lemma_upper, 1.0),
                                           (verify_lemma_lower, 4.0)])
    def test_unknown_side_rejected(self, lemma, mu):
        with pytest.raises(InvalidProblemError, match="side must be"):
            lemma(mu, side="middle")


class TestLemmaLower:
    def test_frozen_value(self):
        res = verify_lemma_lower(4.0)       # k = 2, sin 4 < 0: admissible
        assert res.lhs == pytest.approx(0.594600311913491, rel=1e-12)
        assert res.rhs == pytest.approx(0.413410905215903, rel=1e-12)
        assert res.holds and res.strict

    def test_non_strict_at_sine_zero(self):
        # k = pi/2 has sin 2k = 0: equality case, holds non-strictly
        res = verify_lemma_lower(PI2_OVER_4)
        assert res.holds
        assert not res.strict
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_inadmissible_k_rejected(self):
        with pytest.raises(HypothesisViolation):
            verify_lemma_lower(1.0)          # sin 2 > 0
        with pytest.raises(HypothesisViolation):
            verify_lemma_lower(-4.0)         # mu must be positive


# --------------------------------------------------------------------------
# One-turning-point bound pair
# --------------------------------------------------------------------------

class TestOneTurningPointBound:
    def test_frozen_pair(self):
        upper, lower = bound_one_turning_point(-10.0)
        assert upper.valid and lower.valid
        assert upper.kind == lower.kind == "one_tp"
        assert upper.direction == "upper_on_lambda_plus"
        assert lower.direction == "lower_on_lambda_minus"
        assert upper.bound == pytest.approx(10.0 - PI2_OVER_4, rel=1e-15)
        assert lower.bound == pytest.approx(-(10.0 - PI2_OVER_4), rel=1e-15)

    @pytest.mark.parametrize("q0", [-3.0, -5.0, -25.0])
    def test_scan_respects_bound(self, q0):
        upper, lower = bound_one_turning_point(q0)
        from slindef import richardson_numbers
        lim = abs(q0) + 50.0
        rep = richardson_numbers(one_turning_point(q0), (-lim, lim), 1e-9)
        assert rep.lambda_plus is not None
        assert rep.lambda_plus <= upper.bound + 1e-6
        assert rep.lambda_minus >= lower.bound - 1e-6

    def test_threshold_q0_rejected(self):
        with pytest.raises(HypothesisViolation):
            bound_one_turning_point(-PI2_OVER_4)   # needs strict inequality
        with pytest.raises(HypothesisViolation):
            bound_one_turning_point(-1.0)
        with pytest.raises(HypothesisViolation):
            bound_one_turning_point(3.0)


# --------------------------------------------------------------------------
# Disconjugacy witnesses
# --------------------------------------------------------------------------

class TestDisconjugacy:
    def test_oscillation_threshold(self):
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),))
        w = disconjugate_on(coeff, 5.0, (0.0, 1.0))     # sqrt(5) < pi
        assert w is not None
        assert w.min_value > 0.0
        assert disconjugate_on(coeff, 12.0, (0.0, 1.0)) is None   # sqrt(12) > pi

    def test_sampled_sign_refuses_what_the_count_misses(self):
        # u is launched 1e-6 left of c = 0, so at mu = (pi / (1 + eps))^2 its
        # first zero is at 1 + eps - 1e-6.  With eps = 5e-7 that zero lies
        # inside the count's Dirichlet end band of d = 1, so the count reads
        # 0 and only u(d) < 0 refuses; with eps = 5e-6 u(d) is about 4e-6
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),))
        mu = (math.pi / (1.0 + 5e-7)) ** 2
        launched = PiecewiseCoefficient((Piece(-1e-6, 0.0, 1.0, 0.0),
                                         Piece(0.0, 1.0, 1.0, 0.0)))
        assert count_zeros(ProblemSpec(launched), mu) == 0
        assert disconjugate_on(coeff, mu, (0.0, 1.0)) is None
        w = disconjugate_on(coeff, (math.pi / (1.0 + 5e-6)) ** 2, (0.0, 1.0))
        assert w.method == "principal_solution"
        assert w.min_value == pytest.approx(4e-6, rel=1e-6)

    def test_sign_shortcut(self, one_tp_m10):
        # mu w + q <= 0 throughout: disconjugate with no integration
        w = disconjugate_on(one_tp_m10.coeff, 0.0, (-1.0, 1.0))
        assert w is not None
        assert w.method == "comparison"

    def test_subinterval(self, app_spec):
        assert disconjugate_on(app_spec.coeff, 2.0, (0.0, 0.7)) is not None
        assert disconjugate_on(app_spec.coeff, 40.0, (0.0, 1.0)) is None

    def test_rejects_bad_interval(self, app_spec):
        with pytest.raises(InvalidProblemError):
            disconjugate_on(app_spec.coeff, 1.0, (0.5, 0.5))

    # one piece, w = 1, q linear between 4 nodes
    TABLE = ((0.0, 0.0), (0.4, 6.0), (0.7, -2.0), (1.0, 3.0))

    @staticmethod
    def _first_zero_after(mu, c, d, table):
        """The first zero in (c, d] of u'' + (mu + q) u = 0, u(c) = 0,
        u'(c) = 1, by scipy's RK45 on the interpolated table; None if u
        stays positive."""
        xs, qs = zip(*table)
        sol = solve_ivp(lambda x, y: [y[1], -(mu + np.interp(x, xs, qs)) * y[0]],
                        (c, d), [0.0, 1.0], rtol=1e-10, atol=1e-12,
                        max_step=1e-3, dense_output=True)
        grid = np.linspace(c, d, 4001)[1:]
        neg = np.nonzero(sol.sol(grid)[0] <= 0.0)[0]
        return float(grid[neg[0]]) if neg.size else None

    @pytest.mark.parametrize("mu, interval", [(2.0, (0.1, 0.95)),
                                              (15.0, (0.1, 0.95)),
                                              (2.0, (0.0, 1.0))])
    def test_tabulated_piece_matches_an_ivp_sign_check(self, mu, interval):
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, self.TABLE),))
        zero = self._first_zero_after(mu, *interval, self.TABLE)
        got = disconjugate_on(coeff, mu, interval)
        # each mu keeps clear of the disconjugacy threshold: u either stays
        # positive or crosses well inside the interval
        assert (got is None) == (zero is not None)
        if zero is not None:
            assert zero < interval[1] - 0.1
        else:
            assert got.method == "principal_solution" and got.min_value > 0.0
        assert disconjugate_on(ProblemSpec(coeff), mu, interval) == got

    def test_witness_margin_is_read_past_the_left_end(self):
        # u is launched delta = 1e-6 (d - c) left of c with slope 1, so it
        # reads delta at c itself; the margin is read past c, at the first
        # grid point 1/32 where u is about 1/32, for c = a as for c > a
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, self.TABLE),))
        got = disconjugate_on(coeff, 2.0, (0.0, 1.0))
        assert got.min_value == pytest.approx(1.0 / 32.0, rel=1e-2)
        inner = disconjugate_on(coeff, 2.0, (0.1, 0.95))
        assert inner.min_value == pytest.approx(0.85 / 32.0, rel=1e-2)


# --------------------------------------------------------------------------
# Eigenvalue-anchored certificate (zero-gap disconjugacy)
# --------------------------------------------------------------------------

class TestProp3:
    LAM_PLUS_SIDE = 17.118939070171816
    LAM_MINUS_SIDE = -17.118939070171837

    def test_upper_direction(self, one_tp_m10):
        cert = certify_prop3(one_tp_m10, self.LAM_PLUS_SIDE, [0.0])
        assert cert.valid
        assert cert.direction == "upper_on_lambda_plus"
        assert cert.bound == self.LAM_PLUS_SIDE
        assert all(t.passed for t in cert.hypothesis_trail)

    def test_lower_direction(self, one_tp_m10):
        cert = certify_prop3(one_tp_m10, self.LAM_MINUS_SIDE, [0.0])
        assert cert.valid
        assert cert.direction == "lower_on_lambda_minus"

    def test_failing_witness_reported_not_hidden(self, one_tp_m10):
        # mu = -200 oscillates hard on the negative-weight side
        lam = 41.57586512982179
        zeros = interior_zeros(one_tp_m10, lam)
        assert len(zeros) == 1
        cert = certify_prop3(one_tp_m10, lam, [-200.0, -200.0])
        assert not cert.valid
        assert cert.failed_conditions

    def test_wrong_mu_count_rejected(self, one_tp_m10):
        with pytest.raises(InvalidProblemError):
            certify_prop3(one_tp_m10, self.LAM_PLUS_SIDE, [0.0, 0.0])

    def test_mixed_sides_rejected(self, one_tp_m10):
        lam = 41.57586512982179
        with pytest.raises(InvalidProblemError):
            certify_prop3(one_tp_m10, lam, [0.0, 50.0])

    def test_mu_equal_lambda_rejected(self, one_tp_m10):
        with pytest.raises(HypothesisViolation):
            certify_prop3(one_tp_m10, self.LAM_PLUS_SIDE,
                          [self.LAM_PLUS_SIDE])

    def test_non_eigenvalue_rejected(self, one_tp_m10):
        with pytest.raises(InvalidProblemError):
            certify_prop3(one_tp_m10, 12.34, [0.0])

    @pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
    def test_non_finite_tol_rejected(self, one_tp_m10, tol):
        # an infinite or NaN tol would pass any lambda as an eigenvalue
        with pytest.raises(InvalidProblemError):
            certify_prop3(one_tp_m10, 5.0, [0.0], tol=tol)


# --------------------------------------------------------------------------
# Pocket certificates
# --------------------------------------------------------------------------

D_APP = math.pi / (2.0 * math.sqrt(5.0))


class TestProp4:
    def test_app_shape_fails_honestly(self, app_spec):
        # the textbook parameter choice does not satisfy the disconjugacy
        # hypothesis (the mu = 2 witness vanishes inside [a, e]); the
        # certificate must come back invalid rather than patched up
        cert = certify_prop4(app_spec, mu=2.0, lambda_star=10.5 + 1e-9,
                             c=0.0, d=D_APP, e=1.0 + D_APP)
        assert not cert.valid
        assert cert.failed_conditions
        assert cert.direction == "upper_on_lambda_plus"

    def test_valid_on_engineered_problem(self):
        cert = certify_prop4(PROP5_SPEC, mu=1.0, lambda_star=50.0,
                             c=0.0, d=0.5, e=1.0)
        assert cert.valid
        scan = find_real_eigenvalues(PROP5_SPEC, (-120.0, 120.0))
        lam_plus = max(r.re_lambda for r in scan.records
                       if r.weighted_norm <= 0.0)
        assert lam_plus <= cert.bound + 1e-6

    def test_pocket_preconditions(self, app_spec):
        with pytest.raises(InvalidProblemError):
            certify_prop4(app_spec, 2.0, 10.5, c=0.5, d=0.2, e=1.8)  # c >= d
        with pytest.raises(InvalidProblemError):
            certify_prop4(app_spec, 2.0, 10.5, c=-0.5, d=0.2, e=1.8)  # w<0 on (c,d)
        with pytest.raises(InvalidProblemError):
            certify_prop4(app_spec, 2.0, 10.5, c=0.0, d=0.2, e=0.5)   # w>0 past e

    def test_lambda_star_must_exceed_mu(self, app_spec):
        with pytest.raises(HypothesisViolation):
            certify_prop4(app_spec, mu=10.5, lambda_star=2.0,
                          c=0.0, d=D_APP, e=1.0 + D_APP)


class TestProp5:
    def test_valid_engineered_certificate(self):
        cert = certify_prop5(PROP5_SPEC, mu=4.0, lambda_star=40.0,
                             c=0.0, d=0.5, e=1.0)
        assert cert.valid
        assert cert.bound == 40.0
        assert len(cert.hypothesis_trail) == 5
        assert all(t.passed for t in cert.hypothesis_trail)

    def test_certified_bound_respected_by_scan(self):
        scan = find_real_eigenvalues(PROP5_SPEC, (-120.0, 120.0))
        lam_plus = max(r.re_lambda for r in scan.records
                       if r.weighted_norm <= 0.0)
        assert lam_plus <= 40.0 + 1e-6

    def test_app_shape_fails_on_third_condition(self, app_spec):
        cert = certify_prop5(app_spec, mu=2.0, lambda_star=10.5,
                             c=0.0, d=D_APP, e=1.0 + D_APP)
        assert not cert.valid
        passed = [t.passed for t in cert.hypothesis_trail]
        assert passed == [True, True, False, True, True]

    def test_frequency_condition_is_sharp(self):
        # lambda_star barely too small: condition five must flip
        cert = certify_prop5(PROP5_SPEC, mu=4.0, lambda_star=39.0,
                             c=0.0, d=0.5, e=1.0)
        assert not cert.valid
        assert cert.hypothesis_trail[4].passed is False

    def test_lambda_star_above_mu_required(self):
        with pytest.raises(HypothesisViolation):
            certify_prop5(PROP5_SPEC, mu=40.0, lambda_star=4.0,
                          c=0.0, d=0.5, e=1.0)

    def test_pocket_at_the_left_end_passes_the_empty_first_condition(self):
        # c = a: the region (a, c) is empty, so condition one holds with
        # no value to report
        spec = ProblemSpec(PiecewiseCoefficient(PROP5_SPEC.pieces[1:]))
        cert = certify_prop5(spec, mu=4.0, lambda_star=40.0,
                             c=0.0, d=0.5, e=1.0)
        first = cert.hypothesis_trail[0]
        assert first.value is None and first.passed
        assert cert.valid


# --------------------------------------------------------------------------
# The block-weight application bound
# --------------------------------------------------------------------------

class TestApplication:
    def test_unit_m(self):
        cert = certify_application(1.0)
        assert cert.valid
        assert cert.bound == pytest.approx(10.5, rel=1e-15)
        assert cert.direction == "upper_on_lambda_plus"

    def test_scaled_m_with_q(self):
        cert = certify_application(2.0, -1.0)
        assert cert.valid
        assert cert.bound == pytest.approx(21.0, rel=1e-15)

    def test_scan_respects_bound(self):
        from slindef import richardson_numbers
        rep = richardson_numbers(application_problem(0.0), (-40.0, 30.0))
        assert rep.lambda_plus is not None
        assert rep.lambda_plus < 10.5

    def test_small_m_rejected(self):
        with pytest.raises(HypothesisViolation):
            certify_application(math.pi ** 2 / 20.0)   # threshold not strict

    def test_oversized_q_fails_validity(self):
        cert = certify_application(1.0, [0.0, -3.0, 0.0])
        assert not cert.valid
        assert cert.failed_conditions

    def test_q_vector_form(self):
        cert = certify_application(2.0, [0.5, -2.0, 1.0])
        assert cert.valid
        assert cert.bound == pytest.approx(21.0)


# every numeric parameter is checked on entry, so NaN or infinity is invalid
# input naming the parameter, never a hypothesis verdict or a certificate
_POCKET = dict(mu=2.0, lambda_star=10.5, c=0.0, d=0.7, e=1.7)


def _pocket_call(fn, name):
    return lambda v: fn(application_problem(0.0), **{**_POCKET, name: v})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, call", [
    ("mu", verify_lemma_upper),
    ("mu", verify_lemma_lower),
    ("mu", lambda v: disconjugate_on(one_turning_point(-10.0), v, (-1.0, 0.0))),
    ("q0", bound_one_turning_point),
    ("M", certify_application),
    ("lambda", lambda v: certify_prop3(one_turning_point(-10.0), v, [0.0])),
    ("mu", lambda v: certify_prop3(one_turning_point(-10.0),
                                   17.118939070171816, [v])),
    *[(name, _pocket_call(fn, name)) for fn in (certify_prop4, certify_prop5)
      for name in _POCKET],
])
def test_non_finite_parameter_is_invalid_input(name, call, bad):
    with pytest.raises(InvalidProblemError, match=f"^{name} must be finite"):
        call(bad)


@given(q0=st.floats(-50.0, -2.5), M=st.floats(0.5, 20.0),
       q=st.floats(-2.0, 5.0), mu=st.floats(-1.0, 8.0),
       gap=st.floats(0.0, 80.0), d=st.floats(0.3, 1.0),
       e=st.floats(0.05, 0.9))
@example(q0=-10.0, M=2.0, q=0.0, mu=1.0, gap=49.0, d=0.5, e=0.5)  # all valid
def test_valid_exactly_when_every_trail_row_passed(q0, M, q, mu, gap, d, e):
    # a positive-weight pocket [0, d] with potential q between negative
    # weights, as in PROP5_SPEC
    spec = ProblemSpec(PiecewiseCoefficient((
        Piece(-1.0, 0.0, -1.0, 0.0), Piece(0.0, d, 1.0, q),
        Piece(d, 2.0, -1.0, 0.0))))
    pocket = dict(mu=mu, lambda_star=mu + gap + 1e-3, c=0.0, d=d, e=d + e)
    certs = [*bound_one_turning_point(q0), certify_application(M, q),
             certify_prop4(spec, **pocket), certify_prop5(spec, **pocket)]
    for cert in certs:
        assert cert.valid == all(r.passed for r in cert.hypothesis_trail)


# --------------------------------------------------------------------------
# Definiteness classification
# --------------------------------------------------------------------------

# cot(beta) = -182 binds a ground state near -cot^2(beta) - q; sqrt(33144)
# times the length 2.77 is 505, so y^2 grows past e^709, where the norm of
# the negative-trial witness overflows
OVERFLOWING_GROUND_NORM = ProblemSpec(PiecewiseCoefficient((
    Piece(-0.44603502457927724, 2.327820664204916, 2.308, -1.436),)),
    2.2687, 3.1361)


class TestClassification:
    def test_fixed_sign_weight_is_orthogonal(self, classical_spec):
        rep = classify_definiteness(classical_spec)
        assert rep.kind == "orthogonal"
        neg = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, -1.0, 0.0),)))
        assert classify_definiteness(neg).kind == "orthogonal"

    def test_polar_case(self, one_tp_m10):
        rep = classify_definiteness(one_tp_m10)
        assert rep.kind == "polar"
        assert rep.summary
        assert rep.witnesses

    def test_nondefinite_case(self, one_tp_p13):
        rep = classify_definiteness(one_tp_p13)
        assert rep.kind == "nondefinite"
        assert rep.summary.startswith("nondefinite (both forms indefinite)")

    def test_app_polar(self, app_spec):
        assert classify_definiteness(app_spec).kind == "polar"

    @pytest.mark.parametrize("pieces", [
        (Piece(-1.0, 0.3, -1.0, 30.0), Piece(0.3, 2.0, 2.0, -5.0)),
        (Piece(-1.0, 0.3, -1.0, ((-1.0, 20.0), (-0.2, 35.0), (0.3, 28.0))),
         Piece(0.3, 2.0, 2.0, ((0.3, -5.0), (1.1, 4.0), (2.0, -2.0)))),
    ])
    def test_energy_trial_matches_quadrature(self, pieces):
        # q jumps at 0.3 and bends at the table nodes: quad is split there
        spec = ProblemSpec(PiecewiseCoefficient(pieces))
        rep = classify_definiteness(spec)
        assert rep.kind == "nondefinite"
        trial = rep.witnesses["energy_form_positive_trial"]
        n = int(re.fullmatch(r"sin\((\d+) pi \(x - a\)/\(b - a\)\)",
                             trial["trial"]).group(1))
        length = spec.b - spec.a
        freq = n * math.pi / length
        points = sorted({x for p in pieces for x in (p.x0, p.x1)}
                        | {x for p in pieces if not p.has_constant_q
                           for x, _ in p.q})
        qint, _ = quad(lambda x: spec.coeff.evaluate(x)[1]
                       * math.sin(freq * (x - spec.a)) ** 2,
                       spec.a, spec.b, points=points[1:-1], limit=200,
                       epsabs=0.0, epsrel=1e-13)
        want = freq * freq * length / 2.0 - qint
        assert trial["value"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        one_turning_point(-10.0),
        one_turning_point(13.0),
        application_problem(0.0),
        ProblemSpec(PiecewiseCoefficient((
            Piece(-1.0, 0.0, -1.0, -10.0),
            Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.5, 30.0), (1.0, 0.0))))),
            0.4, 1.1),
        # stepping out leaves hi above lambda2 with D(hi) < 0 and 2 zeros
        ProblemSpec(PiecewiseCoefficient((
            Piece(-0.54, 1.42, -0.8, 23.26), Piece(1.42, 1.62, 1.6, -23.15))),
            2.63, 1.37),
        # beta != 0: the first zero enters far above lambda0, so "no zero"
        # alone is true well past it
        ProblemSpec(PiecewiseCoefficient((
            Piece(-1.23, -0.81, 1.59, -10.85), Piece(-0.81, 0.33, 1.58, -20.0),
            Piece(0.33, 0.72, 0.88, -27.79),
            Piece(0.72, 1.41, 0.95, ((0.72, -1.5), (0.92, 8.7), (1.41, 14.6))))),
            0.0, 0.94),
    ])
    def test_lambda0_is_the_first_unit_weight_root(self, spec):
        lam0 = classify_definiteness(spec).lambda0
        unit = ProblemSpec(PiecewiseCoefficient(tuple(
            Piece(p.x0, p.x1, 1.0, p.q) for p in spec.pieces)),
            spec.alpha, spec.beta)
        roots = find_real_eigenvalues(unit, (lam0 - 50.0, lam0 + 50.0),
                                      1e-10).eigenvalues
        assert roots[0] == pytest.approx(lam0, rel=1e-12)

    def test_lambda0_below_a_strongly_attracting_end(self):
        # alpha = 3.03 puts cot(alpha) = -8.9 in y'(a) = cot(alpha) y(a),
        # which binds a ground state near -cot^2 - q; it decays from a, and
        # the real scan does not reach it (ROADMAP F1), so check the Sturm
        # bracket itself: no zero and D > 0 just below, D < 0 just above
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(-0.45, 0.03, -1.0, 2.35), Piece(0.03, 2.45, 0.7, -18.2))),
            3.03, 0.94)
        rep = classify_definiteness(spec)
        # the closed-form oracle of perfbench/closed_form.py, log-scaled
        assert rep.lambda0 == pytest.approx(-81.98313855018421, rel=1e-12)
        assert rep.kind == "nondefinite"
        unit = ProblemSpec(PiecewiseCoefficient(tuple(
            Piece(p.x0, p.x1, 1.0, p.q) for p in spec.pieces)), 3.03, 0.94)
        below, above = rep.lambda0 - 1e-7, rep.lambda0 + 1e-7
        assert count_zeros(unit, below) == 0
        assert characteristic(unit, below) > 0.0 > characteristic(unit, above)

    def test_ground_norm_overflow_leaves_the_witness_empty(self):
        rep = classify_definiteness(OVERFLOWING_GROUND_NORM)
        assert (rep.kind, rep.is_polar) == ("orthogonal", False)
        assert rep.lambda0 == pytest.approx(-33144.24, rel=1e-6)
        trial = rep.witnesses["energy_form_negative_trial"]
        assert trial["value"] is None and "overflows" in trial["note"]

    def test_report_serializes(self, one_tp_m10):
        doc = classify_definiteness(one_tp_m10).to_dict()
        assert doc["kind"] == "polar"
        assert isinstance(doc["witnesses"], dict)
        assert doc["witnesses"]["lambda0"] > 0.0


# --------------------------------------------------------------------------
# Certificate serialization
# --------------------------------------------------------------------------

class TestCertificateSerialization:
    def test_dict_and_json(self):
        cert = certify_application(1.0)
        doc = certificate_to_dict(cert)
        assert doc["kind"] == "application"
        assert doc["valid"] is True
        assert doc["bound"] == cert.bound
        assert isinstance(doc["hypothesis_trail"], list)
        assert set(doc["hypothesis_trail"][0]) == {"condition", "value",
                                                   "passed"}
        again = json.loads(certificate_to_json(cert))
        assert again == json.loads(json.dumps(doc))

    def test_failed_conditions_listing(self, app_spec):
        cert = certify_prop5(app_spec, mu=2.0, lambda_star=10.5,
                             c=0.0, d=D_APP, e=1.0 + D_APP)
        assert cert.failed_conditions
        assert all(isinstance(c, str) for c in cert.failed_conditions)
        assert (set(cert.failed_conditions)
                == {t.condition for t in cert.hypothesis_trail
                    if not t.passed})
