"""Characteristic function, zero counting, real/complex scans, serialization."""

import functools
import json
import math
import os
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slindef import (
    ContourError,
    EigenRecord,
    InvalidProblemError,
    NumericalFailure,
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    application_problem,
    build_canonical,
    certify_prop3,
    certify_prop4,
    certify_prop5,
    characteristic,
    classify_definiteness,
    count_zeros,
    disconjugate_on,
    find_complex_eigenvalues,
    find_real_eigenvalues,
    interior_zeros,
    normalize_domain,
    one_turning_point,
    problem_to_dict,
    records_to_csv,
    richardson_numbers,
    save_problem,
    scan_to_csv,
    scan_to_json,
    two_turning_point,
    weighted_norm,
    zero_drift,
)
from slindef import propagator, spectrum
from slindef.propagator import _ds_dz, _lambda_fold, solution_at, stretches
from slindef.richardson import report_to_csv, weighted_partial
from slindef.spectrum import (_EPS, _d_and_slope, _empirical_indices,
                              _newton_polish, _refine_bracket, _thread_count,
                              characteristic_scaled)

from oracles import (dense_zero_count, ivp_characteristic,
                     kernel_weighted_norm, stretch_product)

GOLDEN = pathlib.Path(__file__).parent / "golden"

PI2 = math.pi * math.pi

# values pinned once against the slow scipy/DOP853 oracle route
ONE_TP_M10_EIGS = [-41.57586512982179, -17.118939070171837,
                   17.118939070171816, 41.57586512982179]
APP_Q0_TABLE = [
    # (eigenvalue, interior zeros, weighted norm)
    (-32.12641544008645, 3, -0.0311407347441835),
    (-32.119354368921904, 2, -0.031120153453105422),
    (-6.509784135062986, 1, -0.15906288601233964),
    (-6.241537589970832, 0, -0.153857946464602),
    (1.0867650193303984, 0, 3.5087801337199283),
    (9.57653917861629, 1, 19.166232269380792),
    (28.23152921358738, 2, 547.5478910024092),
]
ONE_TP_P13_PAIR = (9.873650871977397, 3.3114113699439454)

# four constant pieces, q = 0, where |D'(0.25i)| is small against scale
SMALL_SLOPE = ProblemSpec(PiecewiseCoefficient(tuple(
    Piece(x0, x1, w, 0.0) for x0, x1, w in (
        (1.0, 1.201171875, 1.671875),
        (1.201171875, 1.4338599731944206, -0.390625),
        (1.4338599731944206, 1.6369849731944206, -0.201171875),
        (1.6369849731944206, 1.8369849731944206, -0.201171875)))))


# one-piece constant problems on [0, 2] at the edges of the real kernel that
# characteristic_scaled and the zero walk compute inline: z len^2 just below
# _SERIES_CUTOFF (1e-4), at it (where sqrt(z) len is the 1e-2 oscillation cut
# of _stretch_zeros) and just above it, z = 0, and z < 0; each has one zero
KERNEL_EDGES = [
    (ProblemSpec(PiecewiseCoefficient((Piece(0.0, 2.0, w, q),)), 2.5, 0.4),
     lam)
    for w, q, lam in ((1.0, 0.0, 2.475e-5), (1.0, 0.0, 2.5e-5),
                      (1.0, 0.0, 2.525e-5), (1.0, -2.0, 2.0),
                      (-1.0, 3.0, 3.5))]


def at_kernel_edges(args):
    """``@example(*args(spec, lam))`` for each case of ``KERNEL_EDGES``."""
    def add(test):
        for spec, lam in KERNEL_EDGES:
            test = example(*args(spec, lam))(test)
        return test
    return add


# --------------------------------------------------------------------------
# Characteristic function
# --------------------------------------------------------------------------

class TestCharacteristic:
    def test_frozen_midpoint_value(self, classical_spec):
        # D at twice the fundamental eigenvalue, pinned against the IVP oracle
        assert characteristic(classical_spec, 2.0 * PI2) == pytest.approx(
            -0.21695429437747635, rel=1e-12)

    def test_vanishes_at_eigenvalues(self, classical_spec):
        for n in (1, 2, 3):
            d, scale = characteristic_scaled(classical_spec, (n * math.pi) ** 2)
            assert abs(d) <= 1e-12 * scale

    @given(st.floats(min_value=-50.0, max_value=80.0))
    def test_matches_ivp_oracle(self, lam):
        spec = one_turning_point(-4.0)
        ref = ivp_characteristic(spec, lam)
        val = characteristic(spec, lam)
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_complex_argument_conjugate_symmetry(self, one_tp_p13):
        z = 3.0 + 2.0j
        d = characteristic(one_tp_p13, z)
        d_conj = characteristic(one_tp_p13, z.conjugate())
        assert d_conj == pytest.approx(d.conjugate(), rel=1e-14)


@st.composite
def mixed_problems(draw, max_nodes=3):
    """1-4 pieces of either weight sign, each with a constant or a
    2-``max_nodes``-node tabulated potential, and random boundary angles."""
    x = draw(st.floats(min_value=-1.0, max_value=1.0))
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        x1 = x + draw(st.floats(min_value=0.2, max_value=1.0))
        w = draw(st.sampled_from((-1.0, 1.0))) * draw(
            st.floats(min_value=0.2, max_value=3.0))
        qs = draw(st.lists(st.floats(min_value=-20.0, max_value=20.0),
                           min_size=1, max_size=max_nodes))
        if len(qs) == 1:
            q = qs[0]
        else:
            xs = [x, x1] if len(qs) == 2 else [x, 0.5 * (x + x1), x1]
            q = tuple(zip(xs, qs))
        pieces.append(Piece(x, x1, w, q))
        x = x1
    angle = st.floats(min_value=0.0, max_value=3.1)
    return ProblemSpec(PiecewiseCoefficient(tuple(pieces)), draw(angle),
                       draw(angle))


def chained_characteristic(spec: ProblemSpec, lam):
    """``D`` by applying one product of stretch flows per piece."""
    y, yp = math.sin(spec.alpha), math.cos(spec.alpha)
    for piece in spec.pieces:
        m11, m12, m21, m22 = stretch_product(piece, lam, piece.x0, piece.x1)
        y, yp = m11 * y + m12 * yp, m21 * y + m22 * yp
    return y * math.cos(spec.beta) + yp * math.sin(spec.beta)


def chained_weighted_norm(spec: ProblemSpec, lam: float) -> float:
    """``int w y^2``: per piece, the Lagrange identity on the
    lambda-derivative carried from ``(0, 0)`` through the piece's
    ``stretches``."""
    y, yp = math.sin(spec.alpha), math.cos(spec.alpha)
    total = 0.0
    for piece in spec.pieces:
        w = piece.w
        u, up = 0.0, 0.0
        for e11, e12, e21, e22, c, s, dd, k2, d, z, _, length in stretches(
                piece, lam, piece.x0, piece.x1):
            dz = w - 2.0 * d * dd
            dc = -0.5 * length * s * dz
            ds = _ds_dz(c, s, z, length) * dz
            u, up = (e11 * u + e12 * up + (dc + ds * d + s * dd) * y + ds * yp,
                     e21 * u + e22 * up - (ds * k2 + s * w) * y
                     + (dc - ds * d - s * dd) * yp)
            y, yp = e11 * y + e12 * yp, e21 * y + e22 * yp
        total += yp * u - y * up
    return total


class TestInlineStep:
    """``characteristic_scaled`` crosses constant pieces inline and
    tabulated ones by ``_carry``, with the update the lambda-fold applies:
    D and D' read one computed solution, bit for bit."""

    @given(mixed_problems(), st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-30.0, max_value=30.0))
    @at_kernel_edges(lambda spec, lam: (spec, lam, 0.5))
    def test_equals_the_lambda_fold(self, spec, lam, im):
        for z in (lam, complex(lam, im)):
            d, _, scale = _d_and_slope(spec, z)
            assert characteristic_scaled(spec, z) == (d, scale)
            # the product of the same flows differs by rounding only: the
            # worst of 6 000 random draws was 1.4e-13 of scale
            assert abs(d - chained_characteristic(spec, z)) <= 1e-10 * scale
        assert weighted_norm(spec, lam) == chained_weighted_norm(spec, lam)

    @given(mixed_problems(max_nodes=1), st.one_of(
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=-0.05, max_value=0.05)),
        st.floats(min_value=0.0, max_value=1.0))
    def test_constant_norms_match_the_kernel_integrals(self, spec, lam, frac):
        # A solution that enters an evanescent piece near its decaying mode
        # makes y' u - y u' cancel: the worst of 20 000 such draws is 1.2e-10
        # of int |w| y^2 against a 60-digit reference (the kernel-integral
        # quadratic form, 2.3e-10), hence the bound 1e-9.
        signed, absolute = kernel_weighted_norm(spec, lam)
        assert abs(weighted_norm(spec, lam) - signed) <= 1e-9 * absolute
        x_hi = min(spec.a + frac * (spec.b - spec.a), spec.b)
        signed, absolute = kernel_weighted_norm(spec, lam, x_hi)
        assert abs(weighted_partial(spec, lam, x_hi) - signed) <= \
            1e-9 * absolute

    def test_constant_pieces_make_no_transfer_call(self, monkeypatch,
                                                   one_tp_m10, app_spec):
        calls = []
        carry = propagator._carry

        def counted(piece, *rest):
            calls.append(piece)
            return carry(piece, *rest)

        monkeypatch.setattr(spectrum, "_carry", counted)
        tab = Piece(0.0, 1.0, 1.0, ((0.0, -3.0), (1.0, 2.0)))
        characteristic_scaled(ProblemSpec(PiecewiseCoefficient((tab,))), 17.0)
        assert calls == [tab]   # the counter sees the tabulated route
        calls.clear()
        for spec in (one_tp_m10, app_spec):
            assert all(p.has_constant_q for p in spec.pieces)
            for lam in (-40.0, 0.0, 17.5, 230.0):
                characteristic_scaled(spec, lam)
                count_zeros(spec, lam)
            characteristic_scaled(spec, complex(5.0, 2.0))
        assert calls == []


class TestExactSlope:
    """``D'`` from the lambda-derivative the norm fold carries to ``b``."""

    @given(mixed_problems(), st.floats(min_value=-300.0, max_value=300.0))
    def test_matches_the_complex_step(self, spec, lam):
        # Im D(lam + i h) / h is D' to rounding, for h far below eps * |lam|
        # (Squire and Trapp, SIAM Rev. 1998)
        h = 1e-30
        want = characteristic_scaled(spec, complex(lam, h))[0].imag / h
        assert abs(_d_and_slope(spec, lam)[1] - want) <= 1e-10 * abs(want)

    @given(mixed_problems(), st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-30.0, max_value=30.0))
    @example(SMALL_SLOPE, 0.0, 0.25)
    def test_matches_a_central_difference_at_complex_lambda(self, spec, lam,
                                                            im):
        # the quotient carries D's rounding over h, up to eps * scale per
        # stretch D is folded over: at SMALL_SLOPE, where |D'| is 7.8e-5 of
        # scale, one eps * scale / h is 2.8e-6 of D', while quotients at
        # h = 1e-3 and 1e-4 match D' to 3.5e-9
        z = complex(lam, im)
        h = 1e-6 * max(1.0, abs(z))
        want = (characteristic(spec, z + h)
                - characteristic(spec, z - h)) / (2.0 * h)
        scale = characteristic_scaled(spec, z)[1]
        n = sum(1 for p in spec.pieces for _ in stretches(p, z, p.x0, p.x1))
        assert abs(_d_and_slope(spec, z)[1] - want) <= \
            1e-6 * abs(want) + n * _EPS * scale / h

    @given(mixed_problems(), st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-30.0, max_value=30.0).filter(bool))
    def test_conjugate_symmetry_is_exact(self, spec, lam, im):
        # IEEE arithmetic rounds a conjugate's parts as it rounds the
        # original's, and the kernels take no branch cut off the real axis
        z = complex(lam, im)
        d, scale = characteristic_scaled(spec, z)
        assert characteristic_scaled(spec, z.conjugate()) == (d.conjugate(),
                                                              scale)
        d, dp, scale = _d_and_slope(spec, z)
        assert _d_and_slope(spec, z.conjugate()) == (
            d.conjugate(), dp.conjugate(), scale)

    @given(mixed_problems(), st.floats(min_value=-100.0, max_value=100.0))
    def test_lagrange_identity_at_b(self, spec, lam):
        # int_a^b w y^2 = y'(b) dy/dlambda(b) - y(b) dy'/dlambda(b), to a
        # bound on int |w| y^2, the sum of the pieces' |int w y^2|
        y, yp, u, up, _, _ = _lambda_fold(spec, lam, spec.b)
        ends = [0.0] + [weighted_partial(spec, lam, p.x1)
                        for p in spec.pieces]
        absolute = sum(abs(b - a) for a, b in zip(ends, ends[1:]))
        assert abs(yp * u - y * up - weighted_norm(spec, lam)) <= \
            1e-9 * absolute


class TestNewton:
    """One Newton on the exact ``D'`` polishes real and complex roots."""

    # At -41.58 one ulp of lambda moves D by 9.7e-14, more than
    # 32 eps * scale: Newton lands on the float nearest the root,
    # |D| = 4.3e-14, and stops because its next step rounds away.
    @pytest.mark.parametrize("root", ONE_TP_M10_EIGS[1:])
    def test_real_start(self, one_tp_m10, root):
        lam, res, scale = _newton_polish(one_tp_m10, root + 1e-3)
        assert isinstance(lam, float)
        assert res <= 32.0 * _EPS * scale
        assert lam == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("sign_re, sign_im",
                             [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_complex_start(self, one_tp_p13, sign_re, sign_im):
        re0, im0 = ONE_TP_P13_PAIR
        root = complex(sign_re * re0, sign_im * im0)
        lam, res, scale = _newton_polish(one_tp_p13,
                                         root + complex(1e-3, -1e-3))
        assert res <= 32.0 * _EPS * scale
        assert abs(lam - root) <= 1e-12 * abs(root)


# --------------------------------------------------------------------------
# Zero counting
# --------------------------------------------------------------------------

class TestZeroCounting:
    def test_classical_eigenfunction_zeros(self, classical_spec):
        for n in range(1, 6):
            zeros = interior_zeros(classical_spec, (n * math.pi) ** 2)
            assert len(zeros) == n - 1
            # a complex lambda on the real axis is read as real
            assert count_zeros(classical_spec,
                               complex((n * math.pi) ** 2, 0.0)) == n - 1
            for k, z in enumerate(zeros, start=1):
                assert z == pytest.approx(k / n, abs=1e-9)

    def test_no_zeros_in_decaying_regime(self, classical_spec):
        assert count_zeros(classical_spec, -25.0) == 0

    @pytest.mark.parametrize("lam", [-55.0, -20.0, 3.0, 20.0, 55.0])
    def test_matches_dense_sign_tracking(self, one_tp_m10, lam):
        assert count_zeros(one_tp_m10, lam) == dense_zero_count(one_tp_m10, lam)

    @pytest.mark.parametrize("lam", [-30.0, -6.0, 1.5, 12.0, 28.0])
    def test_matches_dense_sign_tracking_app(self, app_spec, lam):
        assert count_zeros(app_spec, lam) == dense_zero_count(app_spec, lam)

    def test_sampled_piece_counting(self):
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.5, 30.0), (1.0, 0.0))),)))
        for lam in (5.0, 40.0, 90.0):
            assert count_zeros(spec, lam) == dense_zero_count(spec, lam)

    # the count walk places only the first and last zero of an oscillating
    # constant stretch and skips sloped Magnus steps that hold none; the list
    # walk places every zero
    @given(mixed_problems(), st.booleans(),
           st.floats(min_value=-1e3, max_value=1e3))
    # alpha = 0: the walk starts at y0 = 0, on a table and on a constant piece
    @example(ProblemSpec(PiecewiseCoefficient((
        Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.5, 20.0), (1.0, 0.0))),
        Piece(1.0, 2.0, -1.0, 5.0)))), True, 300.0)
    @example(ProblemSpec(PiecewiseCoefficient((
        Piece(0.0, 0.6, 1.0, 4.0),
        Piece(0.6, 1.5, -2.0, ((0.6, -5.0), (1.5, 12.0))))), 0.0, 0.7),
        False, 400.0)
    # a zero at 1 - 5e-7, inside the Dirichlet end band 1e-6 at b
    @example(ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),)),
                         math.pi - math.atan(math.tan(10.0 * (1.0 - 5e-7))
                                             / 10.0)), True, 100.0)
    @at_kernel_edges(lambda spec, lam: (spec, False, lam))
    @at_kernel_edges(lambda spec, lam: (spec, True, lam))
    def test_count_is_length_of_zero_list(self, spec, dirichlet_b, lam):
        if dirichlet_b:
            spec = ProblemSpec(spec.coeff, spec.alpha, 0.0)
        assert count_zeros(spec, lam) == len(interior_zeros(spec, lam))

    # the scan reads D, its scale and the count from one zero walk, which
    # must agree with the D-only walk bit for bit
    @given(mixed_problems(), st.floats(min_value=-1e3, max_value=1e3))
    # alpha = 0 and beta != 0, on constant pieces and on a table
    @example(ProblemSpec(PiecewiseCoefficient((
        Piece(0.0, 0.6, 1.0, 4.0), Piece(0.6, 1.5, -2.0, -3.0))), 0.0, 0.7),
        250.0)
    @example(ProblemSpec(PiecewiseCoefficient((
        Piece(0.0, 0.6, 1.0, 4.0),
        Piece(0.6, 1.5, -2.0, ((0.6, -5.0), (1.5, 12.0))))), 0.0, 0.7),
        -400.0)
    @at_kernel_edges(lambda spec, lam: (spec, lam))
    def test_walk_gives_characteristic_and_count(self, spec, lam):
        count, d, scale = spectrum._zero_walk(spec, lam, None)
        assert (d, scale) == characteristic_scaled(spec, lam)
        assert count == len(interior_zeros(spec, lam))

    # the second piece as a constant and as a flat table, whose zeros the
    # walk keeps on its two routes
    @pytest.mark.parametrize("q", [-45.0, ((1.0, -45.0), (2.0, -45.0))])
    def test_zero_on_a_breakpoint_is_kept_once(self, q):
        # y = A sin(5 x + phi) on the first piece with phi = 2 pi - 5, so a
        # zero sits at the breakpoint x = 1 to within rounding: the
        # oscillating piece places it by its phase at 1.0, the evanescent
        # piece after it by its end signs one ulp later, and the dedup keeps
        # the first.  The alpha sits mid-way in a 12-ulp window where both
        # pieces place it.
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, 1.0, 0.0), Piece(1.0, 2.0, 1.0, q))),
            0.5945070301538051, 0.9)
        zeros = interior_zeros(spec, 25.0)
        assert len(zeros) == count_zeros(spec, 25.0) == 2
        assert zeros == pytest.approx([1.0 - math.pi / 5.0, 1.0], abs=1e-12)

    # lambda*w + q on a half-unit piece: decaying/growing, linear, or so
    # slowly oscillating that sqrt(k2) * length <= 1e-2
    NON_OSCILLATORY_K2 = st.one_of(
        st.floats(min_value=-400.0, max_value=-1e-12),
        st.just(0.0),
        st.floats(min_value=1e-12, max_value=4e-4))

    @given(st.floats(min_value=0.01, max_value=0.49),
           st.floats(min_value=-50.0, max_value=50.0),
           st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
           NON_OSCILLATORY_K2, NON_OSCILLATORY_K2)
    def test_non_oscillatory_zeros_in_closed_form(self, t0, lam, w1, w2,
                                                  k2a, k2b):
        # q = k2 - lam*w gives lam*w + q == 0.0 exactly when k2 == 0.0
        first = Piece(0.0, 0.5, w1, k2a - lam * w1)
        # boundary angle that puts the first piece's zero near t0, where
        # y0/y0' = -S/C; the second piece meets whatever state arrives
        k2 = lam * w1 + first.q
        if k2 < 0.0:
            s_over_c = math.tanh(math.sqrt(-k2) * t0) / math.sqrt(-k2)
        elif k2 == 0.0:
            s_over_c = t0
        else:
            s_over_c = math.tan(math.sqrt(k2) * t0) / math.sqrt(k2)
        spec = ProblemSpec(PiecewiseCoefficient((
            first, Piece(0.5, 1.0, w2, k2b - lam * w2))),
            alpha=math.pi - math.atan(s_over_c))
        zeros = interior_zeros(spec, lam)
        # the oracle ignores a 1e-6 band at each end, as interior_zeros
        # does at b for Dirichlet data
        band = 1e-6 * (spec.b - spec.a)
        assert len([z for z in zeros if z > spec.a + band]) == \
            dense_zero_count(spec, lam)
        for z in zeros:
            piece = next(p for p in spec.pieces if p.x0 <= z <= p.x1)
            (start,) = solution_at(spec, lam, [piece.x0])

            def y(x):
                return solution_at(spec, lam, [x])[0].y

            lo, hi = piece.x0, piece.x1
            y_lo = y(lo)
            while hi - lo > 1e-15:
                mid = 0.5 * (lo + hi)
                if (y(mid) < 0.0) == (y_lo < 0.0):
                    lo = mid
                else:
                    hi = mid
            # y(x) = m11 y0 + m12 y0' carries rounding of a few ulps of its
            # larger term, which blurs the zero by that over |y'(z)|: many
            # ulps where the solution decays into a zero near a piece's end
            m11, m12, _, _ = stretch_product(piece, lam, piece.x0, z)
            blur = 4.0 * 2.2e-16 * (abs(m11 * start.y) + abs(m12 * start.yp))
            slope = abs(solution_at(spec, lam, [z])[0].yp)
            assert z == pytest.approx(
                0.5 * (lo + hi), abs=1e-12 * (spec.b - spec.a) + blur / slope)


@st.composite
def tabulated_problems(draw):
    """Two unit pieces of either weight sign, one of them with a 3-6-node
    table, and a random boundary angle at a."""
    # unique as 1 + t, so the second piece's nodes stay strictly increasing
    inner = draw(st.lists(st.floats(min_value=0.05, max_value=0.95),
                          min_size=1, max_size=4, unique_by=lambda t: 1.0 + t))
    qs = draw(st.lists(st.floats(min_value=-10.0, max_value=30.0),
                       min_size=len(inner) + 2, max_size=len(inner) + 2))
    tabulated = draw(st.sampled_from((0, 1)))
    pieces = []
    for i in range(2):
        w = draw(st.sampled_from((-1.0, 1.0))) * draw(
            st.floats(min_value=0.2, max_value=3.0))
        if i == tabulated:
            q = tuple(zip([i, *(i + t for t in sorted(inner)), i + 1.0], qs))
        else:
            q = draw(st.floats(min_value=-10.0, max_value=30.0))
        pieces.append(Piece(float(i), i + 1.0, w, q))
    return ProblemSpec(PiecewiseCoefficient(tuple(pieces)),
                       alpha=draw(st.floats(min_value=0.0, max_value=3.1)))


class TestTabulatedZeros:
    """Zeros on tabulated pieces come from the closed form of each Magnus
    step's flow, with no sign-tracking grid."""

    @given(tabulated_problems(),
           st.floats(min_value=-500.0, max_value=1e3))
    # the closed form alone placed the zero at 0.94268 inside the table
    # 1.1e-9 off, which the 1e-9 probe below caught; one Newton step per
    # zero brings it to 1.6e-13 of the same walk at 8192 steps per unit
    @example(ProblemSpec(PiecewiseCoefficient((
        Piece(0.0, 1.0, 1.09375, ((0.0, 0.0), (0.9296875, 25.0), (1.0, 0.0))),
        Piece(1.0, 2.0, -1.0, 0.0)))), 486.0)
    def test_count_and_sign_changes(self, spec, lam):
        zeros = interior_zeros(spec, lam)
        # the oracle leaves out a 1e-6 band at each end, as interior_zeros
        # does at b for Dirichlet data
        band = 1e-6 * (spec.b - spec.a)
        assert len([z for z in zeros if z > spec.a + band]) == \
            dense_zero_count(spec, lam)
        for z in zeros:
            lo, hi = solution_at(spec, lam, [z - 1e-9, z + 1e-9])
            assert (lo.y < 0.0) != (hi.y < 0.0), z


# --------------------------------------------------------------------------
# Real-window scans
# --------------------------------------------------------------------------

class TestRefineBracket:
    @pytest.mark.parametrize("f, x0, x1, root", [
        (lambda x: x - 0.3, 0.0, 1.0, 0.3),
        (lambda x: math.exp(x) - 2.0, 0.0, 3.0, math.log(2.0)),
        (math.sin, 2.0, 4.0, math.pi),
        (lambda x: math.tanh(50.0 * (x - 0.7)), 0.0, 1.0, 0.7),
    ])
    def test_converges_within_xtol(self, f, x0, x1, root):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        x, _ = _refine_bracket(counted, x0, x1, f(x0), f(x1), 1e-12)
        assert abs(x - root) <= 1e-12
        assert len(calls) <= 20


class TestRealScan:
    @pytest.mark.parametrize("q0", [-10.0, -5.0, 3.0])
    def test_each_root_is_polished_once(self, monkeypatch, q0):
        # a bracket refined to tol leaves the root outside both sub-cells,
        # so no root is found (and polished) again further down
        calls = []
        polish = spectrum._newton_polish

        def counted(spec, lam):
            calls.append(lam)
            return polish(spec, lam)

        monkeypatch.setattr(spectrum, "_newton_polish", counted)
        res = find_real_eigenvalues(one_turning_point(q0), (-60.0, 60.0), 1e-9)
        assert res.records
        assert len(calls) <= 2 * len(res.records)

    def test_flat_minimum_probe(self, monkeypatch):
        # one_tp(pi^2/4) has a double root at 0, D ~ lambda^2: no sign change
        # and no count jump.  The window puts 0 a third of the way into a
        # lattice cell, so every halving keeps the dip of |D| inside a cell
        # down to the probe, which brackets D' = 0 and emits the root there.
        # Pushed off the axis, the pair leaves the same dip and no root.
        brackets = []
        refine = spectrum._refine_bracket

        def traced(f, *args):
            out = refine(f, *args)
            brackets.append((f.__name__, out[0]))
            return out

        monkeypatch.setattr(spectrum, "_refine_bracket", traced)
        window = (-18.25, 17.75)
        res = find_real_eigenvalues(one_turning_point(PI2 / 4.0), window, 1e-4)
        assert [name for name, _ in brackets] == ["dprime"]
        assert abs(brackets[0][1]) <= 1e-12
        assert [r.zeros_in_ab for r in res.records] == [0]
        assert abs(res.records[0].re_lambda) <= 1e-6
        brackets.clear()
        res = find_real_eigenvalues(one_turning_point(PI2 / 4.0 + 1e-6),
                                    window, 1e-4)
        assert [name for name, _ in brackets] == ["dprime"]
        assert res.records == ()

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP F5: rounding splits D ~ c lambda^2 into sign changes wider "
        "apart than _merge_roots' fixed 10 tol |lambda| band; item 1 step "
        "1's merge by error bar should report the double root once"))
    def test_coalescing_double_root_is_reported_once(self):
        # one_tp(pi^2/4) has a double root at 0; the scan reports it 4 times,
        # from -2.2e-7 to 2.2e-7
        res = find_real_eigenvalues(one_turning_point(PI2 / 4.0), (-5.0, 5.0))
        near = [r.re_lambda for r in res.records if abs(r.re_lambda) <= 1e-5]
        assert len(near) == 1

    def test_classical_spectrum(self, classical_spec):
        res = find_real_eigenvalues(classical_spec, (1.0, 100.0), 1e-9)
        assert [r.re_lambda for r in res.records] == pytest.approx(
            [PI2, 4 * PI2, 9 * PI2], rel=1e-9)
        assert [r.zeros_in_ab for r in res.records] == [0, 1, 2]
        assert all(r.weighted_norm > 0 for r in res.records)
        assert all(r.is_real for r in res.records)

    def test_one_tp_frozen_set(self, one_tp_m10):
        res = find_real_eigenvalues(one_tp_m10, (-60.0, 60.0), 1e-9)
        assert [r.re_lambda for r in res.records] == pytest.approx(
            ONE_TP_M10_EIGS, rel=1e-9)
        assert sorted(r.zeros_in_ab for r in res.records) == [0, 0, 1, 1]
        # any sequence of two numbers is a window
        for window in ([-60.0, 60.0], np.array([-60.0, 60.0])):
            assert find_real_eigenvalues(one_tp_m10, window, 1e-9) == res
        assert res.n_r_empirical == 0
        assert res.n_h_empirical == 0

    def test_one_tp_negation_symmetry(self, one_tp_m10):
        # odd weight + even q about 0: the spectrum is symmetric under
        # lambda -> -lambda
        res = find_real_eigenvalues(one_tp_m10, (-60.0, 60.0), 1e-9)
        eigs = [r.re_lambda for r in res.records]
        assert sorted(-x for x in eigs) == pytest.approx(sorted(eigs), rel=1e-9)

    def test_app_frozen_table(self, app_spec):
        res = find_real_eigenvalues(app_spec, (-40.0, 30.0), 1e-9)
        assert len(res.records) == len(APP_Q0_TABLE)
        for rec, (lam, zeros, norm) in zip(res.records, APP_Q0_TABLE):
            assert rec.re_lambda == pytest.approx(lam, rel=1e-9, abs=1e-9)
            assert rec.zeros_in_ab == zeros
            assert rec.weighted_norm == pytest.approx(norm, rel=1e-7)

    def test_every_record_repropagates_to_small_residual(self, two_tp_q0):
        res = find_real_eigenvalues(two_tp_q0, (-100.0, 100.0), 1e-9)
        assert res.records
        for rec in res.records:
            d, scale = characteristic_scaled(two_tp_q0, rec.re_lambda)
            assert abs(d) < 10.0 * res.tol * scale
            assert rec.residual < 10.0 * res.tol * max(1.0, scale)

    def test_count_stable_under_grid_refinement(self, one_tp_m10,
                                                classical_spec):
        for spec, window in ((classical_spec, (1.0, 100.0)),
                             (one_tp_m10, (-60.0, 60.0))):
            base = find_real_eigenvalues(spec, window, 1e-9)
            fine = find_real_eigenvalues(spec, window, 1e-9, refine=2)
            assert [r.re_lambda for r in fine.records] == pytest.approx(
                [r.re_lambda for r in base.records], rel=1e-9, abs=1e-9)
            # a numpy integer is read as the int: the same lattice, floats
            numpy_fine = find_real_eigenvalues(spec, window, 1e-9,
                                               refine=np.int64(2))
            assert numpy_fine == fine and repr(numpy_fine) == repr(fine)

    def test_parallel_scan_matches_serial(self, one_tp_m10, monkeypatch):
        # workers share one detection lattice, so the result must be
        # byte-identical to the serial scan, not merely close
        serial = find_real_eigenvalues(one_tp_m10, (-60.0, 60.0), 1e-9)
        monkeypatch.setenv("SL_THREADS", "3")
        parallel = find_real_eigenvalues(one_tp_m10, (-60.0, 60.0), 1e-9)
        assert scan_to_csv(parallel) == scan_to_csv(serial)

    def test_window_edge_warning(self, classical_spec):
        res = find_real_eigenvalues(classical_spec, (PI2, 50.0), 1e-9)
        assert any("edge" in w or "boundary" in w for w in res.warnings)

    @pytest.mark.parametrize("window, roots", [
        ((4.0, 44.0), [4.0, 7.18938795116, 28.9233024551]),
        ((-36.0, 4.0), [-21.8317059634, 4.0]),
    ], ids=["root at lo", "root at hi"])
    def test_lattice_node_on_a_root(self, window, roots):
        # D(4) is exactly 0.0 here, so the window edge 4 is a lattice node
        # on a root: the scan emits the node itself and rescans its cell
        # without it, at the low end of one window and the high end of the
        # other, and reports the root once with both edge notes
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, -1.0, 8.0),
            Piece(1.0, 2.0925199316307594, 1.0, -4.0))))
        assert characteristic(spec, 4.0) == 0.0
        res = find_real_eigenvalues(spec, window, 1e-9)
        assert res.eigenvalues == pytest.approx(roots, rel=1e-10)
        assert res.eigenvalues.count(4.0) == 1
        assert res.warnings == (
            "eigenvalue 4.0 lies within the boundary band of the window edge "
            "4.0; membership is ambiguous at tol=1e-09",
            "|D| is at the numerical floor at the window edge 4.0; an "
            "eigenvalue may sit on the boundary")
        # off the node, Newton polishes the same root to a neighbouring double
        assert find_real_eigenvalues(spec, (3.0, 44.0), 1e-9).eigenvalues[0] \
            == 3.9999999999999996

    def test_empty_window(self, classical_spec):
        res = find_real_eigenvalues(classical_spec, (-30.0, -10.0), 1e-9)
        assert res.records == ()
        assert res.n_r_empirical is None

    @pytest.mark.parametrize("window", [(1.0, 1.0), (5.0, 2.0),
                                        (math.nan, 1.0), (0.0, math.inf)])
    def test_rejects_bad_windows(self, classical_spec, window):
        with pytest.raises(InvalidProblemError):
            find_real_eigenvalues(classical_spec, window)

    def test_rejects_bad_tol(self, classical_spec):
        # an infinite tol would let the merge band swallow every root
        for tol in (-1e-9, math.inf, math.nan):
            with pytest.raises(InvalidProblemError):
                find_real_eigenvalues(classical_spec, (0.0, 1.0), tol=tol)


# the tabulated problem of the README's problem-file example
README_TABLE = ProblemSpec(PiecewiseCoefficient((
    Piece(-1.0, 0.0, -1.0, -10.0),
    Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.5, 30.0), (1.0, 0.0))))))


def reflected(spec: ProblemSpec) -> ProblemSpec:
    """The same problem under x -> a + b - x: pieces and table nodes in
    reverse order, alpha and beta swapped."""
    s = spec.a + spec.b
    pieces = tuple(
        Piece(s - p.x1, s - p.x0, p.w, p.q if p.has_constant_q
              else tuple((s - x, q) for x, q in reversed(p.q)))
        for p in reversed(spec.pieces))
    return ProblemSpec(PiecewiseCoefficient(pieces), spec.beta, spec.alpha)


def with_double_weight(spec: ProblemSpec) -> ProblemSpec:
    return ProblemSpec(PiecewiseCoefficient(tuple(
        Piece(p.x0, p.x1, 2.0 * p.w, p.q) for p in spec.pieces)),
        spec.alpha, spec.beta)


@functools.cache
def scan_summary(spec: ProblemSpec, half_width: float) -> tuple[list, list, list]:
    """Roots, zero counts and norm signs of a scan over the half width,
    cached: each problem's own scan serves all its invariants."""
    recs = find_real_eigenvalues(spec, (-half_width, half_width), 1e-9).records
    return ([r.re_lambda for r in recs], [r.zeros_in_ab for r in recs],
            [r.weighted_norm > 0.0 for r in recs])


INVARIANT_PROBLEMS = [
    pytest.param(one_turning_point(-10.0), id="one_tp(-10)"),
    pytest.param(application_problem(3.0), id="application(3)"),
    pytest.param(README_TABLE, id="readme_table"),
]


class TestInvariants:
    """Properties the spectrum has whatever its values: no oracle needed."""

    @pytest.mark.parametrize("spec", INVARIANT_PROBLEMS)
    @pytest.mark.parametrize("transform", [reflected, normalize_domain])
    def test_same_problem_same_spectrum(self, spec, transform):
        # a reflected or rescaled interval carries the same eigenfunctions,
        # so the same roots, zero counts and norm signs
        roots, counts, signs = scan_summary(spec, 150.0)
        got_roots, got_counts, got_signs = scan_summary(transform(spec), 150.0)
        assert roots
        assert got_roots == pytest.approx(roots, rel=1e-9)
        assert got_counts == counts
        assert got_signs == signs

    @pytest.mark.parametrize("spec", INVARIANT_PROBLEMS)
    def test_doubled_weight_halves_every_root(self, spec):
        roots, counts, signs = scan_summary(spec, 150.0)
        got_roots, got_counts, got_signs = scan_summary(
            with_double_weight(spec), 75.0)
        assert got_roots == pytest.approx([0.5 * r for r in roots], rel=1e-12)
        assert got_counts == counts
        assert got_signs == signs

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP F1/F3/F4: the solution launched from a picks up the growing "
        "mode across the evanescent piece, so each end finds a different "
        "root set; item 1's matched shooting should make both ends agree"))
    def test_readme_table_reflection_at_w600(self):
        # 13 roots from the left end, 12 from the reflected problem, which
        # misses 578.04 and gives other zero counts at -336.54, -232.95,
        # 207.96 and 434.89; the whole summary is compared, so a step rule
        # that makes the root counts agree by chance still fails
        roots, counts, signs = scan_summary(README_TABLE, 600.0)
        got_roots, got_counts, got_signs = scan_summary(
            reflected(README_TABLE), 600.0)
        assert got_roots == pytest.approx(roots, rel=1e-9)
        assert got_counts == counts
        assert got_signs == signs


class TestEmpiricalIndices:
    @pytest.mark.parametrize("counts,expected", [
        ([], (None, None)),
        ([0, 0, 1, 1], (0, 0)),
        ([0, 1, 1, 2, 2], (1, 1)),
        ([0, 1, 2], (None, None)),          # all singletons: no threshold seen
        ([0, 0, 0, 1, 1], (0, 1)),          # triple at 0: "exactly two" holds from 1
        ([1, 1, 2, 2], (None, None)),       # floor above zero: lower part unseen
        ([0, 2, 2], (None, None)),          # gap at count 1
        ([0, 1, 1, 2], (1, 1)),             # truncated top count is ignored
    ])
    def test_pattern_inference(self, counts, expected):
        assert _empirical_indices(counts) == expected


# --------------------------------------------------------------------------
# Complex-rectangle scans
# --------------------------------------------------------------------------

class TestComplexScan:
    def test_positive_weight_rect_is_empty(self, classical_spec):
        out = find_complex_eigenvalues(classical_spec,
                                       {"re": (1.0, 50.0), "im": (0.1, 10.0)},
                                       1e-9)
        assert out == []

    def test_frozen_conjugate_quadruple(self, one_tp_p13):
        out = find_complex_eigenvalues(one_tp_p13,
                                       {"re": (-20.0, 20.0),
                                        "im": (-20.0, 20.0)}, 1e-10)
        re0, im0 = ONE_TP_P13_PAIR
        got = sorted((r.re_lambda, r.im_lambda) for r in out)
        want = sorted([(re0, im0), (re0, -im0), (-re0, im0), (-re0, -im0)])
        assert len(got) == 4
        for (gr, gi), (wr, wi) in zip(got, want):
            assert gr == pytest.approx(wr, rel=1e-9)
            assert gi == pytest.approx(wi, rel=1e-9)
        # conjugate closure is exact, not merely approximate
        as_set = {(r.re_lambda, r.im_lambda) for r in out}
        assert {(re, -im) for re, im in as_set} == as_set
        for r in out:
            assert not r.is_real
            assert r.zeros_in_ab is None
            assert r.weighted_norm is None

    def test_real_eigenvalue_inside_rect_is_exactly_real(self,
                                                         classical_spec):
        out = find_complex_eigenvalues(classical_spec,
                                       {"re": (5.0, 15.0), "im": (-1.0, 1.0)},
                                       1e-9)
        assert len(out) == 1
        rec = out[0]
        assert rec.is_real
        assert rec.re_lambda == pytest.approx(PI2, rel=1e-9)
        assert rec.im_lambda == 0.0
        assert rec.zeros_in_ab == 0
        assert rec.weighted_norm > 0

    def test_zero_on_initial_edge_is_handled(self, classical_spec):
        # right edge exactly on the fundamental eigenvalue: the contour is
        # nudged automatically instead of failing, with one warning
        with pytest.warns(UserWarning, match="contour passed near a root"):
            out = find_complex_eigenvalues(
                classical_spec, {"re": (5.0, PI2), "im": (-1.0, 1.0)}, 1e-9)
        for rec in out:
            assert rec.re_lambda == pytest.approx(PI2, rel=1e-8)

    def test_tuple_and_dict_rects_agree(self, one_tp_p13):
        a = find_complex_eigenvalues(one_tp_p13,
                                     ((0.0, 20.0), (0.5, 20.0)), 1e-10)
        b = find_complex_eigenvalues(one_tp_p13,
                                     {"re": (0.0, 20.0), "im": (0.5, 20.0)},
                                     1e-10)
        assert [(r.re_lambda, r.im_lambda) for r in a] == \
               [(r.re_lambda, r.im_lambda) for r in b]

    @pytest.mark.parametrize("rect", [
        {"re": (1.0, 1.0), "im": (0.0, 1.0)},
        {"re": (0.0, 1.0), "im": (2.0, 1.0)},
        {"re": (0.0, 1.0)},
        {"re": (0.0, 1.0), "im": (0.0, 1.0), "rotation": 0.3},
    ])
    def test_rejects_bad_rects(self, classical_spec, rect):
        with pytest.raises(InvalidProblemError):
            find_complex_eigenvalues(classical_spec, rect)

    @pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
    def test_rejects_bad_tol(self, one_tp_p13, tol):
        with pytest.raises(InvalidProblemError):
            find_complex_eigenvalues(one_tp_p13, ((-20.0, 20.0),
                                                  (-20.0, 20.0)), tol)

    def test_skew_rect_returns_exact_conjugate_pairs(self, one_tp_p13):
        # the lower edge cuts below both pairs, so all four roots are inside
        out = find_complex_eigenvalues(one_tp_p13, {"re": (-20.0, 20.0),
                                                    "im": (-5.0, 20.0)})
        as_set = {(r.re_lambda, r.im_lambda) for r in out}
        assert len(as_set) == 4
        assert {(re, -im) for re, im in as_set} == as_set
        re0, im0 = ONE_TP_P13_PAIR
        for re, im in as_set:
            assert abs(re) == pytest.approx(re0, rel=1e-12)
            assert abs(im) == pytest.approx(im0, rel=1e-12)

    def test_lone_real_root_of_a_strip_is_bracketed(self):
        # Newton from the strip's real centre stalls at an extremum of D
        spec = application_problem(8.0)
        out = find_complex_eigenvalues(spec, {"re": (-60.3, 60.3),
                                              "im": (-20.0, 20.0)})
        assert any(r.is_real and r.re_lambda == pytest.approx(
            22.24163150198956, rel=1e-12) for r in out)
        for r in out:
            d, scale = characteristic_scaled(spec, r.lam)
            assert abs(d) <= 1e-10 * scale

    def test_strip_roots_are_the_real_scan_roots(self):
        # the box's last real root is 19.15; Newton from a strip's real
        # centre stalls at 0.14, where |D| / scale = 0.17
        spec = one_turning_point(27.5)
        out = find_complex_eigenvalues(spec, {"re": (-47.0, 22.5),
                                              "im": (-5.0, 5.0)})
        real = find_real_eigenvalues(spec, (-47.0, 22.5)).eigenvalues
        assert len(real) == 3
        assert all(r.im_lambda == 0.0 for r in out)
        assert [r.re_lambda for r in out] == pytest.approx(real, rel=1e-12)

    @settings(max_examples=30)
    @given(st.one_of(st.floats(3.0, 40.0).map(one_turning_point),
                     st.floats(0.0, 20.0).map(application_problem)),
           st.sampled_from(("symmetric", "skew", "below")),
           st.floats(-20.0, -0.5), st.floats(0.5, 20.0),
           st.floats(0.5, 10.0), st.floats(0.5, 10.0))
    def test_conjugate_closure_property(self, spec, shape, re_lo, re_hi,
                                        a, b):
        im_lo, im_hi = {"symmetric": (-a, a), "skew": (-a, 2.0 * b),
                        "below": (-a - b, -b)}[shape]
        try:
            out = find_complex_eigenvalues(spec, ((re_lo, re_hi),
                                                  (im_lo, im_hi)))
        except (ContourError, NumericalFailure):
            return
        as_set = {(r.re_lambda, r.im_lambda) for r in out}
        for re, im in as_set:
            if im != 0.0 and im_lo <= -im <= im_hi:
                assert (re, -im) in as_set
        for r in out:
            if abs(r.im_lambda) <= 1e-8 * max(1.0, abs(r.re_lambda)):
                assert r.im_lambda == 0.0
                assert r.zeros_in_ab is not None
        if shape == "below":
            mirror = find_complex_eigenvalues(spec, ((re_lo, re_hi),
                                                     (-im_hi, -im_lo)))
            assert sorted(as_set) == sorted(
                (r.re_lambda, -r.im_lambda) for r in mirror)

    @pytest.mark.parametrize("q0", [6.0, 13.0, 18.5])
    def test_symmetric_rect_closure_property(self, q0):
        spec = one_turning_point(q0)
        out = find_complex_eigenvalues(spec,
                                       {"re": (-25.0, 25.0),
                                        "im": (-25.0, 25.0)}, 1e-9)
        as_set = {(r.re_lambda, r.im_lambda) for r in out}
        assert {(re, -im) for re, im in as_set} == as_set
        # an even number of strictly complex roots
        assert len([r for r in out if not r.is_real]) % 2 == 0

    def test_flat_box_round_the_real_roots(self, app_spec):
        # the box's long edges pass 1 above and below the real roots
        out = find_complex_eigenvalues(app_spec, {"re": (-60.3, 60.3),
                                                  "im": (-1.0, 1.0)})
        real = find_real_eigenvalues(app_spec, (-60.3, 60.3)).eigenvalues
        assert len(real) == 8
        assert all(r.is_real for r in out)
        assert [r.re_lambda for r in out] == pytest.approx(real, rel=1e-12)

    def test_edge_just_above_real_roots(self, app_spec):
        # the bottom edge runs 1e-3 above the real roots -6.51 and -6.24
        assert find_complex_eigenvalues(
            app_spec, {"re": (-60.0, 60.0), "im": (1e-3, 60.0)}) == []

    def test_one_root_in_a_wide_box(self):
        out = find_complex_eigenvalues(one_turning_point(25.0),
                                       {"re": (-60.0, 60.0),
                                        "im": (1e-3, 60.0)})
        assert len(out) == 1
        assert out[0].re_lambda == pytest.approx(0.0, abs=1e-12)
        assert out[0].im_lambda == pytest.approx(10.125122387922046,
                                                 rel=1e-12)

    def test_cut_through_a_conjugate_pair(self):
        # D is real on the imaginary axis, and the first cut runs along it
        # through +-3.6004i: their half-turns cancel, so the cut must fail
        # its count, not split the box's 4 roots as 2 + 2
        out = find_complex_eigenvalues(one_turning_point(8.55),
                                       {"re": (-35.4, 35.4),
                                        "im": (-16.5, 16.5)})
        got = sorted((r.re_lambda, r.im_lambda) for r in out)
        want = [(-19.2062, 0.0), (0.0, -3.6004), (0.0, 3.6004),
                (19.2062, 0.0)]
        assert len(got) == 4
        for (gr, gi), (wr, wi) in zip(got, want):
            assert gr == pytest.approx(wr, abs=1e-4)
            assert gi == pytest.approx(wi, abs=1e-4)

    @pytest.mark.parametrize("tol", [1e-3, 0.05])
    def test_coarse_tol_keeps_the_quadruple(self, one_tp_p13, tol):
        out = find_complex_eigenvalues(one_tp_p13, ((-20.0, 20.0),
                                                    (-20.0, 20.0)), tol)
        re0, im0 = ONE_TP_P13_PAIR
        got = sorted((r.re_lambda, r.im_lambda) for r in out)
        assert [v for pair in got for v in pair] == pytest.approx(
            [-re0, -im0, -re0, im0, re0, -im0, re0, im0], rel=1e-9)

    def test_stalled_newton_at_the_diameter_floor_raises(self, one_tp_p13):
        # at tol = 2 the half boxes reach the floor with their two roots
        # unresolved; Newton from a centre stalls on the axis at -9.2955,
        # where |D| / scale = 7.8e-2, which must not be reported as a root
        with pytest.raises(NumericalFailure, match="diameter floor"):
            find_complex_eigenvalues(one_tp_p13, ((-20.0, 20.0),
                                                  (-20.0, 20.0)), 2.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems_count_every_box(self, seed):
        # 2-4 constant pieces of 0.2-1 each; the bottom edge passes 1e-3
        # above every real root in the window
        rng = random.Random(seed)
        xs = [0.0]
        for _ in range(rng.randint(2, 4)):
            xs.append(xs[-1] + rng.uniform(0.2, 1.0))
        spec = ProblemSpec(PiecewiseCoefficient(tuple(
            Piece(x0, x1, rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0),
                  rng.uniform(-20.0, 20.0)) for x0, x1 in zip(xs, xs[1:]))))
        for r in find_complex_eigenvalues(spec, {"re": (-80.0, 80.0),
                                                 "im": (1e-3, 80.0)}):
            d, scale = characteristic_scaled(spec, r.lam)
            assert abs(d) <= 1e-10 * scale


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

class TestSerialization:
    def test_csv_shape_and_none_blank(self):
        recs = [
            EigenRecord(1.5, 0.0, 2, 3.25, 1e-12),
            EigenRecord(2.0, 0.5, None, None, 1e-11),
        ]
        lines = records_to_csv(recs).strip().split("\n")
        assert lines[0] == "re_lambda,im_lambda,zeros,weighted_norm,residual"
        assert lines[1] == "1.5,0.0,2,3.25,1e-12"
        assert lines[2] == "2.0,0.5,,,1e-11"

    def test_scan_json_round_trip_shape(self, one_tp_m10):
        res = find_real_eigenvalues(one_tp_m10, (-60.0, 60.0), 1e-9)
        doc = json.loads(scan_to_json(res))
        assert doc["window"] == [-60.0, 60.0]
        assert doc["n_r_empirical"] == 0
        assert doc["n_h_empirical"] == 0
        assert len(doc["eigenvalues"]) == 4
        rec = doc["eigenvalues"][0]
        assert set(rec) == {"re_lambda", "im_lambda", "zeros",
                            "weighted_norm", "residual"}

    def test_golden_scan_csv(self, one_tp_m10):
        res = find_real_eigenvalues(one_tp_m10, (-60.0, 60.0), 1e-9)
        got = scan_to_csv(res)
        want = (GOLDEN / "one_tp_m10_scan.csv").read_text()
        assert got == want

    def test_record_helpers(self):
        rec = EigenRecord(3.0, -4.0, None, None, 0.0)
        assert rec.lam == 3.0 - 4.0j
        assert not rec.is_real
        assert rec.to_dict()["im_lambda"] == -4.0


# --------------------------------------------------------------------------
# Error paths at large and non-finite lambda
# --------------------------------------------------------------------------

class TestLambdaRange:
    ENTRY_POINTS = (
        characteristic, characteristic_scaled, interior_zeros, count_zeros,
        weighted_norm,
        lambda spec, lam: weighted_partial(spec, lam, 0.5),
        lambda spec, lam: solution_at(spec, lam, [0.5]),
        lambda spec, lam: zero_drift(spec, lam, 1),
    )

    # not a number (a string, None, a bool, a container) or not finite
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf,
                                     complex(1.0, math.nan),
                                     "17", None, True, [1.0]])
    def test_non_finite_lambda_is_invalid(self, one_tp_m10, lam):
        for fn in self.ENTRY_POINTS:
            with pytest.raises(InvalidProblemError):
                fn(one_tp_m10, lam)

    @pytest.mark.parametrize("lam", [6e5, -6e5, 1e8, -1e8])
    def test_large_lambda_gives_result_or_numerical_failure(self, lam):
        tab = Piece(0.0, 1.0, 1.0, ((0.0, -3.0), (0.5, 8.0), (1.0, 2.0)))
        for spec in (one_turning_point(-10.0), one_turning_point(5.0),
                     ProblemSpec(PiecewiseCoefficient((tab,)))):
            for fn in self.ENTRY_POINTS:
                try:
                    out = fn(spec, lam)
                except NumericalFailure:
                    continue
                # results of every type (states, floats, lists)
                # print their floats through repr
                assert "nan" not in repr(out) and "inf" not in repr(out)

    def test_overflow_is_numerical_failure(self, one_tp_m10):
        # cosh(sqrt(1e8)) overflows on the negative-weight piece
        for fn in self.ENTRY_POINTS:
            with pytest.raises(NumericalFailure):
                fn(one_tp_m10, 1e8)

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_overflow_inside_a_scan_is_numerical_failure(
            self, monkeypatch, one_tp_m10, threads):
        # cosh overflows at every lattice node; the scan's walks run
        # unguarded under one guard per chunk, in the worker
        if threads is None:
            monkeypatch.delenv("SL_THREADS", raising=False)
        else:
            monkeypatch.setenv("SL_THREADS", threads)
        with pytest.raises(NumericalFailure, match="overflows"):
            find_real_eigenvalues(one_tp_m10, (6e5, 6.0001e5))

    def test_phase_past_double_precision_is_numerical_failure(
            self, classical_spec):
        # sqrt(lambda) is the phase across the unit interval: 1e14 still
        # has digits, 1e150 has none
        assert math.isfinite(characteristic(classical_spec, 1e28))
        for lam in (1e300, complex(1e300, 1.0), 1e31):
            with pytest.raises(NumericalFailure, match="phase"):
                characteristic(classical_spec, lam)
        # both zero walks compute the kernel inline, with its phase limit
        for lam in (1e300, 1e31):
            for walk in (count_zeros, interior_zeros):
                with pytest.raises(NumericalFailure, match="phase"):
                    walk(classical_spec, lam)

    def test_tabulated_phase_past_double_precision_is_numerical_failure(
            self):
        # the total phase across the table is about sqrt(lambda), while each
        # Magnus step, at the cap of 512 per unit, sees 1/512 of it
        tab = Piece(0.0, 1.0, 1.0, ((0.0, -3.0), (1.0, 2.0)))
        spec = ProblemSpec(PiecewiseCoefficient((tab,)))
        assert math.isfinite(characteristic(spec, 1e28))
        for lam in (1e31, complex(1e31, 1.0)):
            with pytest.raises(NumericalFailure, match="phase"):
                characteristic(spec, lam)
        with pytest.raises(NumericalFailure, match="phase"):
            weighted_norm(spec, 1e31)

    def test_tabulated_count_at_high_lambda(self):
        # Dirichlet data at a: the count is floor(int sqrt(lam + q) dx / pi)
        # while the WKB correction stays far below the fractional part.  With
        # A = lam + 2 and B = lam - 3 the integral is
        # (2/15) (A^1.5 - B^1.5) = (2/3) (A^2 + AB + B^2) / (A^1.5 + B^1.5),
        # which does not cancel.
        tab = Piece(0.0, 1.0, 1.0, ((0.0, -3.0), (1.0, 2.0)))
        spec = ProblemSpec(PiecewiseCoefficient((tab,)))
        lam = 1e12
        big, small = lam + 2.0, lam - 3.0
        phase = (2.0 / 3.0) * (big * big + big * small + small * small) / (
            big ** 1.5 + small ** 1.5)
        assert math.floor(phase / math.pi) == 318_309
        assert count_zeros(spec, lam) == 318_309

    @pytest.mark.parametrize("lam, want", [
        (1e12, 318_309), (1e13, 1_006_583), (4e13, 2_013_166)])
    def test_constant_count_at_high_lambda(self, classical_spec, lam, want):
        # the zeros are m pi / sqrt(lambda); the Dirichlet end band drops
        # those past 1 - 1e-6: none at 1e12, the one at 1 - 2.4e-7 at 1e13,
        # two at 4e13.  The count keeps no list of them.
        assert want == math.floor(math.sqrt(lam) * (1.0 - 1e-6) / math.pi)
        tracemalloc.start()
        try:
            assert count_zeros(classical_spec, lam) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("lam", [1e3, 1e8, 1e12])
    def test_flat_table_zeros_equal_constant_piece(self, lam):
        flat = Piece(0.0, 1.0, 1.0, ((0.0, 0.7), (1.0, 0.7)))
        const = Piece(0.0, 1.0, 1.0, 0.7)
        assert interior_zeros(ProblemSpec(PiecewiseCoefficient((flat,))),
                              lam) == interior_zeros(
            ProblemSpec(PiecewiseCoefficient((const,))), lam)


class TestThreadCount:
    @pytest.mark.parametrize("raw, want", [
        ("0", 1), ("-3", 1), ("abc", 1), ("", 1), ("2", 2)])
    def test_parsing(self, monkeypatch, raw, want):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("SL_THREADS", raw)
        assert _thread_count(100) == want

    def test_capped_by_cpus_and_cells(self, monkeypatch):
        monkeypatch.setenv("SL_THREADS", "1000000")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _thread_count(100) == 4
        assert _thread_count(3) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _thread_count(100) == 1


# --------------------------------------------------------------------------
# Caller parameters: one check each, InvalidProblemError naming the parameter
# --------------------------------------------------------------------------

TOL_ENTRY_POINTS = {
    "find_real_eigenvalues":
        lambda tol: find_real_eigenvalues(one_turning_point(-10.0), (-5, 5), tol),
    "find_complex_eigenvalues":
        lambda tol: find_complex_eigenvalues(one_turning_point(-10.0),
                                             ((-5, 5), (0, 5)), tol),
    "richardson_numbers":
        lambda tol: richardson_numbers(one_turning_point(-10.0), (-60, 60), tol),
    "certify_prop3":
        lambda tol: certify_prop3(one_turning_point(-10.0), 1.0, [0.0], tol),
}


@pytest.mark.parametrize("tol, message", [
    ("1e-9", "tol is not a number: '1e-9'"),
    (None, "tol is not a number: None"),
    (True, "tol is not a number: True"),
    (0.0, "tol must be positive and finite, got 0.0"),
    (math.inf, "tol must be finite, got inf"),
])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_tol_is_checked_once_for_every_entry_point(entry, tol, message):
    with pytest.raises(InvalidProblemError, match=f"^{re.escape(message)}$"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda spec: find_real_eigenvalues(spec, ("-5", "5")),
                 "window start is not a number: '-5'", id="string window"),
    pytest.param(lambda spec: find_real_eigenvalues(spec, (False, True)),
                 "window start is not a number: False", id="bool window"),
    pytest.param(lambda spec: find_real_eigenvalues(spec, (-5.0, math.inf)),
                 "window end must be finite, got inf", id="infinite window"),
    pytest.param(lambda spec: find_complex_eigenvalues(
        spec, ((-5, 5), (0, math.inf))),
        "rectangle im_hi must be finite, got inf", id="infinite rectangle"),
    pytest.param(lambda spec: find_complex_eigenvalues(
        spec, (("-5", 5), (0, 5))),
        "rectangle re_lo is not a number: '-5'", id="string rectangle"),
    pytest.param(lambda spec: disconjugate_on(spec, 0.0, ("-1", "0")),
                 "interval start is not a number: '-1'", id="string interval"),
    # each range is a sequence of exactly two numbers
    pytest.param(lambda spec: find_real_eigenvalues(spec, (1,)),
                 "window (start, end) must be a sequence of 2, got (1,)",
                 id="short window"),
    pytest.param(lambda spec: find_real_eigenvalues(spec, (-5, 5, 7)),
                 "window (start, end) must be a sequence of 2, got (-5, 5, 7)",
                 id="long window"),
    pytest.param(lambda spec: find_real_eigenvalues(spec, 5),
                 "window (start, end) must be a sequence of 2, got 5",
                 id="number window"),
    pytest.param(lambda spec: find_real_eigenvalues(spec, {"lo": -5, "hi": 5}),
                 "window (start, end) must be a sequence of 2, got "
                 "{'lo': -5, 'hi': 5}", id="mapping window"),
    pytest.param(lambda spec: find_real_eigenvalues(spec, {-5, 5}),
                 "window (start, end) must be a sequence of 2, got {-5, 5}",
                 id="set window"),
    pytest.param(lambda spec: richardson_numbers(spec, (1,)),
                 "window (start, end) must be a sequence of 2, got (1,)",
                 id="short richardson window"),
    pytest.param(lambda spec: find_complex_eigenvalues(
        spec, ((0, 1, 2), (0, 1))),
        "rectangle (re_lo, re_hi) must be a sequence of 2, got (0, 1, 2)",
        id="long rectangle side"),
    pytest.param(lambda spec: find_complex_eigenvalues(spec, ((0, 1),)),
                 "rectangle must be a sequence of 2, got ((0, 1),)",
                 id="one-sided rectangle"),
    pytest.param(lambda spec: find_complex_eigenvalues(
        spec, {"re": (0, 1), "im": 5}),
        "rectangle (im_lo, im_hi) must be a sequence of 2, got 5",
        id="number rectangle side"),
    pytest.param(lambda spec: disconjugate_on(spec, 0.0, (-1,)),
                 "interval (start, end) must be a sequence of 2, got (-1,)",
                 id="short interval"),
    pytest.param(lambda spec: disconjugate_on(spec, 0.0, (-1, 0, 1)),
                 "interval (start, end) must be a sequence of 2, got (-1, 0, 1)",
                 id="long interval"),
    pytest.param(lambda spec: disconjugate_on(spec, 0.0, {"a": 1, "b": 2}),
                 "interval (start, end) must be a sequence of 2, got "
                 "{'a': 1, 'b': 2}", id="mapping interval"),
    # mus and xs are sequences of numbers, x_hi a number, zero_index an int
    pytest.param(lambda spec: certify_prop3(spec, 17.118939070171816, 0.0),
                 "mus must be a sequence, got 0.0", id="number mus"),
    pytest.param(lambda spec: solution_at(spec, 17.0, 5),
                 "xs must be a sequence, got 5", id="number xs"),
    pytest.param(lambda spec: solution_at(spec, 17.0, ["0.5"]),
                 "x is not a number: '0.5'", id="string x"),
    pytest.param(lambda spec: weighted_partial(spec, 17.0, "0.5"),
                 "x_hi is not a number: '0.5'", id="string x_hi"),
    pytest.param(lambda spec: zero_drift(spec, 17.118939070171816, True),
                 "zero_index must be a positive integer, got True",
                 id="bool zero_index"),
    # a place in [a, b] has one reader and one message
    pytest.param(lambda spec: solution_at(spec, 17.0, [0.5, 1.5]),
                 "x=1.5 outside the interval [-1.0, 1.0]", id="x outside"),
    pytest.param(lambda spec: weighted_partial(spec, 17.0, -2.0),
                 "x_hi=-2.0 outside the interval [-1.0, 1.0]",
                 id="x_hi outside"),
    pytest.param(lambda spec: spec.coeff.piece_at(1.5),
                 "x=1.5 outside the interval [-1.0, 1.0]",
                 id="piece_at outside"),
    *(pytest.param(lambda spec, x=x: spec.coeff.piece_at(x),
                   f"x is not a number: {x!r}", id=f"piece_at {x!r}")
      for x in (True, "x", None, [0.5])),
    pytest.param(lambda spec: spec.coeff.evaluate("0.5"),
                 "x is not a number: '0.5'", id="evaluate string"),
    pytest.param(lambda spec: spec.coeff.evaluate(math.nan),
                 "x must be finite, got nan", id="evaluate nan"),
    # pieces, and application_problem's per-piece q, are sequences
    *(pytest.param(lambda spec, v=v: PiecewiseCoefficient(v),
                   f"pieces must be a sequence, got {v!r}", id=f"pieces {v!r}")
      for v in (None, 5, "x", {"a": 1})),
    *(pytest.param(lambda spec, q=q: application_problem(q),
                   f"q must be a sequence of 3, got {q!r}", id=f"q {q!r}")
      for q in ({0: 1.0, 1: 2.0, 2: 3.0}, {1.0, 2.0, 3.0}, {"a": 1},
                [1.0, 2.0], (1.0, 2.0, 3.0, 4.0))),
    # a canonical family is named by a string
    pytest.param(lambda spec: build_canonical(["one_tp_sign"], -10.0),
                 "unknown canonical family ['one_tp_sign']; expected one of "
                 "['application', 'one_tp_sign', 'two_tp']",
                 id="unhashable family"),
    # refine is a positive int or numpy integer, read once at the entry
    *(pytest.param(lambda spec, r=refine: find_real_eigenvalues(
        spec, (-5, 5), 1e-9, r),
        f"refine must be a positive integer, got {refine!r}",
        id=f"refine {refine!r}")
      for refine in ("abc", None, True, 2.7, 0, -3)),
    # every entry point that takes a problem reads it as one
    *(pytest.param(call, f"spec must be a ProblemSpec, got {got}", id=name)
      for name, got, call in [
          ("characteristic", "NoneType",
           lambda spec: characteristic(None, 1.0)),
          ("count_zeros", "PiecewiseCoefficient",
           lambda spec: count_zeros(spec.coeff, 1.0)),
          ("interior_zeros", "NoneType",
           lambda spec: interior_zeros(None, 1.0)),
          ("weighted_norm", "str", lambda spec: weighted_norm("x", 1.0)),
          ("solution_at", "NoneType",
           lambda spec: solution_at(None, 1.0, [0.0])),
          ("zero_drift", "NoneType", lambda spec: zero_drift(None, 1.0, 1)),
          ("find_real_eigenvalues", "NoneType",
           lambda spec: find_real_eigenvalues(None, (-5, 5))),
          ("richardson_numbers", "NoneType",
           lambda spec: richardson_numbers(None, (-5, 5))),
          ("find_complex_eigenvalues", "NoneType",
           lambda spec: find_complex_eigenvalues(None, ((0, 1), (0, 1)))),
          ("classify_definiteness", "NoneType",
           lambda spec: classify_definiteness(None)),
          ("disconjugate_on", "NoneType",
           lambda spec: disconjugate_on(None, 0.0, (-1, 0))),
          ("certify_prop3", "NoneType",
           lambda spec: certify_prop3(None, 17.0, [0.0])),
          ("certify_prop4", "NoneType",
           lambda spec: certify_prop4(None, 0.0, 1.0, 0.0, 0.5, 0.7)),
          ("certify_prop5", "NoneType",
           lambda spec: certify_prop5(None, 0.0, 1.0, 0.0, 0.5, 0.7)),
          ("normalize_domain", "NoneType",
           lambda spec: normalize_domain(None)),
          ("problem_to_dict", "PiecewiseCoefficient",
           lambda spec: problem_to_dict(spec.coeff)),
          ("save_problem", "NoneType",
           lambda spec: save_problem(None, os.devnull)),
          # zero_drift raises DriftUndefined for a record's own lambda,
          # never InvalidProblemError, so a bad spec is not a blank cell
          ("report_to_csv", "NoneType",
           lambda spec: report_to_csv(
               None, richardson_numbers(spec, (-20, 20)), with_drift=True)),
      ]),
])
def test_range_ends_are_finite_numbers(call, message):
    with pytest.raises(InvalidProblemError, match=f"^{re.escape(message)}$"):
        call(one_turning_point(-10.0))
