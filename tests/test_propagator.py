"""Transfer-matrix kernels, propagation, and the Magnus steps."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slindef import (
    InvalidProblemError,
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    cs_kernels,
    propagate,
    solution_at,
)
from slindef import propagator
from slindef.propagator import _ds_dz, initial_state, transfer_across

from oracles import ivp_states, kernel_integrals


def rel_det_defect(m) -> float:
    det = m.m11 * m.m22 - m.m12 * m.m21
    scale = max(1.0, abs(m.m11 * m.m22) + abs(m.m12 * m.m21))
    return abs(det - 1.0) / scale


# --------------------------------------------------------------------------
# Oscillator kernels C and S
# --------------------------------------------------------------------------

class TestKernels:
    def test_trigonometric_regime(self):
        c, s = cs_kernels(math.pi ** 2, 1.0)
        assert c == pytest.approx(-1.0, abs=1e-15)
        assert s == pytest.approx(0.0, abs=1e-15)
        c, s = cs_kernels(4.0, 0.5)
        assert c == pytest.approx(math.cos(1.0), rel=1e-15)
        assert s == pytest.approx(math.sin(1.0) / 2.0, rel=1e-15)

    def test_hyperbolic_regime(self):
        c, s = cs_kernels(-1.0, 1.0)
        assert c == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert s == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_degenerate_z_zero(self):
        c, s = cs_kernels(0.0, 0.7)
        assert (c, s) == (1.0, 0.7)

    def test_series_matches_direct_at_cutover(self):
        # straddle the small-argument switch; both branches must agree
        t = 1.0
        for z in (9e-5, 1.1e-4, -9e-5, -1.1e-4):
            c, s = cs_kernels(z, t)
            k = cmath.sqrt(complex(z))
            c_ref = complex(cmath.cos(k * t)).real
            s_ref = t if z == 0 else complex(cmath.sin(k * t) / k).real
            assert c == pytest.approx(c_ref, rel=1e-13)
            assert s == pytest.approx(s_ref, rel=1e-13)

    def test_complex_argument(self):
        z = 3.0 + 4.0j
        t = 0.8
        k = cmath.sqrt(z)
        c, s = cs_kernels(z, t)
        assert c == pytest.approx(cmath.cos(k * t), rel=1e-13)
        assert s == pytest.approx(cmath.sin(k * t) / k, rel=1e-13)

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=1e-3, max_value=3.0))
    def test_pythagorean_style_identity(self, z, t):
        # C' = -z S and S' = C imply C^2 + z S^2 = 1 for all z, t;
        # measured relative to the term magnitudes (hyperbolic growth)
        c, s = cs_kernels(z, t)
        scale = max(1.0, c * c + abs(z) * s * s)
        assert abs(c * c + z * s * s - 1.0) / scale <= 1e-12


class TestNormKernels:
    """The kernel integrals of ``tests/oracles.py``, the reference that
    constant-piece weighted norms are checked against."""

    @given(st.floats(min_value=-200.0, max_value=200.0),
           st.floats(min_value=0.05, max_value=2.0))
    def test_match_quadrature(self, z, t):
        icc, ics, iss = kernel_integrals(z, t)
        xs = np.linspace(0.0, t, 4001)
        cs = np.array([cs_kernels(z, x) for x in xs])
        h = t / (len(xs) - 1)

        def simpson(vals):
            return h / 3.0 * (vals[0] + vals[-1]
                              + 4.0 * vals[1:-1:2].sum()
                              + 2.0 * vals[2:-1:2].sum())

        assert icc == pytest.approx(simpson(cs[:, 0] ** 2), rel=1e-8, abs=1e-9)
        assert ics == pytest.approx(simpson(cs[:, 0] * cs[:, 1]),
                                    rel=1e-8, abs=1e-9)
        assert iss == pytest.approx(simpson(cs[:, 1] ** 2), rel=1e-8, abs=1e-9)

    def test_series_branch_continuity(self):
        # Iss switches to its series below |z (2t)^2| = 1
        t = 0.5
        for z in (0.9, 1.1, -0.9, -1.1):
            iss = kernel_integrals(z, t)[2]
            k = cmath.sqrt(complex(z))
            s2t = complex(cmath.sin(2 * k * t) / k).real
            ref = (t - s2t / 2.0) / (2.0 * z)
            assert iss == pytest.approx(ref, rel=1e-13)


class TestKernelDerivative:
    @staticmethod
    def _series(z, t):
        # dS/dz = sum_{j>=1} j (-1)^j z^(j-1) t^(2j+1) / (2j+1)!, to 30 terms
        return sum(j * (-1) ** j * z ** (j - 1) * t ** (2 * j + 1)
                   / math.factorial(2 * j + 1) for j in range(1, 31))

    def test_both_sides_of_the_series_cutoff(self):
        for t in (0.25, 1.0, 2.5):
            for u in (0.0999, 0.1001, -0.0999, -0.1001, 0.5, -0.5, 1e-9, 0.0):
                z = u / (t * t)
                c, s = cs_kernels(z, t)
                assert _ds_dz(c, s, z, t) == pytest.approx(
                    self._series(z, t), rel=1e-13)

    def test_magnus_step_length_multiplies_exactly(self):
        # t = 1.0 must leave the step's arithmetic untouched, bit for bit
        for z in (0.05, -0.05, 0.3, -7.0, 40.0):
            c, s = cs_kernels(z, 1.0)
            series = -(1.0 - (z / 10.0) * (1.0 - (z / 28.0) * (1.0 - (
                z / 54.0) * (1.0 - (z / 88.0) * (1.0 - z / 130.0))))) / 6.0
            want = series if abs(z) < 0.1 else (c - s) / (2.0 * z)
            assert _ds_dz(c, s, z, 1.0) == want


# --------------------------------------------------------------------------
# Transfer matrices
# --------------------------------------------------------------------------

class TestTransfer:
    def test_composition_requires_adjacency(self):
        t1 = transfer_across(Piece(0.0, 1.0, 1.0, 4.0), 0.0)
        t2 = transfer_across(Piece(1.0, 2.0, 1.0, -3.0), 0.0)
        combined = t2 @ t1
        assert (combined.x0, combined.x1) == (0.0, 2.0)
        with pytest.raises(InvalidProblemError):
            _ = t1 @ t2

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=0.01, max_value=3.0))
    def test_unit_wronskian(self, k2, length):
        m = transfer_across(Piece(0.0, length, 1.0, k2), 0.0)
        assert rel_det_defect(m) <= 1e-10

    @given(st.floats(min_value=-30.0, max_value=80.0))
    def test_constant_piece_matches_ivp_oracle(self, lam):
        spec = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, -2.0, 3.0),)))
        term, _ = propagate(spec, lam)
        y_ref, yp_ref = ivp_states(spec, lam)
        scale = max(1.0, abs(y_ref), abs(yp_ref))
        assert abs(term.y - y_ref) / scale < 1e-8
        assert abs(term.yp - yp_ref) / scale < 1e-8

    @given(st.floats(min_value=-30.0, max_value=60.0))
    def test_sampled_piece_matches_ivp_oracle(self, lam):
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, 1.5, ((0.0, -2.0), (0.4, 1.0), (1.0, 3.0))),)))
        term, _ = propagate(spec, lam)
        y_ref, yp_ref = ivp_states(spec, lam)
        scale = max(1.0, abs(y_ref), abs(yp_ref))
        assert abs(term.y - y_ref) / scale < 1e-8
        assert abs(term.yp - yp_ref) / scale < 1e-8

    def test_closed_form_agrees_with_adaptive_route(self):
        # same physical coefficients, once as a constant (closed form) and
        # once as a two-node table (Magnus route)
        for lam in (-17.3, 0.0, 4.2, 61.7):
            const_piece = Piece(0.0, 0.9, -1.3, 2.5)
            table_piece = Piece(0.0, 0.9, -1.3, ((0.0, 2.5), (0.9, 2.5)))
            mc = transfer_across(const_piece, lam, 0.0, 0.9)
            mt = transfer_across(table_piece, lam, 0.0, 0.9)
            for attr in ("m11", "m12", "m21", "m22"):
                assert getattr(mc, attr) == pytest.approx(
                    getattr(mt, attr), rel=1e-8, abs=1e-8)


# --------------------------------------------------------------------------
# Whole-problem propagation
# --------------------------------------------------------------------------

class TestPropagation:
    def test_initial_state_encodes_alpha(self):
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),))
        s = initial_state(ProblemSpec(coeff))
        assert (s.y, s.yp) == (0.0, 1.0)          # Dirichlet start
        s = initial_state(ProblemSpec(coeff, alpha=math.pi / 4))
        assert s.y == pytest.approx(s.yp)

    def test_breakpoint_states_chain(self, app_spec):
        states = solution_at(app_spec, 7.0, app_spec.coeff.breakpoints)
        assert len(states) == len(app_spec.pieces) + 1
        assert states[0].x == app_spec.a
        assert states[-1].x == app_spec.b
        term, total = propagate(app_spec, 7.0)
        assert term.y == states[-1].y and term.yp == states[-1].yp
        assert rel_det_defect(total) <= 1e-10

    def test_solution_at_matches_dense_oracle(self, one_tp_m10):
        lam = 20.0
        xs = [-0.9, -0.3, 0.0, 0.2, 0.77, 1.0]
        states = solution_at(one_tp_m10, lam, xs)
        _, ox, oy = ivp_states(one_tp_m10, lam, xs_per_piece=2001)
        for x, state in zip(xs, states):
            assert state.x == x
            ref = float(np.interp(x, ox, oy))
            assert state.y == pytest.approx(ref, abs=5e-9)

    def test_propagate_composes_drawn_breakpoints(self):
        # x0 + (x1 - x0) can miss x1 by an ulp, so a transfer stamped that
        # way fails to compose with the next piece's
        rng = random.Random(2)
        for _ in range(100):
            xs = [-1.0, *sorted(rng.uniform(-1.0, 2.0) for _ in range(3)), 2.0]
            spec = ProblemSpec(PiecewiseCoefficient(tuple(
                Piece(x0, x1, rng.choice((-1.0, 1.0)), rng.uniform(-10.0, 10.0))
                for x0, x1 in zip(xs, xs[1:]))))
            term, total = propagate(spec, 5.0)
            assert (total.x0, total.x1, term.x) == (-1.0, 2.0, 2.0)
            (end,) = solution_at(spec, 5.0, [2.0])
            assert (term.y, term.yp) == (end.y, end.yp)

    def test_constant_norm_shares_the_stretch_kernel(self, monkeypatch,
                                                     one_tp_m10):
        # per constant piece: (C, S)(z, L) from the stretch, which also
        # gives the lambda-derivative the norm is integrated from
        calls = []

        def counted(z, t):
            calls.append((z, t))
            return cs_kernels(z, t)

        monkeypatch.setattr(propagator, "cs_kernels", counted)
        propagator.weighted_norm(one_tp_m10, 17.0)
        assert len(calls) == len(one_tp_m10.pieces) == 2

    def test_solution_at_crosses_only_the_pieces_it_needs(self, monkeypatch,
                                                          app_spec):
        calls = []

        def counted(piece, lam, *rest):
            calls.append(piece)
            return transfer_across(piece, lam, *rest)

        monkeypatch.setattr(propagator, "transfer_across", counted)
        for x, want in ((app_spec.a, 1), (app_spec.b, len(app_spec.pieces))):
            calls.clear()
            solution_at(app_spec, 3.0, [x])
            assert len(calls) == want

    def test_solution_at_preserves_order_and_rejects_outside(self, app_spec):
        xs = [2.0, -1.0, 0.5]
        states = solution_at(app_spec, 3.0, xs)
        assert [s.x for s in states] == xs        # caller order kept
        assert states[1].y == 0.0                 # Dirichlet end at a
        with pytest.raises(InvalidProblemError):
            solution_at(app_spec, 3.0, [-2.0])


# --------------------------------------------------------------------------
# Magnus steps on tabulated potentials
# --------------------------------------------------------------------------

class TestMagnus:
    # one linear table segment with a steep slope: the Magnus error is
    # all truncation, with nothing for a flat segment to make exact
    PIECE = Piece(0.0, 1.0, 1.0, ((0.0, -20.0), (1.0, 40.0)))

    @staticmethod
    def _error(spec, lam):
        term, _ = propagate(spec, lam)
        y_ref, yp_ref = ivp_states(spec, lam)
        scale = max(1.0, abs(y_ref), abs(yp_ref))
        return max(abs(term.y - y_ref), abs(term.yp - yp_ref)) / scale

    def test_fourth_order_convergence(self, monkeypatch):
        spec = ProblemSpec(PiecewiseCoefficient((self.PIECE,)))
        errors = []
        for n in (8, 16, 32, 64):
            monkeypatch.setattr(propagator, "_MAGNUS_STEPS_PER_UNIT", n)
            errors.append(self._error(spec, 17.0))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_error_does_not_grow_with_lambda(self):
        spec = ProblemSpec(PiecewiseCoefficient((self.PIECE,)))
        errors = {lam: self._error(spec, lam)
                  for lam in (17.0, 1e3, 1e4, -500.0)}
        assert max(errors.values()) <= 1e-8
        assert errors[1e4] <= 10.0 * max(errors[17.0], 1e-10)

    @given(st.floats(min_value=-500.0, max_value=1e4))
    def test_unit_determinant(self, lam):
        piece = Piece(0.0, 1.0, -1.3, ((0.0, 4.0), (0.35, -9.0), (1.0, 25.0)))
        m = transfer_across(piece, lam)
        assert rel_det_defect(m) <= 1e-12

    def test_flat_segment_is_one_exact_step(self, monkeypatch):
        # a single step must match the closed form even with a step count
        # far too small for a sloped segment
        monkeypatch.setattr(propagator, "_MAGNUS_STEPS_PER_UNIT", 1)
        for lam in (-40.0, 3.0, 900.0):
            mc = transfer_across(Piece(0.0, 0.8, 1.7, -2.0), lam)
            mt = transfer_across(
                Piece(0.0, 0.8, 1.7, ((0.0, -2.0), (0.8, -2.0))), lam)
            for attr in ("m11", "m12", "m21", "m22"):
                assert getattr(mt, attr) == pytest.approx(
                    getattr(mc, attr), rel=1e-12, abs=1e-12)
