"""Oscillator kernels, stretches, propagation, and the Magnus steps."""

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slindef import (
    InvalidProblemError,
    NumericalFailure,
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    characteristic,
    cs_kernels,
    solution_at,
)
from slindef import propagator
from slindef.propagator import _ds_dz, stretches

from oracles import ivp_states, kernel_integrals


def one_piece(piece) -> ProblemSpec:
    return ProblemSpec(PiecewiseCoefficient((piece,)))


def terminal(spec, lam):
    """The solution's state at ``b``."""
    (state,) = solution_at(spec, lam, [spec.b])
    return state


def fundamental_pair(spec, lam, x):
    """The states at ``x`` of the fundamental solutions: ``alpha = pi/2``
    and ``alpha = 0`` launch ``(1, 0)`` and ``(0, 1)`` at ``a``."""
    (u,) = solution_at(ProblemSpec(spec.coeff, math.pi / 2, spec.beta), lam, [x])
    (v,) = solution_at(ProblemSpec(spec.coeff, 0.0, spec.beta), lam, [x])
    return u, v


def rel_det_defect(e11, e12, e21, e22) -> float:
    det = e11 * e22 - e12 * e21
    scale = max(1.0, abs(e11 * e22) + abs(e12 * e21))
    return abs(det - 1.0) / scale


def wronskian_defect(spec, lam, x) -> float:
    """Relative defect of the fundamental pair's Wronskian at ``x``,
    which is 1 for the exact flow."""
    u, v = fundamental_pair(spec, lam, x)
    return rel_det_defect(u.y, v.y, u.yp, v.yp)


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
# Stretches and the transfer across a piece
# --------------------------------------------------------------------------

@st.composite
def pieces(draw):
    """One piece of either weight sign, with a constant or a 2-4-node
    tabulated potential."""
    length = draw(st.floats(min_value=0.05, max_value=1.0))
    w = draw(st.sampled_from((-1.0, 1.0))) * draw(
        st.floats(min_value=0.2, max_value=3.0))
    qs = draw(st.lists(st.floats(min_value=-50.0, max_value=50.0),
                       min_size=1, max_size=4))
    if len(qs) == 1:
        return Piece(0.0, length, w, qs[0])
    nodes = [length * j / (len(qs) - 1) for j in range(len(qs))]
    nodes[-1] = length
    return Piece(0.0, length, w, tuple(zip(nodes, qs)))


class TestStretches:
    @given(pieces(), st.floats(min_value=-1e4, max_value=1e4),
           st.one_of(st.just(0.0), st.floats(min_value=-300.0,
                                              max_value=300.0)),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_every_flow_has_unit_determinant(self, piece, lam, im, f0, f1):
        # the flow exp(t Omega) of a traceless Omega: the Wronskian at its
        # source, for a constant piece's one stretch and every Magnus step
        x_from, x_to = sorted((f0 * piece.x1, f1 * piece.x1))
        for z in (lam, complex(lam, im)):
            for e11, e12, e21, e22, *_ in stretches(piece, z, x_from, x_to):
                assert rel_det_defect(e11, e12, e21, e22) <= 1e-12


class TestTransfer:
    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=0.01, max_value=3.0))
    def test_unit_wronskian(self, k2, length):
        spec = one_piece(Piece(0.0, length, 1.0, k2))
        assert wronskian_defect(spec, 0.0, spec.b) <= 1e-10

    @given(st.floats(min_value=-30.0, max_value=80.0))
    def test_constant_piece_matches_ivp_oracle(self, lam):
        spec = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, -2.0, 3.0),)))
        term = terminal(spec, lam)
        y_ref, yp_ref = ivp_states(spec, lam)
        scale = max(1.0, abs(y_ref), abs(yp_ref))
        assert abs(term.y - y_ref) / scale < 1e-8
        assert abs(term.yp - yp_ref) / scale < 1e-8

    @given(st.floats(min_value=-30.0, max_value=60.0))
    def test_sampled_piece_matches_ivp_oracle(self, lam):
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, 1.5, ((0.0, -2.0), (0.4, 1.0), (1.0, 3.0))),)))
        term = terminal(spec, lam)
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
            for const, table in zip(
                    fundamental_pair(one_piece(const_piece), lam, 0.9),
                    fundamental_pair(one_piece(table_piece), lam, 0.9)):
                assert const.y == pytest.approx(table.y, rel=1e-8, abs=1e-8)
                assert const.yp == pytest.approx(table.yp, rel=1e-8,
                                                 abs=1e-8)


# --------------------------------------------------------------------------
# Whole-problem propagation
# --------------------------------------------------------------------------

class TestPropagation:
    def test_initial_state_encodes_alpha(self):
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),))
        (s,) = solution_at(ProblemSpec(coeff), 3.0, [0.0])
        assert (s.y, s.yp) == (0.0, 1.0)          # Dirichlet start
        (s,) = solution_at(ProblemSpec(coeff, alpha=math.pi / 4), 3.0, [0.0])
        assert s.y == pytest.approx(s.yp)

    def test_breakpoint_states_chain(self, app_spec):
        states = solution_at(app_spec, 7.0, app_spec.coeff.breakpoints)
        assert len(states) == len(app_spec.pieces) + 1
        assert states[0].x == app_spec.a
        assert states[-1].x == app_spec.b
        # each breakpoint's state, carried across its piece, is the next
        for piece, start, end in zip(app_spec.pieces, states, states[1:]):
            assert propagator._carry(piece, 7.0, start.y, start.yp,
                                     piece.x0, piece.x1) == (end.y, end.yp)
        for x in app_spec.coeff.breakpoints:
            assert wronskian_defect(app_spec, 7.0, x) <= 1e-10

    def test_solution_at_matches_dense_oracle(self, one_tp_m10):
        lam = 20.0
        xs = [-0.9, -0.3, 0.0, 0.2, 0.77, 1.0]
        states = solution_at(one_tp_m10, lam, xs)
        _, ox, oy = ivp_states(one_tp_m10, lam, xs_per_piece=2001)
        for x, state in zip(xs, states):
            assert state.x == x
            ref = float(np.interp(x, ox, oy))
            assert state.y == pytest.approx(ref, abs=5e-9)

    def test_solution_at_composes_drawn_breakpoints(self):
        # the state at b is the launch state carried across every drawn
        # piece from its x0 to its x1, bit for bit
        rng = random.Random(2)
        for _ in range(100):
            xs = [-1.0, *sorted(rng.uniform(-1.0, 2.0) for _ in range(3)), 2.0]
            spec = ProblemSpec(PiecewiseCoefficient(tuple(
                Piece(x0, x1, rng.choice((-1.0, 1.0)), rng.uniform(-10.0, 10.0))
                for x0, x1 in zip(xs, xs[1:]))))
            y, yp = 0.0, 1.0
            for piece in spec.pieces:
                y, yp = propagator._carry(piece, 5.0, y, yp, piece.x0,
                                          piece.x1)
            (end,) = solution_at(spec, 5.0, [2.0])
            assert (end.x, end.y, end.yp) == (2.0, y, yp)

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

        def counted(piece, *rest):
            calls.append(piece)
            return stretches(piece, *rest)

        monkeypatch.setattr(propagator, "stretches", counted)
        for x, want in ((app_spec.a, []), (app_spec.b, list(app_spec.pieces))):
            calls.clear()
            solution_at(app_spec, 3.0, [x])
            assert calls == want

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
        term = terminal(spec, lam)
        y_ref, yp_ref = ivp_states(spec, lam)
        scale = max(1.0, abs(y_ref), abs(yp_ref))
        return max(abs(term.y - y_ref), abs(term.yp - yp_ref)) / scale

    def test_sixth_order_convergence(self, monkeypatch):
        # every step count keeps h sqrt(|k2|) below 1, so all steps are of
        # the sixth order: each halving of h cuts the error about 64 times
        spec = ProblemSpec(PiecewiseCoefficient((self.PIECE,)))
        errors = []
        for n in (8, 16, 32, 64):
            monkeypatch.setattr(propagator, "_MAGNUS_STEPS_PER_UNIT", n)
            monkeypatch.setattr(propagator, "_MAGNUS_MIN_STEPS_PER_UNIT", n)
            errors.append(self._error(spec, 17.0))
        for coarse, fine in zip(errors, errors[1:]):
            assert 48.0 <= coarse / fine <= 80.0

    def test_error_does_not_grow_with_lambda(self):
        spec = ProblemSpec(PiecewiseCoefficient((self.PIECE,)))
        errors = {lam: self._error(spec, lam)
                  for lam in (17.0, 1e3, 1e4, -500.0)}
        assert max(errors.values()) <= 1e-8
        assert errors[1e4] <= 10.0 * max(errors[17.0], 1e-10)

    @pytest.mark.parametrize("slope", [6.0, 60.0, 150.0, 600.0])
    def test_error_against_a_converged_reference(self, monkeypatch, slope):
        # the README table's tent shape with the given slope: (y, y')(b)
        # against the same steps taken 4096 to the unit, where they agree
        # with 8192 to 2e-14.  The worst points of the grid, per slope, are
        # 3.4e-13, 3.4e-12, 9.7e-12 and 8.5e-11 (512 fourth-order steps per
        # unit gave 9.4e-13, 1.6e-11, 1.4e-10 and 6.0e-10)
        spec = one_piece(Piece(0.0, 1.0, 1.0, (
            (0.0, 0.0), (0.5, 0.5 * slope), (1.0, 0.0))))
        lams = (17.0, 300.0, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, -1e3, -2e4)
        got = [terminal(spec, lam) for lam in lams]
        monkeypatch.setattr(propagator, "_MAGNUS_STEPS_PER_UNIT", 4096)
        monkeypatch.setattr(propagator, "_MAGNUS_MIN_STEPS_PER_UNIT", 4096)
        for lam, term in zip(lams, got):
            ref = terminal(spec, lam)
            scale = max(1.0, abs(ref.y), abs(ref.yp))
            err = max(abs(term.y - ref.y), abs(term.yp - ref.yp)) / scale
            assert err <= 2e-13 * slope, lam

    @given(st.floats(min_value=-500.0, max_value=1e4))
    def test_unit_determinant(self, lam):
        piece = Piece(0.0, 1.0, -1.3, ((0.0, 4.0), (0.35, -9.0), (1.0, 25.0)))
        assert wronskian_defect(one_piece(piece), lam, 1.0) <= 1e-12

    def test_flat_segment_is_one_exact_step(self, monkeypatch):
        # a single step must match the closed form even with a step count
        # far too small for a sloped segment
        monkeypatch.setattr(propagator, "_MAGNUS_STEPS_PER_UNIT", 1)
        flat = Piece(0.0, 0.8, 1.7, ((0.0, -2.0), (0.8, -2.0)))
        for lam in (-40.0, 3.0, 900.0):
            (const,) = stretches(Piece(0.0, 0.8, 1.7, -2.0), lam, 0.0, 0.8)
            (step,) = stretches(flat, lam, 0.0, 0.8)
            assert step[:4] == pytest.approx(const[:4], rel=1e-12, abs=1e-12)

    # Real lambda steps compute (C, S) inline, complex lambda calls
    # cs_kernels; either way each step must be the flow cs_kernels gives for
    # its own z and h.  A flat table of length h with w = 1 and q = 0 makes
    # z = lambda: the examples sit at u = z h^2 just below and at the series
    # cutoff, at lambda = 0 and -0, and where (z h) h and z (h h) fall on
    # either side of the cutoff (for z < 0 the series and sinh differ in
    # S's last bit there)
    @staticmethod
    def _assert_kernel_steps(piece, lam):
        steps = list(stretches(piece, lam, piece.x0, piece.x1))
        assert steps
        for step in steps:
            *_, k2, d, z, _, h = step
            c, s = cs_kernels(z, h)
            assert step[:6] == (c + s * d, s, -s * k2, c - s * d, c, s)
            assert isinstance(c, complex) == isinstance(lam, complex)

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=0.01, max_value=1.0),
           st.lists(st.floats(min_value=-50.0, max_value=50.0),
                    min_size=2, max_size=4),
           st.sampled_from((-1.3, 1.0, 2.5)))
    @example(lam=math.nextafter(1e-4, 0.0), length=1.0, qs=[0.0, 0.0], w=1.0)
    @example(lam=1e-4, length=1.0, qs=[0.0, 0.0], w=1.0)
    @example(lam=0.009999999999999998, length=0.1, qs=[0.0, 0.0], w=1.0)
    @example(lam=-0.009999999999999998, length=0.1, qs=[0.0, 0.0], w=1.0)
    @example(lam=-2e-5, length=0.7, qs=[0.0, 0.0], w=1.0)
    @example(lam=0.0, length=0.6, qs=[0.0, 0.0], w=1.0)
    @example(lam=-0.0, length=0.6, qs=[-0.0, -0.0], w=1.0)
    def test_real_steps_match_cs_kernels(self, lam, length, qs, w):
        nodes = [length * j / (len(qs) - 1) for j in range(len(qs))]
        nodes[-1] = length
        self._assert_kernel_steps(
            Piece(0.0, length, w, tuple(zip(nodes, qs))), lam)

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=-300.0, max_value=300.0))
    def test_complex_steps_match_cs_kernels(self, real, imag):
        piece = Piece(0.0, 1.0, -1.3, ((0.0, 4.0), (0.35, -9.0), (1.0, 25.0)))
        self._assert_kernel_steps(piece, complex(real, imag))

    @pytest.mark.parametrize("lam", [1e31, -1e31, 1e40, complex(1e40, 1.0)])
    def test_huge_lambda_names_the_summed_phase(self, lam):
        # the walk's bound span sqrt(max |k2|) over the segment fails first;
        # at 1e40 a step's own phase (1/512 of it) is past the limit as well
        piece = Piece(0.0, 1.0, 1.0, ((0.0, -3.0), (1.0, 2.0)))
        phase = math.sqrt(max(abs(lam - 3.0), abs(lam + 2.0)))
        message = (f"the phase {phase!r} of the solution exceeds 1e+15: "
                   f"double precision leaves it no correct digits")
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            list(stretches(piece, lam, 0.0, 1.0))
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            characteristic(one_piece(piece), lam)
