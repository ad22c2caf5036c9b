"""Transfer-matrix propagation of ``y'' + (lambda*w + q) y = 0``.

On a piece where ``k2 = lambda*w + q`` is constant, the solution advances by
the entire-function kernels

    C(z, t) = cos(sqrt(z) t),    S(z, t) = sin(sqrt(z) t) / sqrt(z),

evaluated with ``z = k2``.  Both are entire in ``z`` (real formulas for real
``z`` of either sign, power series near ``z * t^2 = 0``), so propagation is
analytic in the spectral parameter and works unchanged for complex ``lambda``.

Pieces with tabulated potentials are crossed by fixed fourth-order Magnus
steps, with step boundaries at the table nodes.  The potential is linear
between nodes, so each step is the exponential of a traceless 2x2 matrix and
comes from the same kernels: it has unit determinant, it is exact where the
potential is flat, and its error falls as ``h^4`` without growing with
``|lambda|`` (Iserles, BIT 2002).

:func:`stretches` is the one place that knows how a piece is crossed: a
constant piece is one stretch, a tabulated piece its Magnus steps, each a
flow ``C(z, tau) I + S(z, tau) Omega``.  Zero counts, weighted norms and
transfer matrices are folds over it; only ``characteristic_scaled``, the
hottest loop, crosses constant pieces with the same arithmetic inline.
Every stretch carries the lambda-derivative of ``(y, y')`` in closed form,
and one fold, :func:`_lambda_fold`, serves every use of it: the weighted
norm by the Lagrange identity, Newton's exact ``D'`` and the zero drift.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .coefficients import Piece, ProblemSpec
from .errors import (InvalidProblemError, NumericalFailure, lambda_entry,
                     overflow_failure)

__all__ = [
    "StateVector",
    "TransferMatrix",
    "cs_kernels",
    "propagate",
    "solution_at",
    "stretches",
    "initial_state",
    "weighted_norm",
    "weighted_partial",
]

Scalar = complex | float

_SERIES_CUTOFF = 1e-4

# Largest phase sqrt(z)*t the trig kernels accept.  Rounding puts an error
# of about eps*kt on the phase, so past ~1e15 it has no correct digits left.
_PHASE_LIMIT = 1e15


def _phase_failure(kt: Scalar) -> NumericalFailure:
    return NumericalFailure(
        f"the phase {kt!r} of the solution exceeds {_PHASE_LIMIT:g}: double "
        f"precision leaves it no correct digits")


def cs_kernels(z: Scalar, t: float) -> tuple[Scalar, Scalar]:
    """Return ``(C, S) = (cos(sqrt(z) t), sin(sqrt(z) t)/sqrt(z))``.

    Real input stays on the real fast path (trig for ``z > 0``, hyperbolic
    for ``z < 0``); small ``|z| t^2`` uses the power series shared by both
    branches, which keeps the kernels smooth through ``z = 0``.  A phase
    past ``_PHASE_LIMIT`` raises :class:`NumericalFailure`.
    """
    u = z * t * t
    if abs(u) < _SERIES_CUTOFF:
        c = 1.0 - (u / 2.0) * (1.0 - (u / 12.0) * (1.0 - u / 30.0))
        s = t * (1.0 - (u / 6.0) * (1.0 - (u / 20.0) * (1.0 - u / 42.0)))
        return c, s
    if isinstance(z, complex):
        k = cmath.sqrt(z)
        kt = k * t
        if abs(kt.real) > _PHASE_LIMIT:
            raise _phase_failure(kt)
        return cmath.cos(kt), cmath.sin(kt) / k
    if z > 0.0:
        k = math.sqrt(z)
        kt = k * t
        if kt > _PHASE_LIMIT:
            raise _phase_failure(kt)
        return math.cos(kt), math.sin(kt) / k
    kappa = math.sqrt(-z)
    kt = kappa * t
    return math.cosh(kt), math.sinh(kt) / kappa


@dataclass(frozen=True)
class StateVector:
    """Solution value and derivative at a point."""

    x: float
    y: Scalar
    yp: Scalar


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 matrix carrying ``(y, y')`` from ``x0`` to ``x1``.

    Columns are the fundamental solutions with ``(y, y') = (1, 0)`` and
    ``(0, 1)`` at ``x0``.  The Wronskian determinant is identically 1 for the
    exact flow; :attr:`det` exposes the computed value as a health check.
    """

    m11: Scalar
    m12: Scalar
    m21: Scalar
    m22: Scalar
    x0: float
    x1: float

    @property
    def det(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, y: Scalar, yp: Scalar) -> tuple[Scalar, Scalar]:
        return (self.m11 * y + self.m12 * yp, self.m21 * y + self.m22 * yp)

    def apply_state(self, state: StateVector) -> StateVector:
        y, yp = self.apply(state.y, state.yp)
        return StateVector(self.x1, y, yp)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        """Composition ``self @ other``: first cross ``other``, then ``self``."""
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        if other.x1 != self.x0:
            raise InvalidProblemError(
                f"cannot compose transfer over [{other.x0!r}, {other.x1!r}] "
                f"with transfer over [{self.x0!r}, {self.x1!r}]")
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            other.x0, self.x1)


# ---------------------------------------------------------------------------
# Stretches: the one way a piece is crossed
# ---------------------------------------------------------------------------

# Steps per unit length on table segments where q has a slope.  A flat
# segment is crossed exactly in one step.  The count does not depend on
# lambda: the Magnus error does not grow with it.
_MAGNUS_STEPS_PER_UNIT = 512


def stretches(piece: Piece, lam: Scalar, x_from: float, x_to: float):
    """The constant-coefficient stretches crossing ``[x_from, x_to]`` inside
    ``piece``, in order, each ``(e11, e12, e21, e22, c, s, h, k2, d, z, x,
    length)``.  With ``Omega = [[d, h], [-h*k2, -d]]``, ``Omega^2 = -z I``,
    the solution at ``x + h*tau``, ``tau`` in ``[0, length]``, is

        y = C(z, tau) y0 + S(z, tau) (d y0 + h y0'),

    ``(c, s) = (C(z, length), S(z, length))`` and ``e = c I + s Omega``
    carries the start state to the end.  A constant piece is one stretch,
    ``h = 1``, ``d = 0``, ``z = k2``, in a one-element tuple; a tabulated
    piece is its :func:`_magnus_steps`.
    """
    const = piece.constant
    if const is None:
        return _magnus_steps(piece, lam, x_from, x_to)
    w, q, _, _ = const
    k2 = lam * w + q
    length = x_to - x_from
    c, s = cs_kernels(k2, length)
    return ((c, s, -k2 * s, c, c, s, 1.0, k2, 0.0, k2, x_from, length),)


def _magnus_steps(piece: Piece, lam: Scalar, x_from: float, x_to: float):
    """Magnus-4 steps across ``[x_from, x_to]`` inside a tabulated piece.

    ``q`` is linear between table nodes, so on a step of length ``h`` with
    midpoint value ``k2 = lam*w + q(mid)`` and slope ``q'`` the fourth-order
    Magnus exponent is exactly ``Omega = [[d, h], [-h*k2, -d]]`` with
    ``d = h^3 q'/12``.  ``Omega^2 = -z I`` with ``z = h^2 k2 - d^2``, so

        exp(Omega) = C(z, 1) I + S(z, 1) Omega,

    which has determinant 1 and is exact where ``q`` is constant.  Yields
    every step as a stretch of :func:`stretches` with ``length = 1``.

    ``cs_kernels`` bounds the phase of one step only, so the phase bound
    ``span * sqrt(max |k2|)`` is summed over the segments as well: past
    ``_PHASE_LIMIT`` the walk raises :class:`NumericalFailure`.
    """
    lw = lam * piece.w
    stops = [(x_from, piece.q_at(x_from))]
    stops.extend(node for node in piece.q  # type: ignore[union-attr]
                 if x_from < node[0] < x_to)
    stops.append((x_to, piece.q_at(x_to)))
    phase = 0.0
    for (xa, qa), (xb, qb) in zip(stops, stops[1:]):
        span = xb - xa
        if span <= 0.0:
            continue
        k2a = lw + qa
        phase += span * math.sqrt(max(abs(k2a), abs(lw + qb)))
        if phase > _PHASE_LIMIT:
            raise _phase_failure(phase)
        slope = (qb - qa) / span
        n = 1 if slope == 0.0 else math.ceil(_MAGNUS_STEPS_PER_UNIT * span)
        h = span / n
        d = h * h * h * slope / 12.0
        for j in range(n):
            k2 = k2a + slope * ((j + 0.5) * h)
            z = h * h * k2 - d * d
            c, s = cs_kernels(z, 1.0)
            yield (c + s * d, s * h, -s * h * k2, c - s * d, c, s, h, k2, d,
                   z, xa + j * h, 1.0)


def transfer_across(piece: Piece, lam: Scalar,
                    x_from: float | None = None,
                    x_to: float | None = None) -> TransferMatrix:
    """Transfer matrix across (part of) one piece at spectral value ``lam``:
    the product of its stretches from the first (a constant piece's is its
    stretch's exactly), stamped with the exact ends so adjacent ones compose."""
    x_from = piece.x0 if x_from is None else x_from
    x_to = piece.x1 if x_to is None else x_to
    if not (piece.x0 <= x_from <= x_to <= piece.x1):
        raise InvalidProblemError(
            f"[{x_from!r}, {x_to!r}] is not inside piece "
            f"[{piece.x0!r}, {piece.x1!r}]")
    stream = iter(stretches(piece, lam, x_from, x_to))
    m11, m12, m21, m22 = next(stream, (1.0, 0.0, 0.0, 1.0))[:4]
    for e11, e12, e21, e22, _, _, _, _, _, _, _, _ in stream:
        m11, m12, m21, m22 = (e11 * m11 + e12 * m21, e11 * m12 + e12 * m22,
                              e21 * m11 + e22 * m21, e21 * m12 + e22 * m22)
    return TransferMatrix(m11, m12, m21, m22, x_from, x_to)


def initial_state(spec: ProblemSpec) -> StateVector:
    """Left initial data ``(y, y') = (sin(alpha), cos(alpha))`` at ``x = a``,
    which satisfies the boundary condition at ``a`` for every ``lambda``."""
    return StateVector(spec.a, math.sin(spec.alpha), math.cos(spec.alpha))


@lambda_entry
def propagate(spec: ProblemSpec, lam: Scalar) -> tuple[StateVector, TransferMatrix]:
    """Cross the whole interval: terminal state at ``b`` and the total
    transfer matrix over ``[a, b]``."""
    pieces = iter(spec.pieces)
    total = transfer_across(next(pieces), lam)
    for piece in pieces:
        total = transfer_across(piece, lam) @ total
    state = total.apply_state(initial_state(spec))
    if not (abs(state.y) + abs(state.yp) < math.inf):
        raise overflow_failure(lam)
    return state, total


def solution_at(spec: ProblemSpec, lam: Scalar,
                xs: Sequence[float]) -> list[StateVector]:
    """Solution states at the requested locations (any order, must lie in
    ``[a, b]``).  Each point is carried from the state at the start of the
    piece that governs it, by the right-limit rule of
    :meth:`PiecewiseCoefficient.piece_at`.  The start state is carried only
    as far as the last piece a point needs."""
    located = [(x, spec.coeff.piece_at(x)) for x in xs]
    last = max((piece.x0 for _, piece in located), default=spec.a)
    starts = {}
    y, yp = math.sin(spec.alpha), math.cos(spec.alpha)
    for piece in spec.pieces:
        starts[piece.x0] = y, yp
        if piece.x0 == last:
            break
        y, yp = transfer_across(piece, lam).apply(y, yp)
    return [StateVector(x, *transfer_across(piece, lam, piece.x0, x).apply(
        *starts[piece.x0])) for x, piece in located]


def states_on_grid(piece: Piece, lam: Scalar, start: StateVector,
                   n: int) -> list[StateVector]:
    """States at ``n + 1`` equally spaced points across one piece, starting
    from ``start`` at ``piece.x0``.  ``certificates.disconjugate_on`` reads
    the sign of the solution on this grid."""
    if n < 1:
        raise InvalidProblemError("grid needs at least one interval")
    out = [StateVector(piece.x0, start.y, start.yp)]
    for j in range(1, n + 1):
        xj = piece.x0 + piece.length * (j / n) if j < n else piece.x1
        prev = out[-1]
        out.append(StateVector(xj, *transfer_across(
            piece, lam, prev.x, xj).apply(prev.y, prev.yp)))
    return out


# ---------------------------------------------------------------------------
# Weighted norms
# ---------------------------------------------------------------------------

def _require_real(lam: complex | float, what: str) -> float:
    if isinstance(lam, complex):
        if lam.imag != 0.0:
            raise InvalidProblemError(f"{what} requires a real lambda")
        return lam.real
    return float(lam)


def _ds_dz(c: Scalar, s: Scalar, z: Scalar, t: float) -> Scalar:
    """``dS(z, t)/dz = (t C - S) / (2 z)``, by its power series in
    ``u = z t^2`` near 0."""
    u = z * t * t
    if abs(u) < 0.1:
        return -t * t * t * (1.0 - (u / 10.0) * (1.0 - (u / 28.0) * (
            1.0 - (u / 54.0) * (1.0 - (u / 88.0) * (1.0 - u / 130.0))))) / 6.0
    return (c * t - s) / (2.0 * z)


@lambda_entry
def weighted_norm(spec: ProblemSpec, lam: complex | float) -> float:
    """``int_a^b w(x) y(x, lambda)^2 dx`` for the left solution at real
    ``lambda``, by :func:`weighted_partial`."""
    return weighted_partial(spec, _require_real(lam, "weighted_norm"), spec.b)


@lambda_entry
def weighted_partial(spec: ProblemSpec, lam: float, x_hi: float) -> float:
    """``int_a^{x_hi} w y^2 dx`` for the left solution at real ``lambda``,
    the norm of :func:`_lambda_fold`."""
    lam = _require_real(lam, "weighted_partial")
    if not (spec.a <= x_hi <= spec.b):
        raise InvalidProblemError(
            f"x_hi={x_hi!r} outside the interval [{spec.a!r}, {spec.b!r}]")
    total = _lambda_fold(spec, lam, x_hi)[4]
    if not (abs(total) < math.inf):
        raise overflow_failure(lam)
    return total


@lambda_entry
def _lambda_fold(spec: ProblemSpec, lam: Scalar, x_hi: float
                 ) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar, float]:
    """``(y, y', dy/dlambda, dy'/dlambda, int_a^{x_hi} w y^2, scale)`` of
    the left solution at ``x_hi``, real or complex ``lambda``: one fold over
    :func:`stretches`.  Every stretch carries the lambda-derivative ``(u, u')``
    from ``(0, 0)`` at its piece's start; the Lagrange identity
    ``(y' u - y u')' = w y^2`` integrates each piece at its end, where the
    derivative from ``a``, moved through the stretches by their flows ``e``,
    takes in ``(u, u')``.  ``scale`` is :func:`characteristic_scaled`'s."""
    y, yp = math.sin(spec.alpha), math.cos(spec.alpha)
    scale = max(1.0, abs(y) + abs(yp))
    gu, gup = 0.0, 0.0
    total = 0.0
    for piece in spec.pieces:
        if piece.x0 >= x_hi:
            break
        w = piece.w
        u, up = 0.0, 0.0
        for e11, e12, e21, e22, c, s, h, k2, d, z, _, length in stretches(
                piece, lam, piece.x0, min(piece.x1, x_hi)):
            # the stretch's derivative: dC/dz = -length S/2, dz/dlambda = h^2 w
            dz = h * h * w
            dc = -0.5 * length * s * dz
            ds = _ds_dz(c, s, z, length) * dz
            u, up = (e11 * u + e12 * up + (dc + ds * d) * y + ds * h * yp,
                     e21 * u + e22 * up - (ds * k2 + s * w) * h * y
                     + (dc - ds * d) * yp)
            gu, gup = e11 * gu + e12 * gup, e21 * gu + e22 * gup
            y, yp = e11 * y + e12 * yp, e21 * y + e22 * yp
        total += yp * u - y * up
        gu, gup = gu + u, gup + up
        scale = max(scale, abs(y) + abs(yp))
    return y, yp, gu, gup, total, scale
