"""Propagation of ``y'' + (lambda*w + q) y = 0`` across the interval.

On a piece where ``k2 = lambda*w + q`` is constant, the solution advances by
the entire-function kernels

    C(z, t) = cos(sqrt(z) t),    S(z, t) = sin(sqrt(z) t) / sqrt(z),

evaluated with ``z = k2``.  Both are entire in ``z`` (real formulas for real
``z`` of either sign, power series near ``z * t^2 = 0``), so propagation is
analytic in the spectral parameter and works unchanged for complex ``lambda``.

Pieces with tabulated potentials are crossed by sixth-order Magnus steps,
with step boundaries at the table nodes and, on each table segment, as many
steps as keep the phase of one step small (192 to 512 per unit length).
The potential is linear between nodes, so each step is the exponential of
a traceless 2x2 matrix and comes from the same kernels: it has unit
determinant, it is exact where the potential is flat, and its error falls
as ``h^6``.  Where the cap of 512 leaves a step a phase past 1.5, the step
keeps the fourth-order exponent, whose error does not grow with
``|lambda|`` (Iserles, BIT 2002).

:func:`stretches` is the one place that knows how a piece is crossed: a
constant piece is one stretch, a tabulated piece its Magnus steps, each a
flow ``C(z, t) I + S(z, t) Omega``.  Every walk of the interval folds
the state ``(y, y')`` over it by the same update, so ``D``, its derivative,
the zero count, the norm, the zero drift and :func:`solution_at` all read
one computed solution bit for bit: :func:`_carry` crosses a tabulated piece
for ``characteristic_scaled``, polishes the zero walk's zeros and carries
:func:`solution_at`'s states, and both walks, the hottest loops, cross
constant pieces with the same arithmetic inline.  For real ``lambda`` both
walks' constant pieces and the Magnus steps take the real branches of
:func:`cs_kernels` inline too, in its operation order: a call per step made
tabulated walks 10-19 % slower, and a call per constant piece made ``D``
10-13 % slower.
Every stretch carries the lambda-derivative of ``(y, y')`` in closed form,
and one fold, :func:`_lambda_fold`, serves every use of it: the weighted
norm by the Lagrange identity, Newton's exact ``D'`` and the zero drift.
The fundamental solutions are :func:`solution_at` with ``alpha = 0`` and
``alpha = pi/2``.
"""

from __future__ import annotations

import bisect
import cmath
import math
from typing import NamedTuple, Sequence

from .coefficients import (Piece, ProblemSpec, _as_point, _as_sequence,
                           _require_real, lambda_entry)
from .errors import NumericalFailure, overflow_failure

__all__ = [
    "StateVector",
    "cs_kernels",
    "solution_at",
    "stretches",
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


class StateVector(NamedTuple):
    """Solution value and derivative at a point."""

    x: float
    y: Scalar
    yp: Scalar


# ---------------------------------------------------------------------------
# Stretches: the one way a piece is crossed
# ---------------------------------------------------------------------------

# Steps per unit length on table segments where q has a slope: enough for a
# phase sqrt(max |k2|) h of at most _MAGNUS_STEP_PHASE per step, within
# [_MAGNUS_MIN_STEPS_PER_UNIT, _MAGNUS_STEPS_PER_UNIT].  A flat segment is
# crossed exactly in one step.  The floor alone applies up to |k2| of about
# 5 900, so the count does not depend on lambda there; above it the count
# grows with lambda, and D may jump by rounding-level amounts where it moves.
_MAGNUS_STEPS_PER_UNIT = 512
_MAGNUS_MIN_STEPS_PER_UNIT = 192
_MAGNUS_STEP_PHASE = 0.4
# The sixth-order terms grow with k2 h^2, so past this phase per step (where
# the count is at its cap) the steps keep the fourth-order exponent.
_SIXTH_ORDER_PHASE = 1.5


def stretches(piece: Piece, lam: Scalar, x_from: float, x_to: float):
    """The constant-coefficient stretches crossing ``[x_from, x_to]`` inside
    ``piece``, in order, each ``(e11, e12, e21, e22, c, s, dd, k2, d, z, x,
    length)``.  With ``Omega = [[d, 1], [-k2, -d]]``, ``Omega^2 = -z I``,
    the solution at ``x + t``, ``t`` in ``[0, length]``, is

        y = C(z, t) y0 + S(z, t) (d y0 + y0'),

    ``(c, s) = (C(z, length), S(z, length))`` and ``e = c I + s Omega``
    carries the start state to the end; ``dd`` is ``d``'s lambda-derivative.
    A constant piece is one stretch, ``d = dd = 0``, ``z = k2``, in a
    one-element tuple; a tabulated piece is its :func:`_magnus_steps`.
    """
    const = piece.constant
    if const is None:
        return _magnus_steps(piece, lam, x_from, x_to)
    w, q, _, _ = const
    k2 = lam * w + q
    length = x_to - x_from
    c, s = cs_kernels(k2, length)
    return ((c, s, -k2 * s, c, c, s, 0.0, k2, 0.0, k2, x_from, length),)


def _magnus_steps(piece: Piece, lam: Scalar, x_from: float, x_to: float):
    """Magnus-6 steps across ``[x_from, x_to]`` inside a tabulated piece.

    ``q`` is linear between table nodes, so on a step of length ``h`` with
    midpoint value ``k = lam*w + q(mid)`` and slope ``q'`` the sixth-order
    Magnus exponent (the ``alpha_3 = 0`` truncation of Blanes, Casas, Oteo
    and Ros, Phys. Rep. 470, 2009, section 4) is exactly ``h Omega`` with
    ``Omega = [[d, 1], [-k2, -d]]``,

        k2 = k + h^4 q'^2 / 120,    d = h^2 q' / 12 + h^4 q' k / 180.

    ``(h Omega)^2 = -h^2 z I`` with ``z = k2 - d^2``, so

        exp(h Omega) = C(z, h) I + S(z, h) Omega,

    which has determinant 1 and is exact where ``q`` is constant.  Past
    ``_SIXTH_ORDER_PHASE`` per step the fourth-order exponent ``k2 = k``,
    ``d = h^2 q' / 12`` is kept, whose error does not grow with ``|lambda|``
    (Iserles, BIT 42, 2002).  Yields every step as a stretch of
    :func:`stretches` with ``length = h``.

    ``cs_kernels`` bounds the phase of one step only, so the phase bound
    ``span * sqrt(max |k2|)`` is summed over the segments as well: past
    ``_PHASE_LIMIT`` the walk raises :class:`NumericalFailure`.
    """
    w = piece.w
    lw = lam * w
    real = not isinstance(lw, complex)
    stops = piece.q_table(x_from, x_to)
    phase = 0.0
    for (xa, qa), (xb, qb) in zip(stops, stops[1:]):
        span = xb - xa
        if span <= 0.0:
            continue
        k2a = lw + qa
        root = math.sqrt(max(abs(k2a), abs(lw + qb)))
        phase += span * root
        if phase > _PHASE_LIMIT:
            raise _phase_failure(phase)
        slope = (qb - qa) / span
        n = 1 if slope == 0.0 else math.ceil(span * min(
            _MAGNUS_STEPS_PER_UNIT,
            max(_MAGNUS_MIN_STEPS_PER_UNIT, root / _MAGNUS_STEP_PHASE)))
        h = span / n
        h2 = h * h
        d0 = h2 * slope / 12.0
        if h * root <= _SIXTH_ORDER_PHASE:
            dk = h2 * h2 * slope / 180.0
            k_shift = h2 * h2 * slope * slope / 120.0
            dd = dk * w
        else:
            dk = k_shift = dd = 0.0
        for j in range(n):
            k = k2a + slope * ((j + 0.5) * h)
            k2 = k + k_shift
            d = d0 + dk * k
            z = k2 - d * d
            if real:
                # cs_kernels' real branches, bit for bit (same operation
                # order); a call here cost 10-19 % of a tabulated walk
                u = z * h * h
                if abs(u) < _SERIES_CUTOFF:
                    c = 1.0 - (u / 2.0) * (1.0 - (u / 12.0) * (1.0 - u / 30.0))
                    s = h * (1.0 - (u / 6.0) * (1.0 - (u / 20.0)
                                                * (1.0 - u / 42.0)))
                elif z > 0.0:
                    kz = math.sqrt(z)
                    kt = kz * h
                    if kt > _PHASE_LIMIT:
                        raise _phase_failure(kt)
                    c, s = math.cos(kt), math.sin(kt) / kz
                else:
                    kz = math.sqrt(-z)
                    kt = kz * h
                    c, s = math.cosh(kt), math.sinh(kt) / kz
            else:
                c, s = cs_kernels(z, h)
            yield (c + s * d, s, -s * k2, c - s * d, c, s, dd, k2, d, z,
                   xa + j * h, h)


def _carry(piece: Piece, lam: Scalar, y: Scalar, yp: Scalar,
           x_from: float, x_to: float) -> tuple[Scalar, Scalar]:
    """``(y, y')`` carried from ``x_from`` to ``x_to`` inside ``piece`` by
    the state update that :func:`_lambda_fold` and the zero walk apply per
    stretch, so every walk of the interval sees the same computed
    solution."""
    for e11, e12, e21, e22, _, _, _, _, _, _, _, _ in stretches(
            piece, lam, x_from, x_to):
        y, yp = e11 * y + e12 * yp, e21 * y + e22 * yp
    return y, yp


@lambda_entry
def solution_at(spec: ProblemSpec, lam: Scalar,
                xs: Sequence[float]) -> list[StateVector]:
    """Solution states at the requested locations (any order, must lie in
    ``[a, b]``), each the ``(y, y')`` that :func:`_lambda_fold` gives at its
    point, bit for bit: whole pieces are folded once, as far as a point
    needs, and each point is carried from the start of its own piece (the
    first piece whose ``x1`` reaches it).  A state that overflows raises
    :class:`NumericalFailure`."""
    xs = [_as_point(spec, x, "x") for x in _as_sequence(xs, "xs")]
    pieces, ends = spec.pieces, spec.coeff.breakpoints[1:]
    starts = [spec.launch[:2]]  # (y, y') at each piece's start, so far
    states = []
    for x in xs:
        i = bisect.bisect_left(ends, x)
        while len(starts) <= i:
            piece = pieces[len(starts) - 1]
            starts.append(_carry(piece, lam, *starts[-1], piece.x0, piece.x1))
        y, yp = starts[i]
        if x > pieces[i].x0:
            y, yp = _carry(pieces[i], lam, y, yp, pieces[i].x0, x)
        states.append(StateVector(x, y, yp))
    if not all(abs(st.y) + abs(st.yp) < math.inf for st in states):
        raise overflow_failure(lam)
    return states


# ---------------------------------------------------------------------------
# Weighted norms
# ---------------------------------------------------------------------------

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
    x_hi = _as_point(spec, x_hi, "x_hi")
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
    y, yp, scale = spec.launch
    gu, gup = 0.0, 0.0
    total = 0.0
    for piece in spec.pieces:
        if piece.x0 >= x_hi:
            break
        w = piece.w
        u, up = 0.0, 0.0
        for e11, e12, e21, e22, c, s, dd, k2, d, z, _, length in stretches(
                piece, lam, piece.x0, min(piece.x1, x_hi)):
            # the stretch's derivative: dC/dz = -length S/2,
            # dz/dlambda = w - 2 d dd, dOmega/dlambda = [[dd, 0], [-w, -dd]]
            dz = w - 2.0 * d * dd
            dc = -0.5 * length * s * dz
            ds = _ds_dz(c, s, z, length) * dz
            u, up = (e11 * u + e12 * up + (dc + ds * d + s * dd) * y + ds * yp,
                     e21 * u + e22 * up - (ds * k2 + s * w) * y
                     + (dc - ds * d - s * dd) * yp)
            gu, gup = e11 * gu + e12 * gup, e21 * gu + e22 * gup
            y, yp = e11 * y + e12 * yp, e21 * y + e22 * yp
        total += yp * u - y * up
        gu, gup = gu + u, gup + up
        size = abs(y) + abs(yp)
        if size > scale:
            scale = size
    return y, yp, gu, gup, total, scale
