"""Transfer-matrix propagation of ``y'' + (lambda*w + q) y = 0``.

On a piece where ``k2 = lambda*w + q`` is constant, the solution advances by
the entire-function kernels

    C(z, t) = cos(sqrt(z) t),    S(z, t) = sin(sqrt(z) t) / sqrt(z),

evaluated with ``z = k2``.  Both are entire in ``z`` (real formulas for real
``z`` of either sign, power series near ``z * t^2 = 0``), so propagation is
analytic in the spectral parameter and works unchanged for complex ``lambda``.
The per-lambda loops (``characteristic_scaled``, ``interior_zeros``,
:func:`weighted_norm`) cross constant pieces with this arithmetic inline, in
the same order of operations as ``TransferMatrix.apply``, so they build no
objects; ``transfer_across`` and ``TransferMatrix`` are the object API, used
for tabulated pieces, sub-intervals and :func:`propagate`.

Pieces with tabulated potentials are crossed by fixed fourth-order Magnus
steps, with step boundaries at the table nodes.  The potential is linear
between nodes, so each step is the exponential of a traceless 2x2 matrix and
comes from the same kernels: it has unit determinant, it is exact where the
potential is flat, and its error falls as ``h^4`` without growing with
``|lambda|`` (Iserles, BIT 2002).  The steps carry their lambda-derivative in
closed form, which gives weighted norms on tabulated pieces through the
Lagrange identity, and within a step the solution is ``exp(tau Omega)``
applied to the step's start state, so its zeros have the closed form of a
constant piece.
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
    "norm_kernels",
    "piece_transfer",
    "propagate",
    "solution_at",
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


def norm_kernels(z: Scalar, t: float) -> tuple[Scalar, Scalar, Scalar]:
    """Integrals of kernel products over ``[0, t]``: ``(Icc, Ics, Iss)`` with

        Icc = int C(z, s)^2 ds,  Ics = int C(z, s) S(z, s) ds,
        Iss = int S(z, s)^2 ds.

    All three are entire in ``z``; ``Iss`` switches to its power series when
    the closed form ``(t - S(z, 2t)/2) / (2 z)`` would cancel.
    """
    _, s2 = cs_kernels(z, 2.0 * t)
    icc = 0.5 * t + 0.25 * s2
    _, s1 = cs_kernels(z, t)
    ics = 0.5 * s1 * s1
    u = z * (2.0 * t) * (2.0 * t)
    if abs(u) < 1e-3:
        # Iss = sum_{j>=0} (-z)^j (2t)^(2j+3) / (4 (2j+3)!); consecutive terms
        # differ by -u / ((2j+2)(2j+3)).
        term = (2.0 * t) ** 3 / 24.0
        iss = term
        for j in range(1, 7):
            term = term * (-u) / ((2 * j + 2) * (2 * j + 3))
            iss = iss + term
    else:
        iss = (t - 0.5 * s2) / (2.0 * z)
    return icc, ics, iss


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


def identity_transfer(x: float) -> TransferMatrix:
    return TransferMatrix(1.0, 0.0, 0.0, 1.0, x, x)


def piece_transfer(k2: Scalar, length: float,
                   x0: float = 0.0) -> TransferMatrix:
    """Transfer matrix across a constant-coefficient stretch of ``length``."""
    if length < 0.0:
        raise InvalidProblemError(f"length must be nonnegative, got {length!r}")
    c, s = cs_kernels(k2, length)
    return TransferMatrix(c, s, -k2 * s, c, x0, x0 + length)


# ---------------------------------------------------------------------------
# Fourth-order Magnus steps for tabulated potentials
# ---------------------------------------------------------------------------

# Steps per unit length on table segments where q has a slope.  A flat
# segment is crossed exactly in one step.  The count does not depend on
# lambda: the Magnus error does not grow with it.
_MAGNUS_STEPS_PER_UNIT = 512


def _magnus_steps(piece: Piece, lam: Scalar, x_from: float, x_to: float):
    """Magnus-4 steps across ``[x_from, x_to]`` inside a tabulated piece.

    ``q`` is linear between table nodes, so on a step of length ``h`` with
    midpoint value ``k2 = lam*w + q(mid)`` and slope ``q'`` the fourth-order
    Magnus exponent is exactly ``Omega = [[d, h], [-h*k2, -d]]`` with
    ``d = h^3 q'/12``.  ``Omega^2 = -z I`` with ``z = h^2 k2 - d^2``, so

        exp(Omega) = C(z, 1) I + S(z, 1) Omega,

    which has determinant 1 and is exact where ``q`` is constant.  Yields
    ``(c, s, h, k2, d, z, x)`` for every step, in order, where ``x`` is the
    step's start.

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
            yield c, s, h, k2, d, z, xa + j * h


def _sampled_transfer(piece: Piece, lam: Scalar, x_from: float,
                      x_to: float) -> TransferMatrix:
    """Transfer across ``[x_from, x_to]`` inside a tabulated piece."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for c, s, h, k2, d, _, _ in _magnus_steps(piece, lam, x_from, x_to):
        e11, e12, e21, e22 = c + s * d, s * h, -s * h * k2, c - s * d
        m11, m12, m21, m22 = (e11 * m11 + e12 * m21, e11 * m12 + e12 * m22,
                              e21 * m11 + e22 * m21, e21 * m12 + e22 * m22)
    return TransferMatrix(m11, m12, m21, m22, x_from, x_to)


def _ds_dz(c: Scalar, s: Scalar, z: Scalar) -> Scalar:
    """``dS(z, 1)/dz = (C - S) / (2 z)``, by its power series near 0."""
    if abs(z) < 0.1:
        return -(1.0 - (z / 10.0) * (1.0 - (z / 28.0) * (1.0 - (z / 54.0) * (
            1.0 - (z / 88.0) * (1.0 - z / 130.0))))) / 6.0
    return (c - s) / (2.0 * z)


def _sampled_weighted(piece: Piece, lam: float, y0: float, yp0: float,
                      x_to: float) -> tuple[float, float, float]:
    """``(int w y^2, y, y')`` over ``[piece.x0, x_to]`` of a tabulated piece,
    from the state ``(y0, yp0)`` at ``piece.x0``.

    Each Magnus step also carries its lambda-derivative in closed form
    (``dC/dz = -S/2``, ``dS/dz = (C - S)/(2z)``, ``dz/dlambda = h^2 w``), so
    ``(u, u') = d(y, y')/dlambda`` travels with the solution from ``(0, 0)``
    at the piece's start.  The Lagrange identity
    ``(y' u - y u')' = w y^2`` then gives the integral at the end.
    """
    w = piece.w
    y, yp, u, up = y0, yp0, 0.0, 0.0
    for c, s, h, k2, d, z, _ in _magnus_steps(piece, lam, piece.x0, x_to):
        e11, e12, e21, e22 = c + s * d, s * h, -s * h * k2, c - s * d
        dz = h * h * w
        dc = -0.5 * s * dz
        ds = _ds_dz(c, s, z) * dz
        u, up = (e11 * u + e12 * up + (dc + ds * d) * y + ds * h * yp,
                 e21 * u + e22 * up - (ds * k2 + s * w) * h * y
                 + (dc - ds * d) * yp)
        y, yp = e11 * y + e12 * yp, e21 * y + e22 * yp
    return yp * u - y * up, y, yp


def transfer_across(piece: Piece, lam: Scalar,
                    x_from: float | None = None,
                    x_to: float | None = None) -> TransferMatrix:
    """Transfer matrix across (part of) one piece at spectral value ``lam``."""
    x_from = piece.x0 if x_from is None else x_from
    x_to = piece.x1 if x_to is None else x_to
    if not (piece.x0 <= x_from <= x_to <= piece.x1):
        raise InvalidProblemError(
            f"[{x_from!r}, {x_to!r}] is not inside piece "
            f"[{piece.x0!r}, {piece.x1!r}]")
    if piece.has_constant_q:
        k2 = lam * piece.w + piece.q  # type: ignore[operator]
        return piece_transfer(k2, x_to - x_from, x_from)
    return _sampled_transfer(piece, lam, x_from, x_to)


def initial_state(spec: ProblemSpec) -> StateVector:
    """Left initial data ``(y, y') = (sin(alpha), cos(alpha))`` at ``x = a``,
    which satisfies the boundary condition at ``a`` for every ``lambda``."""
    return StateVector(spec.a, math.sin(spec.alpha), math.cos(spec.alpha))


@lambda_entry
def propagate(spec: ProblemSpec, lam: Scalar) -> tuple[StateVector, TransferMatrix]:
    """Cross the whole interval: terminal state at ``b`` and the total
    transfer matrix over ``[a, b]``."""
    total = identity_transfer(spec.a)
    for piece in spec.pieces:
        total = transfer_across(piece, lam) @ total
    state = total.apply_state(initial_state(spec))
    if not (abs(state.y) + abs(state.yp) < math.inf):
        raise overflow_failure(lam)
    return state, total


def solution_at(spec: ProblemSpec, lam: Scalar,
                xs: Sequence[float]) -> list[StateVector]:
    """Solution states at the requested locations (any order, must lie in
    ``[a, b]``)."""
    for x in xs:
        if not (spec.a <= x <= spec.b):
            raise InvalidProblemError(
                f"x={x!r} outside the problem interval [{spec.a!r}, {spec.b!r}]")
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    results: list[StateVector | None] = [None] * len(xs)
    state = initial_state(spec)
    idx = 0
    n_pieces = len(spec.pieces)
    for pi, piece in enumerate(spec.pieces):
        last = pi == n_pieces - 1
        while idx < len(order):
            x = xs[order[idx]]
            if x > piece.x1 or (x == piece.x1 and not last):
                break
            t = transfer_across(piece, lam, piece.x0, x)
            moved = t.apply_state(state)
            # echo the caller's coordinate exactly (the transfer endpoint can
            # drift by an ulp through x0 + (x - x0))
            results[order[idx]] = StateVector(x, moved.y, moved.yp)
            idx += 1
        state = transfer_across(piece, lam).apply_state(state)
    if idx != len(order):
        raise NumericalFailure("solution_at failed to place every point")
    return results  # type: ignore[return-value]


def states_on_grid(piece: Piece, lam: Scalar, start: StateVector,
                   n: int) -> list[StateVector]:
    """States at ``n + 1`` equally spaced points across one piece, starting
    from ``start`` at ``piece.x0``.  ``certificates.disconjugate_on`` reads
    the sign of the solution on this grid."""
    if n < 1:
        raise InvalidProblemError("grid needs at least one interval")
    out = [StateVector(piece.x0, start.y, start.yp)]
    y, yp = start.y, start.yp
    length = piece.length
    prev = piece.x0
    for j in range(1, n + 1):
        xj = piece.x0 + length * (j / n) if j < n else piece.x1
        t = transfer_across(piece, lam, prev, xj)
        y, yp = t.apply(y, yp)
        out.append(StateVector(xj, y, yp))
        prev = xj
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


def _piece_weighted(piece: Piece, lam: float, y0: float, yp0: float,
                    x_hi: float) -> tuple[float, float, float]:
    """``(contribution, y_end, yp_end)`` of ``int w y^2`` over the piece,
    clipped to ``[x0, x_hi]``."""
    length = x_hi - piece.x0
    if length <= 0.0:
        return 0.0, y0, yp0
    if piece.has_constant_q:
        z = lam * piece.w + piece.q  # type: ignore[operator]
        icc, ics, iss = norm_kernels(z, length)
        contrib = piece.w * (y0 * y0 * icc + 2.0 * y0 * yp0 * ics
                             + yp0 * yp0 * iss)
        c, s = cs_kernels(z, length)
        return contrib, c * y0 + s * yp0, -z * s * y0 + c * yp0
    return _sampled_weighted(piece, lam, y0, yp0, x_hi)


@lambda_entry
def weighted_norm(spec: ProblemSpec, lam: complex | float) -> float:
    """``int_a^b w(x) y(x, lambda)^2 dx`` for the left solution at real
    ``lambda``.  Constant-potential pieces use closed-form kernel integrals
    (entire in ``lambda``); tabulated pieces use the Lagrange identity on
    the lambda-derivative their Magnus steps carry."""
    return weighted_partial(spec, _require_real(lam, "weighted_norm"), spec.b)


@lambda_entry
def weighted_partial(spec: ProblemSpec, lam: float, x_hi: float) -> float:
    """``int_a^{x_hi} w y^2 dx`` for the left solution."""
    lam = _require_real(lam, "weighted_partial")
    if not (spec.a <= x_hi <= spec.b):
        raise InvalidProblemError(
            f"x_hi={x_hi!r} outside the interval [{spec.a!r}, {spec.b!r}]")
    y, yp = math.sin(spec.alpha), math.cos(spec.alpha)
    total = 0.0
    for piece in spec.pieces:
        if piece.x0 >= x_hi:
            break
        contrib, y, yp = _piece_weighted(piece, lam, y, yp,
                                         min(piece.x1, x_hi))
        total += contrib
    if not (abs(total) < math.inf):
        raise overflow_failure(lam)
    return total
