"""Independent numerical oracles for cross-checking the package.

Everything here deliberately avoids the package's own closed-form machinery:
propagation goes through scipy's DOP853 integrator on the raw second-order
ODE, weighted norms through composite Simpson quadrature on a dense sample of
that integrated solution, and zero counts through dense sign tracking.  On
constant-q problems, weighted norms also come from the closed-form integrals
of the kernel products, written here with ``math`` alone.  Tests compare the
package against these routes.  ``perfbench``'s ``pointwise`` check imports
this module too, so it uses nothing of the package but its public problem
model.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from slindef import ProblemSpec

_RTOL = 1e-12
_ATOL = 1e-14


def ivp_states(spec: ProblemSpec, lam: float, xs_per_piece: int = 0):
    """Propagate (y, y') across the interval with DOP853, restarting at every
    piece boundary and interior table node.  Returns the terminal state and,
    when ``xs_per_piece > 0``, dense per-piece samples as (xs, ys) arrays.
    """
    y = math.sin(spec.alpha)
    yp = math.cos(spec.alpha)
    dense_x: list[np.ndarray] = []
    dense_y: list[np.ndarray] = []
    for piece in spec.pieces:
        stops = [piece.x0, piece.x1]
        if not isinstance(piece.q, (int, float)):
            stops = sorted({piece.x0, piece.x1, *(x for x, _ in piece.q)})
        for s0, s1 in zip(stops, stops[1:]):
            def rhs(x, u, piece=piece):
                return [u[1], -(lam * piece.w + piece.q_at(x)) * u[0]]

            t_eval = None
            if xs_per_piece:
                t_eval = np.linspace(s0, s1, xs_per_piece)
            sol = solve_ivp(rhs, (s0, s1), [y, yp], method="DOP853",
                            rtol=_RTOL, atol=_ATOL, t_eval=t_eval,
                            dense_output=False)
            assert sol.success, sol.message
            y, yp = float(sol.y[0, -1]), float(sol.y[1, -1])
            if xs_per_piece:
                dense_x.append(sol.t)
                dense_y.append(sol.y[0])
    if xs_per_piece:
        return (y, yp), np.concatenate(dense_x), np.concatenate(dense_y)
    return (y, yp)


def ivp_characteristic(spec: ProblemSpec, lam: float) -> float:
    """Boundary form y(b) cos(beta) + y'(b) sin(beta) via the IVP oracle."""
    y, yp = ivp_states(spec, lam)
    return y * math.cos(spec.beta) + yp * math.sin(spec.beta)


def simpson_weighted_norm(spec: ProblemSpec, lam: float,
                          n_per_piece: int = 0) -> float:
    """integral of w * y^2 by composite Simpson on a DOP853-integrated dense
    sample.  ``n_per_piece`` defaults to a share of 1e5 points overall."""
    if n_per_piece == 0:
        n_per_piece = max(2001, int(100_000 / len(spec.pieces)) | 1)
    if n_per_piece % 2 == 0:
        n_per_piece += 1
    total = 0.0
    y = math.sin(spec.alpha)
    yp = math.cos(spec.alpha)
    for piece in spec.pieces:
        def rhs(x, u, piece=piece):
            return [u[1], -(lam * piece.w + piece.q_at(x)) * u[0]]

        xs = np.linspace(piece.x0, piece.x1, n_per_piece)
        sol = solve_ivp(rhs, (piece.x0, piece.x1), [y, yp], method="DOP853",
                        rtol=_RTOL, atol=_ATOL, t_eval=xs)
        assert sol.success, sol.message
        vals = piece.w * sol.y[0] ** 2
        h = (piece.x1 - piece.x0) / (n_per_piece - 1)
        total += h / 3.0 * (vals[0] + vals[-1]
                            + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())
        y, yp = float(sol.y[0, -1]), float(sol.y[1, -1])
    return total


def dense_zero_count(spec: ProblemSpec, lam: float,
                     n_per_piece: int = 20_001) -> int:
    """Count sign changes of the solution strictly inside (a, b), excluding a
    small band at each endpoint so boundary zeros are not miscounted."""
    _, xs, ys = ivp_states(spec, lam, xs_per_piece=n_per_piece)
    band = 1e-6 * (spec.b - spec.a)
    keep = (xs > spec.a + band) & (xs < spec.b - band)
    ys = ys[keep]
    signs = np.sign(ys)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def kernels(z: float, t: float) -> tuple[float, float]:
    """``(C, S) = (cos(sqrt(z) t), sin(sqrt(z) t) / sqrt(z))`` at real ``z``;
    their power series in ``u = z t^2`` while ``|u| < 1``."""
    u = z * t * t
    if abs(u) < 1.0:
        c, s, term = 0.0, 0.0, 1.0
        for j in range(20):
            c += term
            s += term / (2 * j + 1)
            term *= -u / ((2 * j + 1) * (2 * j + 2))
        return c, t * s
    if z > 0.0:
        k = math.sqrt(z)
        return math.cos(k * t), math.sin(k * t) / k
    kappa = math.sqrt(-z)
    return math.cosh(kappa * t), math.sinh(kappa * t) / kappa


def kernel_integrals(z: float, t: float) -> tuple[float, float, float]:
    """``(Icc, Ics, Iss)``, the integrals of ``C^2``, ``C S`` and ``S^2``
    over ``[0, t]``: ``t/2 + S(z, 2t)/4``, ``S(z, t)^2 / 2`` and
    ``(t - S(z, 2t)/2) / (2 z)``, the last by its power series where that
    difference would cancel."""
    s2 = kernels(z, 2.0 * t)[1]
    u = z * (2.0 * t) ** 2
    if abs(u) < 1.0:
        # Iss = sum_j (-z)^j (2t)^(2j+3) / (4 (2j+3)!)
        iss, term = 0.0, (2.0 * t) ** 3 / 24.0
        for j in range(20):
            iss += term
            term *= -u / ((2 * j + 4) * (2 * j + 5))
    else:
        iss = (t - 0.5 * s2) / (2.0 * z)
    return 0.5 * t + 0.25 * s2, 0.5 * kernels(z, t)[1] ** 2, iss


def square_integral(z: float, t: float, y: float, yp: float) -> float:
    """``int_0^t (y C + y' S)^2``, the square of the solution from ``(y, y')``.
    Where ``z t^2 <= -1`` it comes from the growing and decaying parts
    ``P e^{kappa s} + M e^{-kappa s}``: the kernel-integral form
    ``y^2 Icc + 2 y y' Ics + y'^2 Iss`` would cancel when ``P`` is small."""
    if z * t * t <= -1.0:
        kappa = math.sqrt(-z)
        p, m = 0.5 * (y + yp / kappa), 0.5 * (y - yp / kappa)
        return (p * p * math.expm1(2.0 * kappa * t) / (2.0 * kappa)
                + 2.0 * p * m * t
                - m * m * math.expm1(-2.0 * kappa * t) / (2.0 * kappa))
    icc, ics, iss = kernel_integrals(z, t)
    return y * y * icc + 2.0 * y * yp * ics + yp * yp * iss


def kernel_weighted_norm(spec: ProblemSpec, lam: float,
                         x_hi: float | None = None) -> tuple[float, float]:
    """``(int w y^2, int |w| y^2)`` over ``[a, x_hi]`` for the left solution
    of a problem whose pieces all have a constant ``q``, by
    :func:`square_integral` on each piece from its start state."""
    x_hi = spec.b if x_hi is None else x_hi
    y, yp = math.sin(spec.alpha), math.cos(spec.alpha)
    signed = absolute = 0.0
    for piece in spec.pieces:
        if piece.x0 >= x_hi:
            break
        assert isinstance(piece.q, float), "constant q only"
        z = lam * piece.w + piece.q
        t = min(piece.x1, x_hi) - piece.x0
        part = square_integral(z, t, y, yp)
        signed += piece.w * part
        absolute += abs(piece.w) * part
        c, s = kernels(z, t)
        y, yp = c * y + s * yp, -z * s * y + c * yp
    return signed, absolute
