"""Independent numerical oracles for cross-checking the package.

Everything here deliberately avoids the package's own closed-form machinery:
propagation goes through scipy's DOP853 integrator on the raw second-order
ODE, weighted norms through composite Simpson quadrature on a dense sample of
that integrated solution, and zero counts through dense sign tracking.  Tests
compare the package against these slower routes.  ``perfbench``'s
``pointwise`` check imports this module too, so it uses nothing of the
package but its public problem model.
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
