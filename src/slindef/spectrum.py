"""Eigenvalue location: characteristic function, oscillation counts, real
window scans, and complex rectangle searches.

The characteristic function ``D(lambda)`` is entire in ``lambda``; its zeros
are exactly the eigenvalues.  With an indefinite weight the real scan cannot
rely on eigenvalue interlacing, so it combines three independent signals on a
refinable grid: sign changes of ``D``, jumps of the interior-zero count of the
left solution (with Dirichlet data at ``b`` these jump exactly at
eigenvalues), and dips of ``|D|`` that flag nearly coincident or genuinely
double roots.  Complex eigenvalues are counted inside rectangles by the
argument principle, integrating ``D'/D`` along the boundary by adaptive
Gauss-Legendre; boxes are split until each holds one root, which Newton
polishes.  Only the closed upper half-plane is searched: ``D`` has real
coefficients, so ``D(conj z) = conj D(z)`` exactly, and every non-real root
comes with its exact conjugate.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import warnings
from collections import Counter
from typing import Callable, NamedTuple, Sequence

from .coefficients import (ProblemSpec, _as_count, _as_pair, _as_problem,
                           _as_sequence, _as_tol, _json_text, _require_real,
                           lambda_entry)
from .errors import (ContourError, InvalidProblemError, NumericalFailure,
                     overflow_failure)
from .propagator import (_PHASE_LIMIT, _SERIES_CUTOFF, _carry, _lambda_fold,
                         _phase_failure, cs_kernels, stretches)

__all__ = [
    "EigenRecord",
    "ScanResult",
    "characteristic",
    "interior_zeros",
    "count_zeros",
    "find_real_eigenvalues",
    "find_complex_eigenvalues",
    "records_to_csv",
    "scan_to_csv",
    "scan_to_json",
]

_EPS = 2.220446049250313e-16
# Newton's point is a root only when |D| <= _ROOT_RESIDUAL * scale
_ROOT_RESIDUAL = 1e-7
_PI2 = math.pi * math.pi
_OSCILLATING = 1e-2  # the phase sqrt(k2) * length past which zeros go by it


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

@lambda_entry
def characteristic_scaled(spec: ProblemSpec, lam: complex | float
                          ) -> tuple[complex | float, float]:
    """``(D(lambda), scale)`` where ``scale`` tracks the size of the solution
    along the interval.  ``|D| / scale`` is the resolution-aware residual:
    values at or below a few hundred ulps of ``scale`` are numerically zero.
    Real ``lambda`` takes the D-only :func:`_zero_walk`.
    """
    if not isinstance(lam, complex):
        return _zero_walk(spec, lam, False)[1:]
    y, yp, scale = spec.launch
    for piece in spec.pieces:
        const = piece.constant
        if const is None:
            y, yp = _carry(piece, lam, y, yp, piece.x0, piece.x1)
        else:
            w, q, x0, x1 = const
            k2 = lam * w + q
            c, s = cs_kernels(k2, x1 - x0)
            y, yp = c * y + s * yp, -k2 * s * y + c * yp
        scale = max(scale, abs(y) + abs(yp))
    d = y * spec.cos_beta + yp * spec.sin_beta
    if not (scale < math.inf and d == d):
        raise overflow_failure(lam)
    return d, scale


def characteristic(spec: ProblemSpec, lam: complex | float) -> complex | float:
    """Boundary mismatch ``D(lambda)``; zero exactly at eigenvalues."""
    return characteristic_scaled(spec, lam)[0]


# ---------------------------------------------------------------------------
# Interior zeros of the left solution
# ---------------------------------------------------------------------------

def _stretch_zeros(zeros: list[float], k2: float, length: float, y0: float,
                   v: float, y1: float, x0: float, snap: float,
                   end: float | None = None) -> int:
    """Append the zeros of ``y(t) = C(k2, t) y0 + S(k2, t) v`` on
    ``[0, length]``, whose end value is ``y1``, at ``x0 + t``, and return
    how many more it counted without appending them.

    An oscillating stretch places its zeros from ``t = -snap``, and the
    walk's dedup keeps one copy of a zero the stretch before placed too.
    Given ``end``, it appends only its first zero and its last one up to
    ``t = end`` and counts those between; otherwise it returns 0.
    """
    if k2 > 0.0 and math.sqrt(k2) * length > _OSCILLATING:
        # Oscillatory: y(t) = A sin(k t + phi).
        k = math.sqrt(k2)
        phi = math.atan2(y0, v / k)
        m_lo = math.floor((phi - k * snap) / math.pi) + 1
        t_hi = length if end is None or end > length else end
        ms = range(m_lo, math.floor((phi + k * t_hi) / math.pi) + 1)
        inner = 0
        if end is not None and len(ms) > 2:
            ms, inner = (ms[0], ms[-1]), len(ms) - 2
        for m in ms:
            zeros.append(x0 + (m * math.pi - phi) / k)
        return inner
    # At most one zero on the stretch, where C(k2, t) y0 + S(k2, t) v = 0
    # in closed form.
    if y1 == 0.0:
        zeros.append(x0 + length)
    elif (y0 < 0.0) != (y1 < 0.0):
        ratio = -y0 / v
        if k2 < 0.0:
            kappa = math.sqrt(-k2)
            r = kappa * ratio
            t_star = math.atanh(r) / kappa if r < 1.0 else length
        elif k2 == 0.0:
            t_star = ratio
        else:
            k = math.sqrt(k2)
            t_star = math.atan(k * ratio) / k
        zeros.append(x0 + min(max(t_star, 0.0), length))
    return 0


def _zero_walk(spec: ProblemSpec, lam: float, out: list[float] | bool | None
               ) -> tuple[int, float, float]:
    """``(count, D, scale)`` at real ``lam``: the number of zeros of the
    left solution strictly inside ``(a, b)``, each appended to ``out``
    unless that is ``None``, and :func:`characteristic_scaled`'s pair.
    ``out=False`` walks for that pair alone (count 0): no end band, no zero
    test, and a tabulated piece crossed by :func:`_carry`.  A constant piece
    is crossed inline, :func:`cs_kernels`' real branches included.

    The walk is a fold over :func:`stretches`, and on each stretch
    ``_stretch_zeros`` places the zeros in closed form: by the phase where
    the stretch oscillates; elsewhere there is at most one, which the end
    signs detect and an ``atanh``, linear or ``atan`` formula places.
    Without ``out``, an oscillating stretch other than a sloped step (below)
    places only its first zero and its last one before the end band, and
    counts those between, which lie ``pi / k`` apart and inside the cuts
    below: the count's memory does not grow with ``lam``.  An oscillating
    constant piece does so in place, with the kernel's ``k``.

    A stretch whose phase is below pi holds at most one zero, so none when
    ``y`` keeps its sign across it, and the walk skips it.  Inside a sloped
    sixth-order Magnus step the closed form, the step's ``exp(t Omega)``,
    is only about third order, so each zero placed there takes one Newton
    step on the solution :func:`_carry` steps to it, within the step.

    Each stretch places its zeros in order, an oscillating one from
    ``t = -snap``, so a zero where two stretches meet can be placed by both,
    and the dedup keeps the first: one pass keeps a zero unless it lies
    within ``snap`` of ``a``, within an end band of ``b``, or within
    ``snap`` of the zero kept last.
    For Dirichlet conditions at ``b`` the band is ``1e-6 * (b - a)``: at an
    eigenvalue the exact eigenfunction's boundary zero sits at ``b``, but
    the computed solution displaces it by roughly ``|y(b)| / |y'(b)|``,
    which can be many orders of magnitude above resolution when the
    solution decays through the last piece.  For other boundary conditions
    the band is the dedup resolution ``snap = 1e-12 * (b - a)``, which also
    drops a zero the last stretch puts at ``b``.
    """
    zeros = out is not False
    if zeros:
        a, b = spec.a, spec.b
        snap = 1e-12 * (b - a)
        lo, hi = a + snap, b - (1e-6 * (b - a) if spec.beta == 0.0 else snap)
    count, last = 0, -math.inf
    placed: list[float] = []
    y0, yp0, scale = spec.launch
    for piece in spec.pieces:
        const = piece.constant
        if const is not None:
            w, q, x, x1 = const
            z = lam * w + q
            length = x1 - x
            u = z * length * length
            if abs(u) < _SERIES_CUTOFF:
                c = 1.0 - (u / 2.0) * (1.0 - (u / 12.0) * (1.0 - u / 30.0))
                s = length * (1.0 - (u / 6.0) * (1.0 - (u / 20.0)
                                                 * (1.0 - u / 42.0)))
            elif z > 0.0:
                k = math.sqrt(z)
                kt = k * length
                if kt > _PHASE_LIMIT:
                    raise _phase_failure(kt)
                c, s = math.cos(kt), math.sin(kt) / k
            else:
                k = math.sqrt(-z)
                kt = k * length
                c, s = math.cosh(kt), math.sinh(kt) / k
            y1, yp1 = c * y0 + s * yp0, -z * s * y0 + c * yp0
            if zeros and not (y0 * y1 > 0.0 and u < _PI2):
                if (out is None and z > 0.0 and abs(u) >= _SERIES_CUTOFF
                        and kt > _OSCILLATING):
                    phi = math.atan2(y0, yp0 / k)
                    m_lo = math.floor((phi - k * snap) / math.pi) + 1
                    end = hi - x
                    m_hi = math.floor(
                        (phi + k * (length if end > length else end)) / math.pi)
                    if m_hi > m_lo:
                        count += m_hi - m_lo - 1
                    for m in ((m_lo, m_hi) if m_hi > m_lo
                              else (m_lo,) if m_hi == m_lo else ()):
                        t = x + (m * math.pi - phi) / k
                        if not (t <= lo or t >= hi or t - last <= snap):
                            count += 1
                            last = t
                else:
                    _stretch_zeros(placed, z, length, y0, yp0, y1, x, snap)
                    for t in placed:
                        if not (t <= lo or t >= hi or t - last <= snap):
                            count += 1
                            last = t
                            if out is not None:
                                out.append(t)
                    placed.clear()
            y0, yp0 = y1, yp1
        elif not zeros:
            y0, yp0 = _carry(piece, lam, y0, yp0, piece.x0, piece.x1)
        else:
            for e11, e12, e21, e22, _, _, dd, _, d, z, x, length in stretches(
                    piece, lam, piece.x0, piece.x1):
                y1, yp1 = e11 * y0 + e12 * yp0, e21 * y0 + e22 * yp0
                if y0 * y1 > 0.0 and z * length * length < _PI2:
                    y0, yp0 = y1, yp1
                    continue
                count += _stretch_zeros(
                    placed, z, length, y0, d * y0 + yp0, y1, x, snap,
                    None if out is not None or dd else hi - x)
                if dd:
                    for i, t in enumerate(placed):
                        y, yp = _carry(piece, lam, y0, yp0, x, t)
                        if yp:
                            placed[i] = min(max(t - y / yp, x), x + length)
                for t in placed:
                    if not (t <= lo or t >= hi or t - last <= snap):
                        count += 1
                        last = t
                        if out is not None:
                            out.append(t)
                placed.clear()
                y0, yp0 = y1, yp1
        # max(scale, size), NaN included, without the call, which made
        # constant-piece D about 30 % slower
        size = abs(y0) + abs(yp0)
        if size > scale:
            scale = size
    d = y0 * spec.cos_beta + yp0 * spec.sin_beta
    if not (scale < math.inf and d == d):
        raise overflow_failure(lam)
    return count, d, scale


@lambda_entry
def interior_zeros(spec: ProblemSpec, lam: float) -> list[float]:
    """Locations of zeros of the left solution strictly inside ``(a, b)``,
    in increasing order; ``lam`` must be real.  See :func:`_zero_walk`."""
    out: list[float] = []
    _zero_walk(spec, _require_real(lam, "interior zero counting"), out)
    return out


@lambda_entry
def count_zeros(spec: ProblemSpec, lam: float) -> int:
    """Number of interior zeros of the left solution at real ``lam``,
    ``len(interior_zeros(spec, lam))`` without the list."""
    return _zero_walk(spec, _require_real(lam, "interior zero counting"), None)[0]


# ---------------------------------------------------------------------------
# Eigenvalue records and scan results
# ---------------------------------------------------------------------------

# an EigenRecord's fields as its JSON keys and CSV header name them
_COLUMNS = ("re_lambda", "im_lambda", "zeros", "weighted_norm", "residual")

class EigenRecord(NamedTuple):
    """One located eigenvalue.  ``zeros_in_ab`` and ``weighted_norm`` are
    populated for real eigenvalues only."""

    re_lambda: float
    im_lambda: float
    zeros_in_ab: int | None
    weighted_norm: float | None
    residual: float

    @property
    def lam(self) -> complex | float:
        if self.im_lambda == 0.0:
            return self.re_lambda
        return complex(self.re_lambda, self.im_lambda)

    @property
    def is_real(self) -> bool:
        return self.im_lambda == 0.0

    def to_dict(self) -> dict:
        return dict(zip(_COLUMNS, self))


class ScanResult(NamedTuple):
    """Outcome of a real-window scan."""

    window: tuple[float, float]
    tol: float
    records: tuple[EigenRecord, ...]
    n_r_empirical: int | None
    n_h_empirical: int | None
    warnings: tuple[str, ...] = ()

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(r.re_lambda for r in self.records)

    def to_dict(self) -> dict:
        return {
            "window": [self.window[0], self.window[1]],
            "tol": self.tol,
            "n_r_empirical": self.n_r_empirical,
            "n_h_empirical": self.n_h_empirical,
            "warnings": list(self.warnings),
            "eigenvalues": [r.to_dict() for r in self.records],
        }


# ---------------------------------------------------------------------------
# Real scan
# ---------------------------------------------------------------------------

def _refine_bracket(f: Callable[[float], float], x0: float, x1: float,
                    f0: float, f1: float, xtol: float) -> tuple[float, float]:
    """Illinois-damped false position (Dowell & Jarratt, BIT 1971) on a
    sign-changing bracket.  ``x1`` is always the newest point, so the
    bracket is unordered.  Returns the endpoint with the smaller ``|f|``
    once the bracket is ``<= xtol`` wide."""
    g0, g1 = f0, f1
    side = 0
    for _ in range(200):
        if abs(x1 - x0) <= xtol:
            break
        xm = 0.5 * (x0 + x1)
        denom = g1 - g0
        if denom != 0.0:
            xs = x1 - g1 * (x1 - x0) / denom
            if min(x0, x1) < xs < max(x0, x1):
                xm = xs
        gm = f(xm)
        if gm == 0.0:
            return xm, 0.0
        if (gm < 0.0) != (g1 < 0.0):
            x0, g0 = x1, g1
            x1, g1 = xm, gm
            side = 0
        else:
            x1, g1 = xm, gm
            if side == 1:
                g0 *= 0.5
            side = 1
    return (x0, g0) if abs(g0) <= abs(g1) else (x1, g1)


def _bracket_root(dval: Callable[[float], float], x0: float, x1: float,
                  tol: float) -> float:
    """A sign change of ``dval`` on ``[x0, x1]``, refined by
    :func:`_refine_bracket` to a quarter of ``tol`` relative."""
    return _refine_bracket(dval, x0, x1, dval(x0), dval(x1),
                           0.25 * tol * max(1.0, abs(x0), abs(x1)))[0]


def _d_and_slope(spec: ProblemSpec, lam: complex | float
                 ) -> tuple[complex | float, complex | float, float]:
    """``(D, D', scale)`` at ``lam`` from one :func:`_lambda_fold` to ``b``:
    ``D' = dy/dlambda cos(beta) + dy'/dlambda sin(beta)``."""
    y, yp, u, up, _, scale = _lambda_fold(spec, lam, spec.b)
    cb, sb = spec.cos_beta, spec.sin_beta
    d, dp = y * cb + yp * sb, u * cb + up * sb
    if not (scale < math.inf and abs(dp) < math.inf and d == d):
        raise overflow_failure(lam)
    return d, dp, scale


def _newton_polish(spec: ProblemSpec, lam: complex | float
                   ) -> tuple[complex | float, float, float]:
    """Drive a root of ``D``, real or complex, to the floating-point floor
    by Newton on the exact ``D'``.  Returns the best ``(lambda, |D|,
    scale)`` visited."""
    best_lam, best_res, best_scale = lam, float("inf"), 1.0
    x, step = lam, math.inf
    for _ in range(60):
        d, dp, scale = _d_and_slope(spec, x)
        res = abs(d)
        if res < best_res:
            best_lam, best_res, best_scale = x, res, scale
        if (res <= 32.0 * _EPS * scale or dp == 0.0
                or abs(step) <= 4.0 * _EPS * max(1.0, abs(x))):
            break
        step = -d / dp
        cap = 0.5 * max(1.0, abs(x))
        if abs(step) > cap:
            step *= cap / abs(step)
        x = x + step
    return best_lam, best_res, best_scale


def _detection_grid(spec: ProblemSpec, lo: float, hi: float,
                    refine: int = 1) -> list[float]:
    """Detection lattice over ``[lo, hi]``: cell width tracks the spacing of
    consecutive eigenvalues, clamped, and ``refine`` densifies it."""
    length = spec.b - spec.a
    wmax = max(abs(p.w) for p in spec.pieces)
    base_dx = (math.pi ** 2) / (length * length * wmax)
    n_cells = int(math.ceil((hi - lo) / base_dx))
    n_cells = max(48, min(n_cells, 200_000)) * refine
    grid = [lo + (hi - lo) * i / n_cells for i in range(n_cells + 1)]
    grid[0], grid[-1] = lo, hi
    return grid


@lambda_entry
def _scan_chunk(spec: ProblemSpec, lo: float, tol: float,
                grid: list[float]) -> list[float]:
    """Locate real eigenvalues from the cells of ``grid``, this chunk's
    slice of the one detection lattice all workers share; the caller keeps
    the roots in the window and merges, so the found set is identical for
    any worker count.  One guard covers the chunk, in the worker, and names
    its first node ``lo`` on an overflow; the walks inside run bare.

    The lattice is read in one pass: one zero walk per node gives its ``D``
    and count, then each cell is sorted.  A quiet cell, with no sign change,
    equal counts, non-zero ``D`` at both ends and a width above the floor,
    takes its midpoint's ``D`` and is done unless ``D`` flips or ``|D|``
    dips there; every other cell (sign change, count jump, flip or dip, node
    on a root, floor width) goes on the stack, which bisects, brackets and
    probes it; a cell split at a flip brackets a root in each half.  Every
    decision reads the values the stack alone would read at the same
    points, so the found set does not depend on the pass."""
    d_cache: dict[float, float] = {}
    c_cache: dict[float, int] = {}

    def dval(x: float) -> float:
        if x not in d_cache:
            _, d, scale = _zero_walk(spec, x, False)
            d_cache[x] = d / scale
        return d_cache[x]

    def cval(x: float) -> int:
        if x not in c_cache:
            c_cache[x], d, scale = _zero_walk(spec, x, None)
            d_cache[x] = d / scale
        return c_cache[x]

    roots: list[float] = []

    def emit(x: float) -> None:
        polished, residual, scale = _newton_polish(spec, x)
        if residual > _ROOT_RESIDUAL * scale:
            return  # a |D| minimum or count jump that is not actually a root
        roots.append(polished)

    def probe_flat_minimum(x0: float, x1: float) -> None:
        """Cell at maximum refinement that still dips: check for a genuine
        double root via a critical point of D."""

        def dprime(x: float) -> float:
            return _d_and_slope(spec, x)[1]

        p0, p1 = dprime(x0), dprime(x1)
        if p0 == 0.0 or p1 == 0.0 or (p0 < 0.0) == (p1 < 0.0):
            return
        xc, _ = _refine_bracket(dprime, x0, x1, p0, p1,
                                4.0 * _EPS * max(1.0, abs(x0), abs(x1)))
        if abs(dval(xc)) <= 1e-11:
            emit(xc)

    min_width = 0.5 * tol  # relative factor applied per cell below
    cells = [(x0, x1) for x0, x1 in zip(grid, grid[1:]) if x1 > x0]
    # every node's D and count from one walk, in the order a cell-by-cell
    # stack reaches them (the last cell first), so a scan that overflows
    # names the same node
    for x in [x for cell in reversed(cells) for x in cell]:
        if x not in c_cache:
            c_cache[x], d, scale = _zero_walk(spec, x, None)
            d_cache[x] = d / scale
    # a quiet cell is done unless D flips its sign or |D| dips at the midpoint
    stack = []
    for x0, x1 in cells:
        d0, d1 = d_cache[x0], d_cache[x1]
        if not (d0 * d1 > 0.0 and c_cache[x0] == c_cache[x1]
                and x1 - x0 > min_width * max(1.0, abs(x0), abs(x1))
                and (dm := dval(0.5 * (x0 + x1))) * d0 > 0.0
                and abs(dm) >= min(abs(d0), abs(d1))):
            stack.append((x0, x1, 0))

    while stack:
        x0, x1, depth = stack.pop()
        width = x1 - x0
        scale_x = max(1.0, abs(x0), abs(x1))
        if width <= 0.0:
            continue
        d0, d1 = dval(x0), dval(x1)
        if d0 == 0.0 or d1 == 0.0:
            # a node on a root: emit it and rescan the cell without it
            emit(x0 if d0 == 0.0 else x1)
            if width > min_width * scale_x:
                nudge = max(min_width * scale_x, width * 1e-6)
                stack.append((x0 + nudge, x1, depth + 1) if d0 == 0.0
                             else (x0, x1 - nudge, depth + 1))
            continue
        if (d0 < 0.0) != (d1 < 0.0):
            r = _bracket_root(dval, x0, x1, tol)
            emit(r)
            margin = max(2.0 * tol * max(1.0, abs(r)), width * 1e-9)
            if depth < 64:
                if r - margin > x0:
                    cval(r - margin)
                    stack.append((x0, r - margin, depth + 1))
                if x1 > r + margin:
                    cval(r + margin)
                    stack.append((r + margin, x1, depth + 1))
            continue
        # No sign change across the cell.
        if width <= min_width * scale_x or depth >= 64:
            if cval(x0) != cval(x1):
                # A count jump squeezed below the resolution floor: an
                # even-multiplicity root (or unresolvable pair) lives here.
                emit(0.5 * (x0 + x1))
            continue
        c0, c1 = cval(x0), cval(x1)
        xm = 0.5 * (x0 + x1)
        if c0 != c1:
            cval(xm)
            stack.append((x0, xm, depth + 1))
            stack.append((xm, x1, depth + 1))
            continue
        dm = dval(xm)
        flip = (dm < 0.0) != (d0 < 0.0)
        if flip or abs(dm) < min(abs(d0), abs(d1)):
            # A flip or a dip at the midpoint: a close pair or a double root.
            # Split while D flips or the cell is wide, then probe.
            if flip or width > 64.0 * tol * scale_x:
                stack.append((x0, xm, depth + 1))
                stack.append((xm, x1, depth + 1))
            else:
                probe_flat_minimum(x0, x1)
    return roots


def _merge_roots(roots: Sequence[complex | float], tol: float) -> list:
    """The roots in ``(re, im)`` order, each dropped that lies within
    ``10 tol max(1, |r|)`` of the last one kept."""
    out: list = []
    for r in sorted(roots, key=lambda v: (v.real, v.imag)):
        if out and abs(r - out[-1]) <= 10.0 * tol * max(1.0, abs(r)):
            continue
        out.append(r)
    return out


def _empirical_indices(counts: Sequence[int]) -> tuple[int | None, int | None]:
    """Infer the oscillation-count thresholds from a scan's count multiset.

    Counts above the highest doubled count ``top`` are taken as truncated
    by the window.  The pattern is: every count from the lowest to ``top``
    is present, once below ``n_r`` and at least twice from ``n_r`` up, and
    ``n_r`` is 0 or has a singleton below it (else the window may have
    missed the lower counts); ``n_h`` starts the top run of counts seen
    exactly twice.  Returns ``(n_r, n_h)``, ``None`` where the evidence
    does not fit.
    """
    mult = Counter(counts)
    doubled = [c for c in mult if mult[c] >= 2]
    if not doubled:
        return None, None
    low, n_r, top = min(mult), min(doubled), max(doubled)
    if (len(doubled) != top - n_r + 1 or 0 < low == n_r
            or sum(c <= top for c in mult) != top - low + 1):
        return None, None
    n_h = top + 1
    while n_h > n_r and mult[n_h - 1] == 2:
        n_h -= 1
    return n_r, n_h if n_h <= top else None


def _thread_count(n_cells: int) -> int:
    """Workers asked for by ``SL_THREADS``, at least 1 and at most the CPU
    count and the number of lattice cells."""
    raw = os.environ.get("SL_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, os.cpu_count() or 1, n_cells))


def find_real_eigenvalues(spec: ProblemSpec, window: tuple[float, float],
                          tol: float = 1e-9, refine: int = 1) -> ScanResult:
    """Scan a real window for eigenvalues and annotate each with its interior
    zero count, weighted norm, and residual.

    The worker count comes from the ``SL_THREADS`` environment variable
    (default 1, serial; capped at the CPU count); workers split the window
    into subintervals and results are merged and deduplicated.  ``refine``
    densifies the detection grid (the found set must be stable under
    refinement).
    """
    spec = _as_problem(spec)
    lo, hi = _as_pair(window, "window")
    if not lo < hi:
        raise InvalidProblemError(f"window must have lo < hi, got {window!r}")
    tol = _as_tol(tol)
    refine = _as_count(refine, "refine")

    # workers share one lattice, split on cell boundaries, so the found set
    # (and therefore the output bytes) is independent of the count
    nodes = _detection_grid(spec, lo, hi, refine)
    n_cells = len(nodes) - 1
    threads = _thread_count(n_cells)
    bounds = [round(j * n_cells / threads) for j in range(threads + 1)]
    jobs = [(spec, nodes[b0], tol, nodes[b0:b1 + 1])
            for b0, b1 in zip(bounds, bounds[1:]) if b1 > b0]
    if threads == 1:
        parts = [_scan_chunk(*jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_scan_chunk, *zip(*jobs)))

    # the roots in the window, whichever chunk's polish reached them
    first, last = lo - 1e-9 * max(1.0, abs(lo)), hi + 1e-9 * max(1.0, abs(hi))
    roots = _merge_roots([r for part in parts for r in part
                          if first <= r <= last], tol)

    records = []
    notes: list[str] = []
    for r in roots:
        records.append(_real_record(spec, r))
        for edge in (lo, hi):
            if abs(r - edge) <= 100.0 * tol * max(1.0, abs(edge)):
                notes.append(
                    f"eigenvalue {r!r} lies within the boundary band of the "
                    f"window edge {edge!r}; membership is ambiguous at tol={tol!r}")
    for edge in (lo, hi):
        d, scale = characteristic_scaled(spec, edge)
        if abs(d) <= 1e3 * _EPS * scale:
            notes.append(
                f"|D| is at the numerical floor at the window edge {edge!r}; "
                f"an eigenvalue may sit on the boundary")

    n_r, n_h = _empirical_indices([rec.zeros_in_ab for rec in records])
    return ScanResult(window=(lo, hi), tol=tol, records=tuple(records),
                      n_r_empirical=n_r, n_h_empirical=n_h,
                      warnings=tuple(notes))


def _real_record(spec: ProblemSpec, lam: float) -> EigenRecord:
    """A real root's record: zero count, and the weighted norm and ``|D|``
    from one :func:`_lambda_fold` to ``b``."""
    y, yp, _, _, norm, scale = _lambda_fold(spec, lam, spec.b)
    d = y * spec.cos_beta + yp * spec.sin_beta
    if not (scale < math.inf and abs(norm) < math.inf and d == d):
        raise overflow_failure(lam)
    return EigenRecord(lam, 0.0, count_zeros(spec, lam), norm, abs(d))


# ---------------------------------------------------------------------------
# Complex rectangle search
# ---------------------------------------------------------------------------

class _Rect(NamedTuple):
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi),
                       0.5 * (self.im_lo + self.im_hi))

    @property
    def diam(self) -> float:
        return math.hypot(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (self.re_lo - slack <= z.real <= self.re_hi + slack
                and self.im_lo - slack <= z.imag <= self.im_hi + slack)


def _symmetric_rule(half: tuple[tuple[float, float], ...]
                    ) -> tuple[tuple[float, float], ...]:
    return tuple((-x, w) for x, w in reversed(half) if x) + half


# Gauss-Legendre nodes and weights on [-1, 1], from the nonnegative nodes
# (Abramowitz and Stegun, table 25.4).
_GAUSS5 = _symmetric_rule((
    (0.0, 0.568888888888888888888889),
    (0.538469310105683091036314, 0.478628670499366468041292),
    (0.906179845938663992797627, 0.236926885056189087514264)))
_GAUSS10 = _symmetric_rule((
    (0.148874338981631210884826, 0.295524224714752870173893),
    (0.433395394129247190799266, 0.269266719309996355091226),
    (0.679409568299024406234327, 0.219086362515982043995535),
    (0.865063366688984510732097, 0.149451349150580593145776),
    (0.973906528517171720077964, 0.066671344308688137593568)))


class _ArgumentCount:
    """Zero counts of ``D`` inside rectangles by the argument principle:
    the contour integral of ``D'/D`` over ``2 pi i``, with the exact ``D'``
    of :func:`_d_and_slope` (Delves and Lyness, Math. Comp. 1967).

    Each edge is integrated by adaptive Gauss-Legendre.  A segment is
    accepted when its 10- and 5-point rules agree to 0.1 and no node lies
    within a tenth of the segment's length of a root by its Newton distance
    ``|D / D'|``; it is halved otherwise, and a segment still refused after
    20 halvings raises :class:`ContourError`.  An accepted segment turns
    ``arg D`` by ``arg D(z1) - arg D(z0) + 2 pi m``, with ``m`` the branch
    its integral picks, so a closed contour's turns sum to an exact multiple
    of ``2 pi``.  Turns are cached by their ends: the line a split shares
    between two halves is integrated once.
    """

    def __init__(self, spec: ProblemSpec) -> None:
        self.spec = spec
        self.turns: dict[tuple[complex, complex], float] = {}
        self.phases: dict[complex, float] = {}

    def count(self, rect: _Rect) -> int:
        corners = [complex(rect.re_lo, rect.im_lo),
                   complex(rect.re_hi, rect.im_lo),
                   complex(rect.re_hi, rect.im_hi),
                   complex(rect.re_lo, rect.im_hi)]
        total = sum(self.turn(z0, z1) for z0, z1 in
                    zip(corners, corners[1:] + corners[:1]))
        w = round(total / (2.0 * math.pi))
        if w < 0:
            raise ContourError(
                f"negative winding number {w} over {rect!r}; the "
                f"characteristic function should be analytic")
        return w

    def turn(self, z0: complex, z1: complex, depth: int = 0) -> float:
        """Change of ``arg D`` along the straight segment ``z0 -> z1``."""
        if (z1, z0) in self.turns:
            return -self.turns[(z1, z0)]
        if (z0, z1) not in self.turns:
            mid, half = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
            reach = 0.1 * abs(z1 - z0)
            fine = self._rule(_GAUSS10, mid, half, reach)
            coarse = None if fine is None else \
                self._rule(_GAUSS5, mid, half, reach)
            if coarse is not None and abs(fine - coarse) <= 0.1:
                jump = self._phase(z1) - self._phase(z0)
                turn = jump + 2.0 * math.pi * round(
                    (fine.imag - jump) / (2.0 * math.pi))
            elif depth == 20:
                raise ContourError(
                    f"a root of the characteristic function lies on or "
                    f"next to the contour near {mid!r}")
            else:
                zm = complex(0.5 * (z0.real + z1.real),
                             0.5 * (z0.imag + z1.imag))
                turn = self.turn(z0, zm, depth + 1) + \
                    self.turn(zm, z1, depth + 1)
            self.turns[(z0, z1)] = turn
        return self.turns[(z0, z1)]

    def _rule(self, rule: tuple[tuple[float, float], ...], mid: complex,
              half: complex, reach: float) -> complex | None:
        """The integral of ``D'/D`` over ``mid + half * [-1, 1]`` by
        ``rule``, or ``None`` once a node's Newton distance is below
        ``reach``."""
        total = 0.0
        for x, weight in rule:
            d, dp, _ = _d_and_slope(self.spec, mid + x * half)
            if d == 0.0 or reach * abs(dp) > abs(d):
                return None
            total += weight * dp / d
        return total * half

    def _phase(self, z: complex) -> float:
        if z not in self.phases:
            self.phases[z] = cmath.phase(complex(characteristic(self.spec, z)))
        return self.phases[z]


def find_complex_eigenvalues(spec: ProblemSpec,
                             rect: tuple[tuple[float, float], tuple[float, float]],
                             tol: float = 1e-9) -> list[EigenRecord]:
    """All eigenvalues inside a closed rectangle of the complex plane.

    Only the closed upper half-plane is searched: a rectangle below the real
    axis as its mirror image, one that meets the axis as the box symmetric
    about the axis that covers it.  Each root found stands for itself and
    its exact conjugate, and each is kept if it lies in the rectangle.
    Roots are counted by :class:`_ArgumentCount`; a box holding more than
    one is cut across its longer side, at the middle or, when the cut fails
    its own count by passing next to a root, 0.025, 0.05 or 0.1 of the side
    away.  A tall symmetric box is cut at ``+-c`` into the strip
    ``[-c, c]`` and the top box ``[c, h]``, ``c`` being 0, 0.05, 0.1 or 0.2
    of ``h``; the bottom box, the top's mirror, is not searched.  A box
    holding one root is polished by Newton from its centre; in a symmetric
    box that root is real and is first bracketed on the axis.  A searched
    box whose own edge passes next to a root is widened on every side.

    ``rect`` is either ``((re_lo, re_hi), (im_lo, im_hi))`` or a mapping
    ``{"re": (lo, hi), "im": (lo, hi)}``.
    """
    spec = _as_problem(spec)
    if isinstance(rect, dict):
        if set(rect) != {"re", "im"}:
            raise InvalidProblemError(
                f"rectangle mapping must have exactly the keys 're' and 'im', "
                f"got {sorted(rect)!r}")
        rect = (rect["re"], rect["im"])
    re, im = _as_sequence(rect, "rectangle", 2)
    re_lo, re_hi = _as_pair(re, "rectangle", "re_lo", "re_hi")
    im_lo, im_hi = _as_pair(im, "rectangle", "im_lo", "im_hi")
    if not (re_lo < re_hi and im_lo < im_hi):
        raise InvalidProblemError(f"rectangle must have positive extent, got {rect!r}")
    tol = _as_tol(tol)

    base = _Rect(re_lo, re_hi, im_lo, im_hi)
    if im_lo > 0.0:
        search = base
    elif im_hi < 0.0:
        search = _Rect(re_lo, re_hi, -im_hi, -im_lo)
    else:
        h = max(-im_lo, im_hi)
        search = _Rect(re_lo, re_hi, -h, h)

    counter = _ArgumentCount(spec)
    outer = search
    nudge = 0.0
    for attempt in range(4):
        try:
            w_total = counter.count(outer)
            break
        except ContourError:
            if attempt == 3:
                raise
            nudge = 1e-3 * outer.diam * (attempt + 1)
            outer = _Rect(search.re_lo - nudge, search.re_hi + nudge,
                          search.im_lo - nudge, search.im_hi + nudge)
            warnings.warn(f"contour passed near a root; expanding the "
                          f"rectangle by {nudge!r} and retrying", stacklevel=2)

    dval = functools.partial(characteristic, spec)
    roots: list[complex] = []
    stack: list[tuple[_Rect, int, int]] = [(outer, w_total, 0)]
    while stack:
        r, w, depth = stack.pop()
        if w == 0:
            continue
        if depth > 60:
            raise NumericalFailure(
                f"rectangle subdivision exceeded depth 60 near {r.center!r}")
        cen = r.center
        symmetric = r.im_lo == -r.im_hi
        if w == 1:
            start = _bracket_root(dval, r.re_lo, r.re_hi, tol) if symmetric \
                else cen
            z, res, scale = _newton_polish(spec, start)
            if (res <= _ROOT_RESIDUAL * scale
                    and r.contains(z, slack=1e-12 * max(1.0, abs(z)))):
                roots.append(z)
                continue
            # Newton stalled or left the rectangle: fall through to subdivision.
        if r.diam <= max(4.0 * tol, 1e-11) * max(1.0, abs(cen)):
            z, res, scale = _newton_polish(spec, cen)
            if res > _ROOT_RESIDUAL * scale or not r.contains(z, slack=r.diam):
                raise NumericalFailure(
                    f"{r!r} holds {w} root(s) at the diameter floor of "
                    f"tol={tol!r}, but Newton from its centre finds none")
            roots.append(z)
            continue
        wide = (r.re_hi - r.re_lo) >= (r.im_hi - r.im_lo)
        fold = symmetric and not wide
        lo, hi = (r.re_lo, r.re_hi) if wide else (r.im_lo, r.im_hi)
        last_err = None
        # a cut through (or next to) a root fails its own count: try the next
        for shift in ((0.0, 0.025, 0.05, 0.1) if fold else
                      (0.0, 0.025, -0.025, 0.05, -0.05, 0.1, -0.1)):
            cut = 0.5 * (lo + hi) + shift * (hi - lo)
            if wide:
                r1 = _Rect(r.re_lo, cut, r.im_lo, r.im_hi)
                r2 = _Rect(cut, r.re_hi, r.im_lo, r.im_hi)
            else:
                r1 = _Rect(r.re_lo, r.re_hi, -cut if fold else r.im_lo, cut)
                r2 = _Rect(r.re_lo, r.re_hi, cut, r.im_hi)
            try:
                # the strip at cut 0 is the axis, and a root on it fails the
                # top box's count
                w1 = counter.count(r1) if r1.im_lo < r1.im_hi else 0
                w2 = counter.count(r2)
            except ContourError as err:
                last_err = err
                continue
            if w1 + (2 if fold else 1) * w2 != w:
                last_err = ContourError(
                    f"winding counts are inconsistent after splitting {r!r}: "
                    f"{w1} + {w2}{' twice' if fold else ''} != {w}")
                continue
            stack.append((r1, w1, depth + 1))
            stack.append((r2, w2, depth + 1))
            break
        else:
            raise last_err

    # Deduplicate, add each root's conjugate, and keep what lies in the
    # requested rectangle: the mirror, the cover and the nudge reach outside.
    kept = {(v.real, v.imag) for z in _merge_roots(roots, tol)
            for v in (z, z.conjugate())
            if base.contains(v, slack=2.0 * nudge + 1e-12 * max(1.0, abs(v)))}

    records = []
    for re, im in sorted(kept):
        if im == 0.0:
            records.append(_real_record(spec, re))
        else:
            d, _ = characteristic_scaled(spec, complex(re, im))
            records.append(EigenRecord(re, im, None, None, abs(d)))
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(value: float | int | None) -> str:
    return "" if value is None else repr(value)


def records_to_csv(records: Sequence[EigenRecord]) -> str:
    lines = [",".join(_COLUMNS), *(",".join(map(_fmt, r)) for r in records)]
    return "\n".join(lines) + "\n"


def scan_to_csv(result: ScanResult) -> str:
    return records_to_csv(result.records)


def scan_to_json(result: ScanResult) -> str:
    return _json_text(result.to_dict())
