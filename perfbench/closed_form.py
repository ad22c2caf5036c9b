"""Closed-form reference for problems whose pieces all have a constant q.

This is the benchmark's own oracle.  It is written from the equation, not
from ``slindef``: on a piece where ``k2 = lam*w + q`` is constant,
``y'' + k2 y = 0`` carries ``(y, y')`` by ``[[C, S], [-k2 S, C]]`` with
``C = cos(sqrt(k2) t)`` and ``S = sin(sqrt(k2) t) / sqrt(k2)``.  States are
rescaled to unit size after every piece and the removed factor is kept as a
logarithm, so the sign of ``D`` and the zero count stay exact where ``cosh``
itself would overflow.

Problems are plain dicts in the ``slindef`` problem-file format
(``{"interval", "alpha", "beta", "pieces": [{"x0", "x1", "w", "q": {"const"}}]}``).

Derivatives in ``lam`` use the complex step ``Im f(lam + i h) / h``, and
weighted norms use Gauss-Legendre quadrature of the closed-form solution,
not the library's kernel integrals.
"""

from __future__ import annotations

import cmath
import math

_STEP = 1e-30   # complex-step size, relative to max(1, |lam|)


class Undecided(Exception):
    """The oracle cannot decide at this input (a root on a contour)."""


def pieces_of(problem: dict) -> list[tuple[float, float, float, float]]:
    out = []
    for p in problem["pieces"]:
        if "const" not in p["q"]:
            raise ValueError("closed form needs constant-q pieces")
        out.append((p["x0"], p["x1"], p["w"], p["q"]["const"]))
    return out


def _kernels(k2, t):
    """``(C, S, g)``: the kernels divided by ``exp(g)``."""
    u = k2 * t * t
    if abs(u) < 1e-3:
        c, s, tc, ts = 0.0, 0.0, 1.0, t
        for j in range(8):
            c, s = c + tc, s + ts
            tc = -tc * u / ((2 * j + 1) * (2 * j + 2))
            ts = -ts * u / ((2 * j + 2) * (2 * j + 3))
        return c, s, 0.0
    if isinstance(k2, complex):
        k = cmath.sqrt(k2)
        return cmath.cos(k * t), cmath.sin(k * t) / k, 0.0
    if k2 > 0.0:
        k = math.sqrt(k2)
        return math.cos(k * t), math.sin(k * t) / k, 0.0
    kappa = math.sqrt(-k2)
    x = kappa * t
    e = math.exp(-2.0 * x)
    return 0.5 * (1.0 + e), 0.5 * (1.0 - e) / kappa, x


def walk(problem: dict, lam, shift=0.0):
    """States at every breakpoint as ``(x, k2_next, y, yp, log_scale)``:
    the true state is ``(y, yp) * exp(log_scale)``.  ``shift`` is added to
    ``lam``'s contribution, as ``(lam + shift) * w``."""
    y = math.sin(problem["alpha"])
    yp = math.cos(problem["alpha"])
    log_scale = 0.0
    out = []
    for x0, x1, w, q in pieces_of(problem):
        k2 = (lam + shift) * w + q
        out.append((x0, k2, y, yp, log_scale))
        c, s, g = _kernels(k2, x1 - x0)
        y, yp = c * y + s * yp, -k2 * s * y + c * yp
        n = abs(y) + abs(yp)
        if n == 0.0:
            raise Undecided(f"the state cancels to zero at lam={lam!r}")
        y, yp = y / n, yp / n
        log_scale += g + math.log(n)
    out.append((problem["pieces"][-1]["x1"], None, y, yp, log_scale))
    return out


def _boundary(problem: dict, y, yp):
    beta = problem["beta"]
    return y * math.cos(beta) + yp * math.sin(beta)


def char_log(problem: dict, lam):
    """``(m, g)`` with ``D(lam) = m * exp(g)``."""
    *_, (_, _, y, yp, g) = walk(problem, lam)
    return _boundary(problem, y, yp), g


def char(problem: dict, lam):
    m, g = char_log(problem, lam)
    return m * math.exp(g)


def newton_step(problem: dict, lam: float) -> float:
    """``D(lam) / D'(lam)`` at real ``lam`` (complex-step derivative)."""
    h = _STEP * max(1.0, abs(lam))
    *_, (_, _, y, yp, _) = walk(problem, lam, shift=1j * h)
    m = _boundary(problem, y, yp)
    dm = m.imag / h
    return math.inf if dm == 0.0 else m.real / dm


def newton_step_complex(problem: dict, z: complex) -> complex:
    """``D(z) / D'(z)`` with a central difference (``D`` is entire)."""
    h = 1e-5 * max(1.0, abs(z))
    d = char(problem, z)
    dp = (char(problem, z + h) - char(problem, z - h)) / (2.0 * h)
    return math.inf if dp == 0 else d / dp


# 8-point Gauss-Legendre rule on [-1, 1]
_GL_X = (0.1834346424956498, 0.5255324099163290, 0.7966664774136267,
         0.9602898564975363)
_GL_W = (0.3626837833783620, 0.3137066458778873, 0.2223810344533745,
         0.1012285362903763)


def norms(problem: dict, lam: float) -> tuple[float, float]:
    """``(int w y^2, int |w| y^2)`` for the left solution at real ``lam``,
    by Gauss-Legendre quadrature of the closed-form solution on sub-intervals
    of at most one radian (or one e-fold) of each piece."""
    states = walk(problem, lam)
    signed = absolute = 0.0
    for (x0, k2, y0, yp0, g), (x1, *_), p in zip(states, states[1:],
                                                 problem["pieces"]):
        length = x1 - x0
        m = max(1, math.ceil(math.sqrt(abs(k2)) * length))
        h = length / m
        total = 0.0
        for j in range(m):
            mid = (j + 0.5) * h
            for xg, wg in zip(_GL_X, _GL_W):
                for s in (mid - 0.5 * h * xg, mid + 0.5 * h * xg):
                    c, sk, gs = _kernels(k2, s)
                    y = (y0 * c + yp0 * sk) * math.exp(g + gs)
                    total += wg * y * y
        total *= 0.5 * h
        signed += p["w"] * total
        absolute += abs(p["w"]) * total
    return signed, absolute


def log_growth(problem: dict, lam: float) -> float:
    """``sum sqrt(|lam w| + |q|) * len``: the README's scale for transfer
    entries, past which norms keep no significant digits."""
    return sum(math.sqrt(abs(lam * w) + abs(q)) * (x1 - x0)
               for x0, x1, w, q in pieces_of(problem))


def log_condition(problem: dict, lam: float) -> float:
    """Log of the factor by which forward shooting amplifies rounding at
    ``lam``.  An error made where the solution is largest grows through the
    hyperbolic pieces after that point; measured against that largest size
    (which is what the boundary value D is judged by), and against the
    solution's own size at each interior breakpoint (which is what the
    zeros of the pieces after it depend on).  Where it exceeds about
    ``log(1e-7 / eps)``, results keep no significant digits."""
    states = walk(problem, lam)
    growth = [0.0]          # hyperbolic growth from a to each breakpoint
    for (x0, k2, *_), (x1, *_) in zip(states, states[1:]):
        growth.append(growth[-1] + (math.sqrt(-k2) * (x1 - x0) if k2 < 0.0
                                    else 0.0))
    sizes = [g + math.log(abs(y) + abs(yp)) for _, _, y, yp, g in states]
    worst = max(sz - gr for sz, gr in zip(sizes, growth))
    # rounding reaching breakpoint i: the worst error source before it,
    # grown through the hyperbolic pieces in between
    errors = [max(sz - gr for sz, gr in zip(sizes[:i + 1], growth[:i + 1]))
              + growth[i] for i in range(len(states))]
    at_end = worst + growth[-1] - max(sizes)
    interior = [e - sz for e, sz in zip(errors[1:-1], sizes[1:-1])]
    return max([at_end] + interior)


def count_zeros(problem: dict, lam: float, at_root: bool = False) -> int:
    """Zeros of the left solution in ``(a + snap, b - band)``, with the
    library's documented bands: ``snap = 1e-12 (b - a)`` and, for
    Dirichlet data at ``b``, ``band = 1e-6 (b - a)``.  With ``at_root``,
    ``lam`` is an eigenvalue rounded to a float, which moves the
    eigenfunction's zero at ``b`` by about ``|y(b) / y'(b)|``; one zero
    within three times that distance of ``b`` is taken to be it."""
    a, b = problem["interval"]
    states = walk(problem, lam)
    if problem["beta"] != 0.0:
        return _count(problem, states, 1e-12 * (b - a))
    band = 1e-6 * (b - a)
    n = _count(problem, states, band)
    if at_root:
        far = _count(problem, states, max(band, 3.0 * boundary_displacement(states)))
        n -= min(1, n - far)
    return n


def _count(problem: dict, states, band: float) -> int:
    a, b = problem["interval"]
    lo_x, hi_x = a + 1e-12 * (b - a), b - band
    count = 0
    for (x0, k2, y0, yp0, _), (x1, _, _, _, _) in zip(states, states[1:]):
        s_lo = max(0.0, lo_x - x0)
        s_hi = min(x1 - x0, hi_x - x0)
        if s_hi <= s_lo:
            continue
        if k2 > 0.0:
            k = math.sqrt(k2)
            phi = math.atan2(k * y0, yp0)   # y ~ sin(k s + phi)
            count += max(0, math.floor((k * s_hi + phi) / math.pi)
                         - math.floor((k * s_lo + phi) / math.pi))
            continue
        # At most one zero: where y0 C(s) + yp0 S(s) = 0.
        if y0 == 0.0:
            continue            # the zero sits at s = 0, outside (0, s_hi]
        if k2 == 0.0:
            s_star = -y0 / yp0 if yp0 != 0.0 else -1.0
        else:
            kappa = math.sqrt(-k2)
            r = -y0 * kappa / yp0 if yp0 != 0.0 else math.inf
            s_star = math.atanh(r) / kappa if abs(r) < 1.0 else -1.0
        if s_lo < s_star < s_hi:
            count += 1
    return count


def boundary_displacement(states) -> float:
    """``|y(b) / y'(b)|``: how far the zero that an exact eigenfunction has
    at ``b`` sits from ``b`` for the computed solution."""
    *_, (_, _, y_end, yp_end, _) = states
    return math.inf if yp_end == 0.0 else abs(y_end / yp_end)


def displacement_bound(problem: dict, lam: float) -> float:
    """How far a double-precision forward solution can put the zero at
    ``b`` from ``b``: the exact displacement plus rounding, amplified as in
    :func:`log_condition`, over the slope at ``b``."""
    states = walk(problem, lam)
    *_, (_, _, y_end, yp_end, g_end) = states
    if yp_end == 0.0:
        return math.inf
    peak = max(g + math.log(abs(y) + abs(yp)) for _, _, y, yp, g in states)
    log_noise = math.log(1e2 * 2.220446049250313e-16) + log_condition(problem, lam) \
        + peak - (g_end + math.log(abs(yp_end)))
    return boundary_displacement(states) + math.exp(min(log_noise, 700.0))


def lowest_unit_weight_eigenvalue(problem: dict) -> float:
    """Smallest eigenvalue with ``w`` replaced by 1, by bisection on the
    oscillation predicate "no zero in (a, b] and D > 0"."""
    unit = dict(problem, pieces=[dict(p, w=1.0) for p in problem["pieces"]])

    def below(lam: float) -> bool:
        return char_log(unit, lam)[0] > 0.0 and count_zeros(unit, lam) == 0

    lo, hi = -1.0, 1.0
    while not below(lo):
        lo *= 2.0
    while below(hi):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def winding_number(problem: dict, re: tuple[float, float],
                   im: tuple[float, float]) -> int:
    """Zeros of ``D`` inside the rectangle by adaptive phase tracking."""
    corners = [complex(re[0], im[0]), complex(re[1], im[0]),
               complex(re[1], im[1]), complex(re[0], im[1])]
    total = 0.0
    for z0, z1 in zip(corners, corners[1:] + corners[:1]):
        def phase(t: float) -> float:
            m, _ = char_log(problem, z0 + t * (z1 - z0))
            if abs(m) < 1e-12:
                raise Undecided(f"D nearly vanishes on the contour near "
                                f"{z0 + t * (z1 - z0)!r}")
            return cmath.phase(m)

        ts = [i / 32.0 for i in range(33)]
        ph = [phase(t) for t in ts]
        i = 0
        while i < len(ts) - 1:
            jump = (ph[i + 1] - ph[i] + math.pi) % (2.0 * math.pi) - math.pi
            if abs(jump) > 0.25 * math.pi:
                if len(ts) > 50_000:
                    raise Undecided("contour phase does not resolve")
                tm = 0.5 * (ts[i] + ts[i + 1])
                ts.insert(i + 1, tm)
                ph.insert(i + 1, phase(tm))
                continue
            total += jump
            i += 1
    return round(total / (2.0 * math.pi))
