"""The benchmark workloads: seeded inputs, the calls that are timed, and
the oracle checks made after the timed loop.

Each workload turns ``--seed`` into a pool of plain, JSON-able op
descriptions (``generate``), turns them into zero-argument callables
(``prepare``), and checks the first output of every op against an oracle that
does not use the library (``check``).  Pools are stratified, so different
seeds give different inputs with the same cost profile: every seed draws one
op from each cell of the same grid of problem kind, function and window size.
Library calls go through module attributes looked up at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

import closed_form as cf

ROOT = Path(__file__).resolve().parent.parent    # the checkout
QUARTER_PI_SQ = math.pi * math.pi / 4.0


# ---------------------------------------------------------------------------
# Problem builders (plain dicts in the problem-file format)
# ---------------------------------------------------------------------------

def _problem(pieces: list[tuple[float, float, float, object]]) -> dict:
    rows = []
    for x0, x1, w, q in pieces:
        qj = {"table": [list(r) for r in q]} if isinstance(q, list) \
            else {"const": q}
        rows.append({"x0": x0, "x1": x1, "w": w, "q": qj})
    return {"interval": [pieces[0][0], pieces[-1][1]], "alpha": 0.0,
            "beta": 0.0, "pieces": rows}


def one_tp(q0: float) -> dict:
    return _problem([(-1.0, 0.0, -1.0, q0), (0.0, 1.0, 1.0, q0)])


def two_tp(wl: float, wm: float, wr: float, q0: float) -> dict:
    return _problem([(-1.0, 0.0, wl, q0), (0.0, 1.0, wm, q0),
                     (1.0, 2.0, wr, q0)])


def application(q: float) -> dict:
    return two_tp(-1.0, 2.0, -1.0, q)


def _peak_at_two(rng: random.Random, ws: list[float]) -> list[float]:
    """Rescale one weight so that max |w| is 2: the scan's detection lattice
    scales with max |w|, so this keeps scan costs from varying with it."""
    k = rng.randrange(len(ws))
    return [math.copysign(2.0, w) if i == k else w for i, w in enumerate(ws)]


def random_pieces(rng: random.Random) -> dict:
    """3 or 4 constant pieces tiling [-1, 2] with alternating weight signs."""
    n = rng.choice((3, 4))
    lengths = [0.5 + rng.random() for _ in range(n)]
    total = sum(lengths)
    xs = [-1.0]
    for ln in lengths[:-1]:
        xs.append(xs[-1] + 3.0 * ln / total)
    xs.append(2.0)
    sign = rng.choice((-1.0, 1.0))
    ws = _peak_at_two(rng, [sign * (-1.0) ** i * rng.uniform(0.5, 2.0)
                            for i in range(n)])
    return _problem([(xs[i], xs[i + 1], ws[i], rng.uniform(-10.0, 10.0))
                     for i in range(n)])


def const_problem(kind: str, rng: random.Random) -> dict:
    if kind == "one_tp":
        return one_tp(rng.uniform(-20.0, 10.0))
    if kind == "two_tp":
        ws = _peak_at_two(rng, [-rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                                -rng.uniform(0.5, 2.0)])
        return two_tp(*ws, rng.uniform(-10.0, 10.0))
    if kind == "application":
        return application(rng.uniform(-5.0, 5.0))
    return random_pieces(rng)


def tabulated_problem(rng: random.Random, w_tab_sign: float,
                      tab_left: bool) -> dict:
    """Two unit pieces of opposite weight sign; one carries a 3-6 node
    table for q, the other a constant q."""
    n = rng.randint(3, 6)
    nodes = [0.0] + sorted(rng.uniform(0.05, 0.95) for _ in range(n - 2)) + [1.0]
    w_tab = w_tab_sign * rng.uniform(0.8, 1.25)
    w_const = -w_tab_sign * rng.uniform(0.8, 1.25)
    q_const = rng.uniform(-10.0, 10.0)
    shift = -1.0 if tab_left else 0.0
    table = [[x + shift, rng.uniform(-10.0, 30.0)] for x in nodes]
    if tab_left:
        return _problem([(-1.0, 0.0, w_tab, table), (0.0, 1.0, w_const, q_const)])
    return _problem([(-1.0, 0.0, w_const, q_const), (0.0, 1.0, w_tab, table)])


# Sizes come from a van der Corput sequence, so any prefix of the pool
# covers the whole range evenly, and the seed moves each point within a
# 1/16 cell.  A run that completes only part of the pool still sees every
# size, and two seeds see nearly the same mix of costs.
def van_der_corput(c: int, base: int) -> float:
    u, scale = 0.0, 1.0 / base
    while c:
        c, digit = divmod(c, base)
        u += digit * scale
        scale /= base
    return u


def spread_1d(rng: random.Random, c: int) -> float:
    return (van_der_corput(c, 2) + rng.random() / 16.0) % 1.0


def log_range(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

EPS = 2.220446049250313e-16
# Past this log-amplification of rounding (e^18 ~ 7e7, so ~1e-8 relative),
# eigenvalues, counts, norms and the presence of roots are beyond what double
# precision can settle; such cases are counted as unchecked instead of judged.
TRUSTED_LOG_COND = 18.0


class Findings:
    """What the oracle found, as messages that start with ``op <index>``:
    wrong values (``bad``), wrong values of a kind known at the seed commit
    (``known``), and results that omit an eigenvalue the oracle settles
    (``missed``); plus the real roots judged and left unchecked, and other
    checks left undone because double precision cannot settle them
    (``unchecked``, counted by reason)."""

    def __init__(self) -> None:
        self.bad: list[str] = []
        self.known: list[str] = []
        self.missed: list[str] = []
        self.roots = {"judged": 0, "unchecked": 0}
        self.unchecked: Counter = Counter()

    def roots_summary(self) -> dict:
        total = self.roots["judged"] + self.roots["unchecked"]
        return {"real_roots_judged": self.roots["judged"],
                "real_roots_unchecked": self.roots["unchecked"],
                "unchecked_share": self.roots["unchecked"] / total if total else 0.0,
                "other_unchecked": dict(self.unchecked)}


def check_real_root(problem: dict, lam: float, zeros, norm, where: str,
                    f: Findings) -> None:
    """Eigenvalue to 1e-8 relative, widened by the rounding amplification up
    to about 1.5e-6, and zero count exact; norm to 1e-7 of ``int |w| y^2``
    plus the precision the slindef README documents, digits lost to entries
    of size ``exp(sum sqrt(|lam w| + |q|) len)`` (taken as ``100 eps`` times
    that).  A root past the rounding limit is counted as unchecked."""
    try:
        lc = cf.log_condition(problem, lam)
    except cf.Undecided:
        lc = math.inf
    if lc > TRUSTED_LOG_COND:
        f.roots["unchecked"] += 1
        return
    f.roots["judged"] += 1
    step = cf.newton_step(problem, lam)
    if not abs(step) <= max(1e-8, 1e2 * EPS * math.exp(lc)) * max(1.0, abs(lam)):
        f.bad.append(f"{where}: {lam!r} is not a root of D (Newton step {step!r})")
    want = cf.count_zeros(problem, lam, at_root=True)
    if zeros is not None and zeros != want:
        # Rounding moves the eigenfunction's zero at b; once it can move it
        # across the library's 1e-6 (b - a) band, the count is settled only
        # up to that one zero.  Recorded, not failed.
        a, b = problem["interval"]
        if abs(zeros - want) == 1 and \
                cf.displacement_bound(problem, lam) >= 1e-6 * (b - a):
            f.unchecked["zero count: boundary zero within rounding of b"] += 1
        else:
            f.bad.append(f"{where}: zero count {zeros} at {lam!r}, oracle {want}")
    if norm is None:
        return
    tol = 1e-7 + 1e2 * EPS * math.exp(min(cf.log_growth(problem, lam), 700.0))
    if tol >= 1.0:
        f.unchecked["real root: norm past the documented precision"] += 1
        return
    signed, absolute = cf.norms(problem, lam)
    if not abs(norm - signed) <= tol * absolute:
        f.bad.append(f"{where}: weighted norm {norm!r} at {lam!r}, oracle "
                     f"{signed!r} (scale {absolute!r})")


def check_coverage(problem: dict, roots: list[float], lo: float, hi: float,
                   where: str, f: Findings, n: int = 4000) -> None:
    """Every sign change of the closed-form D on an n-cell grid of the
    window holds a reported root, unless rounding at that root is past the
    limit (then the miss is counted as unchecked)."""
    def sign(x: float) -> float:
        try:
            return cf.char_log(problem, x)[0]
        except cf.Undecided:
            return 0.0

    grid = [lo + (hi - lo) * i / n for i in range(n + 1)]
    signs = [sign(x) for x in grid]
    roots = sorted(roots)
    for x0, x1, s0, s1 in zip(grid, grid[1:], signs, signs[1:]):
        if (s0 < 0.0) == (s1 < 0.0) or s0 == 0.0 or s1 == 0.0:
            continue
        slack = 1e-9 * max(1.0, abs(x0), abs(x1))
        if any(x0 - slack <= r <= x1 + slack for r in roots):
            continue
        a, b = x0, x1
        for _ in range(60):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if (sign(mid) < 0.0) == (s0 < 0.0) else (a, mid)
        try:
            trusted = cf.log_condition(problem, a) <= TRUSTED_LOG_COND
        except cf.Undecided:
            trusted = False
        if trusted:
            f.missed.append(f"{where}: D changes sign in [{x0!r}, {x1!r}] but "
                            f"no root was reported there")
        else:
            f.unchecked["root missed past the rounding limit"] += 1


def check_complex_roots(problem: dict, roots: list[tuple], re: tuple[float, float],
                        im: tuple[float, float], where: str, f: Findings) -> None:
    """``roots`` holds ``(re, im, zeros, norm)`` per reported eigenvalue.
    Each must be a zero of D (real ones also get the count and norm checks),
    non-real ones must come in exact conjugate pairs, and the argument
    principle must count as many zeros in the rectangle.  A reported point
    with no zero of D near it at all is the known spurious-root defect."""
    keys = {(r, i) for r, i, _, _ in roots}
    found = 0
    for r, i, zeros, norm in roots:
        z = complex(r, i)
        step = cf.newton_step(problem, r) if i == 0.0 else \
            cf.newton_step_complex(problem, z)
        if abs(step) <= 1e-8 * max(1.0, abs(z)):
            found += 1
            if i == 0.0:
                check_real_root(problem, r, zeros, norm, where, f)
        else:
            h = 0.05 * max(1.0, abs(z))
            try:
                near = cf.winding_number(problem, (r - h, r + h), (i - h, i + h))
            except cf.Undecided:
                near = None
            (f.known if near == 0 else f.bad).append(
                f"{where}: {z!r} is not a root of D (Newton step {step!r})")
        if i != 0.0 and (r, -i) not in keys:
            f.bad.append(f"{where}: {z!r} has no exact conjugate partner")
    try:
        count = cf.winding_number(problem, re, im)
    except cf.Undecided:
        f.unchecked["complex rectangle: contour too close to a root"] += 1
        return
    if count > found:
        f.missed.append(f"{where}: {found} roots reported, the argument "
                        f"principle counts {count}")
    elif count < found:
        f.bad.append(f"{where}: {found} roots reported, the argument principle "
                     f"counts {count}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    trace_ops = 0       # pool prefix replayed by the traced run
    reference = "kernel"    # what timed intervals are scaled by (run.py)

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def generate(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def prepare(self, ops: list[dict], lib, workdir: Path) -> list[Callable]:
        raise NotImplementedError

    def warm_up(self, lib, workdir: Path) -> None:
        raise NotImplementedError

    def check(self, ops: list[dict], outputs: dict, lib, workdir: Path,
              f: Findings) -> None:
        raise NotImplementedError


class ScanConst(Workload):
    name = "scan_const"
    pool = 96
    trace_ops = 24
    KINDS = ("one_tp", "two_tp", "application", "random")

    def generate(self, seed: int) -> list[dict]:
        rng = self.rng(seed)
        ops = []
        for i in range(self.pool):
            kind = self.KINDS[i % len(self.KINDS)]
            half_width = log_range(spread_1d(rng, i // len(self.KINDS)),
                                   60.0, 250.0)
            ops.append({"kind": kind, "problem": const_problem(kind, rng),
                        "window": [-half_width, half_width]})
        return ops

    def prepare(self, ops, lib, workdir):
        def runner(op):
            spec = lib.coefficients.problem_from_dict(op["problem"])
            window = tuple(op["window"])
            return lambda: lib.richardson.richardson_numbers(spec, window)
        return [runner(op) for op in ops]

    def warm_up(self, lib, workdir):
        lib.richardson.richardson_numbers(
            lib.coefficients.problem_from_dict(one_tp(-10.0)), (-60.0, 60.0))

    def check(self, ops, outputs, lib, workdir, f):
        for i, op in enumerate(ops):
            if i not in outputs:
                continue
            report = outputs[i]
            where = f"op {i} ({op['kind']}, window {op['window']})"
            recs = report.scan.records
            for r in recs:
                check_real_root(op["problem"], r.re_lambda, r.zeros_in_ab,
                                r.weighted_norm, where, f)
            check_coverage(op["problem"], [r.re_lambda for r in recs],
                           *op["window"], where, f)


class Pointwise(Workload):
    name = "pointwise"
    pool = 96
    trace_ops = 48
    FUNCS = ("characteristic", "count_zeros", "weighted_norm")
    HIGH_EVERY = 16          # one op in 16 is a high-|lambda| constant-piece call
    HIGH = (6e5, 1e8)

    @staticmethod
    def lam_of(u: float) -> float:
        """|lambda| for a uniform u: 80% of ops in [0, 300], 20% in [300, 1e3]."""
        return 375.0 * u if u < 0.8 else 300.0 + 3500.0 * (u - 0.8)

    def generate(self, seed: int) -> list[dict]:
        """Op ``j`` of the regular ops takes its function, the sign of
        lambda and the sign of the tabulated piece's weight from ``j`` (12
        combinations, cycled), and ``|lambda|`` from the low-discrepancy
        sequence at ``j // 12``; the seed draws the rest."""
        rng = self.rng(seed)
        ops, j = [], 0
        for i in range(self.pool):
            if i % self.HIGH_EVERY == self.HIGH_EVERY - 1:
                lam = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(
                    math.log10(self.HIGH[0]), math.log10(self.HIGH[1]))
                ops.append({"func": self.FUNCS[(i // self.HIGH_EVERY) % 3],
                            "lam": lam, "high": True,
                            "problem": one_tp(rng.uniform(-20.0, 10.0))})
                continue
            cycle, combo = divmod(j, 12)
            sign = 1.0 if combo % 2 == 0 else -1.0
            w_sign = 1.0 if (combo // 2) % 2 == 0 else -1.0
            lam = sign * self.lam_of(spread_1d(rng, cycle))
            ops.append({"func": self.FUNCS[combo // 4], "lam": lam,
                        "problem": tabulated_problem(rng, w_sign, cycle % 2 == 0)})
            j += 1
        return ops

    def _module(self, lib, func: str):
        return lib.richardson if func == "weighted_norm" else lib.spectrum

    def prepare(self, ops, lib, workdir):
        def runner(op):
            spec = lib.coefficients.problem_from_dict(op["problem"])
            mod, func, lam = self._module(lib, op["func"]), op["func"], op["lam"]
            return lambda: getattr(mod, func)(spec, lam)
        return [runner(op) for op in ops]

    def warm_up(self, lib, workdir):
        spec = lib.coefficients.problem_from_dict(
            tabulated_problem(random.Random("pointwise-warm-up"), 1.0, False))
        lib.spectrum.characteristic(spec, 17.0)
        lib.richardson.weighted_norm(spec, 17.0)

    def check(self, ops, outputs, lib, workdir, f):
        for i, op in enumerate(ops):
            if i not in outputs:
                continue
            where = f"op {i} ({op['func']} at {op['lam']!r})"
            value = outputs[i]
            if op.get("high"):
                bad = self._check_high(op, value, where)
            else:
                bad = self._check_tabulated(lib, op, value, where)
            f.bad += bad

    def _check_high(self, op, value, where):
        p, lam = op["problem"], op["lam"]
        if op["func"] == "count_zeros":
            want = cf.count_zeros(p, lam)
            return [] if value == want else [f"{where}: {value} zeros, oracle {want}"]
        if op["func"] == "characteristic":
            m, g = cf.char_log(p, lam)
            ok = (math.isfinite(value) and value != 0.0
                  and (value < 0.0) == (m < 0.0)
                  and abs(math.log(abs(value)) - (math.log(abs(m)) + g)) <= 1e-6)
            return [] if ok else [f"{where}: D = {value!r}, oracle {m!r} * exp({g!r})"]
        signed, absolute = cf.norms(p, lam)
        ok = math.isfinite(value) and abs(value - signed) <= 1e-7 * absolute
        return [] if ok else [f"{where}: norm {value!r}, oracle {signed!r}"]

    @staticmethod
    def _dense_count(oracles, spec, lam: float) -> int:
        """``oracles.dense_zero_count`` extended to the band edges.  That
        count stops at the last sample inside each of the library's bands,
        up to one grid step short of the edge, where the library still
        counts; so the states at ``a + band`` and ``b - band``, taken from
        the end states, join the samples."""
        a, b = spec.a, spec.b
        band = 1e-6 * (b - a)
        (y_b, yp_b), xs, ys = oracles.ivp_states(spec, lam, xs_per_piece=20_001)
        keep = (xs > a + band) & (xs < b - band)
        y_a = math.sin(spec.alpha) + band * math.cos(spec.alpha)
        vals = [y_a, *ys[keep].tolist(), y_b - band * yp_b]
        signs = [v > 0.0 for v in vals if v != 0.0]
        return sum(s0 != s1 for s0, s1 in zip(signs, signs[1:]))

    def _check_tabulated(self, lib, op, value, where):
        import oracles      # tests/oracles.py: DOP853, dense signs, Simpson
        spec = lib.coefficients.problem_from_dict(op["problem"])
        lam = op["lam"]
        if op["func"] == "count_zeros":
            want = self._dense_count(oracles, spec, lam)
            return [] if value == want else [f"{where}: {value} zeros, oracle {want}"]
        if op["func"] == "characteristic":
            y, yp = oracles.ivp_states(spec, lam)
            scale = max(1.0, abs(y), abs(yp) / math.sqrt(max(1.0, abs(lam))))
            ok = abs(value - y) <= 1e-8 * scale
            return [] if ok else [f"{where}: D = {value!r}, DOP853 {y!r}"]
        signed = oracles.simpson_weighted_norm(spec, lam, n_per_piece=4001)
        # the tolerance's scale, int |w| y^2, from a coarse mean of y^2 on
        # each integration segment and the weights of the problem file
        n, absolute = 401, 0.0
        _, xs, ys = oracles.ivp_states(spec, lam, xs_per_piece=n)
        for x, y in zip(xs.reshape(-1, n), ys.reshape(-1, n)):
            mid = 0.5 * (x[0] + x[-1])
            w = next(p["w"] for p in op["problem"]["pieces"]
                     if p["x0"] <= mid <= p["x1"])
            absolute += abs(w) * (x[-1] - x[0]) * float((y * y).mean())
        ok = abs(value - signed) <= 1e-7 * absolute
        return [] if ok else [f"{where}: norm {value!r}, Simpson {signed!r}"]


class CliBatch(Workload):
    """One ``python -m slindef.cli`` child at a time.  Each pass of the pool
    runs every command shape once, in an order the seed fixes, with
    problems and parameters drawn afresh for the pass.  The sizes that set
    the cost of the scans come from the low-discrepancy sequence at the
    pass number, and the scanned problem's kind cycles, so every seed's
    four passes cover the same range of costs."""

    name = "cli_batch"
    passes = 4
    trace_ops = 24
    reference = "child"

    def generate(self, seed: int) -> list[dict]:
        rng = self.rng(seed)
        order = list(range(12))
        rng.shuffle(order)
        ops = []
        for p in range(self.passes):
            shapes = self._pass(rng, p)
            ops += [shapes[k] for k in order]
        return ops

    def _pass(self, rng: random.Random, p: int) -> list[dict]:
        m_app = rng.uniform(0.8, 3.0)
        d = math.pi / (2.0 * math.sqrt(5.0 * m_app))
        w = log_range(spread_1d(rng, p), 60.0, 250.0)
        re_half = 10.0 + 30.0 * spread_1d(rng, p)
        im_half = 5.0 + 15.0 * spread_1d(rng, p)
        files = {
            "p_golden": one_tp(-10.0),
            f"p_scan{p}": const_problem(ScanConst.KINDS[p % len(ScanConst.KINDS)],
                                        rng),
            f"p_app{p}": application(rng.uniform(-3.0, 3.0)),
            f"p_nondef{p}": one_tp(rng.uniform(6.0, 25.0)),
            f"p_classify{p}": const_problem(rng.choice(("one_tp", "two_tp")),
                                            rng),
            f"p_prop3{p}": one_tp(rng.uniform(-15.0, -5.0)),
            f"p_prop5{p}": application(0.0),
        }
        lam = _first_positive_eigenvalue(files[f"p_prop3{p}"])
        mus = ",".join(["0.0"] * (cf.count_zeros(files[f"p_prop3{p}"], lam,
                                                  at_root=True) + 1))
        ops = [
            {"argv": ["scan", "p_golden", "--window", "-60", "60",
                      "--format", "csv"], "golden": True},
            {"argv": ["scan", f"p_scan{p}", "--window", repr(-w), repr(w)]},
            {"argv": ["richardson", f"p_app{p}", "--window",
                      repr(-30.0 - 30.0 * spread_1d(rng, p)),
                      repr(25.0 + 35.0 * spread_1d(rng, p)),
                      "--format", "csv", "--drift"]},
            {"argv": ["complex-scan", f"p_nondef{p}", "--re", repr(-re_half),
                      repr(re_half), "--im", repr(-im_half), repr(im_half)]},
            {"argv": ["classify", f"p_classify{p}"]},
            {"argv": ["certify", "--kind", "one_tp",
                      "--q0", repr(rng.uniform(-20.0, -3.0))]},
            {"argv": ["certify", "--kind", "application", "--m", repr(m_app),
                      "--q-const", repr(rng.uniform(-0.9, 0.9) * m_app)]},
            {"argv": ["certify", f"p_prop3{p}", "--kind", "prop3",
                      "--lam", repr(lam), "--mu", mus]},
            {"argv": ["certify", f"p_prop5{p}", "--kind", "prop5",
                      "--mu", repr(2.0 * m_app), "--lambda-star",
                      repr(10.5 * m_app), "--c", "0",
                      "--d", repr(d), "--e", repr(1.0 + d)]},
            {"argv": ["scan", "p_missing", "--window", "-10", "10"], "rc": 2},
            {"argv": ["scan", f"p_scan{p}", "--window", "10", "-10"], "rc": 2},
            {"argv": ["certify", "--kind", "one_tp",
                      "--q0", repr(rng.uniform(-2.0, 5.0))], "rc": 4},
        ]
        for op in ops:
            op.setdefault("rc", 0)
            op["files"] = {name: files[name] for name in files
                           if name in op["argv"]}
        return ops

    @staticmethod
    def argv(op: dict, workdir: Path) -> list[str]:
        """Problem names become paths under the work directory."""
        names = set(op["files"]) | {"p_missing"}
        return [str(workdir / f"{a}.json") if a in names else a
                for a in op["argv"]]

    def write_files(self, ops, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            for name, problem in op["files"].items():
                (workdir / f"{name}.json").write_text(
                    json.dumps(problem, indent=2) + "\n", encoding="utf-8")

    def prepare(self, ops, lib, workdir):
        self.write_files(ops, workdir)
        return [self.subprocess_runner(self.argv(op, workdir)) for op in ops]

    @staticmethod
    def subprocess_runner(argv: list[str]) -> Callable:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, "-m", "slindef.cli", *argv]

        def run():
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=120)
            return proc.returncode, proc.stdout
        return run

    @staticmethod
    def inprocess_runner(lib, argv: list[str]) -> Callable:
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = lib.cli.main(list(argv))
            return rc, buf.getvalue().encode("utf-8")
        return run

    def warm_up(self, lib, workdir):
        self.subprocess_runner(["certify", "--kind", "one_tp", "--q0", "-10"])()

    def check(self, ops, outputs, lib, workdir, f):
        golden = (ROOT / "tests" / "golden"
                  / "one_tp_m10_scan.csv").read_bytes()
        for i, op in enumerate(ops):
            if i not in outputs:
                continue
            rc, out = outputs[i]
            where = f"op {i} ({' '.join(op['argv'][:3])})"
            if op["rc"] != 0:
                if out:
                    f.bad.append(f"{where}: exit {rc} but wrote to stdout")
                continue
            ref_rc, ref_out = self.inprocess_runner(lib, self.argv(op, workdir))()
            if (ref_rc, ref_out) != (rc, out):
                f.bad.append(f"{where}: stdout differs from the in-process "
                           f"serialization")
            if op.get("golden") and out != golden:
                f.bad.append(f"{where}: CSV differs from tests/golden")
            self._check_content(op, out.decode("utf-8"), where, f)

    def _check_content(self, op, text, where, f):
        cmd, argv = op["argv"][0], op["argv"]
        problem = op["files"].get(argv[1]) if len(argv) > 1 else None
        if cmd == "scan" and "--format" not in argv:
            doc = json.loads(text)
            roots = [e["re_lambda"] for e in doc["eigenvalues"]]
            for e in doc["eigenvalues"]:
                check_real_root(problem, e["re_lambda"], e["zeros"],
                                e["weighted_norm"], where, f)
            check_coverage(problem, roots, *doc["window"], where, f)
        elif cmd == "richardson":
            rows = [line.split(",") for line in text.strip().split("\n")[1:]]
            for row in rows:
                check_real_root(problem, float(row[0]), int(row[2]),
                                float(row[3]), where, f)
        elif cmd == "complex-scan":
            doc = json.loads(text)
            roots = [(e["re_lambda"], e["im_lambda"], e["zeros"],
                      e["weighted_norm"]) for e in doc["eigenvalues"]]
            check_complex_roots(problem, roots, tuple(doc["rect"]["re"]),
                                tuple(doc["rect"]["im"]), where, f)
        elif cmd == "classify":
            doc = json.loads(text)
            lam0 = cf.lowest_unit_weight_eigenvalue(problem)
            signs = {p["w"] > 0 for p in problem["pieces"]}
            kind = ("orthogonal" if len(signs) == 1
                    else "polar" if lam0 > 0.0 else "nondefinite")
            if not abs(doc["lambda0"] - lam0) <= 1e-8 * max(1.0, abs(lam0)):
                f.bad.append(f"{where}: lambda0 {doc['lambda0']!r}, oracle {lam0!r}")
            if doc["kind"] != kind:
                f.bad.append(f"{where}: kind {doc['kind']!r}, oracle {kind!r}")
        elif cmd == "certify":
            doc = json.loads(text)
            kind = argv[argv.index("--kind") + 1]
            if kind == "one_tp":
                want = -float(argv[argv.index("--q0") + 1]) - QUARTER_PI_SQ
                got, valid = doc["upper"]["bound"], doc["upper"]["valid"]
            elif kind == "application":
                want = 10.5 * float(argv[argv.index("--m") + 1])
                got, valid = doc["bound"], doc["valid"]
            elif kind == "prop3":
                want = float(argv[argv.index("--lam") + 1])
                got, valid = doc["bound"], True
            else:
                want = float(argv[argv.index("--lambda-star") + 1])
                got, valid = doc["bound"], True
            if not (valid and abs(got - want) <= 1e-12 * max(1.0, abs(want))):
                f.bad.append(f"{where}: certificate bound {got!r} (valid "
                           f"{valid}), expected {want!r}")


def _first_positive_eigenvalue(problem: dict) -> float:
    """Smallest positive root of the closed-form D, bisected to the ulp."""
    lo = 1e-3
    s_lo = cf.char_log(problem, lo)[0]
    hi = lo
    while True:
        hi += 0.25
        if (cf.char_log(problem, hi)[0] < 0.0) != (s_lo < 0.0):
            break
        lo = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (cf.char_log(problem, mid)[0] < 0.0) == (s_lo < 0.0):
            lo = mid
        else:
            hi = mid
    m_lo, m_hi = abs(cf.char_log(problem, lo)[0]), abs(cf.char_log(problem, hi)[0])
    return lo if m_lo <= m_hi else hi


WORKLOADS = {w.name: w for w in (ScanConst(), Pointwise(), CliBatch())}
