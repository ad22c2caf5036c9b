"""Top-level acceptance checks.

Each test covers one advertised guarantee of the toolkit, prints exactly one
``[acceptance] <name>: PASS/FAIL`` line (straight to the terminal, bypassing
pytest's capture so the lines survive into piped logs), and enforces the
stated numerical tolerances and runtime budgets.
"""

import math
import random
import sys
import time

import pytest

from slindef import (
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    application_problem,
    bound_one_turning_point,
    certify_application,
    certify_prop3,
    certify_prop4,
    certify_prop5,
    characteristic,
    find_complex_eigenvalues,
    find_real_eigenvalues,
    interior_zeros,
    one_turning_point,
    richardson_numbers,
    solution_at,
    two_turning_point,
    verify_lemma_lower,
    verify_lemma_upper,
    weighted_norm,
)
from slindef.errors import HypothesisViolation, SlindefError

from oracles import simpson_weighted_norm

PI2 = math.pi * math.pi
Q_BOUND_OFFSET = PI2 / 4.0


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}",
              flush=True)


# --------------------------------------------------------------------------
# 1. classical sanity
# --------------------------------------------------------------------------

def test_criterion_1_classical_sanity(capsys):
    t0 = time.monotonic()
    spec = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),)))
    res = find_real_eigenvalues(spec, (0.5, 1000.0), 1e-9)
    elapsed = time.monotonic() - t0

    problems = []
    if len(res.records) < 10:
        problems.append(f"found only {len(res.records)} eigenvalues")
    else:
        for n, rec in enumerate(res.records[:10], start=1):
            want = (n * math.pi) ** 2
            if abs(rec.re_lambda - want) > 1e-9 * want:
                problems.append(f"lambda_{n} off: {rec.re_lambda!r}")
            if rec.zeros_in_ab != n - 1:
                problems.append(
                    f"count at lambda_{n}: {rec.zeros_in_ab} != {n - 1}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (budget 1s)")

    _report(capsys, "1 classical-sanity", not problems,
            f"10 eigenvalues to 1e-9 rel, counts 0..9, {elapsed:.2f}s")
    assert not problems, problems


# --------------------------------------------------------------------------
# 2. one-turning-point bound pair
# --------------------------------------------------------------------------

def test_criterion_2_one_turning_point_bounds(capsys):
    t0 = time.monotonic()
    problems = []
    for q0 in (-3.0, -5.0, -10.0, -25.0):
        lim = abs(q0) + 50.0
        rep = richardson_numbers(one_turning_point(q0), (-lim, lim), 1e-9)
        upper = abs(q0) - Q_BOUND_OFFSET
        lower = -abs(q0) + Q_BOUND_OFFSET
        if rep.lambda_plus is None or rep.lambda_minus is None:
            problems.append(f"q0={q0}: thresholds not resolved")
            continue
        if not rep.lambda_plus <= upper + 1e-6:
            problems.append(
                f"q0={q0}: lambda_plus {rep.lambda_plus!r} > {upper!r}")
        if not rep.lambda_minus >= lower - 1e-6:
            problems.append(
                f"q0={q0}: lambda_minus {rep.lambda_minus!r} < {lower!r}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s (budget 10s)")

    _report(capsys, "2 one-turning-point-bounds", not problems,
            f"4 potentials, both thresholds inside the certified range, "
            f"{elapsed:.2f}s")
    assert not problems, problems


# --------------------------------------------------------------------------
# 3. block-weight application bound
# --------------------------------------------------------------------------

def test_criterion_3_application_bound(capsys):
    t0 = time.monotonic()
    problems = []

    cert1 = certify_application(1.0)
    if not cert1.valid:
        problems.append(f"M=1 certificate invalid: {cert1.failed_conditions}")
    if abs(cert1.bound - 10.5) > 1e-12:
        problems.append(f"M=1 bound {cert1.bound!r} != 10.5")
    rep1 = richardson_numbers(application_problem(0.0), (-40.0, 30.0), 1e-9)
    if rep1.lambda_plus is None or not rep1.lambda_plus < 10.5:
        problems.append(f"M=1 scan lambda_plus {rep1.lambda_plus!r} not < 10.5")

    cert2 = certify_application(2.0, -1.0)
    if not cert2.valid:
        problems.append(f"M=2 certificate invalid: {cert2.failed_conditions}")
    if abs(cert2.bound - 21.0) > 1e-12:
        problems.append(f"M=2 bound {cert2.bound!r} != 21.0")
    rep2 = richardson_numbers(application_problem(-1.0), (-60.0, 45.0), 1e-9)
    if rep2.lambda_plus is None or not rep2.lambda_plus < 21.0:
        problems.append(f"M=2 scan lambda_plus {rep2.lambda_plus!r} not < 21")

    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s (budget 10s)")

    _report(capsys, "3 application-bound", not problems,
            f"M=1 bound 10.5 and M=2 bound 21 both certified and respected, "
            f"{elapsed:.2f}s")
    assert not problems, problems


# --------------------------------------------------------------------------
# 4. randomized certificate soundness sweep
# --------------------------------------------------------------------------

def _two_tp_certificates(spec, A, B, C, q0):
    """Attempt every applicable certificate on a drawn three-block problem.
    Returns a list of (description, valid, direction, bound) tuples."""
    out = []
    # sign-pocket certificate with the equality comparison family:
    # mu w + q crosses zero exactly where the weight does
    mu_lo = max(0.0, -q0 / B)
    if q0 > 0.0:
        mu_lo = max(mu_lo, q0 / abs(A), q0 / abs(C))
    mu_hi = (PI2 / 4.0 - q0) / B
    if mu_lo <= mu_hi:
        mu5 = mu_lo + 0.25 * (mu_hi - mu_lo)
        lam_star = (1.1 * PI2 - q0) / B
        try:
            cert = certify_prop5(spec, mu5, lam_star, c=0.0, d=1.0, e=1.5)
            out.append(("prop5", cert))
        except SlindefError:
            pass
        try:
            cert = certify_prop4(spec, mu5, lam_star, c=0.0, d=1.0, e=1.5)
            out.append(("prop4", cert))
        except SlindefError:
            pass
    return out


def test_criterion_4_certificate_soundness_sweep(capsys):
    t0 = time.monotonic()
    rng = random.Random(20260814)
    problems = []
    n_valid = 0
    n_checked = 0
    n_skipped = 0

    def check(tag, cert, lam_plus, lam_minus):
        # A scan that reports no threshold inside its trusted window cannot
        # contradict the certificate; such draws are skipped, with a cap
        # below so the sweep cannot pass vacuously.
        nonlocal n_valid, n_checked, n_skipped
        if not cert.valid:
            return
        n_valid += 1
        if cert.direction == "upper_on_lambda_plus":
            if lam_plus is None:
                n_skipped += 1
            else:
                n_checked += 1
                if not lam_plus <= cert.bound + 1e-6:
                    problems.append(
                        f"{tag}: lambda_plus {lam_plus!r} violates "
                        f"bound {cert.bound!r}")
        elif cert.direction == "lower_on_lambda_minus":
            if lam_minus is None:
                n_skipped += 1
            else:
                n_checked += 1
                if not lam_minus >= cert.bound - 1e-6:
                    problems.append(
                        f"{tag}: lambda_minus {lam_minus!r} violates "
                        f"bound {cert.bound!r}")

    # 38 random three-block draws.  The scan window is capped at the
    # norm-trust limit: matrix entries reach exp(2*sqrt(|lambda| max|w|)),
    # so past |lambda| ~ 240/max|w| the weighted norm of a decaying
    # eigenfunction cancels below the double-precision floor and its sign
    # is meaningless; scanning there tells us nothing about thresholds.
    for i in range(38):
        A = rng.uniform(-3.0, -0.5)
        C = rng.uniform(-3.0, -0.5)
        B = rng.uniform(0.5, 3.0)
        q0 = rng.uniform(-20.0, 5.0)
        spec = two_turning_point(A, B, C, q0)
        lam_star_guess = (1.1 * PI2 - q0) / B
        second_positive = (4.0 * PI2 - q0) / B
        trust = 240.0 / max(abs(A), B, abs(C))
        lim = min(trust,
                  max(60.0, second_positive + 15.0,
                      1.3 * lam_star_guess + 10.0))
        rep = richardson_numbers(spec, (-lim, lim), 1e-9)
        lam_plus, lam_minus = rep.lambda_plus, rep.lambda_minus
        tag = f"draw{i} A={A:.3f} B={B:.3f} C={C:.3f} q0={q0:.3f}"

        for kind, cert in _two_tp_certificates(spec, A, B, C, q0):
            check(f"{tag} {kind}", cert, lam_plus, lam_minus)

        # eigenvalue-anchored certificate at the observed threshold
        if lam_plus is not None:
            zeros = interior_zeros(spec, lam_plus)
            mus = [min(0.0, lam_plus - 1.0)] * (len(zeros) + 1)
            if all(m < lam_plus for m in mus):
                try:
                    cert = certify_prop3(spec, lam_plus, mus)
                    check(f"{tag} prop3", cert, lam_plus, lam_minus)
                except SlindefError:
                    pass

    # 6 forced block-application draws
    for i in range(6):
        q0 = rng.uniform(-20.0, 5.0)
        M = max(abs(q0), 0.6)
        cert = certify_application(M, q0)
        lim_lo = -40.0 - 3.0 * abs(q0)
        lim_hi = 30.0 + 3.0 * abs(q0)
        rep = richardson_numbers(application_problem(q0), (lim_lo, lim_hi),
                                 1e-9)
        check(f"app{i} q0={q0:.3f} M={M:.3f}", cert,
              rep.lambda_plus, rep.lambda_minus)

    # 6 forced one-turning-point draws
    for i in range(6):
        q0 = rng.uniform(-20.0, -2.6)
        upper, lower = bound_one_turning_point(q0)
        lim = abs(q0) + 50.0
        rep = richardson_numbers(one_turning_point(q0), (-lim, lim), 1e-9)
        check(f"onetp{i} q0={q0:.3f} upper", upper,
              rep.lambda_plus, rep.lambda_minus)
        check(f"onetp{i} q0={q0:.3f} lower", lower,
              rep.lambda_plus, rep.lambda_minus)

    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.2f}s (budget 120s)")
    if n_valid < 15:
        problems.append(f"only {n_valid} valid certificates over the sweep; "
                        f"the check is close to vacuous")
    if n_skipped > 10:
        problems.append(f"{n_skipped} certificates had no scan threshold to "
                        f"compare against; too many for a meaningful sweep")

    _report(capsys, "4 certificate-soundness-sweep", not problems,
            f"50 problems, {n_valid} valid certificates, {n_checked} bound "
            f"comparisons, {n_skipped} threshold-less skips, {elapsed:.1f}s")
    assert not problems, problems


# --------------------------------------------------------------------------
# 5. threshold structure of the oscillation counts
# --------------------------------------------------------------------------

def test_criterion_5_count_multiset_structure(capsys):
    res = find_real_eigenvalues(one_turning_point(-10.0), (-60.0, 60.0), 1e-9)
    counts = [r.zeros_in_ab for r in res.records]
    n_r = res.n_r_empirical

    problems = []
    if n_r is None:
        problems.append(f"no threshold inferred from counts {counts}")
    else:
        if any(c < n_r for c in counts):
            problems.append(f"counts below the threshold exist: {counts}")
        for m in range(n_r, max(counts) + 1):
            if counts.count(m) < 2:
                problems.append(f"count {m} appears {counts.count(m)} time(s)")

    _report(capsys, "5 count-threshold-structure", not problems,
            f"counts {sorted(counts)}, inferred threshold {n_r}")
    assert not problems, problems


# --------------------------------------------------------------------------
# 6. existence of non-real eigenvalues across the potential sweep
# --------------------------------------------------------------------------

def test_criterion_6_nonreal_sweep(capsys):
    t0 = time.monotonic()
    problems = []
    rect = {"re": (-20.0, 20.0), "im": (-20.0, 20.0)}

    hits = []
    for step in range(57):                      # q0 = 2.0, 2.5, ..., 30.0
        q0 = 2.0 + 0.5 * step
        spec = one_turning_point(q0)
        records = find_complex_eigenvalues(spec, rect, 1e-9)
        as_set = {(r.re_lambda, r.im_lambda) for r in records}
        if {(re, -im) for re, im in as_set} != as_set:
            problems.append(f"q0={q0}: returned set is not conjugate-symmetric")
        pairs = [r for r in records if 1e-3 <= abs(r.im_lambda) <= 20.0]
        for r in pairs:
            d = characteristic(spec, complex(r.re_lambda, r.im_lambda))
            if abs(d) >= 1e-8:
                problems.append(f"q0={q0}: |D| = {abs(d):.2e} at "
                                f"{r.re_lambda}+{r.im_lambda}j")
        if pairs:
            hits.append(q0)
    if not hits:
        problems.append("no potential in the sweep produced a non-real pair")

    # the mirrored sweep stays real: these potentials confine the positive
    # part of the quadratic form, so no pair may appear
    stray = []
    for step in range(57):                      # q0 = -30.0, ..., -2.0
        q0 = -30.0 + 0.5 * step
        records = find_complex_eigenvalues(one_turning_point(q0), rect, 1e-9)
        stray.extend(r for r in records if abs(r.im_lambda) >= 1e-3)
    if stray:
        problems.append(f"{len(stray)} unexpected non-real roots for "
                        f"negative constant potentials")

    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.2f}s (budget 120s)")

    _report(capsys, "6 nonreal-pair-sweep", not problems,
            f"{len(hits)}/57 positive potentials give verified pairs, "
            f"0 stray pairs on the mirrored sweep, {elapsed:.1f}s")
    assert not problems, problems


# --------------------------------------------------------------------------
# 7. comparison-lemma sweeps
# --------------------------------------------------------------------------

def test_criterion_7_lemma_sweeps(capsys):
    problems = []

    exact = verify_lemma_upper(0.0)
    if not (exact.holds and abs(exact.lhs - 1.0 / 3.0) < 1e-15
            and abs(exact.rhs - 0.5) < 1e-15):
        problems.append(f"mu=0 case: lhs={exact.lhs!r} rhs={exact.rhs!r}")

    lo, hi = -50.0, PI2 / 4.0
    for j in range(200):
        mu = lo + (hi - lo) * (j + 0.5) / 200.0
        try:
            res = verify_lemma_upper(mu)
        except HypothesisViolation as exc:
            problems.append(f"upper mu={mu!r}: rejected ({exc})")
            continue
        if not res.holds:
            problems.append(f"upper mu={mu!r}: lhs={res.lhs!r} rhs={res.rhs!r}")

    # admissible frequencies have sin 2k <= 0; cover the first such band
    for i in range(100):
        k = math.pi / 2.0 + (math.pi / 2.0) * (i + 0.5) / 100.0
        mu = k * k
        try:
            res = verify_lemma_lower(mu)
        except HypothesisViolation as exc:
            problems.append(f"lower k={k!r}: rejected ({exc})")
            continue
        if not res.holds:
            problems.append(f"lower k={k!r}: lhs={res.lhs!r} rhs={res.rhs!r}")

    _report(capsys, "7 lemma-sweeps", not problems,
            "200 upper points, 100 lower points, exact 1/3 < 1/2 reproduced")
    assert not problems, problems


# --------------------------------------------------------------------------
# 8. numerical invariants
# --------------------------------------------------------------------------

def _draw_spec(rng):
    kind = rng.randrange(5)
    if kind == 0:
        w = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        return ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, rng.uniform(0.4, 2.0), w, rng.uniform(-20.0, 20.0)),)))
    if kind == 1:
        return one_turning_point(rng.uniform(-25.0, 25.0))
    if kind == 2:
        return two_turning_point(rng.uniform(-3.0, -0.5),
                                 rng.uniform(0.5, 3.0),
                                 rng.uniform(-3.0, -0.5),
                                 rng.uniform(-20.0, 5.0))
    if kind == 3:
        return application_problem(rng.uniform(-10.0, 10.0))
    x1 = rng.uniform(0.5, 1.5)
    table = ((0.0, rng.uniform(-10.0, 10.0)),
             (0.5 * x1, rng.uniform(-10.0, 10.0)),
             (x1, rng.uniform(-10.0, 10.0)))
    return ProblemSpec(PiecewiseCoefficient((
        Piece(0.0, x1, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), table),
    )))


def test_criterion_8_numerical_invariants(capsys):
    rng = random.Random(987654321)
    problems = []

    # (a) unit Wronskian of the fundamental pair (the solutions with
    # alpha = pi/2 and alpha = 0) at b across 1000 draws with
    # |lambda| <= 1e4, measured relative to the product magnitudes; plus
    # the literal absolute defect in the moderate regime.  The gate for the
    # literal form is the summed growth exponent
    # S = sum_p sqrt(|lam w| + max|q|) * len: the states carry rounding of
    # size eps * exp(2 S), so past S ~ 5 a literal 1e-10 defect is below
    # the representable floor.
    def _growth_exponent(spec, lam):
        total = 0.0
        for p in spec.pieces:
            qlo, qhi = p.q_extremes()
            qmag = max(abs(qlo), abs(qhi))
            total += math.sqrt(abs(lam) * abs(p.w) + qmag) * p.length
        return total

    def _draw_moderate(rng):
        lam = rng.uniform(-20.0, 20.0)
        s0 = rng.choice([-1.0, 1.0])
        if rng.random() < 0.5:
            x1 = rng.uniform(0.3, 0.6)
            spec = ProblemSpec(PiecewiseCoefficient((
                Piece(0.0, x1, s0, rng.uniform(-2.0, 2.0)),
                Piece(x1, 1.0, -s0, rng.uniform(-2.0, 2.0)))))
        else:
            table = ((0.0, rng.uniform(-2.0, 2.0)),
                     (0.4, rng.uniform(-2.0, 2.0)),
                     (1.0, rng.uniform(-2.0, 2.0)))
            spec = ProblemSpec(PiecewiseCoefficient((
                Piece(0.0, 1.0, s0, table),)))
        return spec, lam

    n_literal = 0
    for i in range(1000):
        if i % 10 == 0:
            spec, lam = _draw_moderate(rng)
        else:
            spec = _draw_spec(rng)
            lam = rng.uniform(-1e4, 1e4)
        (u,) = solution_at(ProblemSpec(spec.coeff, math.pi / 2, spec.beta), lam,
                           [spec.b])
        (v,) = solution_at(ProblemSpec(spec.coeff, 0.0, spec.beta), lam, [spec.b])
        det = u.y * v.yp - v.y * u.yp
        scale = max(1.0, abs(u.y * v.yp) + abs(v.y * u.yp))
        if abs(det - 1.0) / scale > 1e-10:
            problems.append(f"draw {i}: relative Wronskian defect "
                            f"{abs(det - 1.0) / scale:.2e}")
        if _growth_exponent(spec, lam) <= 5.2:
            n_literal += 1
            if abs(det - 1.0) > 1e-10:
                problems.append(f"draw {i}: literal det defect "
                                f"{abs(det - 1.0):.2e}")

    # (b) closed-form vs Magnus propagation across 100 draws: the same
    # constant potential, once as a constant and once as a flat table
    for i in range(100):
        lam = rng.uniform(-300.0, 2000.0)
        x1 = rng.uniform(0.4, 1.5)
        w = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.5)
        q0 = rng.uniform(-15.0, 15.0)
        const = Piece(0.0, x1, w, q0)
        table = Piece(0.0, x1, w, ((0.0, q0), (x1, q0)))
        sc = ProblemSpec(PiecewiseCoefficient((const,)))
        st = ProblemSpec(PiecewiseCoefficient((table,)))
        (yc,) = solution_at(sc, lam, [x1])
        (yt,) = solution_at(st, lam, [x1])
        norm = max(1.0, abs(yc.y), abs(yc.yp))
        if abs(yc.y - yt.y) / norm > 1e-8 or abs(yc.yp - yt.yp) / norm > 1e-8:
            problems.append(
                f"route disagreement at lam={lam!r}: "
                f"({yc.y!r}, {yc.yp!r}) vs ({yt.y!r}, {yt.yp!r})")

    # (c) closed-form weighted norm vs a ~1e5-point Simpson oracle
    for i in range(12):
        spec = _draw_spec(rng)
        lam = rng.uniform(-150.0, 300.0)
        got = weighted_norm(spec, lam)
        want = simpson_weighted_norm(spec, lam)
        tol = 1e-8 * max(1.0, abs(want))
        if abs(got - want) > tol:
            problems.append(f"norm draw {i}: {got!r} vs oracle {want!r}")

    _report(capsys, "8 numerical-invariants", not problems,
            f"1000 Wronskian draws ({n_literal} literal), 100 dual-route "
            f"propagations, 12 quadrature cross-checks")
    assert not problems, problems
