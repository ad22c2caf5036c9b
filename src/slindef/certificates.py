"""Mechanically checked a-priori bounds on the type thresholds.

Every certificate reports a :class:`BoundCertificate` carrying the claimed
bound, its direction (an upper bound on the largest nonpositive-type
eigenvalue, or a lower bound on the smallest nonnegative-type one), a
validity flag, and a hypothesis trail: one entry per checked condition with
the computed value, so a failed certificate shows exactly which hypothesis
broke.  Certificates never consult the eigenvalue scan; they are independent
evidence that the scan results can be checked against.
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple, Sequence

from .coefficients import (Piece, PiecewiseCoefficient, ProblemSpec,
                           _as_finite_float, _as_pair, _as_problem,
                           _as_sequence, _as_tol, application_problem,
                           lambda_entry)
from .errors import HypothesisViolation, InvalidProblemError, NumericalFailure
from .propagator import _carry, weighted_norm
from .spectrum import (_bracket_root, _newton_polish, _zero_walk,
                       characteristic_scaled, count_zeros, interior_zeros)

__all__ = [
    "TrailEntry",
    "BoundCertificate",
    "LemmaResult",
    "DisconjugacyWitness",
    "DefinitenessReport",
    "verify_lemma_upper",
    "verify_lemma_lower",
    "bound_one_turning_point",
    "disconjugate_on",
    "certify_prop3",
    "certify_prop4",
    "certify_prop5",
    "certify_application",
    "classify_definiteness",
    "certificate_to_dict",
    "certificate_to_json",
]

_QUARTER_PI_SQ = math.pi * math.pi / 4.0


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {f: _jsonable(getattr(value, f)) for f in value._fields}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class TrailEntry(NamedTuple):
    """One checked hypothesis: a description, the computed value, and the
    verdict."""

    condition: str
    value: object
    passed: bool


class BoundCertificate(NamedTuple):
    """A claimed bound with its full hypothesis trail.

    ``direction`` is ``"upper_on_lambda_plus"`` or
    ``"lower_on_lambda_minus"``; the bound is meaningful only when ``valid``
    is true.
    """

    kind: str
    direction: str
    bound: float
    valid: bool
    hypothesis_trail: tuple[TrailEntry, ...]

    @property
    def failed_conditions(self) -> tuple[str, ...]:
        return tuple(e.condition for e in self.hypothesis_trail if not e.passed)


def _certificate(kind: str, direction: str, bound: float,
                 trail: Sequence[TrailEntry]) -> BoundCertificate:
    """The one way a certificate is built: it is valid exactly when every
    row of its trail passed."""
    return BoundCertificate(kind=kind, direction=direction, bound=bound,
                            valid=all(e.passed for e in trail),
                            hypothesis_trail=tuple(trail))


def certificate_to_dict(cert: BoundCertificate) -> dict:
    return _jsonable(cert)


def certificate_to_json(cert: BoundCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Unit-interval comparison lemmas
# ---------------------------------------------------------------------------

class LemmaResult(NamedTuple):
    """Outcome of a unit-interval integral comparison."""

    mu: float
    side: str
    lhs: float
    rhs: float
    strict: bool
    holds: bool
    witness: str


def _check_side(side: str) -> str:
    if side not in ("right", "left"):
        raise InvalidProblemError(f"side must be 'right' or 'left', got {side!r}")
    return side


def verify_lemma_upper(mu: float, side: str = "right") -> LemmaResult:
    """For ``mu < pi^2/4``, the solution of ``y'' + mu y = 0`` vanishing at
    the inner end of a unit interval satisfies
    ``int y^2 < 1/2 * y(outer)^2``.  Evaluates both sides on the canonical
    witness and reports the strict comparison."""
    side = _check_side(side)
    mu = _as_finite_float(mu, "mu")
    if not mu < _QUARTER_PI_SQ:
        raise HypothesisViolation(
            f"upper lemma needs mu < pi^2/4 = {_QUARTER_PI_SQ!r}, got {mu!r}")
    if mu > 0.0:
        k = math.sqrt(mu)
        lhs = 0.5 * (1.0 - math.sin(2.0 * k) / (2.0 * k))
        rhs = 0.5 * math.sin(k) ** 2
        shape = "sin(sqrt(mu) t)"
    elif mu == 0.0:
        lhs = 1.0 / 3.0
        rhs = 0.5
        shape = "t"
    else:
        kap = math.sqrt(-mu)
        lhs = 0.5 * (math.sinh(2.0 * kap) / (2.0 * kap) - 1.0)
        rhs = 0.5 * math.sinh(kap) ** 2
        shape = "sinh(sqrt(-mu) t)"
    witness = (f"y = {shape}, t = x on (0, 1)" if side == "right"
               else f"y = {shape}, t = x + 1 on (-1, 0)")
    return LemmaResult(mu=mu, side=side, lhs=lhs, rhs=rhs, strict=True,
                       holds=lhs < rhs, witness=witness)


_ADMISSIBILITY_SNAP = 1e-12


def verify_lemma_lower(mu: float, side: str = "right") -> LemmaResult:
    """For ``mu = k^2 > 0`` with ``sin(2k) < 0`` (so the witness vanishing at
    the outer end has positive boundary product at the inner end), the
    comparison reverses: ``int y^2 > 1/2 * y(inner)^2``.  At ``sin(2k) = 0``
    the comparison is non-strict."""
    side = _check_side(side)
    mu = _as_finite_float(mu, "mu")
    if not mu > 0.0:
        raise HypothesisViolation(f"lower lemma needs mu > 0, got {mu!r}")
    k = math.sqrt(mu)
    s2k = math.sin(2.0 * k)
    if s2k > _ADMISSIBILITY_SNAP:
        raise HypothesisViolation(
            f"k = sqrt(mu) = {k!r} is inadmissible: sin(2k) = {s2k!r} > 0, so "
            f"the witness boundary product has the wrong sign")
    strict = s2k < -_ADMISSIBILITY_SNAP
    lhs = 0.5 * (1.0 - s2k / (2.0 * k))
    rhs = 0.5 * math.sin(k) ** 2
    holds = lhs > rhs if strict else lhs >= rhs
    witness = (f"y = sin(sqrt(mu) (x - 1)) on (0, 1)" if side == "right"
               else f"y = sin(sqrt(mu) (x + 1)) on (-1, 0)")
    return LemmaResult(mu=mu, side=side, lhs=lhs, rhs=rhs, strict=strict,
                       holds=holds, witness=witness)


# ---------------------------------------------------------------------------
# One turning point: closed-form bound pair
# ---------------------------------------------------------------------------

def bound_one_turning_point(q0: float) -> tuple[BoundCertificate, BoundCertificate]:
    """For the sign-weight problem on [-1, 1] with constant potential
    ``q0 < -pi^2/4``: the largest nonpositive-type eigenvalue is at most
    ``|q0| - pi^2/4`` and, by the ``lambda -> -lambda`` symmetry of the
    family, the smallest nonnegative-type eigenvalue is at least its
    negative.  Returns ``(upper, lower)`` certificates."""
    q0 = _as_finite_float(q0, "q0")
    if not q0 < -_QUARTER_PI_SQ:
        raise HypothesisViolation(
            f"bound needs q0 < -pi^2/4 = {-_QUARTER_PI_SQ!r}, got {q0!r}; "
            f"the bound does not apply")
    bound = -q0 - _QUARTER_PI_SQ
    trail = (
        TrailEntry("q0 < -pi^2/4", q0, True),
        TrailEntry("bound = |q0| - pi^2/4", bound, True),
    )
    mirror = TrailEntry("mirror symmetry lambda -> -lambda", -bound, True)
    return (_certificate("one_tp", "upper_on_lambda_plus", bound, trail),
            _certificate("one_tp", "lower_on_lambda_minus", -bound,
                         trail + (mirror,)))


# ---------------------------------------------------------------------------
# Disconjugacy witnesses
# ---------------------------------------------------------------------------

class DisconjugacyWitness(NamedTuple):
    """Evidence that ``u'' + (mu w + q) u = 0`` is disconjugate on an
    interval: the principal-type solution stays positive; ``min_value`` is
    its smallest sampled value past the left endpoint."""

    interval: tuple[float, float]
    mu: float
    min_value: float
    method: str


def _clip_pieces(coeff: PiecewiseCoefficient, x_from: float,
                 x_to: float) -> list[Piece]:
    """Pieces restricted to ``[x_from, x_to]``, extending the first piece's
    left-end values constantly when ``x_from < a``."""
    out: list[Piece] = []
    if x_from < coeff.a:
        first = coeff.pieces[0]
        out.append(Piece(x_from, coeff.a, first.w, first.q_at(coeff.a)))
        x_from = coeff.a
    for piece in coeff.pieces:
        lo = max(piece.x0, x_from)
        hi = min(piece.x1, x_to)
        if hi <= lo:
            continue
        out.append(Piece(lo, hi, piece.w, piece.q if piece.has_constant_q
                         else piece.q_table(lo, hi)))
    return out


def _range_of(coeff: PiecewiseCoefficient, factor: float, lo: float,
              hi: float) -> tuple[float, float]:
    """Exact ``(inf, sup)`` of ``factor * w + q`` over ``[lo, hi]`` (the
    function is piecewise linear in ``x``)."""
    if not (coeff.a <= lo < hi <= coeff.b):
        raise InvalidProblemError(
            f"[{lo!r}, {hi!r}] is not inside [{coeff.a!r}, {coeff.b!r}]")
    vmin = math.inf
    vmax = -math.inf
    for piece in coeff.pieces:
        plo = max(piece.x0, lo)
        phi = min(piece.x1, hi)
        if phi <= plo:
            continue
        qmin, qmax = piece.q_extremes(plo, phi)
        vmin = min(vmin, factor * piece.w + qmin)
        vmax = max(vmax, factor * piece.w + qmax)
    return vmin, vmax


def disconjugate_on(obj: ProblemSpec | PiecewiseCoefficient, mu: float,
                    interval: tuple[float, float]) -> DisconjugacyWitness | None:
    """Try to certify that ``u'' + (mu w + q) u = 0`` is disconjugate on the
    closed interval.

    Returns a witness, or ``None`` when the certification fails (which does
    not prove conjugacy, only that this test could not rule it out).  The
    test launches the solution with ``u = 0, u' = 1`` slightly left of the
    interval (constantly extending the coefficients below ``a`` if needed)
    and requires it to stay positive through the right endpoint; when
    ``mu w + q <= 0`` holds throughout, the sign condition already implies
    the result and the method is labeled ``"comparison"``.
    """
    coeff = obj if isinstance(obj, PiecewiseCoefficient) else _as_problem(obj).coeff
    c, d = _as_pair(interval, "interval")
    if not (coeff.a <= c < d <= coeff.b):
        raise InvalidProblemError(
            f"interval {interval!r} is not inside [{coeff.a!r}, {coeff.b!r}]")
    mu = _as_finite_float(mu, "mu")
    delta = 1e-6 * (d - c)
    start = c - delta

    _, sup = _range_of(coeff, mu, c, d)
    method = "comparison" if sup <= 0.0 else "principal_solution"

    pieces = _clip_pieces(coeff, start, d)
    sub = ProblemSpec(PiecewiseCoefficient(tuple(pieces)))
    if count_zeros(sub, mu):
        return None
    # the solution on 32 equal steps of each piece past c (at c it is only
    # the launch offset); the grid ends at x = d, so a positive minimum
    # covers the end state
    min_u = math.inf
    u, up = 0.0, 1.0
    for piece in sub.pieces:
        x = piece.x0
        for j in range(1, 33):
            xj = piece.x0 + piece.length * (j / 32) if j < 32 else piece.x1
            u, up = _carry(piece, mu, u, up, x, xj)
            x = xj
            if x > c and u < min_u:
                min_u = u
    if not (min_u > 0.0 and math.isfinite(min_u)):
        return None
    return DisconjugacyWitness(interval=(c, d), mu=mu, min_value=min_u,
                               method=method)


# ---------------------------------------------------------------------------
# Certificates from disconjugacy across zero gaps
# ---------------------------------------------------------------------------

def _disconjugacy_row(spec: ProblemSpec, mu: float, g0: float,
                      g1: float) -> TrailEntry:
    """The trail row of a :func:`disconjugate_on` check on ``[g0, g1]``."""
    witness = disconjugate_on(spec, mu, (g0, g1))
    return TrailEntry(
        f"disconjugate on [{g0!r}, {g1!r}] at mu={mu!r}",
        None if witness is None else
        {"min_value": witness.min_value, "method": witness.method},
        witness is not None)


def certify_prop3(spec: ProblemSpec, lam: float, mus: Sequence[float],
                  tol: float = 1e-8) -> BoundCertificate:
    """Bound the type thresholds by an eigenvalue ``lam`` whose zero gaps all
    carry disconjugacy witnesses at comparison values ``mus``.

    ``mus`` supplies one value per gap between consecutive zeros of the
    eigenfunction (endpoints included as outer gap ends).  All ``mus`` below
    ``lam`` certify ``lambda_plus <= lam``; all above certify
    ``lambda_minus >= lam``; a mix is rejected and equality with ``lam``
    violates the hypotheses.
    """
    lam = _as_finite_float(lam, "lambda")
    mus = [_as_finite_float(m, "mu") for m in _as_sequence(mus, "mus")]
    tol = _as_tol(tol)
    d, scale = characteristic_scaled(spec, lam)
    if abs(d) > tol * scale:
        raise InvalidProblemError(
            f"lambda={lam!r} is not an eigenvalue to tolerance: "
            f"|D|/scale = {abs(d) / scale!r} > {tol!r}")
    zeros = interior_zeros(spec, lam)
    bounds = [spec.a] + zeros + [spec.b]
    gaps = list(zip(bounds, bounds[1:]))
    if len(mus) != len(gaps):
        raise InvalidProblemError(
            f"need one mu per zero gap: {len(gaps)} gaps "
            f"(eigenfunction has {len(zeros)} interior zeros), got {len(mus)} mus")
    for m in mus:
        if m == lam:
            raise HypothesisViolation(
                f"mu = lambda = {lam!r}; comparison values must differ from "
                f"the eigenvalue")
    below = all(m < lam for m in mus)
    above = all(m > lam for m in mus)
    if not (below or above):
        raise InvalidProblemError(
            "comparison values must all lie on the same side of lambda")
    direction = "upper_on_lambda_plus" if below else "lower_on_lambda_minus"

    trail = [TrailEntry(f"lambda={lam!r} is an eigenvalue (|D|/scale)",
                        abs(d) / scale, True)]
    trail += [_disconjugacy_row(spec, m, g0, g1)
              for (g0, g1), m in zip(gaps, mus)]
    return _certificate("prop3", direction, lam, trail)


def _pocket_args(spec: ProblemSpec, mu: float, lambda_star: float, c: float,
                 d: float, e: float) -> tuple[float, float]:
    """``mu`` and ``lambda_star`` as floats, after the pocket certificates'
    shared preconditions: a problem, every parameter finite, ordering inside the
    interval, positive weight throughout ``(c, d)``, negative weight
    throughout ``(e, b)``, and ``lambda_star > mu``."""
    _as_problem(spec)
    mu, lambda_star, _, _, _ = (
        _as_finite_float(v, name) for v, name in
        ((mu, "mu"), (lambda_star, "lambda_star"), (c, "c"), (d, "d"), (e, "e")))
    a, b = spec.a, spec.b
    if not (a <= c < d < e < b):
        raise InvalidProblemError(
            f"need a <= c < d < e < b, got a={a!r}, c={c!r}, d={d!r}, "
            f"e={e!r}, b={b!r}")
    for piece in spec.pieces:
        if min(piece.x1, d) > max(piece.x0, c) and piece.w <= 0.0:
            raise InvalidProblemError(
                f"weight must be positive throughout ({c!r}, {d!r}); piece "
                f"[{piece.x0!r}, {piece.x1!r}] has w={piece.w!r}")
        if min(piece.x1, b) > max(piece.x0, e) and piece.w >= 0.0:
            raise InvalidProblemError(
                f"weight must be negative throughout ({e!r}, {b!r}); piece "
                f"[{piece.x0!r}, {piece.x1!r}] has w={piece.w!r}")
    if not lambda_star > mu:
        raise HypothesisViolation(
            f"lambda_star must exceed mu, got lambda_star={lambda_star!r}, "
            f"mu={mu!r}")
    return mu, lambda_star


def certify_prop4(spec: ProblemSpec, mu: float, lambda_star: float,
                  c: float, d: float, e: float) -> BoundCertificate:
    """Upper bound ``lambda_plus <= lambda_star`` from two checks: the
    comparison equation at ``mu`` is disconjugate on ``[a, e]``, and the left
    solution at ``lambda_star`` vanishes inside ``(c, d)``."""
    mu, lambda_star = _pocket_args(spec, mu, lambda_star, c, d, e)
    disconjugate = _disconjugacy_row(spec, mu, spec.a, e)
    zs = interior_zeros(spec, lambda_star)
    inside = [z for z in zs if c < z < d]
    return _certificate("prop4", "upper_on_lambda_plus", lambda_star, (
        disconjugate,
        TrailEntry(f"solution at lambda_star={lambda_star!r} vanishes in "
                   f"({c!r}, {d!r})",
                   inside[0] if inside else f"zeros at {zs!r}", bool(inside))))


def certify_prop5(spec: ProblemSpec, mu: float, lambda_star: float,
                  c: float, d: float, e: float) -> BoundCertificate:
    """Upper bound ``lambda_plus <= lambda_star`` from five sign and
    frequency conditions checked by exact piecewise arithmetic:

    1. ``mu w + q <= 0`` on ``(a, c)``;
    2. ``mu w + q >= 0`` on ``(c, d)``;
    3. ``mu w + q <= 0`` on ``(d, e)``;
    4. ``(d - c) * sup sqrt(mu w + q) <= pi/2`` on ``(c, d)``;
    5. ``(d - c) * inf sqrt(lambda_star w + q) > pi`` on ``(c, d)``.
    """
    mu, lambda_star = _pocket_args(spec, mu, lambda_star, c, d, e)
    coeff = spec.coeff
    width = d - c

    if spec.a < c:
        _, sup_ac = _range_of(coeff, mu, spec.a, c)
        left_value: object = sup_ac
        left_ok = sup_ac <= 0.0
    else:
        left_value = None  # the region (a, c) is empty
        left_ok = True
    inf_cd, sup_cd = _range_of(coeff, mu, c, d)
    _, sup_de = _range_of(coeff, mu, d, e)
    inf_cd_star, _ = _range_of(coeff, lambda_star, c, d)

    freq_mu = width * math.sqrt(max(0.0, sup_cd))
    freq_star = width * math.sqrt(max(0.0, inf_cd_star))

    trail = (
        TrailEntry(f"sup(mu w + q) <= 0 on ({spec.a!r}, {c!r})", left_value,
                   left_ok),
        TrailEntry(f"inf(mu w + q) >= 0 on ({c!r}, {d!r})", inf_cd,
                   inf_cd >= 0.0),
        TrailEntry(f"sup(mu w + q) <= 0 on ({d!r}, {e!r})", sup_de,
                   sup_de <= 0.0),
        TrailEntry(f"(d - c) sqrt(sup(mu w + q)) <= pi/2 on ({c!r}, {d!r})",
                   freq_mu, freq_mu <= 0.5 * math.pi),
        TrailEntry(f"(d - c) sqrt(inf(lambda* w + q)) > pi on ({c!r}, {d!r})",
                   freq_star, inf_cd_star > 0.0 and freq_star > math.pi),
    )
    return _certificate("prop5", "upper_on_lambda_plus", lambda_star, trail)


# ---------------------------------------------------------------------------
# The worked application bound
# ---------------------------------------------------------------------------

_APP_THRESHOLD = math.pi * math.pi / 20.0


def certify_application(M: float, q: object = 0.0) -> BoundCertificate:
    """Bound ``lambda_plus <= 21 M / 2`` for the weight (-1, 2, -1) on
    [-1, 2] under three potential bounds tied to a single constant ``M``.

    Requires ``M > pi^2/20``.  With ``d = pi / (2 sqrt(5 M))`` the checked
    conditions are ``q <= M`` on ``(-1, 0)``, ``|q| <= M`` on ``(0, d)``, and
    ``q <= M`` on ``(1, 1 + d)``; the certificate is valid exactly when these
    hold.  Two consequence rows record the induced frequency inequalities on
    ``(0, d)`` at ``mu = 2M`` and ``lambda* = 21M/2`` for the concrete ``q``.
    """
    M = _as_finite_float(M, "M")
    if not M > _APP_THRESHOLD:
        raise HypothesisViolation(
            f"application bound needs M > pi^2/20 = {_APP_THRESHOLD!r}, "
            f"got {M!r}; the bound does not apply")
    spec = application_problem(q)
    d = math.pi / (2.0 * math.sqrt(5.0 * M))
    e = 1.0 + d
    mu = 2.0 * M
    bound = 10.5 * M
    lam_star = bound + 1e-9 * M

    coeff = spec.coeff
    _, sup_left = _range_of(coeff, 0.0, -1.0, 0.0)
    qmin_mid, qmax_mid = _range_of(coeff, 0.0, 0.0, d)
    sup_abs_mid = max(abs(qmin_mid), abs(qmax_mid))
    _, sup_right = _range_of(coeff, 0.0, 1.0, e)

    _, sup_cd = _range_of(coeff, mu, 0.0, d)
    inf_cd_star, _ = _range_of(coeff, lam_star, 0.0, d)
    freq_mu = d * math.sqrt(max(0.0, sup_cd))
    freq_star = d * math.sqrt(max(0.0, inf_cd_star))
    slack = 1.0 + 16.0 * 2.220446049250313e-16

    return _certificate("application", "upper_on_lambda_plus", bound, (
        TrailEntry("M > pi^2/20", M, True),
        TrailEntry(f"window width d = pi / (2 sqrt(5 M))", d, True),
        TrailEntry(f"comparison value mu = 2 M", mu, True),
        TrailEntry(f"sup q <= M on (-1, 0)", sup_left, sup_left <= M),
        TrailEntry(f"sup |q| <= M on (0, {d!r})", sup_abs_mid,
                   sup_abs_mid <= M),
        TrailEntry(f"sup q <= M on (1, {e!r})", sup_right, sup_right <= M),
        TrailEntry(f"consequence: (d - 0) sqrt(sup(mu w + q)) <= pi/2 on "
                   f"(0, {d!r}) (within rounding)", freq_mu,
                   freq_mu <= 0.5 * math.pi * slack),
        TrailEntry(f"consequence: (d - 0) sqrt(inf(lambda* w + q)) > pi on "
                   f"(0, {d!r}) (within rounding)", freq_star,
                   inf_cd_star > 0.0 and freq_star > math.pi / slack),
    ))


# ---------------------------------------------------------------------------
# Definiteness classification
# ---------------------------------------------------------------------------

class DefinitenessReport(NamedTuple):
    """Classification of the two quadratic forms attached to the problem:
    the weight form (R) and the energy form (L)."""

    kind: str  # "orthogonal" | "polar" | "nondefinite"
    is_orthogonal: bool
    is_polar: bool
    lambda0: float
    witnesses: dict

    @property
    def summary(self) -> str:
        if self.kind == "orthogonal":
            extra = "; also polar" if self.is_polar else ""
            return f"orthogonal (weight form definite){extra}"
        if self.kind == "polar":
            return ("polar (energy form positive definite): "
                    "the spectrum is real")
        return "nondefinite (both forms indefinite): non-real eigenvalues possible"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "is_orthogonal": self.is_orthogonal,
            "is_polar": self.is_polar,
            "lambda0": self.lambda0,
            "summary": self.summary,
            "witnesses": _jsonable(self.witnesses),
        }


def _unit_weight_spec(spec: ProblemSpec) -> ProblemSpec:
    pieces = tuple(Piece(p.x0, p.x1, 1.0, p.q) for p in spec.pieces)
    return ProblemSpec(PiecewiseCoefficient(pieces), spec.alpha, spec.beta)


def _lowest_unit_weight_eigenvalue(specL: ProblemSpec) -> float:
    """Smallest eigenvalue ``lambda0`` of the unit-weight problem ``specL``;
    its sign decides whether the energy form is positive definite.
    ``specL`` is definite, so by Sturm oscillation ``lambda < lambda0``
    exactly when the left solution has no interior zero and ``D > 0``: step
    out to a bracket, bisect until ``hi`` is under the second eigenvalue
    (``D(hi) < 0``, at most one zero), then refine and polish as the scan
    does."""

    zero_walk = lambda_entry(_zero_walk)

    @functools.cache
    def walk(lam: float) -> tuple[float, int]:
        # D / scale and the zero count, from one walk
        count, d, scale = zero_walk(specL, lam, None)
        return d / scale, count

    def dval(lam: float) -> float:
        return walk(lam)[0]

    def below(lam: float) -> bool:
        return dval(lam) > 0.0 and walk(lam)[1] == 0

    lo, hi = -1.0, 1.0
    while not below(lo):
        lo, hi = 3.0 * lo, lo
    while below(hi):
        lo, hi = hi, 3.0 * hi
    while not (dval(hi) < 0.0 and walk(hi)[1] <= 1):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # lo and hi are adjacent doubles
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    # refined as the real scan refines a bracket at tol = 1e-10
    return _newton_polish(specL, _bracket_root(dval, lo, hi, 1e-10))[0]


def classify_definiteness(spec: ProblemSpec) -> DefinitenessReport:
    """Classify the problem as orthogonal (one-signed weight), polar
    (indefinite weight but positive energy form, hence real spectrum), or
    nondefinite (both forms indefinite), with explicit numeric witnesses."""
    signs = set(_as_problem(spec).coeff.sign_pattern())
    orthogonal = len(signs) == 1
    specL = _unit_weight_spec(spec)
    lambda0 = _lowest_unit_weight_eigenvalue(specL)
    polar = lambda0 > 0.0

    witnesses: dict = {"lambda0": lambda0}
    if not orthogonal:
        pos_piece = next(p for p in spec.pieces if p.w > 0)
        neg_piece = next(p for p in spec.pieces if p.w < 0)
        for name, piece in (("weight_form_positive_trial", pos_piece),
                            ("weight_form_negative_trial", neg_piece)):
            # int w sin^4(pi (x - x0)/len) dx = w * 3 len / 8 for the bump
            # y = sin^2(pi (x - x0)/len) supported on the piece.
            witnesses[name] = {
                "interval": (piece.x0, piece.x1),
                "trial": "sin^2 bump",
                "value": piece.w * 3.0 * piece.length / 8.0,
            }
    else:
        witnesses["weight_sign"] = 1 if spec.pieces[0].w > 0 else -1

    if polar:
        witnesses["energy_form"] = {
            "status": "positive definite",
            "lowest_unit_weight_eigenvalue": lambda0,
        }
    else:
        trial = {"trial": "ground eigenfunction of the unit-weight problem"}
        try:
            trial["value"] = lambda0 * weighted_norm(specL, lambda0)
        except NumericalFailure:
            # the same stretches gave a finite D at lambda0, so this is the
            # norm's overflow; kind and lambda0 do not depend on the witness
            trial["value"] = None
            trial["note"] = "int y^2 overflows double precision"
        witnesses["energy_form_negative_trial"] = trial
        length = spec.b - spec.a
        q_sup = max(p.q_extremes()[1] for p in spec.pieces)
        n = math.ceil(length / math.pi * math.sqrt(max(q_sup, 0.0) + 1.0)) + 1
        freq = n * math.pi / length

        # int q sin^2(freq (x - a)) dx, exactly on each linear segment of q:
        # (qa + qb) span / 4 - [q sin(g (x - a)) / g + q' cos(g (x - a)) / g^2] / 2
        # between its ends, with g = 2 freq
        g = 2.0 * freq
        qint = 0.0
        for piece in spec.pieces:
            nodes = piece.q_table(piece.x0, piece.x1)
            for (xa, qa), (xb, qb) in zip(nodes, nodes[1:]):
                slope = (qb - qa) / (xb - xa)
                ta, tb = g * (xa - spec.a), g * (xb - spec.a)
                qint += 0.25 * (qa + qb) * (xb - xa) - 0.5 * (
                    (qb * math.sin(tb) - qa * math.sin(ta)) / g
                    + slope * (math.cos(tb) - math.cos(ta)) / (g * g))
        witnesses["energy_form_positive_trial"] = {
            "trial": f"sin({n} pi (x - a)/(b - a))",
            "value": freq * freq * length / 2.0 - qint,
        }

    kind = "orthogonal" if orthogonal else ("polar" if polar else "nondefinite")
    return DefinitenessReport(kind=kind, is_orthogonal=orthogonal,
                              is_polar=polar, lambda0=lambda0,
                              witnesses=witnesses)
