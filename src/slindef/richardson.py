"""Spectral asymmetry thresholds from weighted norms, and eigenfunction
zero drift.  ``weighted_norm`` and ``weighted_partial`` live in
:mod:`slindef.propagator` and are re-exported here.

For a real eigenvalue ``lambda`` with eigenfunction ``y`` the signed quantity
``int_a^b w y^2 dx`` classifies the eigenvalue as positive, negative, or
neutral type.  The two window thresholds reported here are

* ``lambda_plus``: the largest scanned eigenvalue of nonpositive type (all
  eigenvalues above it in the window have positive type), and
* ``lambda_minus``: the smallest scanned eigenvalue of nonnegative type,

with fallbacks to the extreme scanned eigenvalue when every norm has the
same sign.  Both are reported only when the window provides tail evidence
(at least two eigenvalues of the expected type beyond the threshold);
otherwise the entry is ``None``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coefficients import ProblemSpec
from .errors import DriftUndefined, EmptyWindowError, InvalidProblemError
from .propagator import (_lambda_fold, _require_real, weighted_norm,
                         weighted_partial)
from .spectrum import (ScanResult, find_real_eigenvalues, interior_zeros,
                       records_to_csv)

__all__ = [
    "weighted_norm",
    "RichardsonReport",
    "richardson_numbers",
    "zero_drift",
    "report_to_dict",
    "report_to_json",
    "report_to_csv",
]


@dataclass(frozen=True)
class RichardsonReport:
    """Window thresholds for the type of scanned eigenvalues."""

    lambda_plus: float | None
    lambda_minus: float | None
    n_r_empirical: int | None
    n_h_empirical: int | None
    scan: ScanResult
    tail_evidence: dict


def richardson_numbers(spec: ProblemSpec, window: tuple[float, float],
                       tol: float = 1e-9) -> RichardsonReport:
    """Scan ``window`` and derive the type thresholds with tail evidence.

    Raises :class:`EmptyWindowError` when the window holds no eigenvalues.
    """
    scan = find_real_eigenvalues(spec, window, tol)
    if not scan.records:
        raise EmptyWindowError(
            f"no eigenvalues found in window {window!r}; widen the window")
    lams = [r.re_lambda for r in scan.records]
    norms = [r.weighted_norm for r in scan.records]

    nonpos = [l for l, n in zip(lams, norms) if n is not None and n <= 0.0]
    nonneg = [l for l, n in zip(lams, norms) if n is not None and n >= 0.0]

    # The threshold is only reported when the window actually witnesses it:
    # a non-positive-norm eigenvalue with at least two positive-norm
    # eigenvalues above it (mirrored for lambda_minus).  A window whose norms
    # are all of one sign brackets no threshold.
    lambda_plus: float | None = None
    if nonpos:
        cand_plus = max(nonpos)
        above = [(l, n) for l, n in zip(lams, norms) if l > cand_plus]
        if len(above) >= 2 and all(n is not None and n > 0.0 for _, n in above):
            lambda_plus = cand_plus

    lambda_minus: float | None = None
    if nonneg:
        cand_minus = min(nonneg)
        below = [(l, n) for l, n in zip(lams, norms) if l < cand_minus]
        if len(below) >= 2 and all(n is not None and n < 0.0 for _, n in below):
            lambda_minus = cand_minus

    pos_above: float | None = None
    for i in range(len(lams)):
        if all(n is not None and n > 0.0 for n in norms[i:]):
            pos_above = lams[i]
            break
    neg_below: float | None = None
    for i in range(len(lams) - 1, -1, -1):
        if all(n is not None and n < 0.0 for n in norms[:i + 1]):
            neg_below = lams[i]
            break
    tail = {
        "lambda_min_checked": lams[0],
        "lambda_max_checked": lams[-1],
        "all_positive_norm_from": pos_above,
        "all_negative_norm_upto": neg_below,
    }
    return RichardsonReport(lambda_plus=lambda_plus, lambda_minus=lambda_minus,
                            n_r_empirical=scan.n_r_empirical,
                            n_h_empirical=scan.n_h_empirical,
                            scan=scan, tail_evidence=tail)


# ---------------------------------------------------------------------------
# Zero drift
# ---------------------------------------------------------------------------

def zero_drift(spec: ProblemSpec, lam: float, zero_index: int) -> float:
    """Derivative ``d x_k / d lambda`` of the ``k``-th interior zero
    (1-based) of the left solution: ``-dy/dlambda / y'`` at the zero, both
    from one :func:`~slindef.propagator._lambda_fold`, the fold Newton reads
    at ``b``; by the Lagrange identity, ``-int_a^{x_k} w y^2 dx / y'^2``.
    ``y`` and ``dy/dlambda`` are continuous in ``x``, so on a breakpoint the
    derivative is two-sided too.  Raises :class:`DriftUndefined` when the
    zero does not exist or the slope vanishes there.
    """
    lam = _require_real(lam, "zero_drift")
    if not isinstance(zero_index, int) or zero_index < 1:
        raise InvalidProblemError(
            f"zero_index must be a positive integer, got {zero_index!r}")
    zs = interior_zeros(spec, lam)
    if len(zs) < zero_index:
        raise DriftUndefined(
            f"zero index {zero_index} exceeds the zero count {len(zs)}")
    _, yp, u, _, _, _ = _lambda_fold(spec, lam, zs[zero_index - 1])
    if yp == 0.0:
        raise DriftUndefined("vanishing derivative at the zero")
    return -u / yp


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: RichardsonReport) -> dict:
    return {
        "lambda_plus": report.lambda_plus,
        "lambda_minus": report.lambda_minus,
        "n_r_empirical": report.n_r_empirical,
        "n_h_empirical": report.n_h_empirical,
        "tail_evidence": dict(report.tail_evidence),
        "scan": report.scan.to_dict(),
    }


def report_to_json(report: RichardsonReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_to_csv(spec: ProblemSpec, report: RichardsonReport,
                  with_drift: bool = False) -> str:
    """Record rows of the underlying scan; with ``with_drift`` a column with
    the drift of the first interior zero is appended (blank where undefined)."""
    base = records_to_csv(report.scan.records)
    if not with_drift:
        return base
    lines = base.rstrip("\n").split("\n")
    out = [lines[0] + ",drift_zero1"]
    for line, rec in zip(lines[1:], report.scan.records):
        try:
            d = zero_drift(spec, rec.re_lambda, 1)
            out.append(f"{line},{d!r}")
        except (DriftUndefined, InvalidProblemError):
            out.append(line + ",")
    return "\n".join(out) + "\n"
