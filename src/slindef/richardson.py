"""Spectral asymmetry thresholds from weighted norms, and eigenfunction
zero drift.  ``weighted_norm`` and ``weighted_partial`` live in
:mod:`slindef.propagator` and are re-exported here.

For a real eigenvalue ``lambda`` with eigenfunction ``y`` the signed quantity
``int_a^b w y^2 dx`` classifies the eigenvalue as positive, negative, or
neutral type.  The two window thresholds reported here are

* ``lambda_plus``: the largest scanned eigenvalue of nonpositive type (all
  eigenvalues above it in the window have positive type), and
* ``lambda_minus``: the smallest scanned eigenvalue of nonnegative type.

Both are reported only when the window provides tail evidence (at least two
eigenvalues of the expected type beyond the threshold); otherwise the entry
is ``None``.
"""

from __future__ import annotations

from typing import NamedTuple

from .coefficients import (ProblemSpec, _as_count, _json_text, _require_real,
                           lambda_entry)
from .errors import DriftUndefined, EmptyWindowError
from .propagator import _lambda_fold, weighted_norm, weighted_partial
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


class RichardsonReport(NamedTuple):
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
    n = len(lams)
    # The records are sorted by lambda and every norm is a float, so the last
    # non-positive norm (index i) and the first non-negative one (index j)
    # decide everything.  A threshold is only reported when the window
    # witnesses it: two records beyond it, whose norms then have the
    # expected sign.  A window whose norms are all of one sign brackets none.
    i = max((k for k in range(n) if norms[k] <= 0.0), default=-1)
    j = min((k for k in range(n) if norms[k] >= 0.0), default=n)
    tail = {
        "lambda_min_checked": lams[0],
        "lambda_max_checked": lams[-1],
        "all_positive_norm_from": lams[i + 1] if i + 1 < n else None,
        "all_negative_norm_upto": lams[j - 1] if j > 0 else None,
    }
    return RichardsonReport(lambda_plus=lams[i] if 0 <= i < n - 2 else None,
                            lambda_minus=lams[j] if 2 <= j < n else None,
                            n_r_empirical=scan.n_r_empirical,
                            n_h_empirical=scan.n_h_empirical,
                            scan=scan, tail_evidence=tail)


# ---------------------------------------------------------------------------
# Zero drift
# ---------------------------------------------------------------------------

@lambda_entry
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
    zero_index = _as_count(zero_index, "zero_index")
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
    return _json_text(report_to_dict(report))


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
        except DriftUndefined:
            out.append(line + ",")
    return "\n".join(out) + "\n"
