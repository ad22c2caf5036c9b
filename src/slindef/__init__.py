"""Spectral toolkit for regular Sturm-Liouville problems
``y'' + (lambda w + q) y = 0`` whose weight ``w`` is piecewise constant and
may change sign.

Highlights:

* entire-in-``lambda`` transfer-matrix propagation (:mod:`slindef.propagator`);
* real-window and complex-rectangle eigenvalue searches with oscillation
  counts (:mod:`slindef.spectrum`);
* signed weighted norms, spectral asymmetry thresholds, and zero drift
  (:mod:`slindef.richardson`);
* mechanically checked a-priori bound certificates
  (:mod:`slindef.certificates`);
* a JSON problem format and a CLI (:mod:`slindef.cli`).
"""

from .coefficients import (Piece, PiecewiseCoefficient, ProblemSpec,
                           application_problem, build_canonical, load_problem,
                           normalize_domain, one_turning_point,
                           problem_from_dict, problem_to_dict, save_problem,
                           two_turning_point)
from .errors import (ContourError, DriftUndefined, EmptyWindowError,
                     HypothesisViolation, InvalidProblemError,
                     NumericalFailure, SlindefError)
from .propagator import (StateVector, TransferMatrix, cs_kernels, propagate,
                         solution_at)
from .spectrum import (EigenRecord, ScanResult, characteristic, count_zeros,
                       find_complex_eigenvalues, find_real_eigenvalues,
                       interior_zeros, records_to_csv, scan_to_csv,
                       scan_to_json)
from .richardson import (RichardsonReport, richardson_numbers, weighted_norm,
                         zero_drift)
from .certificates import (BoundCertificate, DefinitenessReport,
                           DisconjugacyWitness, LemmaResult, TrailEntry,
                           bound_one_turning_point, certificate_to_dict,
                           certificate_to_json, certify_application,
                           certify_prop3, certify_prop4, certify_prop5,
                           classify_definiteness, disconjugate_on,
                           verify_lemma_lower, verify_lemma_upper)

__version__ = "0.1.0"

__all__ = [
    "Piece", "PiecewiseCoefficient", "ProblemSpec",
    "application_problem", "build_canonical", "load_problem",
    "normalize_domain", "one_turning_point", "problem_from_dict",
    "problem_to_dict", "save_problem", "two_turning_point",
    "ContourError", "DriftUndefined", "EmptyWindowError",
    "HypothesisViolation", "InvalidProblemError", "NumericalFailure",
    "SlindefError",
    "StateVector", "TransferMatrix", "cs_kernels", "propagate",
    "solution_at",
    "EigenRecord", "ScanResult", "characteristic", "count_zeros",
    "find_complex_eigenvalues", "find_real_eigenvalues", "interior_zeros",
    "records_to_csv", "scan_to_csv", "scan_to_json",
    "RichardsonReport", "richardson_numbers", "weighted_norm", "zero_drift",
    "BoundCertificate", "DefinitenessReport", "DisconjugacyWitness",
    "LemmaResult", "TrailEntry", "bound_one_turning_point",
    "certificate_to_dict", "certificate_to_json", "certify_application",
    "certify_prop3", "certify_prop4", "certify_prop5",
    "classify_definiteness", "disconjugate_on", "verify_lemma_lower",
    "verify_lemma_upper",
    "__version__",
]
