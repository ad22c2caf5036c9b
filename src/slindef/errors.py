"""Exception hierarchy shared across the package.

The command-line interface maps these onto process exit codes:
``InvalidProblemError`` -> 2, ``NumericalFailure`` (and subclasses) -> 3,
``HypothesisViolation`` -> 4.  :func:`slindef.coefficients.lambda_entry`
guards the public functions that take a spectral value, so bad or
overflowing values end in one of these instead of a bare Python exception.
"""

from __future__ import annotations


class SlindefError(Exception):
    """Base class for all package-specific errors."""


class InvalidProblemError(SlindefError, ValueError):
    """Malformed problem data: bad piece layout, signs, windows, or arguments."""


class NumericalFailure(SlindefError, RuntimeError):
    """A numerical routine could not reach its accuracy or robustness target."""


class ContourError(NumericalFailure):
    """A contour used for complex root counting passes too close to a root."""


class EmptyWindowError(NumericalFailure):
    """A scan window contains no eigenvalues, so a report cannot be formed."""


class DriftUndefined(NumericalFailure):
    """A zero-drift derivative is not well defined at the requested point."""


class HypothesisViolation(SlindefError):
    """Inputs fail the hypotheses required by a bound certificate."""


def overflow_failure(lam) -> NumericalFailure:
    return NumericalFailure(
        f"the solution overflows double precision at lambda={lam!r}")
