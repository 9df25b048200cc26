"""Exception types raised across the library.

Every failure mode that callers are expected to handle has its own class so
that sweeps can record per-job errors without string matching.  All types
derive from :class:`SpecLocaliserError`.
"""

from __future__ import annotations

__all__ = [
    "SpecLocaliserError",
    "ValidationError",
    "ConfigError",
    "DimensionMismatch",
    "BackendDisagreement",
    "FactorizationDeclined",
    "SingularMatrix",
    "BoundaryEigenvalue",
    "SingularSymbol",
    "GaplessMass",
    "FormatError",
    "HypothesisViolated",
    "StrictModeViolation",
    "ContainmentViolation",
    "IntegerityViolation",
    "RefinementLimit",
    "AmbiguousKernel",
    "ResidueTooLarge",
    "GapClosure",
]


class SpecLocaliserError(Exception):
    """Base class for all library errors."""


class ValidationError(SpecLocaliserError):
    """An input object fails its structural contract (shape, symmetry, range)."""


class ConfigError(ValidationError):
    """A run configuration (file or flags) is malformed or inconsistent."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class BackendDisagreement(SpecLocaliserError):
    """The two independent inertia count routes returned different counts.

    Carries both count triples; never resolved by averaging.
    """

    def __init__(self, eig_counts, factor_counts, zero_tol):
        self.eig_counts = tuple(eig_counts)
        self.factor_counts = tuple(factor_counts)
        self.zero_tol = zero_tol
        super().__init__(
            "inertia count routes disagree: %s vs %s at zero_tol=%.3e"
            % (self.eig_counts, self.factor_counts, zero_tol)
        )


class FactorizationDeclined(SpecLocaliserError):
    """Every sparse LU ordering declined (a pivot left the diagonal or vanished)."""


class SingularMatrix(SpecLocaliserError):
    """A matrix required to be invertible has an eigenvalue at or near zero."""


class BoundaryEigenvalue(SpecLocaliserError):
    """An eigenvalue sits within the separation tolerance of an interval endpoint."""


class SingularSymbol(ValidationError):
    """The loop symbol vanishes (or nearly vanishes) somewhere on the circle."""


class GaplessMass(ValidationError):
    """The requested mass parameter sits at (or too close to) a band-gap closing."""


class FormatError(SpecLocaliserError):
    """A file being read or written is malformed."""


class HypothesisViolated(SpecLocaliserError):
    """The invertibility hypothesis for the untruncated localiser fails."""


class StrictModeViolation(SpecLocaliserError):
    """A hard validity condition fails while running in strict mode."""


class ContainmentViolation(SpecLocaliserError):
    """The truncation window is not safely contained in the simulation box."""


class IntegerityViolation(SpecLocaliserError):
    """A quantity that must be an (even) integer came out otherwise."""


class RefinementLimit(SpecLocaliserError):
    """Adaptive refinement could not separate an eigenvalue from zero.

    Reported with the offending parameter interval; never silently treated
    as a zero crossing.
    """

    def __init__(self, t_lo, t_hi, message=""):
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        msg = "eigenvalue hugs zero on t-interval [%.9g, %.9g]" % (t_lo, t_hi)
        if message:
            msg += ": " + message
        super().__init__(msg)


class AmbiguousKernel(SpecLocaliserError):
    """Singular values fall inside the ambiguity decade around the kernel tolerance."""


class ResidueTooLarge(SpecLocaliserError):
    """A quantity that must be an integer is too far from one to round safely."""


class GapClosure(SpecLocaliserError):
    """Band eigenvalues touch on the sampling grid; the band invariant is undefined."""
