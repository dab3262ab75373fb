"""Exception types raised by curstat.

Input validation failures subclass :class:`InputError`; estimator and
selector domain failures subclass :class:`DomainError`.  The CLI maps the
former to exit code 2 and the latter to exit code 3.
"""

__all__ = [
    "CurstatError",
    "InputError",
    "DomainError",
    "NegativeTime",
    "BadIndicator",
    "EmptySample",
    "LengthMismatch",
    "NonpositiveWeight",
    "NonpositiveBandwidth",
    "OutOfDomain",
    "DensityFloorViolation",
    "HazardDenominatorViolation",
    "DegenerateSupport",
    "DegenerateBias",
    "ZeroCensoringDensity",
    "PilotDegenerate",
    "EmptyGrid",
]


class CurstatError(Exception):
    """Base class for all curstat errors."""


class InputError(CurstatError):
    """Malformed caller input (bad records, mismatched lengths, bad config)."""


class DomainError(CurstatError):
    """The requested quantity is undefined for the given data or point."""


class NegativeTime(InputError):
    """An observation time is negative."""


class BadIndicator(InputError):
    """A status indicator is not 0 or 1."""


class EmptySample(InputError):
    """No observations were supplied."""


class LengthMismatch(InputError):
    """Paired arrays have different lengths."""


class NonpositiveWeight(InputError):
    """An isotonic-regression weight is zero or negative."""


class NonpositiveBandwidth(InputError):
    """A bandwidth is zero or negative."""


class OutOfDomain(DomainError):
    """An evaluation point lies outside the tabulated domain."""


class DensityFloorViolation(DomainError):
    """A ratio estimator's denominator density fell below its floor."""


class HazardDenominatorViolation(DomainError):
    """1 - F fell below the hazard ceiling guard."""


class DegenerateSupport(DomainError):
    """The smoothed observation density vanishes on the whole grid."""


class DegenerateBias(DomainError):
    """The asymptotic bias factor vanishes; no optimal constant exists."""


class ZeroCensoringDensity(DomainError):
    """The censoring density is zero at the requested point."""


class PilotDegenerate(DomainError):
    """A pilot estimate admits no usable inverse distribution function."""


class EmptyGrid(InputError):
    """A candidate grid for bandwidth selection is empty."""
