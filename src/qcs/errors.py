"""Exception types shared across the package."""


class QcsError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTriple(QcsError, ValueError):
    """Cross-ratio reference points are not pairwise distinct."""


class DimensionMismatch(QcsError, ValueError):
    """Operands live in different (or unsupported) Hilbert-space dimensions."""


class InfinitePoint(QcsError, ValueError):
    """The point at infinity, or a non-finite complex value, was passed where a finite label is required."""


class NotNormalized(QcsError, ValueError):
    """State amplitudes are too far from unit norm to be a construction error-free state."""


class BadSubsystem(QcsError, ValueError):
    """Partial trace asked to keep an empty, full, or out-of-range qubit set."""


class BadParams(QcsError, ValueError):
    """Parameters are inconsistent, incomplete or out of range: couplings, windows, steps, times."""


class FormulaUnavailable(QcsError, LookupError):
    """No closed-form energy expression exists for this (model, state) pair."""


class NoConvergence(QcsError, RuntimeError):
    """Refinement found no stationary point of the kind its seed needs.

    Kept for callers that catch it; nothing in the package raises it, since `refine_extremum` looks its label up.
    """
