"""Exception hierarchy shared across the toolkit.

Precondition violations are hard errors everywhere: a privacy library must
not quietly weaken a guarantee by clamping its inputs.
"""


class DpMarginError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(DpMarginError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionError(DpMarginError):
    """Vector/matrix dimensions do not agree."""


class LabelError(DataFormatError):
    """Label outside {-1, 0, +1}."""


class GenerationError(DpMarginError):
    """Synthetic data generation cannot proceed with the given parameters."""


class OracleError(DpMarginError):
    """Margin oracle's solve failed, or its answer missed the certified tolerance."""

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class SizeError(DpMarginError):
    """Input exceeds an exhaustive oracle's hard size cap."""


class PrivacyBudgetError(DpMarginError):
    """Privacy budget outside the admissible range for the requested mechanism."""


class ResourceError(DpMarginError):
    """A run-length cap would be exceeded; the message names the cap and a way round it."""


class MissingContextError(DpMarginError):
    """An operation needs provenance (e.g. a projection dimension) that is absent."""
