"""Exception types raised by the decomposition pipelines."""


class MatWaringError(Exception):
    """Base class for all package-specific failures."""


class ParseError(MatWaringError):
    """Polynomial text does not conform to the grammar.

    `position` is the 0-based character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpectraOverlapError(MatWaringError):
    """Sylvester operands (or triangular blocks) have overlapping spectra."""


class IllConditionedError(MatWaringError):
    """A solve or inverse exceeded its residual tolerance."""


class ClusterGapTooSmallError(MatWaringError):
    """Eigenvalue clusters are distinct but closer than the gap tolerance."""


class MultiplicityTooLargeError(MatWaringError):
    """An eigenvalue cluster exceeds algebraic multiplicity n/2."""

    def __init__(self, value, multiplicity, n):
        super().__init__(
            f"eigenvalue cluster near {value} has multiplicity "
            f"{multiplicity} > {n}/2"
        )
        self.value = value
        self.multiplicity = multiplicity


class NonzeroTraceError(MatWaringError):
    """Input matrix must be traceless for this operation."""


class ResidualTooLargeError(MatWaringError):
    """A reconstruction residual exceeded its tolerance, or (residual None)
    the tolerance is infinite, so that no residual can meet it."""

    def __init__(self, message, residual=None):
        super().__init__(message if residual is None
                         else f"{message} (residual {residual:.3e})")
        self.residual = residual


class NotGenericError(MatWaringError):
    """The polynomial classifies as an identity or central polynomial."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class BudgetExhaustedError(MatWaringError):
    """Randomized witness search ran out of samples."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class PreconditionUnmetError(MatWaringError):
    """A mode's structural precondition fails; an alternative is named."""
