"""Exception types shared across the package."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not.

    ``pivot`` is the 0-based index of the first failing Cholesky pivot,
    or ``None`` when the failure was detected some other way.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NoConvergence(RuntimeError):
    """The eigensolver did not converge within its iteration cap."""


class InvalidC(ValueError):
    """Loewner constant outside (0, 1]."""


class QuadratureFailure(RuntimeError):
    """Checked quadrature met a non-finite value or exceeded its piece budget."""


class InvalidProfile(ValueError):
    """A volatility profile violated positivity or bound constraints."""


class InvalidDifferencing(ValueError):
    """Differencing order not available for the requested model."""


class UnsupportedAlpha(ValueError):
    """Smoothness index outside the supported range (1/2, 2]."""


class TooFewBumps(ValueError):
    """Bump count below 8, where the code-construction guarantee fails."""


class ConstructionFailure(RuntimeError):
    """Codeword search exhausted its budget without certifying the target."""


class IndexOutOfRange(IndexError):
    """Index outside the valid range of a family or spectrum."""


class ProfileOutOfClass(ValueError):
    """Profile fails the smoothness-class precondition of a check."""


class BudgetExceeded(ValueError):
    """An evaluation budget parameter is non-positive."""


class OptimizationFailure(RuntimeError):
    """Likelihood maximisation failed; ``profile`` holds (grid, loglik)."""

    def __init__(self, message: str, profile=None):
        super().__init__(message)
        self.profile = profile


class BlockTooSmall(ValueError):
    """A binned estimator block has fewer than 16 observations."""
