"""Exception types shared across the package.

A type exists only when the program tells it apart or when it carries
data: the CLI names the four ``RuntimeError`` subclasses as failed
computations, and :class:`NotPositiveDefinite` carries its pivot.  Every
other refusal is a plain ``ValueError`` or ``IndexError`` whose message
says what was wrong.
"""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not.

    ``pivot`` is the 0-based index of the first failing Cholesky pivot,
    or ``None`` when the failure was detected some other way.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class NoConvergence(RuntimeError):
    """The eigensolver did not converge within its iteration cap."""


class QuadratureFailure(RuntimeError):
    """Checked quadrature met a non-finite value or exceeded its piece budget."""


class ConstructionFailure(RuntimeError):
    """Codeword search exhausted its budget without certifying the target."""


class OptimizationFailure(RuntimeError):
    """Likelihood maximisation failed; ``profile`` holds (grid, loglik)."""

    def __init__(self, message: str, profile=None):
        super().__init__(message)
        self.profile = profile
