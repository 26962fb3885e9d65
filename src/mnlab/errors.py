"""Exception types shared across the package.

A type exists only when the program tells it apart or when it carries
data: the CLI names these four ``RuntimeError`` subclasses as failed
computations.  Every other refusal, a matrix that is not positive definite
among them, is a plain ``ValueError`` or ``IndexError`` whose message says
what was wrong.
"""


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
