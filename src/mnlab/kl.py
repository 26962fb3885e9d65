"""Kullback-Leibler divergence between equal-mean Gaussians, with bounds.

For ``X ~ N(0, sigma0)`` and ``Y ~ N(0, sigma1)`` the divergence of the
``sigma1`` law from the ``sigma0`` law is

    kl = (1/2) * (-ln det(sigma0^-1 sigma1) + tr(sigma0^-1 sigma1) - n).

When ``C * sigma0 <= sigma1`` in the Loewner order for some ``C`` in
(0, 1], the divergence is dominated by the Frobenius-norm expressions

    kl <= (1/(4C^2)) ||sigma0^-1/2 (sigma1 - sigma0) sigma0^-1/2||_F^2
       <= (1/(4C^2)) ||sigma0^-1 sigma1 - I||_F^2,

which is what makes desk-scale certification of average-divergence
conditions tractable.  Without the Loewner hypothesis a symmetrised
variant still dominates; that variant is verified empirically by the test
suite rather than certified.

Each law is a :class:`GaussianLaw`: its covariance is validated and
Cholesky-factored once, in one :func:`~mnlab.linalg.cholesky_lower` call
when the law is built, and every comparison reads the cached factor and
log-determinant.  A covariance is checked for exact symmetry, never
symmetrised: the builders in :mod:`mnlab.models` return bit-exactly
symmetric arrays.  The comparison functions accept laws or plain
covariance arrays; arrays are turned into laws on entry, so comparing one
null law against many alternatives factors the null once.

All KL quantities are in nats.  Binary logarithms appear only in codeword
counting (see :mod:`mnlab.certificate`).  Products with ``sigma0^-1`` are
always formed via triangular solves against the Cholesky factor, never via
an explicit inverse: the model-3 covariances reach condition numbers of
order n^3 / tau^2 and explicit inverses would ruin the bound comparisons.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InvalidC
from .linalg import cholesky_lower

__all__ = [
    "GaussianLaw",
    "kl_exact",
    "KLBound",
    "kl_bound",
    "kl_bound_symmetrized",
    "find_loewner_constant",
]


class GaussianLaw:
    """The centred normal law ``N(0, cov)``, validated and factored once.

    ``cov`` is the bit-exactly symmetric covariance, ``chol`` its lower
    Cholesky factor and ``logdet = 2 * sum(log(diag(chol)))``.  The
    covariance is checked, never symmetrised, and only once: by
    :func:`~mnlab.linalg.cholesky_lower`, which raises ``ValueError`` for
    a covariance that is not exactly symmetric,
    :class:`~mnlab.errors.DimensionMismatch` for one that is not square and
    :class:`~mnlab.errors.NotPositiveDefinite` for one that is not
    positive definite.
    """

    __slots__ = ("cov", "chol", "logdet")

    def __init__(self, cov):
        self.cov = np.ascontiguousarray(cov, dtype=float)
        self.chol = cholesky_lower(self.cov)
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def _laws(sigma0, sigma1) -> tuple[GaussianLaw, GaussianLaw]:
    law0 = sigma0 if isinstance(sigma0, GaussianLaw) else GaussianLaw(sigma0)
    law1 = sigma1 if isinstance(sigma1, GaussianLaw) else GaussianLaw(sigma1)
    if law0.cov.shape != law1.cov.shape:
        raise DimensionMismatch(
            f"shapes differ: {law0.cov.shape} vs {law1.cov.shape}"
        )
    return law0, law1


def kl_exact(sigma0, sigma1) -> float:
    """Exact divergence (nats) of ``N(0, sigma1)`` from ``N(0, sigma0)``.

    Both inputs must be positive definite.  Computed from the Cholesky
    factors: log-determinants from the factor diagonals and the trace term
    as ``||L0^-1 L1||_F^2``.  The value is clamped at 0 to absorb rounding
    for near-identical inputs.
    """
    law0, law1 = _laws(sigma0, sigma1)
    n = law0.cov.shape[0]
    logdet_ratio = law1.logdet - law0.logdet
    w = scipy.linalg.solve_triangular(law0.chol, law1.chol, lower=True)
    trace_term = float(np.sum(w * w))
    return float(max(0.5 * (-logdet_ratio + trace_term - n), 0.0))


class KLBound(NamedTuple):
    """Frobenius-norm divergence bound: loose ``value`` and tighter ``middle``.

    ``value = ||sigma0^-1 sigma1 - I||_F^2 / (4 C^2)`` and ``middle`` is
    the congruence-symmetrised expression
    ``||sigma0^-1/2 (sigma1 - sigma0) sigma0^-1/2||_F^2 / (4 C^2)``;
    ``middle <= value`` always.
    """

    value: float
    middle: float


def kl_bound(sigma0, sigma1, c: float) -> KLBound:
    """Divergence bound valid when ``c * sigma0 <= sigma1``, ``c`` in (0, 1].

    The caller is responsible for the Loewner hypothesis (checkable with
    :func:`mnlab.linalg.loewner_leq` or :func:`find_loewner_constant`);
    this routine only evaluates the two Frobenius expressions.
    """
    if not 0.0 < c <= 1.0:
        raise InvalidC(f"constant must lie in (0, 1], got {c}")
    law0, law1 = _laws(sigma0, sigma1)
    low0, a0, a1 = law0.chol, law0.cov, law1.cov
    n = a0.shape[0]
    scale = 1.0 / (4.0 * c * c)

    y = scipy.linalg.solve_triangular(low0, a1, lower=True)
    x = scipy.linalg.solve_triangular(low0.T, y, lower=False)  # sigma0^-1 sigma1
    right = float(np.sum((x - np.eye(n)) ** 2))
    # the caller's laws keep both factors alive, so free these two n x n
    # blocks before the middle term to hold the peak memory down
    del y, x

    d = a1 - a0
    g = scipy.linalg.solve_triangular(low0, d, lower=True)
    g = scipy.linalg.solve_triangular(low0, g.T, lower=True).T  # L0^-1 d L0^-T
    middle = float(np.sum(g * g))

    return KLBound(value=scale * right, middle=scale * middle)


def kl_bound_symmetrized(sigma0, sigma1) -> float:
    """Bound needing only positive definiteness, at the cost of symmetrisation.

    Returns ``||sigma0^-1 sigma1 - I||_F^2 / 4
    + ||sigma1^-1 sigma0 - I||_F^2 / 4``.  Dominance over the exact
    divergence is checked empirically by randomized sweeps, not certified.
    """
    law0, law1 = _laws(sigma0, sigma1)
    eye = np.eye(law0.cov.shape[0])

    def quarter_norm(low, other):
        y = scipy.linalg.solve_triangular(low, other, lower=True)
        x = scipy.linalg.solve_triangular(low.T, y, lower=False)
        return 0.25 * float(np.sum((x - eye) ** 2))

    return quarter_norm(law0.chol, law1.cov) + quarter_norm(law1.chol, law0.cov)


def find_loewner_constant(sigma0, sigma1) -> float:
    """Largest ``C <= 1`` with ``C * sigma0 <= sigma1``.

    Equals ``min(lambda_min(sigma0^-1/2 sigma1 sigma0^-1/2), 1)``, computed
    as the smallest generalized eigenvalue of the pencil
    ``(sigma1, sigma0)``.  Both inputs must be positive definite.
    """
    law0, law1 = _laws(sigma0, sigma1)
    w = scipy.linalg.eigh(law1.cov, b=law0.cov, eigvals_only=True)
    return float(min(w[0], 1.0))
