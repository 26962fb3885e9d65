"""Verification laboratory for noisy high-frequency volatility models.

Modules
-------
linalg : symmetric linear algebra (Cholesky, eigen, PSD and
    Loewner-order tests) on bit-exactly symmetric arrays and band matrices
structures : the structured matrices A, Q, Q^-1, V1 with closed-form
    spectra, plus the fast orthonormal sine transform
kl : Gaussian laws, validated and factored once (dense or banded), and
    the one kernel comparing two laws on the support where they differ:
    exact Kullback-Leibler divergence, Frobenius bounds, Loewner constant
profiles : squared-volatility profiles, their one integral query (weighted
    integrals over many cells at once), and the one checked quadrature
    helper
models : exact raw and differenced covariances of the observation models,
    banded where they are, and bump alternatives as a support and block
hypotheses : bump kernels, Hoelder checks, binary codes, hypothesis
    families and the L2 separation identity
certificate : finite-n certification of the lower-bound conditions,
    rate tables and KL scaling probes
montecarlo : O(n) m1 samplers, the spectral constant-volatility MLE, a
    binned baseline, and rate experiments
checks : the ``verify-*`` suites and their one check-record format,
    including the scaled Loewner domination check
cli : the ``mnlab`` command-line frontend (parse, dispatch, write)
"""

from ._version import __version__  # noqa: F401
