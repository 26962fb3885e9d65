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
profiles : squared-volatility profiles, their per-cell weighted integrals,
    and the one checked quadrature helper
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

from ._version import __version__
from .certificate import (
    Certificate,
    evaluate,
    kl_scaling_probe,
    rate_exponent,
    rate_table,
    two_point_certificate_m3,
)
from .checks import verify_psd_majorization
from .hypotheses import (
    BumpKernel,
    HypothesisFamily,
    build_family,
    bump_kernel,
    holder_check,
    kernel_constant,
    l2_separation,
    single_bump_profile,
    vg_code,
)
from .kl import (
    Comparison,
    GaussianLaw,
    compare,
    find_loewner_constant,
    kl_bound,
    kl_bound_symmetrized,
    kl_exact,
)
from .linalg import (
    Banded,
    EigenResult,
    cholesky_lower,
    frobenius_norm,
    is_psd,
    loewner_leq,
    sym,
    sym_eigen,
)
from .models import (
    ModelSpec,
    bump_difference,
    cov_differenced,
    cov_raw,
    diff_matrix,
    differenced_bands,
    extract_v2,
    model3_reference_decomposition,
)
from .montecarlo import (
    ExperimentResult,
    binned_estimator,
    mle_const_sigma_m1,
    rate_experiment,
)
from .profiles import CallableProfile, ConstantProfile, PiecewiseConstantProfile
from .structures import (
    eigvals_closed,
    matrix_a,
    matrix_q,
    matrix_q_inv,
    sine_transform,
    sine_transform_inverse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
