"""Verification laboratory for noisy high-frequency volatility models.

Modules
-------
linalg : dense symmetric linear algebra (Cholesky, eigen, PSD and
    Loewner-order tests) on bit-exactly symmetric arrays
structures : the structured matrices A, Q, Q^-1, V1 with closed-form
    spectra, plus the fast orthonormal sine transform
kl : Gaussian laws, validated and factored once, with the exact
    Kullback-Leibler divergence between them and its Frobenius bounds
profiles : squared-volatility profiles, their per-cell weighted integrals,
    and the one checked quadrature helper
models : exact raw and differenced covariances of the observation models
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
    GaussianLaw,
    find_loewner_constant,
    kl_bound,
    kl_bound_symmetrized,
    kl_exact,
)
from .linalg import (
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
    cov_differenced,
    cov_raw,
    diff_matrix,
    extract_v2,
    model2_decomposition,
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
