"""The ``verify-*`` suites: numerical checks of the lemmas the bounds rest on.

Each suite takes the configuration values it reads as keyword arguments
and returns a list of check records built by :func:`_check`, the one
record format::

    {"lemma", "n", "parameters", "max_abs_residual", "pass"}

verify_linalg            randomized matrix-inequality sweeps
verify_spectral          closed-form spectra vs the numerical eigensolver
verify_kl                divergence-bound validity sweeps
verify_posdefmaj         the scaled Loewner domination of Q by S Q S
verify_model3_structure  the differenced m3 covariance structure

A tolerance of ``None`` selects the suite's default.  Random draws come
from ``numpy.random.default_rng(seed)`` in a fixed order, so a suite's
records are a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kl as kl_mod
from . import linalg, models, structures
from .hypotheses import build_family, holder_check
from .profiles import ConstantProfile

__all__ = [
    "verify_linalg",
    "verify_spectral",
    "verify_kl",
    "verify_posdefmaj",
    "verify_model3_structure",
    "PsdMajorizationReport",
    "verify_psd_majorization",
]


# the largest n of the dense suites: at n = 4096 each holds at most about
# 1.1 GB of n x n arrays and runs within 20 s on two cores (verify-posdefmaj
# per profile); memory grows as n^2 past it, and time as n^3
_DENSE_N_MAX = 4096


def _check_desk_bound(n: int) -> None:
    if n > _DENSE_N_MAX:
        raise ValueError(f"n > {_DENSE_N_MAX} exceeds the dense desk bound")


def _check(name: str, n, parameters: dict, residual: float, passed: bool) -> dict:
    return {
        "lemma": name,
        "n": n,
        "parameters": parameters,
        "max_abs_residual": float(residual),
        "pass": bool(passed),
    }


def _random_psd(rng, n):
    w = rng.standard_normal((n, n + 4))
    return linalg.sym(w @ w.T / (n + 4))


def verify_linalg(*, seed: int, trials: int, tol: float | None = None) -> list[dict]:
    rng = np.random.default_rng(seed)
    tol = 1e-9 if tol is None else tol
    checks = []

    worst = 0.0
    trials = max(trials, 500)
    for _ in range(trials):
        n = int(rng.integers(2, 33))
        a, b = _random_psd(rng, n), _random_psd(rng, n)
        lam1 = float(np.linalg.eigvalsh(a)[-1])
        worst = max(worst, float(np.trace(a @ b)) - lam1 * float(np.trace(b)))
    checks.append(_check("trace_product_vs_top_eigenvalue", 32,
                         {"trials": trials}, max(worst, 0.0), worst <= tol))

    worst = 0.0
    for _ in range(50):
        n = 10
        a = linalg.sym(rng.standard_normal((n, n)))
        b = linalg.sym(rng.standard_normal((n, n)))
        wa = np.linalg.eigvalsh(a)[::-1]
        wb = np.linalg.eigvalsh(b)[::-1]
        wab = np.linalg.eigvalsh(a + b)[::-1]
        for r in range(n):
            for s in range(n - r):
                k = n - r - s
                gap = (wa[n - r - 1] + wb[n - s - 1]) - wab[k - 1]
                worst = max(worst, gap)
    checks.append(_check("eigenvalue_sum_superadditivity", 10,
                         {"trials": 50}, max(worst, 0.0), worst <= tol))

    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        ok &= linalg.is_psd(linalg.sym(a.T @ a + b.T @ b - a.T @ b - b.T @ a))
    checks.append(_check("cross_gram_dominated_by_grams", 16,
                         {"trials": 100}, 0.0, ok))

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n))
        sym_norm_sq = linalg.frobenius_norm(a + a.T) ** 2
        worst = max(worst,
                    4.0 * float(np.trace(a @ a)) - sym_norm_sq,
                    sym_norm_sq - 4.0 * linalg.frobenius_norm(a) ** 2)
    checks.append(_check("doubled_trace_frobenius_chain", 16,
                         {"trials": 200}, max(worst, 0.0), worst <= tol))

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        a = _random_psd(rng, n)
        b = linalg.sym(a + _random_psd(rng, n))
        x = rng.standard_normal((n, n))
        worst = max(worst,
                    linalg.frobenius_norm(linalg.sym(x.T @ a @ x))
                    - linalg.frobenius_norm(linalg.sym(x.T @ b @ x)))
    checks.append(_check("congruence_monotonicity_frobenius", 16,
                         {"trials": 100}, max(worst, 0.0), worst <= tol))

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        a = _random_psd(rng, n) + 0.1 * np.eye(n)
        a = linalg.sym(a)
        low = linalg.cholesky_lower(a)
        worst = max(worst, linalg.frobenius_norm(low @ low.T - a)
                    / linalg.frobenius_norm(a))
    checks.append(_check("cholesky_roundtrip_relative", 32,
                         {"trials": 50}, worst, worst <= 1e-10))

    return checks


def verify_spectral(*, n: int, seed: int, tol: float | None = None) -> list[dict]:
    _check_desk_bound(n)
    tol = 1e-10 if tol is None else tol
    checks = []
    closed = structures.eigvals_closed(n)

    for kind in ("A", "Qinv"):
        mat = structures.build(kind, n)
        numeric = linalg.sym_eigen(mat).values[::-1]
        dev = float(np.max(np.abs(numeric - closed)))
        checks.append(_check("closed_form_spectrum_match", n,
                             {"matrix": kind}, dev, dev <= tol))

    qq = structures.matrix_q(n) @ structures.matrix_q_inv(n) - np.eye(n)
    dev = float(np.max(np.abs(qq)))
    checks.append(_check("q_inverse_identity", n, {}, dev, dev <= 1e-12))

    o = structures.bidiagonal_o(n)
    dev = float(np.max(np.abs(o @ o.T - structures.matrix_q_inv(n))))
    checks.append(_check("bidiagonal_factorisation", n, {}, dev, dev == 0.0))

    basis_q = structures.sine_basis_dense(n, "Qinv")
    resid = structures.matrix_q_inv(n) @ basis_q - basis_q * closed
    dev = float(np.max(np.abs(resid)))
    checks.append(_check("sine_eigenvector_residual", n, {"matrix": "Qinv"},
                         dev, dev <= tol))

    basis_a = structures.sine_basis_dense(n, "A")
    resid = structures.matrix_a(n) @ basis_a - basis_a * closed
    dev = float(np.max(np.abs(resid)))
    checks.append(_check("index_reversal_eigenvectors", n, {"matrix": "A"},
                         dev, dev <= tol))

    i = np.arange(1, n + 1)
    gap = float(np.min(closed - i * i / (4.0 * n * n)))
    checks.append(_check("eigenvalue_lower_bound", n, {}, max(0.0, -gap),
                         gap >= 0.0))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    coeff = structures.sine_transform(x)
    round_trip = float(np.max(np.abs(structures.sine_transform_inverse(coeff) - x)))
    norm_dev = abs(float(np.linalg.norm(coeff) - np.linalg.norm(x)))
    dev = max(round_trip, norm_dev)
    checks.append(_check("sine_transform_isometry", n, {}, dev, dev <= 1e-10))

    if n <= 512:
        dense = basis_a.T @ x
        dev = float(np.max(np.abs(dense - coeff)))
        checks.append(_check("sine_transform_matches_dense", n, {},
                             dev, dev <= 1e-10))
    return checks


def verify_kl(*, seed: int, trials: int, tol: float | None = None) -> list[dict]:
    rng = np.random.default_rng(seed)
    tol = 1e-9 if tol is None else tol
    checks = []

    worst_bound, worst_chain = 0.0, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 51))
        s0 = linalg.sym(_random_psd(rng, n) + 0.05 * np.eye(n))
        s1 = linalg.sym(s0 + 0.5 * _random_psd(rng, n))
        comparison = kl_mod.compare_laws(s0, s1)
        bound = comparison.bound(comparison.loewner_constant)
        worst_bound = max(worst_bound, comparison.kl - bound.value)
        worst_chain = max(worst_chain, bound.middle - bound.value)
    checks.append(_check("frobenius_bound_dominates_exact_kl", 50,
                         {"trials": trials}, max(worst_bound, 0.0),
                         worst_bound <= tol))
    checks.append(_check("middle_expression_below_right", 50,
                         {"trials": trials}, max(worst_chain, 0.0),
                         worst_chain <= tol))

    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 21))
        s0 = linalg.sym(_random_psd(rng, n) + 0.05 * np.eye(n))
        s1 = linalg.sym(_random_psd(rng, n) + 0.05 * np.eye(n))
        law0, law1 = kl_mod.GaussianLaw(s0), kl_mod.GaussianLaw(s1)
        worst = max(worst, kl_mod.kl_exact(law0, law1)
                    - kl_mod.kl_bound_symmetrized(law0, law1))
    checks.append(_check("symmetrized_bound_dominates_exact_kl", 20,
                         {"trials": 500}, max(worst, 0.0), worst <= tol))

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 16))
        s0 = linalg.sym(_random_psd(rng, n) + 0.1 * np.eye(n))
        s1 = linalg.sym(s0 + 0.5 * _random_psd(rng, n))
        t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        k1 = kl_mod.kl_exact(s0, s1)
        k2 = kl_mod.kl_exact(linalg.sym(t @ s0 @ t.T), linalg.sym(t @ s1 @ t.T))
        worst = max(worst, abs(k1 - k2) / max(1.0, k1))
    checks.append(_check("congruence_invariance", 15, {"trials": 50},
                         worst, worst <= tol))
    return checks


@dataclass(frozen=True)
class PsdMajorizationReport:
    """Outcome of the scaled Loewner domination check ``Q/(2+12L^2) <= S Q S``."""

    n: int
    lipschitz: float
    min_eigenvalue: float
    threshold: float
    passed: bool


def verify_psd_majorization(sigma, lipschitz: float, n: int) -> PsdMajorizationReport:
    """Check ``(2 + 12 L^2)^-1 Q <= S Q S`` for ``S = diag(sigma(i/n))``.

    ``sigma(t)`` is the volatility itself, not its square, at the points
    ``t``; it must be >= 1 and Lipschitz with constant ``lipschitz``
    (verified on an 800-point grid, ``ValueError`` otherwise).  The report
    carries the smallest eigenvalue of ``S Q S - (2 + 12 L^2)^-1 Q`` and
    the pass threshold ``-1e-9 * ||Q||_F``.
    """
    if np.min(sigma(np.linspace(0.0, 1.0, 800))) < 1.0 - 1e-12:
        raise ValueError("sigma must be >= 1 on [0, 1]")
    if not holder_check(sigma, 1.0, lipschitz):
        raise ValueError(f"sigma is not Lipschitz with constant {lipschitz}")

    s = sigma(np.arange(1, n + 1) / n)
    q = structures.matrix_q(n)
    scaled = q / (2.0 + 12.0 * lipschitz**2)
    diff = linalg.sym(np.outer(s, s) * q - scaled)
    min_eig = float(np.linalg.eigvalsh(diff)[0])
    threshold = -1e-9 * float(np.sqrt(np.sum(q * q)))
    return PsdMajorizationReport(
        n=n,
        lipschitz=float(lipschitz),
        min_eigenvalue=min_eig,
        threshold=threshold,
        passed=min_eig >= threshold,
    )


def _lipschitz_profile(rng):
    """Random sigma >= 1 built from a few sine modes, with its Lipschitz bound."""
    coeff = rng.uniform(-1.0, 1.0, size=4)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=4)
    j = np.arange(1, 5)
    total = float(np.sum(np.abs(coeff)))
    scale = 0.25 / max(total, 1e-3)

    def sigma(t):
        t = np.asarray(t, dtype=float)
        raw = np.zeros(t.shape)
        for cj, pj, jj in zip(coeff, phase, j):
            raw = raw + cj * np.sin(2.0 * np.pi * jj * t + pj)
        return 1.0 + scale * (raw + total)

    grid = np.linspace(0.0, 1.0, 2001)
    deriv = np.gradient(sigma(grid), grid)
    lip = float(np.max(np.abs(deriv))) * 1.05 + 1e-6
    return sigma, lip


def verify_posdefmaj(*, seed: int, ns, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    n_list = ns or [64, 128, 256]
    _check_desk_bound(max(n_list))
    checks = []
    profiles = [_lipschitz_profile(rng) for _ in range(count)]
    for n in n_list:
        worst = math.inf
        ok = True
        threshold = None
        for sigma, lip in profiles:
            report = verify_psd_majorization(sigma, lip, n)
            worst = min(worst, report.min_eigenvalue)
            threshold = report.threshold
            ok &= report.passed
        checks.append(_check("scaled_q_loewner_domination", n,
                             {"profiles": count, "threshold": threshold},
                             max(0.0, -(worst - threshold)) if worst < threshold else 0.0,
                             ok))
    return checks


def _auto_c_m3(n: int, alpha: float) -> float:
    """Smallest c giving m = 8 bumps for an m3-rate family at this n."""
    return 14.0 * (1.0 + 1e-9) / float(n) ** (1.0 / (8.0 * alpha + 4.0))


def verify_model3_structure(*, n: int, tau: float, alpha: float, l_const: float,
                            c: float | None, seed: int,
                            max_hypotheses: int) -> list[dict]:
    _check_desk_bound(n)
    checks = []

    one = ConstantProfile(1.0)
    # the signal's diagonal and first off-diagonal, as stored
    signal = models.differenced_bands(models.ModelSpec("m3", n, 0.0), one).bands
    n3 = float(n) ** 3
    diag = signal[0]
    rel_diag = float(np.max(np.abs(diag[1:] - 2.0 / (3.0 * n3)) / (2.0 / (3.0 * n3))))
    off = signal[1, 1:n - 1]
    rel_off = float(np.max(np.abs(off - 1.0 / (6.0 * n3)) / (1.0 / (6.0 * n3)))) \
        if off.size else 0.0
    corner_off = abs(signal[1, 0] - math.sqrt(2.0) / (6.0 * n3)) \
        / (math.sqrt(2.0) / (6.0 * n3))
    checks.append(_check("second_difference_diagonal", n, {},
                         rel_diag, rel_diag <= 1e-12))
    checks.append(_check("second_difference_offdiagonal", n, {},
                         max(rel_off, corner_off),
                         max(rel_off, corner_off) <= 1e-12))

    v2 = models.extract_v2(n, tau)
    # support: the leading 3x3 block plus (n, n), where D2 D2^T has 6 and
    # A^2 has 5, so the residual there is exactly +1
    outside = v2.copy()
    outside[:3, :3] = 0.0
    outside[n - 1, n - 1] = 0.0
    flat = int(np.argmax(np.abs(outside)))
    # null when nothing outside the support is nonzero
    worst_entry = [flat // n, flat % n] if outside.flat[flat] != 0.0 else None
    support = max(float(np.max(np.abs(outside))), abs(v2[n - 1, n - 1] - 1.0))
    v2_12 = abs(v2[0, 1] - (3.0 - 2.0 * math.sqrt(2.0)))
    checks.append(_check("noise_residual_boundary_support", n,
                         {"worst_entry": worst_entry,
                          "bottom_corner_value": float(v2[n - 1, n - 1])},
                         support, support <= 1e-12))
    checks.append(_check("noise_residual_corner_value", n,
                         {"expected": 3.0 - 2.0 * math.sqrt(2.0)},
                         v2_12, v2_12 <= 1e-10))

    # dense only here, where the reference decomposition is dense
    exact = models.cov_differenced(models.ModelSpec("m3", n, tau), one)
    reference = models.model3_reference_decomposition(n, tau)
    body = float(np.max(np.abs((exact - reference)[1:, 1:])))
    checks.append(_check("reference_decomposition_matches_off_corner", n,
                         {"tau": tau}, body, body <= 1e-12 / n3 * 10 + 1e-15))
    # the discrepancy is in the signal part, so compare at tau = 0: the
    # tau^2 noise entries would bury it in their rounding at large n
    signal_reference = models.model3_reference_decomposition(n, 0.0)
    corner = {
        "exact": diag[0],
        "structured": signal_reference[0, 0],
        "difference": signal_reference[0, 0] - diag[0],
        "expected_difference": 1.0 / (6.0 * n3),
    }
    corner_dev = abs(corner["difference"] - corner["expected_difference"])
    checks.append(_check("corner_entry_discrepancy_recorded", n, corner,
                         corner_dev, corner_dev <= 1e-12 / n3 * 10))

    n_fam = min(n, 256)
    if c is None:
        c = _auto_c_m3(n_fam, alpha)
    family = build_family(n_fam, alpha, l_const, c, "m3", seed=seed)
    spec_f = models.ModelSpec("m3", n_fam, tau)
    null = models.differenced_bands(spec_f, one)
    take = min(family.count_alternatives, max_hypotheses)
    psd_ok = True
    dom_ok = True
    gamma = 4.0 * l_const * family.h**alpha * family.kernel.sup_value \
        / (3.0 * float(n_fam) ** 3)
    for k in range(1, take + 1):
        # alternative - null = W B W^T with orthonormal W: on the support,
        # PSD is is_psd(B) and domination by gamma I is B <= gamma I_k
        support, block = models.bump_difference(spec_f, family.profile(k), null)
        block = kl_mod.block_array(block, len(support))
        psd_ok &= linalg.is_psd(block)
        dom_ok &= linalg.loewner_leq(block, gamma * np.eye(block.shape[0]))
    checks.append(_check("alternative_minus_null_psd", n_fam,
                         {"hypotheses": take, "c": c}, 0.0, psd_ok))
    checks.append(_check("alternative_minus_null_dominated", n_fam,
                         {"bound": gamma}, 0.0, dom_ok))
    return checks
