"""Command-line frontend tying the verification suites together.

Subcommands
-----------
verify-linalg            randomized matrix-inequality sweeps
verify-spectral          closed-form spectra vs the numerical eigensolver
verify-kl                divergence-bound validity sweeps
verify-posdefmaj         the scaled Loewner domination of Q by S Q S
verify-model3-structure  the differenced m3 covariance structure
certificate              lower-bound conditions (i)-(iii) at one config
two-point-m3             the two-hypothesis constant-volatility certificate
rate-table               rate exponents per model / kernel power
kl-scaling               exact-KL growth probe across sample sizes
simulate-rate            Monte Carlo estimator-rate experiment

Exit codes: 0 all checks passed, 2 at least one check failed, 1 usage or
configuration error.  Reports embed the fully resolved configuration, are
byte-identical for identical configuration and seed, and are written
atomically (temp file + rename).  A flat ``key = value`` config file can
supply any flag (a key that names no flag is an error); explicit flags win
over the file, the file wins over defaults, and ``MNLAB_SEED`` is the
fallback seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import certificate as cert_mod
from . import kl as kl_mod
from . import linalg, models, montecarlo, reporting, structures
from ._version import __version__
from .hypotheses import build_family
from .profiles import CallableProfile, ConstantProfile

COMMANDS = (
    "verify-linalg",
    "verify-spectral",
    "verify-kl",
    "verify-posdefmaj",
    "verify-model3-structure",
    "certificate",
    "two-point-m3",
    "rate-table",
    "kl-scaling",
    "simulate-rate",
)


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (1 on usage errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _check(name: str, n, parameters: dict, residual: float, passed: bool) -> dict:
    return {
        "lemma": name,
        "n": n,
        "parameters": parameters,
        "max_abs_residual": float(residual),
        "pass": bool(passed),
    }


def _int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x != ""]


def _finite_float(text: str) -> float:
    # reports are strict JSON, and no parameter has a meaning at nan or inf
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(x) for x in str(text).split(",") if x != ""]


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


# every flag, in the order the usage lists them: name -> (type, default,
# allowed values).  The parser and config files both read this table; the
# seed's default is MNLAB_SEED, else 0.  Float flags must be finite.
_FLAGS = {
    "model": (str, "m1", ("m1", "m2", "m3", "mq")),
    "q": (_finite_float, None, None),
    "n": (int, 256, None),
    "alpha": (_finite_float, 1.0, None),
    "L": (_finite_float, 1.0, None),
    "tau": (_finite_float, 0.1, None),
    "c": (_finite_float, None, None),
    "kappa": (_finite_float, 0.09, None),
    "seed": (int, None, None),
    "reps": (int, 200, None),
    "trials": (int, 1000, None),
    "count": (int, 100, None),
    "max_hypotheses": (int, 16, None),
    "ns": (_int_list, None, None),
    "alphas": (_float_list, [0.6, 1.0, 2.0], None),
    "qs": (_float_list, [0.0, 0.5, 1.0], None),
    "sigma_min": (_finite_float, 1.0, None),
    "sigma_max": (_finite_float, 4.0, None),
    "sigma_sq": (_finite_float, 1.0, None),
    "estimator": (str, "mle", montecarlo.ESTIMATORS),
    "width": (_finite_float, 0.125, None),
    "tol": (_finite_float, None, None),
    "out": (str, None, None),
    "format": (str, "json", ("json", "csv")),
    "workers": (int, 1, None),
}


def _from_file(key: str, text: str):
    """Parse a config-file value as its flag would be parsed."""
    kind, _, choices = _FLAGS[key]
    try:
        value = kind(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"config value {key}: {exc}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"config value {key} = {value!r} is not one of "
                         f"{', '.join(choices)}")
    return value


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = [key for key in file_values if key not in _FLAGS]
    if unknown:
        raise ValueError(f"unknown config key: {', '.join(unknown)}")
    cfg = {"command": args.command}
    for key, (_, default, _) in _FLAGS.items():
        flag_val = getattr(args, key)
        if flag_val is not None:
            cfg[key] = flag_val
        elif key in file_values:
            cfg[key] = _from_file(key, file_values[key])
        elif key == "seed":
            env = os.environ.get("MNLAB_SEED")
            cfg[key] = int(env) if env else 0
        else:
            cfg[key] = default
    return cfg


# ---------------------------------------------------------------------------
# verification suites


def _random_psd(rng, n, extra=4):
    w = rng.standard_normal((n, n + extra))
    return linalg.sym(w @ w.T / (n + extra))


def _verify_linalg(cfg):
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"] or 1e-9
    checks = []

    worst = 0.0
    trials = max(cfg["trials"], 500)
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


def _verify_spectral(cfg):
    n = cfg["n"]
    tol = cfg["tol"] or 1e-10
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

    rng = np.random.default_rng(cfg["seed"])
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


def _verify_kl(cfg):
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"] or 1e-9
    trials = cfg["trials"]
    checks = []

    worst_bound, worst_chain = 0.0, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 51))
        s0 = linalg.sym(_random_psd(rng, n) + 0.05 * np.eye(n))
        s1 = linalg.sym(s0 + 0.5 * _random_psd(rng, n))
        law0, law1 = kl_mod.GaussianLaw(s0), kl_mod.GaussianLaw(s1)
        c = kl_mod.find_loewner_constant(law0, law1)
        exact = kl_mod.kl_exact(law0, law1)
        bound = kl_mod.kl_bound(law0, law1, c)
        worst_bound = max(worst_bound, exact - bound.value)
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


def _lipschitz_profile(rng) -> tuple[CallableProfile, float]:
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
    upper = float(np.max(sigma(grid))) ** 2
    profile = CallableProfile(lambda t: np.asarray(sigma(t)) ** 2,
                              lower=1.0, upper=max(upper, 1.0))
    return profile, lip


def _verify_posdefmaj(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n_list = cfg["ns"] or [64, 128, 256]
    count = cfg["count"]
    checks = []
    profiles = [_lipschitz_profile(rng) for _ in range(count)]
    for n in n_list:
        worst = math.inf
        ok = True
        threshold = None
        for profile, lip in profiles:
            report = structures.verify_psd_majorization(profile, lip, n)
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


def _verify_model3_structure(cfg):
    n, tau = cfg["n"], cfg["tau"]
    alpha, l_const = cfg["alpha"], cfg["L"]
    checks = []

    spec0 = models.ModelSpec("m3", n, 0.0, differencing="second")
    signal = models.cov_differenced(spec0, ConstantProfile(1.0))
    n3 = float(n) ** 3
    diag = np.diag(signal)
    rel_diag = float(np.max(np.abs(diag[1:] - 2.0 / (3.0 * n3)) / (2.0 / (3.0 * n3))))
    off = np.diag(signal, k=1)[1:]
    rel_off = float(np.max(np.abs(off - 1.0 / (6.0 * n3)) / (1.0 / (6.0 * n3)))) \
        if off.size else 0.0
    corner_off = abs(signal[0, 1] - math.sqrt(2.0) / (6.0 * n3)) \
        / (math.sqrt(2.0) / (6.0 * n3))
    checks.append(_check("second_difference_diagonal", n, {},
                         rel_diag, rel_diag <= 1e-12))
    checks.append(_check("second_difference_offdiagonal", n, {},
                         max(rel_off, corner_off),
                         max(rel_off, corner_off) <= 1e-12))

    v2 = models.extract_v2(n, tau if tau > 0 else 0.1)
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

    spec = models.ModelSpec("m3", n, tau, differencing="second")
    exact = models.cov_differenced(spec, ConstantProfile(1.0))
    reference = models.model3_reference_decomposition(n, tau)
    body = float(np.max(np.abs((exact - reference)[1:, 1:])))
    checks.append(_check("reference_decomposition_matches_off_corner", n,
                         {"tau": tau}, body, body <= 1e-12 / n3 * 10 + 1e-15))
    # the discrepancy is in the signal part, so compare at tau = 0: the
    # tau^2 noise entries would bury it in their rounding at large n
    signal_reference = models.model3_reference_decomposition(n, 0.0)
    corner = {
        "exact": signal[0, 0],
        "structured": signal_reference[0, 0],
        "difference": signal_reference[0, 0] - signal[0, 0],
        "expected_difference": 1.0 / (6.0 * n3),
    }
    corner_dev = abs(corner["difference"] - corner["expected_difference"])
    checks.append(_check("corner_entry_discrepancy_recorded", n, corner,
                         corner_dev, corner_dev <= 1e-12 / n3 * 10))

    n_fam = min(n, 256)
    c = cfg["c"] or _auto_c_m3(n_fam, alpha)
    family = build_family(n_fam, alpha, l_const, c, "m3", seed=cfg["seed"])
    spec_f = models.ModelSpec("m3", n_fam, tau, differencing="second")
    null = models.cov_differenced(spec_f, ConstantProfile(1.0))
    take = min(family.count_alternatives, cfg["max_hypotheses"])
    psd_ok = True
    dom_ok = True
    gamma = 4.0 * l_const * family.h**alpha * family.kernel.sup_value \
        / (3.0 * float(n_fam) ** 3)
    for k in range(1, take + 1):
        cov_k = models.cov_differenced(spec_f, family.profile(k))
        psd_ok &= linalg.is_psd(cov_k - null)
        dom_ok &= linalg.loewner_leq(cov_k - null,
                                     linalg.sym(gamma * np.eye(n_fam)))
    checks.append(_check("alternative_minus_null_psd", n_fam,
                         {"hypotheses": take, "c": c}, 0.0, psd_ok))
    checks.append(_check("alternative_minus_null_dominated", n_fam,
                         {"bound": gamma}, 0.0, dom_ok))
    return checks


# ---------------------------------------------------------------------------
# command handlers (report dict, rows-for-csv, passed)


def _run_verify(cfg, suite):
    checks = suite(cfg)
    passed = all(c["pass"] for c in checks)
    report = {"command": cfg["command"], "config": _public_config(cfg),
              "version": __version__, "checks": checks, "pass": passed}
    return report, None, passed


def _public_config(cfg):
    # the output path does not affect the computation; keeping it out makes
    # reports byte-identical wherever they are written
    return {k: v for k, v in sorted(cfg.items()) if k not in ("command", "out")}


def _run_certificate(cfg):
    if cfg["c"] is None:
        raise SystemExit(_usage_error("certificate needs --c"))
    cert = cert_mod.evaluate(
        cfg["model"], cfg["n"], cfg["alpha"], cfg["L"], cfg["tau"],
        cfg["c"], cfg["kappa"], max_hypotheses=cfg["max_hypotheses"],
        seed=cfg["seed"], workers=cfg["workers"],
    )
    report = {"command": "certificate", "config": _public_config(cfg),
              "version": __version__, "certificate": cert.to_dict(),
              "pass": cert.overall_pass}
    return report, None, cert.overall_pass


def _run_two_point(cfg):
    if cfg["c"] is None:
        raise SystemExit(_usage_error("two-point-m3 needs --c"))
    cert = cert_mod.two_point_certificate_m3(
        cfg["n"], cfg["sigma_min"], cfg["sigma_max"], cfg["c"], cfg["tau"],
        kappa=cfg["kappa"],
    )
    report = {"command": "two-point-m3", "config": _public_config(cfg),
              "version": __version__, "certificate": cert.to_dict(),
              "pass": cert.overall_pass}
    return report, None, cert.overall_pass


def _run_rate_table(cfg):
    rows = cert_mod.rate_table(cfg["alphas"], cfg["qs"])
    csv_rows = [["model", "q", "alpha", "exponent"]]
    for r in rows:
        csv_rows.append([r.model, "" if r.q is None else repr(r.q),
                         repr(r.alpha), repr(r.exponent)])
    report = {"command": "rate-table", "config": _public_config(cfg),
              "version": __version__,
              "rows": [r.to_dict() for r in rows], "pass": True}
    return report, csv_rows, True


def _run_kl_scaling(cfg):
    ns = cfg["ns"] or [256, 512, 1024, 2048, 4096]
    result = cert_mod.kl_scaling_probe(
        cfg["model"], cfg["alpha"], cfg["L"], cfg["tau"], ns,
        bump_width=cfg["width"],
    )
    passed = abs(result.slope - result.predicted_slope) <= 0.1
    csv_rows = [["n", "kl", "reference"]]
    for n, klv, ref in zip(result.n_list, result.kl_values, result.reference):
        csv_rows.append([n, repr(klv), repr(ref)])
    report = {"command": "kl-scaling", "config": _public_config(cfg),
              "version": __version__, "result": result.to_dict(),
              "pass": passed}
    return report, csv_rows, passed


def _run_simulate_rate(cfg):
    ns = cfg["ns"] or [1024, 2048, 4096]
    result = montecarlo.rate_experiment(
        cfg["model"], cfg["estimator"], ns, cfg["reps"], seed=cfg["seed"],
        sigma_sq=cfg["sigma_sq"], tau=cfg["tau"], workers=cfg["workers"],
    )
    report = {"command": "simulate-rate", "config": _public_config(cfg),
              "version": __version__, "result": result.to_dict(),
              "pass": True}
    return report, result.to_csv_rows(), True


_HANDLERS = {
    "verify-linalg": lambda cfg: _run_verify(cfg, _verify_linalg),
    "verify-spectral": lambda cfg: _run_verify(cfg, _verify_spectral),
    "verify-kl": lambda cfg: _run_verify(cfg, _verify_kl),
    "verify-posdefmaj": lambda cfg: _run_verify(cfg, _verify_posdefmaj),
    "verify-model3-structure": lambda cfg: _run_verify(cfg, _verify_model3_structure),
    "certificate": _run_certificate,
    "two-point-m3": _run_two_point,
    "rate-table": _run_rate_table,
    "kl-scaling": _run_kl_scaling,
    "simulate-rate": _run_simulate_rate,
}


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mnlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key, (kind, _, choices) in _FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                           choices=choices)
        p.add_argument("--config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))

    try:
        report, csv_rows, passed = _HANDLERS[cfg["command"]](cfg)
    except (ValueError, KeyError) as exc:
        return _usage_error(str(exc))

    fmt = cfg["format"]
    if fmt == "csv" and csv_rows is None:
        return _usage_error(f"{cfg['command']} has no CSV representation")

    if cfg["out"]:
        if fmt == "csv":
            reporting.write_report(report, cfg["out"], fmt="csv", rows=csv_rows)
        else:
            reporting.write_report(report, cfg["out"], fmt="json")
        sys.stdout.write(f"{cfg['out']}\n")
    else:
        if fmt == "csv":
            sys.stdout.write(reporting.csv_bytes(csv_rows).decode())
        else:
            sys.stdout.write(reporting.json_bytes(report).decode())

    if not passed:
        failing = [c["lemma"] for c in report.get("checks", [])
                   if not c["pass"]]
        if failing:
            sys.stderr.write(
                "failed checks: " + ", ".join(failing) + "\n"
            )
        else:
            sys.stderr.write("certificate conditions not all satisfied\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
