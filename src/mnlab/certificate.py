"""Numerical certificates for the multiple-testing lower-bound conditions.

A lower bound by the multiple-testing method needs, at a given sample size
``n``, a family of volatility alternatives satisfying three conditions:

  (i)   every alternative lies in the smoothness class C(alpha, L) and
        between the class bounds, which the bump construction guarantees
        (see :func:`evaluate`);
  (ii)  alternatives are pairwise separated in L2 at the target rate
        (threshold ``c * n^-rate`` with the per-model rate exponent);
  (iii) the average exact KL divergence of the alternatives from the null
        stays below ``kappa * log2(M)`` bits (compared in nats), with
        ``kappa < 1/10``.

The certificate evaluates all three at finite ``n`` with exact
computations and records every intermediate quantity; it asserts nothing
asymptotic.  Alongside the exact divergences it evaluates the Frobenius
bound with constant ``C = 1`` (models m1/m3, where the alternative
covariance dominates the null) or ``C = (2 + 12 L^2)^-1`` (model m2), and
records whether that bound alone would also certify (iii); its
precondition reads true only where double precision resolves it
(:meth:`~mnlab.kl.Comparison.dominates`).

Both certificates decide (iii) by one rule, over one row per alternative
(exact KL, Frobenius bound, precondition), and pass overall on (i) and
(ii) and (iii); the two-point certificate is one row with ``log2(M) = 1``.

KL values are in nats; ``log M`` is binary and converted by ln 2 when the
two meet, and both raw numbers are stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hypotheses import _L_MAX, build_family, separation_closed_form, single_bump_profile
from .kl import GaussianLaw, compare
from .models import ModelSpec, bump_difference, differenced_bands
from .profiles import ConstantProfile
from .regression import ols_slope
from .reporting import null_if_nan

__all__ = [
    "SeparationCondition",
    "DivergenceCondition",
    "Certificate",
    "evaluate",
    "two_point_certificate_m3",
    "rate_exponent",
    "RateRow",
    "rate_table",
    "KLScalingResult",
    "kl_scaling_probe",
]

LN2 = math.log(2.0)

# the largest n of each exact-KL entry point, per model: m1's tridiagonal
# route is O(n); the banded route's k x k eigenproblem bounds m2 and m3,
# and the two-point block is built as a dense n x n work matrix
_DESK_BOUND = {
    "evaluate": {"m1": 262144, "m2": 4096, "m3": 4096},
    "kl_scaling_probe": {"m1": 1048576, "m2": 16384, "m3": 16384},
    "two_point_certificate_m3": {"m3": 8192},
}


def _check_desk_bound(entry: str, model: str, n: int) -> None:
    limit = _DESK_BOUND[entry][model]
    if n > limit:
        raise ValueError(f"n > {limit} exceeds the exact-KL desk bound")


# the largest sigma^2 of the two-point certificate: the exact KL squares
# covariance entries of order sigma^2, and the report the separation
_SIGMA_SQ_MAX = 1e50


@dataclass(frozen=True)
class SeparationCondition:
    """Minimum pairwise L2 separation versus the rate threshold."""

    min_separation: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "min_separation": self.min_separation,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class DivergenceCondition:
    """Average exact KL against ``kappa * log2(M)`` (converted to nats)."""

    avg_kl: float
    log2_m: float
    kappa_bound: float
    passed: bool
    mode: str  # "exhaustive" | "sampled"
    bound_c: float
    bound_avg: float
    bound_preconditions_ok: bool
    bound_certifies: bool

    def to_dict(self) -> dict:
        return {
            "avg_kl": self.avg_kl,
            "log2_M": self.log2_m,
            "kappa_bound": self.kappa_bound,
            "pass": self.passed,
            "mode": self.mode,
            "frobenius_bound_c": self.bound_c,
            "frobenius_bound_avg": self.bound_avg,
            "frobenius_bound_preconditions_ok": self.bound_preconditions_ok,
            "frobenius_bound_certifies": self.bound_certifies,
        }


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of conditions (i)-(iii) at one configuration."""

    model: str
    n: int
    alpha: float | None  # None: no smoothness class (two-point certificate)
    l_const: float | None
    tau: float
    c: float
    kappa: float
    family: dict
    cond_i: bool
    cond_ii: SeparationCondition
    cond_iii: DivergenceCondition
    hypotheses_evaluated: int
    details: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        """All three conditions: the one verdict of every certificate."""
        return self.cond_i and self.cond_ii.passed and self.cond_iii.passed

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "alpha": self.alpha,
            "L": self.l_const,
            "tau": self.tau,
            "c": self.c,
            "kappa": self.kappa,
            "family": self.family,
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii.to_dict(),
            "cond_iii": self.cond_iii.to_dict(),
            "hypotheses_evaluated": self.hypotheses_evaluated,
            "overall_pass": self.overall_pass,
            "details": self.details,
        }


# the power q of each model's Volterra kernel (t - s)^q: m1 and m2
# observe the diffusion, m3 its time integral
_KERNEL_POWER = {"m1": 0.0, "m2": 0.0, "m3": 1.0}


def rate_exponent(model: str, alpha: float, q: float | None = None) -> float:
    """Lower-bound rate exponent ``-alpha / ((2q + 2)(2 alpha + 1))`` (power of n).

    ``"mq"`` with a kernel power ``q`` is a rate-table formula row only."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if model == "mq":
        if q is None or q < 0.0:
            raise ValueError("kernel power q must be >= 0")
    elif model in _KERNEL_POWER:
        q = _KERNEL_POWER[model]
    else:
        raise ValueError(f"unknown model {model!r}")
    return -alpha / ((2.0 * q + 2.0) * (2.0 * alpha + 1.0))


def _bound_constant(model: str, l_const: float) -> float:
    """Loewner constant used with the Frobenius bound per model."""
    if model == "m2":
        return 1.0 / (2.0 + 12.0 * l_const**2)
    return 1.0


def _divergence_row(comparison, bound_c: float) -> dict:
    """One alternative's part in (iii): its exact KL, its Frobenius bound at
    ``bound_c`` and that bound's precondition ``bound_c * null <= alternative``."""
    pre_ok = comparison.dominates(bound_c)
    return {"kl": comparison.kl, "frobenius_bound": comparison.bound(bound_c).value,
            "precondition_ok": pre_ok}


def _divergence_condition(rows, log2_m: float, kappa: float, mode: str,
                          bound_c: float) -> DivergenceCondition:
    """Condition (iii) over :func:`_divergence_row` rows: the average KL within
    ``kappa * log2_m`` bits, and the average bound within it too when every
    precondition holds."""
    avg_kl = float(np.mean([r["kl"] for r in rows]))
    bound_avg = float(np.mean([r["frobenius_bound"] for r in rows]))
    pre_all = all(r["precondition_ok"] for r in rows)
    kappa_bound = kappa * log2_m * LN2
    return DivergenceCondition(
        avg_kl=avg_kl, log2_m=log2_m, kappa_bound=kappa_bound,
        passed=avg_kl <= kappa_bound, mode=mode, bound_c=bound_c,
        bound_avg=bound_avg, bound_preconditions_ok=pre_all,
        bound_certifies=pre_all and bound_avg <= kappa_bound,
    )


def evaluate(model: str, n: int, alpha: float, l_const: float, tau: float,
             c: float, kappa: float, max_hypotheses: int = 16, seed: int = 0,
             workers: int = 1) -> Certificate:
    """Build the family at (n, alpha, L, c) and certify conditions (i)-(iii).

    Condition (i) holds by construction, by the disjoint-bump lemma
    (Tsybakov 2009, *Introduction to Nonparametric Estimation*, 2.6.1): the
    kernel ``K`` is in the Hoelder ball of radius 1/2 and supported on
    [-1/2, 1/2], so ``1 + sum_j omega_j L h^alpha K((t - t_j)/h)`` is in
    C(alpha, L), at least 1 and at most ``1 + L h^alpha max K``; ``cond_i``
    and every row's ``in_class`` are true.  Condition (ii) is the code
    distance times the closed form, the separation
    ``sqrt(family.min_distance * separation_closed_form(family))``.
    Past ``max_hypotheses`` alternatives, a seeded uniform sample estimates
    the average divergence and the certificate is labelled "sampled".
    Deterministic for fixed inputs and seed.
    """
    if model not in ("m1", "m2", "m3"):
        raise ValueError("certificates cover models m1, m2, m3")
    _check_desk_bound("evaluate", model, n)
    if not 0.0 < kappa < 0.1:
        raise ValueError("kappa must lie in (0, 1/10)")
    if max_hypotheses < 1:
        raise ValueError("max_hypotheses must be >= 1")
    if tau <= 0.0:
        raise ValueError("certificates need tau > 0")

    model_class = "m3" if model == "m3" else "m1m2"
    family = build_family(n, alpha, l_const, c, model_class, seed=seed)
    m_alt = family.count_alternatives

    if m_alt <= max_hypotheses:
        indices = list(range(1, m_alt + 1))
        mode = "exhaustive"
    else:
        rng = np.random.default_rng([seed, 0x5EB])
        indices = sorted(
            int(i) for i in
            rng.choice(np.arange(1, m_alt + 1), size=max_hypotheses, replace=False)
        )
        mode = "sampled"

    spec = ModelSpec(model, n, tau)
    # built once: the law and every bump difference share the null's bands
    null_bands = differenced_bands(spec, ConstantProfile(1.0))
    null = GaussianLaw(null_bands)
    bound_c = _bound_constant(model, l_const)
    cond_i = True  # by the disjoint-bump lemma: see the docstring

    def one_hypothesis(k: int) -> dict:
        comparison = compare(null, *bump_difference(spec, family.profile(k), null_bands))
        entry = {"index": k, **_divergence_row(comparison, bound_c), "in_class": cond_i}
        if model == "m3":
            # bound_c is 1 for m3, so the precondition is the ordering test
            entry["ordering_psd"] = entry["precondition_ok"]
        return entry

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_hypothesis, indices))
    else:
        rows = [one_hypothesis(k) for k in indices]

    min_separation = math.sqrt(family.min_distance * separation_closed_form(family))
    threshold = c * float(n) ** rate_exponent(model, alpha)

    cond_ii = SeparationCondition(
        min_separation=min_separation,
        threshold=threshold,
        passed=min_separation >= threshold,
    )
    cond_iii = _divergence_condition(rows, math.log2(m_alt), kappa, mode, bound_c)
    details = {
        "per_hypothesis": rows,
        "min_separation_hamming": family.min_distance,
        "workers": workers,
    }
    if model == "m3":
        details["ordering_psd_all"] = all(r["ordering_psd"] for r in rows)

    return Certificate(
        model=model, n=n, alpha=float(alpha), l_const=float(l_const),
        tau=float(tau), c=float(c), kappa=float(kappa),
        family=family.descriptor(),
        cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii,
        hypotheses_evaluated=len(rows),
        details=details,
    )


def two_point_certificate_m3(n: int, sigma_min: float, sigma_max: float,
                             c: float, tau: float,
                             kappa: float = 0.09) -> Certificate:
    """Two-hypothesis certificate for constant volatility in model m3.

    Null ``sigma_0^2 = sigma_min`` against ``sigma_1^2 = sigma_min +
    c n^(-1/8)``; the exact divergence of the second-differenced laws is
    compared with ``kappa * log2(2)`` in nats, and the squared separation
    ``c^2 n^(-1/4)`` is recorded.
    """
    if n < 2:
        raise ValueError("differencing needs n >= 2")
    _check_desk_bound("two_point_certificate_m3", "m3", n)
    if not 0.0 < sigma_min < sigma_max:
        raise ValueError("need 0 < sigma_min < sigma_max")
    if sigma_max > _SIGMA_SQ_MAX:
        raise ValueError(f"sigma_max must be at most {_SIGMA_SQ_MAX:g}")
    if c < 0.0:
        raise ValueError("c must be >= 0")
    if not 0.0 < kappa < 0.1:
        raise ValueError("kappa must lie in (0, 1/10)")
    if tau <= 0.0:
        raise ValueError("needs tau > 0")
    contrast = c * float(n) ** (-1.0 / 8.0)
    sigma1 = sigma_min + contrast
    if sigma1 > sigma_max * (1.0 + 1e-12):
        raise ValueError("sigma_1^2 exceeds sigma_max; lower c")

    law0 = GaussianLaw(differenced_bands(ModelSpec("m3", n, tau), ConstantProfile(sigma_min)))
    # the noise parts cancel: the laws differ by (sigma1 - sigma_min) times
    # the unit signal, on every index, which compare builds in its own work
    # matrix
    signal = differenced_bands(ModelSpec("m3", n, 0.0), ConstantProfile(1.0))
    scale = sigma1 - sigma_min
    row = _divergence_row(
        compare(law0, np.arange(n),
                lambda out: np.multiply(scale, signal.dense(out), out=out)), 1.0)
    return Certificate(
        model="m3", n=n, alpha=None, l_const=None,
        tau=float(tau), c=float(c), kappa=float(kappa),
        family={"kind": "two_point", "sigma0_sq": sigma_min, "sigma1_sq": sigma1,
                "separation_sq": scale ** 2},
        cond_i=True,
        cond_ii=SeparationCondition(min_separation=scale, threshold=contrast,
                                    passed=True),
        # one alternative: log2(M) = 1 for M = 2 hypotheses
        cond_iii=_divergence_condition([row], 1.0, kappa, "exhaustive", 1.0),
        hypotheses_evaluated=1,
        details={"ordering_psd_all": row["precondition_ok"]},
    )


@dataclass(frozen=True)
class RateRow:
    """One line of the rate table: model, alpha, exponent; ``"mq"`` rows carry a
    kernel power ``q`` and are formula rows only, with no covariance behind them."""

    model: str
    q: float | None
    alpha: float
    exponent: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "q": self.q,
            "alpha": self.alpha,
            "exponent": self.exponent,
        }


def rate_table(alpha_list, q_list=()) -> list[RateRow]:
    """Rate exponents for the three models, then one ``mq`` formula row per
    kernel power in ``q_list`` (see :func:`rate_exponent`)."""
    rows = []
    for alpha in alpha_list:
        for model in ("m1", "m2", "m3"):
            rows.append(RateRow(model, None, float(alpha),
                                rate_exponent(model, alpha)))
        for q in q_list:
            rows.append(RateRow("mq", float(q), float(alpha),
                                rate_exponent("mq", alpha, q)))
    return rows


@dataclass(frozen=True)
class KLScalingResult:
    """Exact KL of a fixed single-bump alternative across sample sizes."""

    model: str
    alpha: float
    l_const: float
    tau: float
    bump_width: float
    n_list: tuple
    kl_values: tuple
    reference: tuple
    slope: float
    slope_se: float
    predicted_slope: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "alpha": self.alpha,
            "L": self.l_const,
            "tau": self.tau,
            "bump_width": self.bump_width,
            "rows": [
                {"n": n, "kl": kl, "reference": ref}
                for n, kl, ref in zip(self.n_list, self.kl_values, self.reference)
            ],
            "slope": null_if_nan(self.slope),
            "slope_se": null_if_nan(self.slope_se),
            "predicted_slope": self.predicted_slope,
        }


def kl_scaling_probe(model: str, alpha: float, l_const: float, tau: float,
                     n_list, bump_width: float = 0.125) -> KLScalingResult:
    """Exact KL growth in ``n`` for one fixed bump alternative.

    The bump width is held constant across ``n``, so the divergence should
    grow like ``n^(1/2)`` for models m1/m2 and ``n^(1/4)`` for m3 (times
    the fixed ``h^(2 alpha)`` factor); the log-log slope is returned with
    its standard error.  Each point is one kernel comparison against the
    banded null, with no solve of size n.  m1 takes the tridiagonal
    route, O(n) with no eigenvalue, and reaches n = 1048576 (about 1.1 s
    and 310 MB on two cores).  m2 and m3 take the banded route, whose k x k
    eigenproblem is the O(k^3) floor.  m2, whose block holds one row per
    moved row (k about n / 4), reaches n = 16384 (about 4 s and 175 MB, the
    k x k work matrix into which the block is built the one k x k array).
    m3 (k about n / 8) stops at n = 16384: its null is so ill-conditioned
    that the KL's rounding error, on either route, grows several-fold per
    doubling of n, to about 1e-8 relative there.  A KL of exactly 0 has no
    logarithm: with two or more sizes it raises ``ValueError`` naming the
    n and the cause, a bump that moves no row (m2 reads ``sigma(t_i)`` on
    the grid, and at n = 3, 5 or 7 no grid point lies in the default bump)
    or a KL that underflows (a tiny ``L``); one size fits no slope anyway,
    and no logarithm is taken.  A repeated n, which would count twice in the
    slope, raises ``ValueError`` naming it before any KL is computed, as
    does a ``bump_width^alpha`` above 1e50, the bound of ``L``.
    """
    if model not in ("m1", "m2", "m3"):
        raise ValueError("probe covers models m1, m2, m3")
    if tau <= 0.0:
        raise ValueError("needs tau > 0")
    if bump_width <= 0.0 or l_const <= 0.0:
        raise ValueError("need bump width > 0, L > 0")
    # width^alpha scales the bump as L does; as logarithms, nothing overflows
    if alpha * math.log(bump_width) > math.log(_L_MAX):
        raise ValueError(f"bump width^alpha must be at most {_L_MAX:g}")
    n_list = [int(n) for n in n_list]
    repeated = [n for i, n in enumerate(n_list) if n in n_list[:i]]
    if repeated:
        raise ValueError(f"the sizes (--ns) repeat n = {repeated[0]}")
    _check_desk_bound("kl_scaling_probe", model, max(n_list, default=0))
    alt = single_bump_profile(alpha, l_const, bump_width)
    predicted = 1.0 / (2.0 * _KERNEL_POWER[model] + 2.0)
    kls, refs = [], []
    for n in n_list:
        spec = ModelSpec(model, n, tau)
        null_bands = differenced_bands(spec, ConstantProfile(1.0))
        comparison = compare(GaussianLaw(null_bands),
                             *bump_difference(spec, alt, null_bands))
        kls.append(comparison.kl)
        refs.append(float(n) ** predicted * bump_width ** (2.0 * alpha))
        if kls[-1] == 0.0 and len(n_list) > 1:
            k = comparison.support.k
            cause = (f"it underflows (the bump moves {k} rows)" if k else
                     "the bump moves no covariance entry")
            raise ValueError(f"the exact KL is 0 at n = {n}: {cause}, "
                             f"so the log-log slope is undefined")
    if len(n_list) > 1:
        slope, slope_se = ols_slope(np.log(n_list), np.log(kls))
    else:  # one size fits no slope, and its KL may be 0, which has no logarithm
        slope = slope_se = math.nan
    return KLScalingResult(
        model=model, alpha=float(alpha), l_const=float(l_const),
        tau=float(tau), bump_width=float(bump_width),
        n_list=tuple(n_list), kl_values=tuple(kls), reference=tuple(refs),
        slope=slope, slope_se=slope_se, predicted_slope=predicted,
    )
