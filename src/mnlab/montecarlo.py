"""Exact Gaussian sampling and rate experiments at desk scale.

Model m1 is sampled in O(n) from its own recursion, for constant
volatility or for a profile through its per-interval standard deviations:
the same law as the exact covariance, with no dense matrix.  Replicate
``r`` of a run seeded with ``s`` always draws from the stream keyed
``(s, ..., r)``, so serial and parallel executions produce bit-identical
output.  Rate experiments run each sample size in chunks of replicates,
one estimator call per chunk, and the estimates do not depend on the
chunking.

The constant-volatility maximum-likelihood estimator for model m1 works in
the sine eigenbasis of the first-difference Gram matrix, where the
differenced observations decouple into independent coordinates with
variances ``sigma^2 / n + tau^2 lambda_i``; the one-dimensional likelihood
is then maximised by Newton iteration inside a sign-change bracket, with
bisection as the safeguard.  A block of samples, one per row, is
transformed by one FFT call and shares the spectral constants; each row
is then solved on its own.  The iteration starts from a noise-weighted
moment estimate of ``sigma^2`` and lengthens a Newton step shorter than
half the tolerance to exactly that half, so the step after convergence
crosses the root and closes the bracket: the estimate is the midpoint of
a bracket ``[a, b]`` of width at most ``TOL max(1, b)``, within
``TOL max(1, b)`` of the root.  ``tau`` is assumed known throughout.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import OptimizationFailure
from .profiles import checked_cells
from .regression import ols_slope
from .reporting import null_if_nan
from .structures import eigvals_closed, sine_transform

__all__ = [
    "replicate_rng",
    "sample_m1_constant_diff",
    "mle_const_sigma_m1",
    "realized_variance",
    "BinnedEstimate",
    "binned_estimator",
    "ExperimentResult",
    "rate_experiment",
]

ESTIMATORS = ("mle", "rv", "rv_uncorrected")

# the sigma^2 range the MLE searches, and its relative stopping width
BRACKET = (1e-8, 1e4)
TOL = 1e-10

# the largest noise level: the likelihood weights (1/n + tau^2 lambda_i)^-2
# are of order tau^-4, and the sampled data's squares of order tau^2, both
# far inside the float range (the bound of models' specs, kept here so that
# simulate-rate does not import models)
_TAU_MAX = 1e50


def replicate_rng(seed: int, *stream) -> np.random.Generator:
    """Generator for one replicate, keyed by (seed, *stream) counters.

    Counter-derived streams make parallel and serial runs identical: the
    draw for replicate r never depends on how many replicates ran before
    it.
    """
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


def sample_m1_constant_diff(sigma_sq: float, tau: float, n: int,
                            rep: int = 0, seed: int = 0) -> np.ndarray:
    """One first-differenced m1 sample with constant ``sigma^2``, in O(n).

    Draws the Brownian increments and the noise directly:
    ``dY_i = sigma xi_i / sqrt(n) + tau (eps_i - eps_{i-1})`` with
    ``eps_0 = 0``, whose covariance is exactly
    ``(sigma^2/n) I + tau^2 A``.
    """
    _require_sampling(sigma_sq, n)
    return sample_m1_profile_diff(math.sqrt(sigma_sq / n), tau, n, rep, seed)


def _require_sampling(sigma_sq: float, n: int) -> None:
    _require_rate(n)
    if not sigma_sq >= 0.0:
        raise ValueError(f"sigma_sq must be non-negative, got {sigma_sq!r}")


def _require_rate(n: int) -> None:
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n!r}")


def _require_noise(tau: float) -> None:
    if not 0.0 < tau <= _TAU_MAX:
        raise ValueError(f"tau must lie in (0, {_TAU_MAX:g}] (assumed known)")


def m1_interval_sds(profile, n: int) -> np.ndarray:
    """Standard deviations of the m1 signal increments for any profile.

    The square roots of the cell integrals of ``sigma^2`` over
    ``[(k-1)/n, k/n]``, the same query as the m1 covariance diagonal.
    """
    grid = np.arange(n + 1) / n
    return np.sqrt(profile.cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,)))


def sample_m1_profile_diff(interval_sds, tau: float, n: int,
                           rep: int = 0, seed: int = 0) -> np.ndarray:
    """First-differenced m1 sample for a non-constant profile, in O(n).

    ``interval_sds`` comes from :func:`m1_interval_sds` (precompute it once
    per profile; it is the only profile-dependent piece), or is one scalar
    for constant volatility.  The sample is drawn in place: no temporary
    of length n beyond the two draws.
    """
    sds = np.asarray(interval_sds, dtype=float)
    if sds.shape not in ((), (n,)):
        raise ValueError(f"interval_sds must be a scalar or of shape ({n},), "
                         f"got shape {sds.shape}")
    rng = replicate_rng(seed, n, rep)
    out = rng.standard_normal(n)
    out *= sds
    eps = rng.standard_normal(n)
    eps *= tau
    out += eps
    out[1:] -= eps[:-1]
    return out


@functools.lru_cache(maxsize=1)
def _spectral_constants(width: int, n: int, tau: float):
    """Read-only ``tau^2 lambda_i`` of a block ``width`` wide at rate ``n``,
    ``u_i = (1/n + tau^2 lambda_i)^-2`` and their sum.  One is cached: a
    rate experiment runs one n at a time, and its chunks share them."""
    noise = tau * tau * eigvals_closed(width)
    u = (1.0 / n + noise) ** -2
    noise.flags.writeable = u.flags.writeable = False
    return noise, u, float(np.sum(u))


def mle_const_sigma_m1(diff_data, n: int, tau: float) -> float | np.ndarray:
    """Exact constant-``sigma^2`` MLE from first-differenced m1 data.

    ``diff_data`` may be the full differenced sample (length n) or a
    contiguous block of it; ``n`` is always the global sampling rate, so
    block coordinates keep variances ``sigma^2/n + tau^2 lambda_i`` in the
    block-local sine basis.  A 2-d ``diff_data`` holds one such sample per
    row and gives one estimate per row, each equal bit for bit to the
    estimate from that row alone: the block is validated and transformed
    once, and the spectral constants are cached per (width, n, tau), then
    each row is solved on its own coordinates.  A 1-d sample gives a float.

    A score negative over the whole bracket means the likelihood peaks at
    the floor (noise-dominated sample); the floor is returned.  A score
    still positive at the ceiling means the data are inconsistent with the
    bracket and :class:`OptimizationFailure` is raised carrying a
    (sigma^2, loglik) profile; in a block, the first such row raises.

    Otherwise the stationarity equation is solved by Newton iteration on
    ``BRACKET = (lo, hi)``, kept inside the sign-change bracket ``[a, b]``
    by bisection.  It starts from the moment estimate
    ``n sum u_i (c_i^2 - tau^2 lambda_i) / sum u_i`` with
    ``u_i = (1/n + tau^2 lambda_i)^-2``, clipped into the bracket.  A
    Newton step shorter than ``h = TOL max(1, s) / 2`` is lengthened to
    ``h``, so a converged iterate steps across the root and closes the
    bracket.  The result is the midpoint of a bracket of width at most
    ``TOL max(1, b)``, so ``|est - root| <= TOL max(1, b)``.
    """
    data = np.asarray(diff_data, dtype=float)
    if data.ndim not in (1, 2) or data.size < 1:
        raise ValueError("diff_data must be a non-empty vector or block of rows")
    _require_rate(n)
    _require_noise(tau)
    if not np.all(np.isfinite(data)):
        raise ValueError("diff_data must be finite")
    coords_sq = sine_transform(data) ** 2
    noise, u, u_sum = _spectral_constants(data.shape[-1], n, tau)
    estimates = np.array([
        _mle_row(c2, n, noise, u, u_sum)
        for c2 in coords_sq.reshape(-1, data.shape[-1])
    ])
    return float(estimates[0]) if data.ndim == 1 else estimates


def _mle_row(c2: np.ndarray, n: int, noise: np.ndarray, u: np.ndarray,
             u_sum: float) -> float:
    """One sample's estimate from its squared coordinates ``c2``.

    The score, its slope and the start estimate run in three row buffers,
    ``w``, ``cw`` and ``t``, filled in place: a Newton iteration allocates
    nothing of length n, and every operation keeps the order of the
    out-of-place formulas, so the estimate keeps their bits.
    """
    lo, hi = BRACKET
    w, cw, t = (np.empty_like(c2) for _ in range(3))

    def score(s: float) -> float:
        """Score at ``s``; leaves ``1 / v_i`` in ``w`` and ``c_i^2 / v_i`` in ``cw``."""
        np.add(noise, s / n, out=w)
        np.divide(1.0, w, out=w)
        np.multiply(c2, w, out=cw)
        np.subtract(cw, 1.0, out=t)
        np.multiply(w, t, out=t)
        return float(np.sum(t))

    def slope() -> float:
        """The score's derivative ``sum w_i^2 (1 - 2 cw_i) / n`` at the last
        ``score`` call; overwrites ``cw``."""
        np.multiply(2.0, cw, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(w, w, out=cw)
        np.multiply(cw, t, out=t)
        return float(np.sum(t)) / n

    def loglik(s: float) -> float:
        v = s / n + noise
        return -0.5 * float(np.sum(np.log(v) + c2 / v))

    g_lo, g_hi = score(lo), score(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo < 0.0 and g_hi < 0.0:
        return lo
    if not (g_lo > 0.0 > g_hi):
        grid = np.geomspace(lo, hi, 41)
        raise OptimizationFailure(
            "score is still positive at the bracket ceiling",
            profile=[(float(s), loglik(float(s))) for s in grid],
        )
    np.subtract(c2, noise, out=t)
    np.multiply(u, t, out=t)
    start = n * float(np.sum(t)) / u_sum
    a, b = lo, hi
    s = min(max(start, lo), hi)
    for _ in range(200):
        g = score(s)
        if g > 0.0:
            a = s
        elif g < 0.0:
            b = s
        else:
            return s
        if b - a <= TOL * max(1.0, b):
            break
        gp = slope()
        step = -g / gp if gp != 0.0 else math.inf  # flat score: bisect
        h = 0.5 * TOL * max(1.0, s)
        if abs(step) < h:
            step = math.copysign(h, step)
        s = s + step if a < s + step < b else 0.5 * (a + b)
    return 0.5 * (a + b)


def realized_variance(diff_data, n: int, tau: float,
                      corrected: bool = True) -> float | np.ndarray:
    """Sum of squared differences, optionally noise-corrected.

    The uncorrected sum estimates ``sigma^2 + (2n - 1) tau^2`` and is
    inconsistent under noise; subtracting the exact noise trace
    ``(2n - 1) tau^2`` removes the bias (the variance still grows with n).
    A 1-d sample gives a float; a block of samples, one per row, gives one
    value per row.  Baseline only.
    """
    rv = np.sum(np.asarray(diff_data, dtype=float) ** 2, axis=-1)
    if corrected:
        rv = rv - (2.0 * n - 1.0) * tau * tau
    return float(rv) if rv.ndim == 0 else rv


@dataclass(frozen=True)
class BinnedEstimate:
    """Piecewise-constant volatility estimate over equal-width time blocks."""

    values: np.ndarray
    n: int
    tau: float

    @property
    def bins(self) -> int:
        return self.values.size

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip((t * self.bins).astype(int), 0, self.bins - 1)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def integrated_squared_error(self, profile) -> float:
        """``integral_0^1 (estimate(t) - sigma^2(t))^2 dt`` by quadrature.

        One :func:`~mnlab.profiles.checked_cells` pass with one interval
        per bin; a piece where ``sigma^2`` is too rough for the two-order
        check, say at a jump, is halved until it passes.
        """
        edges = np.arange(self.bins + 1) / self.bins
        return float(checked_cells(lambda u, k: (self.values[k] - profile.eval(u)) ** 2,
                                   edges[:-1], edges[1:]).sum())


def binned_estimator(diff_data, n: int, tau: float, bins: int) -> BinnedEstimate:
    """Blockwise constant-``sigma^2`` MLE; ``bins = 1`` is the global MLE.

    Block boundaries reuse the corner convention of the global basis, a
    one-entry approximation per interior block; fine for a baseline.
    """
    data = np.asarray(diff_data, dtype=float)
    if bins < 1 or data.size % bins != 0:
        raise ValueError("bins must divide the sample into equal blocks")
    block = data.size // bins
    if block < 16:
        raise ValueError(f"blocks of {block} < 16 observations")
    values = mle_const_sigma_m1(data.reshape(bins, block), n, tau)
    return BinnedEstimate(values=values, n=n, tau=tau)


@dataclass(frozen=True)
class ExperimentResult:
    """Monte Carlo error summary of one estimator across sample sizes."""

    model: str
    estimator: str
    n_list: tuple
    mse: tuple
    mse_se: tuple
    var: tuple
    var_se: tuple
    reps: int
    seed: int
    slope: float
    slope_se: float
    config_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "estimator": self.estimator,
            "rows": [
                {"n": n, "mse": m, "mse_se": ms, "var": v, "var_se": vs}
                for n, m, ms, v, vs in zip(
                    self.n_list, self.mse, self.mse_se, self.var, self.var_se
                )
            ],
            "reps": self.reps,
            "seed": self.seed,
            "slope": null_if_nan(self.slope),
            "slope_se": null_if_nan(self.slope_se),
            "version": __version__,
            "config_hash": self.config_hash,
            "extra": {},
        }

    def to_csv_rows(self) -> list[list]:
        header = ["model", "estimator", "n", "mse", "mse_se", "var", "var_se",
                  "reps", "seed"]
        rows = [header]
        for n, m, ms, v, vs in zip(self.n_list, self.mse, self.mse_se,
                                   self.var, self.var_se):
            rows.append([self.model, self.estimator, n, repr(m), repr(ms),
                         repr(v), repr(vs), self.reps, self.seed])
        return rows


# samples of one chunk of replicates, in bytes: a chunk holds
# CHUNK_BYTES / 8n replicates and at least one (16 at n = 1024, 4 at 4096,
# 1 at 16384).  The sine transform's complex workspace, of length 2n per
# replicate at power-of-two n, is 4 times the samples and stays with the
# thread between chunks; beyond it, the transform's result and the Newton
# solve's three row buffers make a chunk peak at about 4 times the
# samples, 0.5 MB, at n = 1024, 4096 and 16384 (measured with tracemalloc
# on a second chunk)
CHUNK_BYTES = 2**17


def _estimate_block(estimator: str, block: np.ndarray, n: int,
                    tau: float) -> np.ndarray:
    """One estimate per row of ``block``."""
    if estimator == "mle":
        return mle_const_sigma_m1(block, n, tau)
    return realized_variance(block, n, tau, corrected=estimator == "rv")


def rate_experiment(model: str, estimator: str, n_list, reps: int,
                    seed: int = 0, sigma_sq: float = 1.0, tau: float = 0.1,
                    workers: int = 1) -> ExperimentResult:
    """Monte Carlo MSE of an estimator across ``n``, with a log-log fit.

    Only model m1 with constant volatility is wired up (the estimators
    here target it); the per-n squared errors are averaged over ``reps``
    replicates and ``log2(MSE)`` is regressed on ``log2(n)``.  Each n runs
    in chunks of :data:`CHUNK_BYTES` of samples; a chunk is one estimator
    call on a block of replicates, and ``workers`` threads map over
    chunks.  Replicate ``r`` is drawn from its own stream whatever
    the chunking, so the result does not depend on it or on ``workers``.
    """
    if model != "m1":
        raise ValueError("rate_experiment supports model 'm1' only")
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly ascending")
    if reps < 100:
        raise ValueError("reps must be >= 100 for a stable summary")
    if not abs(tau) <= _TAU_MAX:
        raise ValueError(f"tau must be at most {_TAU_MAX:g} in absolute value")
    # before any draw: tau = 0 means no noise, which only the MLE refuses
    if estimator == "mle":
        _require_noise(tau)
    elif tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau!r}")
    for n in n_list:
        _require_sampling(sigma_sq, n)

    def estimates_for(n: int) -> np.ndarray:
        rows = max(1, CHUNK_BYTES // (8 * n))

        def chunk(start: int) -> np.ndarray:
            block = np.empty((min(rows, reps - start), n))
            for i in range(block.shape[0]):
                block[i] = sample_m1_constant_diff(sigma_sq, tau, n,
                                                   rep=start + i, seed=seed)
            return _estimate_block(estimator, block, n, tau)

        starts = range(0, reps, rows)
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                return np.concatenate(list(pool.map(chunk, starts)))
        return np.concatenate([chunk(start) for start in starts])

    mse, mse_se, var, var_se = [], [], [], []
    for n in n_list:
        est = estimates_for(n)
        sq_err = (est - sigma_sq) ** 2
        mse.append(float(np.mean(sq_err)))
        mse_se.append(float(np.std(sq_err, ddof=1) / math.sqrt(reps)))
        v = float(np.var(est, ddof=1))
        var.append(v)
        var_se.append(v * math.sqrt(2.0 / (reps - 1)))

    slope, slope_se = ols_slope(np.log2(n_list), np.log2(mse))
    config = {
        "model": model, "estimator": estimator, "n_list": n_list,
        "reps": reps, "seed": seed, "sigma_sq": sigma_sq, "tau": tau,
    }
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    return ExperimentResult(
        model=model, estimator=estimator, n_list=tuple(n_list),
        mse=tuple(mse), mse_se=tuple(mse_se), var=tuple(var),
        var_se=tuple(var_se), reps=reps, seed=seed,
        slope=slope, slope_se=slope_se, config_hash=digest,
    )
