import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy import optimize

from mnlab import models
from mnlab import montecarlo as mc
from mnlab import structures as st
from mnlab.errors import OptimizationFailure
from mnlab.hypotheses import single_bump_profile
from mnlab.profiles import ConstantProfile, PiecewiseConstantProfile
from mnlab.regression import ols_slope


class TestSampler:
    def test_profile_sampler_matches_covariance(self):
        profile = single_bump_profile(1.0, 30.0, 0.25, 0.5)
        n, tau = 64, 0.2
        sds = mc.m1_interval_sds(profile, n)
        draws = np.stack([
            mc.sample_m1_profile_diff(sds, tau, n, rep=r, seed=4)
            for r in range(40_000)
        ])
        emp = draws.T @ draws / draws.shape[0]
        spec = models.ModelSpec("m1", n, tau, differencing="first")
        cov = models.cov_differenced(spec, profile)
        assert np.max(np.abs(emp - cov)) <= 0.006

    def test_draws_in_stream_order_bit_for_bit(self):
        # the in-place draw gives the bits of the out-of-place formula
        n, tau = 50, 0.3
        sds = np.linspace(0.05, 0.2, n)
        rng = mc.replicate_rng(9, n, 4)
        xi, eps = rng.standard_normal(n), rng.standard_normal(n)
        want = sds * xi + tau * eps
        want[1:] -= tau * eps[:-1]
        assert np.array_equal(mc.sample_m1_profile_diff(sds, tau, n, rep=4, seed=9),
                              want)

    @pytest.mark.parametrize("sds", [0.1, np.float64(0.1), np.array(0.1)])
    def test_scalar_sds_is_constant_volatility(self, sds):
        n = 32
        assert np.array_equal(mc.sample_m1_profile_diff(sds, 0.2, n, rep=1, seed=3),
                              mc.sample_m1_constant_diff(0.01 * n, 0.2, n, rep=1, seed=3))

    @pytest.mark.parametrize("shape", [(1,), (31,), (33,), (1, 32), (32, 1)])
    def test_rejects_sds_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="interval_sds"):
            mc.sample_m1_profile_diff(np.full(shape, 0.1), 0.2, 32)


class TestMle:
    def test_recovers_stationary_construction(self):
        n, tau, truth = 512, 0.1, 1.7
        variances = truth / n + tau * tau * st.eigvals_closed(n)
        data = st.sine_transform_inverse(np.sqrt(variances))
        assert mc.mle_const_sigma_m1(data, n, tau) == pytest.approx(
            truth, abs=1e-6
        )

    def test_monte_carlo_unbiasedness(self):
        n, tau, reps = 4096, 0.1, 200
        estimates = np.array([
            mc.mle_const_sigma_m1(
                mc.sample_m1_constant_diff(1.0, tau, n, rep=r, seed=6), n, tau
            )
            for r in range(reps)
        ])
        se = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - 1.0) <= 3.0 * se

    def test_noise_dominated_sample_clamps_to_floor(self):
        n, tau = 256, 0.5
        data = np.zeros(n)
        data[0] = 1e-6
        assert mc.mle_const_sigma_m1(data, n, tau) == pytest.approx(1e-8)

    def test_overscaled_data_fails_with_profile(self):
        n = 128
        data = 1e4 * np.ones(n)
        with pytest.raises(OptimizationFailure) as err:
            mc.mle_const_sigma_m1(data, n, 0.1)
        assert len(err.value.profile) == 41

    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, 1.01e50])
    def test_rejects_non_finite_tau(self, tau):
        data = mc.sample_m1_constant_diff(1.0, 0.1, 64, rep=0, seed=1)
        with pytest.raises(ValueError, match=r"tau must lie in \(0, 1e\+50\]"):
            mc.mle_const_sigma_m1(data, 64, tau)

    @pytest.mark.parametrize("estimator", ["mle", "rv"])
    def test_experiment_rejects_a_huge_tau_before_sampling(self, estimator, monkeypatch):
        monkeypatch.setattr(mc, "sample_m1_constant_diff", None)
        with pytest.raises(ValueError, match=r"tau must be at most 1e\+50"):
            mc.rate_experiment("m1", estimator, [16, 32], 100, tau=-1e51)

    @pytest.mark.parametrize("estimator, tau, match", [
        ("rv", -0.1, "tau must be non-negative, got -0.1"),
        ("rv_uncorrected", -1e-300, "tau must be non-negative"),
        ("mle", -0.1, r"tau must lie in \(0, 1e\+50\]"),
        ("mle", 0.0, r"tau must lie in \(0, 1e\+50\]"),
    ])
    def test_experiment_rejects_a_tau_out_of_range_before_sampling(
            self, estimator, tau, match, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the refusal")

        monkeypatch.setattr(mc, "sample_m1_constant_diff", refuse)
        with pytest.raises(ValueError, match=match):
            mc.rate_experiment("m1", estimator, [1024, 2048], 100, tau=tau)

    @pytest.mark.parametrize("estimator", ["rv", "rv_uncorrected"])
    def test_zero_noise_is_valid_for_realized_variance(self, estimator):
        # tau = 0: the data carry no noise, and the two sums coincide
        result = mc.rate_experiment("m1", estimator, [64, 128], 100, seed=1, tau=0.0)
        plain = mc.rate_experiment("m1", "rv_uncorrected", [64, 128], 100, seed=1,
                                   tau=0.0)
        assert result.mse == plain.mse

    @pytest.mark.parametrize("n", [0, -64])
    def test_rejects_rate_below_one(self, n):
        data = mc.sample_m1_constant_diff(1.0, 0.1, 64, rep=0, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n must be at least 1"):
                mc.mle_const_sigma_m1(data, n, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        data = mc.sample_m1_constant_diff(1.0, 0.1, 64, rep=0, seed=1)
        data[17] = bad
        with pytest.raises(ValueError, match="finite"):
            mc.mle_const_sigma_m1(data, 64, 0.1)


class TestMleBlock:
    def test_block_equals_rows_bit_for_bit(self):
        n, tau = 256, 0.5
        block = np.stack([
            mc.sample_m1_constant_diff(sigma_sq, tau, n, rep=r, seed=3)
            for r, sigma_sq in enumerate((1.0, 0.3, 2.5, 1e-3, 7.0))
        ])
        block[2] = 0.0
        block[2, 0] = 1e-6  # noise-dominated: this row returns the floor
        expected = [mc.mle_const_sigma_m1(row, n, tau) for row in block]
        assert expected[2] == 1e-8
        estimates = mc.mle_const_sigma_m1(block, n, tau)
        assert estimates.shape == (5,)
        assert np.array_equal(estimates, expected)

    def test_single_row_block_matches_the_vector(self):
        data = mc.sample_m1_constant_diff(1.0, 0.1, 100, rep=4, seed=2)
        est = mc.mle_const_sigma_m1(data, 100, 0.1)
        assert isinstance(est, float)
        block = mc.mle_const_sigma_m1(data[None, :], 100, 0.1)
        assert block.tolist() == [est]

    def test_any_failing_row_fails_the_block(self):
        n = 128
        block = np.stack([
            mc.sample_m1_constant_diff(1.0, 0.1, n, rep=r, seed=1)
            for r in range(3)
        ])
        block[1] = 1e4
        with pytest.raises(OptimizationFailure) as err:
            mc.mle_const_sigma_m1(block, n, 0.1)
        assert len(err.value.profile) == 41

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry_in_any_row(self, bad):
        block = np.ones((3, 64))
        block[2, 63] = bad
        with pytest.raises(ValueError, match="finite"):
            mc.mle_const_sigma_m1(block, 64, 0.1)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 64), (2, 2, 16)])
    def test_rejects_empty_or_higher_rank_block(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            mc.mle_const_sigma_m1(np.ones(shape), 64, 0.1)


def _score(data, n, tau):
    """The m1 constant-volatility score, rebuilt from the sine coordinates."""
    c2 = st.sine_transform(data) ** 2
    noise = tau * tau * st.eigvals_closed(len(data))

    def score(s):
        v = s / n + noise
        return float(np.sum((c2 - v) / (v * v)))

    return score


_SOLVER_CASES = dict(
    n=hs.integers(16, 4096),
    tau=hs.floats(0.01, 0.5),
    sigma_sq=hs.floats(1e-3, 1e2),
    seed=hs.integers(0, 2**32 - 1),
)


# a sample whose score has three roots in the default bracket
_THREE_ROOTS = dict(n=32, tau=0.01, sigma_sq=1e-3, seed=2912948206)


class TestMleCertificate:
    @settings(max_examples=60, deadline=None)
    @given(**_SOLVER_CASES)
    @example(**_THREE_ROOTS)
    def test_estimate_brackets_the_root(self, n, tau, sigma_sq, seed):
        lo, tol = 1e-8, 1e-10
        data = mc.sample_m1_constant_diff(sigma_sq, tau, n, seed=seed)
        est = mc.mle_const_sigma_m1(data, n, tau)
        score = _score(data, n, tau)
        if est == lo:
            assert score(lo) <= 0.0
            return
        step = tol * max(1.0, est)
        assert score(est - step) > 0.0 > score(est + step)

    @settings(max_examples=60, deadline=None)
    @given(**_SOLVER_CASES)
    @example(**_THREE_ROOTS)
    def test_agrees_with_brentq(self, n, tau, sigma_sq, seed):
        lo, hi, tol = 1e-8, 1e4, 1e-10
        data = mc.sample_m1_constant_diff(sigma_sq, tau, n, seed=seed)
        est = mc.mle_const_sigma_m1(data, n, tau)
        score = _score(data, n, tau)
        if score(lo) <= 0.0:
            assert est == lo
            return
        # a weakly informative sample can have several stationary points;
        # brentq finds each, and the estimate must be one of them
        grid = np.geomspace(lo, hi, 401)
        signs = np.sign([score(x) for x in grid])
        roots = [
            optimize.brentq(score, grid[i], grid[i + 1], xtol=1e-15,
                            rtol=1e-15)
            for i in np.nonzero(signs[:-1] != signs[1:])[0]
        ]
        assert min(abs(est - r) for r in roots) <= tol * max(1.0, est)

    @settings(max_examples=6, deadline=None)
    @given(ns=hs.lists(hs.integers(16, 4096), min_size=2, max_size=2,
                       unique=True).map(sorted),
           tau=_SOLVER_CASES["tau"], sigma_sq=_SOLVER_CASES["sigma_sq"],
           seed=_SOLVER_CASES["seed"])
    def test_rate_experiment_is_worker_independent(self, ns, tau, sigma_sq,
                                                   seed):
        def run(workers):
            return mc.rate_experiment("m1", "mle", ns, 100, seed=seed,
                                      sigma_sq=sigma_sq, tau=tau,
                                      workers=workers).to_dict()

        assert run(2) == run(1)


def _allocating_mle_row(c2, n, noise, u, u_sum):
    """The out-of-place Newton solve that ``mc._mle_row`` runs in place."""
    lo, hi = mc.BRACKET

    def score(s):
        w = 1.0 / (s / n + noise)
        cw = c2 * w
        return float(np.sum(w * (cw - 1.0))), w, cw

    def loglik(s):
        v = s / n + noise
        return -0.5 * float(np.sum(np.log(v) + c2 / v))

    g_lo, g_hi = score(lo)[0], score(hi)[0]
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
    start = n * float(np.sum(u * (c2 - noise))) / u_sum
    a, b = lo, hi
    s = min(max(start, lo), hi)
    for _ in range(200):
        g, w, cw = score(s)
        if g > 0.0:
            a = s
        elif g < 0.0:
            b = s
        else:
            return s
        if b - a <= mc.TOL * max(1.0, b):
            break
        gp = float(np.sum(w * w * (1.0 - 2.0 * cw))) / n
        step = -g / gp if gp != 0.0 else math.inf
        h = 0.5 * mc.TOL * max(1.0, s)
        if abs(step) < h:
            step = math.copysign(h, step)
        s = s + step if a < s + step < b else 0.5 * (a + b)
    return 0.5 * (a + b)


def _row_outcome(row_fn, n, tau, sigma_sq, seed):
    """``row_fn`` on one sample: the estimate's bits, or the failure's
    message and profile bits."""
    data = mc.sample_m1_constant_diff(sigma_sq, tau, n, seed=seed)
    c2 = st.sine_transform(data) ** 2
    noise = tau * tau * st.eigvals_closed(n)
    u = (1.0 / n + noise) ** -2
    try:
        est = row_fn(c2, n, noise, u, float(np.sum(u)))
    except OptimizationFailure as err:
        return "failure", str(err), np.array(err.profile).view(np.int64).tolist()
    return "estimate", np.float64(est).view(np.int64)


# one sample per way out of the solve; the multimodal sample's score is
# negative at both bracket ends although the likelihood has an interior
# maximum, so it returns the floor
_ORACLE_CASES = {
    "floor": dict(n=256, tau=0.5, sigma_sq=0.0, seed=1),
    "failure": dict(n=128, tau=0.1, sigma_sq=1e6, seed=1),
    "root": dict(n=512, tau=0.1, sigma_sq=1.0, seed=7),
    "multimodal": dict(n=17, tau=0.19008, sigma_sq=1e-3, seed=3767594629),
}


class TestNewtonInPlace:
    @settings(max_examples=200, deadline=None)
    @given(n=hs.integers(1, 512), tau=hs.floats(1e-3, 1.0),
           sigma_sq=hs.one_of(hs.just(0.0), hs.floats(-10.0, 7.0).map(lambda e: 10.0**e)),
           seed=hs.integers(0, 2**32 - 1))
    def test_matches_the_allocating_solve_bit_for_bit(self, n, tau, sigma_sq, seed):
        case = dict(n=n, tau=tau, sigma_sq=sigma_sq, seed=seed)
        assert (_row_outcome(mc._mle_row, **case)
                == _row_outcome(_allocating_mle_row, **case))

    @pytest.mark.parametrize("name", list(_ORACLE_CASES))
    def test_each_way_out_matches(self, name):
        case = _ORACLE_CASES[name]
        outcome = _row_outcome(mc._mle_row, **case)
        assert outcome == _row_outcome(_allocating_mle_row, **case)
        floor = np.float64(mc.BRACKET[0]).view(np.int64)
        way = ("failure" if outcome[0] == "failure"
               else "floor" if outcome[1] == floor else "root")
        assert way == ("floor" if name == "multimodal" else name)


class TestBinned:
    def test_single_bin_is_global_mle(self):
        n, tau = 1024, 0.1
        data = mc.sample_m1_constant_diff(1.0, tau, n, rep=0, seed=7)
        est = mc.binned_estimator(data, n, tau, 1)
        assert est.values[0] == mc.mle_const_sigma_m1(data, n, tau)
        assert est.eval(0.3) == est.values[0]

    def test_constant_truth_blocks_agree(self):
        n, tau = 4096, 0.1
        data = mc.sample_m1_constant_diff(1.0, tau, n, rep=1, seed=8)
        est = mc.binned_estimator(data, n, tau, 4)
        assert np.max(np.abs(est.values - 1.0)) <= 0.3

    def test_integrated_squared_error_across_jumps(self):
        # jumps inside bins, so the bins holding them are bisected
        profile = PiecewiseConstantProfile([0.3, 0.55, 0.8], [0.7, 1.9, 1.2, 0.9])
        est = mc.BinnedEstimate(values=np.array([0.5, 1.5, 2.0, 1.0]), n=64, tau=0.1)
        edges = np.array([0.0, 0.25, 0.3, 0.5, 0.55, 0.75, 0.8, 1.0])
        level = profile.eval((edges[:-1] + edges[1:]) / 2.0)
        want = np.sum((est.eval((edges[:-1] + edges[1:]) / 2.0) - level) ** 2
                      * np.diff(edges))
        assert est.integrated_squared_error(profile) == pytest.approx(
            want, rel=1e-14, abs=0.0)

    def test_bias_variance_u_shape(self):
        # strong block-aligned bump; frozen seed; minimum at an interior
        # bin count (values calibrated by a 24-replicate oracle run)
        n, tau = 2**14, 0.1
        profile = single_bump_profile(1.0, 88.0, 0.25, 0.625)
        sds = mc.m1_interval_sds(profile, n)
        grid = (1, 4, 16, 64)
        ise = []
        for bins in grid:
            vals = [
                mc.binned_estimator(
                    mc.sample_m1_profile_diff(sds, tau, n, rep=r, seed=42),
                    n, tau, bins,
                ).integrated_squared_error(profile)
                for r in range(8)
            ]
            ise.append(float(np.mean(vals)))
        best = int(np.argmin(ise))
        assert grid[best] == 4
        assert ise[0] > ise[best] < ise[-1]

    def test_bins_equal_blockwise_estimates_bit_for_bit(self):
        n, tau, bins = 4096, 0.1, 16
        data = mc.sample_m1_constant_diff(1.0, tau, n, rep=2, seed=9)
        block = n // bins
        expected = [mc.mle_const_sigma_m1(data[b * block:(b + 1) * block], n, tau)
                    for b in range(bins)]
        assert np.array_equal(mc.binned_estimator(data, n, tau, bins).values,
                              expected)

    def test_block_size_guards(self):
        data = np.zeros(64)
        with pytest.raises(ValueError, match="blocks of 8 < 16 observations"):
            mc.binned_estimator(data, 64, 0.1, 8)
        with pytest.raises(ValueError):
            mc.binned_estimator(data, 64, 0.1, 3)


class TestRateExperiment:
    def test_mle_rate_short(self):
        result = mc.rate_experiment("m1", "mle", [1024, 2048, 4096], 150, seed=9)
        assert abs(result.slope - (-0.5)) <= 0.2
        assert all(m > 0 for m in result.mse)
        assert result.config_hash

    def test_uncorrected_realized_variance_inconsistent(self):
        result = mc.rate_experiment("m1", "rv_uncorrected", [1024, 2048, 4096],
                                    100, seed=9)
        # bias (2n-1) tau^2 grows, so the MSE increases with n (slope ~ +2)
        assert result.slope > 0.5
        assert result.mse[-1] > result.mse[0]

    def test_corrected_realized_variance_unbiased_but_inconsistent(self):
        n, tau, reps = 2048, 0.1, 200
        ests = np.array([
            mc.realized_variance(
                mc.sample_m1_constant_diff(1.0, tau, n, rep=r, seed=10), n, tau
            )
            for r in range(reps)
        ])
        se = ests.std(ddof=1) / np.sqrt(reps)
        assert abs(ests.mean() - 1.0) <= 3.0 * se
        result = mc.rate_experiment("m1", "rv", [1024, 2048, 4096], 100, seed=9)
        assert result.slope > 0.5

    def test_standard_errors_shrink_with_reps(self):
        a = mc.rate_experiment("m1", "rv", [512, 1024], 100, seed=12)
        b = mc.rate_experiment("m1", "rv", [512, 1024], 200, seed=12)
        for i in range(2):
            ratio = a.mse_se[i] / b.mse_se[i]
            assert 1.1 <= ratio <= 1.9

    def test_spectral_constants_once_per_n(self, monkeypatch):
        calls = []
        original = mc.eigvals_closed
        monkeypatch.setattr(mc, "eigvals_closed", lambda n: calls.append(n) or original(n))
        mc._spectral_constants.cache_clear()
        # 2, 4 and 7 chunks of replicates, one estimator call each
        mc.rate_experiment("m1", "mle", [256, 512, 1024], 100, seed=3)
        assert calls == [256, 512, 1024]
        noise, u, _ = mc._spectral_constants(1024, 1024, 0.1)
        assert not noise.flags.writeable and not u.flags.writeable

    def test_workers_reproducibility(self):
        a = mc.rate_experiment("m1", "mle", [512, 1024], 100, seed=13, workers=1)
        b = mc.rate_experiment("m1", "mle", [512, 1024], 100, seed=13, workers=3)
        assert a.mse == b.mse
        assert a.var == b.var
        assert a.slope == b.slope

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunks_equal_replicate_by_replicate_reference(self, workers):
        ns, reps, seed, sigma_sq, tau = [64, 1024, 4096], 101, 21, 1.0, 0.1
        # 101 is prime, so whenever an n takes several chunks the last one
        # is partial
        mse, mse_se, var, var_se = [], [], [], []
        for n in ns:
            est = np.array([
                mc.mle_const_sigma_m1(
                    mc.sample_m1_constant_diff(sigma_sq, tau, n, rep=r,
                                               seed=seed), n, tau)
                for r in range(reps)
            ])
            sq_err = (est - sigma_sq) ** 2
            mse.append(float(np.mean(sq_err)))
            mse_se.append(float(np.std(sq_err, ddof=1) / np.sqrt(reps)))
            var.append(float(np.var(est, ddof=1)))
            var_se.append(var[-1] * np.sqrt(2.0 / (reps - 1)))
        result = mc.rate_experiment("m1", "mle", ns, reps, seed=seed,
                                    sigma_sq=sigma_sq, tau=tau, workers=workers)
        slope, slope_se = ols_slope(np.log2(ns), np.log2(mse))
        rows = result.to_dict()["rows"]
        assert rows == [
            {"n": n, "mse": m, "mse_se": ms, "var": v, "var_se": vs}
            for n, m, ms, v, vs in zip(ns, mse, mse_se, var, var_se)
        ]
        assert (result.slope, result.slope_se) == (slope, slope_se)

    @pytest.mark.parametrize("estimator", ["rv", "rv_uncorrected"])
    def test_realized_variance_chunks_equal_replicates(self, estimator):
        n, reps = 1024, 100
        est = np.array([
            mc.realized_variance(
                mc.sample_m1_constant_diff(1.0, 0.1, n, rep=r, seed=5), n, 0.1,
                corrected=estimator == "rv")
            for r in range(reps)
        ])
        result = mc.rate_experiment("m1", estimator, [n], reps, seed=5)
        assert result.mse == (float(np.mean((est - 1.0) ** 2)),)

    @pytest.mark.parametrize("ns, sigma_sq, name", [
        ([0, 2], 1.0, "n"),
        ([-4, 256], 1.0, "n"),
        ([256, 512], -1.0, "sigma_sq"),
        ([256, 512], np.nan, "sigma_sq"),
    ])
    def test_rejects_sizes_below_one_and_negative_variance(self, ns, sigma_sq,
                                                           name):
        with pytest.raises(ValueError, match=f"^{name} "):
            mc.rate_experiment("m1", "mle", ns, 100, sigma_sq=sigma_sq)
        with pytest.raises(ValueError, match=f"^{name} "):
            mc.sample_m1_constant_diff(sigma_sq, 0.1, ns[0])

    def test_zero_variance_is_valid(self):
        result = mc.rate_experiment("m1", "mle", [64, 128], 100, sigma_sq=0.0)
        assert all(m > 0.0 for m in result.mse)

    def test_guards(self):
        with pytest.raises(ValueError):
            mc.rate_experiment("m2", "mle", [256, 512], 100)
        with pytest.raises(ValueError):
            mc.rate_experiment("m1", "mle", [512, 256], 100)
        with pytest.raises(ValueError):
            mc.rate_experiment("m1", "mle", [256, 512], 10)
        with pytest.raises(ValueError):
            mc.rate_experiment("m1", "bogus", [256, 512], 100)

    def test_serialisation(self):
        result = mc.rate_experiment("m1", "rv", [512, 1024], 100, seed=1)
        d = result.to_dict()
        assert {"model", "estimator", "rows", "slope", "version",
                "config_hash"} <= set(d)
        rows = result.to_csv_rows()
        assert rows[0] == ["model", "estimator", "n", "mse", "mse_se",
                           "var", "var_se", "reps", "seed"]
        assert len(rows) == 3
