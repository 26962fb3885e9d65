import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import as_runs, quad_points, scatter
from scipy.integrate import quad

from mnlab import kl
from mnlab import linalg as la
from mnlab import models
from mnlab import structures as st
from mnlab.errors import (DimensionMismatch, InvalidDifferencing, InvalidProfile,
                          QuadratureFailure)
from mnlab.hypotheses import BumpSumProfile, build_family
from mnlab.profiles import CallableProfile, ConstantProfile, PiecewiseConstantProfile

ONE = ConstantProfile(1.0)


def raw_entry_oracle(model, n, tau, profile, i, j):
    """Direct quadrature of the defining integral, 1-based indices."""
    ti, tj, s = i / n, j / n, min(i, j) / n
    noise = tau * tau if i == j else 0.0
    if model == "m1":
        val, _ = quad(lambda u: float(profile.eval(u)), 0.0, s,
                      points=quad_points(profile, 0.0, s),
                      limit=200)
        return val + noise
    if model == "m2":
        return (math.sqrt(float(profile.eval(ti)) * float(profile.eval(tj))) * s
                + noise)
    val, _ = quad(
        lambda u: (ti - u) * (tj - u) * float(profile.eval(u)),
        0.0, s,
        points=quad_points(profile, 0.0, s),
        limit=200,
    )
    return val + noise


def random_piecewise(rng, pieces=4):
    breaks = np.sort(rng.uniform(0.1, 0.9, size=pieces - 1))
    values = rng.uniform(0.5, 2.0, size=pieces)
    return PiecewiseConstantProfile(breaks, values)


@pytest.mark.parametrize("tau", [-0.1, math.nan, math.inf])
def test_spec_rejects_negative_or_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        models.ModelSpec("m1", 8, tau)


@pytest.mark.parametrize("model", ["m1", "m2", "m3"])
@pytest.mark.parametrize("n,message", [(0, "n must be >= 1"), (1, "differencing needs n >= 2")])
def test_spec_needs_two_observations(model, n, message):
    with pytest.raises(ValueError, match=message):
        models.ModelSpec(model, n, 0.1)


class TestCovRaw:
    def test_m1_constant_closed_form(self):
        n, tau = 8, 0.3
        cov = models.cov_raw(models.ModelSpec("m1", n, tau), ONE)
        i = np.arange(1, n + 1)
        expected = np.minimum.outer(i, i) / n + tau * tau * np.eye(n)
        assert np.max(np.abs(cov - expected)) <= 1e-15

    def test_m2_matches_sandwich_form(self):
        n, tau = 12, 0.2
        rng = np.random.default_rng(0)
        profile = random_piecewise(rng)
        cov = models.cov_raw(models.ModelSpec("m2", n, tau), profile)
        s = np.sqrt(profile.eval(np.arange(1, n + 1) / n))
        i = np.arange(1, n + 1)
        expected = np.outer(s, s) * (np.minimum.outer(i, i) / n) \
            + tau * tau * np.eye(n)
        assert np.max(np.abs(cov - expected)) <= 1e-14

    def test_m3_two_intervals(self):
        # integral_0^min(t_i, t_j) (t_i - s) (t_j - s) ds at t = 1/2, 1
        cov = models.cov_raw(models.ModelSpec("m3", 2, 0.0), ONE)
        expected = [[1.0 / 24.0, 5.0 / 48.0], [5.0 / 48.0, 1.0 / 3.0]]
        assert np.max(np.abs(cov - expected)) <= 1e-15

    @pytest.mark.parametrize("model", ["m1", "m3"])
    def test_entries_match_quadrature_oracle(self, model):
        n, tau = 10, 0.15
        rng = np.random.default_rng(1)
        for profile in (random_piecewise(rng),
                        build_family(64, 1.0, 1.0, 7.5, "m1m2", seed=1).profile(1)):
            cov = models.cov_raw(models.ModelSpec(model, n, tau), profile)
            for i, j in ((1, 1), (2, 5), (7, 7), (10, 3)):
                oracle = raw_entry_oracle(model, n, tau, profile, i, j)
                assert cov[i - 1, j - 1] == pytest.approx(oracle, abs=1e-11)

    def test_invalid_profile_probed(self):
        bad = CallableProfile(lambda t: np.cos(12.0 * np.asarray(t)))
        with pytest.raises(InvalidProfile):
            models.cov_raw(models.ModelSpec("m1", 16, 0.1), bad)

    def test_quadrature_failure_surfaces(self):
        wild = CallableProfile(lambda t: 1.01 + np.sin(3.7e6 * np.asarray(t)))
        with pytest.raises(QuadratureFailure):
            models.cov_raw(models.ModelSpec("m1", 4, 0.1), wild)


class TestDiffMatrix:
    def test_first_n2(self):
        d = models.diff_matrix(models.ModelSpec("m1", 2, 0.1, differencing="first"))
        assert np.array_equal(d, [[1.0, 0.0], [-1.0, 1.0]])

    def test_second_n3(self):
        d = models.diff_matrix(models.ModelSpec("m3", 3, 0.1, differencing="second"))
        expected = [[math.sqrt(2.0), 0.0, 0.0], [-2.0, 1.0, 0.0], [1.0, -2.0, 1.0]]
        assert np.allclose(d, expected, atol=0)

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_first_determinant_one(self, n):
        d = models.diff_matrix(models.ModelSpec("m1", n, 0.1, differencing="first"))
        assert np.linalg.det(d) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("differencing", ["first", "second"])
    def test_invertible_roundtrip(self, differencing):
        model = "m3" if differencing == "second" else "m1"
        spec = models.ModelSpec(model, 20, 0.1, differencing=differencing)
        d = models.diff_matrix(spec)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        assert np.max(np.abs(np.linalg.solve(d, d @ x) - x)) <= 1e-12

    def test_spec_takes_its_models_own_differencing(self):
        for model, differencing in (("m1", "first"), ("m2", "first"), ("m3", "second")):
            spec = models.ModelSpec(model, 8, 0.1)
            named = models.ModelSpec(model, 8, 0.1, differencing=differencing)
            assert spec.differencing == differencing
            assert spec == named and hash(spec) == hash(named)

    def test_second_only_for_m3(self):
        with pytest.raises(InvalidDifferencing):
            models.ModelSpec("m1", 4, 0.1, differencing="second")

    @pytest.mark.parametrize("model,differencing", [
        ("m2", "second"), ("m3", "first"), ("m1", "third"),
    ])
    def test_each_model_takes_only_its_own_differencing(self, model, differencing):
        with pytest.raises(InvalidDifferencing):
            models.ModelSpec(model, 4, 0.1, differencing=differencing)

    def test_three_models(self):
        with pytest.raises(ValueError, match="model must be one of"):
            models.ModelSpec("mq", 4, 0.1)


class TestCovDifferenced:
    def test_m1_n2_closed_form(self):
        spec = models.ModelSpec("m1", 2, 1.0, differencing="first")
        cov = models.cov_differenced(spec, ONE)
        assert np.allclose(cov, [[1.5, -1.0], [-1.0, 2.5]], atol=1e-15)

    def test_m1_constant_structured_form(self):
        n, tau = 96, 0.2
        spec = models.ModelSpec("m1", n, tau, differencing="first")
        cov = models.cov_differenced(spec, ONE)
        expected = np.eye(n) / n + tau * tau * st.matrix_a(n)
        assert np.max(np.abs(cov - expected)) <= 1e-12

    def test_m3_closed_entries(self):
        n = 32
        spec = models.ModelSpec("m3", n, 0.0, differencing="second")
        cov = models.cov_differenced(spec, ONE)
        n3 = float(n) ** 3
        assert np.max(np.abs(np.diag(cov) - 2.0 / (3.0 * n3))) <= 1e-12 / n3
        assert cov[0, 1] == pytest.approx(math.sqrt(2.0) / (6.0 * n3), rel=1e-13)
        off = np.diag(cov, k=1)[1:]
        assert np.max(np.abs(off - 1.0 / (6.0 * n3))) <= 1e-12 / n3
        assert np.max(np.abs(np.diag(cov, k=2))) == 0.0

    @pytest.mark.parametrize("model,differencing", [
        ("m1", "first"), ("m2", "first"), ("m3", "second"),
    ])
    def test_congruence_with_raw(self, model, differencing):
        n, tau = 24, 0.25
        rng = np.random.default_rng(4)
        for profile in (ONE, random_piecewise(rng),
                        build_family(64, 1.0, 1.0, 7.5, "m1m2", seed=4).profile(2)):
            spec = models.ModelSpec(model, n, tau, differencing=differencing)
            d = models.diff_matrix(spec)
            raw = models.cov_raw(spec, profile)
            conj = d @ raw @ d.T
            direct = models.cov_differenced(spec, profile)
            scale = np.max(np.abs(raw))
            assert np.max(np.abs(conj - direct)) <= 1e-12 * scale

    def test_m3_differenced_overlap_oracle(self):
        # independent oracle: quadrature of the explicit two-piece kernels
        n, tau = 12, 0.0
        rng = np.random.default_rng(5)
        profile = random_piecewise(rng)
        spec = models.ModelSpec("m3", n, tau, differencing="second")
        cov = models.cov_differenced(spec, profile)

        def kernel(i):
            def k(u):
                if (i - 1) / n <= u <= i / n:
                    return i / n - u
                if i >= 2 and (i - 2) / n <= u < (i - 1) / n:
                    return u - (i - 2) / n
                return 0.0
            return k

        for i, j in ((1, 1), (1, 2), (3, 3), (5, 6), (12, 12)):
            ki, kj = kernel(i), kernel(j)
            scale = 2.0 if (i == 1 and j == 1) else (math.sqrt(2.0)
                    if 1 in (i, j) else 1.0)
            lo, hi = max(i, j) / n - 2.0 / n, min(i, j) / n
            val = 0.0
            if hi > lo:
                val, _ = quad(
                    lambda u: ki(u) * kj(u) * float(profile.eval(u)),
                    max(lo, 0.0), hi,
                    points=quad_points(profile, lo, hi),
                    limit=200,
                )
            assert cov[i - 1, j - 1] == pytest.approx(scale * val, abs=1e-14)

    @pytest.mark.parametrize("model,n,differencing", [
        ("m1", 256, "first"), ("m1", 512, "first"),
        ("m2", 256, "first"), ("m2", 512, "first"),
        ("m3", 64, "second"), ("m3", 128, "second"),
    ])
    def test_psd_random_profiles(self, model, n, differencing):
        rng = np.random.default_rng(n)
        spec = models.ModelSpec(model, n, 0.1, differencing=differencing)
        assert la.is_psd(models.cov_differenced(spec, random_piecewise(rng)))


def assert_built_symmetric(out):
    # the builders, not their consumers, own symmetry: each output must be
    # bit-exactly symmetric, with no -0.0, exactly as sym() would leave it
    assert np.array_equal(out, out.T)
    assert out.tobytes() == la.sym(out).tobytes()


class TestBuilderSymmetry:
    PROFILES = (
        ONE,
        PiecewiseConstantProfile([0.3, 0.55, 0.8], [0.7, 1.9, 1.2, 0.9]),
        build_family(64, 1.0, 1.0, 7.5, "m1m2", seed=1).profile(1),
        CallableProfile(lambda t: 1.0 + 0.5 * np.sin(3.0 * np.asarray(t))),
    )

    @pytest.mark.parametrize("n", [5, 64, 257])
    @pytest.mark.parametrize("build", [models.cov_raw, models.cov_differenced],
                             ids=["raw", "differenced"])
    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    def test_covariances(self, model, build, n):
        for profile in self.PROFILES:
            for tau in (0.0, 0.1):
                assert_built_symmetric(build(models.ModelSpec(model, n, tau), profile))

    @pytest.mark.parametrize("n", [5, 64, 257])
    def test_decompositions(self, n):
        for tau in (0.0, 0.1):
            assert_built_symmetric(models.model3_reference_decomposition(n, tau))
        assert_built_symmetric(models.extract_v2(n, 0.1))


class TestModel3Ordering:
    def setup_method(self):
        self.n = 128
        self.c = 14.001 / self.n ** (1.0 / 12.0)
        self.family = build_family(self.n, 1.0, 1.0, self.c, "m3", seed=6)
        spec = models.ModelSpec("m3", self.n, 0.1, differencing="second")
        self.null = models.cov_differenced(spec, ONE)
        self.spec = spec

    def test_alternative_dominates_null(self):
        for k in range(1, min(4, self.family.count_alternatives + 1)):
            cov_k = models.cov_differenced(self.spec, self.family.profile(k))
            assert la.is_psd(cov_k - self.null)

    def test_diagonal_domination(self):
        bound = 4.0 * self.family.amplitude * self.family.kernel.sup_value \
            / (3.0 * float(self.n) ** 3)
        gamma = la.sym(bound * np.eye(self.n))
        for k in range(1, min(4, self.family.count_alternatives + 1)):
            cov_k = models.cov_differenced(self.spec, self.family.profile(k))
            assert la.loewner_leq(cov_k - self.null, gamma)


def unit_bands(spec):
    return models.differenced_bands(spec, ONE)


class TestBumpDifference:
    def family(self, model, n):
        if model == "m3":
            return build_family(n, 1.0, 1.0, 14.001 / n ** (1.0 / 12.0), "m3", seed=6)
        return build_family(n, 1.0, 1.0, 9.0, "m1m2", seed=6)

    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    @pytest.mark.parametrize("n", [64, 257])
    def test_matches_the_dense_difference(self, model, n):
        spec = models.ModelSpec(model, n, 0.1)
        null = models.cov_differenced(spec, ONE)
        family = self.family(model, n)
        for k in range(1, min(4, family.count_alternatives + 1)):
            profile = family.profile(k)
            support, block = models.bump_difference(spec, profile, unit_bands(spec))
            alt = models.cov_differenced(spec, profile)
            diff = alt - null
            # m1 returns the diagonal of its block as a vector, m2 and m3 a
            # builder of it
            assert callable(block) == (model != "m1")
            block = kl.block_array(block, len(support))
            assert block.ndim == (1 if model == "m1" else 2)
            block = np.diag(block) if model == "m1" else block
            assert np.array_equal(block, block.T)
            runs = as_runs(support)
            assert np.all(runs[:, 1] > runs[:, 0])
            assert np.all(runs[1:, 0] >= runs[:-1, 1])
            # outside every run the two covariances agree bit for bit
            outside = np.ones(n, dtype=bool)
            for start, stop in runs:
                outside[start:stop] = False
            assert not np.any(diff[outside])
            # on the runs they differ by W B W^T, up to the rounding of
            # alt - null; the dense m2 path differences raw entries of size
            # up to 1
            tol = 4 * np.finfo(float).eps * max(np.max(np.abs(alt)),
                                                1.0 if model == "m2" else 0.0)
            assert np.max(np.abs(diff - scatter(n, support, block))) <= tol
            # and every row of the support moves
            assert np.all(np.any(block != 0.0, axis=1))

    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    def test_null_codeword_has_empty_support(self, model):
        spec = models.ModelSpec(model, 64, 0.1)
        support, block = models.bump_difference(
            spec, self.family(model, 64).profile(0), unit_bands(spec))
        block = kl.block_array(block, len(support))
        assert support.size == 0 and block.shape == ((0,) if model == "m1" else (0, 0))

    def test_needs_a_bump_profile_and_a_banded_model(self):
        spec = models.ModelSpec("m1", 16, 0.1, differencing="first")
        null = unit_bands(spec)
        with pytest.raises(InvalidProfile):
            models.bump_difference(spec, ConstantProfile(2.0), null)
        m2 = models.ModelSpec("m2", 16, 0.1, differencing="first")
        with pytest.raises(InvalidProfile):
            models.differenced_bands(m2, self.family("m2", 64).profile(1))

    def test_rejects_a_null_of_another_size(self):
        spec = models.ModelSpec("m3", 64, 0.1)
        with pytest.raises(DimensionMismatch):
            models.bump_difference(spec, self.family("m3", 64).profile(1),
                                   unit_bands(models.ModelSpec("m3", 32, 0.1)))

    @pytest.mark.parametrize("n", [64, 257])
    def test_m3_block_subtracts_the_given_null(self, n, monkeypatch):
        spec = models.ModelSpec("m3", n, 0.1)
        null = unit_bands(spec)
        profile = self.family("m3", n).profile(1)
        want = models.differenced_bands(spec, profile).bands - null.bands
        queries = []
        for method in ("eval", "cell_integrals"):
            original = getattr(ConstantProfile, method)
            monkeypatch.setattr(ConstantProfile, method,
                                lambda self, *args, original=original:
                                queries.append(self) or original(self, *args))
        support, block = models.bump_difference(spec, profile, null)
        block = kl.block_array(block, len(support))
        # no unit-volatility bands are built for the alternative
        assert queries == []
        diag, off = want[0], want[1]
        assert np.array_equal(np.diag(block), diag[support])
        neighbours = np.flatnonzero(np.diff(support) == 1)
        assert neighbours.size
        assert np.array_equal(block[neighbours, neighbours + 1],
                              off[support[neighbours]])
        assert np.array_equal(scatter(n, support, block),
                              la.Banded(want).dense())

    @pytest.mark.parametrize("n", [2, 3, 64, 1000])
    @pytest.mark.parametrize("tau", [0.0, 0.02, 0.1])
    @pytest.mark.parametrize("value", [1.0, 2.25, 0.7])
    def test_constant_m2_covariance_is_tridiagonal_bit_for_bit(self, n, tau, value):
        spec = models.ModelSpec("m2", n, tau, differencing="first")
        dense = models.cov_differenced(spec, ConstantProfile(value))
        bands = models.differenced_bands(spec, ConstantProfile(value))
        assert bands.bands.shape == (2, n)
        assert np.array_equal(bands.dense(), dense)
        assert np.array_equal(np.signbit(bands.dense()), np.signbit(dense))

    @pytest.mark.parametrize("n", [2, 3, 64, 1000])
    @pytest.mark.parametrize("value", [1.0, 2.25, 0.7])
    def test_constant_m2_bands_are_m1s_bit_for_bit(self, n, value):
        # under constant volatility m1 and m2 difference to one law
        m1, m2 = (models.differenced_bands(models.ModelSpec(model, n, 0.1),
                                           ConstantProfile(value)).bands
                  for model in ("m1", "m2"))
        assert np.array_equal(m1.view(np.int64), m2.view(np.int64))

    @pytest.mark.parametrize("n", [2, 64])
    def test_a_one_piece_step_profile_is_constant(self, n):
        spec = models.ModelSpec("m2", n, 0.1)
        step, constant = PiecewiseConstantProfile((), (2.0,)), ConstantProfile(2.0)
        got, want = (models.differenced_bands(spec, p).bands for p in (step, constant))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got, want = (models.cov_differenced(spec, p) for p in (step, constant))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        with pytest.raises(InvalidProfile):
            models.differenced_bands(spec, PiecewiseConstantProfile((0.5,), (2.0, 2.0)))

    @pytest.mark.parametrize("n", [2, 3, 64, 1000])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_constant_m2_bands_against_the_conjugated_raw_signal(self, n, tau):
        # the first-difference conjugation of the raw m2 matrix: the same
        # bits at sigma^2 = 1, the unit null of every certificate and probe;
        # within rounding at other levels
        for value in (1.0, 2.25, 0.7):
            profile = ConstantProfile(value)
            conjugated = (models._conjugate_first(models._m2_signal(profile, n))
                          + tau * tau * st.matrix_a(n))
            got = models.differenced_bands(models.ModelSpec("m2", n, tau, "first"),
                                           profile).dense()
            if value == 1.0:
                assert np.array_equal(got, conjugated)
                assert np.array_equal(np.signbit(got), np.signbit(conjugated))
            else:
                np.testing.assert_allclose(got, conjugated, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model", ["m1", "m3"])
    def test_bands_hold_the_dense_covariance(self, model):
        spec = models.ModelSpec(model, 33, 0.1)
        profile = self.family(model, 64).profile(1)
        bands = models.differenced_bands(spec, profile)
        assert bands.bands.shape == (2 if model == "m1" else 3, 33)
        dense = models.cov_differenced(spec, profile)
        assert np.array_equal(bands.dense(), dense)
        assert np.array_equal(np.signbit(bands.dense()), np.signbit(dense))
        width = bands.bands.shape[0] - 1
        assert not np.any(np.triu(dense, width + 1))


class TestModel2Difference:
    @pytest.mark.parametrize("n", [32, 257])
    @pytest.mark.parametrize("every", [3, 4])
    def test_is_t_t_transpose_minus_identity_over_n(self, n, every):
        # T = D diag(s) L, with D the first differences and L = D^-1
        spec = models.ModelSpec("m2", n, 0.1, differencing="first")
        family = build_family(n, 1.0, 1.0, 9.0, "m1m2", seed=6)
        # every third (fourth) bump: stretches of unit volatility between them
        codeword = (np.arange(family.m) % every == 0).astype(float)
        profile = BumpSumProfile(family.kernel, family.centers, family.h,
                                 family.amplitude, codeword)
        runs = as_runs(models.bump_difference(spec, profile, unit_bands(spec))[0])
        assert np.any(runs[1:, 1] - runs[1:, 0] > 1)
        s = np.sqrt(profile.eval(np.arange(1, n + 1) / n))
        t = models.diff_matrix(spec) @ np.diag(s) @ np.tril(np.ones((n, n)))
        want = (t @ t.T - np.eye(n)) / n
        alt = models.cov_differenced(spec, profile)
        got = alt - models.cov_differenced(spec, ONE)
        tol = 4 * np.finfo(float).eps * max(np.max(np.abs(alt)), 1.0)
        assert np.max(np.abs(got - want)) <= tol


    def test_m2_probe_loads_no_masked_arrays(self):
        # the run edges are sorted with repeats dropped, not np.unique,
        # which imports numpy.ma
        code = ("import sys\n"
                "from mnlab.certificate import kl_scaling_probe\n"
                "kl_scaling_probe('m2', 1.0, 1.0, 0.02, [256, 512], bump_width=0.25)\n"
                "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestNoiseResidual:
    def test_matches_explicit_gram(self):
        n = 9
        spec = models.ModelSpec("m3", n, 0.1, differencing="second")
        d = models.diff_matrix(spec)
        oracle = d @ d.T - st.matrix_a(n) @ st.matrix_a(n)
        assert np.max(np.abs(models.extract_v2(n, 0.1) - oracle)) <= 1e-15

    def test_corner_values(self):
        v2 = models.extract_v2(16, 0.1)
        assert v2[0, 0] == 0.0
        assert v2[0, 1] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
        assert v2[1, 1] == -1.0
        assert v2[0, 2] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_support_structure(self):
        # nonzero only in the leading 3x3 block plus a +1 at the bottom
        # corner: the second-difference Gram has a full interior row at the
        # end while the squared tridiagonal loses one term there
        n = 12
        v2 = models.extract_v2(n, 0.1)
        assert v2[n - 1, n - 1] == 1.0
        mask = np.zeros((n, n), dtype=bool)
        mask[:3, :3] = True
        mask[n - 1, n - 1] = True
        assert np.max(np.abs(v2[~mask])) == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            models.extract_v2(3, 0.1)


class TestReferenceDecomposition:
    def test_matches_exact_off_corner(self):
        n, tau = 48, 0.15
        spec = models.ModelSpec("m3", n, tau, differencing="second")
        exact = models.cov_differenced(spec, ONE)
        reference = models.model3_reference_decomposition(n, tau)
        n3 = float(n) ** 3
        assert np.max(np.abs((exact - reference)[1:, 1:])) <= 1e-13 / n3
        # the known corner discrepancy: structured formula overshoots by
        # exactly 1/(6 n^3) in the signal part
        assert reference[0, 0] - exact[0, 0] == pytest.approx(
            1.0 / (6.0 * n3), rel=1e-10
        )
