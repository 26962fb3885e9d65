import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from conftest import as_runs, rand_psd, scatter
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from mnlab import kl, models
from mnlab import linalg as la
from mnlab.errors import NoConvergence, NotPositiveDefinite
from mnlab.hypotheses import BumpSumProfile, build_family, single_bump_profile
from mnlab.profiles import ConstantProfile


class TestExact:
    def test_identical_laws(self):
        assert kl.kl_exact(np.eye(4), np.eye(4)) == 0.0

    def test_scalar_closed_form(self):
        # 0.5 * (tr - 1 - ln det) = 0.5 * (2 - 1 - ln 2)
        assert kl.kl_exact([[1.0]], [[2.0]]) == pytest.approx(
            0.5 * (1.0 - math.log(2.0)), abs=1e-12
        )

    def test_tensorisation(self):
        n = 6
        expected = n * 0.5 * (1.0 - math.log(2.0))
        assert kl.kl_exact(np.eye(n), 2.0 * np.eye(n)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_zero_on_equal_random_pd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rand_psd(rng, int(rng.integers(2, 12)), floor=0.1)
            assert kl.kl_exact(s, s) <= 1e-10

    def test_errors(self):
        with pytest.raises(NotPositiveDefinite):
            kl.kl_exact(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
        with pytest.raises(ValueError, match="sizes differ: 2 vs 3"):
            kl.kl_exact(np.eye(2), np.eye(3))

    def test_congruence_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 16))
            s0 = rand_psd(rng, n, floor=0.1)
            s1 = la.sym(s0 + 0.5 * rand_psd(rng, n))
            t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            k1 = kl.kl_exact(s0, s1)
            k2 = kl.kl_exact(la.sym(t @ s0 @ t.T), la.sym(t @ s1 @ t.T))
            assert abs(k1 - k2) <= 1e-9 * max(1.0, k1)


class TestBound:
    def test_trivial_zero(self):
        assert kl.kl_bound(np.eye(3), np.eye(3), 1.0).value == 0.0

    def test_scalar_value_dominates(self):
        bound = kl.kl_bound([[1.0]], [[2.0]], 1.0)
        assert bound.value == pytest.approx(0.25)
        assert bound.middle == pytest.approx(0.25)
        assert kl.kl_exact([[1.0]], [[2.0]]) <= bound.value

    def test_invalid_constant(self):
        for c in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match=r"constant must lie in \(0, 1\]"):
                kl.kl_bound(np.eye(2), np.eye(2), c)

    def test_model2_hypothesis_pair(self):
        from mnlab.hypotheses import build_family
        from mnlab.models import ModelSpec, cov_differenced
        from mnlab.profiles import ConstantProfile

        n, l_const = 64, 1.0
        family = build_family(n, 1.0, l_const, 7.5, "m1m2", seed=0)
        spec = ModelSpec("m2", n, 0.1)
        cov0 = cov_differenced(spec, ConstantProfile(1.0))
        cov1 = cov_differenced(spec, family.profile(1))
        c = 1.0 / (2.0 + 12.0 * l_const**2)
        assert la.loewner_leq(c * cov0, cov1)
        bound = kl.kl_bound(cov0, cov1, c)
        exact = kl.kl_exact(cov0, cov1)
        assert exact <= bound.value
        assert kl.find_loewner_constant(cov0, cov1) >= c

    def test_validity_sweep_with_discovered_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            s0 = rand_psd(rng, n, floor=0.05)
            s1 = la.sym(s0 + 0.5 * rand_psd(rng, n))
            c = kl.find_loewner_constant(s0, s1)
            bound = kl.kl_bound(s0, s1, c)
            assert kl.kl_exact(s0, s1) <= bound.value + 1e-9
            assert bound.middle <= bound.value + 1e-9


class TestSymmetrizedBound:
    def test_trivial(self):
        assert kl.kl_bound_symmetrized(np.eye(2), np.eye(2)) == 0.0

    def test_scalar_value(self):
        # 0.25 * (0.5 - 1)^2 + 0.25 * (2 - 1)^2
        assert kl.kl_bound_symmetrized([[2.0]], [[1.0]]) == pytest.approx(0.3125)
        assert kl.kl_exact([[2.0]], [[1.0]]) == pytest.approx(
            0.5 * (math.log(2.0) - 0.5), abs=1e-12
        )

    def test_randomized_dominance(self):
        # empirical check only; the inequality is not certified analytically
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 21))
            s0 = rand_psd(rng, n, floor=0.05)
            s1 = rand_psd(rng, n, floor=0.05)
            assert kl.kl_exact(s0, s1) <= kl.kl_bound_symmetrized(s0, s1) + 1e-9


class TestLoewnerConstant:
    def test_clamped_to_one(self):
        assert kl.find_loewner_constant(np.eye(3), 2.0 * np.eye(3)) == 1.0

    def test_half(self):
        assert kl.find_loewner_constant(2.0 * np.eye(3), np.eye(3)) == pytest.approx(0.5)

    def test_near_maximality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            s0 = rand_psd(rng, n, floor=0.1)
            s1 = rand_psd(rng, n, floor=0.1)
            c = kl.find_loewner_constant(s0, s1)
            assert la.loewner_leq(c * s0, s1, tol=1e-8)
            if c < 1.0:
                # nudging past the discovered constant breaks the ordering
                assert not la.loewner_leq(c * 1.001 * s0, s1, tol=1e-12)


class TestGaussianLaw:
    def test_cached_factor(self):
        s = rand_psd(np.random.default_rng(5), 7, floor=0.1)
        law = kl.GaussianLaw(s)
        assert law.cov is s
        assert np.array_equal(law.chol, la.cholesky_lower(s))

    def test_laws_and_arrays_give_identical_bits(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 16))
            s0 = rand_psd(rng, n, floor=0.1)
            s1 = la.sym(s0 + 0.5 * rand_psd(rng, n))
            l0, l1 = kl.GaussianLaw(s0), kl.GaussianLaw(s1)
            c = kl.find_loewner_constant(s0, s1)
            assert kl.find_loewner_constant(l0, l1) == c
            exact = kl.kl_exact(s0, s1)
            assert kl.kl_exact(l0, l1) == exact
            assert kl.kl_exact(l0, s1) == exact
            assert kl.kl_bound(l0, l1, c) == kl.kl_bound(s0, s1, c)
            assert kl.kl_bound_symmetrized(l0, l1) == kl.kl_bound_symmetrized(s0, s1)

    def test_checks_symmetry_once(self, monkeypatch):
        calls = []
        real = la.check_symmetric

        def counting(a, name="matrix"):
            calls.append(name)
            return real(a, name)

        monkeypatch.setattr(la, "check_symmetric", counting)
        # kl must not check on its own either: cholesky_lower does it
        monkeypatch.setattr(kl, "check_symmetric", counting, raising=False)
        kl.GaussianLaw(rand_psd(np.random.default_rng(7), 5, floor=0.1))
        assert len(calls) == 1

    def test_rejects_invalid_covariances(self):
        with pytest.raises(ValueError, match="not exactly symmetric"):
            kl.GaussianLaw(np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            kl.GaussianLaw(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="sizes differ: 2 vs 3"):
            kl.kl_exact(kl.GaussianLaw(np.eye(2)), kl.GaussianLaw(np.eye(3)))


# ---------------------------------------------------------------------------
# the law-comparison kernel against a dense oracle and against mpmath


def dense_oracle(sigma0, delta, c=1.0):
    """The n x n formulas the kernel replaces, on ``sigma1 = sigma0 + delta``.

    KL from a trace and a log-determinant, the bounds from
    ``sigma0^-1 delta`` and ``L0^-1 delta L0^-T``, the Loewner constant
    from the generalized eigenvalues of the pencil ``(delta, sigma0)``.
    """
    n = sigma0.shape[0]
    low = np.linalg.cholesky(sigma0)
    x = scipy.linalg.cho_solve((low, True), delta)
    g = scipy.linalg.solve_triangular(low, delta, lower=True)
    g = scipy.linalg.solve_triangular(low, g.T, lower=True).T
    sign, logdet = np.linalg.slogdet(np.eye(n) + x)
    assert sign > 0
    mu = scipy.linalg.eigh(delta, b=sigma0, eigvals_only=True)
    scale = 1.0 / (4.0 * c * c)
    return {
        "kl": 0.5 * (float(np.trace(x)) - logdet),
        "value": scale * float(np.sum(x * x)),
        "middle": scale * float(np.sum(g * g)),
        "loewner": min(1.0 + float(mu[0]), 1.0),
    }


def unit_bands(spec):
    return models.differenced_bands(spec, ConstantProfile(1.0))


def null_law(spec):
    return kl.GaussianLaw(unit_bands(spec))


def family_alternative(model, n, index, amplitude=None, seed=0):
    """Alternative ``index`` of the model's bump family, optionally rescaled."""
    if model == "m3":
        family = build_family(n, 1.0, 1.0, 14.001 / n ** (1.0 / 12.0), "m3", seed=seed)
    else:
        family = build_family(n, 1.0, 1.0, 14.001 / n ** (1.0 / 6.0), "m1m2", seed=seed)
    profile = family.profile(index)
    if amplitude is not None:
        profile = BumpSumProfile(family.kernel, family.centers, family.h, amplitude,
                                 family.codewords[index].astype(float))
    return profile


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestKernelAgainstDenseOracle:
    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_bounds_and_loewner_constant(self, model, n):
        spec = models.ModelSpec(model, n, 0.1)
        null = null_law(spec)
        c = 1.0 / 14.0 if model == "m2" else 1.0
        # two backward-stable solves may differ by eps * cond(null): 1e-14 for
        # m1 and m2, up to 4e-8 for m3 at n = 1024 (cond 1.7e8); they differ
        # by at most 3.3e-10 there
        tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(null.cov))
        for index in (1, 2):
            support, block = models.bump_difference(
                spec, family_alternative(model, n, index), unit_bands(spec))
            got = kl.compare(null, support, block)
            want = dense_oracle(null.cov, scatter(n, support, block), c)
            bound = got.bound(c)
            assert rel(bound.value, want["value"]) <= tol
            assert rel(bound.middle, want["middle"]) <= tol
            assert rel(got.loewner_constant, want["loewner"]) <= 1e-12
            assert got.kl <= bound.middle <= bound.value

    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_kl_at_amplitude_one(self, model, n):
        spec = models.ModelSpec(model, n, 0.1)
        null = null_law(spec)
        tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(null.cov))
        support, block = models.bump_difference(
            spec, family_alternative(model, n, 1, amplitude=1.0), unit_bands(spec))
        got = kl.compare(null, support, block).kl
        want = dense_oracle(null.cov, scatter(n, support, block))["kl"]
        assert rel(got, want) <= tol

    def test_views_of_two_arrays_use_the_rows_that_differ(self):
        n = 128
        spec = models.ModelSpec("m3", n, 0.1)
        alt = family_alternative("m3", n, 1, amplitude=1.0)
        s0 = models.cov_differenced(spec, ConstantProfile(1.0))
        s1 = models.cov_differenced(spec, alt)
        support = np.flatnonzero(np.any(s0 != s1, axis=1))
        assert 0 < support.size < n
        want = dense_oracle(s0, s1 - s0)
        assert rel(kl.kl_exact(s0, s1), want["kl"]) <= 1e-12
        assert rel(kl.kl_bound(s0, s1, 1.0).value, want["value"]) <= 1e-12
        assert kl.find_loewner_constant(s0, s1) == want["loewner"] == 1.0


@functools.lru_cache(maxsize=None)
def mp_null_inverse(spec):
    """The inverse of the unit-volatility null covariance, in 60 digits."""
    with mpmath.workdps(60):
        return mpmath.inverse(mpmath.matrix(null_law(spec).cov.tolist()))


def mp_kl(inverse0, delta):
    """KL of ``sigma0 + delta`` from ``sigma0`` by determinant and trace of
    ``sigma0^-1 sigma1 = I + inverse0 delta``, in 60-digit arithmetic.

    Off the rows ``C`` where ``delta`` is nonzero the columns of that
    matrix are unit vectors, so its determinant and its trace less ``n``
    are those of the ``C x C`` block ``I + inverse0[C, C] delta[C, C]``.
    """
    rows = np.flatnonzero(np.any(delta != 0.0, axis=1))
    with mpmath.workdps(60):
        x = mpmath.matrix([[inverse0[i, j] for j in rows] for i in rows]) \
            * mpmath.matrix(delta[np.ix_(rows, rows)].tolist())
        for i in range(x.rows):
            x[i, i] += 1
        trace = mpmath.fsum(x[i, i] for i in range(x.rows))
        return float((trace - mpmath.log(mpmath.det(x)) - x.rows) / 2)


class TestKernelAgainstMpmath:
    @pytest.mark.parametrize("model, n", [("m1", 32), ("m1", 64), ("m2", 64),
                                          ("m2", 128), ("m3", 32), ("m3", 64)])
    def test_small_divergences_keep_relative_precision(self, model, n):
        spec = models.ModelSpec(model, n, 0.1)
        null = null_law(spec)
        inverse0 = mp_null_inverse(spec)
        base = kl.compare(null, *models.bump_difference(
            spec, family_alternative(model, n, 1, amplitude=1e-2), unit_bands(spec))).kl
        for target in (1e-2, 1e-6, 1e-10, 1e-14):
            # KL grows like the amplitude squared
            amplitude = 1e-2 * math.sqrt(target / base)
            support, block = models.bump_difference(
                spec, family_alternative(model, n, 1, amplitude=amplitude), unit_bands(spec))
            got = kl.compare(null, support, block).kl
            want = mp_kl(inverse0, scatter(n, support, block))
            assert want == pytest.approx(target, rel=0.5)
            assert rel(got, want) <= 1e-8

    def test_m2_block_from_the_bump_part(self):
        # against a 60-digit difference built from the same sigma^2 values:
        # lower triangle delta_i (j delta_j + s_j) / n, diagonal (i delta_i^2
        # + s_i^2 - 1) / n, with s = sigma and delta_i = s_i - s_{i-1}
        n = 128
        spec = models.ModelSpec("m2", n, 0.1)
        null = null_law(spec)
        base = kl.compare(null, *models.bump_difference(
            spec, family_alternative("m2", n, 1, amplitude=1e-2), unit_bands(spec))).kl
        profile = family_alternative("m2", n, 1, amplitude=1e-2 * math.sqrt(1e-14 / base))
        got = kl.compare(null, *models.bump_difference(spec, profile, unit_bands(spec))).kl
        sigma_sq = profile.eval(np.arange(1, n + 1) / n)
        inverse0 = mp_null_inverse(spec)
        with mpmath.workdps(60):
            s = [mpmath.sqrt(mpmath.mpf(x)) for x in sigma_sq]
            delta = [s[0] - 1] + [s[i] - s[i - 1] for i in range(1, n)]
            exact = np.zeros((n, n), dtype=object)
            for i in range(n):
                exact[i, i] = (i * delta[i] ** 2 + s[i] ** 2 - 1) / n
                for j in range(i):
                    exact[i, j] = exact[j, i] = delta[i] * (j * delta[j] + s[j]) / n
        want = mp_kl(inverse0, exact)
        assert want == pytest.approx(1e-14, rel=0.5)
        assert rel(got, want) <= 1e-8


# ---------------------------------------------------------------------------
# properties of the kernel on random laws


def random_case(seed, n, k, indefinite):
    """A random null, support and symmetric block (PSD unless ``indefinite``)."""
    rng = np.random.default_rng(seed)
    sigma0 = rand_psd(rng, n, floor=0.2)
    support = np.sort(rng.choice(n, size=k, replace=False))
    w = rng.standard_normal((k, k + 2))
    block = w @ w.T / (2.0 * (k + 2))
    if indefinite:
        block = block - 0.3 * np.eye(k)
    return sigma0, support, la.sym(block)


_cases = dict(seed=hs.integers(0, 2**32 - 1), n=hs.integers(1, 9),
              frac=hs.floats(0.1, 1.0), indefinite=hs.booleans())


def _draw(seed, n, frac, indefinite):
    k = max(1, int(round(frac * n)))
    return random_case(seed, n, k, indefinite)


class TestKernelProperties:
    @given(**_cases)
    @settings(max_examples=80, deadline=None)
    def test_congruence_invariance(self, seed, n, frac, indefinite):
        sigma0, support, block = _draw(seed, n, frac, indefinite)
        delta = scatter(n, support, block)
        assume(np.linalg.eigvalsh(sigma0 + delta)[0] > 1e-3)
        t = np.eye(n) + 0.3 * np.random.default_rng(seed + 1).standard_normal((n, n))
        assume(abs(np.linalg.det(t)) > 1e-2)
        k1 = kl.compare(kl.GaussianLaw(sigma0), support, block).kl
        k2 = kl.compare(kl.GaussianLaw(la.sym(t @ sigma0 @ t.T)), np.arange(n),
                        la.sym(t @ delta @ t.T)).kl
        assert abs(k1 - k2) <= 1e-9 * max(1.0, k1)

    @given(**_cases)
    @settings(max_examples=80, deadline=None)
    def test_bound_dominates_kl(self, seed, n, frac, indefinite):
        sigma0, support, block = _draw(seed, n, frac, indefinite)
        assume(np.linalg.eigvalsh(sigma0 + scatter(n, support, block))[0] > 1e-3)
        comparison = kl.compare(kl.GaussianLaw(sigma0), support, block)
        bound = comparison.bound(comparison.loewner_constant)
        assert comparison.kl >= 0.0
        assert comparison.kl <= bound.middle * (1.0 + 1e-12)
        assert bound.middle <= bound.value * (1.0 + 1e-12)

    @given(c=hs.sampled_from([1.0, 0.9, 0.5, 1.0 / 14.0]), **_cases)
    @settings(max_examples=120, deadline=None)
    def test_precondition_equals_the_dense_test(self, c, seed, n, frac, indefinite):
        sigma0, support, block = _draw(seed, n, frac, indefinite)
        sigma1 = sigma0 + scatter(n, support, block)
        assume(np.linalg.eigvalsh(sigma1)[0] > 1e-3)
        comparison = kl.compare(kl.GaussianLaw(sigma0), support, block)
        # keep clear of the boundary, where either test may round either way
        margin = comparison.loewner_constant - c if c < 1.0 \
            else float(np.linalg.eigvalsh(block)[0])
        assume(c == 1.0 and not indefinite or abs(margin) > 1e-6)
        assert comparison.dominates(c) == la.is_psd(la.sym(sigma1 - c * sigma0))


def random_runs_case(seed, n, indefinite):
    """A random null, a random set of disjoint runs and a symmetric block."""
    rng = np.random.default_rng(seed)
    sigma0 = rand_psd(rng, n, floor=0.2)
    cuts = np.flatnonzero(rng.random(n - 1) < 0.5) + 1
    edges = np.concatenate(([0], cuts, [n]))
    runs = np.column_stack((edges[:-1], edges[1:]))
    keep = rng.random(len(runs)) < 0.7
    keep[rng.integers(len(runs))] = True
    runs = runs[keep]
    k = len(runs)
    w = rng.standard_normal((k, k + 2))
    block = w @ w.T / (2.0 * (k + 2))
    if indefinite:
        block = block - 0.3 * np.eye(k)
    return sigma0, runs, la.sym(block)


class TestKernelOnRuns:
    @given(c=hs.sampled_from([1.0, 0.9, 0.5, 1.0 / 14.0]),
           seed=hs.integers(0, 2**32 - 1), n=hs.integers(1, 12),
           indefinite=hs.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_dense_oracle(self, c, seed, n, indefinite):
        sigma0, runs, block = random_runs_case(seed, n, indefinite)
        delta = scatter(n, runs, block)
        sigma1 = sigma0 + delta
        assume(np.linalg.eigvalsh(sigma1)[0] > 1e-3)
        comparison = kl.compare(kl.GaussianLaw(sigma0), runs, block)
        want = dense_oracle(sigma0, delta, c)
        bound = comparison.bound(c)
        assert abs(comparison.kl - want["kl"]) <= 1e-9 * max(1.0, want["kl"])
        assert abs(bound.value - want["value"]) <= 1e-9 * max(1.0, want["value"])
        assert abs(bound.middle - want["middle"]) <= 1e-9 * max(1.0, want["middle"])
        assert abs(comparison.loewner_constant - want["loewner"]) <= 1e-9
        # keep clear of the boundary, where either test may round either way
        margin = comparison.loewner_constant - c if c < 1.0 \
            else float(np.linalg.eigvalsh(block)[0])
        assume(abs(margin) > 1e-6)
        assert comparison.dominates(c) == la.is_psd(la.sym(sigma1 - c * sigma0))

    def test_one_index_runs_are_the_indices_bit_for_bit(self):
        sigma0, support, block = random_case(11, 9, 5, indefinite=True)
        null = kl.GaussianLaw(sigma0)
        by_index = kl.compare(null, support, block)
        by_run = kl.compare(null, as_runs(support), block)
        assert np.array_equal(by_index.mu, by_run.mu)
        assert by_index.middle_sq == by_run.middle_sq
        assert by_index.right_sq == by_run.right_sq

    def test_a_run_is_its_rows_summed(self):
        # a block with equal rows and columns on a run compares as one entry
        n = 10
        sigma0 = rand_psd(np.random.default_rng(12), n, floor=0.2)
        delta = np.zeros((n, n))
        delta[2:6, 2:6] = 0.05
        delta[2:6, 8] = delta[8, 2:6] = 0.02
        delta[8, 8] = 0.3
        runs = np.array([[2, 6], [8, 9]])
        # 1_run / 2 carries the run: entries scale by 4 and by 2
        block = np.array([[0.2, 0.04], [0.04, 0.3]])
        got = kl.compare(kl.GaussianLaw(sigma0), runs, block)
        want = dense_oracle(sigma0, delta)
        assert rel(got.kl, want["kl"]) <= 1e-12
        assert rel(got.bound(1.0).value, want["value"]) <= 1e-12


class TestSupportValidation:
    @pytest.mark.parametrize("support", [[-1], [16], [-17]])
    def test_rejects_indices_outside_the_law(self, support):
        # -1 used to wrap to row 15, and 16 raised a bare IndexError
        with pytest.raises(ValueError, match="inside"):
            kl.compare(kl.GaussianLaw(np.eye(16)), support, [[0.5]])

    def test_rejects_repeated_indices(self):
        # used to raise a misleading NotPositiveDefinite at pivot 1
        with pytest.raises(ValueError, match="disjoint"):
            kl.compare(kl.GaussianLaw(np.eye(16)), [3, 3], 0.1 * np.eye(2))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError, match="sorted"):
            kl.compare(kl.GaussianLaw(np.eye(16)), [5, 3], 0.1 * np.eye(2))

    @pytest.mark.parametrize("runs", [[[3, 3]], [[4, 2]], [[0, 4], [3, 6]],
                                      [[6, 8], [0, 2]], [[10, 17]], [[-2, 1]]])
    def test_rejects_bad_runs(self, runs):
        with pytest.raises(ValueError):
            kl.compare(kl.GaussianLaw(np.eye(16)), runs, 0.1 * np.eye(len(runs)))

    def test_rejects_a_support_of_other_shape(self):
        with pytest.raises(ValueError, match="shape"):
            kl.compare(kl.GaussianLaw(np.eye(16)), [[1, 2, 3]], [[0.1]])

    def test_adjacent_runs_and_the_whole_range_are_valid(self):
        runs = np.array([[0, 4], [4, 16]])
        got = kl.compare(kl.GaussianLaw(np.eye(16)), runs, 0.5 * np.eye(2))
        assert got.kl == pytest.approx(0.5 * (0.5 - math.log(1.5)) * 2, rel=1e-14)


class TestAlternativeDefiniteness:
    # sigma >= 1 makes every m2 bump alternative a covariance; at L = 1e20
    # the computed 1 + mu_min of this bump is -396, far inside its rounding
    spec = models.ModelSpec("m2", 128, 0.1)

    def bump(self, l_const):
        bands = unit_bands(self.spec)
        return bands, models.bump_difference(
            self.spec, single_bump_profile(1.0, l_const, 0.125), bands)

    @pytest.mark.parametrize("dense", [False, True])
    def test_an_unresolved_sign_is_not_blamed_on_the_alternative(self, dense):
        bands, (support, block) = self.bump(1e20)
        null = kl.GaussianLaw(bands.dense() if dense else bands)
        with pytest.raises(ValueError, match="definiteness is unresolved at double "
                                             "precision: 1 \\+ mu_min = -") as err:
            kl.compare(null, support, block)
        assert not isinstance(err.value, NotPositiveDefinite)
        # the rounding bound is named, and exceeds |1 + mu_min|
        bound = float(str(err.value).rsplit("= ", 1)[1])
        least = float(str(err.value).split("mu_min = ")[1].split(" ")[0])
        assert 0.0 < -least <= bound

    def test_a_resolved_bump_keeps_its_comparison(self):
        # a clearly indefinite alternative still raises NotPositiveDefinite
        # (TestBandedRoute.test_matches_the_general_path)
        bands, (support, block) = self.bump(1e10)
        got = kl.compare(kl.GaussianLaw(bands), support, block)
        assert got.route == "banded" and 0.0 < 1.0 + got.mu[0] < 1.0


def mp_margin(sigma0, runs, block, c):
    """The margin ``lambda_min(sigma0^-1 sigma1) - c`` in 50-digit
    arithmetic, for ``sigma1 = sigma0 + W B W^T``: off the support that
    matrix has the eigenvalue 1, on it the ``1 + mu`` of ``R^T B R``, ``R
    R^T = W^T sigma0^-1 W``."""
    n, k = sigma0.shape[0], len(runs)
    with mpmath.workdps(50):
        w = mpmath.zeros(n, k)
        for r, (start, stop) in enumerate(runs):
            for i in range(start, stop):
                w[i, r] = 1 / mpmath.sqrt(stop - start)
        low = mpmath.cholesky(w.T * mpmath.inverse(mpmath.matrix(sigma0.tolist())) * w)
        mu = mpmath.eigsy(low.T * mpmath.matrix(block.tolist()) * low, eigvals_only=True)
        lam = 1 + min(mu)
        if sum(stop - start for start, stop in runs) < n:
            lam = min(lam, mpmath.mpf(1))
        return float(lam - mpmath.mpf(c))


def near_boundary(rng, sigma0, runs, c):
    """A block whose ``1 + min(mu)`` is ``c`` up to a margin of either sign
    from 1e-17 to 1e-2, or none: ``B = R^-T D R^-1`` for ``W^T sigma0^-1 W =
    R R^T``, with the spectrum of ``D`` chosen."""
    k = len(runs)
    w = np.zeros((sigma0.shape[0], k))
    for r, (start, stop) in enumerate(runs):
        w[start:stop, r] = 1.0 / np.sqrt(stop - start)
    r_inv = np.linalg.inv(np.linalg.cholesky(w.T @ np.linalg.solve(sigma0, w)))
    shift = 0.0 if rng.random() < 0.2 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -2)
    d = c - 1.0 + shift + np.concatenate(([0.0], rng.uniform(0.0, 2.0, k - 1)))
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return la.sym(r_inv.T @ (q * d) @ q.T @ r_inv)


def loewner_draw(seed):
    """A seeded comparison near the Loewner boundary: ``c`` in {1, 0.9,
    1/14}, ``n <= 12``, a dense null on a random support or a banded one on
    runs that tile a hull, a :func:`near_boundary` block, and the route
    the comparison takes: general for a dense null, else :func:`hull_route`."""
    rng = np.random.default_rng(seed)
    c = [1.0, 0.9, 1.0 / 14.0][int(rng.integers(3))]
    n = int(rng.integers(2, 13))
    null = ["dense", "band1", "band2"][int(rng.integers(3))]
    if null == "dense":
        sigma0 = rand_psd(rng, n, floor=0.2)
        law, route = kl.GaussianLaw(sigma0), "general"
        runs = as_runs(np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                          replace=False)))
    else:
        bands = random_banded_null(rng, n, int(null[-1]))
        sigma0 = bands.dense()
        law = kl.GaussianLaw(bands)
        runs = random_hull_runs(rng, n, int(null[-1]))
        route = hull_route(runs)
    return law, route, sigma0, runs, near_boundary(rng, sigma0, runs, c), c


# draws among seeds 0..19999 whose verdict breaks a claim: their computed
# min(mu) is off by up to 4 mu_error, which bounds the eigensolver's rounding
# but not that of forming P and R^T B R (ROADMAP item 4); 536 (k = 1) and 2010
# (k = 3) read true on a negative margin on the banded route, 12928 on the
# general one, and 9244 reads a margin of 3.3 mu_error false
LOEWNER_MISREAD = {536, 2010, 9244, 12928}


class TestLoewnerRule:
    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="mu_error leaves out the rounding of P and R^T B R"))
        if seed in LOEWNER_MISREAD else seed
        for seed in sorted(set(range(200)) | LOEWNER_MISREAD)])
    def test_a_verdict_never_contradicts_a_50_digit_margin(self, seed):
        law, route, sigma0, runs, block, c = loewner_draw(seed)
        got = kl.compare(law, runs, block)
        assert got.route == route
        margin = mp_margin(sigma0, runs, block, c)
        if got.dominates(c):
            assert margin >= 0.0
        if abs(margin) > 2.0 * got.mu_error:
            assert got.dominates(c) == (margin > 0.0)

    @given(c=hs.sampled_from([1.0, 0.9, 1.0 / 14.0]), seed=hs.integers(0, 2**32 - 1),
           n=hs.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_the_tridiagonal_route_dominates_with_no_eigenvalue(self, c, seed, n):
        rng = np.random.default_rng(seed)
        bands = random_banded_null(rng, n, 1)
        support = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        b = log_uniform(rng, support.size, lo=1e-12)
        got = kl.compare(kl.GaussianLaw(bands), support, b)
        assert got.route == "tridiagonal" and got.mu_error == 0.0
        assert got.dominates(c)
        assert mp_margin(bands.dense(), as_runs(support), np.diag(b), c) >= 0.0

    def test_a_margin_below_the_rounding_bound_reads_false(self):
        # a positive min(mu) of 1e-17 is kept against 1 - c = 0, but lies
        # within k eps max|mu|, and B, whose spectrum it is, does not resolve
        # it either
        law = kl.GaussianLaw(np.eye(4))
        got = kl.compare(law, np.arange(2), np.diag([1e-17, 1.0]))
        assert got.mu[0] == 1e-17 and got.mu_error == 2.0 * np.finfo(float).eps
        assert not got.dominates(1.0) and got.dominates(0.5)

    @pytest.mark.parametrize("entry", [1.0, -1.0])
    def test_the_block_decides_what_the_spectrum_leaves_unresolved(self, entry):
        # against the null diag(1e10, 1), B = diag(entry 1e-10, 1) has mu =
        # (entry 1e-20, 1): the least lies within mu_error = 2 eps, but B's
        # own spectrum resolves its sign, built once more to read it
        calls = []

        def build(out):
            calls.append(out.shape)
            np.copyto(out, np.diag([entry * 1e-10, 1.0]))

        got = kl.compare(kl.GaussianLaw(np.diag([1e10, 1.0])), np.arange(2), build)
        assert abs(got.mu[0] - entry * 1e-20) <= 1e-35 and got.mu[1] == 1.0
        assert got.mu_error == 2.0 * np.finfo(float).eps
        assert got.dominates(1.0) == (entry > 0.0) and len(calls) == 2
        # a margin of 1/2 is resolved by the spectrum alone
        assert got.dominates(0.5) and len(calls) == 2

    @pytest.mark.parametrize("spread", [False, True])
    def test_the_verdict_builds_no_block(self, spread):
        # m2 bumps apart take the general route, adjacent bumps the banded one
        n = 128
        spec = models.ModelSpec("m2", n, 0.1)
        base = family_alternative("m2", n, 0)
        m = base.centers.size
        codeword = (np.arange(m) % 2 if spread else np.arange(m) < 2).astype(float)
        profile = BumpSumProfile(base.kernel, base.centers, base.h, base.amplitude, codeword)
        support, build = models.bump_difference(spec, profile, unit_bands(spec))
        calls = []

        def counted(out):
            calls.append(out.shape)
            build(out)

        got = kl.compare(null_law(spec), support, counted)
        assert got.route == ("general" if spread else "banded") and len(calls) == 1
        for c in (1.0, 0.9, 1.0 / 14.0):
            got.dominates(c)
        assert len(calls) == 1


class TestBandedLaw:
    def banded(self, a, width):
        n = a.shape[0]
        return la.Banded(np.array([np.concatenate([np.diagonal(a, -d), np.zeros(d)])
                                   for d in range(width + 1)]))

    @pytest.mark.parametrize("model", ["m1", "m2", "m3"])
    def test_matches_the_dense_law(self, model):
        spec = models.ModelSpec(model, 64, 0.1)
        banded = null_law(spec)
        dense = kl.GaussianLaw(models.cov_differenced(spec, ConstantProfile(1.0)))
        assert banded.banded and not dense.banded
        assert np.array_equal(banded.cov, dense.cov)
        rhs = np.random.default_rng(0).standard_normal((64, 3))
        # solve may overwrite its right-hand side
        assert np.allclose(banded.solve(rhs.copy()), dense.solve(rhs.copy()),
                           rtol=1e-10, atol=0)

    @pytest.mark.parametrize("width, pivot", [(1, 0), (1, 5), (2, 3), (2, 9)])
    def test_indefinite_pivot_matches_cholesky_lower(self, width, pivot):
        a = models.second_diff_noise_gram(12) if width == 2 else \
            la.sym(np.diag(np.full(12, 2.0)) - np.eye(12, k=-1))
        a = a.copy()
        a[pivot, pivot] = -1.0
        with pytest.raises(NotPositiveDefinite) as dense:
            la.cholesky_lower(a)
        with pytest.raises(NotPositiveDefinite) as banded:
            kl.GaussianLaw(self.banded(a, width))
        assert banded.value.pivot == dense.value.pivot == pivot

    def test_singular_pivot_matches_cholesky_lower(self):
        # the path Laplacian with both corners 1 is singular: its last
        # pivot falls below n * eps * max(diag) in both storages
        n = 40
        a = la.sym(np.diag(np.full(n, 2.0)) - np.eye(n, k=-1))
        a[0, 0] = a[n - 1, n - 1] = 1.0
        with pytest.raises(NotPositiveDefinite) as dense:
            la.cholesky_lower(a)
        with pytest.raises(NotPositiveDefinite) as banded:
            kl.GaussianLaw(self.banded(a, 1))
        assert banded.value.pivot == dense.value.pivot == n - 1


# ---------------------------------------------------------------------------
# the tridiagonal route: a diagonal block on one-index runs, tridiagonal null


def m1_null(n, tau=0.1):
    return null_law(models.ModelSpec("m1", n, tau))


def random_run_support(rng, n):
    """The indices of a random set of disjoint runs of consecutive rows."""
    cuts = np.flatnonzero(rng.random(n - 1) < 4.0 / math.sqrt(n)) + 1
    edges = np.concatenate(([0], cuts, [n]))
    keep = rng.random(edges.size - 1) < 0.5
    keep[rng.integers(keep.size)] = True
    return np.concatenate([np.arange(a, b) for a, b, on
                           in zip(edges[:-1], edges[1:], keep) if on])


def log_uniform(rng, k, lo=1e-60):
    return np.exp(rng.uniform(math.log(lo), 0.0, k))


def general(null, support, b):
    """The general path on the same alternative, with the banded route
    turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kl, "_hull_inverse", lambda null, runs: None)
        want = kl.compare(null, support, b)
    assert want.route == "general"
    return want


def tridiagonal(a):
    return a[0], a[1, :-1]


def dpteqr_mu(null, support, b):
    """The ``mu`` of ``B = diag(b)``, ascending: the reciprocals of the
    eigenvalues of ``D^-1/2 C_S D^-1/2``, ``D = diag(b)``, which
    ``lapack.dpteqr`` finds to high relative accuracy however strongly
    ``b`` is graded (Demmel & Kahan 1990).  The tridiagonal route's oracle."""
    c_diag, c_off = kl._schur_tridiagonal(*tridiagonal(null._cov.bands), support)
    r = 1.0 / np.sqrt(b)
    lam = c_diag / b
    if lam.size > 1:
        lam, _, _, info = scipy.linalg.lapack.dpteqr(lam, c_off * r[:-1] * r[1:],
                                                     np.zeros((1, 1)))
        assert info == 0
    return 1.0 / lam  # lam descending, so mu ascending


def long_double_kl(bands, support, b):
    """``(1/2) (sum_j b_j / gamma_j - sum_j log1p(delta_j / d0_j))`` in long
    double, for ``B = diag(b)`` on ``support`` against the tridiagonal null
    of lower band storage ``bands``: ``d0`` are the null's pivots top down,
    ``gamma_j = d0_j + u0_j - a_jj`` (``u0`` bottom up) its twisted
    diagonal, ``1 / (null^-1)_jj``, and ``delta = d1 - d0`` the pivot gap
    of the alternative, by its own recurrence ``delta_j = b_j + e_{j-1}^2
    delta_{j-1} / (d0_{j-1} d1_{j-1})``.  It shares no code with either
    route of the kernel."""
    ld = np.longdouble
    a, e2 = bands[0].astype(ld), bands[1, :-1].astype(ld) ** 2
    n = a.size
    full = np.zeros(n, dtype=ld)
    full[support] = b
    d0, u0, delta = (np.empty(n, dtype=ld) for _ in range(3))
    d0[0], u0[-1], delta[0] = a[0], a[-1], full[0]
    for j in range(1, n):
        d0[j] = a[j] - e2[j - 1] / d0[j - 1]
        delta[j] = full[j] + e2[j - 1] * delta[j - 1] \
            / (d0[j - 1] * (d0[j - 1] + delta[j - 1]))
    for j in range(n - 2, -1, -1):
        u0[j] = a[j] - e2[j] / u0[j + 1]
    gamma = d0 + u0 - a
    return ld(0.5) * (np.sum(full / gamma) - np.sum(np.log1p(delta / d0)))


class TestTridiagonalRoute:
    @given(seed=hs.integers(0, 2**32 - 1), n=hs.integers(2, 2048),
           tau=hs.floats(0.01, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_general_path(self, seed, n, tau):
        rng = np.random.default_rng(seed)
        null = m1_null(n, tau)
        support = random_run_support(rng, n)
        b = log_uniform(rng, support.size)
        got = kl.compare(null, support, b)
        want = general(null, support, np.diag(b))
        assert (got.route, want.route) == ("tridiagonal", "general")
        assert got.source.ndim == 1 and want.source.ndim == 2
        assert got.mu.size == 0
        assert rel(got.kl, want.kl) <= 1e-12
        assert rel(got.middle_sq, want.middle_sq) <= 1e-12
        assert rel(got.right_sq, want.right_sq) <= 1e-12
        assert rel(got.loewner_constant, want.loewner_constant) <= 1e-12
        # every mu of the oracle is positive and ascending; the general path
        # has them to eps of the largest
        mu = dpteqr_mu(null, support, b)
        assert np.all(mu > 0.0) and np.all(np.diff(mu) >= 0.0)
        assert np.max(np.abs(mu - want.mu)) <= 1e-13 * mu[-1]
        assert rel(got.kl, 0.5 * math.fsum(kl._kl_terms(mu))) <= 1e-12

    @pytest.mark.parametrize("n", [32, 64])
    def test_graded_block_against_mpmath(self, n):
        spec = models.ModelSpec("m1", n, 0.1)
        null = null_law(spec)
        support = np.concatenate((np.arange(3, n // 2), np.arange(n // 2 + 4, n - 2)))
        # b falls over 57 orders of magnitude, as at the edges of a bump
        b = 1e-3 * np.logspace(0, -57, support.size)
        got = kl.compare(null, support, b)
        inverse0 = mp_null_inverse(spec)
        delta = scatter(n, support, b)
        with mpmath.workdps(60):
            p = mpmath.matrix([[inverse0[i, j] for j in support] for i in support])
            pb = p * mpmath.diag(b.tolist())
            middle = mpmath.fsum(pb[i, j] * pb[j, i]
                                 for i in range(len(b)) for j in range(len(b)))
            # ||null^-1 W B||_F^2 = sum_j b_j^2 (null^-2)_jj
            right = mpmath.fsum(mpmath.mpf(b[c]) ** 2
                                * mpmath.fsum(inverse0[i, j] ** 2 for i in range(n))
                                for c, j in enumerate(support))
            log_det = mpmath.log(mpmath.det(p)) + mpmath.fsum(mpmath.log(x) for x in b)
        assert rel(got.kl, mp_kl(inverse0, delta)) <= 1e-12
        assert rel(got.middle_sq, float(middle)) <= 1e-12
        assert rel(got.right_sq, float(right)) <= 1e-12
        # the oracle's smallest mu (about 1e-60) keep their relative
        # accuracy: their logs sum to log det(B P)
        mu = dpteqr_mu(null, support, b)
        assert mu[0] < 1e-55
        assert abs(math.fsum(np.log(mu)) - float(log_det)) <= 1e-12 * abs(float(log_det))
        assert rel(got.kl, 0.5 * math.fsum(kl._kl_terms(mu))) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="long double is no wider than double here")
    def test_kl_scaling_bump_against_long_double(self):
        spec = models.ModelSpec("m1", 1 << 16, 0.1)
        bands = unit_bands(spec)
        support, b = models.bump_difference(spec, single_bump_profile(1.0, 1.0, 0.125),
                                            bands)
        got = kl.compare(kl.GaussianLaw(bands), support, b)
        assert got.route == "tridiagonal"
        assert rel(got.kl, float(long_double_kl(bands.bands, support, b))) <= 1e-13

    @pytest.mark.parametrize("pivot", [0.0, -0.5])
    def test_ldl_rejects_a_one_row_pivot_at_or_below_zero(self, pivot):
        # dpttrf takes no empty off-diagonal, so one row is tested by hand
        with pytest.raises(NotPositiveDefinite) as err:
            kl._ldl(np.array([pivot]), np.zeros(0))
        assert err.value.pivot == 0
        d, l = kl._ldl(np.array([0.5]), np.zeros(0))
        assert d.tolist() == [0.5] and l.size == 0
        assert [a.size for a in kl._ldl(np.zeros(0), np.zeros(0))] == [0, 0]

    def test_inverse_diagonals_of_one_row(self):
        gamma, gamma_s = kl._inverse_diagonals(np.array([0.5]), np.zeros(0))
        assert gamma.tolist() == [0.5] and gamma_s.tolist() == [1.0]

    @given(seed=hs.integers(0, 2**32 - 1), head=hs.sampled_from([0, 1, 2, 23]),
           tail=hs.sampled_from([0, 1, 2, 23]),
           runs=hs.lists(hs.tuples(hs.integers(1, 4), hs.sampled_from([1, 2, 23])),
                         min_size=1, max_size=8))
    @example(seed=0, head=0, tail=0, runs=[(40, 1)])  # every row
    @example(seed=1, head=23, tail=23, runs=[(1, 1)])  # one row
    @settings(max_examples=150, deadline=None)
    def test_schur_complement_is_its_definition(self, seed, head, tail, runs):
        # gaps of 0, 1, 2 and 23 rows: at both ends, inside, or none
        rows, at = [], head
        for length, gap in runs:
            rows.extend(range(at, at + length))
            at += length + gap
        rows = np.array(rows)
        n = rows[-1] + 1 + tail
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, n - 1)
        margin = 10.0 ** rng.uniform(-1.0, 1.0, n)
        diag = np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0)) + margin
        a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        want = np.linalg.inv(np.linalg.inv(a)[np.ix_(rows, rows)])
        c_diag, c_off = kl._schur_tridiagonal(diag, off, rows)
        got = np.diag(c_diag) + np.diag(c_off, 1) + np.diag(c_off, -1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # rows with no gap beside them keep their entries of A exactly
        near = np.diff(rows) == 1
        assert np.array_equal(c_off[near], off[rows[:-1][near]])
        beside_gap = (rows > 0) & ~np.isin(rows - 1, rows) \
            | (rows < n - 1) & ~np.isin(rows + 1, rows)
        assert np.array_equal(c_diag[~beside_gap], diag[rows][~beside_gap])

    @given(seed=hs.integers(0, 2**32 - 1), k=hs.integers(1, 5000))
    @settings(max_examples=60, deadline=None)
    def test_slope_solves_match_dtbsv_bit_for_bit(self, seed, k):
        # the pivot slopes' unit lower-bidiagonal systems, band [1; -l^2],
        # solved by LAPACK's dtbtrs, which runs BLAS dtbsv per column
        rng = np.random.default_rng(seed)
        mult = 10.0 ** rng.uniform(-8.0, 3.0, k - 1) * rng.choice([-1.0, 1.0], k - 1)
        rhs = 10.0 ** rng.uniform(-30.0, 30.0, k)
        band = np.ones((2, k))
        band[1, :-1] = -mult * mult
        x, info = kl._lapack.dtbtrs(band, rhs, uplo="L")
        want = scipy.linalg.blas.dtbsv(1, band, rhs, lower=1)
        assert info == 0
        assert np.array_equal(x.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, tau", [(2, 0.1), (3, 1.0), (17, 0.01), (64, 0.1),
                                        (256, 0.3), (256, 0.01)])
    def test_inverse_diagonals_against_dense_inverse(self, n, tau):
        null = m1_null(n, tau)
        inverse = np.linalg.inv(null.cov)
        gamma, gamma_s = kl._inverse_diagonals(*tridiagonal(null._cov.bands))
        assert np.allclose(1.0 / gamma, np.diag(inverse), rtol=1e-12, atol=0)
        assert np.allclose(gamma_s / gamma ** 2, np.diag(inverse @ inverse),
                           rtol=1e-12, atol=0)

    def test_inverse_squared_diagonal_against_the_blocked_solve(self):
        n = 4096
        null = m1_null(n)
        gamma, gamma_s = kl._inverse_diagonals(*tridiagonal(null._cov.bands))
        rows = np.concatenate((np.arange(5), np.arange(0, n, 97), np.arange(n - 5, n)))
        rows = np.unique(rows)
        for j in rows:
            want = kl._solve_norm_sq(null, kl._runs([j], n), np.ones((1, 1)))
            assert rel(gamma_s[j] / gamma[j] ** 2, want) <= 1e-12
        b = log_uniform(np.random.default_rng(4), rows.size, lo=1e-3)
        want = kl._solve_norm_sq(null, kl._runs(rows, n), np.diag(b))
        assert rel(kl.compare(null, rows, b).right_sq, want) <= 1e-12

    @pytest.mark.parametrize("n, subnormal", [(32, [10]), (32, [0, 31]), (48, [20, 21])])
    def test_a_subnormal_row_keeps_the_kl(self, n, subnormal):
        spec = models.ModelSpec("m1", n, 0.1)
        null = null_law(spec)
        support = np.arange(n)
        b = 1e-2 * np.logspace(0, -3, n)
        b[subnormal] = 5e-320
        got = kl.compare(null, support, b)
        assert got.route == "tridiagonal"
        # nothing is scaled by 1 / sqrt(b_j), so every row stays in
        inverse0 = mp_null_inverse(spec)
        assert rel(got.kl, mp_kl(inverse0, scatter(n, support, b))) <= 1e-12

    @pytest.mark.parametrize("case", ["zero", "negative", "pentadiagonal", "dense",
                                      "long-run"])
    def test_a_vector_of_another_form_is_refused(self, case, monkeypatch):
        n = 64
        null = m1_null(n)
        support = np.arange(10, 30)
        b = log_uniform(np.random.default_rng(5), support.size, lo=1e-6) * 1e-2
        if case == "zero":
            b[3] = 0.0
        elif case == "negative":
            b[3] = -1e-4
        elif case == "pentadiagonal":
            null = null_law(models.ModelSpec("m3", n, 0.1))
            b = b * 1e-6
        elif case == "dense":
            null = kl.GaussianLaw(null.cov)
        else:
            support = np.array([[10, 12], [15, 20]])
            b = b[:2]
        monkeypatch.setattr(kl, "_diagonal_route", None)
        with pytest.raises(ValueError, match="a vector block is the diagonal b of B "
                                             "on one-index runs against a tridiagonal"):
            kl.compare(null, support, b)
        # the same block as a matrix takes the route of its support and null:
        # the long runs end in a multi-index run
        got = kl.compare(null, support, np.diag(b))
        want = general(null, support, np.diag(b))
        assert got.source.ndim == 2 and np.array_equal(got.source, np.diag(b))
        assert got.route == ("general" if case in ("dense", "long-run") else "banded")
        assert got.right_sq == want.right_sq
        if got.route == "general":
            assert np.array_equal(got.mu, want.mu) and got.middle_sq == want.middle_sq
        else:
            tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(null.cov))
            assert np.max(np.abs(got.mu - want.mu)) <= tol * np.max(np.abs(want.mu))
            assert rel(got.middle_sq, want.middle_sq) <= tol

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_a_vector_with_a_non_finite_entry_is_refused(self, entry):
        b = np.full(4, 1e-3)
        b[2] = entry
        with pytest.raises(ValueError, match="every b finite and > 0"):
            kl.compare(m1_null(16), np.arange(4, 8), b)

    @pytest.mark.parametrize("null", [m1_null(16), kl.GaussianLaw(np.eye(16))])
    def test_an_empty_vector_block_compares_equal_laws(self, null):
        got = kl.compare(null, np.zeros(0, dtype=int), np.zeros(0))
        assert got.kl == got.right_sq == got.middle_sq == 0.0
        assert got.dominates(1.0) and got.loewner_constant == 1.0

    @pytest.mark.parametrize("shift", [0.0, -1e-12, -1e-9, -1e-4])
    def test_domination_follows_the_sign_of_the_least_entry(self, shift):
        # a negative entry of -1e-12 ||b|| is far outside the eigenvalues'
        # rounding, so the alternative does not dominate the null
        null = m1_null(64)
        support = np.arange(5, 40)
        b = log_uniform(np.random.default_rng(6), support.size, lo=1e-40) * 1e-2
        b[7] = shift * np.linalg.norm(b) if shift else b[7]
        # only b > 0 is a vector block: any other b is passed as the matrix
        got = kl.compare(null, support, b if shift == 0.0 else np.diag(b))
        assert got.route == ("tridiagonal" if shift == 0.0 else "banded")
        assert got.dominates(1.0) == (np.min(b) > 0.0)


# ---------------------------------------------------------------------------
# the banded route: a block on runs that tile their hull, banded null


def random_banded_null(rng, n, width):
    """A random diagonally dominant SPD band matrix of the given bandwidth."""
    bands = np.zeros((width + 1, n))
    for d in range(1, width + 1):
        bands[d, :n - d] = rng.uniform(-1.0, 1.0, n - d)
    dominance = np.zeros(n)
    for d in range(1, width + 1):
        dominance[:n - d] += np.abs(bands[d, :n - d])
        dominance[d:] += np.abs(bands[d, :n - d])
    bands[0] = dominance * rng.uniform(1.01, 2.0, n) + 1e-3
    return la.Banded(bands)


def random_hull_runs(rng, n, width):
    """Runs tiling a random hull of at least two rows: one index each, but
    perhaps the first and the last; for a tridiagonal null perhaps with
    gaps, rows cut out of the middle."""
    a = int(rng.integers(0, n - 1))
    b = int(rng.integers(a + 2, n + 1))
    first = int(rng.integers(1, b - a + 1)) if rng.random() < 0.5 else 1
    last = int(rng.integers(1, b - a - first + 1)) if rng.random() < 0.5 \
        and b - a > first else 1
    if first + last > b - a:
        return np.array([[a, b]])
    middle = np.arange(a + first, b - last)
    if width == 1 and middle.size and rng.random() < 0.5:
        middle = middle[rng.random(middle.size) < 0.7]
    starts = np.concatenate(([a], middle, [b - last]))
    stops = np.concatenate(([a + first], middle + 1, [b]))
    return np.column_stack((starts, stops))


def hull_route(runs):
    """The route of a block on :func:`random_hull_runs` against a banded
    null: the banded one, unless two or more runs end in a multi-index run."""
    return "general" if len(runs) > 1 and runs[-1, 1] - runs[-1, 0] > 1 else "banded"


class TestBandedRoute:
    @given(seed=hs.integers(0, 2**32 - 1), n=hs.integers(2, 512),
           width=hs.sampled_from([1, 2]), indefinite=hs.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_general_path(self, seed, n, width, indefinite):
        rng = np.random.default_rng(seed)
        bands = random_banded_null(rng, n, width)
        null, oracle = kl.GaussianLaw(bands), kl.GaussianLaw(bands.dense())
        runs = random_hull_runs(rng, n, width)
        k = len(runs)
        lam_min = np.linalg.eigvalsh(oracle.cov)[0]
        if indefinite:
            # the first run's column sees null - 10 max(diag) < 0
            block = -10.0 * float(np.max(bands.bands[0])) * np.eye(k)
            for law in (null, oracle):
                with pytest.raises(NotPositiveDefinite):
                    kl.compare(law, runs, block)
            return
        g = rng.standard_normal((k, k + 2))
        block = la.sym(g @ g.T / (k + 2) - 0.5 * lam_min * np.eye(k))
        got, want = kl.compare(null, runs, block), kl.compare(oracle, runs, block)
        assert (got.route, want.route) == (hull_route(runs), "general")
        tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(oracle.cov))
        assert rel(got.kl, want.kl) <= tol
        assert rel(got.middle_sq, want.middle_sq) <= tol
        assert rel(got.right_sq, want.right_sq) <= tol
        assert rel(got.loewner_constant, want.loewner_constant) <= tol

    @pytest.mark.parametrize("model, n", [("m2", 32), ("m2", 64), ("m3", 32), ("m3", 64)])
    def test_kl_scaling_bump_against_mpmath(self, model, n):
        tau, width = {"m2": (0.02, 0.25), "m3": (0.01, 0.125)}[model]
        spec = models.ModelSpec(model, n, tau)
        support, block = models.bump_difference(
            spec, single_bump_profile(1.0, 1.0, width), unit_bands(spec))
        if model == "m2":
            assert support[0, 0] == 0 and support[0, 1] > 1  # a leading run
        got = kl.compare(null_law(spec), support, block)
        assert got.route == "banded"
        inverse0 = mp_null_inverse(spec)
        delta = scatter(n, support, block)
        with mpmath.workdps(60):
            x = inverse0 * mpmath.matrix(delta.tolist())
            middle = mpmath.fsum(x[i, j] * x[j, i] for i in range(n) for j in range(n))
        assert rel(got.kl, mp_kl(inverse0, delta)) <= 1e-12
        assert rel(got.middle_sq, float(middle)) <= 1e-12

    @pytest.mark.parametrize("model", ["m2", "m3"])
    def test_kl_scaling_probe_solves_nothing(self, model, monkeypatch):
        from mnlab import certificate as cert

        solves, seen = [], []
        solve, compare = kl.GaussianLaw.solve, cert.compare
        monkeypatch.setattr(kl.GaussianLaw, "solve",
                            lambda law, rhs: solves.append(rhs) or solve(law, rhs))
        monkeypatch.setattr(cert, "compare",
                            lambda *args: seen.append(compare(*args)) or seen[-1])
        cert.kl_scaling_probe(model, 1.0, 1.0, 0.02, [128, 256, 512])
        assert [c.route for c in seen] == ["banded"] * 3
        assert solves == []

    def test_two_point_m3_takes_the_route(self, monkeypatch):
        from mnlab import certificate as cert

        seen, compare = [], cert.compare
        monkeypatch.setattr(cert, "compare",
                            lambda *args: seen.append(compare(*args)) or seen[-1])
        cert.two_point_certificate_m3(256, 1.0, 4.0, 1.0, 0.1)
        assert [c.route for c in seen] == ["banded"]

    @pytest.mark.parametrize("model, support", [
        ("m3", np.array([[10, 11], [11, 12], [13, 14], [14, 15]])),  # a gap
        ("m3", np.array([[10, 11], [11, 14], [14, 15]])),            # a middle run
        ("m2", np.array([[10, 11], [11, 14], [14, 15]])),
        ("m3", np.array([[10, 11]])),      # a hull shorter than the bandwidth
        ("m3", np.array([[8, 10], [10, 11], [11, 14]])),  # a multi-index last run
        ("m2", np.array([[3, 9], [12, 13], [20, 24]])),   # and gaps
    ])
    def test_other_supports_take_the_general_path(self, model, support):
        null = null_law(models.ModelSpec(model, 32, 0.1))
        block = 1e-6 * np.eye(len(support))
        got = kl.compare(null, support, block)
        want = kl.compare(kl.GaussianLaw(null.cov), support, block)
        assert got.route == want.route == "general"
        tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(null.cov))
        assert np.allclose(got.mu, want.mu, rtol=tol, atol=0)

    def test_a_tridiagonal_null_takes_gaps(self):
        null = m1_null(64)
        support = np.array([[3, 9], [12, 13], [20, 21], [30, 31]])
        block = la.sym(1e-4 * np.arange(1.0, 17.0).reshape(4, 4))
        got = kl.compare(null, support, block)
        want = kl.compare(kl.GaussianLaw(null.cov), support, block)
        assert (got.route, want.route) == ("banded", "general")
        assert rel(got.kl, want.kl) <= 1e-12


# ---------------------------------------------------------------------------
# work arrays: B and one k x k work matrix, and nothing of the caller's


class TestWorkArrays:
    @pytest.mark.parametrize("route", ["tridiagonal", "banded", "general"])
    def test_leaves_the_callers_block_unchanged(self, route):
        null = m1_null(64)
        support = np.arange(10, 30)
        rng = np.random.default_rng(8)
        block = log_uniform(rng, support.size, lo=1e-6) * 1e-2
        if route != "tridiagonal":
            g = 1e-3 * rng.standard_normal((support.size, support.size))
            block = la.sym(np.diag(block) + g @ g.T)
        if route == "general":
            null = kl.GaussianLaw(null.cov)
        before = block.copy()
        got = kl.compare(null, support, block)
        got.bound(1.0)
        assert got.route == route
        assert np.array_equal(block.view(np.int64), before.view(np.int64))

    def test_m2_kl_scaling_bump_holds_one_k_by_k_array(self):
        # the work matrix alone: the m2 builder keeps O(n), compare builds
        # B once, into its work matrix, and the comparison never builds it
        n = 2048
        spec = models.ModelSpec("m2", n, 0.02)
        null = null_law(spec)
        profile = single_bump_profile(1.0, 1.0, 0.25)
        kl.compare(null, *models.bump_difference(spec, profile, unit_bands(spec)))
        tracemalloc.start()
        try:
            support, build = models._m2_bump_difference(profile, n)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            calls = []
            got = kl.compare(null, support, lambda out: calls.append(out.shape) or build(out))
            compared = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = got.support.k
        assert got.route == "banded" and k == 507
        assert calls == [(k, k)] and "block" not in got.__dict__
        assert built < 16 * 8 * n
        assert compared < 1.25 * 8 * k * k

    def test_one_index_runs_scatter_with_no_scaled_copy(self):
        # W's columns are unit vectors: V's rows go into the right-hand
        # side as they are, the bits of the scaled and repeated copy
        rng = np.random.default_rng(3)
        n, m = 2048, 256
        runs = kl._runs(np.sort(rng.choice(n, 1024, replace=False)), n)
        values = rng.standard_normal((runs.k, m))
        values[0, 0] = -0.0
        want = np.zeros((n, m), order="F")
        want[runs.rows] = np.repeat(values * runs.scale[:, None], runs.lengths, axis=0)
        out = np.zeros((n, m), order="F")
        tracemalloc.start()
        try:
            runs.scatter(values, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == want.tobytes()
        assert peak < 0.1 * values.nbytes

    @given(seed=hs.integers(0, 2**32 - 1), n=hs.integers(64, 512),
           model=hs.sampled_from(["m2", "m3"]), spread=hs.booleans())
    @settings(max_examples=30, deadline=None)
    def test_a_builder_gives_the_bits_of_its_array(self, seed, n, model, spread):
        # bumps apart take the general route, adjacent bumps the banded one
        rng = np.random.default_rng(seed)
        base = family_alternative(model, n, 0, seed=int(rng.integers(8)))
        m = base.centers.size
        if spread:
            codeword = (np.arange(m) + int(rng.integers(2))) % 2
        else:
            a = int(rng.integers(m - 1))
            codeword = (np.arange(m) >= a) & (np.arange(m) < int(rng.integers(a + 1, m + 1)))
        profile = BumpSumProfile(base.kernel, base.centers, base.h,
                                 base.amplitude * rng.uniform(0.5, 2.0),
                                 codeword.astype(float))
        spec = models.ModelSpec(model, n, 0.1)
        null = null_law(spec)
        support, build = models.bump_difference(spec, profile, unit_bands(spec))
        block = kl.block_array(build, len(support))
        got, want = kl.compare(null, support, build), kl.compare(null, support, block)
        assert got.route == want.route == ("general" if spread else "banded")
        assert np.array_equal(got.mu.view(np.int64), want.mu.view(np.int64))
        for name in ("kl", "middle_sq", "right_sq", "loewner_constant"):
            assert getattr(got, name).hex() == getattr(want, name).hex()
        assert got.dominates(1.0) == want.dominates(1.0)
        built = kl.block_array(got.source, len(support))
        assert np.array_equal(built.view(np.int64), block.view(np.int64))

    def test_block_array_takes_no_vector(self):
        # a vector is no k x k block: copying it would repeat it in every row
        with pytest.raises(ValueError):
            kl.block_array(np.ones(3), 3)

    @pytest.mark.parametrize("route", ["banded", "general"])
    def test_an_eigensolver_failure_is_no_convergence(self, route, monkeypatch):
        # dsyevd's positive info counts the off-diagonal entries that did not
        # converge, and names no row
        monkeypatch.setattr(kl._lapack, "dsyevd",
                            lambda m, **kwargs: (np.zeros(m.shape[0]), None, 2))
        null = m1_null(64) if route == "banded" else kl.GaussianLaw(m1_null(64).cov)
        with pytest.raises(NoConvergence, match="eigensolver did not converge: 2 "
                                                "off-diagonal entries"):
            kl.compare(null, np.arange(10, 14), 1e-3 * np.eye(4))

    def test_a_builder_that_breaks_symmetry_is_refused(self):
        null = m1_null(64)
        support = np.arange(10, 14)

        def build(out):
            out[:] = np.eye(4)
            out[0, 1] = 1e-3

        with pytest.raises(ValueError, match="symmetric"):
            kl.compare(null, support, build)

    @given(seed=hs.integers(0, 2**32 - 1), k=hs.integers(1, 512), banded=hs.booleans())
    @settings(max_examples=40, deadline=None)
    def test_spectrum_matches_eigvalsh(self, seed, k, banded):
        rng = np.random.default_rng(seed)
        if banded:
            # the banded route's own work matrix, symmetric up to rounding
            inverse = random_banded_null(rng, k, min(int(rng.integers(1, 4)), k - 1)).bands
            seen, spectrum = [], kl._spectrum
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kl, "_spectrum",
                              lambda m: seen.append(m.copy(order="F")) or spectrum(m))
                mu, middle_sq = kl._banded_route(inverse, la.sym(rng.standard_normal((k, k))))
            m = seen[0]
        else:
            m = np.asfortranarray(la.sym(rng.standard_normal((k, k))))
            mu, middle_sq = kl._spectrum(m.copy(order="F"))
        want = np.linalg.eigvalsh(m)
        assert np.max(np.abs(mu - want)) <= 4 * np.spacing(np.max(np.abs(want)))
        assert rel(middle_sq, float(np.sum(m * m))) <= 1e-14
