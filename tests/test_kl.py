import math

import numpy as np
import pytest
from conftest import rand_psd

from mnlab import kl
from mnlab import linalg as la
from mnlab.errors import DimensionMismatch, InvalidC, NotPositiveDefinite


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
        with pytest.raises(DimensionMismatch):
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
            with pytest.raises(InvalidC):
                kl.kl_bound(np.eye(2), np.eye(2), c)

    def test_model2_hypothesis_pair(self):
        from mnlab.hypotheses import build_family
        from mnlab.models import ModelSpec, cov_differenced
        from mnlab.profiles import ConstantProfile

        n, l_const = 64, 1.0
        family = build_family(n, 1.0, l_const, 7.5, "m1m2", seed=0)
        spec = ModelSpec("m2", n, 0.1, differencing="first")
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
    def test_cached_factor_and_logdet(self):
        s = rand_psd(np.random.default_rng(5), 7, floor=0.1)
        law = kl.GaussianLaw(s)
        assert law.cov is s
        assert np.array_equal(law.chol, la.cholesky_lower(s))
        assert law.logdet == pytest.approx(np.linalg.slogdet(s)[1], rel=1e-12)

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
            # the cached log-determinants reproduce 2 * (s1 - s0) bit for bit
            s_0 = np.sum(np.log(np.diag(l0.chol)))
            s_1 = np.sum(np.log(np.diag(l1.chol)))
            assert l1.logdet - l0.logdet == 2.0 * (s_1 - s_0)

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
        with pytest.raises(DimensionMismatch):
            kl.kl_exact(kl.GaussianLaw(np.eye(2)), kl.GaussianLaw(np.eye(3)))
