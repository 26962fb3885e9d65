import numpy as np
import pytest
from conftest import failing_pivot, rand_psd, rand_sym

from mnlab import linalg as la
from mnlab import structures as st


def test_sym_mirror_is_bit_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 7))
    s = la.sym(a)
    assert np.array_equal(s, s.T)
    assert np.array_equal(np.tril(s), np.tril(a))


@pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 130, 200])
@pytest.mark.parametrize("order", ["C", "F"])
def test_in_place_mirror_and_transpose_are_bit_exact(k, order):
    # tiles of 64: sizes on both sides of one and two tile edges
    rng = np.random.default_rng(k)
    a = rng.standard_normal((k, k))
    a[rng.random((k, k)) < 0.1] = -0.0
    mirrored = la.mirror_lower(np.array(a, order=order))
    # the sum of the two triangles: every -0.0 becomes +0.0
    want = np.tril(a) + np.tril(a, -1).T
    assert np.array_equal(mirrored.view(np.int64), want.view(np.int64))
    assert np.array_equal(la.sym(a).view(np.int64), want.view(np.int64))
    x = np.array(a, order=order)
    got = la.transpose_in_place(x)
    assert got is x and got.flags[f"{order}_CONTIGUOUS"]
    assert np.array_equal(got.view(np.int64), a.T.view(np.int64))


def test_check_symmetric_rejects_near_symmetry():
    a = np.eye(3)
    a[0, 1] = 1e-16
    with pytest.raises(ValueError):
        la.check_symmetric(a)


class TestCheckSymmetricBlocks:
    # n = 700 spans three 256-row strips: [0, 256), [256, 512), [512, 700)
    N = 700

    def symmetric(self):
        return rand_sym(np.random.default_rng(3), self.N)

    def test_accepts_symmetric_and_signed_zeros(self):
        a = self.symmetric()
        a[5, 600] = 0.0
        a[600, 5] = -0.0
        assert np.array_equal(la.check_symmetric(a), a)

    @pytest.mark.parametrize("row, col", [
        (3, 1), (1, 3),          # first strip, both triangles
        (300, 450), (450, 300),  # middle strip
        (650, 699), (699, 650),  # last strip
        (10, 690), (690, 10),    # first strip, far column
    ])
    def test_one_flipped_bit_is_rejected(self, row, col):
        a = self.symmetric()
        a.view(np.uint64)[row, col] ^= np.uint64(1)
        with pytest.raises(ValueError):
            la.check_symmetric(a)

    @pytest.mark.parametrize("row, col", [(0, 0), (400, 400), (699, 699),
                                          (256, 511)])
    def test_nan_is_rejected(self, row, col):
        a = self.symmetric()
        a[row, col] = a[col, row] = np.nan
        with pytest.raises(ValueError):
            la.check_symmetric(a)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(la.cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_checked_2x2(self):
        low = la.cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_first_difference_gram_is_pd(self):
        # smallest closed-form eigenvalue 4 sin^2(pi/258) > 0 at n = 64
        n = 64
        assert st.eigvals_closed(n)[0] == pytest.approx(
            4.0 * np.sin(np.pi / 258.0) ** 2
        )
        low = la.cholesky_lower(st.matrix_a(n))
        assert np.all(np.diag(low) > 0.0)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(ValueError, match="not positive definite") as err:
            la.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert failing_pivot(err) == 1

    def test_roundtrip_on_random_pd(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            a = rand_psd(rng, n, floor=0.05)
            low = la.cholesky_lower(a)
            err = la.frobenius_norm(low @ low.T - a) / la.frobenius_norm(a)
            assert err <= 1e-10


class TestSymEigen:
    def test_diagonal_case(self):
        res = la.sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res.values, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(res.vectors), np.eye(3)[:, [0, 2, 1]])

    def test_tridiagonal_closed_form_n3(self):
        # 4 sin^2((2i-1) pi / 14), i = 3, 2, 1 descending; trace is 5
        res = la.sym_eigen(st.matrix_a(3))
        expected = sorted(
            4.0 * np.sin((2 * i - 1) * np.pi / 14.0) ** 2 for i in (1, 2, 3)
        )[::-1]
        assert np.allclose(res.values, expected, atol=1e-12)
        assert np.allclose(res.values, [3.2469796, 1.5549581, 0.1980623], atol=1e-6)
        assert np.isclose(res.values.sum(), 5.0, atol=1e-12)

    def test_min_matrix_inverse_2x2(self):
        # characteristic polynomial x^2 - 3x + 1: roots (3 +- sqrt 5)/2
        res = la.sym_eigen(st.matrix_q_inv(2))
        golden = [(3.0 + np.sqrt(5.0)) / 2.0, (3.0 - np.sqrt(5.0)) / 2.0]
        assert np.allclose(res.values, golden, atol=1e-12)
        assert np.isclose(res.values.sum(), 3.0)
        assert np.isclose(res.values.prod(), 1.0)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(2)
        a = rand_sym(rng, 12)
        res = la.sym_eigen(a)
        fro = la.frobenius_norm(a)
        resid = a @ res.vectors - res.vectors * res.values
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10 * fro
        gram = res.vectors.T @ res.vectors
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10


class TestFrobenius:
    def test_zero(self):
        assert la.frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_tridiagonal_n3(self):
        # entries 1,-1,-1,2,-1,-1,2 give sum of squares 13
        assert la.frobenius_norm(st.matrix_a(3)) == pytest.approx(np.sqrt(13.0))

    def test_matches_eigenvalue_form(self):
        rng = np.random.default_rng(3)
        a = rand_sym(rng, 8)
        lam = la.sym_eigen(a).values
        assert la.frobenius_norm(a) == pytest.approx(
            np.sqrt(np.sum(lam**2)), rel=1e-10
        )


class TestPsdAndLoewner:
    def test_identity_is_psd(self):
        assert la.is_psd(np.eye(5))

    def test_indefinite_2x2(self):
        assert not la.is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_least_eigenvalue_against_the_tolerance(self):
        tol = 1e-9
        # Q diag(lam) Q^T with lam_min at -f tol ||m||_F: rounding moves it
        # by about n eps ||m||_F, far less than the gap between f = 1/2 and 2
        rng = np.random.default_rng(int(1 / tol))
        for n in range(2, 65):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q *= np.sign(np.diag(r))
            rest = rng.uniform(0.1, 10.0, n - 1)
            for f, psd in ((0.5, True), (2.0, False)):
                least = -f * tol * np.linalg.norm(rest) / np.sqrt(1.0 - (f * tol) ** 2)
                m = la.sym((q * np.append(least, rest)) @ q.T)
                assert la.is_psd(m) is psd, (n, f)
                assert abs(np.linalg.eigvalsh(m)[0] - least) <= 0.1 * tol * la.frobenius_norm(m)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_zero_matrix_is_psd(self, n):
        assert la.is_psd(np.zeros((n, n)))

    def test_loewner_scalar_cases(self):
        assert la.loewner_leq(np.eye(3), 2.0 * np.eye(3))
        assert not la.loewner_leq(2.0 * np.eye(3), np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            la.loewner_leq(np.eye(2), np.eye(3))

    def test_scaled_q_domination_with_bump_profile(self):
        from mnlab.hypotheses import build_family

        n = 128
        family = build_family(n, 1.0, 1.0, 7.2, "m1m2", seed=0)
        s = np.sqrt(family.profile(1).eval(np.arange(1, n + 1) / n))
        q = st.matrix_q(n)
        lhs = la.sym(q / (2.0 + 12.0 * 1.0**2))
        rhs = la.sym(np.outer(s, s) * q)
        assert la.loewner_leq(lhs, rhs)


class TestMatrixInequalities:
    """Randomized sweeps of the PSD/Frobenius facts the bounds rely on."""

    def test_trace_product_vs_top_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(2, 33))
            a, b = rand_psd(rng, n), rand_psd(rng, n)
            lhs = float(np.trace(a @ b))
            rhs = float(np.linalg.eigvalsh(a)[-1] * np.trace(b))
            assert lhs <= rhs + 1e-9

    def test_eigenvalue_superadditivity_all_shifts(self):
        rng = np.random.default_rng(6)
        n = 10
        for _ in range(50):
            a, b = rand_sym(rng, n), rand_sym(rng, n)
            wa = np.linalg.eigvalsh(a)[::-1]
            wb = np.linalg.eigvalsh(b)[::-1]
            wab = np.linalg.eigvalsh(a + b)[::-1]
            for r in range(n):
                for s in range(n - r):
                    assert wab[n - r - s - 1] >= wa[n - r - 1] + wb[n - s - 1] - 1e-9

    def test_cross_gram_dominated(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            diff = la.sym(a.T @ a + b.T @ b - a.T @ b - b.T @ a)
            assert la.is_psd(diff)

    def test_doubled_trace_frobenius_chain(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            a = rng.standard_normal((n, n))
            mid = la.frobenius_norm(a + a.T) ** 2
            assert 4.0 * float(np.trace(a @ a)) <= mid + 1e-9
            assert mid <= 4.0 * la.frobenius_norm(a) ** 2 + 1e-9

    def test_congruence_monotone_frobenius(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            a = rand_psd(rng, n)
            b = la.sym(a + rand_psd(rng, n))
            x = rng.standard_normal((n, n))
            na = la.frobenius_norm(la.sym(x.T @ a @ x))
            nb = la.frobenius_norm(la.sym(x.T @ b @ x))
            assert na <= nb + 1e-9
