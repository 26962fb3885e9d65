import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from mnlab import checks
from mnlab import linalg as la
from mnlab import structures as st
from mnlab.profiles import ConstantProfile


class TestBuilders:
    def test_first_difference_gram_smallest(self):
        assert np.array_equal(st.matrix_a(1), [[1.0]])

    def test_min_matrix_inverse_entries(self):
        assert np.array_equal(st.matrix_q_inv(2), [[2.0, -1.0], [-1.0, 1.0]])

    def test_q_times_inverse(self):
        n = 64
        prod = st.matrix_q(n) @ st.matrix_q_inv(n)
        assert np.max(np.abs(prod - np.eye(n))) <= 1e-12

    def test_bidiagonal_factorisation_exact(self):
        for n in (1, 2, 3, 17, 64):
            o = st.bidiagonal_o(n)
            assert np.array_equal(o @ o.T, st.matrix_q_inv(n))

    def test_strict_upper_and_pair_matrices(self):
        v1 = st.matrix_v1(4)
        assert v1[0, 1] == 1.0 and v1[1, 0] == 1.0 and np.sum(v1) == 2.0

    def test_build_dispatch(self):
        assert np.array_equal(st.build("A", 3), st.matrix_a(3))
        with pytest.raises(ValueError):
            st.build("bogus", 3)


class TestClosedSpectrum:
    def test_n1_matches_matrix(self):
        # 4 sin^2(pi/6) = 1, the sole entry of the 1x1 matrix
        assert st.eigvals_closed(1)[0] == pytest.approx(1.0, abs=1e-15)

    def test_n2_trace_and_det(self):
        vals = st.eigvals_closed(2)
        assert np.allclose(vals, [0.381966, 2.618034], atol=1e-6)
        assert vals.sum() == pytest.approx(3.0, abs=1e-12)
        assert vals.prod() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64, 256])
    def test_matches_numeric_eigensolver(self, n):
        closed = st.eigvals_closed(n)
        for kind in ("A", "Qinv"):
            numeric = la.sym_eigen(st.build(kind, n)).values[::-1]
            assert np.max(np.abs(numeric - closed)) <= 1e-10

    def test_lower_bound_values(self):
        assert st.eigvals_closed(10)[-1] == pytest.approx(
            4.0 * np.sin(19.0 * np.pi / 42.0) ** 2
        )

    def test_lower_bound_sweep(self):
        for n in range(2, 513):
            i = np.arange(1, n + 1)
            assert np.all(st.eigvals_closed(n) >= i * i / (4.0 * n * n))


class TestEigenvectors:
    def test_direction_n2(self):
        # first Qinv eigenvector is proportional to (sin 36deg, sin 72deg)
        basis = st.sine_basis_dense(2, "Qinv")
        v = basis[:, 0]
        ref = np.array([np.sin(np.pi / 5.0), np.sin(2.0 * np.pi / 5.0)])
        ref = ref / np.linalg.norm(ref)
        assert np.allclose(np.abs(v), ref, atol=1e-12)
        resid = st.matrix_q_inv(2) @ v - st.eigvals_closed(2)[0] * v
        assert np.max(np.abs(resid)) <= 1e-12

    def test_reversal_gives_a_eigenvectors(self):
        n = 16
        closed = st.eigvals_closed(n)
        basis = st.sine_basis_dense(n, "A")
        resid = st.matrix_a(n) @ basis - basis * closed
        assert np.max(np.abs(resid)) <= 1e-10

    def test_gram_identity(self):
        n = 128
        basis = st.sine_basis_dense(n)
        assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= 1e-10


class TestSineTransform:
    def test_basis_vector_maps_to_unit(self):
        n = 9
        basis = st.sine_basis_dense(n)
        for i in (0, 4, 8):
            coeff = st.sine_transform(basis[:, i])
            assert np.allclose(coeff, np.eye(n)[i], atol=1e-12)

    def test_zero_vector(self):
        assert np.array_equal(st.sine_transform(np.zeros(5)), np.zeros(5))

    def test_isometry_large(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        coeff = st.sine_transform(x)
        assert np.linalg.norm(coeff) == pytest.approx(np.linalg.norm(x), rel=1e-10)
        assert np.max(np.abs(st.sine_transform_inverse(coeff) - x)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 257])
    def test_matches_dense_basis(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        dense = st.sine_basis_dense(n).T @ x
        assert np.max(np.abs(st.sine_transform(x) - dense)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 2731, 4096])
    def test_block_equals_rows_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for rows in range(1, 10):
            block = rng.standard_normal((rows, n))
            expected = np.stack([st.sine_transform(row) for row in block])
            assert np.array_equal(st.sine_transform(block), expected)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4), (2, 2, 2)])
    def test_rejects_empty_or_higher_rank(self, shape):
        with pytest.raises(ValueError):
            st.sine_transform(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4), (2, 2, 2)])
    def test_inverse_rejects_empty_or_higher_rank(self, shape):
        with pytest.raises(ValueError):
            st.sine_transform_inverse(np.zeros(shape))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 50, 100])
    def test_both_directions_match_mpmath(self, n):
        x = np.random.default_rng(100 + n).standard_normal(n)
        with mpmath.workdps(40):
            scale = 2 / mpmath.sqrt(2 * n + 1)
            # basis[r, k] = scale * sin(pi (2k + 1)(n - r) / (2n + 1)), 0-based
            basis = [[scale * mpmath.sin(mpmath.pi * (2 * k + 1) * (n - r) / (2 * n + 1))
                      for k in range(n)] for r in range(n)]
            forward = [float(mpmath.fsum(basis[r][k] * x[r] for r in range(n)))
                       for k in range(n)]
            inverse = [float(mpmath.fsum(basis[r][k] * x[k] for k in range(n)))
                       for r in range(n)]
        assert np.max(np.abs(st.sine_transform(x) - forward)) <= 1e-14
        assert np.max(np.abs(st.sine_transform_inverse(x) - inverse)) <= 1e-14

    @pytest.mark.parametrize("n", [1031, 2731, 3000])
    def test_matches_dense_basis_with_padding(self, n):
        # the FFT length (a power of two) exceeds 2n, and 2n + 1 has a
        # large prime factor (2063, 607, 353)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        basis = st.sine_basis_dense(n)
        assert np.max(np.abs(st.sine_transform(x) - basis.T @ x)) <= 1e-10
        assert np.max(np.abs(st.sine_transform_inverse(x) - basis @ x)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 2731, 4096])
    def test_inverse_block_equals_rows_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for rows in range(1, 10):
            block = rng.standard_normal((rows, n))
            expected = np.stack([st.sine_transform_inverse(row) for row in block])
            assert np.array_equal(st.sine_transform_inverse(block), expected)


TRANSFORMS = [st.sine_transform, st.sine_transform_inverse]


class TestSineWorkspace:
    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("shape", [(4, 4096), (1, 16384), (16, 1024)])
    def test_repeat_call_allocates_under_one_and_a_half_blocks(self, transform, shape):
        # a block is the kernel's rows x L complex FFT array; allocating
        # afresh costs 3 of them, the thread's workspace at most one
        rows, n = shape
        block_bytes = rows * (1 << (2 * n - 1).bit_length()) * 16
        x = np.random.default_rng(n).standard_normal(shape)
        transform(x)
        tracemalloc.start()
        try:
            transform(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("shape", [(64,), (3, 64)])
    def test_results_do_not_share_the_workspace(self, transform, shape):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        first = transform(x)
        kept = first.copy()
        second = transform(y)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_threads_match_serial_bit_for_bit(self, transform):
        rng = np.random.default_rng(11)
        inputs = [rng.standard_normal(shape)
                  for shape in [(1,), (3, 17), (4096,)] * 8]
        serial = [transform(x) for x in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(transform, inputs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            assert np.array_equal(want, got)


class TestNullCovarianceSpectra:
    def test_m1_null_smallest_eigenvalue(self):
        from mnlab.models import ModelSpec, cov_differenced

        n = 128
        cov = cov_differenced(ModelSpec("m1", n, 0.1),
                              ConstantProfile(1.0))
        assert np.linalg.eigvalsh(cov)[0] >= 1.0 / n - 1e-15


class TestPsdMajorization:
    def test_constant_sigma_reduces_to_scaling(self):
        one = ConstantProfile(1.0)
        report = checks.verify_psd_majorization(lambda t: np.sqrt(one.eval(t)), 1.0, 32)
        assert report.passed
        assert report.min_eigenvalue >= 0.0

    def test_bump_profile(self):
        from mnlab.hypotheses import build_family

        family = build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=3)
        profile = family.profile(1)
        report = checks.verify_psd_majorization(lambda t: np.sqrt(profile.eval(t)), 1.0,
                                                128)
        assert report.passed

    def test_randomized_lipschitz_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            amp = float(rng.uniform(0.05, 0.4))
            freq = int(rng.integers(1, 4))
            phase = float(rng.uniform(0, 2 * np.pi))

            def sigma(t, amp=amp, freq=freq, phase=phase):
                t = np.asarray(t, dtype=float)
                return 1.0 + amp * (1.0 + np.sin(2 * np.pi * freq * t + phase)) / 2.0

            lip = amp * np.pi * freq * 1.01 + 1e-9
            assert checks.verify_psd_majorization(sigma, lip, 64).passed

    def test_out_of_class_profile_rejected(self):
        profile = ConstantProfile(0.25)  # sigma = 0.5 < 1
        with pytest.raises(ValueError, match="sigma must be >= 1"):
            checks.verify_psd_majorization(lambda t: np.sqrt(profile.eval(t)), 1.0, 16)
