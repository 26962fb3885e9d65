import json
import math
import warnings

import numpy as np
import pytest
from conftest import quad_points
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from mpmath import iv
from scipy.integrate import quad

from mnlab import hypotheses as hyp
from mnlab.errors import ConstructionFailure


def bump_raw(u):
    u = np.asarray(u, dtype=float)
    w = 1.0 - 4.0 * u * u
    out = np.zeros(u.shape)
    out[w > 0] = np.exp(-1.0 / w[w > 0])
    return out


def bump_raw_d1(u):
    u = np.asarray(u, dtype=float)
    w = 1.0 - 4.0 * u * u
    out = np.zeros(u.shape)
    out[w > 0] = -8.0 * u[w > 0] / w[w > 0] ** 2 * np.exp(-1.0 / w[w > 0])
    return out


# The raw bump g = exp(-1/w), w = 1 - 4u^2, has |g'| = 8|u| g / w^2 and
# |g''| = g |-8/w^2 - 128 u^2/w^3 + 64 u^2/w^4|, both even in u.  On
# EDGE <= |u| < 1/2, where w <= w0 = 1 - 4 EDGE^2 < 1/4, they are at most
# 4 g/w^2 and g (8/w^2 + 32/w^3 + 16/w^4); each g/w^k increases with w
# below 1/k, so its value at w0 bounds it there.  Past |u| = 1/2 every
# derivative is 0.
EDGE = 0.49
_W0 = 1 - 4 * iv.mpf(EDGE) ** 2


def bump_d1_iv(u):
    w = 1 - 4 * u * u
    return abs(8 * u * iv.exp(-1 / w) / w**2)


def bump_d2_iv(u):
    w = 1 - 4 * u * u
    return abs(iv.exp(-1 / w) * (-8 / w**2 - 128 * u * u / w**3 + 64 * u * u / w**4))


EDGE_BOUND = {
    1: float((4 * iv.exp(-1 / _W0) / _W0**2).b),
    2: float((iv.exp(-1 / _W0) * (8 / _W0**2 + 32 / _W0**3 + 16 / _W0**4)).b),
}


def derivative_sup(order, pieces=64, tol=1e-3):
    """A rigorous upper bound on sup |g^(order)| over the real line.

    Interval enclosures (outward rounded) on pieces of [0, EDGE]; a piece
    whose enclosure exceeds (1 + tol) times the best point value so far
    is bisected, so the bound ends within tol of the supremum.
    """
    fn = {1: bump_d1_iv, 2: bump_d2_iv}[order]
    edges = np.linspace(0.0, EDGE, pieces + 1)
    work = list(zip(edges[:-1], edges[1:]))
    best, upper = 0.0, EDGE_BOUND[order]
    while work:
        a, b = work.pop()
        enclosed = float(fn(iv.mpf([a, b])).b)
        mid = 0.5 * (a + b)
        best = max(best, float(fn(iv.mpf(mid)).a))
        if enclosed <= best * (1.0 + tol):
            upper = max(upper, enclosed)
        else:
            work += [(a, mid), (mid, b)]
    return upper


def seminorm_bound(f, beta, lipschitz, points=2**14):
    """A rigorous upper bound on the beta-seminorm over the real line of a
    function f supported on [-1/2, 1/2], with sup |f'| <= lipschitz.

    Points outside the support move to its edge, where f is 0 as well, so
    only pairs inside count.  Pairs closer than r differ by at most
    ``lipschitz * r``.  Pairs at distance r, each point moved to its
    nearest point of a grid of spacing delta, differ by at most
    ``S_grid (r + delta)^beta + lipschitz * delta``, with S_grid the
    seminorm over grid pairs (the float values are within 1e-13 of f).
    The bound is the largest, over r, of the smaller of the two ratios.
    """
    delta = 1.0 / points
    xs = (np.arange(points + 1) - points // 2) * delta
    s_grid = hyp._pair_seminorm(f(xs), xs, beta) * (1.0 + 1e-12) + 2e-13 / delta**beta
    # near grows with r and far falls, so on [r_k, r_k+1] both are bounded
    # by near at r_k+1 and far at r_k
    r = np.geomspace(1e-12, 1.0, 20001)
    near = lipschitz * r ** (1.0 - beta)
    far = s_grid * (1.0 + delta / r) ** beta + lipschitz * delta / r**beta
    return max(near[0], float(np.max(np.minimum(near[1:], far[:-1])))) * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def derivative_sups():
    return {order: derivative_sup(order) for order in (1, 2)}


class TestKernelConstant:
    def test_lipschitz_case_matches_derivative_supremum(self):
        # alpha = 1: seminorm is the Lipschitz constant sup|g'|
        xs = np.linspace(-0.4999, 0.4999, 4001)
        w = 1.0 - 4.0 * xs * xs
        g1 = -8.0 * xs / w**2 * np.exp(-1.0 / w)
        a_oracle = 0.99 * 0.5 / np.max(np.abs(g1))
        assert hyp.kernel_constant(1.0) == pytest.approx(a_oracle, rel=2e-3)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
    def test_kernel_in_holder_ball(self, alpha):
        kernel = hyp.bump_kernel(alpha)
        assert kernel.a > 0.0
        assert kernel.eval(0.5) == 0.0 and kernel.eval(-0.5) == 0.0
        assert kernel.eval(0.0) == pytest.approx(kernel.a / math.e)
        # the kernel's support [-1/2, 1/2], shifted onto [0, 1]
        assert hyp.holder_check(
            lambda x: kernel.eval(x - 0.5), alpha, 0.5, grid_size=900,
            deriv=lambda x: kernel.deriv1(x - 0.5),
        )

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0, 1.2, 1.5, 2.0])
    def test_kernel_is_proven_in_the_half_ball(self, alpha, derivative_sups):
        # the disjoint-bump lemma's hypothesis, on the real line and not
        # on a grid: the order-p derivative of K = a g has beta-seminorm
        # at most 1/2; at beta = 1 that is a sup |g^(p+1)| <= 1/2
        p = hyp.holder_exponent_order(alpha)
        beta = alpha - p
        lipschitz = derivative_sups[p + 1]
        if beta == 1.0:
            seminorm = lipschitz
        else:
            seminorm = seminorm_bound(bump_raw if p == 0 else bump_raw_d1, beta, lipschitz)
        assert hyp.kernel_constant(alpha) * seminorm <= 0.5

    @pytest.mark.parametrize("alpha", [0.5, 0.3, 2.1])
    def test_unsupported_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            hyp.kernel_constant(alpha)

    def test_derivatives_match_finite_differences(self):
        kernel = hyp.bump_kernel(1.0)
        xs = np.linspace(-0.45, 0.45, 41)
        h = 1e-6
        fd1 = (kernel.eval(xs + h) - kernel.eval(xs - h)) / (2.0 * h)
        assert np.max(np.abs(fd1 - kernel.deriv1(xs))) <= 1e-5


def row_seminorm(values, xs, beta):
    """max over grid pairs of |f(x) - f(y)| / |x - y|^beta, one row at a time."""
    return float(np.max([
        np.max(np.abs(values[i] - values[i + 1:]) / np.abs(xs[i] - xs[i + 1:]) ** beta)
        for i in range(xs.size - 1)
    ]))


def all_pairs_seminorm(values, xs, beta):
    """max over grid pairs of |f(x) - f(y)| / |x - y|^beta, from G x G arrays."""
    dv = np.abs(values[:, None] - values[None, :])
    dx = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(xs.size, k=1)
    return float(np.max(dv[iu] / dx[iu] ** beta))


BLOCK = hyp._PAIR_BLOCK


class TestBumpShape:
    def test_far_points_raise_no_warning_and_inside_keeps_its_bits(self):
        # u * u overflows past |u| ~ 1e154, as for a bump of width 1e-300
        inside = np.linspace(-0.55, 0.55, 1601)
        u = np.concatenate((inside, [1e160, -1e300, np.inf, -np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw, d1 = hyp._bump_raw(u), hyp._bump_raw_d1(u)
        assert not np.any(raw[inside.size:]) and not np.any(d1[inside.size:])
        w = 1.0 - 4.0 * inside * inside
        on = w > 1e-12
        want = np.zeros(inside.size)
        want[on] = np.exp(-1.0 / w[on])
        assert np.array_equal(raw[:inside.size], want)
        want[on] = -8.0 * inside[on] / w[on] ** 2 * np.exp(-1.0 / w[on])
        assert np.array_equal(d1[:inside.size], want)


class TestHolderCheck:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
    def test_row_seminorm_matches_all_pairs_bits(self, alpha):
        # the grid and values of kernel_constant
        p = hyp.holder_exponent_order(alpha)
        xs = np.linspace(-0.55, 0.55, 1601)
        values = hyp._bump_raw(xs) if p == 0 else hyp._bump_raw_d1(xs)
        got = hyp._pair_seminorm(values, xs, alpha - p)
        assert got == all_pairs_seminorm(values, xs, alpha - p)
        assert got == row_seminorm(values, xs, alpha - p)

    @given(seed=hs.integers(0, 2**32 - 1), size=hs.integers(2, 300),
           beta=hs.floats(0.05, 1.0), sorted_grid=hs.booleans())
    @settings(max_examples=150, deadline=None)
    def test_blocked_seminorm_matches_row_loop_bits(self, seed, size, beta, sorted_grid):
        # sizes on both sides of the 64-row block, grids in either order
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, size)
        xs = np.sort(xs) if sorted_grid else xs
        assume(np.unique(xs).size == size)
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 3)
        assert hyp._pair_seminorm(values, xs, beta) == row_seminorm(values, xs, beta)

    @given(seed=hs.integers(0, 2**32 - 1),
           size=hs.sampled_from([2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                                 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 1, 300]),
           beta=hs.floats(0.0, 1.0, exclude_min=True), shuffle=hs.booleans(),
           shape=hs.sampled_from(["noise", "walk", "bump"]))
    @settings(max_examples=300, deadline=None)
    def test_pruned_seminorm_matches_all_pairs_bits(self, seed, size, beta, shuffle,
                                                    shape):
        # sizes at the edges of the near diagonals and the far blocks, grids
        # in either order, values rough, smooth or bump shaped
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-1.0, 1.0, size))
        assume(np.unique(xs).size == size)
        if shape == "noise":
            values = rng.standard_normal(size)
        elif shape == "walk":
            values = np.cumsum(rng.standard_normal(size))
        else:
            values = hyp._bump_raw((xs - rng.uniform(-1.0, 1.0)) / rng.uniform(0.1, 2.0))
        values = values * 10.0 ** rng.uniform(-8, 3)
        if shuffle:
            order = rng.permutation(size)
            xs, values = xs[order], values[order]
        assert hyp._pair_seminorm(values, xs, beta) == all_pairs_seminorm(values, xs, beta)

    @given(seed=hs.integers(0, 2**32 - 1),
           size=hs.sampled_from([2 * BLOCK + 1, 3 * BLOCK + 1, 5 * BLOCK, 257]),
           beta=hs.one_of(hs.just(1.0), hs.floats(0.0, 1.0, exclude_min=True)),
           shuffle=hs.booleans())
    @settings(max_examples=150, deadline=None)
    def test_pruned_seminorm_keeps_exact_ties(self, seed, size, beta, shuffle):
        # piecewise-linear values on a dyadic grid are exact: at beta = 1
        # every pair inside a run of the steepest slope attains the
        # maximum, the first run spans more than two blocks, and the last
        # run, blocks away, attains it too
        rng = np.random.default_rng(seed)
        xs = np.arange(size) / 64.0
        runs = rng.integers(1, 3 * BLOCK, size=size)
        slopes = np.repeat(rng.choice([-3, -2, -1, 0, 1, 2, 3], size=size), runs)[:size - 1]
        slopes[:size // 2] = 3
        slopes[-BLOCK:] = 3
        values = np.concatenate(([0.0], np.cumsum(slopes) / 64.0))
        if shuffle:
            order = rng.permutation(size)
            xs, values = xs[order], values[order]
        got = hyp._pair_seminorm(values, xs, beta)
        assert got == all_pairs_seminorm(values, xs, beta)
        if beta == 1.0:
            assert got == 3.0

    def test_a_grid_without_pairs_is_refused(self):
        for size in (0, 1):
            with pytest.raises(ValueError, match=f"grid_size must be at least 2, got {size}"):
                hyp.holder_check(lambda x: x, 1.0, 1.0, grid_size=size)

    def test_a_nan_on_the_grid_fails_the_check(self):
        def f(x):
            return np.where(x > 0.5, np.nan, x)

        xs = np.linspace(0.0, 1.0, 800)
        assert math.isnan(hyp._pair_seminorm(f(xs), xs, 1.0))
        assert math.isnan(all_pairs_seminorm(f(xs), xs, 1.0))
        assert not hyp.holder_check(f, 1.0, 10.0)
        assert not hyp.holder_check(lambda x: x, 1.5, 10.0, deriv=f)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_order_one_needs_a_derivative(self, alpha):
        with pytest.raises(ValueError, match="needs p <= 1"):
            hyp.holder_check(lambda x: x * x, alpha, 10.0)

    def test_orders_beyond_one_raise(self):
        # p = 2 would need the second derivative, not the first
        with pytest.raises(ValueError, match="needs p <= 1"):
            hyp.holder_check(lambda x: x * x, 2.5, 10.0, deriv=lambda x: 2.0 * x)

    def test_constant_function(self):
        assert hyp.holder_check(lambda x: 1.0, 0.7, 0.01)
        assert hyp.holder_check(lambda x: 1.0, 1.0, 0.01)

    def test_linear_function_threshold(self):
        # f(x) = x has Lipschitz seminorm exactly 1
        assert hyp.holder_check(lambda x: x, 1.0, 1.0)
        assert not hyp.holder_check(lambda x: x, 1.0, 0.9)


class TestCodeConstruction:
    def test_minimum_length_guard(self):
        with pytest.raises(ValueError, match="needs m >= 8, got 7"):
            hyp.vg_code(7)

    def test_m8_distance_one(self):
        words = hyp.vg_code(8, seed=0)
        assert words.shape[0] >= 3  # all-zeros plus >= 2^(8/8) alternatives
        assert not words[0].any()
        dist = np.abs(words[:, None, :].astype(int)
                      - words[None, :, :].astype(int)).sum(axis=2)
        iu = np.triu_indices(words.shape[0], 1)
        assert dist[iu].min() >= 1

    def test_m16_even_parity_oracle(self):
        # any two distinct even-parity words differ in >= 2 coordinates,
        # so the parity code of size 2^15 >= 2^2 certifies feasibility
        rng = np.random.default_rng(0)
        sample = rng.integers(0, 2, size=(200, 15))
        parity = np.concatenate([sample, sample.sum(axis=1, keepdims=True) % 2],
                                axis=1)
        dist = np.abs(parity[:, None, :] - parity[None, :, :]).sum(axis=2)
        iu = np.triu_indices(parity.shape[0], 1)
        assert np.min(dist[iu][dist[iu] > 0]) >= 2
        words = hyp.vg_code(16, seed=0)
        assert words.shape[0] - 1 >= 4

    def test_m24_exhaustive_scan(self):
        words = hyp.vg_code(24, seed=0)
        total = words.shape[0]
        assert total - 1 >= 2 ** (24 / 8)
        for i in range(total):
            for j in range(i + 1, total):
                assert hyp.hamming(words[i], words[j]) * 8 >= 24

    def test_random_greedy_large_length(self):
        words = hyp.vg_code(40, seed=5)
        assert words.shape[1] == 40
        assert words.shape[0] - 1 >= 2 ** (40 / 8)

    def test_deterministic(self):
        assert np.array_equal(hyp.vg_code(16, seed=9), hyp.vg_code(16, seed=9))


class TestCodeDistance:
    @given(m=hs.integers(8, 47), seed=hs.integers(0, 2**32 - 1),
           alpha=hs.sampled_from([0.6, 1.0, 2.0]),
           model_class=hs.sampled_from(["m1m2", "m3"]))
    @settings(max_examples=40, deadline=None)
    def test_min_distance_matches_all_pairs(self, m, seed, alpha, model_class):
        # m <= 47 keeps W <= 64; m > 24 draws a random code
        exponent = 1.0 / (4.0 * alpha + 2.0) if model_class == "m1m2" \
            else 1.0 / (8.0 * alpha + 4.0)
        c = 2.0 * (m - 0.5) / 256**exponent
        family = hyp.build_family(256, alpha, 1.0, c, model_class, seed=seed)
        words = family.codewords
        assert family.m == m and words.shape[0] <= 64
        assert family.min_distance == min(
            hyp.hamming(words[i], words[j])
            for i in range(words.shape[0]) for j in range(i + 1, words.shape[0]))

    def test_certification_memory_is_linear_in_the_code(self):
        # m = 85, W = 1581: an all-pairs W x W x m array would take 400 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            family = hyp.build_family(2048, 0.6, 1.0, 30.0, "m1m2", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (family.m, family.codewords.shape[0]) == (85, 1581)
        assert peak < 32 * 2**20

    def test_oversized_code_is_refused_before_the_search(self, monkeypatch):
        # m = 105 needs 8935 words, over the 2^13 + 1 the search builds
        monkeypatch.setattr(hyp.np.random, "default_rng", None)
        with pytest.raises(ConstructionFailure, match="m = 105 needs 8935 codewords"):
            hyp.vg_code(105)

    def test_size_limit_admits_the_limit_itself(self, monkeypatch):
        # m = 16 needs 5 words, m = 17 needs 6
        monkeypatch.setattr(hyp, "_MAX_WORDS", 5)
        assert hyp.vg_code(16).shape == (5, 16)
        with pytest.raises(ConstructionFailure, match="m = 17 needs 6 codewords"):
            hyp.vg_code(17)


class TestFamily:
    @pytest.mark.parametrize("c, error, match", [
        (1e9, ConstructionFailure, r"m = 1259921050 needs more than 2\^157490131 "),
        (1e5, ConstructionFailure, r"m = 125993 needs more than 2\^15749 "),
        (1.7e308, ValueError, "bump count m is not finite"),
    ])
    def test_oversized_code_is_refused_without_overflow(self, c, error, match):
        # refused before the m centres (9.4 GiB at m = 1.26e9) are built
        with pytest.raises(error, match=match):
            hyp.build_family(256, 1.0, 1.0, c, "m1m2")

    def test_huge_radius_is_refused(self):
        with pytest.raises(ValueError, match=r"L must be at most 1e\+50"):
            hyp.build_family(256, 1.0, 1e51, 9.0, "m1m2")
        # the one bump of kl-scaling keeps the same bound
        with pytest.raises(ValueError, match=r"L must be at most 1e\+50"):
            hyp.single_bump_profile(1.0, 1e51, 0.125)
        assert hyp.single_bump_profile(1.0, 1e50, 0.125).amplitude == 1e50 * 0.125

    def test_too_few_bumps_at_desk_scale(self):
        with pytest.raises(ValueError, match=r"bump count m = \d+ < 8"):
            hyp.build_family(4096, 1.0, 1.0, 2.0, "m1m2", seed=0)

    def test_bump_count_formula_large_n(self):
        family = hyp.build_family(2**24, 1.0, 1.0, 2.0, "m1m2", seed=0)
        assert family.m == 17
        assert family.h == pytest.approx(1.0 / 34.0)

    def test_supports_inside_middle_half_and_disjoint(self):
        family = hyp.build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=1)
        lo = family.centers - family.h / 2.0
        hi = family.centers + family.h / 2.0
        assert lo.min() >= 0.25 - 1e-12 and hi.max() <= 0.75 + 1e-12
        assert np.all(lo[1:] >= hi[:-1] - 1e-12)
        ts = np.linspace(0.0, 1.0, 4001)
        for k in range(family.m - 1):
            phi_k = family.kernel.eval((ts - family.centers[k]) / family.h)
            phi_next = family.kernel.eval((ts - family.centers[k + 1]) / family.h)
            assert np.max(phi_k * phi_next) == 0.0

    def test_codeword_guarantees(self):
        family = hyp.build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=1)
        m = family.m
        words = family.codewords
        assert family.count_alternatives >= 2 ** (m / 8.0)
        for i in range(words.shape[0]):
            for j in range(i + 1, words.shape[0]):
                assert hyp.hamming(words[i], words[j]) * 8 >= m

    @pytest.mark.parametrize("model_class", ["m1m2", "m3"])
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
    def test_membership_and_bounds(self, alpha, model_class):
        # the oracle of condition (i): every alternative of an m = 30
        # family (a random code of 15 words) on the max(800, 40 m) grid the
        # certificate once checked it on
        exponent = 1.0 / (4.0 * alpha + 2.0) if model_class == "m1m2" \
            else 1.0 / (8.0 * alpha + 4.0)
        family = hyp.build_family(2048, alpha, 1.0, 2.0 * 29.5 / 2048**exponent,
                                  model_class, seed=1)
        assert family.m == 30 and family.codewords.shape[0] == 15
        grid_size = max(800, 40 * family.m)
        ts = np.linspace(0.0, 1.0, grid_size)
        for k in range(family.codewords.shape[0]):
            prof = family.profile(k)
            vals = prof.eval(ts)
            assert vals.min() >= 1.0
            assert vals.max() <= family.upper_bound + 1e-12
            assert hyp.holder_check(prof.eval, family.alpha, family.l_const,
                                    grid_size=grid_size, deriv=prof.deriv)

    def test_deterministic_construction(self):
        a = hyp.build_family(256, 1.0, 1.0, 7.2, "m1m2", seed=11)
        b = hyp.build_family(256, 1.0, 1.0, 7.2, "m1m2", seed=11)
        assert np.array_equal(a.codewords, b.codewords)
        assert np.array_equal(a.centers, b.centers)
        assert json.dumps(a.descriptor(), sort_keys=True) == \
            json.dumps(b.descriptor(), sort_keys=True)

    def test_descriptor_fields(self):
        family = hyp.build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=1)
        d = family.descriptor()
        assert set(d) == {"n", "alpha", "L", "c", "model_class", "seed", "m",
                          "h_n", "centers", "codewords", "a", "K_l2_sq"}
        assert d["codewords"][0] == "0" * family.m

    def test_profile_index_guard(self):
        family = hyp.build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=1)
        with pytest.raises(IndexError, match=r"codeword index \d+ outside"):
            family.profile(family.codewords.shape[0])


class TestSeparation:
    def setup_method(self):
        # m = 8 with threshold-1 codewords, so a Hamming-distance-1 pair exists
        self.family = hyp.build_family(64, 1.0, 1.0, 7.5, "m1m2", seed=2)

    def test_same_codeword_is_zero(self):
        assert hyp.l2_separation(self.family, 1, 1) == 0.0

    def test_unit_distance_matches_closed_form(self):
        words = self.family.codewords
        pair = None
        for i in range(words.shape[0]):
            for j in range(i + 1, words.shape[0]):
                if hyp.hamming(words[i], words[j]) == 1:
                    pair = (i, j)
                    break
            if pair:
                break
        assert pair is not None
        sep = hyp.l2_separation(self.family, *pair)
        assert sep == pytest.approx(hyp.separation_closed_form(self.family),
                                    rel=1e-8)

    def test_identity_against_full_quadrature(self):
        family = self.family
        i, j = 0, 2
        rho = hyp.hamming(family.codewords[i], family.codewords[j])
        pi, pj = family.profile(i), family.profile(j)
        # the family's profiles share their bump edges
        points = quad_points(pi, 0.0, 1.0)
        oracle = 0.0
        for lo, hi in zip([0.0] + points, points + [1.0]):
            val, _ = quad(lambda t: (float(pi.eval(t)) - float(pj.eval(t))) ** 2,
                          lo, hi, limit=200)
            oracle += val
        sep = hyp.l2_separation(family, i, j)
        assert sep == pytest.approx(oracle, rel=1e-8)
        assert sep == pytest.approx(
            hyp.separation_closed_form(family) * rho, rel=1e-8
        )

    def test_minimum_separation_bound_beyond_eight(self):
        family = hyp.build_family(128, 1.0, 1.0, 7.2, "m1m2", seed=3)
        assert family.m > 8
        total = family.codewords.shape[0]
        floor_sq = (family.l_const * family.h**family.alpha
                    * math.sqrt(family.kernel.l2_norm_sq) / 4.0) ** 2
        spec_floor_sq = (family.l_const * family.h**family.alpha
                         * math.sqrt(family.kernel.l2_norm_sq) / 16.0) ** 2
        min_sep = min(
            hyp.l2_separation(family, i, j)
            for i in range(total) for j in range(i + 1, total)
        )
        assert min_sep >= spec_floor_sq
        assert min_sep >= floor_sq * (1.0 - 1e-9)

    def test_index_guard(self):
        with pytest.raises(IndexError, match="codeword index 99 outside"):
            hyp.l2_separation(self.family, 0, 99)


class TestBumpSumProfile:
    def test_moments_against_quadrature(self):
        prof = hyp.single_bump_profile(1.0, 1.0, 0.25, 0.5)
        for power, a, b in ((0, 0.0, 1.0), (1, 0.3, 0.7), (2, 0.45, 0.55)):
            oracle, _ = quad(lambda u: u**power * float(prof.eval(u)), a, b,
                             points=quad_points(prof, a, b), limit=200)
            moment = prof.cell_integrals(a, b, 0.0, [0.0] * power + [1.0])[0]
            assert moment == pytest.approx(
                oracle, abs=1e-12
            )

    def test_each_quadrature_stays_inside_one_bump_support(self, monkeypatch):
        # the cert-m1 family at n = 2048: each bump is integrated over its
        # own support clipped to the cell, and no option is passed on
        calls = []
        real = hyp.checked_cells

        def record(fn, a, b, *rest, **options):
            for lo, hi in zip(np.ravel(a), np.ravel(b)):
                calls.append((lo, hi, rest, options))
            return real(fn, a, b, *rest, **options)

        monkeypatch.setattr(hyp, "checked_cells", record)
        n = 2048
        family = hyp.build_family(n, 1.0, 1.0, 9.0, "m1m2", seed=1)
        grid = np.arange(n + 1) / n
        for k in (1, family.count_alternatives):
            family.profile(k).cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,))
        assert calls
        assert all(rest == () and options == {} for _, _, rest, options in calls)
        lo_edges = family.centers - family.h / 2.0
        hi_edges = family.centers + family.h / 2.0
        for a, b, _, _ in calls:
            assert np.any((lo_edges <= a) & (b <= hi_edges)), (a, b)
