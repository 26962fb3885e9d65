import math
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

from mnlab import hypotheses
from mnlab.errors import QuadratureFailure
from mnlab.hypotheses import build_family, single_bump_profile
from mnlab.profiles import (
    CallableProfile,
    ConstantProfile,
    PiecewiseConstantProfile,
    _gauss_legendre,
    checked_cells,
)

SQ = (0.0, 0.0, 1.0)


def _bump_reference(profile, lo, hi, shift, coeffs):
    """``integral_lo^hi p(u - shift) sigma^2(u) du`` for one bump, at 30 digits."""
    with mpmath.workdps(30):
        c, h, amp, a = (mpmath.mpf(float(x)) for x in (
            profile.centers[0], profile.h, profile.amplitude, profile.kernel.a))
        shift = mpmath.mpf(shift)

        def integrand(u):
            x = (u - c) / h
            w = 1 - 4 * x * x
            sigma_sq = 1 + (amp * a * mpmath.exp(-1 / w) if w > 0 else 0)
            v = u - shift
            return sum(mpmath.mpf(cf) * v**r for r, cf in enumerate(coeffs)) * sigma_sq

        return float(mpmath.quad(integrand, [mpmath.mpf(lo), mpmath.mpf(hi)]))


@pytest.mark.parametrize("l_const", [1.0, 1e6])
@pytest.mark.parametrize("n", [32, 64])
def test_bump_cells_match_mpmath(n, l_const):
    # support [7/16, 9/16]: bump edges fall on cell boundaries at these n;
    # the large L lets the bump dominate sigma^2 wherever it is not tiny
    profile = single_bump_profile(1.0, l_const, 0.125)
    grid = np.arange(n + 1) / n
    lo, hi = grid[:-1], grid[1:]
    queries = {
        "m1": (lo, hi, 0.0, (1.0,)),
        "left": (lo, hi, hi, SQ),
        "right": (lo[:-1], hi[:-1], lo[:-1], SQ),
        "cross": (lo, hi, lo, (0.0, 1.0 / n, -1.0)),
    }
    for name, (a, b, shift, coeffs) in queries.items():
        got = profile.cell_integrals(a, b, shift, coeffs)
        shifts = np.broadcast_to(shift, a.shape)
        for k in range(a.size):
            ref = _bump_reference(profile, a[k], b[k], shifts[k], coeffs)
            # an edge cell whose integral is nearly zero is held to an
            # absolute bound instead
            tol = 1e-20 if abs(ref) < 1e-12 else 1e-10 * abs(ref)
            assert abs(got[k] - ref) <= tol, (name, k, got[k], ref)


_PROFILES = (
    ConstantProfile(1.3),
    PiecewiseConstantProfile([0.3, 0.55, 0.8], [0.7, 1.9, 1.2, 0.9]),
    build_family(64, 1.0, 1.0, 7.5, "m1m2", seed=1).profile(1),
    CallableProfile(lambda t: 1.0 + 0.5 * np.sin(3.0 * np.asarray(t))),
)


def _one_cell(profile, a, b, shift, coeffs):
    """The integral over the one cell ``[a, b]``: a one-cell query, or for
    a callable profile one :func:`checked_cells` call of its integrand."""
    if profile.kind != "callable":
        return profile.cell_integrals(a, b, shift, coeffs)[0]

    def integrand(u, k):
        v = u - shift
        return sum(c * v**r for r, c in enumerate(coeffs)) * profile.eval(u)

    return checked_cells(integrand, a, b)[0]


@pytest.mark.parametrize("profile", _PROFILES, ids=lambda p: p.kind)
def test_cell_integrals_equal_the_scalar_loop_bit_for_bit(profile):
    n = 37
    grid = np.arange(n + 1) / n
    cases = [
        # (lo, hi, shift) per cell as the scalar loop spells them
        ([(k - 1) / n for k in range(1, n + 1)], [k / n for k in range(1, n + 1)],
         [0.0] * n, (1.0,)),
        ([(k - 1) / n for k in range(1, n + 1)], [k / n for k in range(1, n + 1)],
         [k / n for k in range(1, n + 1)], SQ),
        ([(k - 1) / n for k in range(1, n + 1)], [k / n for k in range(1, n + 1)],
         [(k - 1) / n for k in range(1, n + 1)], (0.0, 1.0 / n, -1.0)),
        ([0.0] * n, [k / n for k in range(1, n + 1)], [0.0] * n, [0.0, 0.0, 1.0]),
    ]
    for lo, hi, shift, coeffs in cases:
        loop = np.array([_one_cell(profile, a, b, s, coeffs)
                         for a, b, s in zip(lo, hi, shift)])
        got = profile.cell_integrals(np.array(lo), np.array(hi), np.array(shift),
                                     coeffs)
        assert got.tobytes() == loop.tobytes()
    # scalars broadcast against the grid arrays
    got = profile.cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,))
    assert got.tobytes() == profile.cell_integrals(
        grid[:-1], grid[1:], np.zeros(n), (1.0,)).tobytes()


def _scalar_closed_form(pieces, a, b, shift, coeffs):
    """The closed-form cell integral of a piecewise-constant ``sigma^2``,
    given as ``(edge, edge, value)`` pieces, in Python floats, one cell at
    a time: the loop that ``cell_integrals`` vectorises."""
    def antiderivative(x):
        v = x - shift
        total = 0.0
        for r, c in enumerate(coeffs):
            if c != 0.0:
                total += c * v ** (r + 1) / (r + 1)
        return total

    total = 0.0
    for e0, e1, value in pieces:
        lo, hi = max(a, e0), min(b, e1)
        if hi > lo:
            total += value * (antiderivative(hi) - antiderivative(lo))
    return total


def _pieces(profile):
    if profile.kind in ("constant", "piecewise"):
        edges = (-math.inf,) + profile.breaks + (math.inf,)
        return list(zip(edges[:-1], edges[1:], profile.values))
    return [(-math.inf, math.inf, 1.0)]  # the base level of a bump profile


def _closed_form_loop(profile, lo, hi, shift, coeffs):
    lo, hi, shift = np.broadcast_arrays(lo, hi, shift)
    return np.array([_scalar_closed_form(_pieces(profile), a, b, s, coeffs)
                     for a, b, s in zip(lo.tolist(), hi.tolist(), shift.tolist())])


_COEFFS = hs.lists(hs.sampled_from([0.0, 1.0, -1.0, 0.37, 1.0 / 3.0, -2.5e-3]),
                   min_size=1, max_size=5)
_BREAKS = hs.lists(hs.floats(0.01, 0.99), max_size=4, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(cells=hs.lists(hs.tuples(*[hs.floats(-2.0, 2.0)] * 3), min_size=1, max_size=40),
       coeffs=_COEFFS, breaks=_BREAKS, values=hs.lists(hs.floats(1e-3, 1e3), min_size=5,
                                                        max_size=5))
def test_closed_form_cells_equal_the_python_float_loop_bit_for_bit(cells, coeffs, breaks,
                                                                   values):
    # powers k >= 2 are Python's v ** k: numpy's power misses those bits
    lo, hi, shift = (np.array(x) for x in zip(*cells))
    for profile in (ConstantProfile(values[0]),
                    PiecewiseConstantProfile(breaks, values[:len(breaks) + 1])):
        got = profile.cell_integrals(lo, hi, shift, coeffs)
        want = _closed_form_loop(profile, lo, hi, shift, coeffs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), profile.kind


@pytest.mark.parametrize("n", [1000, 2**12])
def test_model_queries_equal_the_python_float_loop_bit_for_bit(n):
    # the m1, m2 and m3 queries of the covariance builders, on constant and
    # piecewise profiles and on the base level of a bump profile (the null
    # of a family)
    grid = np.arange(n + 1) / n
    lo, hi = grid[:-1], grid[1:]
    queries = [(lo, hi, 0.0, (1.0,)), (0.0, hi, 0.0, (0.0, 1.0)),
               (0.0, hi, 0.0, (0.0, 0.0, 1.0)), (lo, hi, hi, SQ),
               (lo[:-1], hi[:-1], lo[:-1], SQ), (lo, hi, lo, (0.0, 1.0 / n, -1.0))]
    profiles = (ConstantProfile(1.0), ConstantProfile(0.7), _PROFILES[1],
                build_family(64, 1.0, 1.0, 7.5, "m1m2", seed=1).profile(0))
    for a, b, shift, coeffs in queries:
        for profile in profiles:
            got = profile.cell_integrals(a, b, shift, coeffs)
            want = _closed_form_loop(profile, a, b, shift, coeffs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                (profile.kind, coeffs)


def test_piecewise_outer_pieces_extend_beyond_the_unit_interval():
    prof = PiecewiseConstantProfile([0.5], [2.0, 3.0])
    assert prof.cell_integrals(-0.25, 1.5, 0.0, (1.0,))[0] == pytest.approx(
        2.0 * 0.75 + 3.0 * 1.0, rel=1e-15)
    assert prof.cell_integrals(0.75, 0.25, 0.0, (1.0,))[0] == 0.0


def test_a_constant_profile_is_the_step_profile_of_one_piece():
    constant, step = ConstantProfile(1.3), PiecewiseConstantProfile((), (1.3,))
    assert constant.kind == "constant" and step.kind == "piecewise"
    assert (constant.breaks, constant.values) == ((), (1.3,))
    assert not hasattr(constant, "value")
    t = np.linspace(-0.5, 1.5, 9)
    assert np.array_equal(constant.eval(t), step.eval(t)) and constant.eval(0.25) == 1.3
    grid = np.arange(65) / 64
    for coeffs in ((1.0,), SQ, (0.0, 1.0 / 64, -1.0)):
        got = constant.cell_integrals(grid[:-1], grid[1:], grid[1:], coeffs)
        want = step.cell_integrals(grid[:-1], grid[1:], grid[1:], coeffs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_step_values_must_be_positive_and_finite(bad):
    for make in (lambda: ConstantProfile(bad),
                 lambda: PiecewiseConstantProfile([0.5], [1.0, bad]),
                 lambda: PiecewiseConstantProfile([0.5], [bad, 1.0])):
        with pytest.raises(ValueError, match="positive and finite"):
            make()


@pytest.mark.parametrize("breaks", [[math.nan], [0.5, math.nan], [0.0], [1.0], [0.6, 0.4]])
def test_breaks_must_increase_strictly_inside_the_unit_interval(breaks):
    with pytest.raises(ValueError, match="strictly increasing inside"):
        PiecewiseConstantProfile(breaks, [1.0] * (len(breaks) + 1))


@pytest.mark.parametrize("profile", [p for p in _PROFILES if p.kind != "bump"],
                         ids=lambda p: p.kind)
def test_only_a_bump_profile_has_a_bump_part(profile):
    with pytest.raises(TypeError):
        profile.cell_integrals(0.0, 1.0, 0.0, (1.0,), bump_only=True)


def _bump_cell_oracle(profile, lo, hi, shift, power, bump_only):
    """Per-cell QUADPACK integral, checked against its error estimate, of
    ``(u - shift)^power`` times the bump part, or times ``sigma^2``, of a
    one-bump profile, in ``v = u - shift`` with scalar math."""
    c, h = float(profile.centers[0]), profile.h
    scale = profile.amplitude * profile.kernel.a
    out = []
    for a, b, s in zip(lo.tolist(), hi.tolist(), shift.tolist()):
        def integrand(v, s=s):
            x = (v + (s - c)) / h
            w = 1.0 - 4.0 * x * x
            bump = scale * math.exp(-1.0 / w) if w > 1e-12 else 0.0
            return v**power * (bump if bump_only else 1.0 + bump)

        edges = [e for e in (c - h / 2.0 - s, c + h / 2.0 - s) if a - s < e < b - s]
        value, err, _, *message = quad(integrand, a - s, b - s, full_output=1,
                                       points=edges or None, epsabs=1e-15,
                                       epsrel=1e-12, limit=200)
        assert not message and err <= max(1e-15, 1e-12 * abs(value)), (a, b)
        out.append(value)
    return np.array(out)


@pytest.mark.parametrize("bump_only", [False, True])
@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [256, 1024, 4096, 16384])
def test_bump_cells_match_the_adaptive_oracle(n, alpha, bump_only):
    # the cells within one bump width of a bump of width 1/16, so some
    # cells lie outside the support and two straddle its edges
    profile = single_bump_profile(alpha, 1.0, 1.0 / 16.0, center=0.5 + 0.3 / n)
    grid = np.arange(n + 1) / n
    window = np.flatnonzero((grid[:-1] >= 0.5 - 1.0 / 16.0) & (grid[1:] <= 0.5 + 1.0 / 16.0))
    lo, hi = grid[window], grid[window + 1]
    for power, shift in ((0, lo), (1, lo), (2, hi)):
        got = profile.cell_integrals(lo, hi, shift, [0.0] * power + [1.0],
                                     bump_only=bump_only)
        want = _bump_cell_oracle(profile, lo, hi, shift, power, bump_only)
        assert np.max(np.abs(got - want)) <= 1.5e-15 * np.max(np.abs(want)), power


def _recorded(fn):
    """``fn``, and the list it fills with the interval indices of each call."""
    calls = []

    def recorded(u, k):
        calls.append(np.ravel(k))
        return fn(u, k)

    return recorded, calls


class TestCheckedCells:
    @pytest.mark.parametrize("fn, lo, hi, want", [
        (lambda u, k: np.abs(u - 0.3), 0.0, 1.0, 0.29),
        (lambda u, k: np.where(u < 0.3, 1.0, 2.0), 0.0, 1.0, 1.7),
        # with x = 0.5 - u, the integral of sqrt(x^2 + x/4) over [0, 1/2]
        (lambda u, k: (0.5 - u) ** 0.5 * (0.75 - u) ** 0.5, 0.0, 0.5,
         0.3125 * math.sqrt(0.375)
         - (math.log(1.25 + 2.0 * math.sqrt(0.375)) - math.log(0.25)) / 128.0),
    ], ids=["kink", "jump", "endpoint-singularity"])
    def test_rough_integrands_are_bisected(self, fn, lo, hi, want):
        recorded, calls = _recorded(fn)
        got = checked_cells(recorded, lo, hi)
        assert len(calls) > 2  # more than one pass
        assert got[0] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_the_piece_budget_raises_without_touching_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure,
                               match=r"on \[0\.0, 1\.0\] failed \(more than 200 pieces\)"):
                checked_cells(lambda u, k: np.sin(3.7e6 * u), 0.0, 1.0)

    def test_a_non_finite_value_raises_naming_its_interval(self):
        with pytest.raises(QuadratureFailure,
                           match=r"on \[1\.0, 2\.0\] failed \(a non-finite value\)"):
            checked_cells(lambda u, k: np.where(u > 1.5, np.nan, u), [0.0, 1.0],
                          [1.0, 2.0])

    def test_a_first_pass_value_is_the_24_node_rule(self):
        lo, hi = np.array([0.0, 0.3, 0.5, 2.0]), np.array([1.0, 0.7, 0.5, 1.0])
        half, mid = np.maximum(hi - lo, 0.0) / 2.0, (lo + hi) / 2.0
        nodes, weights = np.polynomial.legendre.leggauss(24)
        want = (-np.exp(mid[:, None] + half[:, None] * nodes) * weights).sum(axis=1) * half
        got = checked_cells(lambda u, k: -np.exp(u), lo, hi)
        assert got.tobytes() == want.tobytes()
        # the empty and the reversed interval keep their signed zeros
        assert np.signbit(got[2:]).all()

    def test_the_tabulated_rules_are_leggauss_bits(self):
        from numpy.polynomial.legendre import leggauss

        for (nodes, weights), size in zip(_gauss_legendre(), (16, 24)):
            want_nodes, want_weights = leggauss(size)
            assert nodes.tobytes() == want_nodes.tobytes(), size
            assert weights.tobytes() == want_weights.tobytes(), size

    def test_integrating_loads_no_polynomial_package(self):
        code = ("import sys; from mnlab.profiles import checked_cells; "
                "checked_cells(lambda u, k: u * u, 0.0, 1.0); "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_an_interval_keeps_its_bits_beside_intervals_that_bisect(self):
        shapes = (lambda u: np.exp(-u) * np.cos(5.0 * u), lambda u: np.abs(u - 0.3))
        lo, hi = [0.0, 0.0, 0.25, 0.1], [1.0, 1.0, 0.75, 0.9]
        together = checked_cells(lambda u, k: np.where(k % 2, shapes[1](u), shapes[0](u)),
                                 lo, hi)
        for i in range(4):
            alone = checked_cells(lambda u, k: shapes[i % 2](u), lo[i], hi[i])
            assert alone.tobytes() == together[i:i + 1].tobytes(), i

    def test_empty_and_reversed_intervals_are_zero(self):
        got = checked_cells(lambda u, k: 1.0 + u, [0.5, 0.5, 0.0], [0.5, 0.25, 1.0])
        assert got[:2].tolist() == [0.0, 0.0]
        assert got[2] == pytest.approx(1.5, rel=1e-15, abs=0.0)

    def test_per_interval_integrands(self):
        # interval k integrates u^k
        got = checked_cells(lambda u, k: u**k, [0.0, 0.0, 1.0], [1.0, 2.0, 2.0])
        assert got == pytest.approx([1.0, 2.0, 7.0 / 3.0], rel=1e-15, abs=0.0)

    def test_the_cert_m1_family_takes_one_pass(self, monkeypatch):
        passes = []
        real = hypotheses.checked_cells

        def counting(fn, lo, hi):
            recorded, calls = _recorded(fn)
            out = real(recorded, lo, hi)
            passes.append(len(calls) // 2)
            return out

        monkeypatch.setattr(hypotheses, "checked_cells", counting)
        n = 2048
        family = build_family(n, 1.0, 1.0, 9.0, "m1m2", seed=1)
        grid = np.arange(n + 1) / n
        for k in range(1, family.codewords.shape[0]):
            cells = family.profile(k).cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,),
                                                     bump_only=True)
            assert np.count_nonzero(cells)
        total = family.codewords.shape[0]
        for i in range(total):
            for j in range(i + 1, total):
                assert hypotheses.l2_separation(family, i, j) > 0.0
        for alpha in (0.6, 1.0, 1.5, 2.0):
            kernel = hypotheses.bump_kernel(alpha)
            # a new kernel, so its cached norm is computed here
            assert hypotheses.BumpKernel(kernel.alpha, kernel.a).l2_norm_sq > 0.0
        assert passes and set(passes) == {1}

    def test_bisected_bump_edge_cells_match_mpmath(self, monkeypatch):
        # demo 05's m1 family at n = 256: cells such as [0.25, 0.2539], a
        # bump's edge to the next grid point, miss the two-order check
        bisected = []
        real = hypotheses.checked_cells

        def recording(fn, lo, hi):
            recorded, calls = _recorded(fn)
            out = real(recorded, lo, hi)
            for i in np.unique(np.concatenate([np.empty(0, int)] + calls[2:])):
                bisected.append((lo[i], hi[i], out[i]))
            return out

        monkeypatch.setattr(hypotheses, "checked_cells", recording)
        n = 256
        family = build_family(n, 1.0, 1.0, 9.0, "m1m2", seed=7)
        grid = np.arange(n + 1) / n
        for k in range(1, family.codewords.shape[0]):
            family.profile(k).cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,),
                                             bump_only=True)
        assert len(bisected) >= 2
        with mpmath.workdps(40):
            scale = mpmath.mpf(family.amplitude) * mpmath.mpf(family.kernel.a)
            h = mpmath.mpf(family.h)
            for a, b, got in bisected:
                c = mpmath.mpf(family.centers[np.argmin(np.abs(family.centers - (a + b) / 2))])

                def bump(u, c=c):
                    w = 1 - 4 * ((u - c) / h) ** 2
                    return scale * mpmath.exp(-1 / w) if w > 0 else mpmath.mpf(0)

                want = float(mpmath.quad(bump, [mpmath.mpf(a), mpmath.mpf(b)]))
                assert got == pytest.approx(want, rel=1e-14, abs=0.0), (a, b)

    def test_thread_pool_gives_the_serial_values(self):
        profile = build_family(256, 1.0, 1.0, 9.0, "m1m2", seed=2).profile(3)
        grid = np.arange(257) / 256
        serial = [profile.cell_integrals(grid[k], grid[k + 1], grid[k], SQ)[0]
                  for k in range(256)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda k: profile.cell_integrals(grid[k], grid[k + 1], grid[k], SQ)[0],
                range(256)))
        assert threaded == serial


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
def test_kernel_l2_norm_matches_mpmath(alpha):
    kernel = hypotheses.bump_kernel(alpha)
    with mpmath.workdps(40):
        a = mpmath.mpf(kernel.a)
        want = mpmath.quad(lambda u: (a * mpmath.exp(-1 / (1 - 4 * u * u))) ** 2,
                           [-0.5, 0, 0.5])
    assert kernel.l2_norm_sq == pytest.approx(float(want), rel=1e-15, abs=0.0)
