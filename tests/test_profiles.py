import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mnlab
from mnlab import hypotheses, profiles
from mnlab.errors import QuadratureFailure
from mnlab.hypotheses import build_family, single_bump_profile
from mnlab.profiles import (
    CallableProfile,
    ConstantProfile,
    PiecewiseConstantProfile,
    checked_cells,
    checked_integral,
)

SRC = Path(mnlab.__file__).parent
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
    CallableProfile(lambda t: 1.0 + 0.5 * np.sin(3.0 * np.asarray(t)),
                    lower=0.5, upper=1.5),
)


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
        loop = np.array([profile.poly_integral(a, b, s, coeffs)
                         for a, b, s in zip(lo, hi, shift)])
        got = profile.cell_integrals(np.array(lo), np.array(hi), np.array(shift),
                                     coeffs)
        assert got.tobytes() == loop.tobytes()
    # scalars broadcast against the grid arrays
    got = profile.cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,))
    assert got.tobytes() == profile.cell_integrals(
        grid[:-1], grid[1:], np.zeros(n), (1.0,)).tobytes()


def test_piecewise_outer_pieces_extend_beyond_the_unit_interval():
    prof = PiecewiseConstantProfile([0.5], [2.0, 3.0])
    assert prof.poly_integral(-0.25, 1.5, 0.0, (1.0,)) == pytest.approx(
        2.0 * 0.75 + 3.0 * 1.0, rel=1e-15)
    assert prof.poly_integral(0.75, 0.25, 0.0, (1.0,)) == 0.0


def test_scipy_integrate_lives_only_in_profiles():
    pattern = re.compile(r"scipy\.integrate|from scipy import .*\bintegrate\b")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name != "profiles.py":
            assert not pattern.search(text), path.name
            assert not re.search(r"(?<![\w.])quad\(", text), path.name
        assert "catch_warnings" not in text, path.name
    assert len(re.findall(r"(?<![\w.])quad\(", (SRC / "profiles.py").read_text())) == 1


class TestCheckedIntegral:
    def test_failure_raises_without_touching_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="subdivisions"):
                checked_integral(lambda u: np.sin(3.7e6 * u), 0.0, 1.0)

    def test_error_estimate_is_checked(self, monkeypatch):
        # no message from QUADPACK, but an error estimate over the tolerance
        monkeypatch.setattr(profiles, "quad", lambda *a, **k: (1.0, 2e-12, {}))
        with pytest.raises(QuadratureFailure, match="tolerance missed"):
            checked_integral(lambda u: u, 0.0, 1.0)
        monkeypatch.setattr(profiles, "quad", lambda *a, **k: (1.0, 1e-12, {}))
        assert checked_integral(lambda u: u, 0.0, 1.0) == 1.0

    def test_passes_interior_breakpoints_and_one_tolerance_set(self, monkeypatch):
        seen = {}

        def fake_quad(fn, a, b, **kwargs):
            seen.update(kwargs)
            return 0.5, 0.0, {}

        monkeypatch.setattr(profiles, "quad", fake_quad)
        checked_integral(lambda u: u, 0.25, 0.75, breakpoints=(0.1, 0.25, 0.5, 0.75, 0.9))
        assert seen == {"full_output": 1, "points": [0.5], "epsabs": 1e-15,
                        "epsrel": 1e-12, "limit": 200}
        checked_integral(lambda u: u, 0.25, 0.75, breakpoints=(0.1, 0.9))
        assert seen["points"] is None

    def test_empty_interval_is_zero(self):
        assert checked_integral(lambda u: 1.0, 0.5, 0.5) == 0.0
        assert checked_integral(lambda u: 1.0, 0.5, 0.25) == 0.0

    def test_thread_pool_gives_the_serial_values(self):
        profile = build_family(256, 1.0, 1.0, 9.0, "m1m2", seed=2).profile(3)
        grid = np.arange(257) / 256
        serial = [profile.poly_integral(grid[k], grid[k + 1], grid[k], SQ)
                  for k in range(256)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda k: profile.poly_integral(grid[k], grid[k + 1], grid[k], SQ),
                range(256)))
        assert threaded == serial


def _bump_cell_oracle(profile, lo, hi, shift, power, bump_only):
    """Per-cell ``checked_integral`` of ``(u - shift)^power`` times the bump
    part, or times ``sigma^2``, of a one-bump profile, in ``v = u - shift``
    with scalar math."""
    c, h = float(profile.centers[0]), profile.h
    scale = profile.amplitude * profile.kernel.a
    out = []
    for a, b, s in zip(lo.tolist(), hi.tolist(), shift.tolist()):
        def integrand(v, s=s):
            x = (v + (s - c)) / h
            w = 1.0 - 4.0 * x * x
            bump = scale * math.exp(-1.0 / w) if w > 1e-12 else 0.0
            return v**power * (bump if bump_only else 1.0 + bump)

        edges = (c - h / 2.0 - s, c + h / 2.0 - s)
        out.append(checked_integral(integrand, a - s, b - s, edges))
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


class TestCheckedCells:
    def test_a_kink_falls_back_to_quadpack(self, monkeypatch):
        fallbacks = []

        def recording(fn, a, b, *rest):
            fallbacks.append((a, b))
            return checked_integral(fn, a, b, *rest)

        monkeypatch.setattr(profiles, "checked_integral", recording)
        # |u - 0.3| has a kink inside [0, 1]; on [0.5, 1] it is linear
        got = checked_cells(lambda u, k: np.abs(u - 0.3), [0.0, 0.5], [1.0, 1.0])
        assert fallbacks == [(0.0, 1.0)]
        assert got[0] == checked_integral(lambda u: abs(u - 0.3), 0.0, 1.0)
        assert got[1] == pytest.approx(0.225, rel=1e-15, abs=0.0)

    def test_fallback_failure_raises(self):
        with pytest.raises(QuadratureFailure, match="subdivisions"):
            checked_cells(lambda u, k: np.sin(3.7e6 * u), 0.0, 1.0)

    def test_empty_and_reversed_intervals_are_zero(self):
        got = checked_cells(lambda u, k: 1.0 + u, [0.5, 0.5, 0.0], [0.5, 0.25, 1.0])
        assert got[:2].tolist() == [0.0, 0.0]
        assert got[2] == pytest.approx(1.5, rel=1e-15, abs=0.0)

    def test_per_interval_integrands(self):
        # interval k integrates u^k
        got = checked_cells(lambda u, k: u**k, [0.0, 0.0, 1.0], [1.0, 2.0, 2.0])
        assert got == pytest.approx([1.0, 2.0, 7.0 / 3.0], rel=1e-15, abs=0.0)

    def test_the_cert_m1_family_needs_no_quadpack(self, monkeypatch):
        def no_quadpack(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(profiles, "quad", no_quadpack)
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
            assert hypotheses.bump_kernel(alpha).l2_norm_sq > 0.0


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
def test_kernel_l2_norm_matches_mpmath(alpha):
    kernel = hypotheses.bump_kernel(alpha)
    with mpmath.workdps(40):
        a = mpmath.mpf(kernel.a)
        want = mpmath.quad(lambda u: (a * mpmath.exp(-1 / (1 - 4 * u * u))) ** 2,
                           [-0.5, 0, 0.5])
    assert kernel.l2_norm_sq == pytest.approx(float(want), rel=1e-15, abs=0.0)
