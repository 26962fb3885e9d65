"""Bump-kernel hypothesis families for minimax lower-bound experiments.

The alternatives are squared-volatility functions

    sigma_omega^2(t) = 1 + sum_k omega_k * phi_k(t),
    phi_k(t) = L * h^alpha * K((t - t_k) / h),

built from a smooth compactly supported bump ``K`` scaled so that it lies
in the Hoelder ball of radius 1/2, placed on ``m`` disjoint intervals of
width ``h = 1/(2m)`` inside [1/4, 3/4].  Binary words ``omega`` are drawn
from a code with pairwise Hamming distance at least m/8 and at least
2^(m/8) alternatives (the classical counting guarantee; this module
*constructs* such a code greedily, of at most 2^13 + 1 words (m <= 104),
and the search keeps the smallest distance it computes when it accepts a
word, so the code's minimum distance comes from the search itself).
Disjoint supports give the exact separation identity

    integral (sigma_omega^2 - sigma_omega'^2)^2
        = L^2 h^(2 alpha + 1) ||K||_2^2 * hamming(omega, omega'),

so the minimum separation is the code's minimum distance times
:func:`separation_closed_form`.

Hoelder convention: membership in C(alpha, L) constrains the derivative of
order ``p = ceil(alpha) - 1`` with exponent ``alpha - p``, so C(1, L) is
the Lipschitz class.  By the disjoint-bump lemma every alternative is in
C(alpha, L), at least 1 and at most ``1 + L h^alpha max K``, once ``K`` is
in the ball of radius 1/2 (see :func:`kernel_constant`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConstructionFailure,
    IndexOutOfRange,
    TooFewBumps,
    UnsupportedAlpha,
)
from .profiles import (VolatilityProfile, _cells, _closed_form_cells,
                       _shifted_poly, checked_cells)

__all__ = [
    "BumpKernel",
    "bump_kernel",
    "kernel_constant",
    "holder_exponent_order",
    "holder_check",
    "vg_code",
    "hamming",
    "HypothesisFamily",
    "build_family",
    "BumpSumProfile",
    "single_bump_profile",
    "l2_separation",
    "separation_closed_form",
]

ALPHA_MIN, ALPHA_MAX = 0.5, 2.0

# equal panels per bump support for the integrals of K^2: with 8, two
# panels miss the two-order check at alpha 0.6 and 1 and are halved
_PANELS = 16


def _bump_arg(u):
    """``w = 1 - (2u)^2`` and the mask ``w > 1e-12`` of the bump's inside.

    Far outside, where ``u * u`` overflows (a tiny bump width), ``w`` is
    ``-inf`` with no warning; inside, ``|u| < 1/2``, nothing overflows.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        w = 1.0 - 4.0 * u * u
    return w, w > 1e-12


def _bump_raw(u):
    """Unnormalised bump ``exp(-1 / (1 - (2u)^2))`` on |2u| < 1, else 0."""
    w, inside = _bump_arg(u)
    out = np.zeros(w.shape)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / w[inside])
    return out


def _bump_raw_d1(u):
    """First derivative of the unnormalised bump."""
    u = np.asarray(u, dtype=float)
    w, inside = _bump_arg(u)
    out = np.zeros(u.shape)
    ui, wi = u[inside], w[inside]
    out[inside] = -8.0 * ui / wi**2 * np.exp(-1.0 / wi)
    return out


def holder_exponent_order(alpha: float) -> int:
    """Derivative order ``p`` constrained by C(alpha, L): ``ceil(alpha) - 1``."""
    if alpha <= 0.0:
        raise UnsupportedAlpha("alpha must be positive")
    return max(int(math.ceil(alpha)) - 1, 0)


# points per block of the pruned pair search
_PAIR_BLOCK = 32


def _pair_ratios(dv: np.ndarray, dx: np.ndarray, beta: float) -> np.ndarray:
    """``|dv| / |dx|^beta`` elementwise, the three operations of every pair."""
    return np.abs(dv) / np.abs(dx) ** beta


def _pair_seminorm(values: np.ndarray, xs: np.ndarray, beta: float) -> float:
    """max over grid pairs of |f(x) - f(y)| / |x - y|^beta, exactly.

    Sorts the grid by ``xs`` and evaluates every pair fewer than
    ``2 * _PAIR_BLOCK`` positions apart, one diagonal at a time.  Pairs
    further apart lie in blocks of ``_PAIR_BLOCK`` points at least two
    blocks apart; those block pairs are visited in descending order of the
    bound ``(max - min over both blocks) / gap^beta * (1 + 1e-12)``, ``gap``
    the distance between the blocks' nearest points, until the bound falls
    below the running maximum.  The margin covers the rounding of
    ``pow``; every evaluated pair takes the same three operations as an
    all-pairs scan, so the result is its maximum bit for bit.  A
    non-finite value or point, or a repeated point, turns the pruning off
    and every diagonal is scanned, so a NaN gives NaN.  Each temporary
    holds one diagonal or one block pair.
    """
    order = np.argsort(xs, kind="stable")
    x, v = xs[order], values[order]
    size = x.size
    # finite spreads of distinct points bound every pair's ratio
    prune = bool(np.all(np.diff(x) > 0.0)
                 and np.isfinite([x[-1] - x[0], v.max() - v.min()]).all())
    near = 2 * _PAIR_BLOCK if prune else size
    best = float(np.max([np.max(_pair_ratios(v[:-d] - v[d:], x[:-d] - x[d:], beta))
                         for d in range(1, min(near, size))]))
    if not prune:
        return best
    starts = np.arange(0, size, _PAIR_BLOCK)
    top = np.maximum.reduceat(v, starts)
    bottom = np.minimum.reduceat(v, starts)
    # block pairs (a, c), c >= a + 2, so block a is full
    a, c = np.triu_indices(starts.size, k=2)
    gap = x[starts[c]] - x[starts[a] + _PAIR_BLOCK - 1]
    bound = (np.maximum(top[a], top[c]) - np.minimum(bottom[a], bottom[c])) \
        / gap ** beta * (1.0 + 1e-12)
    for pair in np.argsort(-bound, kind="stable"):
        if bound[pair] < best:
            break
        rows = slice(starts[a[pair]], starts[a[pair]] + _PAIR_BLOCK)
        cols = slice(starts[c[pair]], starts[c[pair]] + _PAIR_BLOCK)
        best = max(best, float(np.max(_pair_ratios(v[rows, None] - v[cols],
                                                   x[rows, None] - x[cols], beta))))
    return best


@lru_cache(maxsize=None)
def kernel_constant(alpha: float) -> float:
    """Normalisation ``a`` placing the bump in the Hoelder ball of radius 1/2.

    ``a = 0.99 * (1/2) / S`` with ``S`` the grid-estimated seminorm of the
    unnormalised bump at order ``p = ceil(alpha) - 1`` (derivatives are
    analytic).  For alpha in {0.6, 0.8, 1, 1.2, 1.5, 2} the tests prove
    ``a`` times a rigorous bound on the true seminorm at most 1/2 (interval
    enclosures of the next derivative, and a fine grid for exponents below
    1); other alphas rest on the 0.99 margin over off-grid excursions.
    """
    if not ALPHA_MIN < alpha <= ALPHA_MAX:
        raise UnsupportedAlpha(
            f"alpha must lie in ({ALPHA_MIN}, {ALPHA_MAX}], got {alpha}"
        )
    p = holder_exponent_order(alpha)
    xs = np.linspace(-0.55, 0.55, 1601)
    values = _bump_raw(xs) if p == 0 else _bump_raw_d1(xs)
    s = _pair_seminorm(values, xs, alpha - p)
    return 0.99 * 0.5 / s


@dataclass(frozen=True)
class BumpKernel:
    """Normalised bump ``K(u) = a * exp(-1/(1-(2u)^2))`` supported on [-1/2, 1/2]."""

    alpha: float
    a: float

    def eval(self, u):
        return self.a * _bump_raw(u)

    def deriv1(self, u):
        return self.a * _bump_raw_d1(u)

    @property
    def sup_value(self) -> float:
        """``max K = K(0) = a / e``."""
        return self.a / math.e

    @cached_property
    def l2_norm_sq(self) -> float:
        """``integral_{-1/2}^{1/2} K(u)^2 du`` by :func:`checked_cells` on 16 panels."""
        edges = np.linspace(-0.5, 0.5, _PANELS + 1)
        return float(checked_cells(lambda u, k: self.eval(u) ** 2,
                                   edges[:-1], edges[1:]).sum())


def bump_kernel(alpha: float) -> BumpKernel:
    """Kernel with the normalisation computed for this smoothness index."""
    return BumpKernel(alpha=float(alpha), a=kernel_constant(float(alpha)))


def holder_check(f, alpha: float, l_const: float, grid_size: int = 800,
                 deriv=None) -> bool:
    """Grid test of membership in C(alpha, l_const) on [0, 1].

    Calls ``f`` (or, for ``p = ceil(alpha) - 1 = 1``, its analytic
    derivative ``deriv``) once on an equispaced grid, broadcasting a scalar
    return, and requires the pairwise seminorm of the order-``p``
    derivative to stay below ``l_const * (1 + 1e-6)``.  There are no
    finite differences: ``p = 1`` without ``deriv`` and ``p >= 2`` raise
    :class:`UnsupportedAlpha`.  A grid check is necessary, not
    sufficient.  A grid of fewer than 2 points, which holds no pair,
    raises ``ValueError``; a NaN on the grid gives a NaN seminorm, so
    ``False``.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    p = holder_exponent_order(alpha)
    if p >= 2 or (p == 1 and deriv is None):
        raise UnsupportedAlpha(f"alpha = {alpha} needs p <= 1 and, for p = 1, deriv=")
    xs = np.linspace(0.0, 1.0, grid_size)
    values = np.asarray((f if p == 0 else deriv)(xs), dtype=float)
    return _pair_seminorm(np.broadcast_to(values, xs.shape), xs,
                          alpha - p) <= l_const * (1.0 + 1e-6)


def hamming(w1, w2) -> int:
    """Hamming distance between two binary vectors."""
    return int(np.sum(np.asarray(w1) != np.asarray(w2)))


_MAX_WORDS = 2**13 + 1  # the largest code the search builds: m <= 104


def vg_code(m: int, seed: int = 0) -> np.ndarray:
    """Binary code with first word all-zeros, distance >= m/8, count >= 2^(m/8).

    Greedy in integer order for m <= 24, seeded random greedy beyond; the
    search stops once the guarantee plus one words are collected, so the
    alternatives alone meet the 2^(m/8) count, and it accepts a word only
    at distance ceil(m/8) or more from every earlier one, so the guarantee
    holds by construction.  A search that cannot collect the words within
    ``5500 * count`` random draws raises :class:`ConstructionFailure`, as
    does, before any search, a code of more than 2^13 + 1 words (m > 104).

    Returns an array of shape (count, m) with uint8 entries, all-zeros row
    first.  Deterministic given (m, seed).
    """
    return _certified_code(m, seed)[0]


def _certified_code(m: int, seed: int) -> tuple[np.ndarray, int]:
    """:func:`vg_code`'s words and their minimum distance, kept by the search."""
    if m < 8:
        raise TooFewBumps(f"the code guarantee needs m >= 8, got {m}")
    d = math.ceil(m / 8.0)
    total = int(math.ceil(2.0 ** (m / 8.0))) + 1
    if total > _MAX_WORDS:
        raise ConstructionFailure(
            f"m = {m} needs {total} codewords, over the limit {_MAX_WORDS}")
    if m <= 24:
        candidates = range(1, 1 << m)
    else:
        rng = np.random.default_rng(seed)
        candidates = (int.from_bytes(rng.bytes((m + 7) // 8), "little") & ((1 << m) - 1)
                      for _ in range(5500 * total))
    accepted, distance = [0], m
    for cand in candidates:
        if len(accepted) >= total:
            break
        nearest = min((cand ^ w).bit_count() for w in accepted)
        if nearest >= d:
            accepted.append(cand)
            distance = min(distance, nearest)
    if len(accepted) < total:
        raise ConstructionFailure(
            f"collected {len(accepted)} of {total} words within budget"
        )
    words = np.array([[(w >> k) & 1 for k in range(m)] for w in accepted], dtype=np.uint8)
    return words, distance


class BumpSumProfile(VolatilityProfile):
    """``sigma^2(t) = 1 + amplitude * sum_k weights_k K((t - centers_k)/h)``."""

    kind = "bump"

    def __init__(self, kernel: BumpKernel, centers, h: float, amplitude: float,
                 weights):
        self.kernel = kernel
        self.centers = np.asarray(centers, dtype=float)
        self.h = float(h)
        self.amplitude = float(amplitude)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != self.centers.shape:
            raise ValueError("weights and centers must align")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones(t.shape)
        for c, w in zip(self.centers, self.weights):
            if w != 0.0:
                out = out + self.amplitude * w * self.kernel.eval((t - c) / self.h)
        return float(out) if out.ndim == 0 else out

    def deriv(self, t):
        """Analytic first derivative of ``sigma^2``."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for c, w in zip(self.centers, self.weights):
            if w != 0.0:
                out = out + self.amplitude * w / self.h \
                    * self.kernel.deriv1((t - c) / self.h)
        return float(out) if out.ndim == 0 else out

    def cell_integrals(self, lo, hi, shift, coeffs, bump_only: bool = False) -> np.ndarray:
        """The base level per cell in closed form, plus each bump's share.

        Each nonzero bump adds, in bump order, one :func:`checked_cells`
        pass over the cells it touches, clipped to its support, so no
        interval crosses a bump edge.  The base level is one closed-form
        pass over the cells.  Both integrate in the shifted variable
        ``v = u - shift``, so short cells near their shift keep full
        relative precision.  An empty or reversed cell integrates to 0.
        ``bump_only`` integrates the bump part ``sigma^2 - 1`` instead,
        which is exactly zero on cells no bump touches.
        """
        lo, hi, shift = _cells(lo, hi, shift)
        if bump_only:
            total = np.zeros(lo.size)
        else:
            total = _closed_form_cells(lo, hi, shift, coeffs)
        for c, w in zip(self.centers, self.weights):
            if w == 0.0:
                continue
            a = np.maximum(lo, c - self.h / 2.0)
            b = np.minimum(hi, c + self.h / 2.0)
            cells = np.flatnonzero(b > a)
            offset = shift[cells] - c

            def integrand(v, k, w=w, offset=offset):
                return _shifted_poly(coeffs, 0.0, v) * self.amplitude * w \
                    * self.kernel.eval((v + offset[k]) / self.h)

            total[cells] += checked_cells(integrand, a[cells] - shift[cells],
                                          b[cells] - shift[cells])
        return total


def single_bump_profile(alpha: float, l_const: float, width: float,
                        center: float = 0.5) -> BumpSumProfile:
    """One bump of the canonical shape: ``1 + L width^alpha K((t-center)/width)``."""
    kernel = bump_kernel(alpha)
    return BumpSumProfile(
        kernel=kernel,
        centers=[center],
        h=width,
        amplitude=l_const * width**alpha,
        weights=[1.0],
    )


@dataclass(frozen=True)
class HypothesisFamily:
    """A grid of disjoint bumps plus the codewords selecting alternatives.

    ``codewords[0]`` is all-zeros (the null); rows 1.. are the
    alternatives, any two at least ``min_distance`` apart, the smallest
    distance the code search met.
    ``model_class`` picks the bump-count formula:
    ``m = floor(c n^(1/(4 alpha + 2)) / 2 + 1)`` for "m1m2" and exponent
    ``1/(8 alpha + 4)`` for "m3".
    """

    n: int
    alpha: float
    l_const: float
    c: float
    model_class: str
    seed: int
    m: int
    h: float
    centers: np.ndarray
    codewords: np.ndarray
    kernel: BumpKernel
    min_distance: int

    @property
    def count_alternatives(self) -> int:
        return self.codewords.shape[0] - 1

    @property
    def amplitude(self) -> float:
        return self.l_const * self.h**self.alpha

    @property
    def upper_bound(self) -> float:
        return 1.0 + self.amplitude * self.kernel.sup_value

    def profile(self, index: int) -> BumpSumProfile:
        """Profile ``sigma^2_omega`` for codeword ``index`` (0 = null)."""
        if not 0 <= index < self.codewords.shape[0]:
            raise IndexOutOfRange(
                f"codeword index {index} outside 0..{self.codewords.shape[0] - 1}"
            )
        return BumpSumProfile(
            kernel=self.kernel,
            centers=self.centers,
            h=self.h,
            amplitude=self.amplitude,
            weights=self.codewords[index].astype(float),
        )

    def descriptor(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "L": self.l_const,
            "c": self.c,
            "model_class": self.model_class,
            "seed": self.seed,
            "m": self.m,
            "h_n": self.h,
            "centers": self.centers.tolist(),
            "codewords": ["".join(str(int(b)) for b in w) for w in self.codewords],
            "a": self.kernel.a,
            "K_l2_sq": self.kernel.l2_norm_sq,
        }


def build_family(n: int, alpha: float, l_const: float, c: float,
                 model_class: str, seed: int = 0) -> HypothesisFamily:
    """Construct the bump grid and codewords for sample size ``n``.

    Raises :class:`TooFewBumps` when the bump-count formula lands below 8
    (the code guarantee starts there) and :class:`UnsupportedAlpha`
    outside (1/2, 2].
    """
    if model_class not in ("m1m2", "m3"):
        raise ValueError("model_class must be 'm1m2' or 'm3'")
    if n < 2 or c <= 0.0 or l_const <= 0.0:
        raise ValueError("need n >= 2, c > 0, L > 0")
    kernel = bump_kernel(alpha)
    exponent = 1.0 / (4.0 * alpha + 2.0) if model_class == "m1m2" \
        else 1.0 / (8.0 * alpha + 4.0)
    # absolute nudge absorbs float pow error in n**exponent before flooring
    m = int(math.floor(0.5 * c * n**exponent + 1.0 + 1e-9))
    if m < 8:
        raise TooFewBumps(
            f"bump count m = {m} < 8 for n = {n}; increase c or n"
        )
    h = 1.0 / (2.0 * m)
    k = np.arange(1, m + 1, dtype=float)
    centers = h * (k - 0.5) + 0.25
    codewords, min_distance = _certified_code(m, seed)
    return HypothesisFamily(
        n=n, alpha=float(alpha), l_const=float(l_const), c=float(c),
        model_class=model_class, seed=int(seed), m=m, h=h,
        centers=centers, codewords=codewords, kernel=kernel,
        min_distance=min_distance,
    )


def l2_separation(family: HypothesisFamily, i: int, j: int) -> float:
    """``integral_0^1 (sigma_i^2 - sigma_j^2)^2 dt`` by quadrature.

    Disjoint supports reduce the integral to the bumps where the codewords
    differ; each support is cut into 16 equal panels, all integrated by
    one :func:`checked_cells` pass.  Equals :func:`separation_closed_form`
    times the Hamming distance.
    """
    total = family.codewords.shape[0]
    for idx in (i, j):
        if not 0 <= idx < total:
            raise IndexOutOfRange(f"codeword index {idx} outside 0..{total - 1}")
    centers = family.centers[family.codewords[i] != family.codewords[j]]
    edges = centers[:, None] + family.h * np.linspace(-0.5, 0.5, _PANELS + 1)
    panel_centers = np.repeat(centers, _PANELS)

    def integrand(u, k):
        return (family.amplitude * family.kernel.eval((u - panel_centers[k]) / family.h)) ** 2

    return float(checked_cells(integrand, edges[:, :-1], edges[:, 1:]).sum())


def separation_closed_form(family: HypothesisFamily) -> float:
    """Per-unit-distance separation ``L^2 h^(2 alpha + 1) ||K||_2^2``."""
    return (
        family.l_const**2
        * family.h ** (2.0 * family.alpha + 1.0)
        * family.kernel.l2_norm_sq
    )
