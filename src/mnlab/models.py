"""Exact covariance matrices for the noisy volatility observation models.

Three observation schemes over the grid ``t_i = i/n`` share the form
"latent Gaussian signal plus independent N(0, tau^2) noise":

* ``m1``: the diffusion itself, ``integral_0^{t_i} sigma dW + tau eps_i``;
* ``m2``: scaled Brownian motion, ``sigma(t_i) W_{t_i} + tau eps_i``;
* ``m3``: the time-integrated diffusion plus noise.

Each model is analysed under its own differencing, ``_DIFFERENCING``
(first differences for m1/m2, second for m3), which every
:class:`ModelSpec` denotes.  Raw covariances come straight from the Ito
isometry with all weighted integrals of ``sigma^2`` answered by the
profile (closed form where the profile allows, quadrature otherwise).
Differenced covariances are assembled directly from the differenced
stochastic representation: each entry is a sum of short-interval
integrals evaluated in shifted coordinates, so entries of size O(n^-3)
keep full relative precision.  Conjugating the raw matrix with the
differencing matrix gives the same result in exact arithmetic but loses
~n^3 * eps relative accuracy to cancellation; the test-suite checks the
two routes against each other at an absolute tolerance.

Structured identities (the ``(1/n) I + tau^2 A`` form of the differenced
m1/m2 null covariance; the m3 decomposition over A, V1, A^2 + V2) are
cross-checks only, never the source of truth.  Note the known corner
quirk: the m3 reference decomposition disagrees with the exact covariance
at entry (1, 1) by exactly ``1/(6 n^3)`` in the signal part; consumers
compare away from that corner and report the discrepancy.

The differenced m1 and m3 covariances are banded (tridiagonal and
pentadiagonal), and so is m2's under constant volatility, where it is
m1's law ``(sigma^2/n) I + tau^2 A`` and built as m1's:
:func:`differenced_bands` builds them in band storage, and
:func:`cov_differenced` returns the same entries densely.  A bump
alternative differs from its unit-volatility null only on the cells its
bumps touch; :func:`bump_difference` returns that difference as a
support ``S`` of index runs and a block ``B`` (``alt - null = W B W^T``,
see :func:`~mnlab.kl.compare`; for m2 and m3 a builder that writes ``B``
into the comparison's own work matrix), never by subtracting two n x n
matrices: for m1 the diagonal of ``B`` as a vector, from the bump part
``sigma^2 - 1``, for m2 in closed form from ``sigma(t_i)`` on the moved
rows, with one run for each stretch of unmoved rows between them, and
for m3 from the null's bands, which the caller builds once per spec.

Every builder returns a bit-exactly symmetric float64 array.  Most are
sums of terms whose ``(i, j)`` and ``(j, i)`` entries come from the same
operations on the same operands, so they are symmetric as computed and
are returned without a copy.  :func:`~mnlab.linalg.sym` is applied only
where the arithmetic can break symmetry or leave a ``-0.0``: the
first-difference conjugation of the m2 signal.  Consumers validate
symmetry but never restore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Banded, mirror_lower, sym
from .profiles import PiecewiseConstantProfile, VolatilityProfile
from .structures import matrix_a, matrix_v1

__all__ = [
    "ModelSpec",
    "cov_raw",
    "diff_matrix",
    "cov_differenced",
    "differenced_bands",
    "bump_difference",
    "extract_v2",
    "second_diff_noise_gram",
    "model3_reference_decomposition",
]

# each model's differencing, under which its unit-volatility null is banded
_DIFFERENCING = {"m1": "first", "m2": "first", "m3": "second"}

# the largest noise level: the exact KL squares covariance entries of order
# tau^2, and tau^4 must stay far inside the float range
_TAU_MAX = 1e50


@dataclass(frozen=True)
class ModelSpec:
    """Which observation model, at which size and noise level, under the
    model's own differencing (``differencing`` may name it, not change it)."""

    model: str
    n: int
    tau: float
    differencing: str | None = None

    def __post_init__(self):
        if self.model not in _DIFFERENCING:
            raise ValueError(f"model must be one of {tuple(_DIFFERENCING)}, "
                             f"got {self.model!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.tau <= _TAU_MAX:
            raise ValueError(f"tau must lie in [0, {_TAU_MAX:g}]")
        own = _DIFFERENCING[self.model]
        if self.differencing not in (None, own):
            raise ValueError(f"model {self.model} takes differencing '{own}'")
        object.__setattr__(self, "differencing", own)
        if self.n < 2:
            raise ValueError("differencing needs n >= 2")


def _probe_profile(profile: VolatilityProfile, n: int) -> None:
    grid = np.concatenate([np.arange(1, n + 1) / n, (np.arange(n) + 0.5) / n])
    values = np.asarray(profile.eval(grid), dtype=float)
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("profile must be strictly positive and finite")


def _cumulative_moments(profile: VolatilityProfile, n: int, powers) -> dict:
    """``integral_0^{k/n} u^p sigma^2 du`` for k = 0..n, per requested power.

    One :meth:`~mnlab.profiles.VolatilityProfile.cell_integrals` query per
    power.  Closed-form profiles integrate ``[0, k/n]`` directly (exact);
    anything else integrates the cells ``[(k-1)/n, k/n]`` and accumulates,
    which keeps each quadrature on a short interval.
    """
    grid = np.arange(n + 1) / n
    lo = 0.0 if profile.kind in ("constant", "piecewise") else grid[:-1]
    out = {}
    for p in powers:
        cells = profile.cell_integrals(lo, grid[1:], 0.0, [0.0] * p + [1.0])
        out[p] = np.concatenate(([0.0], cells if np.ndim(lo) == 0 else np.cumsum(cells)))
    return out


def _m2_signal(profile: VolatilityProfile, n: int) -> np.ndarray:
    """Raw m2 signal covariance ``sigma(t_i) sigma(t_j) min(t_i, t_j)``."""
    t = np.arange(1, n + 1) / n
    s = np.sqrt(np.asarray(profile.eval(t), dtype=float))
    idx = np.arange(n)
    return np.outer(s, s) * ((np.minimum.outer(idx, idx) + 1) / n)


def cov_raw(spec: ModelSpec, profile: VolatilityProfile) -> np.ndarray:
    """Covariance of the raw (undifferenced) observation vector; conjugated
    by :func:`diff_matrix`, it is :func:`cov_differenced`."""
    _probe_profile(profile, spec.n)
    n, tau = spec.n, spec.tau
    noise = tau * tau * np.eye(n)
    idx = np.arange(n)
    min_idx = np.minimum.outer(idx, idx) + 1  # min(i, j), 1-based
    t = np.arange(1, n + 1) / n

    if spec.model == "m1":
        mom = _cumulative_moments(profile, n, (0,))
        return mom[0][min_idx] + noise

    if spec.model == "m2":
        return _m2_signal(profile, n) + noise

    mom = _cumulative_moments(profile, n, (0, 1, 2))
    signal = (
        np.outer(t, t) * mom[0][min_idx]
        - np.add.outer(t, t) * mom[1][min_idx]
        + mom[2][min_idx]
    )
    return signal + noise


def diff_matrix(spec: ModelSpec) -> np.ndarray:
    """The model's differencing transform ``D`` as a dense invertible matrix.

    First differences (m1, m2): row i is ``e_i - e_{i-1}`` (row 1 is ``e_1``).
    Second differences (m3): row 1 is ``sqrt(2) e_1``, row 2 encodes
    ``y_2 - 2 y_1`` and row i >= 3 encodes ``y_i - 2 y_{i-1} + y_{i-2}``.
    """
    n = spec.n
    if spec.model != "m3":
        return np.eye(n) - np.eye(n, k=-1)
    d = np.eye(n) - 2.0 * np.eye(n, k=-1) + np.eye(n, k=-2)
    d[0, 0] = math.sqrt(2.0)
    d[1, 0] = -2.0
    return d


def _conjugate_first(m: np.ndarray) -> np.ndarray:
    r = m.copy()
    r[1:] -= m[:-1]
    out = r.T.copy()
    out[1:] -= r.T[:-1]
    # rows and columns are differenced in opposite orders across the diagonal
    return sym(out.T)


def _second_diff_gram_bands(n: int) -> np.ndarray:
    """Lower band storage of ``D2 @ D2.T`` (pentadiagonal), closed-form values."""
    rt2 = math.sqrt(2.0)
    g = np.zeros((3, n))
    g[0] = 6.0
    g[0, :2] = (2.0, 5.0)[:n]
    g[1, :n - 1] = -4.0
    g[2, :n - 2] = 1.0
    if n >= 2:
        g[1, 0] = -2.0 * rt2
    if n >= 3:
        g[2, 0] = rt2
    return g


def second_diff_noise_gram(n: int) -> np.ndarray:
    """Gram matrix ``D2 @ D2.T`` of the second-difference transform.

    Pentadiagonal; equals ``A^2 + V2`` in the m3 covariance decomposition.
    Built from closed-form band values, no matrix product.
    """
    return Banded(_second_diff_gram_bands(n)).dense()


def _a_bands(n: int) -> np.ndarray:
    """Lower band storage of :func:`~mnlab.structures.matrix_a`."""
    a = np.zeros((2, n))
    a[0] = 2.0
    a[0, 0] = 1.0
    a[1, :n - 1] = -1.0
    return a


def _m1_signal(profile: VolatilityProfile, n: int):
    """Diagonal of the first-differenced m1 signal: one integral per cell."""
    grid = np.arange(n + 1) / n
    return profile.cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,))


def _m3_signal(profile: VolatilityProfile, n: int):
    """Diagonal and first off-diagonal of the second-differenced m3 signal."""
    # cell i = [(i-1)/n, i/n]: the diagonal adds (u - i/n)^2 on cell i to
    # (u - (i-1)/n)^2 on cell i-1 (twice cell 1); cross is on cell i
    grid = np.arange(n + 1) / n
    sq = (0.0, 0.0, 1.0)
    lo, hi = grid[:-1], grid[1:]
    diag = profile.cell_integrals(lo, hi, hi, sq)
    diag[1:] += profile.cell_integrals(lo[:-1], hi[:-1], lo[:-1], sq)
    diag[0] *= 2.0
    cross = profile.cell_integrals(lo, hi, lo, (0.0, 1.0 / n, -1.0))
    off = cross[:-1].copy()
    off[0] = math.sqrt(2.0) * cross[0]
    return diag, off


def _constant(profile: VolatilityProfile) -> bool:
    """Whether ``profile`` is constant: a step profile of one piece, which
    :class:`~mnlab.profiles.ConstantProfile` is."""
    return isinstance(profile, PiecewiseConstantProfile) and len(profile.values) == 1


def differenced_bands(spec: ModelSpec, profile: VolatilityProfile) -> Banded:
    """Differenced m1 (tridiagonal) or m3 (pentadiagonal) covariance, banded.

    Signal plus ``tau^2`` times the noise Gram matrix; :func:`cov_differenced`
    returns this matrix's :meth:`~mnlab.linalg.Banded.dense`.  m2 takes only
    a constant profile and gets m1's bands, bit for bit; at ``sigma^2 = 1``
    they are also the bits of the conjugated raw m2 matrix.
    """
    n, tau = spec.n, spec.tau
    if spec.model == "m2" and not _constant(profile):
        raise ValueError("the differenced m2 covariance is banded only "
                         "under constant volatility")
    _probe_profile(profile, n)
    if spec.model == "m3":
        noise, signal = _second_diff_gram_bands(n), _m3_signal(profile, n)
    else:
        # under constant volatility m2 differences to m1's law
        noise, signal = _a_bands(n), [_m1_signal(profile, n)]
    bands = np.zeros_like(noise)
    for d, values in enumerate(signal):
        bands[d, :values.size] = values
    # the dense sum adds a zero signal entry to every noise entry
    return Banded(bands + tau * tau * noise)


def _m2_bump_difference(profile, n: int):
    """Runs and block builder of the differenced m2 alternative minus its
    unit null.

    With ``s_i = sigma(t_i)``, first differences ``D`` and ``L = D^-1``
    the lower matrix of ones, the differenced covariance is ``T T^T / n
    + tau^2 A`` for ``T = D diag(s) L``, so the difference is ``(T T^T -
    I) / n``.  With ``delta_i = s_i - s_{i-1}`` (0-based; ``delta_0`` is
    multiplied by 0) its lower triangle is ``delta_i (j delta_j + s_j) /
    n`` and its diagonal ``(i delta_i^2 + s_i^2 - 1) / n``.  A row with
    ``s_i = 1`` and ``delta_i = 0`` does not move: its column is
    ``delta_l / n`` below it and 0 elsewhere, the same for a whole stretch
    of such rows, which takes one run with basis column ``1 / sqrt(len)``
    (its entries of ``B`` are scaled by ``sqrt(len)``).  Unmoved rows after
    the last moved row have a zero column and are left out.

    Everything small comes from the bump part ``b_i = s_i^2 - 1``, which
    is exact for ``s_i^2`` within a factor 2 of 1: ``s_i - 1 = b_i / (1 +
    s_i)``, ``delta_i`` is the difference of those, and the diagonal uses
    ``b_i`` for ``s_i^2 - 1``, so no entry is the cancellation of two
    rounded numbers near 1.

    Only ``d``, ``u`` and the diagonal, O(k), are kept; the builder writes
    the ``k x k`` block into the array :func:`~mnlab.kl.compare` hands it.
    """
    _probe_profile(profile, n)
    sigma_sq = np.asarray(profile.eval(np.arange(1, n + 1) / n), dtype=float)
    b = sigma_sq - 1.0
    s = np.sqrt(sigma_sq)
    delta = np.diff(b / (1.0 + s), prepend=0.0)
    moved = np.flatnonzero((b != 0.0) | (delta != 0.0))
    # run boundaries: every moved row alone, and the stretches between them,
    # sorted with repeats dropped
    edges = np.sort(np.concatenate(([0], moved, moved + 1)))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    start = edges[:-1]
    length = np.diff(edges)
    d = delta[start]
    u = np.sqrt(length) * (start * d + s[start])
    diagonal = (start * d * d + b[start]) / n

    def build(out: np.ndarray) -> None:
        # np.outer(d, u) row by row into out (a broadcast product takes a
        # buffer of its own), its strict lower triangle then mirrored
        for row, d_i in zip(out, d):
            np.multiply(d_i, u, out=row)
        out /= n
        mirror_lower(out)
        np.fill_diagonal(out, diagonal)

    return np.column_stack((start, edges[1:])), build


def bump_difference(spec: ModelSpec, profile, null: Banded):
    """Differenced covariance of a bump alternative minus the unit null.

    ``profile`` is a :class:`~mnlab.hypotheses.BumpSumProfile` (base level
    1; m1 raises ``ValueError`` for any other profile) and ``null`` its
    ``sigma^2 = 1`` counterpart at the same ``spec`` from
    :func:`differenced_bands`, built once per spec by the caller; the
    noise parts cancel.  Returns ``(S, B)`` with
    ``alt - null = W B W^T``: for m1 and m3, ``S`` holds the sorted
    indices of the rows where the two covariances differ and ``B`` is the
    block of the difference on them.  For m2 and m3 ``B`` is a builder,
    which :func:`~mnlab.kl.compare` has write the block into its own work
    matrix, so no ``k x k`` array is held here;
    :func:`~mnlab.kl.block_array` builds it as an array.

    * m1: ``B`` is diagonal and returned as the vector ``b`` of its
      diagonal, the per-cell integrals of the bump part ``sigma^2 - 1``;
      :func:`~mnlab.kl.compare` reads it as ``diag(b)`` and, as bumps
      that raise ``sigma^2`` make every ``b > 0``, takes its tridiagonal
      route, so no ``k x k`` array is built;
    * m3: ``B`` is tridiagonal, the alternative's bands minus ``null``,
      noise part included.  Their entries lie within a factor 2 of each
      other, so the subtraction is exact and ``B`` is the difference of
      the laws as stored; it carries their rounding, up to ``eps tau^2``
      per entry;
    * m2: ``S`` is a ``k x 2`` array of half-open runs (see
      :func:`~mnlab.kl.compare`): one per moved row, and one per stretch
      of unmoved rows before the last moved row, whose columns of the
      difference are identical; ``B`` is built in closed form from
      ``sigma(t_i)`` (see :func:`_m2_bump_difference`).
    """
    n = spec.n
    if null.size != n:
        raise ValueError(f"null of size {null.size} for n = {n}")
    if spec.model == "m2":
        return _m2_bump_difference(profile, n)
    if spec.model == "m1":
        if profile.kind != "bump":
            raise ValueError(f"a {profile.kind} profile has no bump part")
        grid = np.arange(n + 1) / n
        diag = profile.cell_integrals(grid[:-1], grid[1:], 0.0, (1.0,), bump_only=True)
        support = np.flatnonzero(diag)
        return support, diag[support]
    diff = differenced_bands(spec, profile).bands - null.bands
    diag, off = diff[0], diff[1, :-1]
    touched = diag != 0.0
    touched[:-1] |= off != 0.0
    touched[1:] |= off != 0.0
    support = np.flatnonzero(touched)
    diagonal = diag[support]
    # neighbours in S that are neighbours on the grid share an off-diagonal
    pos = np.flatnonzero(np.diff(support) == 1)
    neighbours = off[support[pos]]

    def build(out: np.ndarray) -> None:
        out.fill(0.0)
        np.fill_diagonal(out, diagonal)
        out[pos, pos + 1] = out[pos + 1, pos] = neighbours

    return support, build


def cov_differenced(spec: ModelSpec, profile: VolatilityProfile) -> np.ndarray:
    """Covariance of the differenced observations ``D @ Y``.

    Mathematically equal to ``D @ cov_raw @ D.T``; computed from the
    differenced representation so small entries keep relative precision
    (see module docstring).  Dense :func:`differenced_bands`, except m2
    under a non-constant profile: the conjugated raw signal, the oracle of
    :func:`bump_difference`'s m2 block.
    """
    if spec.model != "m2" or _constant(profile):
        return differenced_bands(spec, profile).dense()
    _probe_profile(profile, spec.n)
    n, tau = spec.n, spec.tau
    return _conjugate_first(_m2_signal(profile, n)) + tau * tau * matrix_a(n)


def extract_v2(n: int, tau: float) -> np.ndarray:
    """Noise-Gram residual ``D2 @ D2.T - A^2``.

    Nonzero only in the leading 3x3 block and at (n, n), where it is
    exactly +1: the Gram's last diagonal entry is 6, that of ``A^2`` is 5.
    The residual has no noise level, so ``tau`` is unused.
    """
    if n < 4:
        raise ValueError("extract_v2 needs n >= 4")
    a = matrix_a(n)
    return sym(second_diff_noise_gram(n) - a @ a)


def model3_reference_decomposition(n: int, tau: float) -> np.ndarray:
    """Structured form of the differenced m3 null covariance.

    ``(1/n^3) I - A/(6 n^3) + (sqrt(2)-1)/(6 n^3) V1 + tau^2 (A^2 + V2)``.
    Used as a cross-check only: its (1, 1) signal entry is ``5/(6 n^3)``
    whereas the exact covariance gives ``4/(6 n^3)``; compare entries with
    i, j >= 2 and surface the corner discrepancy explicitly.
    """
    a = matrix_a(n)
    n3 = float(n) ** 3
    return (
        np.eye(n) / n3
        - a / (6.0 * n3)
        + (math.sqrt(2.0) - 1.0) / (6.0 * n3) * matrix_v1(n)
        + tau * tau * second_diff_noise_gram(n)
    )
