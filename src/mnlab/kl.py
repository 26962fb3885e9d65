"""Kullback-Leibler divergence between equal-mean Gaussians, with bounds.

For ``X ~ N(0, sigma0)`` and ``Y ~ N(0, sigma1)`` the divergence of the
``sigma1`` law from the ``sigma0`` law is

    kl = (1/2) * (-ln det(sigma0^-1 sigma1) + tr(sigma0^-1 sigma1) - n).

When ``C * sigma0 <= sigma1`` in the Loewner order for some ``C`` in
(0, 1], the divergence is dominated by the Frobenius-norm expressions

    kl <= (1/(4C^2)) ||sigma0^-1/2 (sigma1 - sigma0) sigma0^-1/2||_F^2
       <= (1/(4C^2)) ||sigma0^-1 sigma1 - I||_F^2,

which is what makes desk-scale certification of average-divergence
conditions tractable.  Without the Loewner hypothesis a symmetrised
variant still dominates; that variant is verified empirically by the test
suite rather than certified.

One kernel, :func:`compare`, answers all of these.  The two laws differ
by ``Delta = sigma1 - sigma0 = W B W^T`` on a support of ``k`` disjoint
runs of indices: ``W`` has one orthonormal column ``1_run / sqrt(len)``
per run, so a run of one index is the unit vector ``e_i``.  A bump
alternative differs from its null only on the cells its bumps touch, and
a run of rows whose columns of ``Delta`` are identical (the unmoved rows
of a model-2 alternative) needs one column, not one per row.  With
``X = sigma0^-1 W``, ``P = W^T X = R R^T`` and the eigenvalues ``mu`` of
the ``k x k`` matrix ``R^T B R`` (those of ``sigma0^-1 Delta`` that are
not zero):

* ``kl = (1/2) sum(mu - log1p(mu))``, summed term by term, so no trace
  cancels against a log-determinant and no clamp at 0 is needed;
* the middle bound is ``||R^T B R||_F^2 / (4C^2)`` and the outer one
  ``||X B||_F^2 / (4C^2)``, so ``sigma0^-1 sigma1`` is never formed;
* the largest Loewner constant is ``min(1 + min(mu), 1)``, and ``c *
  sigma0 <= sigma1`` is read from the margin ``min(mu) + (1 - c)`` against
  the eigenvalues' rounding bound ``k eps max|mu|``, and from the sign of
  ``B`` where that bound leaves the margin unresolved.

The solve for ``X`` runs in column blocks, so no dense ``n x k`` array is
held at large ``n``.

A bump alternative of model m1 differs from its tridiagonal null by a
diagonal block ``B = diag(b)``, ``b > 0``, on one-index runs, passed as
the vector ``b``: the one vector block ``compare`` takes, by the
tridiagonal route, with no eigenvalue.  ``P`` is the inverse of the
Schur complement ``C_S`` of the null onto the support, tridiagonal and
built gap by gap in O(n).  As ``mu - log1p(mu) = int_0^1 (1 - t) mu^2 /
(1 + t mu)^2 dt``, the KL is one checked quadrature of the O(k) trace
``h(t) = tr((B (C_S + t B)^-1)^2)``, and the outer bound is ``sum_j
b_j^2 (sigma0^-2)_jj``, both from twisted factorisations: O(n) time and
memory, even when ``b`` spans sixty orders of magnitude.

A dense block against a banded null of bandwidth ``w`` takes the banded
route when the support's runs tile their hull ``H = [a, b)`` (every row
of ``H`` in exactly one run) and every run but the first has one
index; for a tridiagonal null the runs may also leave gaps.
Then ``P^-1`` is itself banded with bandwidth ``w``.  Eliminating the
pieces ``[0, a)`` and ``[b, n)`` leaves the Schur complement ``C_H``,
``null_HH`` less two ``w x w`` corner corrections, each from the
trailing triangle of the piece's banded Cholesky factor; a multi-index
first run ``R`` is eliminated the same way and added back as the one
coordinate ``v = 1_R / sqrt(|R|)`` (:func:`_fold_leading` holds the
proof).  One banded Cholesky ``P^-1 = L L^T`` and two banded triangular
solves give ``M = L^-1 B L^-T``, similar to ``B P``, whose eigenvalues
are the ``mu``: O(n w^2 + k^2 w + k^3) with no solve of size ``n``.
:func:`block_array` writes ``B`` into one column-order ``k x k`` work
matrix, which both solves and the eigenproblem overwrite; an array block
is copied, never written.  The block may be a builder, a callable that
writes ``B`` into the array it is handed, as the m2 and m3 blocks of
:func:`~mnlab.models.bump_difference` are: then that work matrix is the
only ``k x k`` array of the comparison, and ``B`` is built again, unkept,
only for the outer bound and for a Loewner test the ``mu`` leave open.
This covers the m2 and m3 bump alternatives whose bumps are adjacent,
the kl-scaling bumps among them (the unmoved stretch before an m2 bump
is one run).  The outer bound, which only certificates ask for, keeps
the blocked solve.  Any other support, and every dense null, takes the
general path, which is the routes' test oracle.

:func:`kl_exact`, :func:`kl_bound`,
:func:`kl_bound_symmetrized` and :func:`find_loewner_constant` are views
of the kernel that take two laws or two covariance arrays; for two
arrays the support is the rows where they differ, one run each.

Each law is a :class:`GaussianLaw`, validated and Cholesky-factored once
by :func:`~mnlab.linalg.cholesky_lower` when it is built.  Its covariance
is a dense bit-exactly symmetric array or a :class:`~mnlab.linalg.Banded`
matrix: the differenced m1 null is tridiagonal and the m3 null
pentadiagonal, factored and solved in band storage in O(n) per
right-hand side, and their dense form is built only on request.  Solves
use the Cholesky factor, never an explicit inverse: the model-3
covariances reach condition numbers of order n^3 / tau^2.

All KL quantities are in nats.  Binary logarithms appear only in codeword
counting (see :mod:`mnlab.certificate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import NoConvergence
from .linalg import Banded, check_symmetric, cholesky_lower, mirror_lower, transpose_in_place
from .profiles import checked_cells

__all__ = [
    "GaussianLaw",
    "Comparison",
    "compare",
    "compare_laws",
    "block_array",
    "kl_exact",
    "KLBound",
    "kl_bound",
    "kl_bound_symmetrized",
    "find_loewner_constant",
]

# doubles held by one block of right-hand sides in a support solve (16 MB)
_BLOCK_ELEMENTS = 1 << 21


def _solved(routine: str, x: np.ndarray, info: int) -> np.ndarray:
    """The solution ``x`` of a LAPACK solve, checked: a nonzero ``info``
    raises (a negative one names an illegal argument)."""
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed at row {info - 1}")
    return x


class GaussianLaw:
    """The centred normal law ``N(0, cov)``, validated and factored once.

    ``cov`` is a bit-exactly symmetric array or a
    :class:`~mnlab.linalg.Banded` matrix.  ``chol`` is its lower Cholesky
    factor (in band storage for a banded law); no log-determinant is kept,
    as :func:`compare` sums ``mu - log1p(mu)``.  The covariance is checked,
    never symmetrised, and only once: by
    :func:`~mnlab.linalg.cholesky_lower`, which raises ``ValueError`` for
    a dense covariance that is not exactly symmetric or not square, or
    that is not positive definite, naming the failing pivot.
    """

    __slots__ = ("_cov", "chol")

    def __init__(self, cov):
        self._cov = cov if isinstance(cov, Banded) \
            else np.ascontiguousarray(cov, dtype=float)
        self.chol = cholesky_lower(self._cov)

    @property
    def banded(self) -> bool:
        return isinstance(self._cov, Banded)

    @property
    def size(self) -> int:
        return self.chol.shape[1]

    @property
    def cov(self) -> np.ndarray:
        """The dense covariance; built anew on each request for a banded law."""
        return self._cov.dense() if self.banded else self._cov

    def solve(self, rhs) -> np.ndarray:
        """``cov^-1 rhs`` by the two triangular solves of the Cholesky factor.

        ``rhs`` may be overwritten: a column-order float array is solved in
        place, with no copy.
        """
        if self.banded:
            return _solved("dpbtrs", *_lapack.dpbtrs(self.chol, rhs, lower=1, overwrite_b=1))
        return _solved("dpotrs", *_lapack.dpotrs(self.chol, rhs, lower=1, overwrite_b=1))


def _kl_terms(mu: np.ndarray) -> np.ndarray:
    """``mu - log1p(mu)`` per eigenvalue, free of cancellation at small ``mu``.

    For ``|mu| < 0.1`` the series ``mu^2 sum_j (-mu)^j / (j + 2)`` is
    summed to 16 terms, past double precision.
    """
    out = mu - np.log1p(mu)
    small = np.abs(mu) < 0.1
    x = mu[small]
    series = np.full(x.shape, 1.0 / 17.0)
    for j in range(14, -1, -1):
        series = series * -x + 1.0 / (j + 2)
    out[small] = x * x * series
    return out


class KLBound(NamedTuple):
    """Frobenius-norm divergence bound: loose ``value`` and tighter ``middle``.

    ``value = ||sigma0^-1 sigma1 - I||_F^2 / (4 C^2)`` and ``middle`` is
    the congruence-symmetrised expression
    ``||sigma0^-1/2 (sigma1 - sigma0) sigma0^-1/2||_F^2 / (4 C^2)``;
    ``middle <= value`` always.
    """

    value: float
    middle: float


def _check_c(c: float) -> None:
    if not 0.0 < c <= 1.0:
        raise ValueError(f"constant must lie in (0, 1], got {c}")


class _Runs(NamedTuple):
    """A validated support: ``k`` disjoint runs of indices, sorted.

    ``rows`` lists the indices of all runs in order, run ``r`` at
    ``rows[offsets[r]:offsets[r + 1]]``; ``scale`` is ``1 / sqrt(len)``,
    the entry of the run's basis column (exactly 1 for one index).
    """

    rows: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    scale: np.ndarray

    @property
    def k(self) -> int:
        return self.lengths.size

    def scatter(self, values: np.ndarray, out: np.ndarray) -> None:
        """``out[rows] = W V`` for ``k x m`` values ``V``.

        When every run has one index, ``W``'s columns are unit vectors and
        ``V``'s rows go into ``out`` as they are, with no scaled copy.
        """
        if self.rows.size == self.k:
            out[self.rows] = values
        else:
            out[self.rows] = np.repeat(values * self.scale[:, None], self.lengths,
                                       axis=0)

    def gather(self, z: np.ndarray) -> np.ndarray:
        """``W^T z`` for ``n x m`` rows ``z``: each run's sum, scaled."""
        return np.add.reduceat(z[self.rows], self.offsets[:-1], axis=0) \
            * self.scale[:, None]


def _runs(support, n: int) -> _Runs:
    """Validate ``support`` for size ``n``: indices, or ``(start, stop)`` rows.

    A 1-D array holds one-index runs; a ``k x 2`` array holds half-open
    runs.  Runs must be non-empty, sorted, disjoint and inside ``[0, n)``.
    """
    support = np.asarray(support, dtype=np.intp)
    if support.ndim == 1:
        starts, stops = support, support + 1
    elif support.ndim == 2 and support.shape[1] == 2:
        starts, stops = support[:, 0], support[:, 1]
    else:
        raise ValueError(f"support must be indices or (start, stop) rows, "
                         f"got shape {support.shape}")
    if starts.size and (starts[0] < 0 or stops[-1] > n or np.any(stops <= starts)
                        or np.any(starts[1:] < stops[:-1])):
        raise ValueError(f"support runs must be non-empty, sorted, disjoint "
                         f"and inside [0, {n})")
    lengths = stops - starts
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    rows = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
    return _Runs(rows, offsets, lengths, 1.0 / np.sqrt(lengths))


def _solve_blocks(law: GaussianLaw, runs: _Runs, values=None):
    """``cov^-1 W V`` a block of columns at a time: yields ``(cols, z)``.

    ``V`` is ``values`` (``k x m``), or the identity when it is None.
    """
    n = law.size
    m = runs.k if values is None else values.shape[1]
    width = max(1, _BLOCK_ELEMENTS // n)
    for j in range(0, m, width):
        cols = slice(j, min(j + width, m))
        rhs = np.zeros((n, cols.stop - j), order="F")
        if values is None:
            # the columns of W themselves, with no k x m identity to scatter
            lengths = runs.lengths[cols]
            rows = runs.rows[runs.offsets[j]:runs.offsets[cols.stop]]
            rhs[rows, np.repeat(np.arange(cols.stop - j), lengths)] = \
                np.repeat(runs.scale[cols], lengths)
        else:
            runs.scatter(values[:, cols], rhs)
        yield cols, law.solve(rhs)


def _solve_norm_sq(law: GaussianLaw, runs: _Runs, block: np.ndarray) -> float:
    """``||cov^-1 W B||_F^2``."""
    return math.fsum(float(np.sum(z * z)) for _, z in _solve_blocks(law, runs, block))


def _ldl(diag: np.ndarray, off: np.ndarray):
    """Pivots ``d`` and multipliers ``l = off / d`` of ``L D L^T`` of an SPD
    tridiagonal matrix, eliminated top down (``dpttrf``)."""
    if diag.size < 2:
        # dpttrf rejects an empty off-diagonal; test the one pivot as it would
        d, l = diag.copy(), off.copy()
        info = int(d.size == 1 and d[0] <= 0.0)
    else:
        d, l, info = _lapack.dpttrf(diag, off)
    if info:
        raise ValueError(f"tridiagonal pivot {info - 1} is not positive")
    return d, l


def _schur_tridiagonal(diag: np.ndarray, off: np.ndarray, rows: np.ndarray):
    """Diagonal and off-diagonal of the Schur complement ``C_S`` of an SPD
    tridiagonal matrix ``A`` onto the sorted ``rows`` ``S``.

    ``C_S = ((A^-1)_SS)^-1`` is tridiagonal in the order of ``S``.  The other
    rows fall into gaps of consecutive rows, each eliminated on its own: a gap
    ``G = [p, q]`` between two rows of ``S`` subtracts ``e_l^2 (G^-1)_pp`` from
    the diagonal at ``p - 1``, ``e_r^2 (G^-1)_qq`` from that at ``q + 1`` and
    ``e_l e_r (G^-1)_pq`` from the entry joining them, where ``e_l = A[p - 1,
    p]`` and ``e_r = A[q, q + 1]``; a gap at either end only the diagonal term.
    Its ``L D L^T`` top down gives ``(G^-1)_qq = 1 / d_q`` and ``(G^-1)_pq =
    prod_{j=p}^{q-1} (-l_j) / d_q``, bottom up ``(G^-1)_pp``.  Neighbouring
    rows of ``S`` keep their entry of ``A``.  Squares are ``x * x``: a float64
    scalar's ``x ** 2`` calls ``pow``, whose last bit may differ.
    """
    c_diag = diag[rows].copy()
    c_off = np.where(np.diff(rows) == 1, off[rows[:-1]], 0.0)
    # gap j lies between edges[j] and edges[j + 1]: rows, ended by -1 and n
    edges = np.concatenate(([-1], rows, [diag.size]))
    for j in np.flatnonzero(np.diff(edges) > 1):
        p, q = edges[j] + 1, edges[j + 1] - 1
        down, l = _ldl(diag[p:q + 1], off[p:q])
        up = _ldl(diag[p:q + 1][::-1], off[p:q][::-1])[0]
        if j < rows.size:
            c_diag[j] -= off[q] * off[q] / down[-1]
        if j > 0:
            c_diag[j - 1] -= off[p - 1] * off[p - 1] / up[-1]
        if 0 < j < rows.size:
            c_off[j - 1] = -off[p - 1] * off[q] * np.prod(-l) / down[-1]
    return c_diag, c_off


def _inverse_diagonals(diag: np.ndarray, off: np.ndarray, rate=1.0):
    """``gamma``, ``gamma'`` of an SPD tridiagonal ``A``: ``(A^-1)_jj = 1 /
    gamma_j``, ``(A^-1 R A^-1)_jj = gamma'_j / gamma_j^2``, ``R = diag(rate)``.

    From the twisted factorisation: with pivots ``d`` and multipliers
    ``l_j = e_j / d_j`` eliminated top down, and ``u`` and ``m_j = e_j /
    u_{j+1}`` bottom up, ``gamma_j = a_jj - e_{j-1} l_{j-1} - e_j m_j``.
    Its derivative under the shift ``A + sR``, whose inverse has
    derivative ``-(A + sR)^-1 R (A + sR)^-1``, is ``gamma'_j = rate_j +
    l_{j-1}^2 d'_{j-1} + m_j^2 u'_{j+1}``; the pivots' own derivatives
    ``d'_j = rate_j + l_{j-1}^2 d'_{j-1}`` (and ``u'`` bottom up) are one
    bidiagonal solve each.  For ``rate >= 0`` nothing cancels.
    """
    l = _ldl(diag, off)[1]
    m_up = _ldl(diag[::-1], off[::-1])[1]
    m = m_up[::-1]
    rate = np.full(diag.shape, rate)

    def slope(mult, rhs):
        band = np.ones((2, mult.size + 1))
        band[1, :-1] = -mult * mult
        return _solved("dtbtrs", *_lapack.dtbtrs(band, rhs, uplo="L"))

    gamma = diag - np.concatenate(([0.0], off * l)) - np.concatenate((off * m, [0.0]))
    slope_d, slope_u = slope(l, rate), slope(m_up, rate[::-1])[::-1]
    gamma_s = rate + np.concatenate(([0.0], l * l * slope_d[:-1])) \
        + np.concatenate((m * m * slope_u[1:], [0.0]))
    return gamma, gamma_s


def _tridiagonal(law: GaussianLaw):
    """The diagonal and off-diagonal of a tridiagonal banded law."""
    bands = law._cov.bands
    return bands[0], bands[1, :-1]


def _diagonal_route(diag: np.ndarray, off: np.ndarray, rows: np.ndarray,
                    b: np.ndarray):
    """``kl`` and ``middle_sq`` of ``B = diag(b)``, ``b > 0``, on the sorted
    ``rows`` against the tridiagonal null of the given diagonals.

    With ``mu`` the eigenvalues of ``B P``, ``P = C_S^-1``
    (:func:`_schur_tridiagonal`), and ``mu - log1p(mu) = int_0^1 (1 - t)
    mu^2 / (1 + t mu)^2 dt``, the KL is ``(1/2) int_0^1 (1 - t) h(t) dt``:
    ``h(t) = tr((B X_t^-1)^2) = sum_j b_j gamma'_j / gamma_j^2``, ``X_t =
    C_S + t B``, by :func:`_inverse_diagonals` at rate ``b`` in O(k), all
    terms positive and nothing scaled by ``1 / sqrt(b_j)`` to overflow.
    ``middle_sq = sum(mu^2) = h(0)``.  ``h`` varies on the scale ``1 /
    mu_max >= t0 = h(0)^-1/2``, so one checked quadrature integrates ``[0,
    t0]`` and pieces growing fourfold up to 1.  Shifts are factored side
    by side in one block-diagonal tridiagonal of up to 65536 rows.
    """
    c_diag, c_off = _schur_tridiagonal(diag, off, rows)
    group = max(1, (1 << 16) // b.size)

    def h(ts: np.ndarray) -> np.ndarray:
        out = np.empty(ts.size)
        for i in range(0, ts.size, group):
            t = ts[i:i + group, None]
            rate = np.tile(b, t.size)
            # a zero off-diagonal parts two shifted matrices
            off_t = np.tile(np.append(c_off, 0.0), t.size)[:-1]
            gamma, gamma_s = _inverse_diagonals((c_diag + t * b).ravel(), off_t, rate)
            out[i:i + group] = np.sum((rate / gamma * (gamma_s / gamma)).reshape(t.size, -1), 1)
        return out

    middle_sq = float(h(np.zeros(1))[0])
    t0 = 1.0 / math.sqrt(middle_sq) if 1.0 < middle_sq < math.inf else 1.0
    edges = [0.0] + [min(t0 * 4.0 ** i, 1.0) for i in range(math.ceil(-math.log(t0, 4)) + 1)]
    pieces = checked_cells(lambda t, _: (1.0 - t) * h(t.ravel()).reshape(t.shape),
                           edges[:-1], edges[1:])
    return 0.5 * math.fsum(pieces), middle_sq


def _reversed(bands: np.ndarray) -> np.ndarray:
    """Lower band storage of ``J A J``, ``A`` in the reverse order of rows."""
    out = np.zeros_like(bands)
    n = bands.shape[1]
    for d, band in enumerate(bands):
        out[d, :n - d] = band[:n - d][::-1]
    return out


def _eliminate_leading(bands: np.ndarray, r: int):
    """Eliminate rows ``[0, r)`` of the SPD band matrix ``A`` (lower band
    storage, bandwidth ``w``): returns the ``dpbtrf`` factor of ``A_00 =
    A[:r, :r]``, the coupling block ``K = A[r:r + w, r - p:r]`` (``p =
    min(w, r)``) and the band storage of the Schur complement ``A_11 -
    A_10 A_00^-1 A_01`` onto ``[r, n)``.

    ``A_10`` is ``K`` in its leading rows and last columns, and the
    trailing ``p x p`` block of ``A_00^-1 = L^-T L^-1`` is ``L_t^-T
    L_t^-1``, ``L_t`` the trailing triangle of the factor ``L`` (``L^-1``
    is lower triangular, so only its trailing rows reach those columns).
    So the complement is ``A_11`` less ``G^T G``, ``G = L_t^-1 K^T``, on
    its leading ``w x w`` block: O(r w^2) for the factor and nothing of
    size ``n``.
    """
    w, n = bands.shape[0] - 1, bands.shape[1]
    factor, info = _lapack.dpbtrf(bands[:, :r], lower=1)
    if info:
        raise ValueError(f"banded pivot {info - 1} is not positive")
    p, m = min(w, r), min(w, n - r)
    coupling, trailing = np.zeros((m, p)), np.zeros((p, p))
    for i in range(m):
        for j in range(p):
            if i + p - j <= w:  # A[r + i, r - p + j] lies in the band
                coupling[i, j] = bands[i + p - j, r - p + j]
    for i in range(p):
        for j in range(i + 1):
            trailing[i, j] = factor[i - j, r - p + j]
    # G = L_t^-1 K^T: trailing.T is L_t^T in column order, solved transposed
    g = _solved("dtrtrs", *_lapack.dtrtrs(trailing.T, coupling.T, lower=0, trans=1))
    correction = g.T @ g
    rest = bands[:, r:].copy()
    for e in range(m):
        rest[e, :m - e] -= np.diagonal(correction, -e)
    return factor, coupling, rest


def _fold_leading(bands: np.ndarray, r: int) -> np.ndarray:
    """Band storage of ``(U^T A^-1 U)^-1`` for an SPD band matrix ``A``:
    its leading ``r`` rows ``R`` taken as one coordinate.  ``U`` maps the
    coordinates ``(v, M)`` to the rows ``(R, M)``, with ``v = 1_R /
    sqrt(r)`` its first column and the identity on the other rows ``M``.

    With ``y = A_RR^-1 v``, ``s = v^T y`` and ``q = A_MR y``, the result
    is ``1 / s`` at ``(v, v)``, ``q / s`` below it and ``S_M + q q^T / s``
    on ``M``, where ``S_M = A_MM - A_MR A_RR^-1 A_RM`` is the elimination
    of :func:`_eliminate_leading`.  It keeps the bandwidth ``w`` of ``A``,
    as ``q`` is nonzero only on the ``w`` rows of ``M`` next to ``R``.

    Proof.  Complete ``v`` to an orthonormal basis ``[v, V]`` of ``R``.
    ``U^T A^-1 U`` is a principal block of the inverse of ``A`` in that
    basis, so its inverse is the Schur complement that eliminates ``V``:
    ``U^T A U - U^T A_:R Z A_R: U`` with ``Z = V (V^T A_RR V)^-1 V^T``.
    Now ``Z = A_RR^-1 - y y^T / s``.  The right side ``X`` is symmetric
    with ``X v = y - y = 0``, so ``X = V (V^T X V) V^T``; and ``A_RR X = I
    - v y^T / s`` gives ``(V^T A_RR V)(V^T X V) = V^T A_RR X V = I``, as
    ``V^T v = 0``.  Put ``Z`` in: as ``A_RR y = v`` and ``v^T v = 1``, the
    ``(v, v)`` entry is ``v^T A_RR v - v^T A_RR v + (v^T A_RR y)^2 / s =
    1 / s``, the ``(M, v)`` column ``A_MR v - A_MR v + q (y^T A_RR v) / s
    = q / s``, and the ``(M, M)`` block ``A_MM - A_MR A_RR^-1 A_RM + q q^T
    / s``.
    """
    w, n = bands.shape[0] - 1, bands.shape[1]
    factor, coupling, rest = _eliminate_leading(bands, r)
    v = np.full((r, 1), 1.0 / math.sqrt(r))
    y = _solved("dpbtrs", *_lapack.dpbtrs(factor, v, lower=1))[:, 0]
    s = float(v[:, 0] @ y)
    q = coupling @ y[r - coupling.shape[1]:]
    m = q.size
    out = np.zeros((w + 1, n - r + 1))
    out[:, 1:] = rest
    out[0, 0] = 1.0 / s
    out[1:m + 1, 0] = q / s
    for e in range(m):
        out[e, 1:m + 1 - e] += q[e:] * q[:m - e] / s
    return out


def _hull_inverse(null: GaussianLaw, runs: _Runs):
    """``P^-1 = (W^T null^-1 W)^-1`` in band storage, or None.

    The support's runs must tile their hull ``H = [a, b)`` (for a
    tridiagonal null, whose elimination :func:`_schur_tridiagonal` leaves
    tridiagonal across gaps, they may leave gaps), and every run but the
    first must have one index, as in every support the models build.  Then
    ``P^-1`` has the null's bandwidth ``w``: the Schur complement ``C_H`` of
    the null onto ``H`` (``null_HH`` less two ``w x w`` corner corrections
    from the pieces ``[0, a)`` and ``[b, n)``, :func:`_eliminate_leading`),
    with a multi-index first run folded into one coordinate by
    :func:`_fold_leading`.  O(n w^2) time, and no solve of size ``n``.
    """
    if not null.banded:
        return None
    bands = null._cov.bands
    w, n = bands.shape[0] - 1, bands.shape[1]
    rows, lengths = runs.rows, runs.lengths
    a, b = int(rows[0]), int(rows[-1]) + 1
    if w < 1 or np.any(lengths[1:] > 1):
        return None
    if w == 1:
        c_diag, c_off = _schur_tridiagonal(*_tridiagonal(null), rows)
        c = np.zeros((2, rows.size))
        c[0], c[1, :-1] = c_diag, c_off
    elif b - a != rows.size or b - a < w:
        # a gap, or a hull so short that the pieces outside it couple
        return None
    else:
        c = bands if a == 0 else _eliminate_leading(bands, a)[2]
        if b < n:
            c = _reversed(_eliminate_leading(_reversed(c), n - b)[2])
    if lengths[0] > 1:
        c = _fold_leading(c, int(lengths[0]))
    return c


@dataclass(frozen=True, eq=False)
class Comparison:
    """A null law against ``null + W B W^T``, reduced to ``k x k``.

    ``support`` holds the validated runs of ``W`` and ``source`` the block
    ``B`` as :func:`compare` read it: an array, a builder, or the vector
    ``b`` of the tridiagonal route.  ``mu`` holds the eigenvalues of ``R^T B
    R`` ascending, ``middle_sq`` is ``||R^T B R||_F^2 = sum(mu^2)`` and
    ``kl`` the exact divergence (nats), ``(1/2) sum(mu - log1p(mu))``, and
    ``mu_error = k eps max|mu|`` the eigensolver's rounding bound on ``mu``
    (0 with no eigenvalue), which :meth:`dominates` and the refusal of
    :func:`compare` read.  ``right_sq = ||X B||_F^2`` is computed on first
    use, by :meth:`bound`: from ``B`` built anew by a second solve with
    ``k`` right-hand sides, or on the tridiagonal route from ``source``
    itself as ``sum_j b_j^2 (null^-2)_jj`` in O(n).  ``route`` names the
    route :func:`compare` took: ``"tridiagonal"`` (no eigenvalues, so ``mu``
    is empty; as ``b > 0``, the Loewner constant is 1), ``"banded"`` (``mu``
    and ``middle_sq`` from ``L^-1 B L^-T``, ``P^-1 = L L^T``, similar to
    ``R^T B R``) or ``"general"``.
    """

    null: GaussianLaw
    support: _Runs
    source: object
    mu: np.ndarray
    middle_sq: float
    kl: float
    route: str = "general"
    mu_error: float = 0.0

    @cached_property
    def right_sq(self) -> float:
        if self.route == "tridiagonal":
            gamma, gamma_s = _inverse_diagonals(*_tridiagonal(self.null))
            rows = self.support.rows
            return math.fsum((self.source / gamma[rows]) ** 2 * gamma_s[rows])
        return _solve_norm_sq(self.null, self.support,
                              block_array(self.source, self.support.k))

    def bound(self, c: float) -> KLBound:
        """Frobenius bounds, valid when ``c * null <= alternative``."""
        _check_c(c)
        scale = 1.0 / (4.0 * c * c)
        return KLBound(value=scale * self.right_sq, middle=scale * self.middle_sq)

    @property
    def loewner_constant(self) -> float:
        """Largest ``C <= 1`` with ``C * null <= alternative``."""
        return min(1.0 + float(self.mu[0]), 1.0) if self.mu.size else 1.0

    def dominates(self, c: float) -> bool:
        """Whether ``c * null <= alternative`` in the Loewner order, read
        where double precision resolves it: always with no eigenvalue (an
        empty support, or the tridiagonal route, where ``b > 0``); else by
        the sign of the margin ``min(mu) + (1 - c)`` (summed in that order,
        so a tiny positive ``min(mu)`` is not lost against 1) beyond
        :attr:`mu_error`.  Within it ``B >= 0`` decides, which suffices for
        every ``c <= 1`` and is the condition at ``c = 1`` (``R^T B R`` has
        the inertia of ``B``): the least eigenvalue of ``B``, built anew,
        must reach its spectrum's own rounding bound.  ``mu_error`` leaves
        out the rounding of ``P`` and ``R^T B R``, so a margin of a few
        ``mu_error`` may still read either way.
        """
        _check_c(c)
        if not self.mu.size:
            return True
        margin = float(self.mu[0]) + (1.0 - c)
        if margin >= self.mu_error:
            return True
        if margin < -self.mu_error:
            return False
        least = _spectrum(block_array(self.source, self.support.k))[0]
        return bool(least[0] >= _rounding(least))


def compare(null: GaussianLaw, support, block) -> Comparison:
    """Compare ``N(0, null)`` with ``N(0, null + W B W^T)``.

    ``support`` holds the ``k`` runs of ``W``: sorted distinct indices,
    or a ``k x 2`` array of sorted disjoint half-open ``(start, stop)``
    runs; ``block`` is the exactly symmetric ``k x k`` matrix ``B``, a
    builder: a callable ``block(out)`` that writes ``B`` into the
    row-order ``k x k`` array ``out`` it is handed, or the vector ``b`` of
    ``B = diag(b)``.  Off the tridiagonal route :func:`block_array` writes
    ``B`` into the work matrix that the route overwrites, so an array
    passed in is never written: with a builder it is the only ``k x k``
    array the comparison holds.

    A vector takes the tridiagonal route of :func:`_diagonal_route`, and
    only in the form of an m1 bump alternative: a tridiagonal null (a
    :class:`~mnlab.linalg.Banded` of bandwidth 1), one-index runs, every
    ``b`` finite and ``> 0``.  The route takes the Schur complement of the
    null onto the support in O(n), the KL as one checked quadrature of an
    O(k) trace, and the outer bound in O(n), with no eigenvalue, no solve,
    no Cholesky factor and no dense ``k x k`` array.  Against a banded
    null, on runs that tile their hull with one index each but perhaps the
    first (gaps are allowed for a tridiagonal null), a matrix or builder
    takes the banded route: ``P^-1`` built in O(n w^2) by
    :func:`_hull_inverse`, its banded Cholesky factor, two banded triangular
    solves with ``k`` right-hand sides and one ``k x k`` eigenproblem, O(n
    w^2 + k^2 w + k^3) with no solve of size ``n``.  Any other takes the
    general path: one solve with ``k`` right-hand sides, one ``k x k``
    Cholesky factor and one ``k x k`` eigenproblem.  Off the tridiagonal
    route the outer bound takes a second solve with ``k`` right-hand sides,
    when it is asked for.  :attr:`Comparison.route` records the route.
    Raises ``ValueError`` for runs that are empty, unsorted, overlapping or
    outside ``[0, n)``, a vector of any other form, a ``B`` that is not
    exactly symmetric, an alternative that is not positive definite
    (``1 + min(mu) <= 0``, named in the message) and one whose ``1 +
    min(mu)`` lies within :attr:`Comparison.mu_error`, the eigenvalues'
    rounding bound ``k eps max|mu|``, which leaves its sign unresolved;
    and :class:`~mnlab.errors.NoConvergence` when the eigensolver fails.
    """
    runs = _runs(support, null.size)
    k = runs.k
    if not callable(block):
        block = np.asarray(block, dtype=float)
        if block.shape not in ((k, k), (k,)):
            raise ValueError(
                f"block shape {block.shape} does not match a support of {k}")
    if k == 0:
        return Comparison(null=null, support=runs, source=np.zeros((0, 0)),
                          mu=np.zeros(0), middle_sq=0.0, kl=0.0)
    if not callable(block) and block.ndim == 1:
        if not (null.banded and null._cov.bands.shape[0] == 2
                and np.all(runs.lengths == 1)
                and np.all((block > 0.0) & (block < math.inf))):
            raise ValueError("a vector block is the diagonal b of B on one-index "
                             "runs against a tridiagonal banded null, every b "
                             "finite and > 0; pass any other block as a matrix")
        kl, middle_sq = _diagonal_route(*_tridiagonal(null), runs.rows, block)
        return Comparison(null=null, support=runs, source=block, mu=np.zeros(0),
                          middle_sq=middle_sq, kl=kl, route="tridiagonal")
    # the one k x k array: B, built or copied, then overwritten by the route
    work = block_array(block, k)
    check_symmetric(work.T, "block")
    inverse = _hull_inverse(null, runs)
    if inverse is None:
        route, (mu, middle_sq) = "general", _general_route(null, runs, work)
    else:
        route, (mu, middle_sq) = "banded", _banded_route(inverse, work)
    mu_error = _rounding(mu)
    if 1.0 + mu[0] <= 0.0:
        if -(1.0 + mu[0]) <= mu_error:
            raise ValueError(
                f"the alternative's definiteness is unresolved at double precision: "
                f"1 + mu_min = {1.0 + mu[0]:.3e} lies within the rounding bound "
                f"k eps max|mu| = {mu_error:.3e}")
        raise ValueError(
            f"the alternative is not positive definite (1 + mu_min = {1.0 + mu[0]:.3e})"
        )
    return Comparison(null=null, support=runs, source=block, mu=mu,
                      middle_sq=middle_sq, kl=0.5 * math.fsum(_kl_terms(mu)),
                      route=route, mu_error=mu_error)


def _rounding(spectrum: np.ndarray) -> float:
    """``k eps max|spectrum|``: how far a computed eigenvalue of a ``k x k``
    symmetric matrix may be off."""
    return float(spectrum.size * np.finfo(float).eps
                 * max(abs(spectrum[0]), abs(spectrum[-1])))


def block_array(block, k: int) -> np.ndarray:
    """``B`` in a new column-order ``k x k`` array, for a route to
    overwrite: built there by a builder (handed its row-order transpose) or
    copied from a ``k x k`` array."""
    out = np.empty((k, k), order="F")
    if callable(block):
        block(out.T)
    else:
        np.copyto(out.T, np.reshape(block, (k, k)))
    return out


def _banded_route(inverse: np.ndarray, work: np.ndarray):
    """``mu`` ascending and ``||M||_F^2`` of ``M = L^-1 B L^-T``, ``L L^T``
    the band storage ``inverse`` of ``P^-1`` (:func:`_hull_inverse`).

    ``M`` is similar to ``B P = B L^-T L^-1``, so it has the ``mu``, and
    its Frobenius norm is that of ``R^T B R`` for any ``P = R R^T``.  Two
    banded triangular solves with ``k`` right-hand sides, O(k^2 w), and
    one ``k x k`` array: both solves and the eigenvalues overwrite the
    column-order ``work``, which holds ``B`` on entry.
    """
    low = cholesky_lower(Banded(inverse))
    x = _solved("dtbtrs", *_lapack.dtbtrs(low, work, uplo="L", overwrite_b=1))
    m = _solved("dtbtrs", *_lapack.dtbtrs(low, transpose_in_place(x), uplo="L",
                                         overwrite_b=1))
    return _spectrum(m)


def _general_route(null: GaussianLaw, runs: _Runs, work: np.ndarray):
    """``mu`` ascending and ``||R^T B R||_F^2``, ``P = R R^T`` from a solve
    with the null and ``k`` right-hand sides; the column-order ``work``
    holds ``B`` on entry and is overwritten.  Its two ``dtrmm`` products
    are the package's only calls into scipy's BLAS extension, which the
    first of them loads (:mod:`mnlab._lapack`)."""
    k = runs.k
    p = np.empty((k, k))
    for cols, z in _solve_blocks(null, runs):
        p[:, cols] = runs.gather(z)
    r = cholesky_lower(mirror_lower(p))
    # subnormal entries of R (the null's inverse decays off the diagonal)
    # change R^T B R by less than its rounding, and slow dtrmm many fold
    r[np.abs(r) < np.finfo(float).tiny] = 0.0
    # R^T B R by two triangular products, the second in place
    m = _lapack.dtrmm(1.0, r, _lapack.dtrmm(1.0, r, work, side=1, lower=1, overwrite_b=1),
                      lower=1, trans_a=1, overwrite_b=1)
    return _spectrum(mirror_lower(m))


def _spectrum(m: np.ndarray):
    """``mu`` ascending and ``||m||_F^2`` of the column-order ``k x k`` work
    matrix ``m``, which is overwritten.

    The eigenvalues are ``dsyevd``'s of the lower triangle, the bits of
    ``np.linalg.eigvalsh(m)``, with no copy of ``m``: its workspace is the
    one ``dsyevd_lwork`` asks for, as the minimal one runs ``dsytrd``
    unblocked, which changes the bits.  The norm sums the squares with no
    ``k x k`` temporary.
    """
    middle_sq = float(np.einsum("ij,ij->", m, m))
    work, iwork, _ = _lapack.dsyevd_lwork(m.shape[0], compute_v=0, lower=1)
    mu, _, info = _lapack.dsyevd(m, compute_v=0, lower=1, lwork=int(work),
                                 liwork=iwork, overwrite_a=1)
    if info > 0:  # info off-diagonal entries of dsyevd's tridiagonal form stayed nonzero
        raise NoConvergence(f"eigensolver did not converge: {info} off-diagonal entries left")
    return _solved("dsyevd", mu, info), middle_sq


def _laws(sigma0, sigma1) -> tuple[GaussianLaw, GaussianLaw]:
    law0 = sigma0 if isinstance(sigma0, GaussianLaw) else GaussianLaw(sigma0)
    law1 = sigma1 if isinstance(sigma1, GaussianLaw) else GaussianLaw(sigma1)
    if law0.size != law1.size:
        raise ValueError(f"sizes differ: {law0.size} vs {law1.size}")
    return law0, law1


def _difference(law0: GaussianLaw, law1: GaussianLaw):
    """``(S, B)`` of ``law1.cov - law0.cov``: S is the rows where they differ."""
    a0, a1 = law0.cov, law1.cov
    support = np.flatnonzero(np.any(a0 != a1, axis=1))
    on = np.ix_(support, support)
    return support, a1[on] - a0[on]


def compare_laws(sigma0, sigma1) -> Comparison:
    """:func:`compare` of two laws of one size, each a :class:`GaussianLaw`
    or a covariance, on the rows where their covariances differ."""
    law0, law1 = _laws(sigma0, sigma1)
    return compare(law0, *_difference(law0, law1))


def kl_exact(sigma0, sigma1) -> float:
    """Exact divergence (nats) of ``N(0, sigma1)`` from ``N(0, sigma0)``.

    Both inputs must be positive definite; see :attr:`Comparison.kl`.
    """
    return compare_laws(sigma0, sigma1).kl


def kl_bound(sigma0, sigma1, c: float) -> KLBound:
    """Divergence bound valid when ``c * sigma0 <= sigma1``, ``c`` in (0, 1].

    The caller is responsible for the Loewner hypothesis (checkable with
    :func:`mnlab.linalg.loewner_leq` or :func:`find_loewner_constant`);
    this routine only evaluates the two Frobenius expressions.
    """
    _check_c(c)
    return compare_laws(sigma0, sigma1).bound(c)


def kl_bound_symmetrized(sigma0, sigma1) -> float:
    """Bound needing only positive definiteness, at the cost of symmetrisation.

    Returns ``||sigma0^-1 sigma1 - I||_F^2 / 4
    + ||sigma1^-1 sigma0 - I||_F^2 / 4``.  Dominance over the exact
    divergence is checked empirically by randomized sweeps, not certified.
    """
    law0, law1 = _laws(sigma0, sigma1)
    support, block = _difference(law0, law1)
    runs = _runs(support, law0.size)
    return 0.25 * (_solve_norm_sq(law0, runs, block)
                   + _solve_norm_sq(law1, runs, -block))


def find_loewner_constant(sigma0, sigma1) -> float:
    """Largest ``C <= 1`` with ``C * sigma0 <= sigma1``.

    Equals ``min(lambda_min(sigma0^-1/2 sigma1 sigma0^-1/2), 1)``, read
    off the kernel as ``min(1 + min(mu), 1)``.  Both inputs must be
    positive definite.
    """
    return compare_laws(sigma0, sigma1).loewner_constant
