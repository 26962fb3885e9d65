"""Symmetric linear algebra used by every other module.

Symmetric matrices are plain float64 ``numpy`` arrays whose symmetry is
bit-exact.  Use :func:`sym` to build one (it mirrors the lower triangle);
every operation here validates that invariant on entry and raises rather
than silently symmetrising.  A symmetric band matrix can instead be held
as a :class:`Banded`, in LAPACK lower band storage: each entry is stored
once, so it is symmetric by construction, and the dense matrix is built
only on request.  All routines are deterministic pure functions of their
inputs, so results are reproducible bit for bit and safe to use from
multiple threads.

Factorisations and eigendecompositions are delegated to LAPACK, which is
both faster and more robust than anything hand-rolled.  Failure modes are
translated into the package's exception types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

__all__ = [
    "sym",
    "mirror_lower",
    "transpose_in_place",
    "check_symmetric",
    "Banded",
    "EigenResult",
    "cholesky_lower",
    "sym_eigen",
    "frobenius_norm",
    "is_psd",
    "loewner_leq",
]


def sym(a) -> np.ndarray:
    """Return a bit-exactly symmetric copy of ``a``.

    The lower triangle (i >= j) is authoritative; the upper triangle is
    overwritten with its mirror image so that ``out[i, j] == out[j, i]``
    holds exactly, not merely up to rounding.
    """
    a = np.array(a, dtype=float, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return mirror_lower(a)


# side of the square tiles that the in-place routines copy through, and
# the strict upper triangle of one
_TILE = 64
_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)


def _tiles(k: int):
    """``(rows, cols)`` of each tile strictly below the diagonal of a
    ``k x k`` array, and ``(rows, rows)`` of each diagonal tile."""
    for i in range(0, k, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(0, i, _TILE):
            yield rows, slice(j, j + _TILE)
        yield rows, rows


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Make the square float array ``a`` bit-exactly symmetric in place, as
    :func:`sym` would return it, and return it.

    The strict lower triangle is copied onto the upper one a tile at a
    time, so the only temporary is one tile; ``+ 0.0`` then turns every
    ``-0.0`` into ``+0.0``, as the sum of the two triangles does.
    """
    for rows, cols in _tiles(a.shape[0]):
        if rows == cols:
            tile = a[rows, rows]
            t = tile.shape[0]
            np.copyto(tile, tile.T, where=_UPPER[:t, :t])
        else:
            a[cols, rows] = a[rows, cols].T
    a += 0.0
    return a


def transpose_in_place(a: np.ndarray) -> np.ndarray:
    """Transpose the square array ``a`` in place, a tile at a time, and
    return it: its memory order is kept, so a column-order ``a`` becomes
    the column-order ``a.T`` with no second square array."""
    for rows, cols in _tiles(a.shape[0]):
        if rows == cols:
            a[rows, rows] = a[rows, rows].T
        else:
            below = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = below.T
    return a


_SYM_BLOCK = 256


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square with bit-exact symmetry.

    Compares each strip of ``_SYM_BLOCK`` rows right of the diagonal with
    the matching column strip below it, so the transposed reads stay in
    cache; any NaN fails, and ``-0.0`` equals ``+0.0``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch(f"{name} must have size >= 1")
    for i in range(0, a.shape[0], _SYM_BLOCK):
        j = i + _SYM_BLOCK
        if not np.array_equal(a[i:j, i:], a[i:, i:j].T):
            raise ValueError(
                f"{name} is not exactly symmetric; build it with sym()"
            )
    return np.ascontiguousarray(a)


@dataclass(frozen=True)
class Banded:
    """Symmetric band matrix in LAPACK lower band storage.

    ``bands[d, j] = a[j + d, j]``: row 0 is the diagonal, row ``d`` the
    ``d``-th subdiagonal (its last ``d`` entries are unused and zero).
    """

    bands: np.ndarray

    @property
    def size(self) -> int:
        return self.bands.shape[1]

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The full ``n x n`` matrix; zeros outside the band.  Written into
        ``out`` when it is given."""
        n = self.size
        if out is None:
            out = np.zeros((n, n))
        else:
            out.fill(0.0)
        for d, band in enumerate(self.bands):
            j = np.arange(n - d)
            out[j + d, j] = out[j, j + d] = band[:n - d]
        return out


@dataclass(frozen=True)
class EigenResult:
    """Full symmetric eigendecomposition.

    ``values`` are sorted descending (largest first); column ``i`` of
    ``vectors`` is the unit eigenvector paired with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def cholesky_lower(m):
    """Lower-triangular Cholesky factor ``L`` with ``L @ L.T == m``.

    ``m`` is a dense symmetric array, checked for exact symmetry, or a
    :class:`Banded` matrix, whose factor is returned in the same lower
    band storage.

    Raises
    ------
    NotPositiveDefinite
        If a pivot fails, or a computed pivot is at or below
        ``n * eps * max(diag)`` (matrices that close to singular are
        treated as not positive definite).  The exception carries the
        0-based failing pivot index.
    """
    if isinstance(m, Banded):
        diag = m.bands[0]
        c, info = _lapack.dpbtrf(m.bands, lower=1)
        pivots = c[0]
    else:
        a = check_symmetric(m)
        diag = np.diag(a)
        c, info = _lapack.dpotrf(a, lower=1, clean=1, overwrite_a=0)
        pivots = np.diag(c)
    if info > 0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (pivot {info - 1} <= 0)",
            pivot=int(info - 1),
        )
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to the Cholesky routine")
    threshold = diag.size * np.finfo(float).eps * max(float(np.max(diag)), 0.0)
    pivots_sq = pivots**2
    bad = np.nonzero(pivots_sq <= threshold)[0]
    if bad.size:
        raise NotPositiveDefinite(
            f"pivot {bad[0]} fell below the singularity threshold "
            f"({pivots_sq[bad[0]]:.3e} <= {threshold:.3e})",
            pivot=int(bad[0]),
        )
    return c


def sym_eigen(m) -> EigenResult:
    """Eigendecomposition of a symmetric matrix, values sorted descending.

    A convergence failure inside LAPACK is reported as
    :class:`NoConvergence`.
    """
    a = check_symmetric(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    return EigenResult(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries (any rectangular matrix)."""
    a = np.asarray(m, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def is_psd(m, tol: float = 1e-9) -> bool:
    """Whether ``lambda_min(m) >= -tol * ||m||_F``.

    Decided by a shifted Cholesky attempt with an eigenvalue fallback on
    the boundary, so the answer is deterministic for a fixed input.  The
    tolerance is relative to the Frobenius norm because the covariances
    handled here span magnitudes from O(n^-3) to O(1).
    """
    a = check_symmetric(m)
    fro = frobenius_norm(a)
    if fro == 0.0:
        return True
    shift = tol * fro
    # a + shift * I with no identity array; as a is symmetric, shifted.T is
    # the same matrix in column order, factored in place
    shifted = a.copy()
    shifted.flat[::a.shape[0] + 1] += shift
    _, info = _lapack.dpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        return True
    lam_min = float(np.linalg.eigvalsh(a)[0])
    return lam_min >= -shift


def loewner_leq(lo, hi, tol: float = 1e-9) -> bool:
    """Whether ``lo <= hi`` in the Loewner (PSD) order, i.e. hi - lo is PSD."""
    a = check_symmetric(lo, "lo")
    b = check_symmetric(hi, "hi")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return is_psd(b - a, tol=tol)

