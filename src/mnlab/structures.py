"""Structured matrices with closed-form spectral theory.

The first-difference Gram matrix ``A`` (tridiagonal, corner entry 1 at the
top), the running-minimum matrix ``Q = (min(i, j)))`` and its tridiagonal
inverse, and the two-entry matrix ``V1`` all appear in the exact
covariance algebra of the noisy volatility models.
``A`` and ``Q^-1`` share the closed-form spectrum

    lambda_i = 4 sin^2((2i - 1) pi / (4n + 2)),   i = 1..n  (ascending),

with sine eigenvectors; the orthonormal sine basis of ``A`` also powers an
O(n log n) transform used for exact maximum likelihood under constant
volatility, one sample at a time or a block of samples per FFT call.

Ordering convention: :func:`eigvals_closed` returns the spectrum ascending
(position i, 1-based, is the i-th smallest); descending reports elsewhere
index it as ``values[n - i]``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "matrix_a",
    "matrix_q",
    "matrix_q_inv",
    "matrix_v1",
    "bidiagonal_o",
    "build",
    "eigvals_closed",
    "sine_basis_dense",
    "sine_transform",
    "sine_transform_inverse",
]


def matrix_a(n: int) -> np.ndarray:
    """Tridiagonal (-1, 2, -1) matrix with corner entry ``a[0, 0] = 1``."""
    _require_size(n)
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a[0, 0] = 1.0
    return a


def matrix_q(n: int) -> np.ndarray:
    """``q[i, j] = min(i, j)`` with 1-based indices."""
    _require_size(n)
    r = np.arange(1, n + 1, dtype=float)
    return np.minimum.outer(r, r)


def matrix_q_inv(n: int) -> np.ndarray:
    """Tridiagonal (-1, 2, -1) matrix with corner entry ``1`` at the bottom."""
    _require_size(n)
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a[n - 1, n - 1] = 1.0
    return a


def matrix_v1(n: int) -> np.ndarray:
    """Symmetric matrix with ones at (1, 2) and (2, 1) only (1-based)."""
    _require_size(n)
    v = np.zeros((n, n))
    if n >= 2:
        v[0, 1] = 1.0
        v[1, 0] = 1.0
    return v


def bidiagonal_o(n: int) -> np.ndarray:
    """Upper bidiagonal matrix with +1 diagonal and -1 superdiagonal.

    Satisfies ``O @ O.T == matrix_q_inv(n)`` exactly.
    """
    _require_size(n)
    return np.eye(n) - np.eye(n, k=1)


_BUILDERS = {
    "A": matrix_a,
    "Q": matrix_q,
    "Qinv": matrix_q_inv,
    "V1": matrix_v1,
    "O": bidiagonal_o,
}


def build(kind: str, n: int) -> np.ndarray:
    """Build one of the structured matrices by name (A, Q, Qinv, V1, O)."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown structured matrix kind {kind!r}") from None
    return builder(n)


def eigvals_closed(n: int) -> np.ndarray:
    """Closed-form spectrum shared by ``A`` and ``Q^-1``, ascending."""
    _require_size(n)
    i = np.arange(1, n + 1, dtype=float)
    return 4.0 * np.sin((2.0 * i - 1.0) * np.pi / (4.0 * n + 2.0)) ** 2


def sine_basis_dense(n: int, which: str = "A") -> np.ndarray:
    """Dense orthonormal eigenbasis, column i paired with eigvals_closed[i].

    ``which="Qinv"`` gives the sine vectors ``(sin(k x_i))_k`` with
    ``x_i = (2i - 1) pi / (2n + 1)``; ``which="A"`` gives the same vectors
    with their entries reversed (index flip maps one matrix to the other).
    """
    _require_size(n)
    i = np.arange(1, n + 1, dtype=float)
    x = (2.0 * i - 1.0) * np.pi / (2.0 * n + 1.0)
    k = np.arange(1, n + 1, dtype=float)
    v = np.sin(np.outer(k, x))
    if which == "A":
        v = v[::-1, :]
    elif which != "Qinv":
        raise ValueError("which must be 'A' or 'Qinv'")
    return v * (2.0 / np.sqrt(2.0 * n + 1.0))


def sine_transform(data) -> np.ndarray:
    """Coordinates of ``data`` in the orthonormal eigenbasis of ``A``.

    Equivalent to ``sine_basis_dense(n).T @ data`` but computed with one
    length-(4n+2) real FFT, exact to rounding and O(n log n); the dense
    product would need O(n^2) memory, which is prohibitive at n = 2^14.
    Orthonormality makes the transform an isometry and an involution up
    to :func:`sine_transform_inverse`.

    A 2-d ``data`` is a block of samples, one per row, transformed by one
    FFT call over the rows; each row of the result equals the transform
    of that row alone bit for bit.  The FFT length has large prime
    factors (16386 = 2 * 3 * 2731 at n = 4096), so the transform plan costs
    more than a row, and a block pays it once.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("data must be a non-empty 1-d array or 2-d block")
    n = x.shape[-1]
    full = 2 * n + 1
    head = np.zeros(x.shape[:-1] + (n + 1,))
    head[..., 1:] = x[..., ::-1]
    # the FFT zero-pads to length 2 full itself: no padded copy of the block
    spectrum = np.fft.rfft(head, n=2 * full, axis=-1)
    return spectrum.imag[..., 1 : 2 * n : 2] * -(2.0 / np.sqrt(full))


def sine_transform_inverse(coeffs) -> np.ndarray:
    """Inverse of :func:`sine_transform` (synthesis from coordinates)."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a non-empty 1-d array")
    n = c.size
    full = 2 * n + 1
    buf = np.zeros(2 * full)
    buf[1 : 2 * n : 2] = c
    spectrum = np.fft.rfft(buf)
    rev = -spectrum.imag[1 : n + 1] * (2.0 / np.sqrt(full))
    return rev[::-1]


def _require_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n!r}")
