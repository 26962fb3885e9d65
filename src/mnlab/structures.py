"""Structured matrices with closed-form spectral theory.

The first-difference Gram matrix ``A`` (tridiagonal, corner entry 1 at the
top), the running-minimum matrix ``Q = (min(i, j)))`` and its tridiagonal
inverse, and the two-entry matrix ``V1`` all appear in the exact
covariance algebra of the noisy volatility models.
``A`` and ``Q^-1`` share the closed-form spectrum

    lambda_i = 4 sin^2((2i - 1) pi / (4n + 2)),   i = 1..n  (ascending),

with sine eigenvectors; the orthonormal sine basis of ``A`` also powers an
O(n log n) transform used for exact maximum likelihood under constant
volatility: one chirp-z (Bluestein) kernel on power-of-two FFTs serves
both directions, one sample at a time or a block of samples per FFT call.
The kernel allocates no FFT-length numpy array on a repeat call: it
works in one complex workspace per thread, shaped like its input with
the FFT length as the last axis, replaced when the shape changes and
never returned, so a result never shares memory with it.

Ordering convention: :func:`eigvals_closed` returns the spectrum ascending
(position i, 1-based, is the i-th smallest); descending reports elsewhere
index it as ``values[n - i]``.
"""

from __future__ import annotations

import functools
import threading

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

    Equivalent to ``sine_basis_dense(n).T @ data`` but computed by
    Bluestein's chirp-z identity on power-of-two FFTs of length about 2n,
    exact to rounding and O(n log n); the dense product would need O(n^2)
    memory, which is prohibitive at n = 2^14.  Orthonormality makes the
    transform an isometry and an involution up to
    :func:`sine_transform_inverse`.  With ``M = 2n + 1`` and ``l = n - k +
    1``, ``sin(pi (2k - 1) j / M) = (-1)^(j+1) sin(2 pi l j / M)``, so
    coordinate k is the kernel's output l on the reversed data.

    A 2-d ``data`` is a block of samples, one per row, transformed by one
    FFT call over the rows; each row of the result equals the transform
    of that row alone bit for bit.
    """
    x = _as_block(data, "data")
    return _sine_kernel(x[..., ::-1], signs_on_input=True)[..., ::-1]


def sine_transform_inverse(coeffs) -> np.ndarray:
    """Inverse of :func:`sine_transform`, of a vector or a block of rows.

    Synthesis is the transposed sum and the kernel's matrix is symmetric,
    so the same kernel runs with the alternating signs on its output.
    """
    c = _as_block(coeffs, "coeffs")
    return _sine_kernel(c[..., ::-1], signs_on_input=False)[..., ::-1]


def _as_block(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array or 2-d block")
    return x


@functools.lru_cache(maxsize=1)
def _bluestein_plan(n: int):
    """Chirps and convolution response of the length-n sine kernel.

    ``chirp`` is ``exp(-i pi j^2 / M)`` for ``j = 1..n`` and ``signed`` is
    it times ``(-1)^(j+1)``; ``response`` is the FFT of the conjugate chirp
    over the offsets ``1 - n..n``, laid out circularly in a power-of-two
    length ``>= 2n`` (so no output wraps) and scaled by ``-2 / sqrt(M)``.
    Squares are reduced mod 2M in integers, so every angle is below 2 pi.
    One n is cached: the rate experiment runs one n at a time.
    """
    full = 2 * n + 1
    offsets = np.arange(1 - n, n + 1)
    wave = np.exp(1j * np.pi * ((offsets * offsets) % (2 * full)) / full)
    chirp = wave[n:].conj()
    signed = np.where(np.arange(n) % 2 == 0, chirp, -chirp)
    layout = np.zeros(1 << (2 * n - 1).bit_length(), dtype=complex)
    layout[offsets % layout.size] = wave
    response = np.fft.fft(layout) * (-2.0 / np.sqrt(full))
    for a in (chirp, signed, response):
        a.flags.writeable = False
    return chirp, signed, response


def _sine_kernel(z: np.ndarray, signs_on_input: bool) -> np.ndarray:
    """``-2 / sqrt(M) Im sum_{j=1..n} z_j exp(-2 pi i l j / M)``, l = 1..n.

    The signs ``(-1)^(j+1)`` multiply the input, or else the output.  By
    ``2 l j = l^2 + j^2 - (l - j)^2`` the sum is a chirp times a circular
    convolution: one FFT and one inverse FFT per row.  Both FFTs and the
    products before them run in place in the calling thread's workspace
    (see :func:`_workspace`), which has the input's own shape, so a row of
    a block meets the same loops as that row alone.  The product with the
    output chirp stays out of place: it is the result, and a view of the
    workspace would be overwritten by the thread's next call.
    """
    n = z.shape[-1]
    chirp, signed, response = _bluestein_plan(n)
    chirp_in, chirp_out = (signed, chirp) if signs_on_input else (chirp, signed)
    buf = _workspace(z.shape[:-1] + (response.size,))
    np.multiply(z, chirp_in, out=buf[..., :n])
    buf[..., n:] = 0.0
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= response
    np.fft.ifft(buf, axis=-1, out=buf)
    return (buf[..., :n] * chirp_out).imag


_local = threading.local()


def _workspace(shape: tuple) -> np.ndarray:
    """The calling thread's complex work array of ``shape``.

    One per thread, kept between calls and replaced when the shape
    changes; it never leaves the kernel.  Reusing it keeps the kernel from
    allocating four or five arrays of the full FFT length per call, which
    the allocator serves from fresh pages that then fault in again.
    """
    buf = getattr(_local, "buf", None)
    if buf is None or buf.shape != shape:
        buf = _local.buf = np.empty(shape, dtype=complex)
    return buf


def _require_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n!r}")
