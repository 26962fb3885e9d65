"""Squared-volatility profiles on [0, 1] and their exact integrals.

A profile represents the function ``sigma^2(t) > 0`` driving a model.  The
covariance builders never sample profiles on a grid and sum; they ask the
profile for weighted integrals

    integral_a^b  p(u) * sigma^2(u) du,    p a polynomial,

over many cells at once (:meth:`VolatilityProfile.cell_integrals`), which
constant and piecewise-constant profiles answer in closed form, bump
profiles answer in closed form for the base level plus one checked
Gauss-Legendre pass per bump, and everything else answers by one checked
pass over all cells.  It is a profile's only integral query: one interval
is a query of one cell.  Polynomials are passed in shifted coordinates
(coefficients of powers of ``u - shift``) so that short-interval
integrals near ``u = shift`` come out at full relative precision instead
of through catastrophic cancellation.

This module owns quadrature, one routine at one tolerance set:
:func:`checked_cells` integrates a vectorised integrand over many
intervals by Gauss-Legendre rules of 16 and 24 nodes.  A piece whose two
values differ by more than ``max(1e-15, 1e-12 * |Q24|)`` is halved and
integrated again in the next pass; an interval that needs more than 200
pieces, or meets a non-finite value, raises
:class:`~mnlab.errors.QuadratureFailure` instead of returning an
unchecked value.  The 1e-15 is absolute, so integrals below 1e-3 are
checked to 1e-15, not to 1e-12 relative.

Profiles are immutable and hold no caches, so they can be evaluated
concurrently.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureFailure

__all__ = ["checked_cells", "VolatilityProfile", "ConstantProfile",
           "PiecewiseConstantProfile", "CallableProfile"]

# the one tolerance set of every quadrature in mnlab
QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT = 1e-15, 1e-12, 200


@functools.cache
def _gauss_legendre():
    """Nodes and weights on [-1, 1] of the 16-node check and the 24-node rule.

    Built on first use, not at import: ``leggauss`` is an eigenvalue
    problem, and the first LAPACK call adds about 1 MB of resident memory
    to processes that never integrate (``montecarlo`` imports this module).
    """
    return tuple(np.polynomial.legendre.leggauss(nodes) for nodes in (16, 24))


def checked_cells(fn, lo, hi) -> np.ndarray:
    """``integral_lo[k]^hi[k] fn(u, k) du`` for every interval ``k``, checked.

    ``fn(u, k)`` evaluates interval ``k``'s integrand at the points ``u``;
    it is called once per rule and pass with ``u`` of shape ``(pieces,
    nodes)`` and ``k`` the pieces' interval indices as a column.  Each
    piece, at first the whole interval, is integrated by Gauss-Legendre
    rules of 16 and 24 nodes and keeps its 24-node value when the two
    agree within ``max(QUAD_EPSABS, QUAD_EPSREL * |Q24|)``; any other
    piece is halved and both halves go to the next pass.  An interval's
    value is the sum of its kept pieces, so one that passes at once is its
    24-node value, and it does not depend on the other intervals of the
    call, bit for bit.  ``QUAD_EPSABS`` is absolute: an integral below
    1e-3 is checked to 1e-15, not to 1e-12 relative.  More than
    ``QUAD_LIMIT`` pieces for one interval, or a non-finite value, raises
    :class:`QuadratureFailure` naming the interval.  An empty or reversed
    interval integrates to 0.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float).ravel(),
                                 np.asarray(hi, dtype=float).ravel())
    # -0.0 is the additive identity: a piece added to it keeps its bits
    total = np.full(lo.size, -0.0)
    pieces = np.ones(lo.size, dtype=int)
    k, a, b = np.arange(lo.size), lo, hi
    while k.size:
        half = np.maximum(b - a, 0.0) / 2.0
        mid = (a + b) / 2.0
        q16, q24 = ((fn(mid[:, None] + half[:, None] * nodes, k[:, None]) * weights)
                    .sum(axis=1) * half for nodes, weights in _gauss_legendre())
        gap = np.abs(q16 - q24)
        missed = ~(gap <= np.maximum(QUAD_EPSABS, QUAD_EPSREL * np.abs(q24)))
        np.add.at(pieces, k[missed], 1)
        for failed, reason in ((k[~np.isfinite(gap)], "a non-finite value"),
                               (np.flatnonzero(pieces > QUAD_LIMIT),
                                f"more than {QUAD_LIMIT} pieces")):
            if failed.size:
                i = failed[0]
                raise QuadratureFailure(f"quadrature on [{lo[i]}, {hi[i]}] failed ({reason})")
        np.add.at(total, k[~missed], q24[~missed])
        k, a, b, mid = k[missed], a[missed], b[missed], mid[missed]
        k, a, b = (np.repeat(k, 2), np.column_stack((a, mid)).ravel(),
                   np.column_stack((mid, b)).ravel())
    return total


def _shifted_poly(coeffs, shift, u):
    """``sum_r coeffs[r] (u - shift)^r``, elementwise."""
    v = u - shift
    p = 0.0
    for r, c in enumerate(coeffs):
        p += c * v**r
    return p


def _closed_form_cells(lo, hi, shift, coeffs) -> np.ndarray:
    """``integral_lo^hi sum_r coeffs[r] (u - shift)^r du`` per cell, 0 where
    ``hi <= lo``, in one pass over the cells.

    The antiderivative sums ``coeffs[r] v^(r+1) / (r+1)``, ``v = x - shift``,
    over the nonzero coefficients from 0.0, as the same loop in Python
    floats would, and gives its bits: products, quotients and sums are
    IEEE's in both, and a power ``v^k`` with k >= 2 is Python's ``v ** k``
    (libm ``pow``), which numpy's vectorised ``power`` does not match.
    """
    def antiderivative(x):
        v = x - shift
        total = np.zeros(v.shape)
        for r, c in enumerate(coeffs):
            if c != 0.0:
                vk = v if r == 0 else np.array([vi ** (r + 1) for vi in v.tolist()])
                total += c * vk / (r + 1)
        return total

    return np.where(hi > lo, antiderivative(hi) - antiderivative(lo), 0.0)


def _cells(lo, hi, shift):
    """``lo``, ``hi`` and ``shift`` as flat float arrays of one length."""
    return np.broadcast_arrays(*(np.asarray(x, dtype=float).ravel()
                                 for x in (lo, hi, shift)))


class VolatilityProfile:
    """Base class: a positive function on [0, 1] with integral queries."""

    kind = "callable"

    def eval(self, t):
        raise NotImplementedError

    def cell_integrals(self, lo, hi, shift, coeffs) -> np.ndarray:
        """``integral_lo[k]^hi[k] sum_r coeffs[r] (u - shift[k])^r * sigma^2(u) du``
        for each cell ``k``.

        ``lo``, ``hi`` and ``shift`` broadcast to one value per cell; the
        shared ``coeffs`` are in powers of ``u - shift[k]``.  Here all cells
        go through one :func:`checked_cells` pass, so each cell's value is
        the one a call for that cell alone gives, bit for bit; constant and
        piecewise profiles answer in one closed-form pass over the cells
        per piece, and a bump profile integrates each bump in one checked
        Gauss-Legendre pass.  An empty or reversed cell integrates to 0.
        """
        lo, hi, shift = _cells(lo, hi, shift)
        return checked_cells(
            lambda u, k: _shifted_poly(coeffs, shift[k], u) * self.eval(u), lo, hi)


class PiecewiseConstantProfile(VolatilityProfile):
    """Step function: ``values[k]`` on the k-th interval between breaks.

    ``breaks`` are the interior jump points (strictly increasing, inside
    (0, 1)); ``values`` has one more entry than ``breaks``.
    """

    kind = "piecewise"

    def __init__(self, breaks, values):
        breaks = tuple(float(x) for x in breaks)
        values = tuple(float(v) for v in values)
        if len(values) != len(breaks) + 1:
            raise ValueError("need exactly len(breaks) + 1 values")
        if not all(0.0 < x < 1.0 for x in breaks) or list(breaks) != sorted(set(breaks)):
            raise ValueError("breaks must be strictly increasing inside (0, 1)")
        if not all(0.0 < v < np.inf for v in values):
            raise ValueError("profile values must be positive and finite")
        self.breaks = breaks
        self.values = values
        # the outer pieces extend beyond [0, 1], as in eval
        self._edges = (-np.inf,) + breaks + (np.inf,)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right"), 0, len(self.values) - 1)
        out = np.asarray(self.values, dtype=float)[idx]
        return float(out) if out.ndim == 0 else out

    def cell_integrals(self, lo, hi, shift, coeffs) -> np.ndarray:
        """One closed-form pass per piece over all cells, each cell clipped
        to the piece, bit-identical to the same sum per cell in Python
        floats (a piece a cell misses adds +0.0)."""
        lo, hi, shift = _cells(lo, hi, shift)
        total = np.zeros(lo.size)
        for k, v in enumerate(self.values):
            total += v * _closed_form_cells(np.maximum(lo, self._edges[k]),
                                            np.minimum(hi, self._edges[k + 1]),
                                            shift, coeffs)
        return total


class ConstantProfile(PiecewiseConstantProfile):
    """``sigma^2(t) = value`` everywhere: the step profile of one piece."""

    kind = "constant"

    def __init__(self, value: float):
        super().__init__((), (value,))


class CallableProfile(VolatilityProfile):
    """Wrap an arbitrary positive function; integrals go through quadrature."""

    kind = "callable"

    def __init__(self, fn):
        self._fn = fn

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._fn(t), dtype=float)
        return float(out) if out.ndim == 0 else out
