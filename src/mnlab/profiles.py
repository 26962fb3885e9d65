"""Squared-volatility profiles on [0, 1] and their exact integrals.

A profile represents the function ``sigma^2(t) > 0`` driving a model.  The
covariance builders never sample profiles on a grid and sum; they ask the
profile for weighted integrals

    integral_a^b  p(u) * sigma^2(u) du,    p a polynomial,

over many cells at once (:meth:`VolatilityProfile.cell_integrals`), which
constant and piecewise-constant profiles answer in closed form, bump
profiles answer in closed form for the base level plus one checked
Gauss-Legendre pass per bump, and everything else answers by adaptive
quadrature per cell.  Polynomials are passed in shifted coordinates
(coefficients of powers of ``u - shift``) so that short-interval
integrals near ``u = shift`` come out at full relative precision instead
of through catastrophic cancellation.

This module owns quadrature, at one tolerance set.
:func:`checked_integral` is the only QUADPACK call in mnlab and raises
:class:`~mnlab.errors.QuadratureFailure` instead of returning a value
whose error estimate misses that tolerance.  :func:`checked_cells`
integrates a vectorised integrand over many intervals by Gauss-Legendre
rules of two orders and hands every interval where the two disagree by
more than that tolerance to :func:`checked_integral`.

Profiles are immutable and hold no caches, so they can be evaluated
concurrently.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.integrate import quad

from .errors import InvalidProfile, QuadratureFailure

__all__ = ["checked_integral", "checked_cells", "VolatilityProfile", "ConstantProfile",
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


def checked_integral(fn, a: float, b: float, breakpoints=()) -> float:
    """``integral_a^b fn(u) du`` by QUADPACK, checked against its error estimate.

    One tolerance set: epsabs 1e-15, epsrel 1e-12, at most 200
    subintervals, with the ``breakpoints`` inside ``(a, b)`` as forced
    subdivision points.  Raises :class:`QuadratureFailure` when QUADPACK
    returns a message or its error estimate exceeds
    ``max(epsabs, epsrel * |value|)``.  ``full_output`` returns QUADPACK's
    complaints instead of warning, so no process-global warning filter is
    touched and the helper is safe on thread pools.  An empty or reversed
    interval integrates to 0.
    """
    if b <= a:
        return 0.0
    interior = [p for p in breakpoints if a < p < b]
    value, err, _, *message = quad(fn, a, b, full_output=1, points=interior or None,
                                   epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                                   limit=QUAD_LIMIT)
    if message or err > max(QUAD_EPSABS, QUAD_EPSREL * abs(value)):
        reason = message[0].split("\n")[0] if message else "tolerance missed"
        raise QuadratureFailure(f"quadrature on [{a}, {b}] failed ({reason}): "
                                f"value {value:.6e}, error estimate {err:.3e}")
    return value


def checked_cells(fn, lo, hi) -> np.ndarray:
    """``integral_lo[k]^hi[k] fn(u, k) du`` for every interval ``k``, in one pass.

    ``fn(u, k)`` evaluates interval ``k``'s integrand at the points ``u``;
    it is called once per rule with ``u`` of shape ``(intervals, nodes)``
    and ``k`` the interval indices as a column, and with scalars on a
    fallback.  Each interval is integrated by Gauss-Legendre rules of 16
    and 24 nodes and keeps the 24-node value when the two agree within
    :func:`checked_integral`'s tolerance ``max(epsabs, epsrel * |Q24|)``.
    Any other interval, a non-finite one included, goes to
    :func:`checked_integral`, which raises :class:`QuadratureFailure` as
    it does on its own.  An interval's value does not depend on the other
    intervals of the call, bit for bit.  An empty or reversed interval
    integrates to 0.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float).ravel(),
                                 np.asarray(hi, dtype=float).ravel())
    half = np.maximum(hi - lo, 0.0) / 2.0
    mid = (lo + hi) / 2.0
    k = np.arange(lo.size)[:, None]
    q16, q24 = ((fn(mid[:, None] + half[:, None] * nodes, k) * weights).sum(axis=1) * half
                for nodes, weights in _gauss_legendre())
    missed = ~(np.abs(q16 - q24) <= np.maximum(QUAD_EPSABS, QUAD_EPSREL * np.abs(q24)))
    for i in np.flatnonzero(missed).tolist():
        q24[i] = checked_integral(lambda u, i=i: float(fn(np.asarray(u), i)),
                                  lo[i], hi[i])
    return q24


def _shifted_poly(coeffs, shift: float, u: float) -> float:
    """``sum_r coeffs[r] (u - shift)^r``."""
    v = u - shift
    p = 0.0
    for r, c in enumerate(coeffs):
        p += c * v**r
    return p


def _shifted_poly_antiderivative(coeffs, shift: float, x: float) -> float:
    """Antiderivative of ``sum_r coeffs[r] (u - shift)^r`` at ``u = x``."""
    v = x - shift
    total = 0.0
    for r, c in enumerate(coeffs):
        if c != 0.0:
            total += c * v ** (r + 1) / (r + 1)
    return total


def _cells(lo, hi, shift):
    """``lo``, ``hi`` and ``shift`` as flat float arrays of one length."""
    return np.broadcast_arrays(*(np.asarray(x, dtype=float).ravel()
                                 for x in (lo, hi, shift)))


class VolatilityProfile:
    """Base class: a positive function on [0, 1] with integral queries."""

    kind = "callable"

    def __init__(self, breakpoints=()):
        self.breakpoints = tuple(float(p) for p in breakpoints)

    def eval(self, t):
        raise NotImplementedError

    def poly_integral(self, a: float, b: float, shift: float, coeffs) -> float:
        """``integral_a^b sum_r coeffs[r] (u - shift)^r * sigma^2(u) du``."""
        return checked_integral(
            lambda u: _shifted_poly(coeffs, shift, u) * float(self.eval(u)),
            a, b, self.breakpoints,
        )

    def bump_integral(self, a: float, b: float, shift: float, coeffs) -> float:
        """``integral_a^b sum_r coeffs[r] (u - shift)^r * (sigma^2(u) - 1) du``.

        Only bump profiles, which sit on the base level 1, have a bump
        part.
        """
        raise InvalidProfile(f"a {self.kind} profile has no bump part")

    def cell_integrals(self, lo, hi, shift, coeffs, bump_only: bool = False) -> np.ndarray:
        """:meth:`poly_integral` over each cell ``[lo[k], hi[k]]``.

        ``lo``, ``hi`` and ``shift`` broadcast to one value per cell; the
        shared ``coeffs`` are in powers of ``u - shift[k]``.  Here each
        cell is one ``poly_integral`` call with Python floats, in cell
        order; a bump profile integrates each bump in one checked
        Gauss-Legendre pass instead.  Either way the result is
        bit-identical to the scalar loop.  ``bump_only`` integrates the
        bump part ``sigma^2 - 1`` instead (:meth:`bump_integral`), which is
        exactly zero on cells no bump touches.
        """
        integral = self.bump_integral if bump_only else self.poly_integral
        lo, hi, shift = _cells(lo, hi, shift)
        cells = zip(lo.tolist(), hi.tolist(), shift.tolist())
        return np.fromiter((integral(a, b, s, coeffs) for a, b, s in cells),
                           dtype=float, count=lo.size)


class ConstantProfile(VolatilityProfile):
    """``sigma^2(t) = value`` everywhere; all integrals in closed form."""

    kind = "constant"

    def __init__(self, value: float):
        if not value > 0.0:
            raise ValueError("a constant profile must be positive")
        super().__init__()
        self.value = float(value)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.value)
        return float(out) if out.ndim == 0 else out

    def poly_integral(self, a, b, shift, coeffs):
        if b <= a:
            return 0.0
        return self.value * (
            _shifted_poly_antiderivative(coeffs, shift, b)
            - _shifted_poly_antiderivative(coeffs, shift, a)
        )


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
        if any(x <= 0.0 or x >= 1.0 for x in breaks) or list(breaks) != sorted(set(breaks)):
            raise ValueError("breaks must be strictly increasing inside (0, 1)")
        if min(values) <= 0.0:
            raise ValueError("piecewise values must be positive")
        super().__init__(breakpoints=breaks)
        self.breaks = breaks
        self.values = values
        # the outer pieces extend beyond [0, 1], as in eval
        self._edges = (-np.inf,) + breaks + (np.inf,)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right"), 0, len(self.values) - 1)
        out = np.asarray(self.values, dtype=float)[idx]
        return float(out) if out.ndim == 0 else out

    def poly_integral(self, a, b, shift, coeffs):
        total = 0.0
        for k, v in enumerate(self.values):
            lo, hi = max(a, self._edges[k]), min(b, self._edges[k + 1])
            if hi > lo:
                total += v * (
                    _shifted_poly_antiderivative(coeffs, shift, hi)
                    - _shifted_poly_antiderivative(coeffs, shift, lo)
                )
        return total


class CallableProfile(VolatilityProfile):
    """Wrap an arbitrary positive function; integrals go through quadrature."""

    kind = "callable"

    def __init__(self, fn, lower: float, upper: float, breakpoints=()):
        if not 0.0 < lower <= upper:
            raise ValueError("bounds must satisfy 0 < lower <= upper")
        super().__init__(breakpoints)
        self._fn = fn

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._fn(t), dtype=float)
        return float(out) if out.ndim == 0 else out
