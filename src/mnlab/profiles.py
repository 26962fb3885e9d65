"""Squared-volatility profiles on [0, 1] and their exact integrals.

A profile represents the function ``sigma^2(t) > 0`` driving a model.  The
covariance builders never sample profiles on a grid and sum; they ask the
profile for weighted integrals

    integral_a^b  p(u) * sigma^2(u) du,    p a polynomial,

one cell at a time (:meth:`VolatilityProfile.cell_integrals`), which
constant and piecewise-constant profiles answer in closed form and
everything else answers by adaptive quadrature.  Polynomials are passed in
shifted coordinates (coefficients of powers of ``u - shift``) so that
short-interval integrals near ``u = shift`` come out at full relative
precision instead of through catastrophic cancellation.

This module owns quadrature: :func:`checked_integral` is the only QUADPACK
call in mnlab, at one tolerance set, and it raises
:class:`~mnlab.errors.QuadratureFailure` instead of returning a value
whose error estimate misses that tolerance.

Profiles are immutable and hold no caches, so they can be evaluated
concurrently.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .errors import InvalidProfile, QuadratureFailure

__all__ = ["checked_integral", "VolatilityProfile", "ConstantProfile",
           "PiecewiseConstantProfile", "CallableProfile"]

# the one tolerance set of every quadrature in mnlab
QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT = 1e-15, 1e-12, 200


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


class VolatilityProfile:
    """Base class: a positive function on [0, 1] with integral queries."""

    kind = "callable"

    def __init__(self, lower: float, upper: float, breakpoints=()):
        if not 0.0 < lower <= upper:
            raise ValueError("bounds must satisfy 0 < lower <= upper")
        self.lower = float(lower)
        self.upper = float(upper)
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
        shared ``coeffs`` are in powers of ``u - shift[k]``.  Each cell is
        one ``poly_integral`` call with Python floats, in cell order, so
        the result is bit-identical to the scalar loop.  ``bump_only``
        integrates the bump part ``sigma^2 - 1`` instead
        (:meth:`bump_integral`), which is exactly zero on cells no bump
        touches.
        """
        integral = self.bump_integral if bump_only else self.poly_integral
        lo, hi, shift = np.broadcast_arrays(
            *(np.asarray(x, dtype=float).ravel() for x in (lo, hi, shift)))
        cells = zip(lo.tolist(), hi.tolist(), shift.tolist())
        return np.fromiter((integral(a, b, s, coeffs) for a, b, s in cells),
                           dtype=float, count=lo.size)


class ConstantProfile(VolatilityProfile):
    """``sigma^2(t) = value`` everywhere; all integrals in closed form."""

    kind = "constant"

    def __init__(self, value: float):
        super().__init__(value, value)
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
        super().__init__(min(values), max(values), breakpoints=breaks)
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
        super().__init__(lower, upper, breakpoints)
        self._fn = fn

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._fn(t), dtype=float)
        return float(out) if out.ndim == 0 else out
