"""Tiny least-squares helpers shared by the probe and experiment modules."""

from __future__ import annotations

import numpy as np

__all__ = ["ols_slope"]


def ols_slope(x, y) -> tuple[float, float]:
    """Slope and its standard error from the simple regression of y on x.

    A value the points cannot determine is NaN: the slope of fewer than
    two points, and the standard error of two, which leave no residual
    degrees of freedom (their residual is rounding noise).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("need two same-length samples")
    if x.size < 2:
        return float("nan"), float("nan")
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValueError("x values are all identical")
    slope = float(np.sum(xc * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    if dof == 0:
        return slope, float("nan")
    return slope, float(np.sqrt(np.sum(resid**2) / dof / sxx))
