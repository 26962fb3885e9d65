"""Exact covariances of the three observation models and their structure.

Builds raw and differenced covariances, confirms the structured forms of
the differenced null covariances, and surfaces the two places where the
compact displays deviate from the exact matrices: the (1,1) signal entry
and the bottom-corner noise entry of the second-differenced model.
"""

import math

import numpy as np

from mnlab import models
from mnlab.profiles import ConstantProfile, PiecewiseConstantProfile
from mnlab.structures import matrix_a

one = ConstantProfile(1.0)
n, tau = 64, 0.1

# model m1: differenced covariance is exactly (1/n) I + tau^2 A
spec1 = models.ModelSpec("m1", n, tau)
cov1 = models.cov_differenced(spec1, one)
dev = np.max(np.abs(cov1 - (np.eye(n) / n + tau**2 * matrix_a(n))))
print(f"m1 differenced vs (1/n) I + tau^2 A: {dev:.2e}")

# model m2 with a step profile: the raw covariance is a sandwich
step = PiecewiseConstantProfile([0.5], [1.0, 1.44])
spec2 = models.ModelSpec("m2", n, tau)
cov2 = models.cov_raw(spec2, step)
s = np.sqrt(step.eval(np.arange(1, n + 1) / n))
i = np.arange(1, n + 1)
sandwich = np.outer(s, s) * (np.minimum.outer(i, i) / n) + tau**2 * np.eye(n)
print(f"m2 raw vs sandwich form:              {np.max(np.abs(cov2 - sandwich)):.2e}")

# model m3 second differences: tridiagonal signal at the 1/n^3 scale
spec3 = models.ModelSpec("m3", n, tau)
sig = models.cov_differenced(models.ModelSpec("m3", n, 0.0), one)
n3 = float(n) ** 3
print(f"m3 signal diag * 3n^3/2:              {np.diag(sig)[4] * 3 * n3 / 2:.12f}"
      f"  (interior, exact 1)")
print(f"m3 signal (1,2) * 6n^3:               {sig[0, 1] * 6 * n3:.12f}"
      f"  (exact sqrt 2 = {math.sqrt(2):.12f})")

# the reference decomposition is right except at the two corners
exact = models.cov_differenced(spec3, one)
reference = models.model3_reference_decomposition(n, tau)
print(f"reference decomposition, off corner:  "
      f"{np.max(np.abs((exact - reference)[1:, 1:])):.2e}")
print(f"(1,1) discrepancy * 6n^3:             "
      f"{(reference[0, 0] - exact[0, 0]) * 6 * n3:.6f}  (structured form overshoots)")

v2 = models.extract_v2(n, tau)
print(f"noise residual corner (1,2):          {v2[0, 1]:.6f}"
      f"  (exact 3 - 2 sqrt 2 = {3 - 2 * math.sqrt(2):.6f})")
print(f"noise residual bottom corner (n,n):   {v2[-1, -1]:.1f}"
      f"  (outside the 3x3 block; the compact display omits it)")
