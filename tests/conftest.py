import re

import numpy as np

from mnlab.kl import block_array
from mnlab.linalg import sym


def rand_sym(rng, n, scale=1.0):
    return sym(scale * rng.standard_normal((n, n)))


def rand_psd(rng, n, extra=4, floor=0.0):
    w = rng.standard_normal((n, n + extra))
    return sym(w @ w.T / (n + extra) + floor * np.eye(n))


def failing_pivot(excinfo) -> int:
    """The 0-based pivot that a positive-definiteness refusal names."""
    return int(re.search(r"pivot (\d+)", str(excinfo.value)).group(1))


def as_runs(support):
    """A kernel support as ``(start, stop)`` rows: indices are runs of one."""
    support = np.asarray(support, dtype=np.intp)
    return np.column_stack((support, support + 1)) if support.ndim == 1 else support


def scatter(n, support, block):
    """``W B W^T`` as a dense n x n array, ``W`` holding one column
    ``1_run / sqrt(len)`` per run; for indices, ``B`` placed exactly.  A
    vector ``B`` is the diagonal block ``np.diag(B)``, a builder's block
    is built."""
    runs = as_runs(support)
    block = np.diag(block) if np.ndim(block) == 1 else block_array(block, len(runs))
    w = np.zeros((n, len(runs)))
    for r, (start, stop) in enumerate(runs):
        w[start:stop, r] = 1.0 / np.sqrt(stop - start)
    return sym(w @ block @ w.T)


def quad_points(profile, lo, hi):
    """Where ``profile`` is not smooth strictly inside ``(lo, hi)``, as
    scipy ``quad``'s ``points`` (``None`` when there are none): the jumps of
    a step profile, the support edges ``centers +- h/2`` of a bump profile."""
    if hasattr(profile, "breaks"):
        edges = profile.breaks
    elif hasattr(profile, "centers"):
        edges = np.unique(np.concatenate((profile.centers - profile.h / 2.0,
                                          profile.centers + profile.h / 2.0)))
    else:
        edges = ()
    return [float(p) for p in edges if lo < p < hi] or None
