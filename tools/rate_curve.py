"""Time the Monte Carlo rate experiment one sample size at a time.

Usage::

    python3 tools/rate_curve.py --ns 1024,2048,4096,8192,16384 [--reps 500] [--seed 11] [--repeats 3]

Runs ``montecarlo.rate_experiment`` of the ``src/`` tree next to this
script with the MLE on one n at a time, each in a fresh process (by
``curve_point.run_point``), with the ``simulate-rate`` defaults of the
benchmark workload (sigma^2 1, tau 0.1, one worker).  Prints one JSON object: per n, the median seconds of
``--repeats`` experiments in that process, the median seconds of those
spent in ``montecarlo.mle_const_sigma_m1`` (the MLE stage: the sine
transform and the Newton solves) and in ``structures.sine_transform``
(each timed by wrapping it where ``montecarlo`` calls it), the minor page
faults over all the repeats (``ru_minflt`` of the process, after minus
before), the MSE and the process's peak resident memory.  A point that fails records its error
instead (``killed by signal N`` for a point killed by a signal), and the
curve goes on.  The fault counts are those of a fresh process: one that ran
larger arrays first, as the ``simulate-rate`` subcommand does over its
n list, can fault far less, because the allocator's thresholds have
grown by then.
"""

from __future__ import annotations

import argparse
import json
import sys

from curve_point import run_point

_POINT = """
import json, resource, statistics, sys, time
from mnlab import montecarlo
n, reps, seed, repeats = (int(x) for x in sys.argv[1:5])
spent = {"mle_const_sigma_m1": [], "sine_transform": []}

def timed(name):
    fn = getattr(montecarlo, name)

    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[name][-1] += time.perf_counter() - t0

    setattr(montecarlo, name, wrapper)

for name in spent:
    timed(name)
times = []
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(repeats):
    for name in spent:
        spent[name].append(0.0)
    t0 = time.perf_counter()
    mse = montecarlo.rate_experiment("m1", "mle", [n], reps, seed=seed).mse[0]
    times.append(time.perf_counter() - t0)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
print(json.dumps({"seconds": statistics.median(times),
                  "mle_seconds": statistics.median(spent["mle_const_sigma_m1"]),
                  "transform_seconds": statistics.median(spent["sine_transform"]),
                  "minor_faults": faults,
                  "mse": mse, "peak_rss_mb": rss}))
"""


def point(n: int, reps: int, seed: int, repeats: int) -> dict:
    return run_point(_POINT, n, reps, seed, repeats)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ns", default="1024,2048,4096,8192,16384")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    curve = {}
    for n in (int(x) for x in args.ns.split(",")):
        curve[str(n)] = point(n, args.reps, args.seed, args.repeats)
        sys.stderr.write(f"n={n}: {curve[str(n)]}\n")
    print(json.dumps(curve, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
