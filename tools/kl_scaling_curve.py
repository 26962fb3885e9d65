"""Time the exact-KL probe point by point: a scaling curve over n.

Usage::

    python3 tools/kl_scaling_curve.py [--models m1,m2,m3] [--ns 256,512,1024] [--repeats 3]

Runs ``certificate.kl_scaling_probe`` of the ``src/`` tree next to this
script on one sample size at a time, each in a fresh process (by
``curve_point.run_point``), with the ``kl-scaling`` defaults of the
benchmark workload (alpha 1, L 1, tau 0.1 for m1, 0.02 and width 0.25 for
m2, 0.01 for m3, width 0.125 otherwise).
Prints one JSON object: per model and n, the median seconds of
``--repeats`` probes in that process, the KL value, the kernel's route
(``Comparison.route``) and support size ``k``, the process's peak
resident memory, and from the second n on the local slope
``local_slope = (ln KL - ln KL_prev) / (ln n - ln n_prev)`` against the
previous n (per octave when the n double).  A point that fails records
its error instead (``killed by signal N`` for a point killed by a
signal), and the next point has no slope.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from curve_point import run_point

SETTINGS = {"m1": (0.1, 0.125), "m2": (0.02, 0.25), "m3": (0.01, 0.125)}

_POINT = """
import json, resource, statistics, sys, time
from mnlab import certificate
from mnlab.certificate import kl_scaling_probe
seen = []  # (route, k) of each comparison; a comparison keeps no k x k block
compare = certificate.compare
def recording(*args):
    comparison = compare(*args)
    seen.append((comparison.route, comparison.support.k))
    return comparison
certificate.compare = recording
model, n, tau, width, repeats = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), \\
    float(sys.argv[4]), int(sys.argv[5])
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    kl = kl_scaling_probe(model, 1.0, 1.0, tau, [n], bump_width=width).kl_values[0]
    times.append(time.perf_counter() - t0)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
print(json.dumps({"seconds": statistics.median(times), "kl": kl, "route": seen[-1][0],
                  "k": seen[-1][1], "peak_rss_mb": rss}))
"""


def point(model: str, n: int, repeats: int) -> dict:
    tau, width = SETTINGS[model]
    return run_point(_POINT, model, n, tau, width, repeats)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--models", default="m1,m2,m3")
    p.add_argument("--ns", default="256,512,1024,2048,4096")
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    curve = {}
    for model in args.models.split(","):
        curve[model] = {}
        prev = None
        for n in (int(x) for x in args.ns.split(",")):
            row = curve[model][str(n)] = point(model, n, args.repeats)
            if "kl" in row and prev is not None and "kl" in prev[1]:
                row["local_slope"] = math.log(row["kl"] / prev[1]["kl"]) / math.log(n / prev[0])
            prev = n, row
            sys.stderr.write(f"{model} n={n}: {row}\n")
    print(json.dumps(curve, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
