"""Run one point of a curve tool in a fresh process and read its JSON.

The curve tools (``kl_scaling_curve.py``, ``rate_curve.py``) time each
point in a process of its own, so its peak memory and page faults are its
own.  :func:`run_point` runs a point's Python source with the ``src/``
tree next to this script on ``PYTHONPATH`` and the given arguments, and
returns the JSON object the point prints on stdout.  A point that fails
returns ``{"error": ...}`` instead: ``killed by signal N`` for a point
killed by a signal, and otherwise the last line of its stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_point(source: str, *args) -> dict:
    """Run ``python -c source args...`` and return its JSON or its error."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", source, *(str(a) for a in args)],
                          capture_output=True, text=True, env=env)
    if proc.returncode < 0:
        # a point killed by a signal (the OOM killer at large n) writes no stderr
        return {"error": f"killed by signal {-proc.returncode}"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1]}
    return json.loads(proc.stdout)
