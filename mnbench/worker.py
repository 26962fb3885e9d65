"""Workload process: runs CLI invocations one at a time through mnlab.cli.main.

Usage: python3 worker.py SPEC.json

The spec names the source tree to import ``mnlab`` from, the invocations
(argv and report path), whether to record spans, and where to write the
result.  The process marks set-up done once imports are finished and the
first invocation's arguments are parsed; with no invocations it exits
there, which is how the benchmark measures set-up time alone.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import spans


def _load_mnlab(src: str):
    sys.path.insert(0, src)
    import mnlab.cli

    here = os.path.realpath(mnlab.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"mnlab imported from {here}, not from {src}")
    return mnlab.cli


def _environment() -> dict:
    """Versions of the numerical stack as this process loaded it."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _run_one(cli, argv) -> tuple:
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception:  # the benchmark records the failure and goes on
        return None, traceback.format_exc()
    return (code if isinstance(code, int) else 1), None


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _load_mnlab(spec["src"])
    invocations = spec["invocations"]
    build_parser = getattr(cli, "build_parser", None)
    if invocations and build_parser is not None:
        build_parser().parse_args(list(invocations[0]["argv"]))
    result = {"t_setup": time.monotonic(), "invocations": [], "absent": []}

    if not invocations:
        result["environment"] = _environment()

    recorder = None
    if spec.get("trace"):
        recorder = spans.SpanRecorder()
        result["absent"] = spans.install(recorder)

    for inv in invocations:
        if recorder is not None:
            recorder.run_id = f"{spec['run_id']}/{inv['name']}"
        if os.path.exists(inv["out"]):
            os.remove(inv["out"])  # a stale report must not pass for this one
        t0 = time.monotonic()
        code, error = _run_one(cli, list(inv["argv"]) + ["--out", inv["out"]])
        t1 = time.monotonic()
        try:
            with open(inv["out"], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digest = None
        result["invocations"].append({
            "name": inv["name"], "exit_code": code, "error": error,
            "t_start": t0, "t_end": t1, "sha256": digest,
        })

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(recorder.records(), fh)
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
