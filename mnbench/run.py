"""mnlab benchmark: three CLI workloads with an outside-in layer trace.

Usage (from the root of a checkout):

    python3 mnbench/run.py --workload cert-m1 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  Each repeat is one workload
process that runs the workload's CLI invocations one at a time through
``mnlab.cli.main`` with ``--workers 1`` and BLAS threads capped at the
number of CPUs; nothing else runs meanwhile (a closed loop of one
client).  Repeats continue until ``--seconds`` have passed (at least one).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced and one traced repeat and prints the
per-layer metrics from the spans of the traced one.  Every report is
checked by the correctness gate (``gate.py``) and for determinism: its
bytes must equal those of the same invocation in the run's first repeat,
and the traced report must equal the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, seeds, samples and every failure).
Results and spans are also written under ``mnbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

RUN_LIMIT_S = 170.0   # a run must end within 180 s
SETUP_PROBES = 3      # set-up-only processes per run, after one warm-up

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_KL_NS = (256, 512, 1024, 2048, 4096)
_SIM_NS = (1024, 2048, 4096, 8192, 16384)

PER_LAYER = (
    [(f"linalg.cholesky_lower.{f}", u) for f, u in
     (("calls", "count"), ("self_s", "s"), ("repeat_ratio", "ratio"),
      ("gflop_computed", "GFLOP"))]
    + [(f"linalg.check_symmetric.{f}", u) for f, u in
       (("calls", "count"), ("self_s", "s"), ("repeat_ratio", "ratio"))]
    + [(f"{name}.{f}", u)
       for name in ("linalg.loewner_leq", "linalg.is_psd", "kl.kl_exact",
                    "kl.kl_bound", "models.cov_differenced",
                    "profiles.poly_integral", "hypotheses.holder_check",
                    "hypotheses.l2_separation", "structures.sine_transform",
                    "structures.eigvals_closed",
                    "montecarlo.sample_m1_constant_diff",
                    "montecarlo.mle_const_sigma_m1")
       for f, u in (("calls", "count"), ("self_s", "s"))]
    + [("models.cov_differenced.dense_mb", "MB")]
    + [(f"montecarlo.mle_const_sigma_m1.{q}_ms.n{n}", "ms")
       for n in _SIM_NS for q in ("p50", "p98")]
    + [(f"{name}.self_s", "s")
       for name in ("hypotheses.build_family", "certificate.evaluate",
                    "certificate.kl_scaling_probe", "cli.main",
                    "reporting.write_report")]
    + [("reporting.write_report.bytes", "bytes")]
    + [(f"{name}.self_s.{m}.n{n}", "s")
       for name in ("kl.kl_exact", "models.cov_differenced",
                    "linalg.cholesky_lower", "linalg.check_symmetric")
       for m in ("m1", "m2", "m3") for n in _KL_NS]
    + [(f"models.cov_differenced.dense_mb.{m}.n4096", "MB")
       for m in ("m1", "m2", "m3")]
    + [("bench.unattributed_s", "s"), ("bench.span_coverage_frac", "ratio"),
       ("bench.trace_overhead_frac", "ratio")]
)


# ---------------------------------------------------------------------------
# small helpers


def summarize(values: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values),
           "values": list(values)}
    k = len(values)
    if k >= 11:
        p = int(100 * (1 - 10 / k))
        cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        out[f"p{p}"] = cut
    return out


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# workload processes


class WorkerFailed(RuntimeError):
    """A workload process could not run at all."""


class Runner:
    """Starts workload processes until a deadline; names their files by tag."""

    def __init__(self, deadline: float, tag: str):
        self.deadline = deadline
        self.tag = tag
        self.count = 0
        self.env = dict(os.environ)
        threads = str(blas_threads())
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads
        self.env["PYTHONPATH"] = SRC
        self.env.pop("MNLAB_SEED", None)

    def spawn(self, invocations=(), trace=False) -> dict:
        """Run one workload process; return its result with wall and set-up."""
        self.count += 1
        name = f"{self.tag}-p{self.count}"
        spec = {
            "src": SRC, "trace": trace, "run_id": name,
            "result_out": os.path.join(WORK, f"{name}.result.json"),
            "spans_out": os.path.join(WORK, f"{self.tag}.spans.json"),
            "invocations": [
                {"name": inv.name, "argv": list(inv.argv),
                 "out": os.path.join(WORK, f"{name}-{inv.name}.json")}
                for inv in invocations
            ],
        }
        spec_path = os.path.join(WORK, f"{name}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        log_path = os.path.join(WORK, f"{name}.log")
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        if code != 0:
            with open(log_path, "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            raise WorkerFailed(f"workload process exited with {code}:\n{tail}")
        with open(spec["result_out"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_setup"] - t0
        if result["invocations"]:
            result["wall_s"] = result["invocations"][-1]["t_end"] - t0
            result["compute_s"] = result["invocations"][-1]["t_end"] - result["t_setup"]
        result["spec"] = spec
        return result


def check_repeat(result: dict, workload, reference, first: dict, scale: str,
                 mismatch: str = "report bytes differ from the first repeat") -> list:
    """Gate, exit-code and determinism problems, one entry per invocation.

    ``first`` maps each invocation to the report digest of the run's first
    repeat; it is filled from ``result`` when empty.
    """
    outcomes = []
    for inv, spec_inv, got in zip(workload.invocations,
                                  result["spec"]["invocations"],
                                  result["invocations"]):
        problems = []
        if got["error"]:
            problems.append("exception: " + got["error"].strip().splitlines()[-1])
        if got["exit_code"] != inv.expect_exit:
            problems.append(f"exit code {got['exit_code']}, expected {inv.expect_exit}")
        if got["sha256"] is None:
            problems.append("no report written")
        else:
            with open(spec_inv["out"], "rb") as fh:
                payload = fh.read()
            problems += gate.check(payload, reference, inv.name, workload.seed,
                                   scale == "full")
            if first.setdefault(inv.name, got["sha256"]) != got["sha256"]:
                problems.append(mismatch)
        outcomes.append({"invocation": inv.name, "sha256": got["sha256"],
                         "problems": problems})
    return outcomes


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(records: list, compute_s: float) -> dict:
    """Every per-layer metric the spans of one traced repeat give."""
    own = spans.self_times(records)
    metrics = {}

    def add(key, value):
        metrics[key] = metrics.get(key, 0) + value

    seen = {}
    for s, self_s in zip(records, own):
        name = s["name"]
        if name.startswith(spans.HARNESS_PREFIX):
            continue
        extra = s["extra"] or {}
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        if s["model"] is not None and s["n"] is not None:
            suffix = f".{s['model']}.n{s['n']}"
            add(f"{name}.calls{suffix}", 1)
            add(f"{name}.self_s{suffix}", self_s)
            if "dense_bytes" in extra:
                add(f"{name}.dense_mb{suffix}", extra["dense_bytes"] / 1e6)
        if "dense_bytes" in extra:
            add(f"{name}.dense_mb", extra["dense_bytes"] / 1e6)
        if "bytes" in extra:
            add(f"{name}.bytes", extra["bytes"])
        if "digest" in extra:
            digests = seen.setdefault((name, s["run_id"]), set())
            add(f"{name}.repeats", 1 if extra["digest"] in digests else 0)
            digests.add(extra["digest"])
        if name == "linalg.cholesky_lower" and s["n"]:
            add(f"{name}.gflop_computed", s["n"] ** 3 / 3.0 / 1e9)

    for name in spans.DIGESTED:
        calls = metrics.get(f"{name}.calls", 0)
        repeats = metrics.pop(f"{name}.repeats", 0)
        metrics[f"{name}.repeat_ratio"] = repeats / calls if calls else 0.0

    latencies = {}
    for s in records:
        if s["name"] == "montecarlo.mle_const_sigma_m1":
            latencies.setdefault(s["n"], []).append(1e3 * (s["end"] - s["start"]))
    for n, values in latencies.items():
        if len(values) >= 2:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            metrics[f"montecarlo.mle_const_sigma_m1.p50_ms.n{n}"] = cuts[49]
            metrics[f"montecarlo.mle_const_sigma_m1.p98_ms.n{n}"] = cuts[97]

    harness = spans.harness_seconds(records)
    program = compute_s - harness
    unattributed = spans.unattributed_seconds(records, program)
    metrics["bench.harness_s"] = harness
    metrics["bench.unattributed_s"] = unattributed
    metrics["bench.span_coverage_frac"] = 1.0 - unattributed / program if program > 0 else 0.0
    return metrics


def coverage_problem(metrics: dict) -> str | None:
    """Why the named spans do not cover enough compute time (None: they do)."""
    frac = metrics["bench.span_coverage_frac"]
    if frac >= spans.COVERAGE_MIN:
        return None
    return (f"named spans cover {frac:.3f} of compute time, below "
            f"{spans.COVERAGE_MIN}; {metrics['bench.unattributed_s']:.3f} s unattributed")


# ---------------------------------------------------------------------------
# the run


def environment(probe: dict, args, workload) -> dict:
    env = dict(probe.get("environment", {}))
    env.update({
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "benchmark_seed": args.seed,
        "workload_seed": workload.seed,
        "scale": args.scale,
    })
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sim-seed", type=int,
                   help=f"program seed for simulate-rate-c8 (alternative: {workloads.ALT_SIM_SEED})")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long workloads for the self-tests")
    return p.parse_args(argv)


def run(args) -> dict:
    """Run one benchmark run; return the result record (raises on set-up failure)."""
    if not os.path.isfile(os.path.join(SRC, "mnlab", "__init__.py")):
        raise WorkerFailed(f"no mnlab source tree under {SRC}")
    os.makedirs(WORK, exist_ok=True)
    start = time.monotonic()
    workload = workloads.build(args.workload, args.seed, args.scale,
                               args.sim_seed)
    reference = gate.load_reference(args.workload, args.scale)
    tag = f"{args.workload}-{args.scale}-s{args.seed}-t{args.trace}"
    runner = Runner(start + RUN_LIMIT_S, tag)

    # the first process fills the file cache (and bytecode cache, if enabled); not timed
    probe = runner.spawn()
    setups = [runner.spawn()["setup_s"] for _ in range(SETUP_PROBES)]

    repeats, outcomes, first = [], [], {}
    if args.trace == 0:
        while True:
            t0 = time.monotonic()
            res = runner.spawn(workload.invocations)
            repeats.append(res)
            outcomes += check_repeat(res, workload, reference, first, args.scale)
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - t0) > start + RUN_LIMIT_S - 10:
                break
    else:
        plain = runner.spawn(workload.invocations)
        traced = runner.spawn(workload.invocations, trace=True)
        repeats = [plain]
        outcomes = check_repeat(plain, workload, reference, first, args.scale)
        outcomes += check_repeat(traced, workload, reference, first, args.scale,
                                 "traced report differs from untraced")
    setups += [r["setup_s"] for r in repeats]

    walls = [r["wall_s"] for r in repeats]
    e2e = {
        "wall_s": summarize(walls),
        "setup_s": summarize(setups),
        "work_per_s": summarize([workload.work / w for w in walls]),
        "peak_rss_mb": summarize([r["maxrss_kb"] * 1024 / 1e6 for r in repeats]),
    }
    attempted = sum(len(r["invocations"]) for r in repeats) \
        + (len(traced["invocations"]) if args.trace else 0)
    failed = sum(1 for o in outcomes if o["problems"])
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "work_unit": workload.work_unit,
        "work_per_repeat": workload.work,
        "environment": environment(probe, args, workload),
        "gate_rel_tol": reference.get("rel_tol", gate.REL_TOL),
        "end_to_end": e2e,
        "fail_rate": failed / attempted,
        "failures": [o for o in outcomes if o["problems"]],
        "report_sha256": sorted({o["invocation"] + " " + str(o["sha256"]) for o in outcomes}),
    }
    if args.trace:
        with open(traced["spec"]["spans_out"], encoding="utf-8") as fh:
            records = json.load(fh)
        layers = layer_metrics(records, traced["compute_s"])
        layers["bench.trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        record["per_layer"] = layers
        record["absent_spans"] = traced["absent"]
        record["coverage_problem"] = coverage_problem(layers)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    record["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    with open(os.path.join(WORK, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except (WorkerFailed, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 1
    for failure in record["failures"]:
        sys.stderr.write(f"FAILED {failure['invocation']}: "
                         + "; ".join(failure["problems"]) + "\n")
    if record.get("absent_spans"):
        sys.stderr.write("absent spans: " + ", ".join(record["absent_spans"]) + "\n")
    if record.get("coverage_problem"):
        sys.stderr.write("low span coverage: " + record["coverage_problem"] + "\n")
    detail = {k: v for k, v in record.items() if k != "result"}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
