"""Capture the correctness gate's reference values from the current tree.

Usage (from the root of a checkout):

    python3 mnbench/capture_reference.py [--scale full|tiny] [--workload NAME]

Runs every invocation of the chosen workloads once per reference seed and
writes ``mnbench/reference/<workload>-<scale>.json``.  Run it only on the
commit whose results are the reference; a change that claims the same
results must pass the gate against the files as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import gate
import run
import workloads


def _fields(workload, scale: str, seed: int = 0, sim_seed=None) -> dict:
    wl = workloads.build(workload, seed, scale, sim_seed)
    tag = f"capture-{workload}-{scale}-{wl.seed}"
    runner = run.Runner(time.monotonic() + 900.0, tag)
    res = runner.spawn(wl.invocations)
    out = {}
    for inv, spec_inv, got in zip(wl.invocations, res["spec"]["invocations"],
                                  res["invocations"]):
        if got["error"] or got["exit_code"] != inv.expect_exit:
            raise SystemExit(f"{inv.name}: exit {got['exit_code']} {got['error'] or ''}")
        with open(spec_inv["out"], encoding="utf-8") as fh:
            fields = gate.extract(json.load(fh))
        problems = gate.invariants(fields, scale == "full")
        if problems:
            raise SystemExit(f"{inv.name} at seed {wl.seed}: {problems}")
        out[inv.name] = fields
    return out


def capture(workload: str, scale: str) -> dict:
    ref = {"workload": workload, "scale": scale, "rel_tol": gate.REL_TOL,
           "captured_from": run.git_commit(run.ROOT), "invocations": {}}
    if workload == "simulate-rate-c8":
        ref["seed_independent"] = False
        for seed in workloads.SIM_SEEDS + (workloads.ALT_SIM_SEED,):
            for name, fields in _fields(workload, scale, sim_seed=seed).items():
                ref["invocations"].setdefault(name, {})[str(seed)] = fields
        return ref
    ref["seed_independent"] = True
    first = _fields(workload, scale, 7)
    if workload == "cert-m1":
        # the claim that the numbers do not depend on the seed is checked here
        other = _fields(workload, scale, workloads.ALT_CERT_SEED)
        if other != first:
            raise SystemExit("cert-m1 results depend on the seed; capture per seed")
    for name, fields in first.items():
        ref["invocations"][name] = {"any": fields}
    return ref


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--workload", choices=workloads.NAMES)
    args = p.parse_args(argv)
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    for name in [args.workload] if args.workload else workloads.NAMES:
        ref = capture(name, args.scale)
        with open(gate.reference_path(name, args.scale), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        sys.stdout.write(f"wrote {gate.reference_path(name, args.scale)}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
