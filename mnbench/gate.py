"""Correctness gate: compare a report with captured reference values.

Reference values live in ``reference/<workload>-<scale>.json``.  They were
captured with ``capture_reference.py`` from reports of the commit that
introduced the benchmark.  Floats are compared at the relative tolerance
stored in the reference file; flags, counts and codewords must match
exactly.  The KL tolerance (1e-6) is loose enough for a cancellation-free
``kl_exact``: the stable form 1/2 sum(mu - log1p(mu)) differs from today's
value by 7e-8 relative at n = 2048.

Besides the reference values, the gate asserts invariants that hold for
any correct program:

* certificate: the Frobenius bound dominates the exact KL for every
  hypothesis whose Loewner precondition holds;
* kl-scaling (full size): the log-log slope is within 0.1 of its
  prediction (acceptance criterion 7);
* simulate-rate (full size): the MSE slope is within 0.1 of -1/2 and
  sqrt(n) Var at the largest n is within 25% of 0.8 (criterion 8).
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

REL_TOL = 1e-6


def extract(report: dict) -> dict:
    """Flatten the fields of a report that the gate compares."""
    command = report.get("command")
    out = {"command": command, "pass": report.get("pass")}
    if command == "certificate":
        cert = report["certificate"]
        for row in cert["details"]["per_hypothesis"]:
            k = row["index"]
            for key in ("kl", "frobenius_bound", "precondition_ok", "in_class"):
                out[f"hypothesis.{k}.{key}"] = row[key]
        out["cond_i"] = cert["cond_i"]
        for key in ("pass", "min_separation", "threshold"):
            out[f"cond_ii.{key}"] = cert["cond_ii"][key]
        for key in ("pass", "avg_kl", "frobenius_bound_avg", "kappa_bound",
                    "log2_M", "mode", "frobenius_bound_preconditions_ok",
                    "frobenius_bound_certifies"):
            out[f"cond_iii.{key}"] = cert["cond_iii"][key]
        out["overall_pass"] = cert["overall_pass"]
        out["hypotheses_evaluated"] = cert["hypotheses_evaluated"]
        out["family.m"] = cert["family"]["m"]
        out["family.codewords"] = cert["family"]["codewords"]
    elif command == "kl-scaling":
        res = report["result"]
        out["model"] = res["model"]
        for row in res["rows"]:
            out[f"n{row['n']}.kl"] = row["kl"]
            out[f"n{row['n']}.reference"] = row["reference"]
        for key in ("slope", "slope_se", "predicted_slope"):
            out[key] = res[key]
    elif command == "simulate-rate":
        res = report["result"]
        for row in res["rows"]:
            for key in ("mse", "mse_se", "var", "var_se"):
                out[f"n{row['n']}.{key}"] = row[key]
        for key in ("slope", "slope_se", "reps", "seed"):
            out[key] = res[key]
    else:
        raise ValueError(f"no gate for command {command!r}")
    return out


def _same(a, b, rel_tol: float) -> bool:
    if not (isinstance(a, float) and isinstance(b, float)):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def compare(fields: dict, reference: dict, rel_tol: float = REL_TOL) -> list:
    """Mismatches between extracted fields and reference fields."""
    problems = []
    for key in sorted(set(fields) | set(reference)):
        if key not in fields or key not in reference:
            problems.append(f"{key}: present in only one of report/reference")
        elif not _same(fields[key], reference[key], rel_tol):
            problems.append(f"{key}: {fields[key]!r} != reference {reference[key]!r}")
    return problems


def invariants(fields: dict, full_size: bool) -> list:
    """Violations of properties any correct report has."""
    problems = []
    command = fields["command"]
    if command == "certificate":
        for key, value in fields.items():
            if key.endswith(".precondition_ok") and value:
                k = key.split(".")[1]
                kl = fields[f"hypothesis.{k}.kl"]
                bound = fields[f"hypothesis.{k}.frobenius_bound"]
                if kl > bound + 1e-9:
                    problems.append(f"hypothesis {k}: exact KL {kl!r} above bound {bound!r}")
    elif command == "kl-scaling" and full_size:
        if abs(fields["slope"] - fields["predicted_slope"]) > 0.1:
            problems.append(f"slope {fields['slope']!r} not within 0.1 of "
                            f"{fields['predicted_slope']!r}")
    elif command == "simulate-rate" and full_size:
        if abs(fields["slope"] + 0.5) > 0.1:
            problems.append(f"MSE slope {fields['slope']!r} not within 0.1 of -0.5")
        n_max = max(int(k[1:].split(".")[0]) for k in fields if k.endswith(".var"))
        scaled = math.sqrt(n_max) * fields[f"n{n_max}.var"]
        if abs(scaled - 0.8) > 0.25 * 0.8:
            problems.append(f"sqrt(n) Var = {scaled!r} at n={n_max} not within 25% of 0.8")
    return problems


def reference_path(workload: str, scale: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}-{scale}.json")


def load_reference(workload: str, scale: str) -> dict:
    with open(reference_path(workload, scale), encoding="utf-8") as fh:
        return json.load(fh)


def reference_fields(reference: dict, invocation: str, seed) -> dict | None:
    """Reference fields for one invocation and program seed (None: none)."""
    by_seed = reference["invocations"].get(invocation, {})
    key = "any" if reference.get("seed_independent") else str(seed)
    return by_seed.get(key)


def check(report_bytes: bytes, reference: dict, invocation: str, seed,
          full_size: bool) -> list:
    """All gate problems for one report; empty when the report is correct."""
    try:
        fields = extract(json.loads(report_bytes))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = invariants(fields, full_size)
    ref = reference_fields(reference, invocation, seed)
    if ref is None:
        problems.append(f"no reference values for {invocation} at seed {seed}")
    else:
        problems += compare(fields, ref, reference.get("rel_tol", REL_TOL))
    return problems
