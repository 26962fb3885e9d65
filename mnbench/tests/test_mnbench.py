"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q mnbench/tests
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_smoke_run(workload):
    result = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--scale", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.build(workload, 1).invocations)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_covers_compute_time():
    result = _bench("--workload", "cert-m1", "--seed", "1", "--seconds", "1",
                    "--trace", "1", "--scale", "tiny")
    assert result["correct"] and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    # 3 alternatives, each compared by kl_exact and kl_bound (2 factors each)
    assert metrics["linalg.cholesky_lower.calls"] == 12
    assert metrics["linalg.cholesky_lower.repeat_ratio"] == pytest.approx(8 / 12)
    assert metrics["bench.span_coverage_frac"] >= spans.COVERAGE_MIN


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.PER_LAYER)
    names = [name for name, _ in e2e + layer]
    assert len(names) == len(set(names))
    for name, unit in e2e + layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)


def _tiny_run(workload: str, seed: int = 1):
    wl = workloads.build(workload, seed, "tiny")
    runner = run.Runner(time.monotonic() + 120, f"selftest-{workload}")
    return wl, runner.spawn(wl.invocations)


def _tiny_report(workload: str, seed: int = 1):
    wl, res = _tiny_run(workload, seed)
    path = res["spec"]["invocations"][0]["out"]
    with open(path, "rb") as fh:
        return wl, json.loads(fh.read())


def test_determinism_check_compares_with_the_runs_first_repeat():
    wl, res = _tiny_run("simulate-rate-c8")
    reference = gate.load_reference("simulate-rate-c8", "tiny")
    first = {}
    assert run.check_repeat(res, wl, reference, first, "tiny")[0]["problems"] == []
    other = dict(res, invocations=[dict(res["invocations"][0], sha256="0" * 64)])
    outcome = run.check_repeat(other, wl, reference, first, "tiny")[0]
    assert outcome["problems"] == ["report bytes differ from the first repeat"]
    # nothing is kept between runs: a new run takes its own first repeat
    assert run.check_repeat(other, wl, reference, {}, "tiny")[0]["problems"] == []


def _problems(wl, report, reference):
    payload = json.dumps(report).encode()
    return gate.check(payload, reference, wl.invocations[0].name, wl.seed, False)


def test_gate_rejects_perturbed_certificate():
    wl, report = _tiny_report("cert-m1")
    reference = gate.load_reference("cert-m1", "tiny")
    assert _problems(wl, report, reference) == []

    row = report["certificate"]["details"]["per_hypothesis"][0]
    row["kl"] *= 1.0 + 1e-4
    assert any("hypothesis.1.kl" in p for p in _problems(wl, report, reference))

    row["kl"] /= 1.0 + 1e-4
    row["in_class"] = not row["in_class"]
    assert any("in_class" in p for p in _problems(wl, report, reference))

    row["in_class"] = not row["in_class"]
    row["kl"] = row["frobenius_bound"] * 2.0
    assert any("above bound" in p for p in _problems(wl, report, reference))


def test_gate_rejects_perturbed_simulation():
    wl, report = _tiny_report("simulate-rate-c8")
    reference = gate.load_reference("simulate-rate-c8", "tiny")
    assert _problems(wl, report, reference) == []
    report["result"]["rows"][-1]["mse"] *= 1.0 + 1e-5
    assert any(".mse" in p for p in _problems(wl, report, reference))


def _span(name, start, end, parent, extra=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run_id": "r", "model": "m1", "n": 8, "extra": extra}


def test_unattributed_time_comes_from_span_self_times():
    records = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("kl.kl_exact", 1.0, 4.0, 0),
        _span("linalg.cholesky_lower", 2.0, 3.0, 1, {"digest": "a"}),
        _span("bench.digest", 5.0, 5.5, 0),
        _span("linalg.cholesky_lower", 6.0, 7.0, 0, {"digest": "a"}),
    ]
    assert spans.self_times(records) == [5.5, 2.0, 1.0, 0.5, 1.0]
    metrics = run.layer_metrics(records, compute_s=11.0)
    # 11 s of compute, 0.5 s of it harness; the spans below the entry point
    # have self times 2 + 1 + 1 = 4 s, and the entry point's own 5.5 s
    # count as unattributed
    assert metrics["bench.harness_s"] == pytest.approx(0.5)
    assert metrics["cli.main.self_s"] == pytest.approx(5.5)
    assert metrics["bench.unattributed_s"] == pytest.approx(6.5)
    assert metrics["bench.span_coverage_frac"] == pytest.approx(4.0 / 10.5)
    assert metrics["kl.kl_exact.self_s"] == pytest.approx(2.0)
    assert metrics["linalg.cholesky_lower.repeat_ratio"] == pytest.approx(0.5)
    assert metrics["kl.kl_exact.self_s.m1.n8"] == pytest.approx(2.0)


def test_coverage_check_fails_when_children_cover_too_little():
    well = [_span("cli.main", 0.0, 10.0, -1), _span("kl.kl_exact", 0.5, 9.8, 0)]
    assert run.coverage_problem(run.layer_metrics(well, compute_s=10.0)) is None
    # the child covers 8.5 of 10 s: the entry point's span does not make up the rest
    thin = [_span("cli.main", 0.0, 10.0, -1), _span("kl.kl_exact", 1.0, 9.5, 0)]
    metrics = run.layer_metrics(thin, compute_s=10.0)
    assert metrics["bench.span_coverage_frac"] == pytest.approx(0.85)
    assert "below 0.9" in run.coverage_problem(metrics)


def test_install_replaces_direct_imports_and_reports_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import mnlab.certificate
    import mnlab.kl

    targets = spans.FUNCTION_TARGETS + (
        ("kl.no_such_function", "mnlab.kl", "no_such_function"),
        ("gone.module", "mnlab.no_such_module", "anything"),
    )
    monkeypatch.setattr(spans, "FUNCTION_TARGETS", targets)
    original = mnlab.kl.kl_exact
    recorder = spans.SpanRecorder()
    try:
        absent = spans.install(recorder)
        assert absent == ["kl.no_such_function", "gone.module"]
        assert mnlab.certificate.kl_exact is mnlab.kl.kl_exact
        assert mnlab.kl.kl_exact is not original
        eye = np.eye(4)
        assert mnlab.certificate.kl_exact(eye, 2.0 * eye) > 0.0
        names = [s["name"] for s in recorder.records()]
        assert names[0] == "kl.kl_exact" and "linalg.cholesky_lower" in names
        assert recorder.records()[0]["n"] == 4
    finally:
        for mod in list(sys.modules):
            if mod == "mnlab" or mod.startswith("mnlab."):
                del sys.modules[mod]
