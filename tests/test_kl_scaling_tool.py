import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from mnlab.certificate import kl_scaling_probe

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "kl_scaling_curve.py"
# the curve tools import their shared point runner as a sibling module
sys.path.insert(0, str(TOOLS))


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


curve = load("kl_scaling_curve")
points = sys.modules["curve_point"]  # the point runner the tools imported


def kill_the_first_point(monkeypatch, stdout):
    """Have the first point process die of SIGKILL with no stderr, as the
    OOM killer leaves it, and every later one print ``stdout``."""
    calls = []

    def run(args, **kwargs):
        calls.append(args)
        code, out = (-9, "") if len(calls) == 1 else (0, json.dumps(stdout))
        return subprocess.CompletedProcess(args, code, stdout=out, stderr="")

    monkeypatch.setattr(points.subprocess, "run", run)
    return calls


def test_one_m2_point_matches_the_probe_in_process():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--models", "m2", "--ns", "256", "--repeats", "1"],
        capture_output=True, text=True, check=True,
    )
    row = json.loads(proc.stdout)["m2"]["256"]
    assert row["route"] == "banded" and row["k"] > 1 and row["peak_rss_mb"] > 0.0
    tau, width = curve.SETTINGS["m2"]
    want = kl_scaling_probe("m2", 1.0, 1.0, tau, [256], bump_width=width).kl_values[0]
    assert row["kl"] == want


def test_a_killed_kl_point_is_recorded_and_the_curve_goes_on(monkeypatch, capsys):
    calls = kill_the_first_point(monkeypatch, {"kl": 1e-3})
    assert curve.main(["--models", "m1", "--ns", "256,512,1024"]) == 0
    rows = json.loads(capsys.readouterr().out)["m1"]
    assert len(calls) == 3
    assert rows["256"] == {"error": "killed by signal 9"}
    # the point after the killed one has no slope to take
    assert rows["512"] == {"kl": 1e-3}
    assert rows["1024"] == {"kl": 1e-3, "local_slope": 0.0}


def test_a_killed_rate_point_is_recorded_and_the_curve_goes_on(monkeypatch, capsys):
    rate = load("rate_curve")
    calls = kill_the_first_point(monkeypatch, {"mse": 1e-4})
    assert rate.main(["--ns", "1024,2048"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(calls) == 2
    assert rows == {"1024": {"error": "killed by signal 9"}, "2048": {"mse": 1e-4}}
