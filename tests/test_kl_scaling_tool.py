import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from mnlab.certificate import kl_scaling_probe

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kl_scaling_curve.py"
spec = importlib.util.spec_from_file_location("kl_scaling_curve", TOOL)
curve = importlib.util.module_from_spec(spec)
spec.loader.exec_module(curve)


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
