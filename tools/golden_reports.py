"""Capture the CLI's golden reports: stdout, stderr and exit code per case.

Usage::

    python3 tools/golden_reports.py OUTDIR
    python3 tools/golden_reports.py --compare OLD NEW
    python3 tools/golden_reports.py --help

Runs a fixed list of ``mnlab`` invocations against the ``src/`` tree next
to this script and writes ``OUTDIR/<case>.stdout``, ``<case>.stderr`` and
``<case>.exit`` for each; a case that passes ``--out`` also saves the
report it wrote as ``<case>.file``.  A refactor that must keep the report
bytes is checked by capturing once before the change and once after,
then comparing the two directories with ``diff -r``.  A change that may
move only floating-point digits is checked with ``--compare``: it prints,
per JSON field path (list positions written ``[]``), the largest relative
change between the two captures and the case where it occurs, then every
other difference - exit codes, flags, strings, missing fields or files -
one per line.  CSV reports (a first line with a comma, and that many
cells on every line) are compared cell by cell under their column
headers; any other text, such as stderr or usage help, by its changed
lines, each printed as ``- line`` or ``+ line``.  The list covers
all ten subcommands, written reports, usage errors and config-file
cases, and every script in ``demos/`` (its stdout, stderr and exit code,
as case ``demo-<script stem>``); ``MNLAB_SEED`` is cleared so the
default seed is fixed.  A full capture takes a few minutes on two cores.
No argument starting with ``-`` names an output directory: ``-h`` and
``--help`` print the usage and exit 0, any other option prints it on
stderr and exits 1, and neither creates anything.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = ROOT / "demos"

_CERT = ["--alpha", "1", "--L", "1", "--tau", "0.1", "--kappa", "0.09"]
_NS = ["--ns", "256,512,1024,2048,4096"]

# case name -> (arguments, config-file text or None); a config file is
# passed as the final ``--config`` argument
CASES = {
    "verify-linalg": (["verify-linalg", "--seed", "3"], None),
    "verify-spectral": (["verify-spectral", "--n", "256"], None),
    "verify-kl": (["verify-kl", "--seed", "5"], None),
    "verify-posdefmaj": (["verify-posdefmaj", "--seed", "2", "--count", "20"], None),
    "verify-model3-structure": (["verify-model3-structure"], None),
    "verify-model3-structure-n64": (
        ["verify-model3-structure", "--n", "64", "--tau", "0.05"], None),
    "certificate-m1-n2048": (
        ["certificate", "--model", "m1", "--n", "2048", *_CERT, "--c", "9",
         "--seed", "1", "--workers", "1", "--format", "json"], None),
    "certificate-m2-n1024": (
        ["certificate", "--model", "m2", "--n", "1024", *_CERT, "--c", "8",
         "--seed", "7"], None),
    "certificate-m3-n512": (
        ["certificate", "--model", "m3", "--n", "512", *_CERT, "--c", "9",
         "--seed", "7", "--workers", "2"], None),
    "certificate-m2-n512-sampled": (
        ["certificate", "--model", "m2", "--n", "512", *_CERT, "--c", "8",
         "--seed", "3", "--max-hypotheses", "4", "--workers", "2"], None),
    "certificate-m1-n512-alpha0.6": (
        ["certificate", "--model", "m1", "--n", "512", "--alpha", "0.6",
         "--L", "1", "--tau", "0.1", "--c", "9", "--max-hypotheses", "4"], None),
    "certificate-m1-n256": (
        ["certificate", "--model", "m1", "--n", "256", *_CERT, "--c", "9",
         "--seed", "7"], None),
    "certificate-m2-n512-alpha2": (
        ["certificate", "--model", "m2", "--n", "512", "--alpha", "2",
         "--L", "1", "--tau", "0.1", "--c", "9", "--max-hypotheses", "4"], None),
    "certificate-m3-n1024-alpha2": (
        ["certificate", "--model", "m3", "--n", "1024", "--alpha", "2",
         "--L", "1", "--tau", "0.1", "--c", "12", "--max-hypotheses", "4"], None),
    "certificate-m1-n2048-random-code": (
        ["certificate", "--model", "m1", "--n", "2048", *_CERT, "--c", "20",
         "--seed", "3", "--max-hypotheses", "4"], None),
    "certificate-m1-n512-alpha0.6-c30": (
        ["certificate", "--model", "m1", "--n", "512", "--alpha", "0.6",
         "--L", "1", "--tau", "0.1", "--c", "30", "--max-hypotheses", "4"], None),
    "certificate-m2-L-unresolved-precondition": (
        ["certificate", "--model", "m2", "--n", "64", "--c", "8", "--L", "1e15",
         "--seed", "1"], None),
    "certificate-m3-n4096-unresolved-spectrum": (
        ["certificate", "--model", "m3", "--n", "4096", *_CERT, "--c", "9",
         "--seed", "0"], None),
    "certificate-config": (
        ["certificate", "--c", "10", "--seed", "2"],
        "model = m3\nn = 128\ntau = 0.05\n"),
    "two-point-m3": (
        ["two-point-m3", "--n", "1024", "--sigma-min", "1", "--sigma-max", "4",
         "--c", "1", "--tau", "0.1"], None),
    "two-point-n-zero": (["two-point-m3", "--n", "0", "--c", "1"], None),
    "two-point-n-negative": (["two-point-m3", "--n", "-4", "--c", "1"], None),
    "two-point-m3-unresolved-spectrum": (
        ["two-point-m3", "--n", "2048", "--sigma-min", "0.1", "--sigma-max", "4",
         "--c", "1", "--tau", "1"], None),
    "two-point-sigma-max-overshoot": (
        ["two-point-m3", "--n", "256", "--sigma-min", "1e-14", "--sigma-max", "1e-13",
         "--c", "1.5e-12", "--tau", "0.1"], None),
    "rate-table-json": (
        ["rate-table", "--alphas", "0.6,1,2", "--qs", "0,0.5,1"], None),
    "rate-table-csv": (
        ["rate-table", "--alphas", "0.6,1,2", "--qs", "0,0.5,1",
         "--format", "csv"], None),
    "kl-scaling-m1": (
        ["kl-scaling", "--model", "m1", "--tau", "0.1", "--width", "0.125", *_NS],
        None),
    "kl-scaling-m2": (
        ["kl-scaling", "--model", "m2", "--tau", "0.02", "--width", "0.25", *_NS],
        None),
    "kl-scaling-m3": (
        ["kl-scaling", "--model", "m3", "--tau", "0.01", "--width", "0.125", *_NS],
        None),
    "kl-scaling-m1-n16384": (
        ["kl-scaling", "--model", "m1", "--tau", "0.1",
         "--ns", "256,1024,4096,16384"], None),
    "kl-scaling-m1-n65536": (
        ["kl-scaling", "--model", "m1", "--tau", "0.1",
         "--ns", "4096,16384,65536"], None),
    "kl-scaling-m2-n8192": (
        ["kl-scaling", "--model", "m2", "--tau", "0.02", "--width", "0.25",
         "--ns", "256,1024,4096,8192"], None),
    "kl-scaling-m3-n16384": (
        ["kl-scaling", "--model", "m3", "--tau", "0.01",
         "--ns", "256,1024,4096,16384"], None),
    "kl-scaling-m2-n16384": (
        ["kl-scaling", "--model", "m2", "--tau", "0.02", "--width", "0.25",
         "--ns", "4096,8192,16384"], None),
    "kl-scaling-one-n": (
        ["kl-scaling", "--model", "m1", "--ns", "256"], None),
    "kl-scaling-one-n-zero-kl": (["kl-scaling", "--model", "m2", "--ns", "5"], None),
    "kl-scaling-repeated-n": (
        ["kl-scaling", "--model", "m1", "--ns", "256,256,512"], None),
    "kl-scaling-two-n": (
        ["kl-scaling", "--model", "m3", "--ns", "256,512"], None),
    "kl-scaling-tau-nan": (
        ["kl-scaling", "--model", "m1", "--tau", "nan", "--ns", "256,512"], None),
    "kl-scaling-tau-inf": (
        ["kl-scaling", "--model", "m3", "--tau", "inf", "--ns", "256,512"], None),
    "kl-scaling-width-zero": (
        ["kl-scaling", "--model", "m1", "--width", "0", "--ns", "256,512"], None),
    "kl-scaling-width-tiny": (
        ["kl-scaling", "--model", "m2", "--ns", "64,128", "--width", "1e-300"], None),
    "kl-scaling-width-huge": (
        ["kl-scaling", "--model", "m2", "--ns", "64,128", "--width", "1e300"], None),
    "kl-scaling-L-zero": (
        ["kl-scaling", "--model", "m1", "--L", "0", "--ns", "256,512"], None),
    "kl-scaling-L-over-bound": (
        ["kl-scaling", "--model", "m1", "--ns", "8,16", "--L", "1e300"], None),
    "kl-scaling-L-tiny": (
        ["kl-scaling", "--model", "m1", "--ns", "64,128", "--L", "1e-300"], None),
    "kl-scaling-m2-L-unresolved": (
        ["kl-scaling", "--model", "m2", "--ns", "64,128,256", "--L", "1e20"], None),
    "simulate-rate-mle": (
        ["simulate-rate", "--estimator", "mle", "--ns", "1024,2048,4096",
         "--reps", "200", "--seed", "11"], None),
    "simulate-rate-rv-csv": (
        ["simulate-rate", "--estimator", "rv", "--ns", "1024,2048",
         "--reps", "100", "--seed", "4", "--format", "csv"], None),
    "simulate-rate-one-n": (
        ["simulate-rate", "--ns", "1024", "--reps", "100", "--seed", "2"], None),
    "simulate-rate-two-n": (
        ["simulate-rate", "--ns", "256,512", "--reps", "100", "--seed", "1"],
        None),
    "simulate-rate-tau-nan": (
        ["simulate-rate", "--tau", "nan", "--ns", "256,512", "--reps", "100"],
        None),
    "simulate-rate-rv-tau-nan": (
        ["simulate-rate", "--estimator", "rv", "--tau", "nan", "--ns", "256,512",
         "--reps", "100"], None),
    "simulate-rate-tau-negative": (
        ["simulate-rate", "--estimator", "rv", "--tau", "-0.1", "--ns", "1024,2048",
         "--reps", "100", "--seed", "3"], None),
    "simulate-rate-mle-tau-zero": (
        ["simulate-rate", "--estimator", "mle", "--tau", "0", "--ns", "1024,2048",
         "--reps", "100", "--seed", "3"], None),
    "simulate-rate-sigma-sq-huge": (
        ["simulate-rate", "--estimator", "mle", "--ns", "64,128", "--reps", "100",
         "--sigma-sq", "1e9"], None),
    "simulate-rate-ns-zero": (
        ["simulate-rate", "--ns", "0,2", "--reps", "100"], None),
    "simulate-rate-sigma-sq-negative": (
        ["simulate-rate", "--ns", "256,512", "--reps", "100", "--sigma-sq", "-1"],
        None),
    "out-json": (["verify-spectral", "--n", "64", "--out", "spectral.json"], None),
    "out-csv-failing": (
        ["kl-scaling", "--model", "m1", "--ns", "256", "--format", "csv",
         "--out", "reports/kl.csv"], None),
    "usage-bad-format": (["verify-spectral", "--format", "xml"], None),
    "usage-certificate-without-c": (["certificate", "--model", "m1", "--n", "64"],
                                    None),
    "usage-help": (["certificate", "--help"], None),
    "usage-top-help": (["--help"], None),
    "usage-version": (["--version"], None),
    "usage-unknown-estimator": (["simulate-rate", "--estimator", "bogus"], None),
    "usage-unknown-flag": (["certificate", "--bogus", "1"], None),
    "usage-unknown-model": (["kl-scaling", "--model", "m9"], None),
    "usage-no-command": ([], None),
    "usage-count-zero": (["verify-posdefmaj", "--count", "0", "--ns", "16"], None),
    "usage-trials-zero": (["verify-kl", "--trials", "0"], None),
    "usage-seed-negative": (["verify-kl", "--seed", "-1"], None),
    "certificate-seed-negative": (
        ["certificate", "--model", "m1", "--n", "256", "--c", "9", "--seed", "-1"],
        None),
    "usage-max-hypotheses-zero": (
        ["verify-model3-structure", "--n", "32", "--max-hypotheses", "0"], None),
    "usage-c-zero": (["verify-model3-structure", "--n", "32", "--c", "0"], None),
    "usage-workers-zero": (
        ["simulate-rate", "--ns", "256,512", "--reps", "100", "--workers", "0"],
        None),
    "config-bad-format": (["rate-table"], "format = xml\n"),
    "config-unknown-key": (["rate-table"], "modle = m3\n"),
    "config-not-finite": (["rate-table"], "tau = nan\n"),
    "config-not-a-number": (["rate-table"], "n = abc\n"),
    "config-count-zero": (["verify-posdefmaj", "--ns", "16"], "count = 0\n"),
    "config-max-hypotheses-zero": (
        ["verify-model3-structure", "--n", "32"], "max_hypotheses = 0\n"),
    "rate-table-tau-inf": (["rate-table", "--tau", "inf"], None),
}

# the demo scripts, each run as ``python demos/<script>``
DEMO_SCRIPTS = (
    "01_closed_form_spectra.py",
    "02_kl_divergence_bounds.py",
    "03_model_covariances.py",
    "04_hypothesis_families.py",
    "05_lower_bound_certificates.py",
    "06_volatility_rate_experiment.py",
)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(old, new, path, numeric, other):
    """Pair two parsed reports; numeric[path] collects relative changes."""
    if _is_number(old) and _is_number(new):
        scale = max(abs(old), abs(new))
        numeric.setdefault(path, []).append(abs(new - old) / scale if scale else 0.0)
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in old or key not in new:
                other.append(f"{sub}: only in {'new' if key in new else 'old'}")
            else:
                _walk(old[key], new[key], sub, numeric, other)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}[{i}]", numeric, other)
    elif old != new:
        other.append(f"{path}: {json.dumps(old)} -> {json.dumps(new)}")


def _parse(text: str):
    """A JSON report, or a CSV report as a list of {header: cell} rows.

    Raises ``ValueError`` on any other text.
    """
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = [line.split(",") for line in text.splitlines()]
    if not lines or len(lines[0]) < 2 or any(len(row) != len(lines[0])
                                             for row in lines):
        raise ValueError("neither JSON nor CSV")
    header = lines[0]

    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value

    return [{h: cell(v) for h, v in zip(header, row)} for row in lines[1:]]


def compare(old_dir: Path, new_dir: Path):
    """``(largest relative change per field path, other differences)``."""
    largest, other = {}, []
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.iterdir()})
    for name in names:
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            other.append(f"{name}: only in {'new' if b.exists() else 'old'}")
            continue
        old, new = a.read_bytes().decode(), b.read_bytes().decode()
        if old == new:
            continue
        if name.endswith(".exit"):
            other.append(f"{name}: {old!r} -> {new!r}")
            continue
        try:
            parsed = _parse(old), _parse(new)
        except ValueError:
            other.extend(f"{name} {line}" for line in difflib.ndiff(
                old.splitlines(), new.splitlines()) if line[:2] in ("- ", "+ "))
            continue
        numeric, found = {}, []
        _walk(*parsed, "", numeric, found)
        other.extend(f"{name} {line}" for line in found)
        for path, changes in numeric.items():
            field = re.sub(r"\[\d+\]", "[]", path)
            worst = max(changes)
            if worst > largest.get(field, (0.0, ""))[0]:
                largest[field] = (worst, name.rsplit(".", 1)[0])
    return largest, other


def _print_comparison(largest: dict, other: list) -> None:
    print("largest relative change per numeric field:")
    for field, (change, case) in sorted(largest.items()):
        print(f"  {field:<56} {change:.3e}  ({case})")
    if not largest:
        print("  none")
    print("other differences:")
    for line in other:
        print(f"  {line}")
    if not other:
        print("  none")


USAGE = ("usage: golden_reports.py OUTDIR\n"
         "       golden_reports.py --compare OLD NEW\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        _print_comparison(*compare(Path(argv[1]), Path(argv[2])))
        return 0
    if argv in (["-h"], ["--help"]):
        sys.stdout.write(USAGE)
        return 0
    # any other option is no output directory
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.stderr.write(USAGE)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "MNLAB_SEED"}
    env["PYTHONPATH"] = str(SRC)
    runs = [(name, ["-m", "mnlab.cli", *args], config)
            for name, (args, config) in CASES.items()]
    runs += [(f"demo-{Path(script).stem}", [str(DEMOS / script)], None)
             for script in DEMO_SCRIPTS]
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, config in runs:
            if config is not None:
                path = Path(tmp) / f"{name}.cfg"
                path.write_text(config, encoding="utf-8")
                args = [*args, "--config", str(path)]
            proc = subprocess.run([sys.executable, *args],
                                  capture_output=True, env=env, cwd=tmp)
            (out / f"{name}.stdout").write_bytes(proc.stdout)
            (out / f"{name}.stderr").write_bytes(proc.stderr)
            (out / f"{name}.exit").write_text(f"{proc.returncode}\n")
            if "--out" in args:
                written = Path(tmp) / args[args.index("--out") + 1]
                (out / f"{name}.file").write_bytes(written.read_bytes())
            sys.stderr.write(f"{name}: exit {proc.returncode}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
