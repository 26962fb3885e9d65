import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_reports.py"
spec = importlib.util.spec_from_file_location("golden_reports", TOOL)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)


def test_compare_folds_list_positions_and_lists_other_differences(tmp_path):
    old = {"result": {"rows": [{"kl": 1.0, "n": 2}, {"kl": 2.0, "n": 4}], "pass": True}}
    new = {"result": {"rows": [{"kl": 1.001, "n": 2}, {"kl": 2.0, "n": 4}], "pass": False}}
    write(tmp_path / "old", {"a.stdout": json.dumps(old), "a.exit": "0\n",
                             "b.stdout": "n,kl\n1,0.5\n", "gone.exit": "1\n"})
    write(tmp_path / "new", {"a.stdout": json.dumps(new), "a.exit": "2\n",
                             "b.stdout": "n,kl\n1,0.25\n"})
    largest, other = golden.compare(tmp_path / "old", tmp_path / "new")
    # only fields that moved are listed
    assert set(largest) == {"result.rows[].kl", "[].kl"}
    change, case = largest["result.rows[].kl"]
    assert abs(change - 0.001 / 1.001) < 1e-15 and case == "a"
    assert largest["[].kl"] == (0.5, "b")
    assert other == ["a.exit: '0\\n' -> '2\\n'", "a.stdout result.pass: true -> false",
                     "gone.exit: only in old"]


def test_text_that_is_not_csv_is_compared_line_by_line(tmp_path):
    # usage help has commas on its first line but is no table
    old = "usage: mnlab [--model {m1,m2,m3,mq}] [--q Q]\n  [--n N]\nerror: x\n"
    new = "usage: mnlab [--model {m1,m2,m3}]\n  [--n N]\nerror: x\n"
    write(tmp_path / "old", {"h.stdout": old, "h.stderr": "a\nb\n"})
    write(tmp_path / "new", {"h.stdout": new, "h.stderr": "a\nc\n"})
    largest, other = golden.compare(tmp_path / "old", tmp_path / "new")
    assert largest == {}
    assert other == ["h.stderr - b", "h.stderr + c",
                     "h.stdout - usage: mnlab [--model {m1,m2,m3,mq}] [--q Q]",
                     "h.stdout + usage: mnlab [--model {m1,m2,m3}]"]


def test_an_option_is_never_an_output_directory(tmp_path):
    # one process per argument list, each in an empty directory
    for argv, code in ((["--help"], 0), (["-h"], 0), (["--bogus"], 1), (["-x"], 1),
                       (["--compare", "a"], 1)):
        proc = subprocess.run([sys.executable, str(TOOL), *argv], cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == code, argv
        assert (proc.stdout if code == 0 else proc.stderr) == golden.USAGE, argv
        assert (proc.stderr if code == 0 else proc.stdout) == "", argv
        assert not any(tmp_path.iterdir()), argv


def test_every_demo_is_a_case():
    demos = {path.name for path in (TOOL.parent.parent / "demos").glob("*.py")}
    assert demos and set(golden.DEMO_SCRIPTS) == demos


def test_traffic_lists_the_lines_a_case_does_not_run():
    # one config-file case: its parse error is raised, the seed is never read
    proc = subprocess.run([sys.executable, str(TOOL.parent / "traffic.py"),
                           "config-not-a-number"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "config-not-a-number: done\n"
    reports, functions = {}, {}
    for line in proc.stdout.splitlines():
        name, report = line.split(": ", 1)
        reports[name], _, names = report.partition("; functions not run: ")
        functions[name] = names.split(", ") if names else []
    missed = set()
    for part in reports["src/mnlab/cli.py"].split(": ", 1)[1].split(", "):
        first, _, last = part.partition("-")
        missed.update(range(int(first), int(last or first) + 1))
    source = (TOOL.parent.parent / "src" / "mnlab" / "cli.py").read_text().splitlines()

    def line_of(text):
        return next(i for i, line in enumerate(source, 1) if text in line)

    assert line_of('raise ValueError(f"config value {key}: {exc}")') not in missed
    assert line_of('raise ValueError(f"MNLAB_SEED is not an integer') in missed
    # the count outside raise statements leaves out every line of a raise,
    # the lines of its arguments among them
    raises = {line for node in ast.walk(ast.parse("\n".join(source)))
              if isinstance(node, ast.Raise)
              for line in range(node.lineno, node.end_lineno + 1)}
    outside = int(reports["src/mnlab/cli.py"].split(", ", 1)[1].split()[0])
    assert outside == len(missed - raises) < len(missed)
    assert line_of("def main(argv=None)") not in missed  # run at import
    # the functions with no line run, named in the order they are defined:
    # the handlers, never reached, but not main, nor _resolve, which raised
    assert "_run_kl_scaling" in functions["src/mnlab/cli.py"]
    assert {"main", "_resolve"}.isdisjoint(functions["src/mnlab/cli.py"])
    assert functions["src/mnlab/cli.py"] == sorted(
        functions["src/mnlab/cli.py"],
        key=lambda name: line_of(f"def {name.rpartition('.')[2]}("))
    # a nested function and a method go by their qualified names
    assert {"evaluate.<locals>.one_hypothesis", "Certificate.to_dict"} \
        <= set(functions["src/mnlab/certificate.py"])
    assert functions["src/mnlab/__init__.py"] == functions["src/mnlab"] == []
    # certificate is never imported by this case: every line is missed
    missed_count, _, total = reports["src/mnlab/certificate.py"].split()[:3]
    assert missed_count == total
    # the last line sums the modules
    assert proc.stdout.splitlines()[-1].startswith("src/mnlab: ")
    counts = {name: (*(int(report.split()[i]) for i in (0, 2)),
                     int(report.split(", ", 1)[1].split()[0]))
              for name, report in reports.items()}
    modules = [count for name, count in counts.items() if name.endswith(".py")]
    assert len(modules) == len(counts) - 1
    assert counts["src/mnlab"] == tuple(map(sum, zip(*modules)))
    # and gives the package's line count as wc -l does
    total = reports["src/mnlab"].split("; ")[1]
    package = TOOL.parent.parent / "src" / "mnlab"
    wc = subprocess.run(["wc", "-l", *sorted(package.glob("*.py"))],
                        capture_output=True, text=True, check=True)
    assert total == f"{wc.stdout.splitlines()[-1].split()[0]} lines in all"
