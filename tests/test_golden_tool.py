import importlib.util
import json
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


def test_every_demo_is_a_case():
    demos = {path.name for path in (TOOL.parent.parent / "demos").glob("*.py")}
    assert demos and set(golden.DEMO_SCRIPTS) == demos
