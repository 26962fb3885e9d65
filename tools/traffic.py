"""List the lines of ``src/mnlab`` that no golden case and no demo runs.

Usage::

    python3 tools/traffic.py [CASE ...]

Runs every case of ``golden_reports.CASES`` through ``mnlab.cli.main`` in
this process, with the same config files and a fresh working directory
per case, and every script in ``demos/`` through ``runpy`` (as case
``demo-<script stem>``); naming cases runs those alone.  A line tracer
(``sys.settrace`` and ``threading.settrace``, so worker threads count)
records the lines run in the modules under ``src/mnlab``, which are
imported after it starts, so their import-time lines count too.  Then,
per module, it prints how many of its executable lines (those ``co_lines``
of its code objects name) nothing ran, how many of those lie outside every
``raise`` statement (between the ``lineno`` and ``end_lineno`` of no
``ast.Raise``), the unrun lines as ranges, and the qualified names of the
functions none of whose lines ran, in the order they are defined::

    src/mnlab/models.py: 12 of 180 lines not run, 5 outside raise statements: 101, 230-233; functions not run: cov_raw, _cumulative_moments

A function's lines are those of its own code object but the first (its
``def`` or first decorator line, which the enclosing code runs); one whose
body shares that line, such as a lambda, is never named.

and last the totals over the package, its executable line count among them,
and the package's line count as ``wc -l src/mnlab/*.py`` gives it::

    src/mnlab: 190 of 2410 lines not run, 76 outside raise statements; 4520 lines in all

Case output is discarded and exit codes are not checked: the golden
reports pin those.  A full scan takes about half a minute on two cores.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

import golden_reports as golden

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mnlab"


def code_lines(path: Path) -> list:
    """Every code object compiled from ``path``, the module's and those nested
    in it, each with the line numbers its instructions map to."""
    found, codes = [], [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        # no line event names a code object's first instruction: a module's is
        # on line 0, and a function's on its def line, run by the enclosing code
        found.append((code, {line for _, _, line in code.co_lines() if line}))
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def unrun_functions(codes: list, missed: set) -> list:
    """The qualified names of the functions among ``codes`` (:func:`code_lines`)
    with no line run, in the order they are defined; ``missed`` holds the
    lines not run."""
    found = []
    for code, lines in codes:
        body = lines - {code.co_firstlineno}
        if code.co_flags & inspect.CO_NEWLOCALS and body and body <= missed \
                and not code.co_name.startswith("<"):
            found.append((code.co_firstlineno, code.co_qualname))
    return [name for _, name in sorted(found)]


def raise_lines(path: Path) -> set:
    """The line numbers of ``path`` that lie inside a ``raise`` statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


class LineTracer:
    """Collects ``(file, line)`` for every line run in a module under PACKAGE."""

    def __init__(self):
        self.ran = set()
        self._inside = {}  # co_filename -> resolved path under PACKAGE, or None

    def _path(self, filename):
        if filename not in self._inside:
            path = Path(os.path.realpath(filename))
            self._inside[filename] = path if path.parent == PACKAGE else None
        return self._inside[filename]

    def _global(self, frame, event, arg):
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                self.ran.add((path, frame.f_lineno))
            return local

        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def _run_case(name: str, main, tmp: Path) -> None:
    if name.startswith("demo-"):
        script = golden.DEMOS / f"{name[len('demo-'):]}.py"
        runpy.run_path(str(script), run_name="__main__")
        return
    args, config = golden.CASES[name]
    if config is not None:
        path = tmp / f"{name}.cfg"
        path.write_text(config, encoding="utf-8")
        args = [*args, "--config", str(path)]
    try:
        main(args)
    except SystemExit:
        pass


def _ranges(lines) -> str:
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    demos = [f"demo-{Path(script).stem}" for script in golden.DEMO_SCRIPTS]
    names = argv or [*golden.CASES, *demos]
    unknown = [name for name in names if name not in golden.CASES and name not in demos]
    if unknown:
        sys.stderr.write(f"unknown case: {', '.join(unknown)}\n")
        return 1
    if "mnlab" in sys.modules:
        sys.stderr.write("mnlab is already imported: its import-time lines "
                         "would not count\n")
        return 1
    os.environ.pop("MNLAB_SEED", None)
    sys.path.insert(0, str(PACKAGE.parent))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, LineTracer() as tracer:
        from mnlab.cli import main as cli_main

        for name in names:
            case_dir = Path(tmp) / name
            case_dir.mkdir()
            os.chdir(case_dir)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    _run_case(name, cli_main, case_dir)
            finally:
                os.chdir(home)
            sys.stderr.write(f"{name}: done\n")
    total_missed = total_outside = total_lines = total_text = 0
    for path in sorted(PACKAGE.glob("*.py")):
        codes = code_lines(path)
        lines = set().union(*(own for _, own in codes))
        missed = lines - {line for p, line in tracer.ran if p == path}
        outside = len(missed - raise_lines(path))
        functions = unrun_functions(codes, missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines "
              f"not run, {outside} outside raise statements"
              + (f": {_ranges(missed)}" if missed else "")
              + (f"; functions not run: {', '.join(functions)}" if functions else ""))
        total_missed += len(missed)
        total_outside += outside
        total_lines += len(lines)
        total_text += path.read_bytes().count(b"\n")
    print(f"{PACKAGE.relative_to(ROOT)}: {total_missed} of {total_lines} lines not run, "
          f"{total_outside} outside raise statements; {total_text} lines in all")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
