import ast
import json
from pathlib import Path

import pytest

from mnlab import checks, cli

SRC = Path(checks.__file__).resolve().parent

# (suite, keyword arguments, the same configuration as CLI flags)
SUITES = [
    (checks.verify_linalg, {"seed": 1, "trials": 10, "tol": None},
     ["verify-linalg", "--seed", "1", "--trials", "10"]),
    (checks.verify_spectral, {"n": 16, "seed": 2, "tol": 1e-11},
     ["verify-spectral", "--n", "16", "--seed", "2", "--tol", "1e-11"]),
    (checks.verify_kl, {"seed": 3, "trials": 5, "tol": None},
     ["verify-kl", "--seed", "3", "--trials", "5"]),
    (checks.verify_posdefmaj, {"seed": 4, "ns": [16, 32], "count": 2},
     ["verify-posdefmaj", "--seed", "4", "--ns", "16,32", "--count", "2"]),
    (checks.verify_model3_structure,
     {"n": 32, "tau": 0.05, "alpha": 1.0, "l_const": 1.0, "c": None,
      "seed": 5, "max_hypotheses": 2},
     ["verify-model3-structure", "--n", "32", "--tau", "0.05", "--seed", "5",
      "--max-hypotheses", "2"]),
]


@pytest.mark.parametrize("suite, kwargs, argv", SUITES,
                         ids=[argv[0] for _, _, argv in SUITES])
def test_suite_matches_cli_report(suite, kwargs, argv, capsys):
    direct = suite(**kwargs)
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == direct
    assert code == (0 if all(c["pass"] for c in direct) else 2)
    assert set(direct[0]) == {"lemma", "n", "parameters", "max_abs_residual",
                              "pass"}


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
            else:
                # "from . import a, b" names modules; "from .m import x" names m
                yield from ([alias.name for alias in node.names]
                            if node.module is None else [node.module])


def test_cli_imports_no_numerics():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = set(_imports(tree))
    numeric = {"numpy", "scipy", "linalg", "structures", "kl", "models",
               "hypotheses", "profiles"}
    assert not {name.split(".")[0] for name in names} & numeric
    assert "checks" in names


def test_no_function_local_imports():
    # the one exception: a handler imports what it runs when it runs.  A CLI
    # handler imports checks or certificate, which load scipy, so
    # simulate-rate never loads scipy, and montecarlo, which loads numpy, so
    # parsing never does; the --workers > 1 branches import the thread pool
    lazy = {("cli.py", "checks"), ("cli.py", "certificate"), ("cli.py", "montecarlo"),
            ("certificate.py", "concurrent.futures"),
            ("montecarlo.py", "concurrent.futures")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom))
                              and not {(path.name, name) for name in _imports(node)} <= lazy]
    assert offenders == []


def test_model3_structure_keeps_a_zero_family_constant():
    # only c=None selects the automatic constant; c=0 reaches the family
    with pytest.raises(ValueError, match="c > 0"):
        checks.verify_model3_structure(n=32, tau=0.05, alpha=1.0, l_const=1.0,
                                       c=0.0, seed=5, max_hypotheses=2)


def test_model3_structure_builds_no_dense_alternative(monkeypatch):
    # the family is compared on the kernel's support; only the unit null is
    # ever built densely, for the dense reference decomposition
    kinds = []
    original = checks.models.cov_differenced

    def recording(spec, profile):
        kinds.append(profile.kind)
        return original(spec, profile)

    monkeypatch.setattr(checks.models, "cov_differenced", recording)
    records = checks.verify_model3_structure(n=32, tau=0.05, alpha=1.0, l_const=1.0,
                                             c=None, seed=5, max_hypotheses=2)
    assert kinds and set(kinds) == {"constant"}
    family = {r["lemma"]: r for r in records}
    assert family["alternative_minus_null_psd"]["parameters"]["hypotheses"] == 2
    assert family["alternative_minus_null_psd"]["pass"]
    assert family["alternative_minus_null_dominated"]["pass"]


@pytest.mark.parametrize("suite, kwargs", [
    (checks.verify_spectral, {"n": 4097, "seed": 0}),
    (checks.verify_posdefmaj, {"seed": 0, "ns": [64, 4097], "count": 1}),
    (checks.verify_model3_structure,
     {"n": 4097, "tau": 0.1, "alpha": 1.0, "l_const": 1.0, "c": None, "seed": 0,
      "max_hypotheses": 1}),
])
def test_dense_suites_refuse_n_past_their_desk_bound(suite, kwargs, monkeypatch):
    # refused before any matrix is built
    monkeypatch.setattr(checks, "structures", None)
    monkeypatch.setattr(checks, "models", None)
    with pytest.raises(ValueError, match="n > 4096 exceeds the dense desk bound"):
        suite(**kwargs)


def test_kl_sweep_compares_each_pair_once(monkeypatch):
    # the first sweep reads the Loewner constant, the KL and its bound from
    # one comparison per pair; the later sweeps do not depend on its trials
    calls = []
    original = checks.kl_mod.compare
    monkeypatch.setattr(checks.kl_mod, "compare",
                        lambda *args: calls.append(args) or original(*args))
    counts = []
    for trials in (5, 10):
        calls.clear()
        checks.verify_kl(seed=3, trials=trials)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 5
