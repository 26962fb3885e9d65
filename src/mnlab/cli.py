"""Command-line frontend tying the verification suites together.

This module only parses flags, dispatches and writes.  The ``verify-*``
suites live in :mod:`mnlab.checks`; the other commands call
:mod:`mnlab.certificate` and :mod:`mnlab.montecarlo`.  Each handler
imports the module it calls when it runs, so a command loads only what it
uses: the ``verify-*`` suites, ``certificate``, ``two-point-m3``,
``rate-table`` and ``kl-scaling`` load scipy's LAPACK extension module
through :mod:`mnlab.checks` or :mod:`mnlab.certificate` (by
:mod:`mnlab._lapack`, never the :mod:`scipy.linalg` package), and its BLAS
extension only when a comparison takes the general route (``verify-kl``,
bumps of m2 that lie apart); ``simulate-rate`` loads numpy through
:mod:`mnlab.montecarlo` but no scipy module, and only ``--workers`` above 1
loads the thread pool.  Importing this module, ``--help``, ``--version``
and every usage error the parser, the config file or a missing ``--c``
raises load no numpy module either.
Every command returns one payload that goes into the same report
envelope, is serialised once, and is written to stdout or atomically to
``--out``.

Subcommands
-----------
verify-linalg            randomized matrix-inequality sweeps
verify-spectral          closed-form spectra vs the numerical eigensolver
verify-kl                divergence-bound validity sweeps
verify-posdefmaj         the scaled Loewner domination of Q by S Q S
verify-model3-structure  the differenced m3 covariance structure
certificate              lower-bound conditions (i)-(iii) at one config
two-point-m3             the two-hypothesis constant-volatility certificate
rate-table               rate exponents per model / kernel power
kl-scaling               exact-KL growth probe across sample sizes
simulate-rate            Monte Carlo estimator-rate experiment

Exit codes: 0 all checks passed, 2 at least one check failed (stderr names
what failed), 1 usage, configuration or ``--out`` write error, or a
computation that could not finish (a likelihood, quadrature, eigensolver or
code search failure); either way stderr holds one ``error:`` line.  Reports embed the fully
resolved configuration, are byte-identical for identical configuration and
seed, and are written atomically (temp file + rename).  A flat
``key = value`` config file can supply any flag (a key that names no flag
is an error); explicit flags win over the file, the file wins over
defaults, and ``MNLAB_SEED`` is the fallback seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import reporting
from ._version import __version__
from .errors import (ConstructionFailure, NoConvergence, OptimizationFailure,
                     QuadratureFailure)

class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (1 on usage errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _list_of(kind, text: str) -> list:
    values = [kind(x) for x in str(text).split(",") if x != ""]
    # an empty list would silently stand for a command's default sizes
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _list_of(int, text)


def _finite_float(text: str) -> float:
    # reports are strict JSON, and no parameter has a meaning at nan or inf
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    # a count of trials, profiles, hypotheses or workers below 1 would run
    # nothing
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return _list_of(_finite_float, text)


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


# every flag, in the order the usage lists them: name -> (type, default,
# allowed values).  The parser and config files both read this table; the
# seed's default is MNLAB_SEED, else 0.  Float flags must be finite, seed at
# least 0, trials, count, max_hypotheses and workers at least 1, lists non-empty.
_FLAGS = {
    "model": (str, "m1", ("m1", "m2", "m3")),
    "n": (int, 256, None),
    "alpha": (_finite_float, 1.0, None),
    "L": (_finite_float, 1.0, None),
    "tau": (_finite_float, 0.1, None),
    "c": (_finite_float, None, None),
    "kappa": (_finite_float, 0.09, None),
    "seed": (_non_negative_int, None, None),
    "reps": (int, 200, None),
    "trials": (_positive_int, 1000, None),
    "count": (_positive_int, 100, None),
    "max_hypotheses": (_positive_int, 16, None),
    "ns": (_int_list, None, None),
    "alphas": (_float_list, [0.6, 1.0, 2.0], None),
    "qs": (_float_list, [0.0, 0.5, 1.0], None),
    "sigma_min": (_finite_float, 1.0, None),
    "sigma_max": (_finite_float, 4.0, None),
    "sigma_sq": (_finite_float, 1.0, None),
    # montecarlo.ESTIMATORS, written out so parsing loads no numpy
    "estimator": (str, "mle", ("mle", "rv", "rv_uncorrected")),
    "width": (_finite_float, 0.125, None),
    "tol": (_finite_float, None, None),
    "out": (str, None, None),
    "format": (str, "json", ("json", "csv")),
    "workers": (_positive_int, 1, None),
}


def _from_file(key: str, text: str):
    """Parse a config-file value as its flag would be parsed."""
    kind, _, choices = _FLAGS[key]
    try:
        value = kind(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"config value {key}: {exc}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"config value {key} = {value!r} is not one of "
                         f"{', '.join(choices)}")
    return value


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = [key for key in file_values if key not in _FLAGS]
    if unknown:
        raise ValueError(f"unknown config key: {', '.join(unknown)}")
    cfg = {"command": args.command}
    for key, (_, default, _) in _FLAGS.items():
        flag_val = getattr(args, key)
        if flag_val is not None:
            cfg[key] = flag_val
        elif key in file_values:
            cfg[key] = _from_file(key, file_values[key])
        elif key == "seed":
            env = os.environ.get("MNLAB_SEED") or "0"
            try:
                cfg[key] = _non_negative_int(env)
            except ValueError:
                raise ValueError(f"MNLAB_SEED is not an integer: {env!r}") from None
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"MNLAB_SEED is {exc}") from None
        else:
            cfg[key] = default
    return cfg


# ---------------------------------------------------------------------------
# command handlers: (payload key, payload, CSV rows or None, passed,
# failure line).  A handler imports the module it runs when it runs:
# checks and certificate load scipy's LAPACK extensions, which
# simulate-rate never needs, and montecarlo loads numpy, which parsing,
# help and usage errors never need


def _verify(suite: str, **kwargs):
    from . import checks

    records = getattr(checks, suite)(**kwargs)
    failing = [c["lemma"] for c in records if not c["pass"]]
    return ("checks", records, None, not failing,
            "failed checks: " + ", ".join(failing))


_CERTIFICATE_FAILED = "certificate conditions not all satisfied"


def _require_c(cfg):
    if cfg["c"] is None:
        raise ValueError(f"{cfg['command']} needs --c")
    return cfg["c"]


def _run_certificate(cfg):
    c = _require_c(cfg)
    from . import certificate as cert_mod

    cert = cert_mod.evaluate(
        cfg["model"], cfg["n"], cfg["alpha"], cfg["L"], cfg["tau"],
        c, cfg["kappa"], max_hypotheses=cfg["max_hypotheses"],
        seed=cfg["seed"], workers=cfg["workers"],
    )
    return ("certificate", cert.to_dict(), None, cert.overall_pass,
            _CERTIFICATE_FAILED)


def _run_two_point(cfg):
    c = _require_c(cfg)
    from . import certificate as cert_mod

    cert = cert_mod.two_point_certificate_m3(
        cfg["n"], cfg["sigma_min"], cfg["sigma_max"], c,
        cfg["tau"], kappa=cfg["kappa"],
    )
    return ("certificate", cert.to_dict(), None, cert.overall_pass,
            _CERTIFICATE_FAILED)


def _run_rate_table(cfg):
    from . import certificate as cert_mod

    rows = cert_mod.rate_table(cfg["alphas"], cfg["qs"])
    csv_rows = [["model", "q", "alpha", "exponent"]]
    for r in rows:
        csv_rows.append([r.model, "" if r.q is None else repr(r.q),
                         repr(r.alpha), repr(r.exponent)])
    return "rows", [r.to_dict() for r in rows], csv_rows, True, None


def _run_kl_scaling(cfg):
    from . import certificate as cert_mod

    ns = cfg["ns"] or [256, 512, 1024, 2048, 4096]
    result = cert_mod.kl_scaling_probe(
        cfg["model"], cfg["alpha"], cfg["L"], cfg["tau"], ns,
        bump_width=cfg["width"],
    )
    passed = abs(result.slope - result.predicted_slope) <= 0.1
    csv_rows = [["n", "kl", "reference"]]
    for n, klv, ref in zip(result.n_list, result.kl_values, result.reference):
        csv_rows.append([n, repr(klv), repr(ref)])
    return ("result", result.to_dict(), csv_rows, passed,
            "kl-scaling slope is not within 0.1 of the predicted slope")


def _run_simulate_rate(cfg):
    from . import montecarlo

    ns = cfg["ns"] or [1024, 2048, 4096]
    result = montecarlo.rate_experiment(
        cfg["model"], cfg["estimator"], ns, cfg["reps"], seed=cfg["seed"],
        sigma_sq=cfg["sigma_sq"], tau=cfg["tau"], workers=cfg["workers"],
    )
    return "result", result.to_dict(), result.to_csv_rows(), True, None


# every subcommand, in the order the usage lists them
_HANDLERS = {
    "verify-linalg": lambda cfg: _verify(
        "verify_linalg", seed=cfg["seed"], trials=cfg["trials"], tol=cfg["tol"]),
    "verify-spectral": lambda cfg: _verify(
        "verify_spectral", n=cfg["n"], seed=cfg["seed"], tol=cfg["tol"]),
    "verify-kl": lambda cfg: _verify(
        "verify_kl", seed=cfg["seed"], trials=cfg["trials"], tol=cfg["tol"]),
    "verify-posdefmaj": lambda cfg: _verify(
        "verify_posdefmaj", seed=cfg["seed"], ns=cfg["ns"], count=cfg["count"]),
    "verify-model3-structure": lambda cfg: _verify(
        "verify_model3_structure", n=cfg["n"], tau=cfg["tau"],
        alpha=cfg["alpha"], l_const=cfg["L"], c=cfg["c"], seed=cfg["seed"],
        max_hypotheses=cfg["max_hypotheses"]),
    "certificate": _run_certificate,
    "two-point-m3": _run_two_point,
    "rate-table": _run_rate_table,
    "kl-scaling": _run_kl_scaling,
    "simulate-rate": _run_simulate_rate,
}


def _report(cfg, key, payload, passed) -> dict:
    # the output path does not affect the computation; keeping it out makes
    # reports byte-identical wherever they are written
    config = {k: v for k, v in sorted(cfg.items()) if k not in ("command", "out")}
    return {"command": cfg["command"], "config": config,
            "version": __version__, key: payload, "pass": passed}


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def build_parser() -> argparse.ArgumentParser:
    # the flag table is added once, to a parent every subcommand shares
    flags = argparse.ArgumentParser(add_help=False)
    for key, (kind, _, choices) in _FLAGS.items():
        flags.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                           choices=choices)
    flags.add_argument("--config")
    parser = _Parser(prog="mnlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        # exact flag names only: --q is no flag and must not parse as --qs
        sub.add_parser(name, allow_abbrev=False, parents=[flags])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        key, payload, csv_rows, passed, failure = _HANDLERS[cfg["command"]](cfg)
    except (OSError, ValueError, KeyError, OptimizationFailure,
            QuadratureFailure, NoConvergence, ConstructionFailure) as exc:
        return _usage_error(str(exc))

    if cfg["format"] == "csv":
        if csv_rows is None:
            return _usage_error(f"{cfg['command']} has no CSV representation")
        data = reporting.csv_bytes(csv_rows)
    else:
        data = reporting.json_bytes(_report(cfg, key, payload, passed))

    if cfg["out"]:
        try:
            reporting.write_report(data, cfg["out"])
        except OSError as exc:
            return _usage_error(f"cannot write {cfg['out']}: "
                                f"{exc.strerror or exc}")
        sys.stdout.write(f"{cfg['out']}\n")
    else:
        sys.stdout.write(data.decode())

    if not passed:
        sys.stderr.write(failure + "\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
