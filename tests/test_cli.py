import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mnlab
from mnlab import cli
from mnlab.reporting import write_report

ENTRY = [sys.executable, "-m", "mnlab.cli"]


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(ENTRY + list(args), capture_output=True, text=True,
                          env=full_env)


def test_verify_spectral_passes(tmp_path):
    out = tmp_path / "spectral.json"
    proc = run_cli("verify-spectral", "--n", "64", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["pass"] is True
    residuals = [c["max_abs_residual"] for c in report["checks"]
                 if c["lemma"] == "closed_form_spectrum_match"]
    assert max(residuals) < 1e-10
    assert report["config"]["n"] == 64


def test_m1_certificate_with_two_workers_equals_one_bit_for_bit(tmp_path):
    reports, procs = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"cert-{workers}.json"
        procs.append(run_cli("certificate", "--model", "m1", "--n", "1024",
                             "--alpha", "1", "--L", "1", "--tau", "0.1", "--c", "9",
                             "--seed", "1", "--workers", workers, "--out", str(out)))
        report = json.loads(out.read_text())
        # the worker count itself is recorded twice; nothing else may differ
        report["config"]["workers"] = report["certificate"]["details"]["workers"] = None
        reports.append(json.dumps(report))
    assert [p.returncode for p in procs] == [procs[0].returncode] * 2
    assert procs[0].stderr == procs[1].stderr
    assert reports[0] == reports[1]


def test_tolerance_override_can_fail_checks(tmp_path):
    out = tmp_path / "strict.json"
    proc = run_cli("verify-spectral", "--n", "16", "--tol", "1e-30",
                   "--out", str(out))
    assert proc.returncode == 2
    assert "failed checks" in proc.stderr
    assert json.loads(out.read_text())["pass"] is False


def test_certificate_reports_are_byte_identical(tmp_path):
    out = tmp_path / "cert.json"
    args = ("certificate", "--model", "m2", "--n", "128", "--alpha", "1",
            "--L", "1", "--tau", "0.1", "--c", "9", "--kappa", "0.09",
            "--seed", "7", "--out", str(out))
    proc1 = run_cli(*args)
    first = out.read_bytes()
    proc2 = run_cli(*args)
    second = out.read_bytes()
    assert proc1.returncode == proc2.returncode
    assert proc1.returncode in (0, 2)
    assert first == second
    cert = json.loads(first)["certificate"]
    assert cert["cond_iii"]["pass"] is True


def test_rate_table_csv_kernel_specialisation(tmp_path):
    out = tmp_path / "rates.csv"
    proc = run_cli("rate-table", "--alphas", "0.6,1,2", "--qs", "0,0.5,1",
                   "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "model,q,alpha,exponent"
    rows = [line.split(",") for line in lines[1:]]
    m1 = {r[2]: r[3] for r in rows if r[0] == "m1"}
    q0 = {r[2]: r[3] for r in rows if r[0] == "mq" and r[1] == "0.0"}
    assert m1 == q0


def test_two_point_subcommand(tmp_path):
    out = tmp_path / "tp.json"
    proc = run_cli("two-point-m3", "--n", "128", "--sigma-min", "1",
                   "--sigma-max", "4", "--c", "0.3", "--tau", "0.1",
                   "--out", str(out))
    assert proc.returncode == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["family"]["kind"] == "two_point"
    assert cert["cond_iii"]["pass"] is True


def test_kl_scaling_json(tmp_path):
    out = tmp_path / "scaling.json"
    proc = run_cli("kl-scaling", "--model", "m1", "--alpha", "1", "--L", "1",
                   "--tau", "0.1", "--ns", "256,512,1024", "--out", str(out))
    assert proc.returncode == 0
    result = json.loads(out.read_text())["result"]
    assert abs(result["slope"] - 0.5) <= 0.1
    assert len(result["rows"]) == 3


def test_simulate_rate_csv(tmp_path):
    out = tmp_path / "sim.csv"
    proc = run_cli("simulate-rate", "--estimator", "rv", "--ns", "512,1024",
                   "--reps", "100", "--seed", "3", "--format", "csv",
                   "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("model,estimator,n,mse")
    assert len(lines) == 3


def test_verify_linalg_and_kl_pass(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("verify-linalg", "--trials", "500", "--seed", "1",
                   "--out", str(out)).returncode == 0
    assert json.loads(out.read_text())["pass"] is True
    assert run_cli("verify-kl", "--trials", "200", "--seed", "2",
                   "--out", str(out)).returncode == 0
    assert json.loads(out.read_text())["pass"] is True


def test_verify_posdefmaj_passes(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("verify-posdefmaj", "--count", "10", "--ns", "32,64",
                   "--seed", "3", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert all(c["pass"] for c in report["checks"])


def test_verify_model3_structure_reports_known_corner(tmp_path):
    # n = 256 is the CLI default; there a (1, 1) comparison that kept the
    # tau^2 noise in would round by more than the check's tolerance
    for n, args in ((64, ["--n", "64", "--tau", "0.1"]), (256, [])):
        out = tmp_path / f"r{n}.json"
        proc = run_cli("verify-model3-structure", *args, "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["config"]["n"] == n
        by_name = {c["lemma"]: c for c in report["checks"]}
        failing = [name for name, c in by_name.items() if not c["pass"]]
        assert failing == []
        support = by_name["noise_residual_boundary_support"]["parameters"]
        assert support["bottom_corner_value"] == 1.0
        # nothing outside the support is nonzero, so no entry is worst
        assert support["worst_entry"] is None
        corner = by_name["corner_entry_discrepancy_recorded"]
        assert corner["pass"] is True
        assert corner["parameters"]["difference"] == pytest.approx(
            corner["parameters"]["expected_difference"]
        )
        assert corner["parameters"]["expected_difference"] == 1.0 / (6.0 * n**3)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("args, fields", [
    (("two-point-m3", "--n", "64", "--sigma-min", "1", "--sigma-max", "4",
      "--c", "0.3"), ("certificate", "alpha", "L")),
    (("kl-scaling", "--ns", "64"), ("result", "slope", "slope_se")),
    (("kl-scaling", "--ns", "64,128"), ("result", "slope_se")),
    (("simulate-rate", "--ns", "256", "--reps", "100"), ("result", "slope", "slope_se")),
    (("simulate-rate", "--ns", "256,512", "--reps", "100"), ("result", "slope_se")),
])
def test_fields_without_a_value_are_null(args, fields):
    proc = run_cli(*args)
    assert proc.returncode in (0, 2), proc.stderr
    section, *keys = fields
    report = _strict_json(proc.stdout)[section]
    for key in keys:
        assert report[key] is None


@pytest.mark.parametrize("args", [
    ("kl-scaling", "--tau", "nan", "--ns", "64,128"),
    ("kl-scaling", "--model", "m3", "--tau", "inf", "--ns", "64,128"),
    ("simulate-rate", "--tau", "nan", "--ns", "256", "--reps", "100"),
    ("simulate-rate", "--estimator", "rv", "--tau=-inf", "--ns", "256",
     "--reps", "100"),
    ("rate-table", "--alphas", "1,nan"),
])
def test_non_finite_parameters_exit_one(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "not a finite number" in proc.stderr


def test_non_finite_config_value_exits_one(tmp_path):
    config = tmp_path / "nan.cfg"
    config.write_text("tau = nan\n")
    proc = run_cli("rate-table", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "tau" in proc.stderr and "not a finite number" in proc.stderr


def test_usage_errors_exit_one():
    assert run_cli("certificate", "--model", "bogus").returncode == 1
    assert run_cli("no-such-command").returncode == 1
    # certificate requires --c
    assert run_cli("certificate", "--model", "m2", "--n", "64").returncode == 1


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n = 32\ntol = 1e-8\n# comment\nseed = 4\n")
    out = tmp_path / "report.json"
    proc = run_cli("verify-spectral", "--config", str(config), "--n", "16",
                   "--out", str(out))
    assert proc.returncode == 0
    cfg = json.loads(out.read_text())["config"]
    assert cfg["n"] == 16       # flag beats file
    assert cfg["tol"] == 1e-8   # file beats default
    assert cfg["seed"] == 4


def test_config_file_choices_are_checked(tmp_path):
    # a config file is held to the same choices as the flags
    config = tmp_path / "bad.cfg"
    for line in ("format = xml", "model = m9", "estimator = ols"):
        config.write_text(line + "\n")
        proc = run_cli("rate-table", "--config", str(config))
        assert proc.returncode == 1, line
        assert proc.stdout == ""
        assert line.split()[0] in proc.stderr
    config.write_text("format = csv\nmodel = m3\nestimator = rv\n")
    proc = run_cli("rate-table", "--config", str(config))
    assert proc.returncode == 0
    assert proc.stdout.startswith("model,q,alpha,exponent")


def test_config_file_unknown_key_is_an_error(tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("n = 32\nmodle = m3\n")
    proc = run_cli("rate-table", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "modle" in proc.stderr


def test_env_seed_fallback(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify-spectral", "--n", "8", "--out", str(out),
                   env={"MNLAB_SEED": "99"})
    assert proc.returncode == 0
    assert json.loads(out.read_text())["config"]["seed"] == 99


def test_env_seed_that_is_no_integer_names_the_variable():
    proc = run_cli("rate-table", env={"MNLAB_SEED": "abc"})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: MNLAB_SEED is not an integer: 'abc'\n"


@pytest.mark.parametrize("args", [
    ("verify-kl", "--seed", "-1"),
    ("simulate-rate", "--ns", "64", "--reps", "100", "--seed", "-1"),
    # an exhaustive code draws nothing, yet the seed is refused all the same
    ("certificate", "--model", "m1", "--n", "256", "--c", "9", "--seed", "-1"),
    ("rate-table", "--seed=-5"),
])
def test_a_negative_seed_flag_exits_one(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    seed = args[-1].rpartition("=")[2]
    assert proc.stderr.endswith(
        f"error: argument --seed: not a non-negative integer: '{seed}'\n")
    assert proc.stderr.count("error:") == 1


def test_a_negative_seed_in_a_config_file_names_its_key(tmp_path):
    config = tmp_path / "seed.cfg"
    config.write_text("seed = -1\n")
    proc = run_cli("verify-kl", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: config value seed: not a non-negative integer: '-1'\n"


def test_a_negative_env_seed_names_the_variable():
    proc = run_cli("verify-kl", env={"MNLAB_SEED": "-1"})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: MNLAB_SEED is not a non-negative integer: '-1'\n"


def test_seed_zero_is_a_seed(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify-spectral", "--n", "8", "--seed", "0", "--out", str(out),
                   env={"MNLAB_SEED": "-1"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["config"]["seed"] == 0


@pytest.mark.parametrize("line, detail", [
    ("n = abc", "invalid literal for int() with base 10: 'abc'"),
    ("tau = x", "could not convert string to float: 'x'"),
    ("ns = 256,x", "invalid literal for int() with base 10: 'x'")])
def test_config_value_that_does_not_parse_names_its_key(tmp_path, line, detail):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    proc = run_cli("rate-table", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    key = line.partition(" =")[0]
    assert proc.stderr == f"error: config value {key}: {detail}\n"


def test_kl_scaling_repeated_size_is_one_error_line():
    proc = run_cli("kl-scaling", "--model", "m1", "--ns", "256,512,256")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: the sizes (--ns) repeat n = 256\n"


def test_stdout_json_when_no_out():
    proc = run_cli("rate-table", "--alphas", "1", "--qs", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "rate-table"


@pytest.mark.parametrize("args", [
    ("verify-posdefmaj", "--count", "0", "--ns", "16"),
    ("verify-kl", "--trials", "0"),
    ("simulate-rate", "--ns", "256,512", "--reps", "100", "--workers", "0"),
    ("simulate-rate", "--ns", "256,512", "--reps", "100", "--workers=-3"),
    ("verify-model3-structure", "--n", "32", "--max-hypotheses", "0"),
    ("certificate", "--n", "256", "--c", "9", "--max-hypotheses=-2"),
])
def test_counts_below_one_exit_one(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "not a positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_count_below_one_exits_one(tmp_path):
    config = tmp_path / "zero.cfg"
    config.write_text("count = 0\n")
    proc = run_cli("verify-posdefmaj", "--ns", "16", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: config value count: not a positive integer: '0'\n"


def test_config_max_hypotheses_below_one_exits_one(tmp_path):
    config = tmp_path / "zero.cfg"
    config.write_text("max_hypotheses = 0\n")
    proc = run_cli("verify-model3-structure", "--n", "32", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: config value max_hypotheses: not a positive integer: '0'\n")


def test_zero_family_constant_is_kept():
    # c = 0 is not replaced by the automatic constant; the family rejects it
    proc = run_cli("verify-model3-structure", "--n", "32", "--c", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: need n >= 2, c > 0, L > 0\n"


def test_zero_tolerance_is_kept():
    proc = run_cli("verify-spectral", "--n", "16", "--tol", "0")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["config"]["tol"] == 0.0
    assert report["pass"] is False
    assert proc.stderr.startswith("failed checks: closed_form_spectrum_match")


def test_failure_line_names_the_command():
    proc = run_cli("kl-scaling", "--model", "m1", "--ns", "256")
    assert proc.returncode == 2
    assert proc.stderr == "kl-scaling slope is not within 0.1 of the predicted slope\n"
    proc = run_cli("two-point-m3", "--n", "64", "--sigma-min", "1",
                   "--sigma-max", "4", "--c", "3", "--tau", "0.1")
    assert proc.returncode == 2
    assert proc.stderr == "certificate conditions not all satisfied\n"


def test_certificate_over_a_large_code_reports(capsys):
    # m = 85, 1581 codewords: condition (ii) is read from the code distance,
    # not from a quadrature over 1.25 M codeword pairs (minutes)
    import time

    start = time.perf_counter()
    code = cli.main(["certificate", "--model", "m1", "--n", "2048", "--alpha", "0.6",
                     "--c", "30", "--max-hypotheses", "2"])
    assert time.perf_counter() - start < 60.0
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "certificate conditions not all satisfied\n"
    report = json.loads(out)["certificate"]
    assert report["family"]["m"] == 85 and len(report["family"]["codewords"]) == 1581
    assert report["details"]["min_separation_hamming"] * 8 >= 85


def test_oversized_code_is_one_error_line(capsys, monkeypatch):
    # m = 199 needs 30,769,551 codewords; refused before any random draw
    import numpy as np

    monkeypatch.setattr(np.random, "default_rng", None)
    code = cli.main(["certificate", "--model", "m1", "--n", "4096", "--alpha", "0.6",
                     "--c", "60"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: m = 199 needs 30769551 codewords, over the limit 8193\n"


def _capped_address_space():
    # about 3 GB: a run that asks numpy for an array of many GiB fails at
    # once instead of exhausting the machine
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


@pytest.mark.parametrize("args, line", [
    # the code size is refused before the bump centres or any power of m
    (("certificate", "--model", "m1", "--n", "256", "--c", "1e9"),
     "m = 1259921050 needs more than 2^157490131 codewords, over the limit 8193"),
    (("certificate", "--model", "m1", "--n", "256", "--c", "1e5"),
     "m = 125993 needs more than 2^15749 codewords, over the limit 8193"),
    (("certificate", "--model", "m1", "--n", "256", "--c", "1e20"),
     "m = 125992104989487316992 needs more than 2^15749013123685914624 codewords, "
     "over the limit 8193"),
    (("certificate", "--model", "m1", "--n", "256", "--c", "1.7e308"),
     "bump count m is not finite for c = 1.7e+308, n = 256"),
    (("verify-model3-structure", "--c", "1e9"),
     "m = 793700526 needs more than 2^99212565 codewords, over the limit 8193"),
    (("certificate", "--model", "m1", "--n", "4096", "--alpha", "0.6", "--c", "60"),
     "m = 199 needs 30769551 codewords, over the limit 8193"),
    # scales whose squares would overflow are refused where they enter
    (("certificate", "--model", "m2", "--n", "256", "--c", "9", "--L", "1e300"),
     "L must be at most 1e+50"),
    (("kl-scaling", "--model", "m1", "--ns", "8,16", "--L", "1e300"),
     "L must be at most 1e+50"),
    # the bump's width^alpha has L's bound: width^(2 alpha) used to overflow
    # (m2, m3) or fail the quadrature (m1)
    (("kl-scaling", "--model", "m1", "--ns", "64,128", "--width", "1e300"),
     "bump width^alpha must be at most 1e+50"),
    (("kl-scaling", "--model", "m2", "--ns", "64,128", "--width", "1e300"),
     "bump width^alpha must be at most 1e+50"),
    (("kl-scaling", "--model", "m3", "--ns", "64,128", "--width", "1e300"),
     "bump width^alpha must be at most 1e+50"),
    (("kl-scaling", "--model", "m1", "--ns", "64,128", "--width", "1e26", "--alpha", "2"),
     "bump width^alpha must be at most 1e+50"),
    (("two-point-m3", "--n", "8", "--c", "1e300", "--sigma-max", "1e308"),
     "sigma_max must be at most 1e+50"),
    (("kl-scaling", "--model", "m1", "--ns", "8,16", "--tau", "1e200"),
     "tau must lie in [0, 1e+50]"),
    (("certificate", "--model", "m1", "--n", "256", "--c", "9", "--tau", "1e200"),
     "tau must lie in [0, 1e+50]"),
    (("simulate-rate", "--ns", "16,32", "--reps", "100", "--tau", "1e200"),
     "tau must be at most 1e+50 in absolute value"),
    # the dense suites refuse sizes past their desk bound
    (("verify-spectral", "--n", "60000"), "n > 4096 exceeds the dense desk bound"),
    (("verify-model3-structure", "--n", "60000"),
     "n > 4096 exceeds the dense desk bound"),
    (("verify-posdefmaj", "--ns", "60000", "--count", "1"),
     "n > 4096 exceeds the dense desk bound"),
])
def test_oversized_inputs_are_one_error_line(args, line):
    proc = subprocess.run(ENTRY + list(args), capture_output=True, text=True,
                          timeout=120, preexec_fn=_capped_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("args", [
    ("kl-scaling", "--model", "m2", "--ns", "64,128,256", "--L", "1e20"),
    ("certificate", "--model", "m2", "--n", "256", "--c", "8", "--L", "1e20")])
def test_unresolved_definiteness_is_one_error_line(args):
    # every m2 alternative is a covariance (sigma >= 1); at L = 1e20 double
    # precision cannot tell the sign of 1 + mu_min, and the error says so
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(
        "error: the alternative's definiteness is unresolved at double precision: "
        "1 + mu_min = -")
    assert "lies within the rounding bound k eps max|mu| = " in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("model, width, alpha", [
    ("m1", "1e50", "1"), ("m2", "1e50", "1"), ("m3", "1e25", "2"),
])
def test_kl_scaling_takes_a_width_at_its_bound(model, width, alpha):
    proc = run_cli("kl-scaling", "--model", model, "--ns", "64,128", "--width", width,
                   "--alpha", alpha, "--L", "1e50")
    assert proc.returncode in (0, 2), proc.stderr
    rows = json.loads(proc.stdout)["result"]["rows"]
    assert all(0.0 < row["kl"] < float("inf") for row in rows)


def test_an_eigensolver_failure_is_one_error_line(capsys, monkeypatch):
    # dsyevd's positive info counts the off-diagonal entries that did not
    # converge
    import numpy as np

    from mnlab import _lapack

    monkeypatch.setattr(_lapack, "dsyevd",
                        lambda m, **kwargs: (np.zeros(m.shape[0]), None, 2))
    code = cli.main(["kl-scaling", "--model", "m2", "--ns", "64,128"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: eigensolver did not converge: 2 off-diagonal entries left\n"


def test_optimization_failure_is_one_error_line():
    proc = run_cli("simulate-rate", "--estimator", "mle", "--ns", "64,128",
                   "--reps", "100", "--sigma-sq", "1e9")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: score is still positive at the bracket ceiling\n"


@pytest.mark.parametrize("args, line", [
    (("--ns", "0,2"), "error: n must be at least 1, got 0\n"),
    (("--ns", "256,512", "--sigma-sq", "-1"),
     "error: sigma_sq must be non-negative, got -1.0\n"),
    # a negative noise level for any estimator, and none at all for the MLE
    (("--ns", "1024,2048", "--estimator", "rv", "--tau", "-0.1"),
     "error: tau must be non-negative, got -0.1\n"),
    (("--ns", "1024,2048", "--estimator", "rv_uncorrected", "--tau", "-0.1"),
     "error: tau must be non-negative, got -0.1\n"),
    (("--ns", "1024,2048", "--estimator", "mle", "--tau", "-0.1"),
     "error: tau must lie in (0, 1e+50] (assumed known)\n"),
    (("--ns", "1024,2048", "--estimator", "mle", "--tau", "0"),
     "error: tau must lie in (0, 1e+50] (assumed known)\n"),
])
def test_simulate_rate_rejects_bad_inputs(args, line):
    proc = run_cli("simulate-rate", "--reps", "100", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == line


def test_two_point_rejects_n_above_the_desk_bound():
    proc = run_cli("two-point-m3", "--n", "8193", "--sigma-min", "1",
                   "--sigma-max", "4", "--c", "1", "--tau", "0.1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: n > 8192 exceeds the exact-KL desk bound\n"


def test_two_point_sigma_max_is_a_relative_bound():
    # sigma_1^2 = 1e-14 + 1.5e-12 / 256^(1/8) = 7.6e-13 is 7.6 times sigma_max,
    # though within an absolute 1e-12 of it
    proc = run_cli("two-point-m3", "--n", "256", "--sigma-min", "1e-14",
                   "--sigma-max", "1e-13", "--c", "1.5e-12", "--tau", "0.1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: sigma_1^2 exceeds sigma_max; lower c\n"


def test_an_unresolved_precondition_reads_false():
    # at L = 1e15 each m2 alternative's 1 + mu_min (0.0388, 0.0197, 0.0330)
    # lies within its rounding bound, far above the Frobenius constant 8.3e-32
    proc = run_cli("certificate", "--model", "m2", "--n", "64", "--c", "8",
                   "--L", "1e15", "--seed", "1")
    assert proc.returncode == 2
    cert = json.loads(proc.stdout)["certificate"]
    rows = cert["details"]["per_hypothesis"]
    assert [row["precondition_ok"] for row in rows] == [False, False, False]
    assert cert["cond_iii"]["frobenius_bound_preconditions_ok"] is False


@pytest.mark.parametrize("args", [
    ("two-point-m3", "--n", "2048", "--sigma-min", "0.1", "--sigma-max", "4", "--c", "1",
     "--tau", "1"),
    ("certificate", "--model", "m3", "--n", "4096", "--alpha", "1", "--L", "1",
     "--tau", "0.1", "--c", "9", "--seed", "0"),
])
def test_a_precondition_the_spectrum_leaves_unresolved_reads_from_the_block(args):
    # each least mu lies within its rounding bound (9.4e-13 against 1.7e-12
    # for the two point, 4.7e-17 against 2.1e-16 for the first alternative),
    # as the pencils' mu span more than 1 / (k eps), but each B >= 0 resolves
    cert = json.loads(run_cli(*args).stdout)["certificate"]
    assert cert["cond_iii"]["frobenius_bound_preconditions_ok"] is True
    assert cert["details"]["ordering_psd_all"] is True


@pytest.mark.parametrize("args", [
    ("--width", "0"), ("--width", "-0.1"), ("--L", "0"), ("--L", "-0.5"),
])
def test_kl_scaling_rejects_bad_inputs(args):
    proc = run_cli("kl-scaling", "--model", "m1", "--ns", "256,512", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: need bump width > 0, L > 0\n"


@pytest.mark.parametrize("args, line", [
    (("kl-scaling", "--model", "m1", "--ns", "1"), "error: differencing needs n >= 2\n"),
    (("verify-model3-structure", "--n", "1"), "error: differencing needs n >= 2\n"),
    (("kl-scaling", "--model", "m3", "--ns", "0"), "error: n must be >= 1\n"),
    (("verify-model3-structure", "--n", "0"), "error: n must be >= 1\n"),
])
def test_a_model_needs_two_observations(args, line):
    # the model spec rejects these sizes before anything is built
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == line


@pytest.mark.parametrize("model, width", [
    ("m1", "1e-300"), ("m2", "1e-300"), ("m3", "1e-300"), ("m2", "1e-170"), ("m3", "1e-170"),
])
def test_kl_scaling_with_a_tiny_width_prints_one_error_line(model, width):
    # far outside a bump of tiny width u * u overflows, with no warning
    proc = run_cli("kl-scaling", "--model", model, "--ns", "64,128", "--width", width)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: the exact KL is 0 at n = 64: the bump moves no "
                           "covariance entry, so the log-log slope is undefined\n")


_SCIPY_AFTER_MAIN = """
import sys
from mnlab import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print()
print(sorted(m for m in sys.modules
             if m.split('.')[0] == 'scipy' or m == 'concurrent.futures'))
"""


def _scipy_after_main(*args):
    """The scipy modules, and ``concurrent.futures`` if loaded, that a fresh
    process holds after ``cli.main(args)``."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_MAIN, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_importing_montecarlo_loads_no_covariance_modules():
    # montecarlo and cli load no scipy module at all, and no mnlab process
    # loads scipy.integrate: every quadrature is profiles.checked_cells
    for module, loaded in (
            ("mnlab.montecarlo", "m in ('mnlab.kl', 'mnlab.models', 'mnlab.certificate', "
                                 "'mnlab.checks') or m.split('.')[0] == 'scipy'"),
            ("mnlab.cli", "m.split('.')[0] == 'scipy'")):
        code = (f"import sys, {module}; "
                f"print(sorted(m for m in sys.modules if {loaded}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module
    # each subcommand imports what it runs: simulate-rate, help, version
    # and usage errors load no scipy module, and one worker no thread pool
    for args in (("simulate-rate", "--ns", "64,128", "--reps", "100"),
                 ("--help",), ("--version",), ("simulate-rate", "--ns", ","),
                 ("no-such-command",), ("certificate", "--n", "64"),
                 ("two-point-m3", "--n", "64")):
        assert _scipy_after_main(*args) == [], args
    assert _scipy_after_main("simulate-rate", "--ns", "64,128", "--reps", "100",
                             "--workers", "2") == ["concurrent.futures"]
    # the m1 covariance commands load scipy's LAPACK extension through
    # mnlab._lapack, and neither its BLAS extension, the scipy.linalg
    # package nor scipy.integrate; more than one worker loads the pool
    for args in (("certificate", "--model", "m1", "--n", "256", "--c", "9"),
                 ("certificate", "--model", "m1", "--n", "256", "--c", "9",
                  "--workers", "1"),
                 ("kl-scaling", "--model", "m1", "--ns", "256,512")):
        assert _scipy_after_main(*args) == ["scipy.linalg._flapack"], args
    assert _scipy_after_main("certificate", "--model", "m1", "--n", "256", "--c", "9",
                             "--workers", "2") == [
        "concurrent.futures", "scipy.linalg._flapack"]
    # bumps that lie apart take the general route, whose dtrmm loads the
    # BLAS extension on first use
    for workers in ("1", "2"):
        loaded = _scipy_after_main("certificate", "--model", "m2", "--n", "256",
                                   "--c", "8", "--workers", workers)
        assert [m for m in loaded if m != "concurrent.futures"] == [
            "scipy.linalg._fblas", "scipy.linalg._flapack"], workers
        assert ("concurrent.futures" in loaded) == (workers == "2")
    # and no process-global warning filter is touched
    for path in sorted(Path(mnlab.__file__).parent.glob("*.py")):
        assert "catch_warnings" not in path.read_text(), path.name


def test_parsing_loads_no_numpy():
    # cli imports montecarlo in the simulate-rate handler, so importing cli,
    # help, version and every usage error load no numpy module
    code = ("import sys, mnlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    numpy_after_main = _SCIPY_AFTER_MAIN.replace("'scipy'", "'numpy'")
    for args in (("--help",), ("--version",), ("no-such-command",),
                 ("certificate", "--n", "64")):
        proc = subprocess.run([sys.executable, "-c", numpy_after_main, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", args


def test_estimator_choices_are_the_montecarlo_estimators():
    from mnlab import montecarlo

    assert cli._FLAGS["estimator"][2] == montecarlo.ESTIMATORS


@pytest.mark.parametrize("suite, blas", [
    (("verify-linalg", "--trials", "20"), False), (("verify-spectral", "--n", "32"), False),
    (("verify-kl", "--trials", "20"), True), (("verify-posdefmaj", "--ns", "16"), False),
    (("verify-model3-structure", "--n", "32"), False)])
def test_verify_suites_load_no_scipy_package(suite, blas):
    # checks runs on mnlab.kl and mnlab.linalg, so only their extensions:
    # LAPACK's, and BLAS's only for verify-kl, whose dense laws take the
    # general route
    assert _scipy_after_main(*suite) == (["scipy.linalg._fblas"] if blas else []) + [
        "scipy.linalg._flapack"], suite


_LAPACK_IDENTITY = """
import numpy as np
from mnlab import _lapack, kl
import scipy.linalg
from scipy.linalg import blas, lapack
for name in _lapack.__all__:
    scipy_module = blas if name == "dtrmm" else lapack
    assert getattr(_lapack, name) is getattr(scipy_module, name), name
ab = np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
x = scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(ab, lower=True), True),
                                  np.ones(3))
dense = np.diag(ab[0]) + np.diag(ab[1, :-1], 1) + np.diag(ab[1, :-1], -1)
assert np.allclose(dense @ x, 1.0, rtol=1e-14, atol=0)
print("ok")
"""


def test_lapack_binding_is_what_scipy_exports():
    # mnlab._lapack loads first; scipy.linalg imported after it reuses the
    # same extension modules and keeps working
    proc = subprocess.run([sys.executable, "-c", _LAPACK_IDENTITY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


_BLAS_FIRST_USE = """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from mnlab import _lapack
assert "scipy.linalg._fblas" not in sys.modules and "dtrmm" not in vars(_lapack)
made, real = [], _lapack.module_from_spec
_lapack.module_from_spec = lambda spec: made.append(spec.name) or real(spec)
start = threading.Barrier(4)

def first_read(_):
    start.wait(timeout=60)
    return _lapack.dtrmm

sys.setswitchinterval(1e-6)
with ThreadPoolExecutor(max_workers=4) as pool:
    got = list(pool.map(first_read, range(4), timeout=60))
from scipy.linalg import blas
assert made == ["scipy.linalg._fblas"], made
assert all(d is blas.dtrmm for d in got)
assert vars(_lapack)["dtrmm"] is blas.dtrmm
try:
    _lapack.dtbsv
except AttributeError:
    print("ok")
"""


def test_blas_extension_loads_once_on_the_first_dtrmm_read():
    # four threads read dtrmm first together: the extension is loaded once,
    # and every thread gets the object scipy exports
    proc = subprocess.run([sys.executable, "-c", _BLAS_FIRST_USE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("ns, zero", [("3,5,7", 3), ("64,5", 5), ("7,128", 7)])
def test_kl_scaling_zero_kl_is_one_error_line(ns, zero):
    # m2 reads sigma(t_i) on the grid; below n = 8 no point meets the bump
    proc = run_cli("kl-scaling", "--model", "m2", "--ns", ns)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: the exact KL is 0 at n = {zero}: the bump moves "
                           f"no covariance entry, so the log-log slope is undefined\n")


def test_kl_scaling_one_size_with_zero_kl_fits_no_slope():
    # one size takes no logarithm, so its KL of 0 warns of nothing
    proc = run_cli("kl-scaling", "--model", "m2", "--ns", "5")
    assert proc.returncode == 2
    assert proc.stderr == "kl-scaling slope is not within 0.1 of the predicted slope\n"
    result = json.loads(proc.stdout)["result"]
    assert result["slope"] is None and result["rows"][0]["kl"] == 0.0


def test_simulate_rate_accepts_zero_variance():
    proc = run_cli("simulate-rate", "--ns", "64,128", "--reps", "100",
                   "--sigma-sq", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["config"]["sigma_sq"] == 0.0


def test_write_report_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "nested" / "report.json"
    write_report(b"old contents, longer than the new ones\n", path)
    write_report(b"new\n", path)
    assert path.read_bytes() == b"new\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["report.json"]


def error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("target", ["dir", "file/report.json"])
def test_unwritable_out_is_one_error_line(tmp_path, target):
    # --out naming a directory, or a path under a regular file
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("a regular file\n")
    out = tmp_path / target
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    proc = run_cli("rate-table", "--alphas", "1", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(error_lines(proc.stderr)) == 1, proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr
    # no temp file is left behind
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("args", [
    ("kl-scaling", "--model", "m1", "--ns", ","),
    ("simulate-rate", "--reps", "100", "--ns", ","),
    ("verify-posdefmaj", "--ns", ""),
    ("rate-table", "--alphas", ","),
    ("rate-table", "--qs", ""),
])
def test_empty_list_flag_exits_one(args):
    # an empty list would silently run the command's default sizes, or no rows
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert error_lines(proc.stderr) == [
        f"error: argument {args[-2]}: empty list: {args[-1]!r}"], proc.stderr


@pytest.mark.parametrize("command, line", [
    ("simulate-rate", "ns ="), ("kl-scaling", "ns = ,"), ("rate-table", "alphas =")])
def test_empty_list_config_value_exits_one(tmp_path, command, line):
    config = tmp_path / "empty.cfg"
    config.write_text(line + "\n")
    proc = run_cli(command, "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    key, _, value = line.partition(" =")
    assert proc.stderr == f"error: config value {key}: empty list: {value.strip()!r}\n"


def test_every_flag_is_read():
    # a flag that no handler reads as cfg["<key>"] is dead surface
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}
    assert set(cli._FLAGS) - read == set()


@pytest.mark.parametrize("args", [
    ("kl-scaling", "--model", "mq", "--ns", "256,512"),
    ("rate-table", "--model", "mq"),
    ("rate-table", "--q", "0.5"),
    ("certificate", "--q", "0.5", "--c", "9", "--n", "64"),
])
def test_no_mq_model_and_no_q_flag(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(error_lines(proc.stderr)) == 1, proc.stderr


def test_config_file_q_is_an_unknown_key(tmp_path):
    config = tmp_path / "q.cfg"
    config.write_text("q = 0.5\n")
    proc = run_cli("rate-table", "--config", str(config))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown config key: q\n"
