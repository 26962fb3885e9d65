"""The three benchmark workloads: CLI invocations, work units and seeds.

Each workload is a closed loop in one process: the workload process runs
its CLI invocations one at a time through ``mnlab.cli.main`` with
``--workers 1``.  One repeat is one workload process.

Seeds
-----
``cert-m1`` passes the benchmark seed to ``--seed`` as is.  Its family has
m = 17 <= 24 bumps, for which the code search is greedy in integer order,
so the numbers do not depend on the seed; the reference gate checks that
(the codewords are compared too).  Alternative seed for rechecking a claim:
``--seed 8``.

``simulate-rate-c8`` draws every replicate from the seed, so its reference
values are captured per seed.  The benchmark seed picks one of the ten
seeds in ``SIM_SEEDS`` (``SIM_SEEDS[seed % 10]``), each with captured
reference values.  Alternative seed, kept out of that pool so that a claim
can be rechecked on a seed not used while writing it: ``--sim-seed 23``
(its reference is captured too).

``kl-scaling-c7`` is deterministic and takes no seed; the benchmark seed
does not change its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

SIM_SEEDS = tuple(range(11, 21))
ALT_CERT_SEED = 8
ALT_SIM_SEED = 23

WHY = {
    "cert-m1": (
        "One null law against 5 alternatives at n=2048: dense kl_bound, "
        "kl_exact and Loewner tests over 20 Cholesky factors of 6 matrices, "
        "so null-factor caching shows here."
    ),
    "kl-scaling-c7": (
        "kl_exact only, each law compared once, up to n=4096 for m1, m2 and "
        "m3: the m2 dense conjugation and m3 covariance; banded storage shows "
        "in peak_rss_mb."
    ),
    "simulate-rate-c8": (
        "Monte Carlo MLE rate fit, n=1024..16384 with 500 replicates: only "
        "montecarlo and structures (sine transform), never models, kl or "
        "linalg."
    ),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation: its arguments and the exit code it must return."""

    name: str
    argv: tuple
    expect_exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    work: int          # work units completed by one repeat
    work_unit: str
    seed: int | None   # the seed given to the program, if any


_SIZES = {
    "full": {
        "cert_n": "2048",
        "kl_ns": "256,512,1024,2048,4096",
        "sim_ns": "1024,2048,4096,8192,16384",
        "sim_reps": 500,
        "cert_hypotheses": 5,
    },
    # a seconds-long version of each workload for the self-tests
    "tiny": {
        "cert_n": "256",
        "kl_ns": "64,128,256",
        "sim_ns": "256,512",
        "sim_reps": 100,
        "cert_hypotheses": 3,
    },
}

_KL_MODELS = (
    ("m1", "0.1", "0.125"),
    ("m2", "0.02", "0.25"),
    ("m3", "0.01", "0.125"),
)

NAMES = tuple(WHY)


def workload_seed(name: str, seed: int, sim_seed=None):
    """The seed given to the program for a benchmark seed (None: no seed)."""
    if name == "cert-m1":
        return seed
    if name == "simulate-rate-c8":
        return SIM_SEEDS[seed % len(SIM_SEEDS)] if sim_seed is None else sim_seed
    return None


def build(name: str, seed: int, scale: str = "full",
          sim_seed=None) -> Workload:
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    size = _SIZES[scale]
    wseed = workload_seed(name, seed, sim_seed)
    common = ("--workers", "1", "--format", "json")
    if name == "cert-m1":
        argv = ("certificate", "--model", "m1", "--n", size["cert_n"],
                "--alpha", "1", "--L", "1", "--tau", "0.1", "--c", "9",
                "--kappa", "0.09", "--seed", str(wseed)) + common
        # exit 2 by design: the separation condition fails at desk n
        invocations = (Invocation("certificate-m1", argv, 2),)
        return Workload(name, invocations, size["cert_hypotheses"],
                        "hypotheses", wseed)
    if name == "kl-scaling-c7":
        invocations = tuple(
            Invocation(f"kl-scaling-{model}",
                       ("kl-scaling", "--model", model, "--alpha", "1",
                        "--L", "1", "--tau", tau, "--width", width,
                        "--ns", size["kl_ns"]) + common, 0)
            for model, tau, width in _KL_MODELS
        )
        points = len(_KL_MODELS) * len(size["kl_ns"].split(","))
        return Workload(name, invocations, points, "probe points", None)
    argv = ("simulate-rate", "--estimator", "mle", "--ns", size["sim_ns"],
            "--reps", str(size["sim_reps"]), "--seed", str(wseed)) + common
    replicates = size["sim_reps"] * len(size["sim_ns"].split(","))
    return Workload(name, (Invocation("simulate-rate-mle", argv, 0),),
                    replicates, "replicates", wseed)
