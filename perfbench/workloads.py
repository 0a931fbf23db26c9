"""Workload definitions: the inputs each benchmark workload feeds to the
secembed command line, derived from the workload seed.

A job is a fixed sequence of steps, each one ``secembed.cli.main(argv)``
call.  Job ``i`` of a run gives every step the verb seed
``seed * SEED_STRIDE + i``, so one workload seed fixes the whole job
sequence and two workload seeds share no verb seed.  The YAML the
workloads need beyond ``configs/`` is written into a scratch directory;
``configs/`` itself is only read.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import yaml

import checks

SEED_STRIDE = 10_000

# Binary system of criterion 02: all six alphabets binary, X uniform and
# independent of K, Hamming d and d', lambda = 1, identity attack.
BINARY_SYSTEM = {
    "alphabets": {
        "U": ["u0", "u1"],
        "X": ["x0", "x1"],
        "K": ["k0", "k1"],
        "Y": ["y0", "y1"],
        "Z": ["z0", "z1"],
        "Uhat": ["u0", "u1"],
    },
    "lambda": 1.0,
    "message_source": [0.5, 0.5],
    "covertext_key": [[0.25, 0.25], [0.25, 0.25]],
    "attack": [[1.0, 0.0], [0.0, 1.0]],
    "embedding_distortion": [[0.0, 1.0], [1.0, 0.0]],
    "message_distortion": [[0.0, 1.0], [1.0, 0.0]],
}


@dataclass(frozen=True)
class Inputs:
    """Paths of the YAML files a run reads, and H(U) of the demo system."""

    demo_system: Path
    demo_aux: Path
    audit_system: Path  # the demo system at lambda = 0.2
    binary_system: Path
    h_u: float  # the ceiling on the demo system's equivocation, in bits


@dataclass(frozen=True)
class Step:
    """One CLI call of a job: its arguments, the checks its outputs must
    pass, and the checks of the traced counts against those outputs."""

    name: str
    # (inputs) -> verb and arguments other than --seed and --out
    args: Callable[[Inputs], list[str]]
    # (artifacts, inputs) -> problems
    check: Callable[[dict[str, bytes], Inputs], list[str]]
    # (traced metrics of the step) -> problems
    crosscheck: Callable[[dict[str, float]], list[str]]
    # (artifacts) -> the certified objective value, for steps that have one
    opt_value: Callable[[dict[str, bytes]], float] | None = None

    def argv(self, inputs: Inputs, verb_seed: int, out: Path) -> list[str]:
        return [*self.args(inputs), "--seed", str(verb_seed), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]
    # untraced jobs per run: a fixed count, so every commit takes its median
    # over the same verb seeds; with the warm-up job, sized to about 50 s of
    # wall time at the seed commit on a 2-core machine, so a 60 s cap leaves
    # room for the machine's slow spells
    jobs: int


def write_inputs(configs: Path, scratch: Path) -> Inputs:
    """Write the generated system files into ``scratch``; read ``configs``."""
    scratch.mkdir(parents=True, exist_ok=True)
    demo_system = configs / "demo_system.yaml"
    demo_aux = configs / "demo_aux.yaml"
    audit = yaml.safe_load(demo_system.read_text())
    audit["lambda"] = 0.2
    audit_system = scratch / "audit_system.yaml"
    audit_system.write_text(yaml.safe_dump(audit))
    binary_system = scratch / "binary_system.yaml"
    binary_system.write_text(yaml.safe_dump(BINARY_SYSTEM))
    return Inputs(demo_system, demo_aux, audit_system, binary_system, message_entropy_bits(demo_system))


def message_entropy_bits(system_file: Path) -> float:
    """H(U) of a system file's message source."""
    p = yaml.safe_load(system_file.read_text())["message_source"]
    return -sum(x * math.log2(x) for x in p if x > 0)


def verb_seed(seed: int, job: int) -> int:
    return seed * SEED_STRIDE + job


# The demo settings of criterion 06 and the ROADMAP baseline: n=16,
# delta=0.6, D'=0, a 2^5-row bin, no stegotext spread and a 4-bit pad.
_DEMO_CODE = ["--delta", "0.6", "--dprime", "0.0", "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "4"]

SIM_TRIALS = 500
EXACT_TRIALS = 20
REBUILDS = 8
RESTARTS = 32  # the CLI's default, which the workload leaves in place

STEPS = {
    s.name: s
    for s in (
        # The Monte-Carlo path users run most: the per-trial encode ->
        # attack -> decode loop and the codebook build (sampling plus the RD
        # cover) take about even shares at 500 trials.
        Step(
            "sim-trials",
            lambda i: [
                "simulate", "--spec", str(i.demo_system), "--aux", str(i.demo_aux),
                "--n", "16", "--trials", str(SIM_TRIALS), *_DEMO_CODE,
            ],
            lambda art, i: checks.check_trials(art, SIM_TRIALS),
            lambda m: checks.crosscheck_trials(m, SIM_TRIALS),
        ),
        # The same encoder and decoder run once per enumerated (u, x, k)
        # word (4,096 at n=8) behind a decode cache instead of once per
        # random trial, and the call pays the double codebook build.  A
        # batched engine that helps trials but slows per-word calls shows.
        Step(
            "sim-exact",
            lambda i: [
                "simulate", "--spec", str(i.demo_system), "--aux", str(i.demo_aux),
                "--n", "8", "--trials", str(EXACT_TRIALS), *_DEMO_CODE, "--exact-equivocation",
            ],
            lambda art, i: checks.check_trials(art, EXACT_TRIALS) + checks.check_equivocation(art, i.h_u),
            lambda m: checks.crosscheck_enumeration(m, EXACT_TRIALS),
        ),
        # Construction and audits with no trials: stegotext-book sampler
        # construction, sampling and the bin and compression audits.  Kept
        # at n=10 (criteria 08 and 09) because the compression audit on the
        # n=16 code takes minutes.
        Step(
            "build-audit",
            lambda i: [
                "audit", "--spec", str(i.audit_system), "--aux", str(i.demo_aux),
                "--n", "10", "--delta", "0.2", "--gamma", "0.5", "--dprime", "0.0",
                "--m2-bits", "7", "--m3-bits", "0", "--j-bits", "1", "--rebuilds", str(REBUILDS),
            ],
            lambda art, i: checks.check_audit(art, REBUILDS),
            lambda m: checks.crosscheck_builds(m, REBUILDS),
        ),
        # Pure region math at the default restarts and V cardinality
        # (criterion 02's system).
        Step(
            "region-opt",
            lambda i: [
                "region-opt", "--spec", str(i.binary_system), "--objective", "embedding_rate",
                "--fix", "d_prime=0.25,d=1.0",
            ],
            lambda art, i: checks.check_region(art, RESTARTS),
            checks.crosscheck_optimize,
            checks.opt_value,
        ),
    )
}

# Two workloads, not one per step: the work of a job depends on its verb
# seed (the optimizer's by a fifth either side), so a run takes its median over
# six or seven seeds, and runs that long fit the benchmark's total time for
# two workloads only.
WORKLOADS = {
    w.name: w
    for w in (
        # Every sim, typical and rd layer, as one simulator session: trials,
        # exact enumeration, and construction with audits.  The optimizer
        # never runs, so this is the control for region-math changes.
        Workload(
            "sim-session",
            "n=16 Monte-Carlo simulate, n=8 exact equivocation and n=10 audit: every sim, typical and rd layer",
            (STEPS["sim-trials"], STEPS["sim-exact"], STEPS["build-audit"]),
            jobs=6,
        ),
        # The optimizer loop over the information quantities, bypassing
        # everything in sim and typical: the control for simulator changes.
        Workload(
            "region-opt",
            "default-settings region optimizer on the binary system: region math with no simulation",
            (STEPS["region-opt"],),
            jobs=7,
        ),
    )
}
