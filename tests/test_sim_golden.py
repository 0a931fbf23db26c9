"""Byte-level regression of `simulate` and `audit` artifacts.

The files under ``tests/data/`` were written by the simulator before its
sampler tables, box-count kernel and RD cover were rewritten for speed.
Those rewrites keep the random stream and every decision exactly as they
were, so every artifact must stay identical to the byte.

Regenerate (only after an intended change of results, such as a declared
change of the random stream) with ``PYTHONPATH=src python tests/test_sim_golden.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import yaml

from secembed import cli, sim

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"

# the demo system with a shorter message (lambda = 1/5), as the audit workload
# of criteria 08 and 09 uses it
AUDIT_SYSTEM = {**yaml.safe_load((CONFIGS / "demo_system.yaml").read_text()), "lambda": 0.2}

_DEMO = ["--spec", "{demo}", "--aux", "{aux}", "--delta", "0.6", "--m3-bits", "0"]

CASES = {
    # n=16 Monte-Carlo run; its 60 trials include atypical inputs (e1),
    # failed bin searches (e2) and ambiguous decodes (e5)
    "sim_n16": (
        "simulate",
        [*_DEMO, "--n", "16", "--trials", "60", "--dprime", "0.0",
         "--m2-bits", "3", "--j-bits", "4", "--seed", "3"],
        ("_trials.csv", "_summary.csv"),
    ),
    # n=8 exact equivocation with a radius-1 RD cover of the 4-symbol message
    "exact_n8": (
        "simulate",
        [*_DEMO, "--n", "8", "--trials", "10", "--dprime", "0.25",
         "--m2-bits", "3", "--j-bits", "2", "--seed", "4", "--exact-equivocation"],
        ("_summary.csv",),
    ),
    # bin-multiplicity audit of two rebuilds and the compression audit of the
    # first, with two stegotext words per auxiliary word
    "audit_n10": (
        "audit",
        ["--spec", "{audit}", "--aux", "{aux}", "--n", "10", "--delta", "0.2",
         "--gamma", "0.5", "--dprime", "0.0", "--m2-bits", "7", "--m3-bits", "1",
         "--j-bits", "1", "--rebuilds", "2", "--seed", "6"],
        ("_bins.csv", "_compression.csv"),
    ),
}


def _run_case(name: str, workdir: Path) -> Path:
    verb, args, _ = CASES[name]
    audit_path = workdir / "audit_system.yaml"
    audit_path.write_text(yaml.safe_dump(AUDIT_SYSTEM))
    paths = {
        "demo": str(CONFIGS / "demo_system.yaml"),
        "aux": str(CONFIGS / "demo_aux.yaml"),
        "audit": str(audit_path),
    }
    out = workdir / name
    argv = [verb, *(a.format(**paths) for a in args), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_sim_artifacts_match_golden(name, tmp_path):
    out = _run_case(name, tmp_path)
    for suffix in CASES[name][2]:
        got = Path(str(out) + suffix).read_bytes()
        assert got == (DATA / f"{name}{suffix}").read_bytes(), suffix


def test_exact_equivocation_builds_codebooks_once(tmp_path, monkeypatch):
    """The trials and the exact enumeration share one codebook build, and
    the summary stays the one two builds of the same seed wrote."""
    calls = []
    build = sim.build_codebooks

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sim, "build_codebooks", counting_build)
    out = _run_case("exact_n8", tmp_path)
    assert len(calls) == 1
    got = Path(str(out) + "_summary.csv").read_bytes()
    assert got == (DATA / "exact_n8_summary.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, _, suffixes) in CASES.items():
            out = _run_case(name, Path(tmp))
            for suffix in suffixes:
                (DATA / f"{name}{suffix}").write_bytes(Path(str(out) + suffix).read_bytes())
    sys.exit(0)
