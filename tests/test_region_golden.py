"""Byte-level regression of `region-opt` artifacts.

The files under ``tests/data/`` were written by the sequential optimizer
(one evaluation per finite-difference coordinate, per line-search step and
per restart).  The optimizer's schedule may change, but its floating-point
results may not: every artifact must stay identical to the byte.

Regenerate (only after an intended change of results) with
``PYTHONPATH=src python tests/test_region_golden.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import yaml

from secembed import cli

DATA = Path(__file__).parent / "data"

# criterion 10's system: degenerate covertext, lambda = 1/2
C10_SYSTEM = {
    "alphabets": {
        "U": ["u0", "u1"],
        "X": ["x0"],
        "K": ["k0", "k1"],
        "Y": ["y0", "y1"],
        "Z": ["z0", "z1"],
        "Uhat": ["u0", "u1"],
    },
    "lambda": 0.5,
    "message_source": [0.5, 0.5],
    "covertext_key": [[0.5, 0.5]],
    "attack": [[1.0, 0.0], [0.0, 1.0]],
    "embedding_distortion": [[0.0, 1.0]],
    "message_distortion": [[0.0, 1.0], [1.0, 0.0]],
}

# criterion 02's system: everything binary, X uniform and independent of K
BINARY_SYSTEM = {
    **C10_SYSTEM,
    "alphabets": {**C10_SYSTEM["alphabets"], "X": ["x0", "x1"]},
    "lambda": 1.0,
    "covertext_key": [[0.25, 0.25], [0.25, 0.25]],
    "embedding_distortion": [[0.0, 1.0], [1.0, 0.0]],
}

CASES = {
    "c10_h_prime": (
        C10_SYSTEM,
        ["--objective", "h_prime", "--fix", "d_prime=0.125,d=1.0",
         "--restarts", "3", "--v-cardinality", "2", "--seed", "4"],
    ),
    "binary_embedding_rate": (
        BINARY_SYSTEM,
        ["--objective", "embedding_rate", "--fix", "d_prime=0.25,d=1.0",
         "--restarts", "4", "--seed", "0"],
    ),
    # fix three coordinates besides d_prime
    "binary_multi_fixed": (
        BINARY_SYSTEM,
        ["--objective", "embedding_rate", "--fix", "d_prime=0.25,d=0.3,r_c=1.5,h=0.5",
         "--restarts", "4", "--seed", "0"],
    ),
    # three tight fixed coordinates and the default 32 restarts: summing the
    # optimizer's penalty terms in another order changes these bytes
    "binary_tight_fixed": (
        BINARY_SYSTEM,
        ["--objective", "embedding_rate", "--fix", "d_prime=0.25,d=0.25,h=1.2,r_c=0.45",
         "--seed", "0"],
    ),
    # a BSC(0.1) attack: Z differs from Y, so the evaluator takes its
    # general path, not the one that shares the Y marginals with Z
    "binary_bsc_embedding_rate": (
        {**BINARY_SYSTEM, "attack": [[0.9, 0.1], [0.1, 0.9]]},
        ["--objective", "embedding_rate", "--fix", "d_prime=0.25,d=1.0",
         "--restarts", "4", "--seed", "0"],
    ),
}
SUFFIXES = ("_summary.csv", "_conditions.csv")


def _run_case(name: str, workdir: Path) -> Path:
    system, args = CASES[name]
    spec_path = workdir / f"{name}.yaml"
    spec_path.write_text(yaml.safe_dump(system))
    out = workdir / name
    code = cli.main(["region-opt", "--spec", str(spec_path), *args, "--out", str(out)])
    assert code == cli.EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_region_opt_artifacts_match_golden(name, tmp_path):
    out = _run_case(name, tmp_path)
    for suffix in SUFFIXES:
        got = Path(str(out) + suffix).read_bytes()
        assert got == (DATA / f"{name}{suffix}").read_bytes(), suffix


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            out = _run_case(name, Path(tmp))
            for suffix in SUFFIXES:
                (DATA / f"{name}{suffix}").write_bytes(Path(str(out) + suffix).read_bytes())
    sys.exit(0)
