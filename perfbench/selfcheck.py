"""Check the output checkers: each must accept a clean job's artifacts and
reject deliberately corrupted copies of them.

Run from the repository root (about 15 s):

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from worker import run_cli  # noqa: E402


def edit_csv(artifacts: dict[str, bytes], suffix: str, edit) -> dict[str, bytes]:
    """A copy of ``artifacts`` with ``edit(rows)`` applied to the rows (lists
    of cells, header first) of the one CSV ending in ``suffix``."""
    (name,) = [n for n in artifacts if n.endswith(suffix)]
    first, *lines = artifacts[name].decode().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    body = "\n".join([first, *(",".join(r) for r in rows)]) + "\n"
    return {**artifacts, name: body.encode()}


def set_cell(rows, col: str, value, where=lambda row: True) -> None:
    """Set ``col`` of the first row ``where`` accepts to ``value``, or to
    ``value(row)`` when it is callable."""
    header = rows[0]
    for row in rows[1:]:
        cells = dict(zip(header, row))
        if where(cells):
            row[header.index(col)] = value(cells) if callable(value) else value
            return
    raise ValueError(f"no row to corrupt in column {col}")


def set_metric(rows, metric: str, value: str) -> None:
    set_cell(rows, "value", value, lambda r: r["metric"] == metric)


CORRUPTIONS = {
    "sim-trials": {
        "decoded_bin flipped on a clean trial": (
            "_trials.csv",
            lambda rows: set_cell(
                rows, "decoded_bin", lambda r: str(int(r["true_bin"]) ^ 1), lambda r: r["event"] == "none"
            ),
        ),
        "unknown event label": ("_trials.csv", lambda rows: set_cell(rows, "event", "e9")),
        "event frequency off": ("_summary.csv", lambda rows: set_metric(rows, "freq_e5", "0.5")),
        "trial row dropped": ("_trials.csv", lambda rows: rows.pop()),
    },
    "sim-exact": {
        "equivocation above H(U)": ("_summary.csv", lambda rows: set_metric(rows, "h_u_given_yz", "1.5")),
        "negative equivocation": ("_summary.csv", lambda rows: set_metric(rows, "h_uhat_given_yz", "-0.1")),
    },
    "build-audit": {
        "passed = 0 row": ("_bins.csv", lambda rows: set_cell(rows, "passed", "0")),
        "distinct-stego rate above its bound": (
            "_compression.csv",
            lambda rows: set_metric(rows, "public_distinct_rate", "99.0"),
        ),
    },
    "region-opt": {
        "violated condition": ("_conditions.csv", lambda rows: set_cell(rows, "slack", "-0.01")),
        "penalty above 1e-6": ("_summary.csv", lambda rows: set_metric(rows, "penalty", "0.001")),
        "fewer restarts": ("_summary.csv", lambda rows: set_metric(rows, "restarts", "8")),
    },
}


def spec_mismatches() -> list[str]:
    """Differences between BENCHMARK.json and the metrics and workloads the
    benchmark reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)),
        ("end_to_end", {m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS),
        ("per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER),
    ]
    return [f"BENCHMARK.json {key} differs from the benchmark's own list" for key, a, b in pairs if a != b]


def main() -> int:
    import secembed.cli

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    mismatches = spec_mismatches()
    for m in mismatches or ["BENCHMARK.json matches"]:
        print(f"{'FAIL' if mismatches else 'ok  '} {m}")
    bad = len(mismatches)
    try:
        inputs = workloads.write_inputs(ROOT / "configs", work / "inputs")
        for name, corruptions in CORRUPTIONS.items():
            step = workloads.STEPS[name]
            out = work / "job"
            _, rc, artifacts, error = run_cli(secembed.cli, step.argv(inputs, 0, out / "art"), out)
            clean = step.check(artifacts, inputs) if rc == 0 else [error or f"exit {rc}"]
            print(f"{'ok  ' if not clean else 'FAIL'} {name}: clean artifacts accepted", *clean[:3])
            bad += bool(clean)
            for label, (suffix, edit) in corruptions.items():
                problems = step.check(edit_csv(artifacts, suffix, edit), inputs)
                print(f"{'ok  ' if problems else 'FAIL'} {name}: rejects {label}", *problems[:1])
                bad += not problems
            csv = next(n for n in artifacts if n.endswith(".csv"))
            flipped = edit_csv(artifacts, csv, lambda rows: rows[-1].__setitem__(-1, rows[-1][-1] + "0"))
            differs = checks.data_bytes(flipped) != checks.data_bytes(artifacts)
            print(f"{'ok  ' if differs else 'FAIL'} {name}: determinism check sees a changed cell")
            bad += not differs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} checker failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
