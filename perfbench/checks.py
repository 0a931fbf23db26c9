"""Output checkers: each inspects one job step's CSV artifacts and returns
the list of problems it found (empty when the step's outputs are correct).
The crosscheckers compare a traced step's wrapper counts with counts the
program itself reports, so a lookup site the tracer missed shows up as a
mismatch."""

from __future__ import annotations

import functools
import math
from pathlib import Path

SLACK_TOL = 1e-9
PENALTY_TOL = 1e-6


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def data_bytes(artifacts: dict[str, bytes]) -> dict[str, bytes]:
    """CSV contents below the ``# manifest=`` line: what must repeat byte for
    byte between two jobs with the same seed."""
    return {
        name: body.split(b"\n", 1)[1]
        for name, body in artifacts.items()
        if name.endswith(".csv") and body.startswith(b"# manifest=")
    }


def _table(artifacts: dict[str, bytes], suffix: str) -> list[dict[str, str]]:
    names = [n for n in artifacts if n.endswith(suffix)]
    if len(names) != 1:
        raise ValueError(f"expected one *{suffix} artifact, found {names}")
    lines = artifacts[names[0]].decode().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{names[0]} lacks the manifest line")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{names[0]} has a ragged row")
    return rows


def _metrics(artifacts: dict[str, bytes], suffix: str) -> dict[str, str]:
    return {r["metric"]: r["value"] for r in _table(artifacts, suffix)}


def _guarded(checker):
    """Report a malformed artifact as a problem instead of raising."""

    @functools.wraps(checker)
    def guarded(*args, **kwargs) -> list[str]:
        try:
            return checker(*args, **kwargs)
        except (KeyError, ValueError, IndexError) as e:
            return [f"malformed artifact: {type(e).__name__}: {e}"]

    return guarded


@_guarded
def check_trials(artifacts: dict[str, bytes], trials: int) -> list[str]:
    """Every trial carries one event of ``secembed.sim.EVENTS``, the event
    frequencies match the rows and sum to 1, and clean trials decode their
    own bin within the distortion bound."""
    from secembed.sim import EVENTS as events

    problems = []
    rows = _table(artifacts, "_trials.csv")
    summary = _metrics(artifacts, "_summary.csv")
    if len(rows) != trials or int(summary["trials"]) != trials:
        problems.append(f"{len(rows)} trial rows and trials={summary['trials']}, expected {trials}")
    bound = float(summary["distortion_bound"])
    counts = dict.fromkeys(events, 0)
    for r in rows:
        if r["event"] not in counts:
            problems.append(f"trial {r['trial']}: unknown event {r['event']!r}")
            continue
        counts[r["event"]] += 1
        if r["event"] == "none":
            if r["decoded_bin"] != r["true_bin"]:
                problems.append(f"trial {r['trial']}: decoded bin {r['decoded_bin']} != {r['true_bin']}")
            if not float(r["distortion_xy"]) <= bound + 1e-12:
                problems.append(f"trial {r['trial']}: distortion {r['distortion_xy']} > bound {bound}")
    freqs = {e: float(summary.get(f"freq_{e}", "nan")) for e in events}
    if not abs(sum(freqs.values()) - 1.0) <= 1e-9:
        problems.append(f"event frequencies sum to {sum(freqs.values())}")
    for e, f in freqs.items():
        if rows and not abs(f - counts[e] / len(rows)) <= 1e-12:
            problems.append(f"freq_{e}={f} but {counts[e]} of {len(rows)} rows")
    return problems


@_guarded
def check_equivocation(artifacts: dict[str, bytes], h_u: float) -> list[str]:
    summary = _metrics(artifacts, "_summary.csv")
    problems = []
    for key in ("h_u_given_yz", "h_uhat_given_yz"):
        v = float(summary.get(key, "nan"))
        if not 0.0 <= v <= h_u + 1e-12:
            problems.append(f"{key}={v} outside [0, H(U)={h_u}]")
    return problems


@_guarded
def check_audit(artifacts: dict[str, bytes], rebuilds: int) -> list[str]:
    """Every rebuild passes the bin-multiplicity audit and the compression
    rates respect their bounds, as criteria 08 and 09 check them."""
    problems = []
    rows = _table(artifacts, "_bins.csv")
    if len(rows) != rebuilds:
        problems.append(f"{len(rows)} audit rows, expected {rebuilds}")
    for r in rows:
        if r["passed"] != "1" or not float(r["max_bins_per_y"]) <= float(r["bound"]) + 1e-9:
            problems.append(f"rebuild {r['rebuild']} failed the bin audit")
    comp = {k: float(v) for k, v in _metrics(artifacts, "_compression.csv").items()}
    if not comp["n_c_rate"] <= comp["private_bound"] + comp["private_slack_budget"] + 1e-9:
        problems.append("composite-count rate exceeds its bound")
    if not comp["public_distinct_rate"] <= comp["public_bound"] + 1e-9:
        problems.append("distinct-stego rate exceeds its bound")
    return problems


@_guarded
def check_region(artifacts: dict[str, bytes], restarts: int) -> list[str]:
    """Every condition is satisfied and the penalty is negligible, at the
    requested restart budget."""
    problems = []
    for r in _table(artifacts, "_conditions.csv"):
        if r["satisfied"] != "1" or not float(r["slack"]) >= -SLACK_TOL:
            problems.append(f"condition {r['condition']} violated (slack {r['slack']})")
    summary = _metrics(artifacts, "_summary.csv")
    if not float(summary["penalty"]) <= PENALTY_TOL:
        problems.append(f"penalty {summary['penalty']} > {PENALTY_TOL}")
    if int(summary["restarts"]) != restarts:
        problems.append(f"{summary['restarts']} restarts, expected {restarts}")
    if not math.isfinite(float(summary["value"])):
        problems.append(f"objective value {summary['value']}")
    return problems


def opt_value(artifacts: dict[str, bytes]) -> float:
    """The certified objective value of a region-opt job, in bits."""
    return float(_metrics(artifacts, "_summary.csv")["value"])


def crosscheck_trials(m: dict[str, float], trials: int) -> list[str]:
    if m["sim.decode.calls"] == trials and m["sim.trials.count"] == trials:
        return []
    return [f"traced {m['sim.decode.calls']} decodes over {m['sim.trials.count']} trials, expected {trials}"]


def crosscheck_enumeration(m: dict[str, float], trials: int) -> list[str]:
    # run_trials encodes each trial once and the enumeration each word once
    expected = m["sim.enum.states"] + trials
    if m["sim.encode.calls"] == expected:
        return []
    return [f"traced {m['sim.encode.calls']} encodes, expected {expected}"]


def crosscheck_builds(m: dict[str, float], rebuilds: int) -> list[str]:
    if m["sim.build.calls"] == rebuilds:
        return []
    return [f"traced {m['sim.build.calls']} builds, expected {rebuilds}"]


def crosscheck_optimize(m: dict[str, float]) -> list[str]:
    if m["region.optimize.calls"] == 1:
        return []
    return [f"traced {m['region.optimize.calls']} optimizer calls, expected 1"]
