"""Batch front door.

Verbs: rd, region-eval, region-opt, simulate, audit, sweep, plus `run` for a
consolidated config file.  Every run writes CSV artifacts and a JSON
manifest; identical config and seed reproduce the artifacts byte for byte.

Exit codes: 0 success, 2 validation error, 3 infeasible, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .config import COMMANDS, SCHEMA, RunConfig, flag_of, from_document, parse_config, read_text, stable_hash
from .errors import (
    InfeasibleError,
    ResourceCapError,
    ValidationError,
    WorkbenchError,
)
from .rd import rd_curve
from .region import eval_extended, eval_keyed_region, optimize_region

if TYPE_CHECKING:  # the simulator loads in the verbs that run it, not at import
    from . import sim

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _write_lines(path: str, manifest_hash: str, header: list[str], lines: Iterable[str]) -> None:
    Path(path).write_text("\n".join([f"# manifest={manifest_hash}", ",".join(header), *lines]) + "\n")


def _write_csv(path: str, manifest_hash: str, header: list[str], rows: list[list]) -> None:
    _write_lines(path, manifest_hash, header, (",".join(_fmt(c) for c in row) for row in rows))


def _write_conditions(out: str, digest: str, report) -> None:
    rows = [[k, c.kind, c.attained, c.bound, c.slack, int(c.satisfied)] for k, c in report.conditions.items()]
    header = ["condition", "kind", "attained", "bound", "slack", "satisfied"]
    _write_csv(out + "_conditions.csv", digest, header, rows)


def _quantity_rows(report) -> list[list]:
    return [[k, v] for k, v in sorted(report.quantities.items())]


def _word_cells(words: list) -> list[str]:
    """Each word's letters one after another, "" for None; the words are of
    one length.  When every letter is a digit, one block of ASCII digits
    cut into cells; a letter of 10 or more is written as its number."""
    block = np.array([w for w in words if w is not None], dtype=np.int64)
    if block.size and block.max() < 10:
        text, width = (block + ord("0")).astype(np.uint8).tobytes().decode(), block.shape[1]
        cells = (text[start : start + width] for start in range(0, len(text), width))
    else:
        cells = ("".join(map(str, w)) for w in block.tolist())
    return ["" if w is None else next(cells) for w in words]


def _trial_columns(results: list[sim.TrialResult]) -> dict[str, list[str]]:
    """The trials CSV's columns by name, each formatted once over every
    trial's record as ``_fmt`` formats a cell: floats by ``repr``, ints by
    ``str``, and words by ``_word_cells``."""
    return {
        "trial": [str(i) for i in range(len(results))],
        "event": [r.error_event for r in results],
        "message_correct": [str(int(r.message_correct)) for r in results],
        "distortion_xy": [repr(float(r.distortion_xy)) for r in results],
        "distortion_uuhat": [repr(float(r.distortion_uuhat)) for r in results],
        "true_bin": [str(int(r.true_bin)) for r in results],
        "decoded_bin": [str(-1 if r.decoded_bin is None else int(r.decoded_bin)) for r in results],
        **{name: _word_cells([getattr(r, name) for r in results]) for name in ("u", "x", "k", "y", "z", "uhat")},
    }


def run(config: RunConfig) -> int:
    """Execute one validated run configuration and write its artifacts, then
    its manifest: a run the library rejects leaves no manifest behind.  Each
    artifact's name is the out name with a suffix appended, so a dot in the
    out name stays part of it."""
    out = config.out or f"secembed_{config.command}"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    manifest = config.manifest()
    # the embedded digest covers the run content, not where it is written
    digest = stable_hash({k: v for k, v in manifest.items() if k != "out"})
    status = _write_artifacts(config, out, digest)
    text = json.dumps(manifest, sort_keys=True, indent=2, default=str)
    Path(out + ".manifest.json").write_text(text + "\n")
    return status


def _write_artifacts(config: RunConfig, out: str, digest: str) -> int:
    spec = config.system.spec

    def optimize(fixed):
        return optimize_region(
            spec,
            fixed,
            config.objective,
            restarts=config.restarts,
            seed=config.seed,
            v_cardinality=config.v_cardinality,
        )

    grid = config.grid or [config.d_prime]
    if config.command in ("rd", "sweep") and config.objective is None:
        rows = []
        for g, sol in rd_curve(spec.p_u, spec.d_prime, sorted(grid)):
            rows.append([g, sol.rate_bits, sol.distortion, sol.iterations])
        _write_csv(out + ".csv", digest, ["d_prime", "rate_bits", "distortion", "iterations"], rows)
        return EXIT_OK

    if config.command == "sweep":  # region sweep over one fixed coordinate grid
        rows = []
        for g in grid:
            res = optimize({**config.fixed, "d_prime": g})
            slacks = ";".join(f"{k}={c.slack:.6g}" for k, c in res.report.conditions.items())
            rows.append([g, res.objective, res.value, slacks])
        _write_csv(out + ".csv", digest, ["d_prime", "objective", "value", "condition_slacks"], rows)
        return EXIT_OK

    if config.command == "region-eval":
        if config.extended:
            report = eval_extended(spec, config.aux, config.test_channel, config.point)
        else:
            report = eval_keyed_region(spec, config.aux, config.point)
        _write_conditions(out, digest, report)
        _write_csv(out + "_quantities.csv", digest, ["quantity", "value"], _quantity_rows(report))
        return EXIT_OK

    if config.command == "region-opt":
        res = optimize(config.fixed)
        _write_conditions(out, digest, res.report)
        summary = [
            ["objective", res.objective],
            ["value", res.value],
            ["penalty", res.penalty],
            ["restarts", len(res.restart_values)],
        ]
        summary.extend(
            [f"best_so_far_{i}", v] for i, v in enumerate(res.best_so_far)
        )
        for coord, val in vars(res.point).items():
            summary.append([f"point_{coord}", val])
        _write_csv(out + "_summary.csv", digest, ["metric", "value"], summary)
        return EXIT_OK

    if config.command not in ("simulate", "audit"):
        raise ValidationError(f"unhandled command {config.command!r}")
    from . import sim  # only the simulator's verbs pay for loading it

    # designed once per run: every rebuild is a seeded draw of it
    code = sim.CodeDesign(
        spec, config.aux, config.n, config.delta, config.d_prime,
        m2_bits=config.m2_bits, m3_bits=config.m3_bits, j_bits=config.j_bits, eps_cov=config.eps_cov,
    )
    if config.command == "simulate":
        books = sim.build_codebooks(code, config.seed)  # the trials and the enumeration share one build
        agg = sim.run_trials(books, config.trials, config.seed)
        columns = _trial_columns(agg.results)
        summary = [["trials", agg.trials], ["message_error_rate", agg.message_error_rate]]
        summary.extend([f"freq_{e}", f] for e, f in sorted(agg.event_frequencies.items()))
        summary.append(["mean_distortion_xy", agg.mean_distortion_xy])
        summary.append(["mean_distortion_uuhat", agg.mean_distortion_uuhat])
        summary.append(["distortion_bound", agg.distortion_bound])
        if config.exact_equivocation:
            est = sim.estimate_equivocation(books)
            if config.ensemble_average:  # the run's own build is the first member
                seeds = range(config.seed + 1, config.seed + config.rebuilds)
                rebuilt = (sim.build_codebooks(code, seed) for seed in seeds)
                h_u, h_uhat = sim.ensemble_mean([est, *map(sim.estimate_equivocation, rebuilt)])
                summary.append(["h_u_given_yz_ensemble", h_u])
                summary.append(["h_uhat_given_yz_ensemble", h_uhat])
            summary.append(["h_u_given_yz", est.h_u_given_yz])
            summary.append(["h_uhat_given_yz", est.h_uhat_given_yz])
            summary.extend([k, v] for k, v in sorted(est.extras.items()))
        # the enumeration above may hit its cap: write nothing before it is done
        _write_lines(out + "_trials.csv", digest, list(columns), map(",".join, zip(*columns.values())))
        _write_csv(out + "_summary.csv", digest, ["metric", "value"], summary)
        return EXIT_OK

    rows = []
    comp_rows = []
    for i in range(config.rebuilds):
        seed_i = config.seed + i
        books = sim.build_codebooks(code, seed_i)
        audit = sim.bin_multiplicity_audit(books, config.gamma)
        rows.append([i, seed_i, audit.max_bins_per_y, audit.bound, int(audit.passed), audit.max_bins_across_types])
        if i == 0:
            comp = sim.compression_audits(books)
            comp_rows = [[k, v] for k, v in sorted(vars(comp).items())]
    _write_csv(
        out + "_bins.csv",
        digest,
        ["rebuild", "seed", "max_bins_per_y", "bound", "passed", "max_bins_across_types"],
        rows,
    )
    _write_csv(out + "_compression.csv", digest, ["metric", "value"], comp_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    for f in SCHEMA:  # a flag not given leaves its field's default to the schema
        kind = f.metadata["kind"]
        if kind.text is None:
            p.add_argument(flag_of(f), dest=f.name, action="store_true", default=argparse.SUPPRESS)
        else:
            required = f.metadata["need"] == COMMANDS
            p.add_argument(flag_of(f), dest=f.name, default=argparse.SUPPRESS, required=required, help=kind.help)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    doc = {"command": args.command}
    for f in SCHEMA:
        if hasattr(args, f.name):
            value, text = getattr(args, f.name), f.metadata["kind"].text
            doc[f.name] = text(value) if text else value
    return from_document(doc)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="secembed")
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = {verb: sub.add_parser(verb) for verb in COMMANDS}
    # the schema's flags go to the invoked verb alone: the first argument that is not an option
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    if invoked in verbs:
        _add_common(verbs[invoked])
    runp = sub.add_parser("run", help="execute a consolidated run-config file")
    runp.add_argument("config", help="YAML run configuration")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cfg = parse_config(read_text(args.config), source=args.config)
        else:
            cfg = _config_from_args(args)
        return run(cfg)
    except ValidationError as e:
        print(f"error: validation: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleError,) as e:
        print(f"error: infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceCapError as e:
        print(f"error: resource-cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except WorkbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
