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

import numpy as np
import yaml

from . import sim
from .config import (
    RunConfig,
    _validate_required,
    load_aux,
    load_point,
    load_system,
    load_test_channel,
    parse_config,
    stable_hash,
)
from .errors import (
    InfeasibleError,
    ResourceCapError,
    ValidationError,
    WorkbenchError,
)
from .rd import rd_curve
from .region import eval_extended, eval_keyed_region, optimize_region

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


def _write_csv(path: Path, manifest_hash: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# manifest={manifest_hash}", ",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(base: Path, manifest: dict) -> str:
    text = json.dumps(manifest, sort_keys=True, indent=2, default=str)
    # the embedded digest covers the run content, not where it is written
    digest = stable_hash({k: v for k, v in manifest.items() if k != "out"})
    base.with_suffix(".manifest.json").write_text(text + "\n")
    return digest


def _report_rows(report) -> list[list]:
    rows = []
    for name, c in report.conditions.items():
        rows.append([name, c.kind, c.attained, c.bound, c.slack, int(c.satisfied)])
    return rows


def _quantity_rows(report) -> list[list]:
    return [[k, v] for k, v in sorted(report.quantities.items())]


def _seq_str(arr) -> str:
    return "" if arr is None else "".join(str(int(s)) for s in arr)


def run(config: RunConfig) -> int:
    """Execute one validated run configuration and write its artifacts."""
    out = Path(config.out or f"secembed_{config.command}")
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest = config.manifest()
    digest = _write_manifest(out, manifest)
    spec = config.system.spec

    if config.command in ("rd", "sweep") and config.objective is None:
        grid = config.grid or [config.d_prime]
        rows = []
        for g, sol in rd_curve(spec.p_u, spec.d_prime, sorted(grid)):
            rows.append([g, sol.rate_bits, sol.distortion, sol.iterations])
        _write_csv(
            out.with_suffix(".csv"), digest, ["d_prime", "rate_bits", "distortion", "iterations"], rows
        )
        return EXIT_OK

    if config.command == "sweep":  # region sweep over one fixed coordinate grid
        rows = []
        for g in config.grid:
            fixed = dict(config.fixed)
            fixed["d_prime"] = g
            res = optimize_region(
                spec,
                fixed,
                config.objective,
                restarts=config.restarts,
                seed=config.seed or 0,
                v_cardinality=config.v_cardinality,
            )
            slacks = ";".join(f"{k}={c.slack:.6g}" for k, c in res.report.conditions.items())
            rows.append([g, res.objective, res.value, slacks])
        _write_csv(
            out.with_suffix(".csv"), digest, ["d_prime", "objective", "value", "condition_slacks"], rows
        )
        return EXIT_OK

    if config.command == "region-eval":
        if config.extended:
            report = eval_extended(spec, config.aux, config.test_channel, config.point)
        else:
            report = eval_keyed_region(spec, config.aux, config.point)
        _write_csv(
            Path(str(out) + "_conditions.csv"),
            digest,
            ["condition", "kind", "attained", "bound", "slack", "satisfied"],
            _report_rows(report),
        )
        _write_csv(
            Path(str(out) + "_quantities.csv"), digest, ["quantity", "value"], _quantity_rows(report)
        )
        return EXIT_OK

    if config.command == "region-opt":
        res = optimize_region(
            spec,
            config.fixed,
            config.objective,
            restarts=config.restarts,
            seed=config.seed,
            v_cardinality=config.v_cardinality,
        )
        _write_csv(
            Path(str(out) + "_conditions.csv"),
            digest,
            ["condition", "kind", "attained", "bound", "slack", "satisfied"],
            _report_rows(res.report),
        )
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
        _write_csv(Path(str(out) + "_summary.csv"), digest, ["metric", "value"], summary)
        return EXIT_OK

    build_kwargs = dict(
        m2_bits=config.m2_bits,
        m3_bits=config.m3_bits,
        j_bits=config.j_bits,
        eps_cov=config.eps_cov,
    )

    if config.command == "simulate":
        books = None
        if config.exact_equivocation:  # the trials and the enumeration share one build
            books = sim.build_codebooks(
                spec, config.aux, config.n, config.delta, config.seed, config.d_prime, **build_kwargs
            )
        agg = sim.run_trials(
            spec,
            config.aux,
            config.n,
            config.trials,
            config.delta,
            config.seed,
            config.d_prime,
            codebooks=books,
            collect_transcripts=True,
            **build_kwargs,
        )
        trial_rows = [
            [
                i,
                r.error_event,
                int(r.message_correct),
                r.distortion_xy,
                r.distortion_uuhat,
                r.true_bin,
                r.decoded_bin if r.decoded_bin is not None else -1,
                _seq_str(r.u),
                _seq_str(r.x),
                _seq_str(r.k),
                _seq_str(r.y),
                _seq_str(r.z),
                _seq_str(r.uhat),
            ]
            for i, r in enumerate(agg.results)
        ]
        _write_csv(
            Path(str(out) + "_trials.csv"),
            digest,
            [
                "trial",
                "event",
                "message_correct",
                "distortion_xy",
                "distortion_uuhat",
                "true_bin",
                "decoded_bin",
                "u",
                "x",
                "k",
                "y",
                "z",
                "uhat",
            ],
            trial_rows,
        )
        summary = [["trials", agg.trials], ["message_error_rate", agg.message_error_rate]]
        summary.extend([f"freq_{e}", f] for e, f in sorted(agg.event_frequencies.items()))
        summary.append(["mean_distortion_xy", agg.mean_distortion_xy])
        summary.append(["mean_distortion_uuhat", agg.mean_distortion_uuhat])
        summary.append(["distortion_bound", agg.distortion_bound])
        if config.exact_equivocation:
            if config.ensemble_average:
                seeds = [config.seed + i for i in range(config.rebuilds)]
                h_u, h_uhat, _ = sim.estimate_equivocation_ensemble(
                    spec, config.aux, config.n, config.delta, seeds, config.d_prime, **build_kwargs
                )
                summary.append(["h_u_given_yz_ensemble", h_u])
                summary.append(["h_uhat_given_yz_ensemble", h_uhat])
            est = sim.estimate_equivocation(books)
            summary.append(["h_u_given_yz", est.h_u_given_yz])
            summary.append(["h_uhat_given_yz", est.h_uhat_given_yz])
            summary.extend([k, v] for k, v in sorted(est.extras.items()))
        _write_csv(Path(str(out) + "_summary.csv"), digest, ["metric", "value"], summary)
        return EXIT_OK

    if config.command == "audit":
        rows = []
        comp_rows = []
        for i in range(config.rebuilds):
            seed_i = config.seed + i
            books = sim.build_codebooks(
                spec, config.aux, config.n, config.delta, seed_i, config.d_prime, **build_kwargs
            )
            audit = sim.bin_multiplicity_audit(books, config.gamma)
            rows.append(
                [i, seed_i, audit.max_bins_per_y, audit.bound, int(audit.passed), audit.max_bins_across_types]
            )
            if i == 0:
                comp = sim.compression_audits(books)
                comp_rows = [[k, v] for k, v in sorted(vars(comp).items())]
        _write_csv(
            Path(str(out) + "_bins.csv"),
            digest,
            ["rebuild", "seed", "max_bins_per_y", "bound", "passed", "max_bins_across_types"],
            rows,
        )
        _write_csv(Path(str(out) + "_compression.csv"), digest, ["metric", "value"], comp_rows)
        return EXIT_OK

    raise ValidationError(f"unhandled command {config.command!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="system tables (YAML)")
    p.add_argument("--aux", help="aux channel (YAML)")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--dprime", type=float, dest="d_prime")
    p.add_argument("--out")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--exact-equivocation", action="store_true", dest="exact_equivocation")
    p.add_argument("--ensemble-average", action="store_true", dest="ensemble_average")
    p.add_argument("--grid", help="comma-separated distortion grid")
    p.add_argument("--point", help="d=..,d_prime=..,r_c=..,r_c_prime=..,h=..,h_prime=..")
    p.add_argument("--fix", help="coordinate=value pairs, comma separated")
    p.add_argument("--objective")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--v-cardinality", type=int, dest="v_cardinality")
    p.add_argument("--rebuilds", type=int, default=1)
    p.add_argument("--m2-bits", type=int, dest="m2_bits")
    p.add_argument("--m3-bits", type=int, dest="m3_bits")
    p.add_argument("--j-bits", type=int, dest="j_bits")
    p.add_argument("--eps-cov", type=float, dest="eps_cov", default=0.0)
    p.add_argument("--test-channel", dest="test_channel", help="test channel (YAML)")


def _parse_kv(text: str) -> dict[str, float]:
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ValidationError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


def _load_yaml_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ValidationError(f"YAML error in {path}: {e}") from e


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    system = load_system(_load_yaml_file(args.spec))
    cfg = RunConfig(command=args.command, system=system)
    if args.aux:
        cfg.aux, cfg.aux_labels = load_aux(_load_yaml_file(args.aux), system.spec)
    if args.test_channel:
        cfg.test_channel = load_test_channel(_load_yaml_file(args.test_channel), system.spec)
    if args.point:
        cfg.point = load_point(_parse_kv(args.point))
    if args.fix:
        cfg.fixed = _parse_kv(args.fix)
    if args.grid:
        cfg.grid = [float(g) for g in args.grid.split(",") if g.strip()]
    for f in (
        "n",
        "trials",
        "delta",
        "gamma",
        "seed",
        "d_prime",
        "out",
        "objective",
        "restarts",
        "v_cardinality",
        "rebuilds",
        "extended",
        "exact_equivocation",
        "ensemble_average",
        "m2_bits",
        "m3_bits",
        "j_bits",
        "eps_cov",
    ):
        v = getattr(args, f, None)
        if v is not None:
            setattr(cfg, f, v)
    _validate_required(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="secembed")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("rd", "region-eval", "region-opt", "simulate", "audit", "sweep"):
        _add_common(sub.add_parser(verb))
    runp = sub.add_parser("run", help="execute a consolidated run-config file")
    runp.add_argument("config", help="YAML run configuration")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cfg = parse_config(Path(args.config).read_text())
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
