"""secembed benchmark: run one workload (or all of them) and report its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sim-session --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all --seed 1 --holdout-seed 2

Each run measures set-up time in fresh interpreters, then runs the workload
in its own child process (``worker.py``) as a closed loop of CLI jobs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of the traced run.  The last line of standard output is
one JSON object; a run record with the machine details and every per-job
sample goes to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, rescale  # noqa: E402
from tracing import COMPUTED, PER_LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 10  # before the workload, and as many again after it
TIME_LIMIT_S = 170  # one run must end well within the 180 s a run may take
DEFAULT_SEED = 1
DEFAULT_SECONDS = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# what a set-up sample runs: the probe's loop three times, the import, the
# loop three times again; it prints the time taken to import the probe and
# then the six loop times
SETUP_CODE = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); start = time.perf_counter(); "
    "from hostspeed import loop_probe as probe; ready = time.perf_counter() - start; "
    "before = [probe() for _ in range(3)]; import secembed.cli; "
    "print(ready, *before, *(probe() for _ in range(3)))"
)
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: the checkout's sources first on the path,
    BLAS/OpenMP thread pools at one thread.

    secembed's arrays are too small for a BLAS pool to do any work (jobs use
    one CPU), but OpenBLAS starts its pool while numpy is imported.  With two
    threads, that start added about 0.06 s to a 0.25 s import whenever the
    second CPU of a 2-core machine was busy elsewhere, and nothing when it was
    free, so set-up time jumped between two levels at the same CPU speed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def check_checkout(root: Path) -> None:
    needed = [root / "src" / "secembed" / "cli.py", root / "configs" / "demo_system.yaml", root / "configs" / "demo_aux.yaml"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a secembed checkout (missing {', '.join(missing)}); run from the repository root")


def measure_setup(env: dict[str, str], deadline: float, warm_up: bool) -> list[tuple[float, float]]:
    """(rescaled, wall) seconds from starting a fresh interpreter until
    ``secembed.cli`` is imported (and the interpreter has exited), optionally
    after one untimed warm-up that compiles the bytecode caches.  The
    interpreter runs the host-speed probe's loop right before and after the
    import; the probe's own time is left out of the wall time, and the median
    loop time (which a single loop caught in a blip does not move) sets the
    rescaling."""
    samples = []
    for i in range(SETUP_REPEATS + warm_up):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"importing secembed.cli failed:\n{proc.stderr}")
        ready, *probes = (float(x) for x in proc.stdout.split())
        wall = elapsed - ready - sum(probes)
        if i or not warm_up:
            samples.append((rescale(wall, [statistics.median(probes)], REFERENCE_LOOP_S), wall))
    return samples


def run_worker(root: Path, env: dict[str, str], args, work: Path, spans: Path | None, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", str(root), "--work", str(work),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload {args.workload} did not finish in time") from None
    if err:
        sys.stderr.write(err)
    result_file = work / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        raise BenchError(f"workload process exited with code {proc.returncode}:\n{out}{err}")
    return json.loads(result_file.read_text())


def percentile_note(samples: list[float]) -> str:
    """The highest of the usual percentiles with ten samples beyond it."""
    n = len(samples)
    usable = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    if not usable:
        return f"no percentile has ten samples beyond it at {n} jobs"
    p = usable[-1]
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p} {value:.4f} s"


def summarize(result: dict, setup: list[tuple[float, float]], trace: int) -> dict:
    jobs = result["jobs"]
    failed = [j for j in jobs if j["problems"]]
    plain = [j for j in jobs if not j["traced"] and not j["warmup"]]
    summary = {
        "planned_jobs": result["planned_jobs"],
        "capped": result["capped"],
        "attempted": len(jobs),
        "failed": len(failed),
        "problems": [f"job {j['index']} (verb seed {j['verb_seed']}): {p}" for j in failed for p in j["problems"]],
        "job_samples_s": [j["seconds"] for j in plain],
        "job_wall_samples_s": [j["wall_s"] for j in plain],
        "setup_samples_s": [rescaled for rescaled, _ in setup],
        "setup_wall_samples_s": [wall for _, wall in setup],
    }
    values = {
        "setup_s": statistics.median(summary["setup_samples_s"]),
        "job_s": statistics.median(summary["job_samples_s"]),
        "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
    }
    summary["setup_wall_s"] = statistics.median(summary["setup_wall_samples_s"])
    summary["job_wall_s"] = statistics.median(summary["job_wall_samples_s"])
    opt = [j["opt_value"] for j in jobs if "opt_value" in j]
    summary["opt_value_bits"] = statistics.median(opt) if opt else None
    summary["end_to_end"] = values
    if trace:
        traced = [j for j in jobs if j["traced"] and "metrics" in j]
        layer = {
            name: statistics.median(j["metrics"][name] for j in traced) if traced else 0.0
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        # both wall times leave the probe out: traced jobs run without it
        traced_s = [j["wall_s"] for j in jobs if j["traced"]]
        layer["trace.overhead_s"] = statistics.median(traced_s) - summary["job_wall_s"]
        summary["per_layer"] = layer
        summary["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
    else:
        summary["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return summary


def report_lines(workload, seed: int, trace: int, s: dict) -> list[str]:
    lines = [f"{workload.name}  seed {seed}  trace {trace}: {s['attempted']} jobs, {s['failed']} failed"]
    v = s["end_to_end"]
    lines.append(
        f"  setup_s      {v['setup_s']:.4f} s     median of {len(s['setup_samples_s'])} fresh interpreters"
        f" at the reference host speed; wall {s['setup_wall_s']:.4f} s"
    )
    jobs = s["job_samples_s"]
    cap = f" of {s['planned_jobs']} planned, stopped at the time cap" if s["capped"] else ""
    lines.append(
        f"  job_s        {v['job_s']:.4f} s     median of {len(jobs)} untraced jobs at the reference host speed{cap};"
        f" wall {s['job_wall_s']:.4f} s; {percentile_note(jobs)}"
    )
    lines.append(f"  peak_rss_mb  {v['peak_rss_mb']:.2f} MB")
    lines.append(f"  failed_frac  {s['failed'] / s['attempted']:.4f} ratio")
    if s["opt_value_bits"] is not None:
        lines.append(f"  opt_value    {s['opt_value_bits']:.12f} bits")
    if trace:
        for name, value in s["per_layer"].items():
            label = "  (computed)" if name in COMPUTED else ""
            lines.append(f"  {name:30s} {value:.6g} {PER_LAYER[name]}{label}")
    lines.extend(f"  FAILED {p.splitlines()[-1] if p else p}" for p in s["problems"][:10])
    return lines


def machine_record(env: dict[str, str], root: Path) -> dict:
    import numpy
    import yaml

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "thread_caps": {v: env[v] for v in THREAD_VARS},
        "git_commit": commit,
    }


def run_once(root: Path, args) -> tuple[dict, list[str]]:
    """One measured run of ``args.workload``: summary and report lines."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    env = child_env(root)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        setup = measure_setup(env, deadline, warm_up=True)
        spans = state / "spans" / f"{args.workload}-seed{args.seed}.csv.gz" if args.trace else None
        result = run_worker(root, env, args, work, spans, deadline)
        # sampling on both sides of the workload spreads set-up samples over
        # the same stretch of machine time as the jobs
        setup += measure_setup(env, deadline, warm_up=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(result, setup, args.trace)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(env, root),
        "jobs": result["jobs"],
        **{k: v for k, v in summary.items() if k != "metrics"},
    }
    if spans is not None:
        record["spans_file"] = str(spans.relative_to(root))
        record["span_count"] = result.get("spans")
    records = state / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    return summary, report_lines(workload, args.seed, args.trace, summary)


def final_json(summary: dict) -> str:
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": summary["metrics"],
        }
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (non-negative)")
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="measured seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout-seed", type=int, help="also run on this seed, for claims checked on unseen data")
    args = p.parse_args(argv)
    if args.seed < 0 or (args.holdout_seed is not None and args.holdout_seed < 0) or args.seconds < 1:
        p.error("seeds must be non-negative and --seconds at least 1")

    root = Path.cwd()
    names = sorted(workloads.WORKLOADS) if args.all else [args.workload]
    seeds = [args.seed] + ([args.holdout_seed] if args.holdout_seed is not None else [])
    results = {}
    try:
        check_checkout(root)
        for name in names:
            for seed in seeds:
                summary, lines = run_once(root, argparse.Namespace(**{**vars(args), "workload": name, "seed": seed}))
                print("\n".join(lines), flush=True)
                results[(name, seed)] = summary
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(final_json(next(iter(results.values()))))
    else:
        print(json.dumps({f"{n}@seed{s}": json.loads(final_json(r)) for (n, s), r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
