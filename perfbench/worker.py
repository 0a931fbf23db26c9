"""One workload run in its own process: a closed loop of CLI jobs.

A run first repeats job 0 untimed as a warm-up, then runs the workload's
fixed number of jobs, so every commit takes its median over the same verb
seeds; job 0's artifacts must equal the warm-up's (determinism).  Traced
runs execute a third as many seeds, each twice, untraced then traced, which
checks byte-identity of traced artifacts and gives the tracing overhead.
Untraced jobs run under the host-speed probe (``hostspeed``): a job's
``seconds`` are rescaled to the reference host speed, and ``wall_s`` keeps
its wall time less the probe's own.
``--seconds`` is only a safety cap: no job after the warm-up starts that
would likely end after it.  The result is written as JSON to ``<work>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from hostspeed import Sampler, probe, rescale


def run_cli(
    cli, argv: list[str], out_dir: Path, sampler: Sampler | None = None
) -> tuple[float, int, dict[str, bytes], str]:
    """One ``cli.main`` call: wall seconds (less the time ``sampler``'s
    probes took during it), exit code, artifacts, error text."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    error = ""
    since = len(sampler.samples) if sampler is not None else 0
    with sampler if sampler is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing call fails its job; the run goes on
            rc, error = -1, traceback.format_exc()
        seconds = time.perf_counter() - start
    if sampler is not None:
        seconds -= sampler.spent(since)
    return seconds, rc, checks.read_artifacts(out_dir), error


class Run:
    def __init__(self, args: argparse.Namespace):
        import secembed.cli

        self.cli = secembed.cli
        self.workload = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        self.work = Path(args.work)
        self.inputs = workloads.write_inputs(Path(args.root) / "configs", self.work / "inputs")
        self.jobs: list[dict] = []
        self.planned = 0
        self.capped = False
        self.tracer = None
        probe()  # builds the probe's list, so that no timed probe pays for it
        if args.trace:
            from tracing import Tracer

            self.tracer = Tracer()

    def job(self, index: int, traced: bool = False, warmup: bool = False) -> dict:
        """Run job ``index`` of this run's seed sequence and check it."""
        vseed = workloads.verb_seed(self.seed, index)
        record = {
            "index": index,
            "verb_seed": vseed,
            "traced": traced,
            "warmup": warmup,
            "wall_s": 0.0,
            "artifact_bytes": 0,
        }
        problems, data = [], {}
        # untraced jobs are timed under the host-speed probe; traced ones
        # are not, so the probe's time stays out of their spans
        sampler = None
        if traced:
            self.tracer.begin_job(len(self.jobs))
            self.tracer.install()
        else:
            sampler = Sampler()
            sampler.samples.append(probe())
        try:
            for step in self.workload.steps:
                before = self.tracer.job_metrics() if traced else None
                out_dir = self.work / "job" / step.name
                seconds, rc, artifacts, error = run_cli(
                    self.cli, step.argv(self.inputs, vseed, out_dir / "art"), out_dir, sampler
                )
                record["wall_s"] += seconds
                step_problems = [f"exit code {rc}"] if rc != 0 else []
                if error:
                    step_problems.append(error)
                if rc == 0:
                    step_problems += step.check(artifacts, self.inputs)
                    if traced:
                        after = self.tracer.job_metrics()
                        step_problems += step.crosscheck({k: after[k] - before[k] for k in after})
                    if step.opt_value is not None and not step_problems:
                        record["opt_value"] = step.opt_value(artifacts)
                problems += [f"{step.name}: {p}" for p in step_problems]
                record["artifact_bytes"] += sum(map(len, artifacts.values()))
                data.update({f"{step.name}/{k}": v for k, v in checks.data_bytes(artifacts).items()})
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            record["metrics"] = {**self.tracer.job_metrics(), "cli.artifact_bytes": record["artifact_bytes"]}
            record["seconds"] = record["wall_s"]
        else:
            record["seconds"] = rescale(record["wall_s"], sampler.samples)
            record["probe_s"] = sum(sampler.samples) / len(sampler.samples)
            record["probes"] = len(sampler.samples)
        record["problems"] = problems
        record["artifacts"] = data
        self.jobs.append(record)
        return record

    def require_same_artifacts(self, first: dict, second: dict, what: str) -> None:
        """Fail ``second`` unless its data artifacts equal ``first``'s."""
        if first["artifacts"] != second["artifacts"]:
            second["problems"].append(
                f"{what}: artifacts of verb seed {second['verb_seed']} differ between jobs"
            )

    def loop(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        warmup = self.job(0, warmup=True)
        count = self.workload.jobs if self.tracer is None else max(1, self.workload.jobs // 3)
        self.planned = count
        for index in range(count):
            start = time.perf_counter()
            plain = self.job(index)
            if index == 0:
                self.require_same_artifacts(warmup, plain, "determinism")
            if self.tracer is not None:
                self.require_same_artifacts(plain, self.job(index, traced=True), "traced vs untraced")
            now = time.perf_counter()
            if index + 1 < count and now + (now - start) > deadline:
                self.capped = True
                return


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--spans", help="where the traced run writes its spans")
    args = p.parse_args()

    run = Run(args)
    run.loop(args.seconds)
    result = {
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "planned_jobs": run.planned,
        "capped": run.capped,
        "jobs": [{k: v for k, v in j.items() if k != "artifacts"} for j in run.jobs],
    }
    if run.tracer is not None and args.spans:
        result["spans"] = run.tracer.write_spans(Path(args.spans))
    (Path(args.work) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
