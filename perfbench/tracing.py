"""Outside-in tracer for the traced benchmark run.

The tracer replaces each covered function at every module-level binding a
caller looks it up through (``from ... import`` copies included) and each
covered method on its class.  Every call records one span (name, start,
end, parent span, job id) in compact in-memory arrays that are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  Computed counts come only from ``CodebookSet.sizes`` and
``key_types``, return values, and output files.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import time
import weakref
from array import array
from pathlib import Path

PACKAGE = "secembed"
MODULES = ("cli", "config", "rd", "region", "sim", "tables", "typical")

# span name -> the functions it covers, as "module.qualname"
LAYERS = {
    "cli.run": ["cli.run"],
    "config.load": ["config.load_system", "config.load_aux", "config.parse_config"],
    "rd.ba": ["rd.blahut_arimoto"],
    "rd.cover": ["rd.build_rd_codebook"],
    "rd.encode": ["rd.rd_encode"],
    "typical.sampler_init": ["typical.ConditionalTypicalSampler.__init__"],
    "typical.count_box": ["typical.conditional_count_box"],
    "typical.sample": ["typical.ConditionalTypicalSampler.sample"],
    "region.optimize": ["region.optimize_region"],
    "region.eval": ["region.eval_keyed_region", "region.system_quantities", "region.compose_system"],
    "tables.info": [
        "tables.entropy",
        "tables.conditional_entropy",
        "tables.mutual_information",
        "tables.conditional_mutual_information",
        "tables.compose_joint",
        "tables.DistTable.marginal",
    ],
    "tables.disttable": ["tables.DistTable.__init__"],
    "sim.build": ["sim.build_codebooks"],
    "sim.stego_book": ["sim.CodebookSet.stego_book"],
    "sim.audit_bins": ["sim.bin_multiplicity_audit"],
    "sim.audit_compression": ["sim.compression_audits"],
    "sim.encode": ["sim.embed_encode"],
    "sim.search": ["sim.embed_in_bin"],
    "sim.decode": ["sim.decode"],
    "sim.attack": ["sim.attack"],
    "sim.trials": ["sim.run_trials"],
    "sim.enum": ["sim.estimate_equivocation"],
}

# per-layer metrics reported by the traced run, with their units
PER_LAYER = {
    "config.load.calls": "count",
    "config.load.self_s": "s",
    "cli.run.self_s": "s",
    "cli.artifact_bytes": "B",
    "rd.ba.calls": "count",
    "rd.ba.iterations": "count",
    "rd.ba.self_s": "s",
    "rd.cover.calls": "count",
    "rd.cover.self_s": "s",
    "rd.cover.codewords": "count",
    "rd.encode.calls": "count",
    "rd.encode.self_s": "s",
    "typical.sampler_init.calls": "count",
    "typical.sampler_init.self_s": "s",
    "typical.count_box.self_s": "s",
    "typical.sample.calls": "count",
    "typical.sample.self_s": "s",
    "typical.sample.rows_per_s": "1/s",
    "region.optimize.calls": "count",
    "region.optimize.self_s": "s",
    "region.optimize.restarts": "count",
    "region.optimize.value": "bits",
    "region.eval.calls": "count",
    "region.eval.self_s": "s",
    "tables.info.calls": "count",
    "tables.info.self_s": "s",
    "tables.disttable.calls": "count",
    "sim.build.calls": "count",
    "sim.build.self_s": "s",
    "sim.aux_book.rows": "count",
    "sim.stego_book.calls": "count",
    "sim.stego_book.self_s": "s",
    "sim.stego_book.distinct": "count",
    "sim.audit_bins.self_s": "s",
    "sim.audit_compression.self_s": "s",
    "sim.audit_compression.words": "count",
    "sim.encode.calls": "count",
    "sim.encode.self_s": "s",
    "sim.search.calls": "count",
    "sim.search.self_s": "s",
    "sim.search.rows_scanned": "count",
    "sim.decode.calls": "count",
    "sim.decode.self_s": "s",
    "sim.decode.rows_scanned": "count",
    "sim.attack.calls": "count",
    "sim.attack.self_s": "s",
    "sim.trials.count": "count",
    "sim.trials.self_s": "s",
    "sim.trials.per_s": "1/s",
    **{f"sim.events.{e}": "count" for e in ("none", "e1", "e2", "e3", "e4", "e5", "encode_fallback")},
    "sim.enum.states": "count",
    "sim.enum.self_s": "s",
    "sim.enum.states_per_s": "1/s",
    "sim.enum.decode_per_state": "ratio",
    "trace.overhead_s": "s",
}

# counts derived from sizes, return values or files rather than from spans
COMPUTED = (
    "cli.artifact_bytes",
    "rd.cover.codewords",
    "sim.aux_book.rows",
    "sim.audit_compression.words",
    "sim.search.rows_scanned",
    "sim.decode.rows_scanned",
    "sim.enum.states",
)


def _multinomial(counts) -> int:
    out, rem = 1, sum(counts)
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


class Tracer:
    """Spans and per-job aggregates for one traced run."""

    def __init__(self):
        self._mod = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        # every namespace a caller can look a covered function up through
        self.modules = [importlib.import_module(PACKAGE), *self._mod.values()]
        self.names = list(LAYERS)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.origin = time.perf_counter()
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "rd.ba": self._on_ba,
            "rd.cover": self._on_cover,
            "region.optimize": self._on_optimize,
            "sim.build": self._on_build,
            "sim.stego_book": self._on_stego_book,
            "sim.audit_compression": self._on_audit_compression,
            "sim.search": self._on_search,
            "sim.decode": self._on_decode,
            "sim.trials": self._on_trials,
            "sim.enum": self._on_enum,
        }
        self.begin_job(-1)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every covered function at each binding of it."""
        for name, targets in LAYERS.items():
            nid, hook = self._id[name], self._hooks.get(name)
            for target in targets:
                mod, *path = target.split(".")
                owner = self._mod[mod]
                for part in path[:-1]:
                    owner = getattr(owner, part)
                attr = path[-1]
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(nid, original, hook))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(nid, original, hook)
                for module in self.modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, nid: int, fn, hook):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_start[idx] = start - tracer.origin
                tracer.span_end[idx] = end - tracer.origin
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                agg = tracer._agg[nid]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- per-job aggregates ----------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self._agg = [[0, 0.0, 0.0] for _ in self.names]  # calls, total s, self s
        self._count = dict.fromkeys(PER_LAYER, 0.0)
        self._stego_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._enum_decodes = 0

    def job_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the job since ``begin_job``."""
        m = dict(self._count)
        for name, (calls, total, self_s) in zip(self.names, self._agg):
            if f"{name}.calls" in m:
                m[f"{name}.calls"] = calls
            if f"{name}.self_s" in m:
                m[f"{name}.self_s"] = self_s
        agg = dict(zip(self.names, self._agg))
        sample_calls, sample_total, _ = agg["typical.sample"]
        m["typical.sample.rows_per_s"] = sample_calls / sample_total if sample_total else 0.0
        m["sim.trials.per_s"] = m["sim.trials.count"] / agg["sim.trials"][1] if agg["sim.trials"][1] else 0.0
        states = m["sim.enum.states"]
        m["sim.enum.states_per_s"] = states / agg["sim.enum"][1] if agg["sim.enum"][1] else 0.0
        m["sim.enum.decode_per_state"] = self._enum_decodes / states if states else 0.0
        return m

    # -- computed counts from return values and sizes --------------------------

    def _on_ba(self, args, kwargs, sol) -> None:
        self._count["rd.ba.iterations"] += sol.iterations

    def _on_cover(self, args, kwargs, book) -> None:
        self._count["rd.cover.codewords"] += book.distinct_count

    def _on_optimize(self, args, kwargs, res) -> None:
        self._count["region.optimize.restarts"] += len(res.restart_values)
        self._count["region.optimize.value"] = res.value

    def _on_build(self, args, kwargs, books) -> None:
        s = books.sizes
        self._count["sim.aux_book.rows"] += len(books.key_types) * s.bins * s.m2

    def _on_stego_book(self, args, kwargs, result) -> None:
        books, type_idx, v_rep = args
        seen = self._stego_seen.setdefault(books, set())
        key = (type_idx, v_rep.tobytes())
        if key not in seen:
            seen.add(key)
            self._count["sim.stego_book.distinct"] += 1

    def _on_audit_compression(self, args, kwargs, result) -> None:
        books = args[0]
        s = books.sizes
        per_type = s.bins * s.m2 * s.m3
        self._count["sim.audit_compression.words"] += sum(
            _multinomial(t.counts) * per_type for t in books.key_types
        )

    def _on_search(self, args, kwargs, result) -> None:
        s = args[0].sizes
        _, _, details = result
        if "type_idx" in details:
            self._count["sim.search.rows_scanned"] += s.m2
        if "v_rep" in details:
            self._count["sim.search.rows_scanned"] += s.m3

    def _on_decode(self, args, kwargs, result) -> None:
        s = args[2].sizes
        self._count["sim.decode.rows_scanned"] += s.bins * s.m2
        enum_id = self._id["sim.enum"]
        if any(frame[1] == enum_id for frame in self._stack):
            self._enum_decodes += 1

    def _on_trials(self, args, kwargs, agg) -> None:
        self._count["sim.trials.count"] += agg.trials
        for event, freq in agg.event_frequencies.items():
            self._count[f"sim.events.{event}"] += round(freq * agg.trials)

    def _on_enum(self, args, kwargs, est) -> None:
        if est.method != "exact_enumeration":
            return
        books = args[0]
        spec = books.spec
        z_states = 1 if spec.has_identity_attack() else spec.z_axis.size**books.n
        xk = spec.x_axis.size * spec.k_axis.size
        self._count["sim.enum.states"] += spec.u_axis.size**books.n_message * xk**books.n * z_states

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write every span as gzip-compressed CSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.span_name)):
                f.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_job[i]}\n"
                )
        return len(self.span_name)
