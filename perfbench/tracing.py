"""Spans, counts and GC time for the benchmark's traced run.

The benchmark wraps every call it makes into a misforge layer in
``tracer.call(name, fn, ...)``.  With tracing off that is a plain call
(``NullTracer``); with tracing on (``Tracer``) it records a span: name,
start, end, parent span, operation id and the run phase it fell in.
Spans stay in memory and are written out once, when the run ends.

A run has phases: ``setup`` (building the inputs), one ``batch<i>``
per traced batch, and ``check`` (the benchmark's own output checks,
outside the timed batches).  Per-layer values are the setup and check
phases plus the median over traced batches, so a count that is made
once per batch repeats exactly from run to run.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager, nullcontext

# Runner descriptors as misforge spells them, and as metric names spell them.
ALG_SLUGS = {
    "luby": "luby",
    "greedy": "greedy",
    "residual:b=8": "residual_b8",
    "residual:s=128,32,all": "residual_s128_32_all",
    "residual:b=4": "residual_b4",
}
STREAM_ALGS = ("luby", "greedy", "residual:b=8", "residual:s=128,32,all")
PROTOCOL_ALGS = ("luby", "greedy", "residual:b=4")

# Every timed call, with the percentile reported beside p50 (None: the
# call has fewer than 20 calls per batch on the workload that exercises
# it, so only its total self time and call count are reported).  The
# percentile is the highest with at least ten calls beyond it there.
CALLS = {
    "hardness.sample_instance": None,
    "hardness.check_properties": None,
    "hardness.write_instance": None,
    "hardness.read_instance": None,
    "hardness.matches": None,
    "streaming.from_instance": None,
    "streaming.gnp_graph": None,
    **{f"streaming.drive.{ALG_SLUGS[a]}": None for a in STREAM_ALGS},
    **{f"protocol.simulate.{ALG_SLUGS[a]}": None for a in PROTOCOL_ALGS},
    **{f"protocol.direct.{ALG_SLUGS[a]}": None for a in PROTOCOL_ALGS},
    "avgfree.verify_avg_free": None,
    "dupgraph.build_dup": 90,
    "dupgraph.verify_dup": 90,
    "embedding.embed": 75,
    "embedding.verify_all_inducedness": 75,
    "oracle.enumerate_all_mis": 75,
    "oracle.extract_predicate_from_mis": 95,
    "oracle.is_mis": 50,
}
MIN_CALLS_FOR_PERCENTILES = 20
CALLS_BEYOND_PERCENTILE = 10

# Counts made with tracer.count / tracer.peak: (name, unit, better).
COUNTS = [
    ("hardness.edges", "count", "lower"),
    ("hardness.misr_bytes", "bytes", "lower"),
    ("streaming.edges_stepped", "count", "lower"),
    *[(f"streaming.passes.{ALG_SLUGS[a]}", "count", "lower") for a in STREAM_ALGS],
    *[(f"streaming.peak_words.{ALG_SLUGS[a]}", "words", "lower") for a in STREAM_ALGS],
    *[(f"protocol.cc_bits.{ALG_SLUGS[a]}", "bits", "lower") for a in PROTOCOL_ALGS],
    ("protocol.messages", "count", "lower"),
    ("protocol.max_message_bits", "bits", "lower"),
    ("dupgraph.pairs", "count", "lower"),
    ("oracle.mis_sets", "count", "lower"),
]
PEAK_COUNTS = {name for name, _, _ in COUNTS if ".peak_words." in name} | {
    "protocol.max_message_bits"
}
# Counts that only feed ratios: join_share and each runner's edges_per_s.
INTERNAL_COUNTS = ["hardness.join_edges",
                   *[f"streaming.edges_stepped.{ALG_SLUGS[a]}" for a in STREAM_ALGS]]


def percentile_names(call: str) -> list[tuple[int, str]]:
    pct = CALLS[call]
    if pct is None:
        return []
    return sorted({(50, f"{call}.p50_s"), (pct, f"{call}.p{pct}_s")})


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run emits: (name, unit, better)."""
    spec = []
    for call in CALLS:
        spec.append((f"{call}.s", "s", "lower"))
        spec.append((f"{call}.calls", "count", "lower"))
        spec.extend((name, "s", "lower") for _, name in percentile_names(call))
        if call.startswith("streaming.drive."):
            spec.append((f"{call}.edges_per_s", "edges/s", "higher"))
    spec.extend(COUNTS)
    spec.append(("hardness.join_share", "fraction", "lower"))
    spec.extend((f"protocol.overhead.{ALG_SLUGS[a]}.s", "s", "lower") for a in PROTOCOL_ALGS)
    spec.append(("runtime.gc_s", "s", "lower"))
    spec.append(("runtime.gc_collections", "count", "lower"))
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name):
        return nullcontext()

    def count(self, name, value):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """In-memory span recorder with per-phase counts and GC time."""

    enabled = True

    def __init__(self):
        # [name, start, end, parent index or None, operation id, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._next_op = 0
        self.phase = "setup"
        self.counts: dict[str, dict[str, float]] = {}
        self.gc_time: dict[str, list[float]] = {}   # phase -> [seconds, collections]
        self._gc_start: float | None = None
        self.unstable: list[str] = []                 # counts that did not repeat

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._op_id, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    @contextmanager
    def op(self, name):
        """One operation of the workload; spans inside share its id."""
        self._op_id = self._next_op
        self._next_op += 1
        rec = self._open(f"op.{name}")
        try:
            yield
        finally:
            self._close(rec)
            self._op_id = None

    def count(self, name, value):
        phase = self.counts.setdefault(self.phase, {})
        phase[name] = phase.get(name, 0) + value

    def peak(self, name, value):
        phase = self.counts.setdefault(self.phase, {})
        phase[name] = max(phase.get(name, value), value)

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, event, info):
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            acc = self.gc_time.setdefault(self.phase, [0.0, 0])
            acc[0] += time.perf_counter() - self._gc_start
            acc[1] += 1
            self._gc_start = None

    @contextmanager
    def recording_gc(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._gc_start = None

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec, own in zip(self.spans, self.self_times()):
                name, start, end, parent, op_id, phase = rec
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "self": own,
                    "parent": parent, "op": op_id, "phase": phase,
                }) + "\n")

    def per_layer(self, batch_phases: list[str], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
        """Per-layer metric values from the recorded spans and counts.

        Each value is its setup and check phases plus one traced batch:
        the median batch for times, the first for counts.  A count that
        differs between traced batches is listed in ``self.unstable``.
        """
        once = ["setup", "check"]
        durations: dict[tuple[str, str], list[float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            durations.setdefault((rec[5], rec[0]), []).append(own)

        def over_run(value_in, per_batch):
            return sum(value_in(p) for p in once) + per_batch([value_in(p) for p in batch_phases])

        def repeated(name):
            def first(values):
                if len(set(values)) > 1:
                    self.unstable.append(f"{name} differs between traced batches: {values}")
                return values[0]
            return first

        out: dict[str, float] = {}
        for call in CALLS:
            spans = lambda p: durations.get((p, call), [])
            out[f"{call}.s"] = over_run(lambda p: sum(spans(p), 0.0), statistics.median)
            calls = out[f"{call}.calls"] = over_run(lambda p: len(spans(p)), repeated(call))
            samples = sorted(t for p in once + batch_phases for t in spans(p))
            for pct, name in percentile_names(call):
                enough = (calls >= MIN_CALLS_FOR_PERCENTILES
                          and calls * (100 - pct) / 100 >= CALLS_BEYOND_PERCENTILE)
                out[name] = _quantile(samples, pct) if enough else 0.0
        for name in [c[0] for c in COUNTS] + INTERNAL_COUNTS:
            count_in = lambda p: self.counts.get(p, {}).get(name, 0)
            if name in PEAK_COUNTS:
                batch_peak = repeated(name)([count_in(p) for p in batch_phases])
                out[name] = max([count_in(p) for p in once] + [batch_peak])
            else:
                out[name] = over_run(count_in, repeated(name))

        for alg in STREAM_ALGS:
            call = f"streaming.drive.{ALG_SLUGS[alg]}"
            stepped = out.pop(f"streaming.edges_stepped.{ALG_SLUGS[alg]}")
            out[f"{call}.edges_per_s"] = stepped / out[f"{call}.s"] if out[f"{call}.s"] else 0.0
        join = out.pop("hardness.join_edges")
        out["hardness.join_share"] = join / out["hardness.edges"] if out["hardness.edges"] else 0.0
        for alg in PROTOCOL_ALGS:
            slug = ALG_SLUGS[alg]
            out[f"protocol.overhead.{slug}.s"] = (
                out[f"protocol.simulate.{slug}.s"] - out[f"protocol.direct.{slug}.s"]
                if out[f"protocol.direct.{slug}.calls"] else 0.0
            )
        gc_in = lambda p: self.gc_time.get(p, [0.0, 0])
        out["runtime.gc_s"] = statistics.median(gc_in(p)[0] for p in batch_phases)
        out["runtime.gc_collections"] = repeated("runtime.gc_collections")(
            [gc_in(p)[1] for p in batch_phases])
        out["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
        return out


def _quantile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile of sorted samples."""
    rank = max(1, -(-pct * len(samples) // 100))
    return samples[rank - 1]
