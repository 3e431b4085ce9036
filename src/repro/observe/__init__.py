"""``repro.observe`` — observability for the PADS runtime.

The paper's generated libraries exist to *characterize* messy data —
accumulators, error tallies, per-field parse descriptors — yet the
runtime itself was a black box about its own behaviour.  This package
adds the three facilities any serving stack grows:

* a **metrics registry** (:mod:`.metrics`): counters, gauges and
  fixed-bucket histograms that merge across process-pool workers with
  the same homomorphism the accumulators use, so the parallel engine
  reports byte-identical counts to the serial one;
* a **parse tracer** (:mod:`.trace`): structured enter/exit events per
  field, taken branch and array element, with byte spans, outcomes and
  error codes, rendered as JSONL (``padsc view`` renders them too);
* **profiling hooks**: records/sec and bytes/sec, per-type latency
  histograms, and resynchronisation/recovery counters wired into the
  record loop and the type combinators.

Observability is *off* by default and the disabled path is near-free:
the hot loops check one module global (``CURRENT is None``) per record,
and the per-field trace hooks hoist that check to one local-variable
test per field.  Enabling observation never changes parse results —
the differential test sweep (``tests/test_differential.py``) asserts
identical values, parse descriptors and accumulator output with and
without it, serially and on the parallel path.

Usage::

    from repro import observe

    with observe.observed() as obs:
        for rep, pd in description.records(data, "entry_t"):
            ...
    print(obs.stats())             # nested dict: records, errors, latency...

    with observe.observed(trace=True) as obs:
        description.parse(data)
    print(obs.tracer.to_jsonl())   # per-field enter/exit events

The observer is installed process-globally (parallel workers install
their own and ship their registries back to the parent's reduce); it is
not thread-local, matching the process-based execution model of
:mod:`repro.parallel`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import IO, Optional

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
)
from .trace import TraceEvent, Tracer, outcome_of

__all__ = [
    "CURRENT", "ParseObserver", "observed", "current_tracer", "count",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "Tracer",
    "TraceEvent", "LATENCY_BUCKETS", "SIZE_BUCKETS", "to_prometheus",
]



def __getattr__(name: str):
    # The Prometheus renderer serves ``/metrics`` only; it loads on first use.
    if name == "to_prometheus":
        from .exposition import to_prometheus
        return to_prometheus
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: The process-global observer, or None when observability is disabled.
#: Hot paths read this exactly once per record (or hoist it to a local),
#: so the disabled cost is one global load + ``is None`` test.
CURRENT: Optional["ParseObserver"] = None


class ParseObserver:
    """Bundles a metrics registry, an optional tracer, and the fold
    helpers the engines call.  One observer is active at a time
    (:func:`observed`); workers build their own and return only the
    registry, which the parent merges."""

    __slots__ = ("metrics", "tracer", "wall_seconds", "_started")

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.wall_seconds = 0.0
        self._started: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def _start_clock(self) -> None:
        self._started = perf_counter()

    def _stop_clock(self) -> None:
        if self._started is not None:
            self.wall_seconds += perf_counter() - self._started
            self._started = None

    def elapsed(self) -> float:
        running = (perf_counter() - self._started) if self._started is not None else 0.0
        return self.wall_seconds + running

    # -- folds (called by the engines) -------------------------------------

    def record_parsed(self, type_name: str, pd, nbytes: int, dt: float,
                      *, start: int = 0, record: int = -1) -> None:
        """Fold one parsed value (usually one record) into the metrics
        and, when tracing, emit the whole-record trace event."""
        if self.tracer is not None:
            self.tracer.record_event(type_name, start, start + nbytes,
                                     record, *outcome_of(pd))
        m = self.metrics
        m.counter("records.total").inc()
        m.counter("bytes.total").inc(nbytes)
        m.histogram("latency", type_name, timing=True).observe(dt)
        m.histogram("record_bytes", type_name, bounds=SIZE_BUCKETS).observe(nbytes)
        if pd.nerr:
            m.counter("records.bad").inc()
            m.counter("errors.total").inc(pd.nerr)
            if int(pd.pstate) & 2:  # Pstate.PANIC
                m.counter("records.panic").inc()
            elif int(pd.pstate) & 1:  # Pstate.PARTIAL
                m.counter("records.partial").inc()
            for path, code, n in pd.iter_errors(type_name):
                m.counter("errors.by_code", code.name).inc(n)
                m.counter("errors.by_field", path, code.name).inc(n)

    # -- reporting ---------------------------------------------------------

    def stats(self, deterministic: bool = False) -> dict:
        """The ``padsc --stats=json`` document.

        ``deterministic=True`` drops wall-clock-dependent values
        (throughput, latency sums/buckets), leaving the projection that
        is identical whether produced serially or by a worker pool.
        """
        snap = self.metrics.snapshot(deterministic)
        total = self.metrics.value("records.total")
        nbytes = self.metrics.value("bytes.total")
        doc = {
            "records": {
                "total": total,
                "bad": self.metrics.value("records.bad"),
                "partial": self.metrics.value("records.partial"),
                "panic": self.metrics.value("records.panic"),
            },
            "bytes": {"total": nbytes},
            "errors": {
                "total": self.metrics.value("errors.total"),
                "by_code": snap.get("errors.by_code", {}),
                "by_field": snap.get("errors.by_field", {}),
            },
            "latency": snap.get("latency", {}),
            "record_bytes": snap.get("record_bytes", {}),
            "resync": {
                "literal": self.metrics.value("resync.literal"),
                "field_skip": self.metrics.value("resync.field_skip"),
                "array": self.metrics.value("resync.array"),
            },
            # Limit hits (ParseLimits budgets) and parallel-engine
            # recovery actions.  Zero-valued keys are always present so
            # the deterministic document is identical whether a limit or
            # recovery path was merely *available* or never configured.
            "limits": {
                "record_bytes": self.metrics.value("limit.record_bytes"),
                "array_elems": self.metrics.value("limit.array_elems"),
                "depth": self.metrics.value("limit.depth"),
                "scan": self.metrics.value("limit.scan"),
                "deadline": self.metrics.value("limit.deadline"),
                "errors": self.metrics.value("limit.errors"),
            },
            "recovery": {
                "chunk_retry": self.metrics.value("parallel.chunk_retry"),
                "chunk_timeout": self.metrics.value("parallel.chunk_timeout"),
                "pool_rebuild": self.metrics.value("parallel.pool_rebuild"),
                "degraded": self.metrics.value("parallel.degraded"),
            },
            # Sliding-window streaming (repro.stream).  ``high_water`` is
            # the peak bytes buffered across every StreamSource that ran
            # under this observer — the number the bounded-memory
            # acceptance tests assert against.
            "stream": {
                "refills": self.metrics.value("stream.refills"),
                "stalls": self.metrics.value("stream.stalls"),
                "bytes_buffered": self.metrics.value("stream.bytes_buffered"),
                "high_water": self.metrics.value("stream.high_water"),
            },
            # Durable runs (repro.durable).  Rejections are the load-
            # bearing numbers: a stale/torn index or checkpoint must show
            # up here rather than skew a result.
            "durable": {
                "checkpoint_writes": self.metrics.value("checkpoint.writes"),
                "checkpoint_resumes": self.metrics.value("checkpoint.resumes"),
                "checkpoint_rejected": self.metrics.value("checkpoint.rejected"),
                "records_skipped": self.metrics.value("checkpoint.records_skipped"),
                "index_built": self.metrics.value("index.built"),
                "index_hits": self.metrics.value("index.hits"),
                "index_rejected": self.metrics.value("index.rejected"),
            },
        }
        if not deterministic:
            # Record fast-function outcomes per type and the record
            # loop's grid block step (``Source.grid_frames``): execution
            # decisions, not parse results (the reference build never
            # consults them, and grid blocks follow buffering, so window,
            # chunk and resume points move them), so they stay out of
            # the deterministic projection the differential tests
            # compare.  ``batch.records`` counts records a batch kernel
            # parsed clean a block at a time; ``fallback_records`` the
            # ones each taking their own step (kernel misses, torn or
            # short records, the first record past the buffered bytes).
            hits = snap.get("fastpath.hit", {})
            misses = snap.get("fastpath.miss", {})
            doc["fastpath"] = {t: {"hit": hits.get(t, 0),
                                   "miss": misses.get(t, 0)}
                               for t in sorted(set(hits) | set(misses))}
            doc["batch"] = {
                "records": self.metrics.value("batch.records"),
                "batches": self.metrics.value("batch.batches"),
                "fallback_records": self.metrics.value("batch.fallback_records"),
                "bytes": self.metrics.value("batch.bytes"),
            }
            wall = self.elapsed()
            doc["throughput"] = {
                "wall_seconds": wall,
                "records_per_sec": (total / wall) if wall > 0 else 0.0,
                "bytes_per_sec": (nbytes / wall) if wall > 0 else 0.0,
            }
        if self.tracer is not None:
            doc["trace"] = {"events": len(self.tracer.events),
                            "dropped": self.tracer.dropped}
        return doc

    def summary(self) -> str:
        """Human-readable one-screen stats (the ``--stats`` text mode)."""
        s = self.stats()
        rec, err = s["records"], s["errors"]
        tp = s["throughput"]
        lines = [
            f"records: {rec['total']} ({rec['bad']} bad, "
            f"{rec['partial']} partial, {rec['panic']} panicked)",
            f"bytes:   {s['bytes']['total']}",
            f"errors:  {err['total']}"
            + (f" — {', '.join(f'{k}: {v}' for k, v in sorted(err['by_code'].items()))}"
               if err["by_code"] else ""),
            f"resync:  literal: {s['resync']['literal']} "
            f"field-skip: {s['resync']['field_skip']} "
            f"array: {s['resync']['array']}",
            f"wall:    {tp['wall_seconds']:.3f}s "
            f"({tp['records_per_sec']:.0f} records/sec, "
            f"{tp['bytes_per_sec']:.0f} bytes/sec)",
        ]
        if any(s["limits"].values()):
            lines.append("limits:  " + " ".join(
                f"{k}: {v}" for k, v in s["limits"].items() if v))
        if any(s["recovery"].values()):
            lines.append("recover: " + " ".join(
                f"{k}: {v}" for k, v in s["recovery"].items() if v))
        if s["stream"]["refills"] or s["stream"]["stalls"]:
            lines.append(f"stream:  refills: {s['stream']['refills']} "
                         f"stalls: {s['stream']['stalls']} "
                         f"high-water: {s['stream']['high_water']}")
        if s["batch"]["batches"] or s["batch"]["fallback_records"]:
            lines.append(f"batch:   records: {s['batch']['records']} "
                         f"batches: {s['batch']['batches']} "
                         f"fallbacks: {s['batch']['fallback_records']} "
                         f"bytes: {s['batch']['bytes']}")
        if any(s["durable"].values()):
            d = s["durable"]
            lines.append(f"durable: ckpt-writes: {d['checkpoint_writes']} "
                         f"resumes: {d['checkpoint_resumes']} "
                         f"skipped: {d['records_skipped']} "
                         f"ckpt-rejected: {d['checkpoint_rejected']} "
                         f"index-built: {d['index_built']} "
                         f"index-hits: {d['index_hits']} "
                         f"index-rejected: {d['index_rejected']}")
        for type_name, fp in s["fastpath"].items():
            lines.append(f"fastpath: {type_name}: {fp['hit']} hit, "
                         f"{fp['miss']} miss")
        for type_name, hist in sorted(s["latency"].items()):
            count_ = hist["count"] if isinstance(hist, dict) else hist
            mean = (hist["sum"] / count_ * 1e6) if isinstance(hist, dict) and count_ else 0.0
            lines.append(f"latency: {type_name}: {count_} parses, "
                         f"mean {mean:.1f}us")
        return "\n".join(lines)


# -- module-level helpers (the engines' entry points) -------------------------


@contextmanager
def observed(metrics: Optional[MetricsRegistry] = None, *,
             trace: bool = False, trace_sink: Optional[IO[str]] = None,
             max_events: int = 100_000):
    """Install a :class:`ParseObserver` for the duration of the block.

    Nests by stacking: the previous observer (if any) is restored on
    exit.  ``trace=True`` (or a ``trace_sink``) attaches a tracer; note
    that an active tracer pins the parallel driver to its in-process
    fallback so the event stream stays complete and ordered.
    """
    global CURRENT
    tracer = Tracer(max_events=max_events, sink=trace_sink) \
        if (trace or trace_sink is not None) else None
    observer = ParseObserver(metrics, tracer)
    previous = CURRENT
    CURRENT = observer
    observer._start_clock()
    try:
        yield observer
    finally:
        observer._stop_clock()
        CURRENT = previous


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or None.  Structural combinators hoist this to
    a local once per compound parse, so the disabled per-field cost is a
    single ``is None`` test."""
    obs = CURRENT
    return obs.tracer if obs is not None else None


def count(name: str, *labels: str, n: int = 1) -> None:
    """Bump a counter iff observability is enabled.  Used on *cold*
    paths only (error recovery, resynchronisation) where a function call
    per event costs nothing measurable."""
    obs = CURRENT
    if obs is not None:
        obs.metrics.counter(name, *labels).inc(n)
