"""Chunked map-reduce execution over record boundaries.

The paper's multiple-entry-point design (Section 4) makes records
independent units of work, and its headline benchmark (Figure 10) is
throughput over an 11.7M-record file — an embarrassingly parallel
workload that the serial runtime drives through one core.  This module
adds the missing execution engine:

1. **Plan** — split the input at record boundaries using the record
   discipline's ``align`` logic (:func:`repro.core.io.plan_chunks`), so
   every chunk starts exactly where a record starts.
2. **Map** — fan the chunks out to a process pool.  Each worker process
   compiles the description once (or, under ``fork``, inherits the
   parent's already-compiled description) and parses its chunk through
   the ordinary serial machinery over a windowed :class:`Source`.
3. **Reduce** — combine per-chunk results in chunk order: record streams
   concatenate, accumulators :meth:`~repro.tools.accum.Accumulator.merge`,
   error tallies :meth:`~repro.core.errors.ErrorTally.merge`, counts sum.

Every entry point is observationally equivalent to its serial twin and
falls back to the serial path whenever splitting is impossible or not
worthwhile: ``jobs <= 1``, a non-chunkable record discipline
(:class:`~repro.core.io.NoRecords`, length-prefixed records), inputs
smaller than one chunk, an already-open :class:`Source`, or a
description whose source text is unavailable.  The parallel path is an
optimisation, never a semantic fork.

Inputs may be ``bytes``/``str`` (in-memory, chunks are sliced and shipped
to workers) or an :class:`os.PathLike` (each worker opens its own windowed
file handle — the cheap path for large files).  Byte offsets in error
locations are absolute by construction (windowed Sources preserve them);
record *indices* come out of workers chunk-local and are rebased to
global during the reduce, so error locations match the serial run
exactly.  Known caveat: user base types registered with
``load_base_type_files`` reach workers only via ``fork``.
"""

from __future__ import annotations

import io as _stdio
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutTimeout
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import observe
from .core.errors import ErrorTally, PadsError
from .core.io import RecordDiscipline, Source, plan_chunks
from .core.limits import ParseLimits
from .tools.accum import (
    DEFAULT_TRACKED, fold_records, header_accumulator, record_accumulator)

__all__ = [
    "DescSpec", "split_gate", "parallel_records", "parallel_accumulate",
    "parallel_count", "parallel_tally", "tally_records", "shutdown",
    "parallel_records_stream", "parallel_count_stream",
    "parallel_accumulate_stream", "STREAM_CHUNK_BYTES",
]

#: Test/fault-injection hook: when set (before the worker pool is
#: created, so fork-started workers inherit it), every map function calls
#: it with its task before parsing.  Lets the robustness tests crash or
#: stall a worker process deterministically; never set in production.
_WORKER_FAULT: Optional[Callable] = None

#: Test hook: overrides the wedge-detection cap :func:`_chunk_timeout`
#: derives from the data deadline.  Decoupling the two matters under
#: load: a data deadline tight enough to make wedge detection fast is
#: also tight enough for *healthy* workers to trip while parsing real
#: data, which silently truncates their chunks.  Tests set this instead
#: of a deadline, so wedge detection gets a clock of its own.
_WEDGE_TIMEOUT: Optional[float] = None


# -- description specs ---------------------------------------------------------


@dataclass(frozen=True)
class DescSpec:
    """A picklable recipe for rebuilding a compiled description inside a
    worker process: the description source text, the ambient coding, which
    engine to use ('generated' or 'interp') and the record discipline."""

    text: str
    ambient: str
    engine: str
    discipline: RecordDiscipline
    #: Resource budget each worker attaches to its window's Source.  Not
    #: part of ``key()``: compiled descriptions are limits-independent, so
    #: changing limits never forces a worker recompile.
    limits: Optional[ParseLimits] = None
    #: Whether the plan-compiled record fast functions are enabled.  Part
    #: of ``key()``: a parent running in reference mode (``fastpath=False``)
    #: must not share a worker-cache slot with a fastpath parent — same
    #: source, different compiled artifact (the cache-keying bug family).
    fastpath: bool = True

    def key(self) -> tuple:
        from .core.api import discipline_key
        return (self.text, self.ambient, self.engine,
                self.fastpath) + discipline_key(self.discipline)


def _spec_for(description) -> Optional[DescSpec]:
    """Build a spec for a description, or None when it cannot be shipped
    to workers (no source text — e.g. a hand-constructed binding)."""
    limits = getattr(description, "limits", None)
    module = getattr(description, "module", None)
    if module is not None and hasattr(module, "SOURCE"):
        return DescSpec(module.SOURCE, module.AMBIENT, "generated",
                        description.discipline, limits,
                        fastpath=description.fastpath)
    text = getattr(description, "source_text", None)
    ambient = getattr(description, "ambient", None)
    if text is None or ambient is None:
        return None
    fastpath = getattr(getattr(description, "bound", None), "fastpath", True)
    return DescSpec(text, ambient, "interp", description.discipline, limits,
                    fastpath=fastpath)


#: Per-process cache of compiled descriptions.  The parent seeds it with
#: its own description before creating a pool, so fork-started workers
#: never recompile; spawn-started workers compile once per process.
_COMPILED: Dict[tuple, object] = {}


def _materialise(spec: DescSpec):
    key = spec.key()
    desc = _COMPILED.get(key)
    if desc is None:
        if spec.engine == "generated":
            from .codegen import compile_generated
            desc = compile_generated(spec.text, ambient=spec.ambient,
                                     discipline=spec.discipline, check=False,
                                     fastpath=spec.fastpath)
        else:
            from .core.api import compile_description
            desc = compile_description(spec.text, ambient=spec.ambient,
                                       discipline=spec.discipline, check=False,
                                       fastpath=spec.fastpath)
        _COMPILED[key] = desc
    return desc


# -- worker pool ---------------------------------------------------------------
#
# Pools persist across calls keyed by their size, so a long-running
# process (the parse service) pays pool start-up once and every
# subsequent request reuses the warm workers.  Creation, discard and
# shutdown are lock-guarded: concurrent server requests arriving on
# executor threads must not race a half-built pool or double-discard a
# broken one.  ``ProcessPoolExecutor.submit`` itself is thread-safe, so
# the lock covers only the registry, not the mapping.

_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(jobs: int) -> ProcessPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(jobs)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=jobs)
            _POOLS[jobs] = pool
        return pool


def _discard_pool(jobs: int) -> None:
    """Drop a broken pool without waiting on its (possibly dead or
    wedged) workers; the next ``_pool(jobs)`` call builds a fresh one."""
    with _POOLS_LOCK:
        pool = _POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown() -> None:
    """Shut down any worker pools this module created (optional; pools
    are also reaped at interpreter exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


# -- self-healing execution ----------------------------------------------------


def _chunk_timeout(spec: Optional[DescSpec]) -> Optional[float]:
    """Per-chunk wall-clock cap, derived from the data deadline.

    A chunk is at most the whole input, so a worker healthy enough to
    enforce its own deadline finishes within ``deadline`` plus slack; one
    that does not answer within 4x (+1s scheduling slack) is wedged and
    treated like a crashed worker.  Without a deadline there is no cap —
    hang detection needs a clock to compare against — unless the
    :data:`_WEDGE_TIMEOUT` hook supplies one directly.
    """
    if _WEDGE_TIMEOUT is not None:
        return _WEDGE_TIMEOUT
    if spec is not None and spec.limits is not None \
            and spec.limits.deadline is not None:
        return spec.limits.deadline * 4 + 1.0
    return None


def _healing_map(fn: Callable, tasks: Sequence[tuple], jobs: int,
                 *, timeout: Optional[float] = None) -> Iterator:
    """``pool.map`` with per-chunk fault recovery, yielding in task order.

    The recovery ladder, each rung counted in the active metrics
    registry:

    1. a task that *raises* inside a healthy worker is retried serially
       in-process (``parallel.chunk_retry``) — same map function, same
       inputs, so results stay byte-identical;
    2. a *broken* pool (worker killed, unpicklable crash, chunk timeout)
       is discarded, the failed chunk retried in-process, and the pool
       rebuilt once (``parallel.pool_rebuild``) for the remaining chunks;
    3. a second break degrades the whole run to in-process serial
       execution (``parallel.degraded``).

    Chunks are independent by construction (record-aligned windows), so
    re-running one in the parent is always equivalent to the worker run.
    """
    pending = list(tasks)
    rebuilds = 0
    while pending:
        try:
            futures = [_pool(jobs).submit(fn, t) for t in pending]
        except Exception:
            futures, broken_at = [], 0
        else:
            broken_at = None
            for k, fut in enumerate(futures):
                try:
                    yield fut.result(timeout=timeout)
                    continue
                except _FutTimeout:
                    observe.count("parallel.chunk_timeout")
                    broken_at = k
                except BrokenExecutor:
                    broken_at = k
                except Exception:
                    # The worker survived; only this task failed.
                    observe.count("parallel.chunk_retry")
                    yield fn(pending[k])
                    continue
                break
            if broken_at is None:
                return
        for fut in futures[broken_at:]:
            fut.cancel()
        _discard_pool(jobs)
        observe.count("parallel.chunk_retry")
        yield fn(pending[broken_at])
        pending = pending[broken_at + 1:]
        if pending and rebuilds >= 1:
            observe.count("parallel.degraded")
            for task in pending:
                yield fn(task)
            return
        rebuilds += 1
        if pending:
            observe.count("parallel.pool_rebuild")


# -- planning ------------------------------------------------------------------


def split_gate(description, *, stream: bool = False) -> Optional[str]:
    """Why a run asked to fan out must stay on one core, or None.

    An active tracer pins execution to the serial path so the event
    stream stays complete and ordered (metrics alone parallelise).  A
    seekable input also stays serial when the description has no source
    text to ship to workers, or carries a ``max_errors`` budget: that
    budget is run-global, and chunked workers each counting from zero
    would diverge from the serial run.  A live ``stream`` raises on
    those two instead (:func:`_require_streamable`), never degrading
    silently.
    """
    obs = observe.CURRENT
    if obs is not None and obs.tracer is not None:
        return "active tracer (the event stream needs the serial path)"
    if stream:
        return None
    if _spec_for(description) is None:
        return "description has no source text to ship to workers"
    limits = getattr(description, "limits", None)
    if limits is not None and limits.max_errors is not None:
        return "a run-global max_errors budget needs the serial path"
    return None


def _plan_windows(description, data, jobs: Optional[int],
                  start: int = 0) -> Optional[Tuple[List[tuple], int]]:
    """Record-aligned windows for ``data`` (from offset ``start``), or
    None when the serial path should be used instead."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or split_gate(description) is not None:
        return None
    discipline = description.discipline
    if isinstance(data, os.PathLike):
        path = os.fspath(data)
        size = os.path.getsize(path)
        # A persistent boundary index (repro.durable) plans without
        # re-discovering boundaries — and is the only way to split
        # disciplines with no scannable boundaries (length-prefixed).
        from .durable import indexed_file_chunks
        chunks = indexed_file_chunks(path, discipline, jobs, start=start)
        if chunks is None:
            if not discipline.chunkable:
                return None
            with open(path, "rb") as handle:
                chunks = plan_chunks(handle, size, discipline, jobs,
                                     start=start)
        if not chunks:
            return None
        return [("file", path, s, e) for s, e in chunks], jobs
    if not discipline.chunkable:
        return None
    if isinstance(data, (bytes, bytearray, str)):
        raw = data.encode("latin-1") if isinstance(data, str) else bytes(data)
        chunks = plan_chunks(_stdio.BytesIO(raw), len(raw), discipline, jobs,
                             start=start)
        if not chunks:
            return None
        # Each worker receives only its slice; ``start`` keeps reported
        # byte offsets absolute.
        return [("bytes", raw[s:e], s) for s, e in chunks], jobs
    return None  # an open Source (or anything else): serial only


def _open_window(window: tuple, discipline: RecordDiscipline,
                 limits: Optional[ParseLimits] = None) -> Source:
    # A fresh Source per window means per-chunk limit state: each chunk
    # gets its own deadline clock (documented per-chunk semantics).
    if window[0] == "file":
        _, path, start, end = window
        return Source.from_file(path, discipline, start=start, end=end,
                                limits=limits)
    _, chunk, offset = window
    return Source(chunk, discipline=discipline, start=offset, limits=limits)


def _serial_input(description, data):
    if isinstance(data, os.PathLike):
        return description.open_file(os.fspath(data))
    return data


# -- map functions (run inside workers) ----------------------------------------


def _window_iter(desc, window, type_name, mask, limits) -> tuple:
    """One worker window's record stream: the batch engine when the
    window is grid-eligible (:func:`repro.batch.window_records`), the
    ordinary cursor walk otherwise.  Both produce chunk-local record
    indices.  Returns ``(iterator, source-to-close-or-None)``."""
    from .batch import window_records
    batched = window_records(desc, window, type_name, mask)
    if batched is not None:
        return batched, None
    src = _open_window(window, desc.discipline, limits)
    return desc.records(src, type_name, mask), src


def _window_records(desc, window, type_name, mask, limits) -> list:
    it, src = _window_iter(desc, window, type_name, mask, limits)
    try:
        return list(it)
    finally:
        if src is not None:
            src.close()


def _map_records(task) -> tuple:
    spec, window, type_name, mask, meter = task
    if _WORKER_FAULT is not None:
        _WORKER_FAULT(task)
    desc = _materialise(spec)
    if not meter:
        return _window_records(desc, window, type_name, mask,
                               spec.limits), None
    with observe.observed() as obs:
        out = _window_records(desc, window, type_name, mask, spec.limits)
    return out, obs.metrics


def _map_count(task) -> int:
    spec, window = task
    if _WORKER_FAULT is not None:
        _WORKER_FAULT(task)
    desc = _materialise(spec)
    from .batch import window_count
    batched = window_count(desc, window)
    if batched is not None:
        return batched
    src = _open_window(window, desc.discipline, spec.limits)
    with src:
        count = 0
        while src.begin_record():
            src.end_record()
            count += 1
        return count


def _map_tally(task) -> tuple:
    spec, window, type_name, mask, meter = task
    if _WORKER_FAULT is not None:
        _WORKER_FAULT(task)
    desc = _materialise(spec)

    def run():
        tally = ErrorTally()
        it, src = _window_iter(desc, window, type_name, mask, spec.limits)
        try:
            for _rep, pd in it:
                tally.add(pd)
        finally:
            if src is not None:
                src.close()
        return tally

    if not meter:
        return run(), None
    with observe.observed() as obs:
        tally = run()
    return tally, obs.metrics


def _map_accum(task) -> tuple:
    spec, window, record_type, mask, tracked, summaries, meter = task
    if _WORKER_FAULT is not None:
        _WORKER_FAULT(task)
    desc = _materialise(spec)
    acc = record_accumulator(desc, record_type, tracked, summaries)

    def run():
        it, src = _window_iter(desc, window, record_type, mask, spec.limits)
        try:
            return fold_records(acc, it)
        finally:
            if src is not None:
                src.close()

    if not meter:
        return acc, run(), None
    with observe.observed() as obs:
        tally = run()
    return acc, tally, obs.metrics


def _seed(description, spec: DescSpec) -> None:
    # Let fork-started workers inherit the already-compiled description.
    _COMPILED.setdefault(spec.key(), description)


# -- reduce helpers ------------------------------------------------------------


def _rebase_pd(pd, offset: int, cache: dict) -> None:
    """Rebase chunk-local record indices in an error pd tree to global.

    Locations are only attached where errors were reported, so clean
    subtrees (``nerr == 0``) are skipped and the walk costs nothing for
    the common case.  ``Loc`` is frozen; rebased copies are cached by
    identity so locations shared between pd nodes stay shared.
    """
    if pd is None or pd.nerr == 0 or offset == 0:
        return
    loc = pd.loc
    if loc is not None and loc.record >= 0:
        new = cache.get(id(loc))
        if new is None:
            new = replace(loc, record=loc.record + offset)
            cache[id(loc)] = new
        pd.loc = new
    if pd._fields:
        for child in pd._fields.values():
            _rebase_pd(child, offset, cache)
    if pd._elts:
        for child in pd._elts:
            _rebase_pd(child, offset, cache)
    _rebase_pd(pd.branch, offset, cache)


def _rebase_tally(tally: ErrorTally, offset: int) -> None:
    loc = tally.first_error_loc
    if loc is not None and loc.record >= 0 and offset:
        tally.first_error_loc = replace(loc, record=loc.record + offset)


# -- public entry points -------------------------------------------------------


def parallel_records(description, data, type_name: str, mask=None,
                     *, jobs: Optional[int] = None) -> Iterator[tuple]:
    """Parallel twin of ``description.records``: yields ``(rep, pd)``
    pairs in input order.  Workers parse whole chunks, the parent yields
    chunk results in chunk order."""
    plan = _plan_windows(description, data, jobs)
    if plan is None:
        yield from description.records(_serial_input(description, data),
                                       type_name, mask)
        return
    windows, jobs = plan
    spec = _spec_for(description)
    _seed(description, spec)
    cur = observe.CURRENT
    tasks = [(spec, w, type_name, mask, cur is not None) for w in windows]
    base = 0
    for chunk, registry in _healing_map(_map_records, tasks, jobs,
                                        timeout=_chunk_timeout(spec)):
        if registry is not None and cur is not None:
            cur.metrics.merge(registry)
        cache: dict = {}
        for rep, pd in chunk:
            _rebase_pd(pd, base, cache)
            yield rep, pd
        base += len(chunk)


def parallel_count(description, data, *, jobs: Optional[int] = None) -> int:
    """Parallel twin of ``description.count_records``."""
    plan = _plan_windows(description, data, jobs)
    if plan is None:
        return description.count_records(_serial_input(description, data))
    windows, jobs = plan
    spec = _spec_for(description)
    _seed(description, spec)
    tasks = [(spec, w) for w in windows]
    return sum(_healing_map(_map_count, tasks, jobs,
                            timeout=_chunk_timeout(spec)))


def tally_records(description, data, type_name: str, mask=None) -> ErrorTally:
    """Serial vetting reducer: fold every record's pd into one tally."""
    tally = ErrorTally()
    for _rep, pd in description.records(_serial_input(description, data),
                                        type_name, mask):
        tally.add(pd)
    return tally


def parallel_tally(description, data, type_name: str, mask=None,
                   *, jobs: Optional[int] = None) -> ErrorTally:
    """Parallel vetting: parse every record, reduce the parse descriptors
    to an :class:`ErrorTally` inside the workers, merge in chunk order.
    Identical totals to :func:`tally_records` by construction."""
    plan = _plan_windows(description, data, jobs)
    if plan is None:
        return tally_records(description, data, type_name, mask)
    windows, jobs = plan
    spec = _spec_for(description)
    _seed(description, spec)
    cur = observe.CURRENT
    tasks = [(spec, w, type_name, mask, cur is not None) for w in windows]
    tally = ErrorTally()
    base = 0
    for part, registry in _healing_map(_map_tally, tasks, jobs,
                                       timeout=_chunk_timeout(spec)):
        if registry is not None and cur is not None:
            cur.metrics.merge(registry)
        _rebase_tally(part, base)
        base += part.records
        tally.merge(part)
    return tally


def parallel_accumulate(description, data, record_type: str, mask=None,
                        *, jobs: Optional[int] = None,
                        tracked: int = DEFAULT_TRACKED,
                        header_type: Optional[str] = None,
                        summaries: bool = False):
    """Parallel twin of :func:`repro.tools.accum.accumulate_records`.

    Returns ``(record_accumulator, header_accumulator_or_None, tally)``
    where ``tally.records`` is the record count.  When a ``header_type``
    is given, the header is parsed serially in the parent and chunk
    planning starts after it.
    """
    header_acc = None
    start = 0
    base = 0  # records consumed before the chunked region (the header)
    if header_type is not None:
        src = description.open(_serial_input(description, data)) \
            if not isinstance(data, os.PathLike) \
            else description.open_file(os.fspath(data))
        header_acc = header_accumulator(description, src, header_type,
                                        tracked)
        start = src.pos
        base = src.record_idx + 1
        if isinstance(data, os.PathLike):
            src.close()

    plan = _plan_windows(description, data, jobs, start=start)
    acc = record_accumulator(description, record_type, tracked, summaries)

    if plan is None:
        if header_type is not None and not isinstance(data, os.PathLike):
            records_input = src  # continue from where the header ended
        elif header_type is not None:
            records_input = Source.from_file(os.fspath(data),
                                             description.discipline,
                                             start=start)
        else:
            records_input = _serial_input(description, data)
        return acc, header_acc, fold_records(
            acc, description.records(records_input, record_type, mask))

    windows, jobs = plan
    spec = _spec_for(description)
    _seed(description, spec)
    cur = observe.CURRENT
    tasks = [(spec, w, record_type, mask, tracked, summaries, cur is not None)
             for w in windows]
    tally = ErrorTally()
    for part_acc, part_tally, registry in _healing_map(
            _map_accum, tasks, jobs, timeout=_chunk_timeout(spec)):
        if registry is not None and cur is not None:
            cur.metrics.merge(registry)
        acc.merge(part_acc)
        _rebase_tally(part_tally, base)
        base += part_tally.records
        tally.merge(part_tally)
    return acc, header_acc, tally


# -- pipelined streaming --------------------------------------------------------
#
# The streaming twins of the entry points above.  ``plan_chunks`` needs a
# seekable file of known size; a live stream (pipe, socket, growing file)
# has neither, so the feeder below carves record-aligned chunks *as the
# bytes arrive* using the discipline's ``cut`` and ships each batch to
# the pool without waiting for EOF.  Unlike the seekable entry points
# these do NOT silently degrade to serial when the stream cannot be
# chunked — a caller who asked for jobs on a stream gets a
# :class:`PadsError` diagnostic instead (the CLI turns it into exit 2).
# The serial path is used only where it is exact policy: ``jobs <= 1``,
# an active tracer, or an already-open :class:`Source`.

#: Target bytes per shipped chunk.  Large enough to amortise pickling
#: and per-chunk pool overhead, small enough that a batch of
#: ``jobs`` chunks stays a modest working set in the parent.
STREAM_CHUNK_BYTES = 1 << 20


def _require_streamable(description, spec: Optional[DescSpec]) -> None:
    """Raise the explicit never-silently-degrade diagnostics."""
    discipline = description.discipline
    if not discipline.chunkable or discipline.cut(b"") is None:
        raise PadsError(
            f"cannot split a {type(discipline).__name__} stream at record "
            "boundaries; run with jobs=1 or use a seekable file")
    if spec is None:
        raise PadsError("description has no source text to ship to "
                        "workers; run with jobs=1")
    limits = getattr(description, "limits", None)
    if limits is not None and limits.max_errors is not None:
        raise PadsError("a global max_errors budget requires serial "
                        "parsing; run with jobs=1")


def _binary_stream(data) -> Tuple[object, bool]:
    """Normalise feeder input to a readable binary object.  Returns
    ``(stream, owns)``; ``owns`` means the feeder should close it."""
    if hasattr(data, "read"):
        return data, False
    if isinstance(data, (str, os.PathLike)):
        return open(os.fspath(data), "rb"), True
    if isinstance(data, int) and not isinstance(data, bool):
        return os.fdopen(data, "rb"), True
    if hasattr(data, "makefile"):  # socket.socket
        return data.makefile("rb"), True
    raise PadsError(f"cannot stream from {type(data).__name__!r}: need a "
                    "path, fd, socket, or a readable binary object")


def _stream_chunks(stream, discipline: RecordDiscipline,
                   chunk_bytes: int = STREAM_CHUNK_BYTES) -> Iterator[tuple]:
    """Carve a live stream into record-aligned ``(chunk, offset)`` pieces.

    Accumulates at least ``chunk_bytes`` and cuts at the last record
    boundary (``discipline.cut``); the tail past the boundary seeds the
    next chunk, so no record is ever split between workers.  The final
    piece may end mid-record (truncated input) — workers report that the
    same way the serial parse would.
    """
    read = getattr(stream, "read1", None) or stream.read
    buf = bytearray()
    offset = 0
    while True:
        data = read(max(chunk_bytes - len(buf), 1))
        if not data:
            break
        buf += data
        if len(buf) < chunk_bytes:
            continue
        cut = discipline.cut(buf)
        if cut:
            yield bytes(buf[:cut]), offset
            offset += cut
            del buf[:cut]
    if buf:
        yield bytes(buf), offset


def _batches(iterable, size: int) -> Iterator[list]:
    batch: list = []
    for item in iterable:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def parallel_records_stream(description, data, type_name: str, mask=None,
                            *, jobs: Optional[int] = None,
                            chunk_bytes: int = STREAM_CHUNK_BYTES
                            ) -> Iterator[tuple]:
    """Pipelined parallel twin of ``records_stream``: batches of ``jobs``
    record-aligned chunks flow through :func:`_healing_map` as the stream
    delivers them, yielding ``(rep, pd)`` pairs in input order."""
    if isinstance(data, Source):
        yield from description.records(data, type_name, mask)
        return
    if jobs is None:
        jobs = os.cpu_count() or 1
    cur = observe.CURRENT
    if jobs <= 1 or split_gate(description, stream=True) is not None:
        from .stream import records_stream
        yield from records_stream(description, data, type_name, mask)
        return
    spec = _spec_for(description)
    _require_streamable(description, spec)
    _seed(description, spec)
    stream, owns = _binary_stream(data)
    base = 0
    try:
        for batch in _batches(
                _stream_chunks(stream, description.discipline, chunk_bytes),
                jobs):
            tasks = [(spec, ("bytes", chunk, off), type_name, mask,
                      cur is not None) for chunk, off in batch]
            for chunk_out, registry in _healing_map(
                    _map_records, tasks, jobs, timeout=_chunk_timeout(spec)):
                if registry is not None and cur is not None:
                    cur.metrics.merge(registry)
                cache: dict = {}
                for rep, pd in chunk_out:
                    _rebase_pd(pd, base, cache)
                    yield rep, pd
                base += len(chunk_out)
    finally:
        if owns:
            stream.close()


def parallel_count_stream(description, data, *, jobs: Optional[int] = None,
                          chunk_bytes: int = STREAM_CHUNK_BYTES) -> int:
    """Pipelined parallel twin of ``count_records_stream``."""
    if isinstance(data, Source):
        return description.count_records(data)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or split_gate(description, stream=True) is not None:
        from .stream import count_records_stream
        return count_records_stream(description, data)
    spec = _spec_for(description)
    _require_streamable(description, spec)
    _seed(description, spec)
    stream, owns = _binary_stream(data)
    total = 0
    try:
        for batch in _batches(
                _stream_chunks(stream, description.discipline, chunk_bytes),
                jobs):
            tasks = [(spec, ("bytes", chunk, off)) for chunk, off in batch]
            total += sum(_healing_map(_map_count, tasks, jobs,
                                      timeout=_chunk_timeout(spec)))
    finally:
        if owns:
            stream.close()
    return total


def parallel_accumulate_stream(description, data, record_type: str,
                               mask=None, *, jobs: Optional[int] = None,
                               tracked: int = DEFAULT_TRACKED,
                               summaries: bool = False,
                               chunk_bytes: int = STREAM_CHUNK_BYTES):
    """Pipelined parallel accumulation over a live stream: returns
    ``(acc, tally)`` where ``tally.records`` is the record count.
    Streams have no random access, so header types (which need a serial
    prefix parse plus seekable chunk planning) are not supported here."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    acc = record_accumulator(description, record_type, tracked, summaries)
    if isinstance(data, Source):
        return acc, fold_records(acc, description.records(data, record_type,
                                                          mask))
    if jobs <= 1 or split_gate(description, stream=True) is not None:
        from .stream import records_stream
        return acc, fold_records(acc, records_stream(description, data,
                                                     record_type, mask))
    spec = _spec_for(description)
    _require_streamable(description, spec)
    _seed(description, spec)
    cur = observe.CURRENT
    tally = ErrorTally()
    stream, owns = _binary_stream(data)
    base = 0
    try:
        for batch in _batches(
                _stream_chunks(stream, description.discipline, chunk_bytes),
                jobs):
            tasks = [(spec, ("bytes", chunk, off), record_type, mask,
                      tracked, summaries, cur is not None)
                     for chunk, off in batch]
            for part_acc, part_tally, registry in _healing_map(
                    _map_accum, tasks, jobs, timeout=_chunk_timeout(spec)):
                if registry is not None and cur is not None:
                    cur.metrics.merge(registry)
                acc.merge(part_acc)
                _rebase_tally(part_tally, base)
                base += part_tally.records
                tally.merge(part_tally)
    finally:
        if owns:
            stream.close()
    return acc, tally
