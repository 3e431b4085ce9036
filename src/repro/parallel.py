"""The parallel driver: chunked map-reduce over record boundaries.

The paper's multiple-entry-point design (Section 4) makes records
independent units of work, and its headline benchmark (Figure 10) is
throughput over an 11.7M-record file — an embarrassingly parallel
workload that the serial runtime drives through one core.  This module
runs any :class:`~repro.execute.Fold` on a process pool:

1. **Plan** — split the input at record boundaries using the record
   discipline's ``align`` logic (:func:`repro.core.io.plan_chunks`, or
   a persistent boundary index), so every window starts exactly where a
   record starts.  A live stream (pipe, socket) is carved into
   record-aligned windows *as the bytes arrive* (:func:`_stream_chunks`)
   and pipelined into the pool ``jobs`` windows at a time.
2. **Map** — one map function, :func:`_fold_window`: each worker
   compiles the description once (or, under ``fork``, inherits the
   parent's already-compiled description) and folds its window through
   the record loop, grid block step included, as a serial pass does.
3. **Reduce** — one ordered loop, :func:`_reduce`: each partial result
   is rebased past the records before it and merged in window order
   (``records`` parts are emitted in order instead).

The driver is observationally equivalent to the in-process one and
falls back to it whenever there is no plan: ``jobs <= 1``, an active
tracer, a non-chunkable record discipline (:class:`~repro.core.io.NoRecords`,
length-prefixed records without an index), inputs smaller than one
chunk, an already-open :class:`Source`, a ``max_errors`` budget, or a
description whose source text is unavailable.  A live stream that cannot
be split is a :class:`PadsError` instead, never a silent degrade.

Byte offsets in error locations are absolute by construction (windowed
Sources preserve them); record *indices* come out of workers
window-local and are rebased during the reduce, so error locations
match the serial run exactly.  Known caveat: user base types registered
with ``load_base_type_files`` reach workers only via ``fork``.
"""

from __future__ import annotations

import io as _stdio
import os
import threading
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutTimeout
from dataclasses import dataclass
from itertools import islice
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Union)

from . import observe
from .core.errors import PadsError
from .core.io import MIN_CHUNK_BYTES, RecordDiscipline, Source, plan_chunks
from .core.limits import ParseLimits
from .execute import Fold, _kind, fold_cursor, open_input
from .tools.accum import header_accumulator

__all__ = ["DescSpec", "split_gate", "drive", "fold_windows", "shutdown",
           "STREAM_CHUNK_BYTES"]

#: Test/fault-injection hook: when set (before the worker pool is
#: created, so fork-started workers inherit it), the map function calls
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
    worker process: the description source text, the ambient coding and
    the record discipline."""

    text: str
    ambient: str
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
        return (self.text, self.ambient,
                self.fastpath) + discipline_key(self.discipline)


def _spec_for(description) -> Optional[DescSpec]:
    """Build a spec for a description, or None when it cannot be shipped
    to workers (no source text — e.g. a hand-constructed binding)."""
    limits = getattr(description, "limits", None)
    text = getattr(description, "source_text", None)
    ambient = getattr(description, "ambient", None)
    if text is None or ambient is None:
        return None
    fastpath = getattr(getattr(description, "bound", None), "fastpath", True)
    return DescSpec(text, ambient, description.discipline, limits,
                    fastpath=fastpath)


#: Per-process cache of compiled descriptions.  The parent seeds it with
#: its own description before creating a pool, so fork-started workers
#: never recompile; spawn-started workers compile once per process.
_COMPILED: Dict[tuple, object] = {}


def _materialise(spec: DescSpec):
    key = spec.key()
    desc = _COMPILED.get(key)
    if desc is None:
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


def _plan_windows(description, data, jobs: int,
                  start: int = 0) -> Union[List[tuple], str]:
    """Record-aligned windows for ``data`` (from offset ``start``), or,
    when the serial path should be used instead, why."""
    if jobs <= 1:
        return "one job"
    why = split_gate(description)
    if why is not None:
        return why
    discipline = description.discipline
    unscannable = f"{type(discipline).__name__} records have no scannable " \
        "boundaries"
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
                return unscannable + " and no boundary index splits the file"
            with open(path, "rb") as handle:
                chunks = plan_chunks(handle, size, discipline, jobs,
                                     start=start)
        windows = [("file", path, s, e) for s, e in chunks or ()]
    elif not isinstance(data, (bytes, bytearray, str)):
        return "an open Source is read in place"
    elif not discipline.chunkable:
        return unscannable
    else:
        raw = data.encode("latin-1") if isinstance(data, str) else bytes(data)
        size = len(raw)
        chunks = plan_chunks(_stdio.BytesIO(raw), size, discipline, jobs,
                             start=start)
        # Each worker receives only its slice; ``start`` keeps reported
        # byte offsets absolute.
        windows = [("bytes", raw[s:e], s) for s, e in chunks or ()]
    if windows:
        return windows
    return f"{size - start} bytes is too small to split" \
        if size - start < 2 * MIN_CHUNK_BYTES else "no record boundary splits it"


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


# -- the map function (runs inside workers) -----------------------------------


def _fold_window(task) -> tuple:
    """Fold one record-aligned window through the record loop over a
    windowed Source.  Returns ``(part, metrics registry or None)``."""
    spec, window, fold, meter = task
    if _WORKER_FAULT is not None:
        _WORKER_FAULT(task)
    desc = _materialise(spec)
    if not meter:
        return _fold_one(desc, window, fold, spec.limits), None
    with observe.observed() as obs:
        part = _fold_one(desc, window, fold, spec.limits)
    return part, obs.metrics


def _fold_one(desc, window: tuple, fold: Fold, limits) -> object:
    with _open_window(window, desc.discipline, limits) as src:
        return fold.over(desc, src, fold.zero(desc))


def _seed(description, spec: DescSpec) -> None:
    # Let fork-started workers inherit the already-compiled description.
    _COMPILED.setdefault(spec.key(), description)


# -- the ordered reduce ----------------------------------------------------------


def _reduce(fold: Fold, state, parts: Iterator[tuple], base: int,
            on_part: Optional[Callable[[int], None]]) -> Iterator:
    """Rebase each worker's part past the ``base`` records before it and
    merge it into ``state``, in window order; yields the ``records``
    fold's pairs instead of keeping them.  ``on_part(records done)``
    runs after each part (for ``records``: once its pairs were consumed).
    """
    cur = observe.CURRENT
    for part, registry in parts:
        if registry is not None and cur is not None:
            cur.metrics.merge(registry)
        fold.rebase(part, base)
        base += fold.size(part)
        if fold.op == "records":
            yield from part
        else:
            fold.merge(state, part)
        if on_part is not None:
            on_part(base)


def fold_windows(description, fold: Fold, windows, jobs: int, state, *,
                 base: int = 0,
                 on_part: Optional[Callable[[int], None]] = None):
    """Fold ``windows`` (record-aligned, in input order) on a pool of
    ``jobs`` workers and merge the parts into ``state`` after ``base``
    earlier records.  Returns the final state; for ``records``, the lazy
    pair stream.  Windows are submitted ``jobs`` at a time, so a live
    stream's windows are pipelined as they arrive."""
    spec = _spec_for(description)
    _seed(description, spec)

    def parts():
        meter = observe.CURRENT is not None
        pending = iter(windows)
        while tasks := [(spec, w, fold, meter)
                        for w in islice(pending, jobs)]:
            yield from _healing_map(_fold_window, tasks, jobs,
                                    timeout=_chunk_timeout(spec))

    reduced = _reduce(fold, state, parts(), base, on_part)
    if fold.op == "records":
        return reduced
    deque(reduced, maxlen=0)
    return state


def drive(description, data, fold: Fold, jobs: int, *,
          stream: bool = False, header: Optional[str] = None) -> tuple:
    """The parallel driver: ``(state, header_acc, declined)`` for
    ``fold`` over ``data`` (see :func:`fold_windows` for the state);
    ``declined`` is None when the pool ran, else why the in-process
    cursor ran instead (:func:`_plan_windows`).

    Windows are planned over a seekable input (a file, bytes) or, with
    ``stream``, carved from a live stream as it delivers them.  A
    ``header`` (seekable inputs) is parsed in the parent and planning
    starts after it.  No plan means the in-process cursor runs the fold,
    continuing where the header ended.
    """
    owned = _kind(data) in ("file", "stream")
    src = header_acc = None
    windows = "one job, a header, an open Source or a tracer keeps the " \
        "stream in process"
    start = base = 0
    if header is not None:
        src = open_input(description, data)
        header_acc = header_accumulator(description, src, header,
                                        fold.tracked)
        start, base = src.pos, src.record_idx + 1
    if not stream:
        windows = _plan_windows(description, data, jobs, start)
    elif src is None and jobs > 1 and not isinstance(data, Source) \
            and split_gate(description, stream=True) is None:
        _require_streamable(description, _spec_for(description))
        windows = _stream_windows(data, description.discipline)
    if isinstance(windows, str):
        if src is None:
            src = open_input(description, data)
        return (fold_cursor(description, fold, src, owned=owned), header_acc,
                windows)
    if src is not None and owned:
        src.close()
    return fold_windows(description, fold, windows, jobs,
                        fold.zero(description), base=base), header_acc, None


# -- live streams -----------------------------------------------------------------

#: Target bytes per window carved from a live stream.  Large enough to
#: amortise pickling and per-chunk pool overhead, small enough that
#: ``jobs`` windows in flight stay a modest working set in the parent.
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


def _stream_chunks(stream, discipline: RecordDiscipline,
                   chunk_bytes: int) -> Iterator[tuple]:
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


def _stream_windows(data, discipline: RecordDiscipline) -> Iterator[tuple]:
    from .stream import binary_stream
    stream, owns = binary_stream(data)
    try:
        for chunk, offset in _stream_chunks(stream, discipline,
                                            STREAM_CHUNK_BYTES):
            yield ("bytes", chunk, offset)
    finally:
        if owns:
            stream.close()
