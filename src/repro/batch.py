"""``repro.batch`` — the vectorized batch engine for column-regular data.

The cursor engines parse one record at a time: position a cursor,
consume fields, close the record scope.  For the paper's headline
workloads (call-detail streams, Cobol/EBCDIC layouts, fixed-field card
formats) every record has the *same* shape, so almost all of that
per-record work is redundant.  This module exploits the plan IR's width
analysis: when a record's layout is provably static — fixed columns at
fixed offsets — and the record discipline gives records a constant
pitch (``FixedWidthRecords``, or ``NewlineRecords`` over a fixed-width
payload), thousands of records parse per call through a *batch kernel*
(:func:`repro.plan.fastpath.compile_batch`):

* all fixed columns of every record in the batch split in one C-level
  ``struct.Struct.iter_unpack`` over a ``memoryview`` of the grid;
* literal and terminator columns verified for the whole batch at once
  with strided-slice compares;
* only unhoistable per-record work (non-native conversions, semantic
  constraints, rep construction) runs in the Python loop.

**Fallback contract.** The kernel marks any record it cannot prove
clean as ``None``; the driver re-parses exactly those records — plus
any stretch of input where the grid assumption fails (a torn record, a
truncated tail, CRLF terminators) — with the ordinary cursor engine at
the same absolute offsets and record indices.  Values, parse
descriptors, accumulators and deterministic metrics (modulo the
``batch.*`` counters) are therefore byte-identical to the serial
reference; the batch engine is an optimisation, never a semantic fork.

Entry points (``records_batch`` is also a method on both
compiled-description engines; :func:`repro.execute.run` picks this
engine whenever :func:`batch_gate` allows)::

    from repro import gallery
    cd = gallery.load_call_detail()
    for rep, pd in cd.records_batch(DATA, "call_t"):
        ...

Eligibility rules and the fallback semantics are documented in
``docs/BATCH.md``; the engine-selection table in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import os
from itertools import chain, repeat
from time import perf_counter
from typing import Iterable, Iterator, Optional, Tuple

from . import observe
from .core.errors import ErrCode, PadsError, Pd
from .core.io import FixedWidthRecords, NewlineRecords, Source
from .core.masks import Mask, P_CheckAndSet
from .plan.ir import Verdict

__all__ = [
    "BATCH_BYTES", "MAX_BATCH_RECORDS", "batch_verdict", "batch_gate",
    "records_batch", "count_records_batch",
]

#: Feeder span size: how much record-aligned input one grid pass covers.
BATCH_BYTES = 1 << 20
#: Records per kernel call (bounds the per-call rep list).
MAX_BATCH_RECORDS = 1 << 13


# -- eligibility ---------------------------------------------------------------


def _kernel_for(description, type_name: str):
    """``(width, kernel)`` when the engine carries a batch kernel for
    ``type_name``; a :class:`Verdict` explaining why not otherwise."""
    get = getattr(description, "batch_kernel", None)
    if get is None:
        return Verdict(False, "engine has no batch kernel support")
    info = get(type_name)
    if info is not None:
        return info
    plan = getattr(description, "plan", None)
    if plan is not None and type_name in plan.decls:
        dp = plan.decls[type_name]
        if not dp.batch_verdict.eligible:
            return dp.batch_verdict
        return Verdict(False, "batch kernels disabled (fastpath=False)")
    return Verdict(False, f"no batch kernel for {type_name!r}")


def _geometry(discipline, width: int):
    """``(stride, terminator)`` for a grid of ``width``-byte records
    under ``discipline``; a :class:`Verdict` when the discipline cannot
    give records a constant pitch."""
    if isinstance(discipline, FixedWidthRecords):
        if discipline.width != width:
            return Verdict(
                False, f"static record width {width} != fixed-width "
                f"discipline {discipline.width}")
        return width, b""
    if isinstance(discipline, NewlineRecords):
        return width + 1, b"\n"
    return Verdict(
        False, f"{type(discipline).__name__} records have no constant pitch")


def batch_verdict(description, type_name: str) -> Verdict:
    """The full engine-level verdict: plan layout × compiled kernel ×
    record-discipline geometry.  ``padsc plan`` shows the plan half;
    this is what ``--engine batch`` enforces."""
    info = _kernel_for(description, type_name)
    if isinstance(info, Verdict):
        return info
    width, _fn = info
    geo = _geometry(description.discipline, width)
    if isinstance(geo, Verdict):
        return geo
    stride, _term = geo
    return Verdict(True, f"{width}-byte columns at {stride}-byte pitch")


def batch_gate(description, type_name: Optional[str] = None,
               mask: Optional[Mask] = None) -> Verdict:
    """Whether this call may run on the batch engine, with the reason.

    With ``type_name`` it is :func:`batch_verdict` plus the per-call
    conditions that force the cursor engine even for an eligible
    description (mirroring the record fast-path gate): attached parse
    limits, an active tracer, a non-uniform mask.  Without it, it is
    the record-counting gate: a constant-pitch discipline and no
    limits, since counting parses no fields.
    """
    if type_name is not None:
        verdict = batch_verdict(description, type_name)
        if not verdict.eligible:
            return verdict
    if getattr(description, "limits", None) is not None:
        return Verdict(False, "parse limits attached (budgets are "
                              "accounted per-cursor)")
    if type_name is None:
        disc = description.discipline
        if isinstance(disc, (FixedWidthRecords, NewlineRecords)):
            return Verdict(True, f"{type(disc).__name__}: counted by "
                                 "arithmetic")
        return Verdict(
            False, f"{type(disc).__name__} records have no constant pitch")
    obs = observe.CURRENT
    if obs is not None and obs.tracer is not None:
        return Verdict(False, "active tracer (the event stream needs the "
                              "cursor engine)")
    m = mask if mask is not None else Mask(P_CheckAndSet)
    if not ((m.bits & 1) and not m.fields and m.compound_level is None
            and m.elts is None):
        return Verdict(False, "non-uniform or non-materialising mask")
    return verdict


# -- input feeding -------------------------------------------------------------


def _feed(data, discipline, chunk_bytes: int):
    """Record-aligned ``(bytes, absolute offset)`` spans for ``data``,
    or None when the input cannot be fed to the grid driver (an already
    open Source keeps the cursor path)."""
    if isinstance(data, (bytes, bytearray)):
        return iter([(bytes(data), 0)])
    if isinstance(data, str):
        return iter([(data.encode("latin-1"), 0)])
    if isinstance(data, Source):
        return None
    from .parallel import _binary_stream, _stream_chunks
    try:
        stream, owns = _binary_stream(data)
    except PadsError:
        return None

    def spans():
        try:
            yield from _stream_chunks(stream, discipline, chunk_bytes)
        finally:
            if owns:
                stream.close()

    return spans()


def _serial_input(description, data):
    if isinstance(data, os.PathLike):
        return description.open_file(os.fspath(data))
    return data


# -- the grid driver -----------------------------------------------------------


def _cursor_one(description, buf: bytes, pos: int, end: int, base: int,
                rec_idx: int, type_name: str, mask) -> Tuple[object, Pd, int]:
    """Cursor-parse exactly one record at ``pos`` (absolute ``base +
    pos``), rebasing its pd to the global record index.  Returns
    ``(rep, pd, consumed bytes)``."""
    from .execute import _rebase_pd
    src = Source(buf[pos:end], discipline=description.discipline,
                 start=base + pos)
    rep, pd = description.parse(src, type_name, mask)
    _rebase_pd(pd, rec_idx, {})
    return rep, pd, src.pos - (base + pos)


def _drive(description, feed, type_name: str, mask, width: int, stride: int,
           term: bytes, kernel) -> Iterator[Iterable[Tuple[object, Pd]]]:
    """Yield *windows* — iterables of ``(rep, pd)`` pairs — so the common
    all-clean case streams through C-level ``zip``/``chain`` iteration
    with zero per-record Python bytecode in the driver.

    Clean records in an unmetered window share one flyweight clean
    ``Pd`` (content-identical to a fresh descriptor — treat it as
    read-only); fallback records and metered windows get real
    per-record descriptors.
    """
    obs = observe.CURRENT
    use_mask = mask if mask is not None else Mask(P_CheckAndSet)
    dosem = bool(use_mask.bits & 4)
    clean = Pd()
    rec_idx = 0
    for buf, base in feed:
        n_buf = len(buf)
        pos = 0
        while pos < n_buf:
            avail = n_buf - pos
            m = min(avail // stride, MAX_BATCH_RECORDS)
            k = m
            if m and term:
                # Grid verification for the whole window at once: the
                # terminator column must be all-terminator AND the window
                # must contain exactly one terminator per record — together
                # these prove every record is exactly ``width`` wide.
                hi = pos + m * stride
                if not (buf[pos + width:hi:stride] == term * m
                        and buf.count(term, pos, hi) == m):
                    # Misaligned somewhere: batch the aligned prefix, then
                    # let the cursor take one record at the tear.
                    k = 0
                    cur = pos
                    while k < m:
                        nxt = buf.find(term, cur, hi)
                        if nxt != cur + width:
                            break
                        cur = nxt + 1
                        k += 1
            if k:
                nbytes = k * stride
                grid = memoryview(buf)[pos:pos + nbytes]
                t0 = perf_counter()
                reps, miss = kernel(grid, k, stride, dosem)
                dt = (perf_counter() - t0) / k
                if obs is None and not miss:
                    # Hot path: whole window clean, metering off.
                    yield zip(reps, repeat(clean, k))
                    rec_idx += k
                else:
                    out = []
                    emit = out.append
                    fallbacks = 0
                    for i, rep in enumerate(reps):
                        off = pos + i * stride
                        if rep is None:
                            rep, pd, _ = _cursor_one(
                                description, buf, off, off + stride, base,
                                rec_idx, type_name, use_mask)
                            fallbacks += 1
                        else:
                            pd = Pd()
                            if obs is not None:
                                obs.record_parsed(type_name, pd, stride, dt,
                                                  start=base + off,
                                                  record=rec_idx)
                        emit((rep, pd))
                        rec_idx += 1
                    if obs is not None:
                        observe.count("batch.batches")
                        observe.count("batch.records", n=k - fallbacks)
                        observe.count("batch.bytes", n=nbytes)
                        if fallbacks:
                            observe.count("batch.fallback_records",
                                          n=fallbacks)
                    yield out
                pos += nbytes
                if k == m:
                    continue
            # A tail shorter than one grid pitch, or a record that broke
            # the grid: one cursor step, then try the grid again.
            if term:
                nxt = buf.find(term, pos)
                end = n_buf if nxt < 0 else nxt + len(term)
            else:
                end = min(pos + stride, n_buf)
            rep, pd, consumed = _cursor_one(description, buf, pos, end, base,
                                            rec_idx, type_name, use_mask)
            if consumed <= 0 or pd.err_code == ErrCode.AT_EOF:
                break
            if obs is not None:
                observe.count("batch.fallback_records")
            yield ((rep, pd),)
            rec_idx += 1
            pos += consumed


# -- worker-side window entry points -------------------------------------------
#
# ``repro.parallel`` workers and the streaming loop hand record-aligned
# windows here; a None return means "not batch-eligible, keep your
# cursor path", so callers never need to duplicate the eligibility
# logic.


class _RangeReader:
    """A bounded ``read``-only view of an open binary file (for feeding
    a worker's ``("file", path, start, end)`` window to the grid driver
    in record-aligned pieces)."""

    def __init__(self, handle, remaining: int):
        self._handle = handle
        self._remaining = remaining

    def read(self, size: int = -1) -> bytes:
        if self._remaining <= 0:
            return b""
        if size is None or size < 0 or size > self._remaining:
            size = self._remaining
        data = self._handle.read(size)
        self._remaining -= len(data)
        return data


def _window_feed(window, discipline, chunk_bytes: int):
    """Record-aligned ``(bytes, absolute offset)`` spans for one
    parallel worker window, or None for window shapes the grid driver
    cannot feed."""
    if window[0] == "bytes":
        _tag, chunk, offset = window
        return iter([(bytes(chunk), offset)])
    if window[0] == "file":
        _tag, path, start, end = window
        from .parallel import _stream_chunks

        def spans():
            with open(path, "rb") as handle:
                handle.seek(start)
                reader = _RangeReader(handle, end - start)
                for buf, off in _stream_chunks(reader, discipline,
                                               chunk_bytes):
                    yield buf, start + off

        return spans()
    return None


def window_records(description, window, type_name: str, mask=None, *,
                   chunk_bytes: int = BATCH_BYTES
                   ) -> Optional[Iterator[Tuple[object, Pd]]]:
    """Batch twin of one parallel worker window: the ``(rep, pd)``
    stream with *chunk-local* record indices (the parent reduce rebases
    them, exactly as for cursor workers) and absolute byte offsets.
    Returns None when the description, mask or window shape must stay
    on the cursor path."""
    if not batch_gate(description, type_name, mask).eligible:
        return None
    feed = _window_feed(window, description.discipline, chunk_bytes)
    if feed is None:
        return None
    width, kernel = _kernel_for(description, type_name)
    stride, term = _geometry(description.discipline, width)
    return chain.from_iterable(
        _drive(description, feed, type_name, mask, width, stride, term,
               kernel))


def window_count(description, window) -> Optional[int]:
    """Batch twin of one worker's record count: pure discipline
    arithmetic over the window, or None to keep the cursor path."""
    if not batch_gate(description).eligible:
        return None
    disc = description.discipline
    if isinstance(disc, FixedWidthRecords):
        width = disc.width
        if window[0] == "bytes":
            return -(-len(window[1]) // width)
        if window[0] == "file":
            _tag, _path, start, end = window
            return -(-(end - start) // width)
        return None
    if window[0] == "bytes":
        buf = window[1]
    elif window[0] == "file":
        _tag, path, start, end = window
        with open(path, "rb") as handle:
            handle.seek(start)
            buf = handle.read(end - start)
    else:
        return None
    if not buf:
        return 0
    total = buf.count(b"\n")
    if buf[-1] != 0x0A:
        total += 1  # unterminated final record
    return total


# -- public entry points -------------------------------------------------------


def records_batch(description, data, type_name: str, mask=None, *,
                  strict: bool = False,
                  chunk_bytes: int = BATCH_BYTES
                  ) -> Iterator[Tuple[object, Pd]]:
    """Batch twin of ``description.records``: yields the identical
    ``(rep, pd)`` stream, parsing eligible input grid-at-a-time.

    Falls back to the cursor engine — silently, like the parallel
    driver — when the description, discipline, mask or input shape is
    outside the batch subset; ``strict=True`` raises
    :class:`~repro.core.errors.PadsError` instead (the ``--engine
    batch`` contract), at call time.
    """
    gate = batch_gate(description, type_name, mask)
    reason = None if gate.eligible else gate.reason
    feed = None
    if reason is None:
        feed = _feed(data, description.discipline, chunk_bytes)
        if feed is None:
            reason = (f"cannot feed {type(data).__name__!r} to the grid "
                      "driver (need bytes, a path or a readable stream)")
    if reason is not None:
        if strict:
            raise PadsError(f"batch engine: {type_name}: {reason}")
        return description.records(_serial_input(description, data),
                                   type_name, mask)
    width, kernel = _kernel_for(description, type_name)
    stride, term = _geometry(description.discipline, width)
    # Flattening windows with ``chain`` keeps per-record iteration at C
    # speed; a ``yield from`` here would put a Python-level generator
    # frame back on every record.
    return chain.from_iterable(
        _drive(description, feed, type_name, mask, width, stride, term,
               kernel))


def count_records_batch(description, data, *, strict: bool = False,
                        chunk_bytes: int = BATCH_BYTES) -> int:
    """Batch twin of ``count_records``: pure discipline arithmetic —
    terminator counting (newline records) or size division (fixed-width
    records) over record-aligned spans, no field parsing at all."""
    disc = description.discipline
    gate = batch_gate(description)
    reason = None if gate.eligible else gate.reason
    feed = None
    if reason is None:
        feed = _feed(data, disc, chunk_bytes)
        if feed is None:
            reason = (f"cannot feed {type(data).__name__!r} to the grid "
                      "driver (need bytes, a path or a readable stream)")
    if reason is not None:
        if strict:
            raise PadsError(f"batch engine: count_records: {reason}")
        return description.count_records(_serial_input(description, data))
    obs = observe.CURRENT
    total = 0
    if isinstance(disc, FixedWidthRecords):
        width = disc.width
        for buf, _ in feed:
            # Interior spans are record-aligned; only the final span may
            # end mid-record, which counts as one (short) record.
            total += -(-len(buf) // width)
            if obs is not None:
                observe.count("batch.bytes", n=len(buf))
        return total
    last = 0x0A
    seen = False
    for buf, _ in feed:
        if buf:
            total += buf.count(b"\n")
            last = buf[-1]
            seen = True
            if obs is not None:
                observe.count("batch.bytes", n=len(buf))
    if seen and last != 0x0A:
        total += 1  # unterminated final record
    return total
