"""``repro.durable`` — crash-safe checkpoint/resume and the persistent
record-boundary index.

The paper's headline workloads are long passes over archival feeds (the
2.2 GB Sirius dataset); a killed process used to throw away every parsed
byte, and every run re-discovered record boundaries from scratch.  This
module makes long runs *durable*:

* **Record-boundary index** (``<data>.padsidx``).  Sealed-record start
  offsets sampled every ``index_interval`` records, written as a cheap
  side effect of any full pass (one attribute test per record in
  :meth:`repro.core.io.Source.end_record`).  The file binds itself to
  its source (size, mtime, content-prefix CRC) and every line carries a
  CRC32, so a stale, torn or truncated index is *rejected* — the caller
  falls back to a full scan, never to wrong answers.  A valid index
  gives O(1) seek to record N (:func:`seek_record` /
  :func:`open_at_record`) and scan-free parallel chunk planning
  (:func:`plan_chunks_indexed`) — including for record disciplines that
  cannot be split by scanning at all (length-prefixed records).

* **Checkpointed runs** (``<data>.padsckpt``).  The durable driver
  (:func:`drive`, the ``durable`` mode of :func:`repro.execute.run`)
  runs any :class:`~repro.execute.Fold` and periodically persists an
  atomic checkpoint — tmp file + fsync + rename — holding the resume
  offset, the records done, the fold's mergeable state and the metrics
  registry.  After a crash (SIGKILL included; see the
  kill-resume scenario in :mod:`repro.faults`) the same call with
  ``resume=True`` continues mid-file and produces final reports,
  error totals and observe metrics identical to an uninterrupted run.
  A checkpoint that fails its CRC or no longer matches the source file
  is rejected (``checkpoint.rejected``) and the run simply starts over.

Formats, invalidation rules and resume semantics are documented in
``docs/ROBUSTNESS.md``; the ``checkpoint.*`` / ``index.*`` metrics in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from bisect import bisect_left
from contextlib import contextmanager
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from . import observe
from .core.errors import PadsError
from .core.io import (MIN_CHUNK_BYTES, RecordDiscipline, Source, StreamSource,
                      tile_chunks)
from .observe.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_INDEX_INTERVAL", "DEFAULT_CHECKPOINT_INTERVAL",
    "INDEX_SUFFIX", "CHECKPOINT_SUFFIX",
    "BoundaryIndex", "IndexBuilder",
    "index_path_for", "checkpoint_path_for",
    "build_index", "load_index", "write_index",
    "seek_record", "open_at_record", "plan_chunks_indexed",
    "indexed_file_chunks", "drive",
]

#: Sample a record-start offset every this many records.  ~8 bytes of
#: JSON per sample: the paper's 11.8M-record file indexes in ~100 KB.
DEFAULT_INDEX_INTERVAL = 1000

#: Persist a checkpoint every this many records (serial/stream paths;
#: the parallel path checkpoints after every reduced chunk).  Chosen so
#: checkpoint cost stays well under 5% of parse throughput
#: (``benchmarks/bench_durable.py`` gates this).
DEFAULT_CHECKPOINT_INTERVAL = 10_000

INDEX_SUFFIX = ".padsidx"
CHECKPOINT_SUFFIX = ".padsckpt"

#: Bytes of the source file hashed into the binding.  A prefix (not the
#: whole file) keeps binding O(1); size+mtime changes catch appends.
_PREFIX_LEN = 1 << 16

_INDEX_MAGIC = "padsidx"
_INDEX_VERSION = 1
_CKPT_MAGIC = b"PADSCKPT1\n"
_CKPT_VERSION = 3  # bumped when the checkpoint payload layout changes

#: Test hook: raise :class:`_InjectedCrash` once this many records (or,
#: on the parallel path, chunks) have been processed — *after* any
#: checkpoint due at that point was written.  Simulates a hard kill
#: deterministically; the real-SIGKILL scenario lives in
#: :mod:`repro.faults`.
_CRASH_AFTER: Optional[int] = None


class _InjectedCrash(BaseException):
    """Simulated hard crash (BaseException so no handler under test can
    absorb it the way a real SIGKILL cannot be absorbed)."""


# -- source binding -----------------------------------------------------------


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def source_binding(path: str) -> dict:
    """Fingerprint ``path`` so durable artifacts can prove they still
    describe it: size, mtime and a CRC of the leading bytes."""
    st = os.stat(path)
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX_LEN)
    return {
        "size": st.st_size,
        "mtime_ns": st.st_mtime_ns,
        "prefix_len": len(prefix),
        "prefix_crc32": _crc(prefix),
    }


def _binding_matches(binding: dict, path: str) -> bool:
    try:
        current = source_binding(path)
    except OSError:
        return False
    return current == binding


def _discipline_sig(discipline: RecordDiscipline) -> dict:
    """The discipline parameters a boundary offset depends on.  An index
    built under a different discipline yields offsets that are not
    boundaries at all, so it must be rejected."""
    sig: dict = {"kind": type(discipline).__name__}
    for attr in ("width", "prefix", "byteorder", "inclusive"):
        if hasattr(discipline, attr):
            sig[attr] = getattr(discipline, attr)
    return sig


def _atomic_write(path: str, data: bytes) -> None:
    """tmp file + fsync + rename: a reader sees the old artifact or the
    complete new one, never a torn write."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# -- the record-boundary index -------------------------------------------------


def index_path_for(path: str) -> str:
    return os.fspath(path) + INDEX_SUFFIX


def checkpoint_path_for(path: str) -> str:
    return os.fspath(path) + CHECKPOINT_SUFFIX


@dataclass
class BoundaryIndex:
    """A loaded, validated ``.padsidx``.

    ``offsets[k]`` is the byte offset where record ``k * interval``
    begins; ``offsets[0]`` is always 0.  ``records`` and ``size`` come
    from the footer, written only after a clean full pass.
    """

    interval: int
    discipline: dict
    binding: dict
    offsets: List[int]
    records: int
    size: int


class IndexBuilder:
    """Samples record boundaries during a pass; install as a
    :class:`~repro.core.io.Source`'s ``index_sink``.

    ``note(record_idx, next_start)`` is called at sealed-byte retirement
    (``end_record``) — the only per-record cost of building the index is
    one modulo.  ``state()``/``restore()`` round-trip the builder through
    a checkpoint so a crash-resumed run still finishes its index.
    """

    __slots__ = ("interval", "offsets", "records", "end")

    def __init__(self, interval: int = DEFAULT_INDEX_INTERVAL):
        self.interval = max(1, interval)
        self.offsets: List[int] = [0]
        self.records = 0
        self.end = 0

    def note(self, record_idx: int, next_start: int) -> None:
        n = record_idx + 1  # records sealed so far
        self.records = n
        self.end = next_start
        if n % self.interval == 0:
            self.offsets.append(next_start)
            observe.count("index.samples")

    def state(self) -> dict:
        return {"interval": self.interval, "offsets": list(self.offsets),
                "records": self.records, "end": self.end}

    @classmethod
    def restore(cls, state: dict) -> "IndexBuilder":
        builder = cls(state["interval"])
        builder.offsets = list(state["offsets"])
        builder.records = state["records"]
        builder.end = state["end"]
        return builder


def _index_lines(builder: IndexBuilder, discipline: RecordDiscipline,
                 binding: dict) -> List[dict]:
    return [
        {"magic": _INDEX_MAGIC, "version": _INDEX_VERSION,
         "interval": builder.interval,
         "discipline": _discipline_sig(discipline), "source": binding},
        {"offsets": builder.offsets},
        {"eof": True, "records": builder.records, "size": binding["size"]},
    ]


def write_index(path: str, builder: IndexBuilder,
                discipline: RecordDiscipline, *,
                out: Optional[str] = None) -> str:
    """Write ``builder``'s samples as ``<path>.padsidx`` (atomic).

    Each line is compact JSON + TAB + its own CRC32, so truncation or a
    flipped bit anywhere invalidates the artifact instead of skewing
    offsets."""
    binding = source_binding(path)
    lines = []
    for obj in _index_lines(builder, discipline, binding):
        body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        lines.append(f"{body}\t{_crc(body.encode('ascii')):08x}\n")
    target = out or index_path_for(path)
    _atomic_write(target, "".join(lines).encode("ascii"))
    observe.count("index.built")
    return target


def _reject_index(reason: str) -> None:
    observe.count("index.rejected")
    observe.count("index.rejected_reason", reason)


def load_index(path: str, discipline: Optional[RecordDiscipline] = None,
               *, index_path: Optional[str] = None) -> Optional[BoundaryIndex]:
    """Load and validate ``<path>.padsidx``.

    Returns None when no index exists (silently) or when one exists but
    fails any integrity or binding check (counted in ``index.rejected``):
    bad/missing CRC on any line, missing footer (torn write), version or
    magic mismatch, discipline mismatch, or a source file whose size,
    mtime or content prefix no longer match the binding.  Rejection is
    always safe — callers fall back to a full scan.
    """
    idx_file = index_path or index_path_for(path)
    try:
        with open(idx_file, "r", encoding="ascii") as handle:
            raw_lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError):
        if os.path.exists(idx_file):
            _reject_index("unreadable")
            return None
        return None
    parsed = []
    for raw in raw_lines:
        body, tab, crc_hex = raw.rpartition("\t")
        if not tab:
            _reject_index("format")
            return None
        try:
            if int(crc_hex, 16) != _crc(body.encode("ascii")):
                _reject_index("crc")
                return None
            parsed.append(json.loads(body))
        except (ValueError, UnicodeEncodeError):
            _reject_index("crc")
            return None
    if len(parsed) != 3 or not parsed[-1].get("eof"):
        _reject_index("torn")
        return None
    header, offsets_line, footer = parsed
    if header.get("magic") != _INDEX_MAGIC \
            or header.get("version") != _INDEX_VERSION:
        _reject_index("version")
        return None
    if discipline is not None \
            and header.get("discipline") != _discipline_sig(discipline):
        _reject_index("discipline")
        return None
    binding = header.get("source") or {}
    if not _binding_matches(binding, path):
        _reject_index("stale")
        return None
    offsets = offsets_line.get("offsets")
    if not isinstance(offsets, list) or not offsets or offsets[0] != 0 \
            or any(b < a for a, b in zip(offsets, offsets[1:])):
        _reject_index("offsets")
        return None
    return BoundaryIndex(interval=header["interval"],
                         discipline=header.get("discipline", {}),
                         binding=binding, offsets=offsets,
                         records=footer["records"], size=footer["size"])


def build_index(description, path: str, *,
                interval: int = DEFAULT_INDEX_INTERVAL,
                out: Optional[str] = None) -> Tuple[BoundaryIndex, str]:
    """Build an index with a record-discipline-only pass (no field
    parsing — the record-counting floor's cost).  Returns the loaded
    index and the path it was written to."""
    builder = IndexBuilder(interval)
    src = Source.from_file(os.fspath(path), description.discipline)
    src.index_sink = builder
    with src:
        deque(src.boundaries(), maxlen=0)
    target = write_index(os.fspath(path), builder, description.discipline,
                         out=out)
    idx = load_index(os.fspath(path), description.discipline,
                     index_path=target)
    assert idx is not None, "freshly written index failed validation"
    return idx, target


# -- index consumers: seek and chunk planning ----------------------------------


def seek_record(index: BoundaryIndex, n: int) -> Tuple[int, int]:
    """``(byte_offset, base_record)`` of the nearest sampled boundary at
    or before record ``n`` — at most ``interval - 1`` records of forward
    scan remain."""
    if n < 0:
        raise ValueError("record index must be >= 0")
    k = min(n // index.interval, len(index.offsets) - 1)
    return index.offsets[k], k * index.interval


def open_at_record(description, path: str, n: int,
                   index: Optional[BoundaryIndex] = None) -> Optional[Source]:
    """A :class:`Source` positioned exactly at record ``n`` via the
    index (O(1) seek + bounded scan), or None when no valid index exists
    or ``n`` is past the end.  ``record_idx`` is rebased so locations
    match a scan from the start."""
    idx = index or load_index(os.fspath(path), description.discipline)
    if idx is None or n >= idx.records:
        return None
    offset, base = seek_record(idx, n)
    src = Source.from_file(os.fspath(path), description.discipline,
                           limits=getattr(description, "limits", None),
                           start=offset)
    src.record_idx = base - 1
    if sum(1 for _ in islice(src.boundaries(), n - base)) < n - base:
        src.close()
        return None
    observe.count("index.hits")
    return src


def plan_chunks_indexed(index: BoundaryIndex, n_chunks: int,
                        min_chunk: int = MIN_CHUNK_BYTES,
                        start: int = 0) -> Optional[List[Tuple[int, int]]]:
    """Record-aligned ``(start, end)`` ranges tiling ``[start, size)``
    from sampled boundaries alone — no file IO.  The tiling of
    :func:`repro.core.io.plan_chunks` (:func:`~repro.core.io.tile_chunks`);
    cuts land on sampled boundaries, which is an equally valid
    record-aligned tiling."""
    size = index.binding["size"]
    offsets = index.offsets

    def boundary(offset: int) -> int:
        j = bisect_left(offsets, offset)
        return offsets[j] if j < len(offsets) else size
    return tile_chunks(start, size, n_chunks, min_chunk, boundary)


def indexed_file_chunks(path: str, discipline: RecordDiscipline,
                        n_chunks: int, min_chunk: int = MIN_CHUNK_BYTES,
                        start: int = 0) -> Optional[List[Tuple[int, int]]]:
    """Chunk plan for ``path`` from its persistent index, or None (no
    index, invalid index, or not worth splitting).  This is what lets
    the parallel engine skip boundary re-discovery — and split record
    disciplines that have no scannable boundaries at all."""
    index = load_index(path, discipline)
    if index is None:
        return None
    plan = plan_chunks_indexed(index, n_chunks, min_chunk, start)
    if plan is not None:
        observe.count("index.hits")
    return plan


# -- checkpoints ---------------------------------------------------------------


def _write_checkpoint(path: str, payload: dict) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    frame = b"".join([_CKPT_MAGIC, _crc(blob).to_bytes(4, "big"),
                      len(blob).to_bytes(8, "big"), blob])
    observe.count("checkpoint.writes")
    _atomic_write(path, frame)


def _reject_checkpoint(reason: str) -> None:
    observe.count("checkpoint.rejected")
    observe.count("checkpoint.rejected_reason", reason)


def _load_checkpoint(path: str) -> Optional[dict]:
    try:
        with open(path, "rb") as handle:
            frame = handle.read()
    except OSError:
        return None
    head = len(_CKPT_MAGIC)
    if not frame.startswith(_CKPT_MAGIC) or len(frame) < head + 12:
        _reject_checkpoint("format")
        return None
    crc = int.from_bytes(frame[head:head + 4], "big")
    length = int.from_bytes(frame[head + 4:head + 12], "big")
    blob = frame[head + 12:]
    if len(blob) != length or _crc(blob) != crc:
        _reject_checkpoint("crc")
        return None
    try:
        payload = pickle.loads(blob)
    except Exception:
        _reject_checkpoint("unpicklable")
        return None
    if not isinstance(payload, dict) or payload.get("version") != _CKPT_VERSION:
        _reject_checkpoint("version")
        return None
    return payload


# -- durable runs ----------------------------------------------------------------


@dataclass
class _RunState:
    """Everything a durable run persists between crashes: where to
    continue, how many records are done, and the fold's state."""

    op: str
    record_type: Optional[str]
    binding: dict
    fold: object = None           # the fold's partial result so far
    offset: int = 0               # serial/stream resume offset
    records_done: int = 0
    total_errors: int = 0         # Source.total_errors (max_errors budget)
    metrics: Optional[MetricsRegistry] = None
    windows: Optional[list] = None   # parallel chunk plan (pinned on resume)
    chunks_done: int = 0
    index_builder: Optional[dict] = None

    def payload(self) -> dict:
        return dict(vars(self), version=_CKPT_VERSION)


def _resume_state(ckpt_path: str, fold, binding: dict) -> Optional[_RunState]:
    """The checkpointed state to continue from, or None (no checkpoint,
    or one that failed validation — the run starts over either way)."""
    payload = _load_checkpoint(ckpt_path)
    if payload is None:
        return None
    if (payload.get("op"), payload.get("record_type")) != \
            (fold.op, fold.record_type):
        _reject_checkpoint("mode")
        return None
    if payload.get("binding") != binding:
        _reject_checkpoint("stale")
        return None
    del payload["version"]
    state = _RunState(**payload)
    observe.count("checkpoint.resumes")
    observe.count("checkpoint.records_skipped", n=state.records_done)
    return state


@contextmanager
def _metered(restored: Optional[MetricsRegistry]):
    """Run the durable loop under its own child registry so metric state
    can be checkpointed; merge into the enclosing observer at clean
    completion.  No observer active -> no metering (yields None)."""
    parent = observe.CURRENT
    if parent is None:
        yield None
        return
    with observe.observed(metrics=restored or MetricsRegistry()) as obs:
        yield obs
    parent.metrics.merge(obs.metrics)


def _open_resume_source(description, path: str, offset: int,
                        window: Optional[int]) -> Source:
    """The cursor at ``offset``: a sliding ``window`` when one is given,
    ``Source.from_file`` otherwise."""
    limits = getattr(description, "limits", None)
    if window is not None:
        return StreamSource(open(path, "rb"), description.discipline,
                            window=window, limits=limits, owns_stream=True,
                            start=offset)
    return Source.from_file(path, description.discipline, start=offset,
                            limits=limits)


def _maybe_crash(done: int) -> None:
    if _CRASH_AFTER is not None and done >= _CRASH_AFTER:
        raise _InjectedCrash(f"injected crash after {done}")


def _ticking(items, tick):
    """``items``, calling ``tick()`` once the consumer is done with each."""
    for item in items:
        yield item
        tick()


def drive(description, path, fold, *, checkpoint=True,
          interval: int = DEFAULT_CHECKPOINT_INTERVAL,
          resume: bool = False, jobs: int = 1,
          window: Optional[int] = None, build_index: bool = True,
          index_interval: int = DEFAULT_INDEX_INTERVAL):
    """The durable driver: ``fold`` over the file at ``path`` with
    periodic atomic checkpoints.  Returns the fold's final state; for
    ``records``, the lazy pair stream (a resumed run yields only the
    records after the last checkpoint — the suffix an interrupted
    ``padsc fmt/xml --resume`` still needs to emit).

    The fold runs in process — a sliding ``window`` when one is given,
    ``Source.from_file`` otherwise — checkpointing every ``interval``
    records, or through :func:`repro.parallel.fold_windows` with
    ``jobs > 1``, checkpointing after every merged window.

    ``checkpoint`` is True (default path: ``<path>.padsckpt``), a path,
    or None to run the same loop without persistence.  ``resume=True``
    continues from a valid checkpoint — final reports, error accounting
    and observe parse metrics are identical to an uninterrupted run
    (``tests/test_durable.py`` pins this per gallery description; the
    same caveats as the parallel engine apply to ``summaries`` and
    value tables past ``tracked``).  A missing/corrupt/stale checkpoint
    is counted in ``checkpoint.rejected`` and the run starts over.
    ``fold.mask`` is not checkpointed: pass the same mask when resuming.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise PadsError(f"durable runs need a seekable file, not {path!r}")
    cur = observe.CURRENT
    if cur is not None and cur.tracer is not None:
        jobs = 1  # tracing pins the serial path (complete event stream)
    interval = max(1, interval)
    binding = source_binding(path)
    ckpt_path = None
    if checkpoint or resume:
        ckpt_path = checkpoint if isinstance(checkpoint, str) \
            else checkpoint_path_for(path)
    state = None
    if resume and ckpt_path is not None:
        state = _resume_state(ckpt_path, fold, binding)
    resumed = state is not None
    if resumed:
        # Unpickled accumulators only merge: fold on into a live one.
        state.fold = fold.merge(fold.zero(description), state.fold)
    else:
        state = _RunState(fold.op, fold.record_type, binding,
                          fold=fold.zero(description))
    # Side-effect index: built when asked for, unless a valid one
    # already exists.  A resumed run continues its builder from the
    # checkpoint; a resumed run whose checkpoint predates the flag
    # (builder is None but records were done) cannot sample the
    # skipped prefix and skips building.
    have_index = load_index(path, description.discipline) is not None
    if build_index and not have_index and not resumed:
        state.index_builder = IndexBuilder(index_interval).state()
    steps = _steps(description, path, fold, state, ckpt_path, interval,
                   jobs, window)
    if fold.op == "records":
        return steps
    deque(steps, maxlen=0)
    return state.fold


def _steps(description, path: str, fold, st: _RunState,
           ckpt_path: Optional[str], interval: int, jobs: int,
           window: Optional[int]) -> Iterator:
    """The durable loop: yields the ``records`` fold's pairs; folds the
    others into ``st.fold``.  Publishes the side-effect index and drops
    the checkpoint on clean completion."""
    with _metered(st.metrics) as obs:
        src = builder = None

        def save() -> None:
            if src is not None:
                st.offset, st.total_errors = src.pos, src.total_errors
            if builder is not None:
                st.index_builder = builder.state()
            st.metrics = obs.metrics if obs is not None else None
            if ckpt_path is not None:
                _write_checkpoint(ckpt_path, st.payload())

        windows = _plan(description, path, st, jobs, window)
        if windows is not None:
            from .parallel import fold_windows

            def on_part(done: int) -> None:
                st.records_done = done
                st.chunks_done += 1
                st.offset = windows[st.chunks_done - 1][3]
                save()
                _maybe_crash(st.chunks_done)

            out = fold_windows(description, fold, windows[st.chunks_done:],
                               jobs, st.fold, base=st.records_done,
                               on_part=on_part)
            if fold.op == "records":
                yield from out
        else:
            src = _open_resume_source(description, path, st.offset, window)
            # Rebase so record indices in locations and metrics continue
            # the pre-crash numbering.
            src.record_idx = st.records_done - 1
            src.total_errors = st.total_errors
            if st.index_builder is not None:
                builder = src.index_sink = IndexBuilder.restore(
                    st.index_builder)

            def tick() -> None:
                st.records_done += 1
                if st.records_done % interval == 0:
                    save()
                _maybe_crash(st.records_done)

            with src:
                items = _ticking(fold.items(description, src, st.fold),
                                 tick)
                if fold.op == "records":
                    yield from items
                else:
                    fold.feed(st.fold, items)
            if builder is not None:
                st.index_builder = builder.state()
    if st.index_builder is not None:
        write_index(path, IndexBuilder.restore(st.index_builder),
                    description.discipline)
    if ckpt_path is not None:
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass


def _plan(description, path: str, st: _RunState, jobs: int,
          window: Optional[int]) -> Optional[list]:
    """The (resume-pinned) parallel window list, or None for the
    in-process loop.  Planning prefers the persistent index; the plan is
    stored in the checkpoint so a resumed run re-reduces the exact same
    chunks."""
    if jobs <= 1 or window is not None:
        return None
    if st.windows is not None:
        return st.windows
    if st.records_done:
        return None  # resumed mid-serial-pass: stay serial
    from pathlib import Path
    from .parallel import _plan_windows
    windows = _plan_windows(description, Path(path), jobs)
    if isinstance(windows, list):
        # Chunked workers sample no boundaries; the index side effect is
        # the serial/stream passes' job.
        st.windows, st.index_builder = windows, None
    return st.windows
