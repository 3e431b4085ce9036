"""``repro.execute`` — one execution planner for the record-at-a-time tools.

The paper's tools are small programs over the generated library's
record-at-a-time entry point (Sections 4, 5.2–5.3): the accumulator,
the formatter, the XML converter and the record counter.  This module
describes each of them once, as an *op* over a description and an
input, and decides in one place which engine runs it::

    from repro.execute import ExecOptions, run

    res = run(desc, pathlib.Path("big.log"), "accum", "entry_t",
              ExecOptions(jobs=4))
    print(res.mode, res.reason)          # parallel --jobs 4: ...
    print(res.acc.full_report(), res.tally.records)

Ops:

* ``"records"`` — ``Result.pairs``, the ``(rep, pd)`` stream in input
  order (lazy: consume it to run the parse);
* ``"accum"`` — ``Result.acc`` / ``header_acc`` / ``tally``;
* ``"count"`` — ``Result.count`` (record discipline only, no fields).

Inputs: ``bytes``/``str`` (in memory), an :class:`os.PathLike` (a file),
any readable binary object (a pipe, ``sys.stdin.buffer``), or an open
:class:`~repro.core.io.Source` (read in place by the cursor).

:func:`choose_engine` is the only place an execution mode is chosen.
It composes the engines' own predicates —
:func:`repro.batch.batch_gate` and :func:`repro.parallel.split_gate` —
and every invalid flag combination raises :class:`PadsError` from here.
The decision table is in ``docs/ARCHITECTURE.md``.  Engines import
lazily, so ``import repro`` never loads ``durable`` or ``serve``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .core.errors import ErrorTally, PadsError
from .core.io import Source
from .tools.accum import (DEFAULT_TRACKED, Accumulator, fold_records,
                          header_accumulator, record_accumulator)

__all__ = ["ExecOptions", "Choice", "Result", "OPS", "choose_engine", "run",
           "open_input"]

OPS = ("records", "accum", "count")


@dataclass(frozen=True)
class ExecOptions:
    """How to run an op: exactly the ``padsc`` execution flags.

    ``follow`` is None (read to EOF), negative (tail forever) or the
    idle seconds after which a tail stops.  ``checkpoint`` is None (no
    checkpoints), a positive record interval, or any other int for the
    default interval.  ``engine`` is ``auto``, ``batch`` or ``cursor``.
    """

    jobs: int = 1
    window: Optional[int] = None
    follow: Optional[float] = None
    checkpoint: Optional[int] = None
    resume: bool = False
    engine: str = "auto"

    def __post_init__(self):
        if self.jobs < 1:
            raise PadsError(f"--jobs {self.jobs} makes no sense; use N >= 1")
        if self.window is not None and self.window < 1:
            raise PadsError(f"--window {self.window} makes no sense; use a "
                            "positive byte count")
        if self.engine not in ("auto", "batch", "cursor"):
            raise PadsError(f"unknown engine {self.engine!r} (expected "
                            "auto, batch or cursor)")


class Choice(NamedTuple):
    """The mode :func:`choose_engine` picked — one of ``serial``,
    ``stream``, ``batch``, ``parallel``, ``parallel-stream``,
    ``durable`` — and why."""

    mode: str
    reason: str


@dataclass
class Result:
    """What :func:`run` returns for every op and mode.  ``pairs`` is set
    for ``records``, ``acc``/``header_acc``/``tally`` for ``accum``
    (``tally.records`` is the record count), ``count`` for ``count``."""

    mode: str
    reason: str
    pairs: Optional[Iterator] = None
    acc: Optional[Accumulator] = None
    header_acc: Optional[Accumulator] = None
    tally: Optional[ErrorTally] = None
    count: Optional[int] = None


def _kind(data) -> str:
    if isinstance(data, Source):
        return "source"
    if isinstance(data, (bytes, bytearray, str)):
        return "memory"
    if isinstance(data, os.PathLike):
        return "file"
    return "stream"


def choose_engine(desc, data, op: str, record_type: Optional[str] = None,
                  options: ExecOptions = ExecOptions(), *,
                  header: Optional[str] = None) -> Choice:
    """Pick the mode that runs ``op`` over ``data``.

    In order: ``checkpoint``/``resume`` → ``durable``; ``jobs > 1`` →
    ``parallel`` (file or in-memory input) or ``parallel-stream`` (a
    live stream), unless :func:`repro.parallel.split_gate` pins the run
    to one core; then ``batch`` when :func:`repro.batch.batch_gate`
    allows and nothing else needs the cursor (``engine='cursor'``,
    ``follow``, an accum ``header``, an open Source); otherwise the
    cursor, ``stream`` (sliding window) for streams and tails and
    ``serial`` for the rest.  Invalid combinations raise
    :class:`PadsError`.
    """
    if op not in OPS:
        raise PadsError(f"unknown op {op!r} (expected one of {OPS})")
    o = options
    kind = _kind(data)
    follow = o.follow is not None
    header = header if op == "accum" else None
    if o.checkpoint is not None or o.resume:
        if kind != "file":
            raise PadsError("--checkpoint/--resume need a seekable file, "
                            "not " + ("stdin" if kind == "stream"
                                      else f"{kind} input"))
        if follow:
            raise PadsError("--follow tails an unbounded stream and cannot "
                            "be checkpointed; drop one of the two")
        if o.engine == "batch":
            raise PadsError("--engine batch has no mid-grid cursor to "
                            "checkpoint; use --engine auto or cursor")
        if header is not None:
            raise PadsError("--header needs a serial prefix parse and "
                            "cannot be combined with --checkpoint/--resume")
        return Choice("durable", "--resume: continue from the last valid "
                      "checkpoint" if o.resume
                      else "--checkpoint: atomic resume checkpoints")
    if o.jobs > 1 and o.engine == "cursor":
        raise PadsError("--engine cursor pins the serial cursor loop and "
                        "cannot be combined with --jobs")
    if o.jobs > 1 and o.engine == "batch":
        # Without this, --jobs would win and the forced batch engine be
        # silently ignored: every invalid combination is a diagnostic.
        raise PadsError("--engine batch runs the in-process columnar "
                        "kernels and cannot be combined with --jobs; drop "
                        "one of the two")
    pinned = None
    if o.jobs > 1:
        if follow:
            raise PadsError("--follow tails an unbounded stream and cannot "
                            "be combined with --jobs; drop one of the two")
        if kind == "stream" and header is not None:
            raise PadsError("--header needs a serial prefix parse and "
                            "cannot be combined with --jobs on stdin")
        from .parallel import split_gate
        why = ("an open Source is read in place" if kind == "source"
               else split_gate(desc, stream=kind == "stream"))
        if why is None:
            if kind == "stream":
                return Choice("parallel-stream", f"--jobs {o.jobs}: chunks "
                              "pipelined into the pool as the stream "
                              "delivers them")
            return Choice("parallel", f"--jobs {o.jobs}: record-aligned "
                          "chunks map-reduced over the pool")
        pinned = f"--jobs {o.jobs} stays on one core: {why}"
    if o.engine == "cursor":
        reason = "--engine cursor"
    else:
        from .batch import batch_gate
        gate = batch_gate(desc, None if op == "count" else record_type)
        reason = pinned or (None if gate.eligible else gate.reason)
        if reason is None and follow:
            reason = "--follow tails an unbounded stream (cursor only)"
        if reason is None and kind == "source":
            reason = "an open Source has no grid feed (cursor only)"
        if o.engine == "batch":
            if reason is not None:
                raise PadsError(f"--engine batch: {reason}")
            if header is not None:
                raise PadsError("--header needs a serial prefix parse; use "
                                "--engine cursor")
        elif reason is None and header is not None:
            reason = "--header needs a serial prefix parse"
        if reason is None:
            return Choice("batch", gate.reason)
    return Choice("stream" if follow or kind == "stream" else "serial",
                  reason)


def open_input(desc, data, options: ExecOptions = ExecOptions()) -> Source:
    """The cursor's Source for ``data``: a sliding-window
    :class:`~repro.core.io.StreamSource` for streams and ``follow``
    tails (O(window) memory, no slurp), ``Source.from_file`` for files,
    ``desc.open`` for in-memory data and open Sources."""
    kind = _kind(data)
    if options.follow is not None or kind == "stream":
        from .stream import open_stream
        follow = options.follow
        return open_stream(data, desc.discipline, window=options.window,
                           follow=follow is not None,
                           idle_timeout=None if follow is None or follow < 0
                           else follow, limits=desc.limits)
    if kind == "file":
        return desc.open_file(os.fspath(data))
    return desc.open(data)


def _closing(pairs, src: Source):
    try:
        yield from pairs
    finally:
        src.close()


def run(desc, data, op: str, record_type: Optional[str] = None,
        options: ExecOptions = ExecOptions(), *,
        header: Optional[str] = None, tracked: int = DEFAULT_TRACKED,
        summaries: bool = False, on_record=None) -> Result:
    """Run ``op`` over ``data`` on the mode :func:`choose_engine` picks.

    ``header`` (accum only) names a header type parsed once before the
    records; ``tracked`` bounds the distinct values each accumulator
    keeps; ``summaries`` attaches streaming histograms/quantiles.
    ``on_record(pd, tally)`` runs after every record an in-process
    accum folds (serial, stream, batch); raising from it ends the run
    there.  Map-reduce and checkpointed modes fold in their own workers.
    """
    mode, reason = choose_engine(desc, data, op, record_type, options,
                                 header=header)
    out = Result(mode, reason)
    jobs = options.jobs
    if mode == "durable":
        from . import durable
        opts = {"resume": options.resume, "jobs": jobs,
                "interval": options.checkpoint
                if options.checkpoint is not None and options.checkpoint > 0
                else durable.DEFAULT_CHECKPOINT_INTERVAL}
        if options.window is not None:
            opts.update(engine="stream", window=options.window)
        if op == "count":
            out.count = durable.count_records_durable(desc, data, **opts)
        elif op == "accum":
            out.acc, out.tally = durable.accumulate_durable(
                desc, data, record_type, tracked=tracked,
                summaries=summaries, **opts)
        else:
            out.pairs = durable.records_durable(desc, data, record_type,
                                                **opts)
        return out
    if mode == "parallel":
        from . import parallel
        if op == "count":
            out.count = parallel.parallel_count(desc, data, jobs=jobs)
        elif op == "accum":
            out.acc, out.header_acc, out.tally = \
                parallel.parallel_accumulate(
                    desc, data, record_type, jobs=jobs, tracked=tracked,
                    header_type=header, summaries=summaries)
        else:
            out.pairs = parallel.parallel_records(desc, data, record_type,
                                                  jobs=jobs)
        return out
    if mode == "parallel-stream":
        from . import parallel
        if op == "count":
            out.count = parallel.parallel_count_stream(desc, data, jobs=jobs)
        elif op == "accum":
            out.acc, out.tally = parallel.parallel_accumulate_stream(
                desc, data, record_type, jobs=jobs, tracked=tracked,
                summaries=summaries)
        else:
            out.pairs = parallel.parallel_records_stream(
                desc, data, record_type, jobs=jobs)
        return out
    if mode == "batch":
        from . import batch
        if op == "count":
            out.count = batch.count_records_batch(desc, data, strict=True)
            return out
        pairs = batch.records_batch(desc, data, record_type, strict=True)
    else:
        src = open_input(desc, data, options)
        owned = _kind(data) in ("file", "stream")
        if op == "count":
            try:
                out.count = desc.count_records(src)
            finally:
                if owned:
                    src.close()
            return out
        if op == "accum" and header is not None:
            out.header_acc = header_accumulator(desc, src, header, tracked)
        pairs = desc.records(src, record_type)
        if owned:
            pairs = _closing(pairs, src)
    if op == "records":
        out.pairs = pairs
    else:
        out.acc = record_accumulator(desc, record_type, tracked, summaries)
        out.tally = fold_records(out.acc, pairs, on_record)
    return out
