"""``repro.execute`` — one execution planner for the record-at-a-time tools.

The paper's tools are small programs over the generated library's
record-at-a-time entry point (Sections 4, 5.2–5.3): the accumulator,
the vetter, the formatter, the XML converter and the record counter.
This module names each of them once, as a :class:`Fold` over the record
stream, decides in one place which engine runs it, and hands the fold
to that mode's *driver*::

    from repro.execute import ExecOptions, run

    res = run(desc, pathlib.Path("big.log"), "accum", "entry_t",
              ExecOptions(jobs=4))
    print(res.mode, res.reason)          # parallel --jobs 4: ...
    print(res.acc.full_report(), res.tally.records)

Ops (one fold each):

* ``"records"`` — ``Result.pairs``, the ``(rep, pd)`` stream in input
  order (lazy: consume it to run the parse);
* ``"accum"`` — ``Result.acc`` / ``header_acc`` / ``tally``;
* ``"tally"`` — ``Result.tally`` (the vetter: error accounting only);
* ``"count"`` — ``Result.count`` (record discipline only, no fields).

Drivers (:data:`DRIVERS`, one per mode): the in-process driver
(``serial``, ``stream``) feeds the fold the record loop's pair
iterator; :func:`repro.parallel.drive` (``parallel``,
``parallel-stream``) folds record-aligned windows on a worker pool and
merges the partial results in input order; :func:`repro.durable.drive`
(``durable``) runs either of those and checkpoints ``(offset, records
done, fold state)``.

Inputs: ``bytes``/``str`` (in memory), an :class:`os.PathLike` (a file),
any readable binary object (a pipe, ``sys.stdin.buffer``), or an open
:class:`~repro.core.io.Source` (read in place by the cursor).

:func:`choose_engine` is the only place an execution mode is chosen.
It composes :func:`repro.parallel.split_gate`, and every invalid flag
combination raises :class:`PadsError` from here.  Every mode runs the
one record loop, whose grid block step is decided per pass
(:meth:`~repro.core.api.CompiledDescription.grid`); the mode's reason
quotes that decision.  The decision table is in
``docs/ARCHITECTURE.md``.  Engines import lazily, so ``import
repro.execute`` never loads ``durable`` or ``serve``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from . import observe
from .core.errors import ErrorTally, PadsError
from .core.io import Source
from .core.limits import fastpath_applies
from .core.masks import Mask, P_CheckAndSet
from .plan.ir import Verdict
from .tools.accum import (COUNTED, DEFAULT_TRACKED, Accumulator,
                          header_accumulator, record_accumulator)

__all__ = ["ExecOptions", "Choice", "Result", "Fold", "OPS", "DRIVERS",
           "choose_engine", "step_reason", "count_step", "accum_text", "run",
           "open_input", "fold_cursor"]

OPS = ("records", "accum", "tally", "count")


@dataclass(frozen=True)
class ExecOptions:
    """How to run an op: exactly the ``padsc`` execution flags.

    ``follow`` is None (read to EOF), negative (tail forever) or the
    idle seconds after which a tail stops.  ``checkpoint`` is None (no
    checkpoints), a positive record interval, or any other int for the
    default interval.
    """

    jobs: int = 1
    window: Optional[int] = None
    follow: Optional[float] = None
    checkpoint: Optional[int] = None
    resume: bool = False

    def __post_init__(self):
        if self.jobs < 1:
            raise PadsError(f"--jobs {self.jobs} makes no sense; use N >= 1")
        if self.window is not None and self.window < 1:
            raise PadsError(f"--window {self.window} makes no sense; use a "
                            "positive byte count")


class Choice(NamedTuple):
    """The mode :func:`choose_engine` picked — one of ``serial``,
    ``stream``, ``parallel``, ``parallel-stream``, ``durable`` — and
    why, including whether the record loop's grid block step runs."""

    mode: str
    reason: str


@dataclass
class Result:
    """What :func:`run` returns for every op and mode.  ``pairs`` is set
    for ``records``, ``acc``/``header_acc``/``tally`` for ``accum``
    (``tally.records`` is the record count), ``tally`` for ``tally``,
    ``count`` for ``count``."""

    mode: str
    reason: str
    pairs: Optional[Iterator] = None
    acc: Optional[Accumulator] = None
    header_acc: Optional[Accumulator] = None
    tally: Optional[ErrorTally] = None
    count: Optional[int] = None




# -- the fold ------------------------------------------------------------------


@dataclass(frozen=True)
class Fold:
    """An op as a fold over the record stream, named once for every
    driver.

    Its partial result (*state*) is a list of ``(rep, pd)`` pairs for
    ``records``, an ``(Accumulator, ErrorTally)`` pair for ``accum``, and
    an :class:`ErrorTally` for ``tally`` and ``count`` (a count moves
    only ``records``).  A part folded from one window numbers its records
    from 0: :meth:`rebase` shifts it past the records before it,
    :meth:`merge` appends it, :meth:`size` says how many records it
    holds.  Picklable: the parallel driver ships it with every window.
    """

    op: str
    record_type: Optional[str] = None
    mask: Optional[Mask] = None
    tracked: int = DEFAULT_TRACKED
    summaries: bool = False

    def zero(self, desc):
        """The empty partial result."""
        if self.op == "accum":
            return (record_accumulator(desc, self.record_type, self.tracked,
                                       self.summaries), ErrorTally())
        return [] if self.op == "records" else ErrorTally()

    def items(self, desc, src: Source, state) -> Iterator:
        """What the fold consumes at cursor ``src`` into ``state``:
        ``(rep, pd)`` pairs, or bare record boundaries for ``count``.
        For ``accum`` the record step counts each clean record into the
        state's accumulator where :func:`count_step` says so, and yields
        :data:`~repro.tools.accum.COUNTED` for it."""
        if self.op == "count":
            return src.boundaries()
        if self.op == "accum":
            _verdict, fast = count_step(desc, self.record_type, state[0],
                                        self.mask, src.limits, src.discipline)
            if fast is not None:
                return desc.records(src, self.record_type, self.mask,
                                    fast=fast)
        return desc.records(src, self.record_type, self.mask)

    def feed(self, state, items, on_record=None):
        """Fold ``items`` into ``state`` in one loop and return it.
        ``on_record(pd, tally)`` runs after each record of an ``accum``;
        an exception it raises ends the fold there."""
        op = self.op
        if op == "accum":
            acc, tally = state
            for rep, pd in items:
                if rep is not COUNTED:
                    acc.add(rep, pd)
                tally.add(pd)
                if on_record is not None:
                    on_record(pd, tally)
        elif op == "tally":
            for _rep, pd in items:
                state.add(pd)
        elif op == "records":
            state.extend(items)
        else:
            for _ in items:
                state.records += 1
        return state

    def over(self, desc, src: Source, state, on_record=None):
        """Fold every record left at cursor ``src`` into ``state``."""
        if self.op == "count":  # the counting floor: no per-record frame
            state.records += desc.count_records(src)
            return state
        return self.feed(state, self.items(desc, src, state), on_record)

    def _tally(self, state) -> ErrorTally:
        return state[1] if self.op == "accum" else state

    def size(self, part) -> int:
        """How many records ``part`` holds."""
        return len(part) if self.op == "records" else self._tally(part).records

    def rebase(self, part, base: int) -> None:
        """Shift ``part``'s record indices past ``base`` earlier records."""
        if not base:
            return
        if self.op == "records":
            cache: dict = {}
            for _rep, pd in part:
                _rebase_pd(pd, base, cache)
            return
        loc = self._tally(part).first_error_loc
        if loc is not None and loc.record >= 0:
            self._tally(part).first_error_loc = loc._replace(
                record=loc.record + base)

    def merge(self, state, part):
        """``state`` followed by the (rebased) ``part``."""
        if self.op == "records":
            state.extend(part)
            return state
        if self.op == "accum":
            state[0].merge(part[0])
        self._tally(state).merge(self._tally(part))
        return state


def _rebase_pd(pd, offset: int, cache: dict) -> None:
    """Rebase chunk-local record indices in an error pd tree to global.

    Locations are only attached where errors were reported, so clean
    subtrees (``nerr == 0``) are skipped and the walk costs nothing for
    the common case.  ``Loc`` is immutable; rebased copies are cached by
    identity so locations shared between pd nodes stay shared.
    """
    if pd is None or pd.nerr == 0 or offset == 0:
        return
    loc = pd.loc
    if loc is not None and loc.record >= 0:
        new = cache.get(id(loc))
        if new is None:
            new = loc._replace(record=loc.record + offset)
            cache[id(loc)] = new
        pd.loc = new
    if pd._fields:
        for child in pd._fields.values():
            _rebase_pd(child, offset, cache)
    if pd._elts:
        for child in pd._elts:
            _rebase_pd(child, offset, cache)
    _rebase_pd(pd.branch, offset, cache)


# -- the planner ---------------------------------------------------------------


def _kind(data) -> str:
    if isinstance(data, Source):
        return "source"
    if isinstance(data, (bytes, bytearray, str)):
        return "memory"
    if isinstance(data, os.PathLike):
        return "file"
    return "stream"


def count_step(desc, record_type: Optional[str], acc=None,
               mask: Optional[Mask] = None, limits=None, discipline=None):
    """How the accum fold takes a clean record of ``record_type`` in a
    pass under ``mask``, ``limits`` and ``discipline``: counted inside
    the record function (its fast function compiled with the accumulator
    sink, :func:`repro.tools.adder.bind_counter`), or declined — a
    tracer, a mask or limits the fast function does not serve, the grid
    block step, or a shape that is not compiled — and then counted from
    its rep by the compiled adder.  Returns ``(verdict, the counting
    function bound to acc)``; the function is None when declined or
    without ``acc``.  The template compiles on the first call."""
    use_mask = mask or Mask(P_CheckAndSet)
    if not fastpath_applies(use_mask, limits):
        why = ("active tracer" if observe.current_tracer() is not None
               else "parse limits a clean record could trip"
               if fastpath_applies(use_mask, None)
               else "non-uniform or non-materialising mask")
        return Verdict(False, why), None
    grid = desc.grid(record_type, mask, limits, discipline)
    if isinstance(grid, tuple):
        return Verdict(False, f"grid step: {grid[1]}-byte columns at "
                              f"{grid[2]}-byte pitch"), None
    from .plan.fastpath import NotEligible
    from .tools.adder import bind_counter, counter_template
    try:
        counter_template(desc, record_type)
        fn = None if acc is None else bind_counter(desc, record_type, acc)
    except NotEligible as exc:
        return Verdict(False, f"shape not compiled: {exc}"), None
    return Verdict(True, "counted in the record function"), fn


def accum_text(verdict: Verdict) -> str:
    """A :func:`count_step` verdict as ``padsc plan`` and the accum
    reason print it."""
    return verdict.reason if verdict.eligible \
        else f"declined: {verdict.reason}"


def step_reason(desc, op: str, record_type: Optional[str] = None) -> str:
    """How the record loop takes each record of ``op``: counted by
    arithmetic or framed one by one (``count``), or parsed a grid block
    at a time or one record at a time (the rest), and why — the
    decision :meth:`~repro.core.api.CompiledDescription.grid` makes for
    the pass, in words.  An ``accum`` adds the :func:`count_step`
    verdict."""
    disc = desc.discipline
    limits = getattr(desc, "limits", None)
    if op == "count":
        if disc.count is None:
            return f"{type(disc).__name__}: counted record by record"
        if limits is not None:
            return "counted record by record: parse limits attached"
        return f"{type(disc).__name__}: counted by arithmetic"
    step = desc.grid(record_type, None, limits)
    if isinstance(step, tuple):
        _kernel, width, stride = step
        reason = f"grid: {width}-byte columns at {stride}-byte pitch"
    else:
        reason = f"per record: {step.reason}"
    if op == "accum":
        verdict, _ = count_step(desc, record_type, limits=limits)
        reason += f"; accum: {accum_text(verdict)}"
    return reason


def choose_engine(desc, data, op: str, record_type: Optional[str] = None,
                  options: ExecOptions = ExecOptions(), *,
                  header: Optional[str] = None) -> Choice:
    """Pick the mode that runs ``op`` over ``data``.

    In order: ``checkpoint``/``resume`` → ``durable``; ``jobs > 1`` →
    ``parallel`` (file or in-memory input) or ``parallel-stream`` (a
    live stream), unless :func:`repro.parallel.split_gate` pins the run
    to one core; otherwise ``stream`` (sliding window) for streams and
    tails and ``serial`` for the rest.  The reason ends with
    :func:`step_reason`.  Invalid combinations raise :class:`PadsError`.
    """
    if op not in OPS:
        raise PadsError(f"unknown op {op!r} (expected one of {OPS})")
    o = options
    kind = _kind(data)
    follow = o.follow is not None
    header = header if op == "accum" else None
    step = step_reason(desc, op, record_type)
    if o.checkpoint is not None or o.resume:
        if kind != "file":
            raise PadsError("--checkpoint/--resume need a seekable file, "
                            "not " + ("stdin" if kind == "stream"
                                      else f"{kind} input"))
        if follow:
            raise PadsError("--follow tails an unbounded stream and cannot "
                            "be checkpointed; drop one of the two")
        if header is not None:
            raise PadsError("--header needs a serial prefix parse and "
                            "cannot be combined with --checkpoint/--resume")
        if op == "count" and o.jobs <= 1:
            step = "counted record by record: each boundary is checkpointed"
        return Choice("durable", ("--resume: continue from the last valid "
                                  "checkpoint" if o.resume
                                  else "--checkpoint: atomic resume "
                                  "checkpoints") + f"; {step}")
    pinned = ""
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
                              f"delivers them; {step}")
            return Choice("parallel", f"--jobs {o.jobs}: record-aligned "
                          f"chunks map-reduced over the pool; {step}")
        pinned = f"--jobs {o.jobs} stays on one core: {why}; "
    return Choice("stream" if follow or kind == "stream" else "serial",
                  pinned + step)


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


# -- the drivers ---------------------------------------------------------------


def _closing(pairs, src: Source):
    try:
        yield from pairs
    finally:
        src.close()


def fold_cursor(desc, fold: Fold, src: Source, *, owned: bool,
                on_record=None):
    """Run ``fold`` over every record left at cursor ``src``; ``owned``
    sources are closed once it is done.  The ``records`` fold's result is
    the lazy pair stream itself."""
    if fold.op == "records":
        pairs = desc.records(src, fold.record_type, fold.mask)
        return _closing(pairs, src) if owned else pairs
    try:
        return fold.over(desc, src, fold.zero(desc), on_record)
    finally:
        if owned:
            src.close()


def _in_process(desc, data, fold: Fold, options: ExecOptions, mode: str,
                header: Optional[str], on_record) -> tuple:
    """The in-process modes (``serial``, ``stream``): open the input,
    parse the header if there is one, and feed the fold the record
    loop's pairs (``count``: ``Source.count_rest``).  Returns
    ``(state, header_acc, None)``."""
    src = open_input(desc, data, options)
    header_acc = None if header is None else header_accumulator(
        desc, src, header, fold.tracked)
    return fold_cursor(desc, fold, src, on_record=on_record,
                       owned=_kind(data) in ("file", "stream")), header_acc, None


def _parallel(desc, data, fold: Fold, options: ExecOptions, mode: str,
              header: Optional[str], on_record) -> tuple:
    from . import parallel
    return parallel.drive(desc, data, fold, options.jobs, header=header,
                          stream=mode == "parallel-stream")


def _durable(desc, data, fold: Fold, options: ExecOptions, mode: str,
             header: Optional[str], on_record) -> tuple:
    from . import durable
    every = options.checkpoint
    return durable.drive(desc, data, fold, resume=options.resume,
                         jobs=options.jobs, window=options.window,
                         interval=every if every is not None and every > 0
                         else durable.DEFAULT_CHECKPOINT_INTERVAL), None, None


#: Mode -> driver, each returning ``(state, header_acc, declined)``:
#: ``declined`` says why a parallel mode ran in process, else None.
#: ``on_record`` reaches only the in-process driver.
DRIVERS = {"serial": _in_process, "stream": _in_process,
           "parallel": _parallel, "parallel-stream": _parallel,
           "durable": _durable}


def run(desc, data, op: str, record_type: Optional[str] = None,
        options: ExecOptions = ExecOptions(), *,
        header: Optional[str] = None, tracked: int = DEFAULT_TRACKED,
        summaries: bool = False, on_record=None) -> Result:
    """Run ``op`` over ``data`` on the mode :func:`choose_engine` picks.

    ``header`` (accum only) names a header type parsed once before the
    records; ``tracked`` bounds the distinct values each accumulator
    keeps; ``summaries`` attaches streaming histograms/quantiles.
    ``on_record(pd, tally)`` runs after every record an in-process
    accum folds (serial, stream); raising from it ends the run
    there.  Map-reduce and checkpointed modes fold in their own workers.
    A parallel mode with no window plan reports the mode that ran.
    """
    mode, reason = choose_engine(desc, data, op, record_type, options,
                                 header=header)
    fold = Fold(op, record_type, tracked=tracked, summaries=summaries)
    state, header_acc, declined = DRIVERS[mode](
        desc, data, fold, options, mode, header if op == "accum" else None,
        on_record)
    if declined is not None:
        mode = "stream" if mode == "parallel-stream" else "serial"
        reason = (f"--jobs {options.jobs} stays on one core: {declined}; "
                  + step_reason(desc, op, record_type))
    out = Result(mode, reason, header_acc=header_acc)
    if op == "records":
        out.pairs = state
    elif op == "accum":
        out.acc, out.tally = state
    elif op == "tally":
        out.tally = state
    else:
        out.count = state.records
    return out
