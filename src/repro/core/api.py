"""High-level user API: compile descriptions, parse data, write it back.

The paper's workflow is: write a description, run the PADS compiler, link
against the generated library.  The Python analogue is one call::

    from repro import compile_description
    clf = compile_description(CLF_SOURCE)
    rep, pd = clf.parse(data, "entry_t")

The returned :class:`CompiledDescription` exposes the generated-library
surface: parsing with masks and parse descriptors, multiple entry points
(whole source / record at a time / array element at a time), writing,
verification and random data generation.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from functools import cached_property, partial
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from .. import observe
from ..dsl.parser import parse_description
from ..dsl.typecheck import check_description
from ..plan.ir import Verdict
from .binding import BoundDescription, bind_description
from .errors import ErrCode, PadsError, Pd
from .io import (FixedWidthRecords, NewlineRecords, NoRecords,
                 RecordDiscipline, Source)
from .limits import ParseLimits, fastpath_applies, record_guard
from .masks import Mask, P_CheckAndSet
from .types import ArrayNode, PType, RecordNode

Data = Union[bytes, str, Source]


def _record_loop(src: Source, mask: Mask, fast, body, default, grid=None):
    """The record loop.

    ``fast`` is the record's compiled fast function, already cleared by
    the caller when it does not apply to this pass; ``body(src, mask)``
    is the general parse of one value inside an open record and
    ``default()`` the value a limit-refused record yields.  Records are
    framed a buffered block at a time (``Source.frames``); record
    numbering and the index sink stay inside the source.

    ``grid`` is the pass's grid block step, ``(kernel, width, stride)``
    (:meth:`CompiledDescription.grid`), or None: with it, each block of
    grid-aligned buffered records is parsed by one kernel call
    (``Source.grid_frames``), a record's payload may be the kernel's
    rep, and ``fast`` must pass such a payload through (``_parsed_or``).
    """
    dosem = (mask.bits & 4) != 0
    do_syn = mask.bits & 2
    limits = src.limits
    frames = src.frames() if grid is None \
        else src.grid_frames(*grid, dosem)
    for payload in frames:
        if limits is not None:
            pd = Pd()
            if not record_guard(src, pd):
                src.note_errors(pd.nerr)
                yield default(), pd
                continue
        if fast is not None:
            rep = fast(src.record_bytes() if payload is None else payload,
                       dosem)
            if rep is not None:
                # Clean record: empty descriptor, identical to the general
                # parse (clean children are omitted from descriptors).
                src.end_record()
                yield rep, Pd()
                continue
        rep, pd = body(src, mask)
        if not src.at_eor() and do_syn and pd.nerr == 0:
            pd.record_error(ErrCode.EXTRA_DATA_AT_EOR, src.here())
        src.end_record()
        if limits is not None:
            src.note_errors(pd.nerr)
        yield rep, pd


def _parsed_or(fast):
    """``fast`` for a grid pass: a payload the kernel already parsed is
    its rep (so the metered pass counts it as a hit); record bytes still
    go through ``fast``."""
    def step(payload, dosem):
        return fast(payload, dosem) if payload.__class__ is bytes \
            else payload
    return step


def _counting(fast, metrics, type_name: str):
    """``fast`` bumping the ``fastpath.hit``/``fastpath.miss`` counters
    of ``type_name`` (the metered pass only)."""
    hit = metrics.counter("fastpath.hit", type_name)
    miss = metrics.counter("fastpath.miss", type_name)

    def counted(line, dosem):
        rep = fast(line, dosem)
        (miss if rep is None else hit).inc()
        return rep
    return counted


class CompiledDescription:
    """A compiled PADS description: the Python stand-in for the paper's
    generated ``.h``/``.c`` library.  A parameterised type's arguments
    follow the type name (``parse(data, "p_t", None, 3)``); they are
    bound to the declaration's parameter names."""

    def __init__(self, bound: BoundDescription,
                 discipline: Optional[RecordDiscipline] = None,
                 source_text: Optional[str] = None,
                 limits: Optional[ParseLimits] = None):
        self.bound = bound
        self.desc = bound.desc
        self.ambient = bound.ambient
        self.discipline = discipline or NewlineRecords()
        #: The original description source, kept so worker processes can
        #: recompile the description (:mod:`repro.parallel`).
        self.source_text = source_text
        #: Resource budget attached to every source this description opens.
        self.limits = limits
        for node in bound.nodes.values():
            if isinstance(node, RecordNode):
                node.discipline = self.discipline

    # -- introspection ----------------------------------------------------------

    @property
    def type_names(self):
        return list(self.bound.nodes)

    @property
    def source_type(self) -> str:
        return self.bound.source_name

    @property
    def plan(self):
        """The analyzed plan IR the description was bound from."""
        return self.bound.plan

    @cached_property
    def work_per_byte(self) -> Optional[int]:
        """Interpreter steps one parse may take per input byte, or None
        when a parsed value can make the work outgrow the bytes
        (:func:`repro.plan.cost.work_per_byte`)."""
        from ..plan.cost import work_per_byte
        return work_per_byte(self.plan, record_scoped=not isinstance(
            self.discipline, NoRecords))

    def node(self, name: Optional[str] = None) -> PType:
        if name is None:
            return self.bound.source_node
        return self.bound.node(name)

    def _entry(self, type_name: Optional[str], params: tuple):
        """``type_name``'s node and the scope binding ``params`` to the
        declaration's parameter names."""
        node = self.node(type_name)
        name = type_name or self.source_type
        names = self.bound.params[name]
        if len(params) != len(names):
            raise PadsError(f"{name} takes {len(names)} parameter(s) "
                            f"({', '.join(names)}), {len(params)} given")
        return node, (dict(zip(names, params)) if names else {})

    # -- sources -------------------------------------------------------------------

    def open(self, data: Data) -> Source:
        # Strings are encoded latin-1 (byte-transparent) everywhere in the
        # runtime; see the :mod:`repro.core.io` module docstring.
        if isinstance(data, Source):
            if data.limits is None and self.limits is not None:
                data.set_limits(self.limits)
            return data
        if isinstance(data, str):
            data = data.encode("latin-1")
        return Source.from_bytes(data, self.discipline, limits=self.limits)

    def open_file(self, path: str) -> Source:
        return Source.from_file(path, self.discipline, limits=self.limits)

    # -- parsing entry points --------------------------------------------------------

    def parse(self, data: Data, type_name: Optional[str] = None,
              mask: Optional[Mask] = None, *params) -> Tuple[object, Pd]:
        """Parse one value of ``type_name`` (default: the Psource type)."""
        if isinstance(type_name, Mask):  # allow parse(data, mask)
            type_name, mask = None, type_name
        node, scope = self._entry(type_name, params)
        src = self.open(data)
        mask = mask or Mask(P_CheckAndSet)
        start, t0 = src.pos, perf_counter()
        rep, pd = node.parse(src, mask, scope)
        obs = observe.CURRENT
        if obs is not None:
            obs.record_parsed(type_name or self.source_type, pd,
                              src.pos - start, perf_counter() - t0,
                              start=start, record=src.record_idx)
        if not mask.sets_all:
            rep = node.unset(rep, mask, scope)
        return rep, pd

    def parse_source(self, data: Data, mask: Optional[Mask] = None):
        return self.parse(data, None, mask)

    def records(self, data: Data, type_name: str,
                mask: Optional[Mask] = None) -> Iterator[Tuple[object, Pd]]:
        """Record-at-a-time entry point (paper Section 4).

        Repeatedly parses ``type_name`` until end of input.  The type need
        not be declared ``Precord``; when it isn't, each iteration opens a
        record scope around it, matching how the paper's loop in Figure 7
        drives ``entry_t_read``.  Whether the record's compiled fast
        function applies is decided here, once per call
        (:func:`~repro.core.limits.fastpath_applies`); a non-``Precord``
        type has none, and neither has a traced pass, since the fast
        function would skip the per-field trace events the general parse
        emits.  So is the grid block step (:meth:`grid`), right next to
        it.
        """
        src = self.open(data)
        use_mask = mask or Mask(P_CheckAndSet)
        node = body = self.node(type_name)
        fast = grid = None
        if isinstance(node, RecordNode):
            body = node.inner
            if (fastpath_applies(use_mask, src.limits)
                    and observe.current_tracer() is None):
                fast = node.fast_fn
                step = self.grid(type_name, use_mask, src.limits,
                                 src.discipline)
                if not isinstance(step, Verdict):
                    grid, fast = step, _parsed_or(fast)
        parse, default = partial(body.parse, scope={}), partial(body.default, {})
        # One global load decides between the plain loop and the metered
        # one, keeping the disabled path free of per-record bookkeeping.
        obs = observe.CURRENT
        if obs is None:
            pairs = _record_loop(src, use_mask, fast, parse, default, grid)
        else:
            pairs = self._metered(src, use_mask, fast, parse, default,
                                  obs, type_name, grid)
        if use_mask.sets_all:
            yield from pairs
            return
        # Parsing ignores SET, so checks see the parsed values; the rep
        # gets the default at each base position the mask leaves unset.
        for rep, pd in pairs:
            yield node.unset(rep, use_mask, {}), pd

    @staticmethod
    def _metered(src, mask, fast, body, default, obs, type_name: str,
                 grid=None):
        if fast is not None:
            fast = _counting(fast, obs.metrics, type_name)
        start, t0 = src.pos, perf_counter()
        for rep, pd in _record_loop(src, mask, fast, body, default, grid):
            obs.record_parsed(type_name, pd, src.pos - start,
                              perf_counter() - t0, start=start,
                              record=src.record_idx)
            yield rep, pd
            start, t0 = src.pos, perf_counter()

    def count_records(self, data: Data) -> int:
        """Count records using only the record discipline (no field
        parsing) — the analogue of the paper's record-counting program
        (``Source.count_rest``: arithmetic where the discipline allows)."""
        return self.open(data).count_rest()

    def records_stream(self, data, type_name: str,
                       mask: Optional[Mask] = None, **opts):
        """Bounded-memory record stream (:mod:`repro.stream`): ``data``
        may be a pipe, socket, fd, growing file or any readable binary
        object, read through a sliding window.  ``opts``: ``window``,
        ``follow``, ``poll_interval``, ``idle_timeout``, ``index``."""
        from ..stream import records_stream
        return records_stream(self, data, type_name, mask, **opts)

    def records_batch(self, data: Data, type_name: str,
                      mask: Optional[Mask] = None):
        """An alias of :meth:`records`, whose loop already parses
        grid-aligned records a block at a time (:meth:`grid`)."""
        return self.records(data, type_name, mask)

    def array_elements(self, data: Data, type_name: str,
                       mask: Optional[Mask] = None):
        """Element-at-a-time reading of a Parray type (paper Section 4)."""
        node = self.node(type_name)
        inner = node.inner if isinstance(node, RecordNode) else node
        if not isinstance(inner, ArrayNode):
            raise PadsError(f"{type_name} is not a Parray")
        src = self.open(data)
        yield from inner.parse_elements(src, mask or Mask(P_CheckAndSet), {})

    # -- batch kernels ------------------------------------------------------------

    def batch_kernel(self, type_name: str):
        """``(static width, batch kernel)`` for a batch-eligible record
        type, or None.  The kernel is materialised from the plan fragment
        in the description's runtime namespace; the record's fast
        function is the same kernel over one record."""
        dp = self.plan.decls.get(type_name)
        if dp is None or not dp.batch_verdict.eligible:
            return None
        fn = self.bound.batch_fns.get(type_name)
        if fn is None:
            return None
        return dp.width, fn

    def grid(self, type_name: str, mask: Optional[Mask] = None,
             limits: Optional[ParseLimits] = None,
             discipline: Optional[RecordDiscipline] = None):
        """The record loop's grid block step for a pass over
        ``type_name`` under ``mask`` and ``limits``: ``(kernel, width,
        stride)`` when the pass parses its ``width``-byte records a
        block at a time, at ``stride``-byte pitch under ``discipline``
        (default: the description's); otherwise a :class:`Verdict`
        saying why every record takes its own step.  :meth:`records`
        decides with it once per pass; the execution planner quotes it.
        """
        if limits is not None:
            return Verdict(False, "parse limits attached (budgets are "
                                  "accounted per record)")
        if observe.current_tracer() is not None:
            return Verdict(False, "active tracer (the event stream needs "
                                  "the per-record parse)")
        if not fastpath_applies(mask or Mask(P_CheckAndSet), None):
            return Verdict(False, "non-uniform or non-materialising mask")
        info = self.batch_kernel(type_name)
        if info is None:
            dp = self.plan.decls.get(type_name)
            if dp is not None and not dp.batch_verdict.eligible:
                return dp.batch_verdict
            return Verdict(False, "batch kernels disabled (fastpath=False)"
                           if dp is not None
                           else f"no batch kernel for {type_name!r}")
        width, kernel = info
        disc = discipline or self.discipline
        stride = disc.pitch(width)
        if stride is None:
            if isinstance(disc, FixedWidthRecords):
                return Verdict(False, f"static record width {width} != "
                                      f"fixed-width discipline {disc.width}")
            return Verdict(False, f"{type(disc).__name__} records have no "
                                  "constant pitch")
        return kernel, width, stride

    # -- writing -------------------------------------------------------------------

    @cached_property
    def _framed_writers(self) -> Dict[str, Callable]:
        """Per record type with a compiled writer and no parameters, that
        writer with the discipline's framing folded in
        (:meth:`RecordDiscipline.framed`)."""
        frame = self.discipline.framed
        return {name: frame(node.write_fn)
                for name, node in self.bound.nodes.items()
                if isinstance(node, RecordNode) and node.write_fn is not None
                and not self.bound.params[name]}

    def write(self, rep, type_name: Optional[str] = None, *params) -> bytes:
        """Render ``rep`` back into its physical form (``write2io``).  A
        record with a compiled writer goes straight to it, framing
        included; where that writer declines (None), the record's general
        content writer runs, once framed, and for every other type the
        node's general writer."""
        framed = self._framed_writers.get(type_name)
        if framed is not None and not params:
            out = framed(rep)
            if out is not None:
                return out
            node = self.node(type_name)
            return node.discipline.frame(node.content(rep, {}))
        node, scope = self._entry(type_name, params)
        out = []
        node.write(rep, out, scope)
        return b"".join(out)

    # -- verification / generation ------------------------------------------------------

    def verify(self, rep, type_name: Optional[str] = None, *params) -> bool:
        """Re-check semantic constraints on an in-memory value
        (``entry_t_verify`` in the paper's Figure 7)."""
        node, scope = self._entry(type_name, params)
        return node.verify(rep, scope)

    def default(self, type_name: Optional[str] = None, *params):
        node, scope = self._entry(type_name, params)
        return node.default(scope)

    def generate(self, type_name: Optional[str] = None,
                 rng: Optional[random.Random] = None):
        """Generate a random in-memory value conforming to the type."""
        return self.node(type_name).generate(rng or random.Random(), {})

    def generate_bytes(self, type_name: Optional[str] = None,
                       rng: Optional[random.Random] = None) -> bytes:
        """Generate random *data* conforming to the type."""
        rep = self.generate(type_name, rng)
        return self.write(rep, type_name)


def bind_text(text: str, *, ambient: str = "ascii",
              filename: str = "<description>", check: bool = True,
              fastpath: bool = True) -> BoundDescription:
    """Parse, typecheck, analyze and bind description source."""
    desc = parse_description(text, filename)
    if check:
        check_description(desc, ambient)
    return bind_description(desc, ambient, fastpath=fastpath)


def compile_description(text: str, *, ambient: str = "ascii",
                        discipline: Optional[RecordDiscipline] = None,
                        filename: str = "<description>",
                        check: bool = True,
                        fastpath: bool = True,
                        limits: Optional[ParseLimits] = None,
                        base_type_files: Optional[list] = None):
    """Parse, typecheck, analyze and bind a PADS description.

    ``ambient`` selects the ambient coding ('ascii', 'binary', 'ebcdic');
    ``discipline`` the record discipline (newline-terminated by default,
    as in the paper); ``fastpath`` disables the plan-compiled record
    fast functions (reference mode for differential testing);
    ``limits`` an optional :class:`~repro.core.limits.ParseLimits`
    resource budget attached to every source the description opens;
    ``base_type_files`` lists user base-type specification files to load
    first (paper Section 6).
    """
    if base_type_files:
        from .basetypes.userdef import load_base_type_files
        load_base_type_files(base_type_files)
    bound = bind_text(text, ambient=ambient, filename=filename, check=check,
                      fastpath=fastpath)
    return CompiledDescription(bound, discipline, source_text=text,
                               limits=limits)


def compile_file(path: str, **kwargs):
    with open(path, "r", encoding="utf-8") as handle:
        return compile_description(handle.read(), filename=path, **kwargs)


# -- compiled-description cache -------------------------------------------------
#
# Long-running processes (the parse service, notebooks, repeated CLI
# invocations through the library) compile the same description over and
# over.  Compilation is pure in everything the cache key covers, so a
# content-hash-keyed cache gives compile-once semantics.
#
# The key MUST cover every compile input that changes the produced
# artifact — not just the source text.  Hashing only the source is a
# cross-tenant poisoning bug: two tenants sending identical source with
# different ambients, record disciplines or fastpath settings would share
# one compiled description, and whichever compiled first would silently
# serve the other tenant's requests with the wrong plan.  ``ParseLimits``
# are deliberately NOT part of the key: limits are per-*source* state
# (attached when a cursor opens), so the same compiled description serves
# every budget.


def discipline_key(discipline) -> tuple:
    """A stable identity tuple for a record discipline.

    Covers the discipline class plus every constructor parameter any
    shipped discipline has; shared by the description cache and the
    parallel engine's worker :class:`~repro.parallel.DescSpec`.
    """
    d = discipline
    if d is None:
        return ("NewlineRecords", None, None, None, None)
    return (type(d).__name__, getattr(d, "width", None),
            getattr(d, "prefix", None), getattr(d, "byteorder", None),
            getattr(d, "inclusive", None))


def _sha256():
    """A new ``hashlib.sha256`` object.  Only the serving path keys its
    compile cache, so ``hashlib`` loads on the first key and this
    function then rebinds itself to the constructor."""
    global _sha256
    from hashlib import sha256
    _sha256 = sha256
    return sha256()


def description_cache_key(text: str, *, ambient: str = "ascii",
                          discipline=None, fastpath: bool = True) -> str:
    """Content hash over every plan-relevant compile input: the source,
    the ambient coding, the record discipline and the
    fastpath/reference-mode switch."""
    parts = (text, ambient, str(bool(fastpath)),
             repr(discipline_key(discipline)))
    h = _sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogateescape"))
        h.update(b"\x00")
    return h.hexdigest()


class DescriptionCache:
    """A bounded, thread-safe, content-hash-keyed compile cache.

    Lookup and insertion are guarded by a lock so concurrent server
    request handlers (thread-pool executors) can share one cache;
    compilation itself runs outside the lock.  Racing first requests
    for the same key are *single-flighted*: one thread compiles, the
    rest wait on its gate and then take the cache hit — so a cold
    popular description costs exactly one compile no matter how many
    clients stampede it (and the compile-once metric stays exact).
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def get(self, key: str):
        """The cached description for ``key``, or None (counts a hit)."""
        with self._lock:
            desc = self._entries.get(key)
            if desc is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            return desc

    def get_or_compile(self, text: str, *, ambient: str = "ascii",
                       discipline=None, fastpath: bool = True,
                       check: bool = True,
                       filename: str = "<description>"):
        """``(description, key, hit)`` for the given compile inputs.

        The returned description carries no :class:`ParseLimits`; attach
        budgets per-source (``Source.from_bytes(..., limits=...)``) so
        one cached artifact serves every tenant.
        """
        key = description_cache_key(text, ambient=ambient,
                                    discipline=discipline, fastpath=fastpath)
        while True:
            with self._lock:
                desc = self._entries.get(key)
                if desc is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return desc, key, True
                gate = self._inflight.get(key)
                if gate is None:
                    gate = self._inflight[key] = threading.Event()
                    break  # this thread is the compiling leader
            # Single-flight: another thread is compiling this key; wait
            # for its gate, then re-check (hit on success, or become the
            # new leader if it failed).
            gate.wait()
        try:
            desc = compile_description(text, ambient=ambient,
                                       discipline=discipline,
                                       filename=filename, check=check,
                                       fastpath=fastpath)
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            gate.set()  # wake waiters; one of them retries as leader
            raise
        with self._lock:
            self.misses += 1
            self._entries[key] = desc
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            self._inflight.pop(key, None)
        gate.set()
        return desc, key, False


#: The process-wide cache behind :func:`compile_cached`.  Servers build
#: their own instance so per-server cache metrics stay isolated.
DESCRIPTION_CACHE = DescriptionCache()


def compile_cached(text: str, **kwargs):
    """:func:`compile_description` through the process-wide
    :data:`DESCRIPTION_CACHE` (compile-once semantics)."""
    desc, _key, _hit = DESCRIPTION_CACHE.get_or_compile(text, **kwargs)
    return desc
