"""The differential oracle: every op on every execution mode agrees with
the serial reference, a ``fastpath=False`` build run in memory under the
same mask and limits (no fast function, no grid block step).

:func:`agree` compares reps and pds (with every node's location), every
``ErrorTally`` field, the record and header accumulators'
``full_report()``, ``count`` and the deterministic stats; on the
sliding-window modes, also the window's refills, stalls and high-water
mark against a ``fastpath=False`` run in the same mode, and the
high-water mark within twice the window.  The axes: every op in
``execute.OPS``; the ``MODES``; the gallery with injected errors, the
grid cases and random descriptions; uniform and Figure 7 masks; limits.  ``test_batch``,
``test_differential``, ``test_stream``, ``test_parallel``,
``test_durable``, ``test_execute`` and ``test_robustness`` keep their
named cases, each a call into :func:`agree`.
"""

from __future__ import annotations

import importlib.resources as resources
import io
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro import (Mask, P_Check, P_CheckAndSet, P_Set, compile_description,
                   durable, gallery, observe)
from repro.core.errors import ErrCode, ErrorTally
from repro.core.io import FixedWidthRecords, NewlineRecords, Source
from repro.core.limits import ParseLimits
from repro.execute import DRIVERS, OPS, ExecOptions, Fold, choose_engine, run
from repro.faults import GALLERY_TARGETS
from repro.tools.accum import DEFAULT_TRACKED, Accumulator
from repro.tools.cobol import translate
from repro.tools.datagen import (ErrorInjector, call_detail_workload,
                                 generate_records)

def pd_tree(pd):
    """A pd tree with the location of every node."""
    return (int(pd.pstate), pd.nerr, int(pd.err_code), pd.tag, pd.neerr,
            pd.first_error, str(pd.loc),
            tuple(sorted((k, pd_tree(v)) for k, v in (pd._fields or {}).items())),
            tuple(pd_tree(e) for e in pd._elts or ()),
            None if pd.branch is None else pd_tree(pd.branch))


def tally_fields(tally: ErrorTally) -> tuple:
    return tuple((name, str(getattr(tally, name))
                  if name == "first_error_loc" else getattr(tally, name))
                 for name in ErrorTally.__slots__)


# -- subjects ------------------------------------------------------------------------


@dataclass(frozen=True)
class Subject:
    """A description, its record type and its record discipline."""

    name: str
    text: str
    rtype: str
    ambient: str = "ascii"
    discipline: object = NewlineRecords()

    @lru_cache(maxsize=None)
    def build(self, fastpath: bool = True,
              limits: Optional[ParseLimits] = None):
        return compile_description(self.text, ambient=self.ambient,
                                   discipline=self.discipline,
                                   fastpath=fastpath, limits=limits)


def _billing() -> Subject:
    """The Cobol billing copybook (Figure 1's Altair feed): zoned and
    packed decimals, EBCDIC strings and a binary OCCURS array."""
    tr = translate((resources.files("repro.gallery") / "billing.cpy")
                   .read_text(), "billing.cpy")
    return Subject("billing", tr.pads_source, tr.record_type, "ebcdic",
                   FixedWidthRecords(tr.record_width))


GALLERY = {target[0]: Subject(*target[:4], target[4])
           for target in GALLERY_TARGETS}
GALLERY["billing"] = _billing()
#: Records per gallery case: a few KiB, so 1 KiB chunks split it.
N_GALLERY = 300


def gallery_data(name: str) -> bytes:
    """``name``'s records with about one in ten corrupted."""
    subject = GALLERY[name]
    desc = subject.build()
    rng = random.Random(20050612)
    injector = ErrorInjector(0.1)
    return b"".join(injector.maybe_corrupt(record, rng) for record in
                    generate_records(desc, subject.rtype, N_GALLERY, rng))


# The grid cases: a record whose layout is static parses a block of
# grid-aligned records per kernel call; every record the kernel refuses
# takes its own step.

FIXED_ROW_DESC = """
Precord Pstruct row_t {
  Puint32_FW(:4:) n : n < 9000;
  '|';
  Pstring_FW(:3:) tag;
};
Psource Parray rows_t { row_t[]; };
"""

WIDTH = 24            # call_t static width
CALL_TYPE_OFF = 22    # call_type column: Ptypedef constraint t <= 4
#: Rows per newline case: past ``MIN_CHUNK_BYTES``, so ``jobs=2`` splits.
N_ROWS = 9000
#: Records per call-detail case, likewise.
N_CALLS = 3500
GRID_CASES = ("clean", "misses", "torn", "short-tail", "crlf")

ROWS = Subject("rows", FIXED_ROW_DESC, "row_t")
CALLS = Subject("calls", gallery.CALL_DETAIL, "call_t", "binary",
                FixedWidthRecords(WIDTH))


def _rows(n: int, rng: random.Random) -> list:
    return [b"%04d|%s" % (rng.randrange(9000),
                          bytes(rng.choice(b"abcxyz") for _ in range(3)))
            for _ in range(n)]


def newline_case(case: str) -> bytes:
    rows = _rows(N_ROWS, random.Random(7))
    if case == "misses":
        for i in range(0, N_ROWS, 41):
            rows[i] = b"9%03d" % (i % 1000) + rows[i][4:]
    elif case == "torn":
        # A long line and a short one inside the first block.
        rows[500] += b"-extra"
        rows[501] = rows[501][:5]
    elif case == "crlf":
        # Every third line CRLF: a 9-byte payload whose last byte is the
        # stripped ``\r`` must not pass as an 8-byte grid record.
        for i in range(0, N_ROWS, 3):
            rows[i] = rows[i][:7] + b"\r"
    blob = b"".join(r + b"\n" for r in rows)
    if case == "short-tail":
        blob += b"12|a"
    return blob


def calls_case(case: str) -> bytes:
    raw = bytearray(call_detail_workload(N_CALLS, random.Random(11)))
    if case == "misses":
        for i in range(0, N_CALLS, 29):
            raw[i * WIDTH + CALL_TYPE_OFF] = 99
    elif case == "torn":
        # One byte lost mid-block shifts every later record.
        del raw[700 * WIDTH + 5]
    elif case == "crlf":
        for i in range(0, N_CALLS, 5):
            raw[i * WIDTH + WIDTH - 2:i * WIDTH + WIDTH] = b"\r\n"
    elif case == "short-tail":
        raw += b"\x01\x02\x03"
    return bytes(raw)


GRID = {"rows": (ROWS, newline_case), "calldetail": (CALLS, calls_case)}


MASKS = {"check-and-set": Mask(P_CheckAndSet), "check": Mask(P_Check),
         "set": Mask(P_Set)}

#: Generous enough that conforming records never trip.
GENEROUS = ParseLimits(max_record_bytes=1 << 20, max_array_elems=10_000,
                       max_scan=4096, max_depth=64)
LIMITS = {"none": None, "generous": GENEROUS,
          "record-bytes": ParseLimits(max_record_bytes=4),
          "errors": ParseLimits(max_errors=25),
          "errors-3": ParseLimits(max_errors=3)}

# -- running one op on one mode -------------------------------------------------------

#: ``parallel`` reads a file and ``parallel-memory`` bytes in memory;
#: ``header`` is a serial ``accum --header``.
MODES = ("serial", "file", "source", "stream", "follow", "header",
         "parallel", "parallel-memory", "parallel-stream", "durable")
#: The sliding window: blocks end at its refills (a grid block is bigger).
WINDOW = 4000


@dataclass
class Outcome:
    """What a mode shares with the reference, plus the mode that ran, the
    records the grid step or its misses took, and fast-function hits."""

    mode: str
    result: object
    stats: dict
    window: Optional[tuple] = None   # (refills, stalls, high_water)
    taken: int = 0
    hits: int = 0

def _normal(op: str, state, header_acc):
    if op == "records":
        return [(rep, pd_tree(pd)) for rep, pd in state]
    if op == "accum":
        acc, tally = state
        return (acc.full_report(), tally_fields(tally),
                None if header_acc is None else header_acc.full_report())
    if op == "tally":
        return tally_fields(state)
    return state if isinstance(state, int) else state.records


def _records(op: str, result) -> int:
    """How many records the loop yielded for ``result``."""
    if op in ("records", "count"):
        return len(result) if op == "records" else result
    return dict(result[1] if op == "accum" else result)["records"]


def _input(mode: str, data: bytes, path, desc):
    if mode in ("file", "follow", "parallel", "durable"):
        return path
    if mode in ("stream", "parallel-stream"):
        return io.BytesIO(data)
    if mode == "source":
        return Source(data, discipline=desc.discipline)
    return data


def _options(mode: str, window: Optional[int]) -> ExecOptions:
    if mode == "stream":
        return ExecOptions(window=window or WINDOW)
    if mode == "follow":
        return ExecOptions(window=window or WINDOW, follow=0.05)
    if mode.startswith("parallel"):
        return ExecOptions(jobs=2)
    return ExecOptions()


def _observed(obs, ran: str, result) -> Outcome:
    stats = obs.stats(deterministic=True)
    stats.pop("durable")
    window = stats.pop("stream")
    full = obs.stats()
    grid = full["batch"]
    return Outcome(ran, result, stats,
                   (window["refills"], window["stalls"], window["high_water"]),
                   grid["records"] + grid["fallback_records"],
                   sum(c["hit"] for c in full["fastpath"].values()))


def outcome(desc, data: bytes, op: str, rtype: str, mode: str = "serial", *,
            path=None, mask: Optional[Mask] = None,
            header: Optional[str] = None, window: Optional[int] = None,
            crash: Optional[tuple] = None,
            tracked: int = DEFAULT_TRACKED) -> Outcome:
    """``op`` over ``data`` on ``mode``, observed.  ``header`` (accum)
    parses one header record first; ``window`` is the sliding window
    (``WINDOW`` on the stream modes, none on ``durable``); ``crash`` is
    ``(after, interval)`` for the durable mode; ``tracked`` bounds each
    accumulator's value table."""
    fold = Fold(op, rtype, mask=mask, tracked=tracked)
    source = _input(mode, data, path, desc)
    if mode == "durable":
        return _crash_then_resume(desc, source, fold, crash, window)
    options = _options(mode, window)
    header = header if op == "accum" else None
    with observe.observed() as obs:
        if mask is None:
            res = run(desc, source, op, rtype, options, header=header,
                      tracked=tracked)
            ran, header_acc = res.mode, res.header_acc
            state = {"records": res.pairs, "accum": (res.acc, res.tally),
                     "tally": res.tally, "count": res.count}[op]
        else:  # ``run`` takes no mask: hand the fold to the mode's driver
            ran, _reason = choose_engine(desc, source, op, rtype, options,
                                         header=header)
            state, header_acc, declined = DRIVERS[ran](
                desc, source, fold, options, ran, header, None)
            if declined is not None:
                ran = "stream" if ran == "parallel-stream" else "serial"
        result = _normal(op, state, header_acc)
    return _observed(obs, ran, result)


def _crash_then_resume(desc, path, fold: Fold, crash: Optional[tuple],
                       window: Optional[int]) -> Outcome:
    """A durable run killed after ``crash[0]`` records, checkpointing
    every ``crash[1]``, then resumed.  By default it checkpoints every
    third of the records the run yields and crashes just past the second
    checkpoint."""
    if crash is None:
        records = sum(1 for _ in desc.records(path.read_bytes(),
                                              fold.record_type))
        interval = max(1, records // 3)
        crash = (2 * interval + 1, interval)
    after, interval = crash
    before = []
    durable._CRASH_AFTER = after
    try:
        with observe.observed():
            state = durable.drive(desc, str(path), fold, interval=interval,
                                  window=window, build_index=False)
            if fold.op == "records":
                for pair in state:
                    before.append(pair)
    except durable._InjectedCrash:
        pass
    finally:
        durable._CRASH_AFTER = None
    done = durable._load_checkpoint(str(path) + durable.CHECKPOINT_SUFFIX)
    with observe.observed() as obs:
        state = durable.drive(desc, str(path), fold, interval=interval,
                              window=window, resume=True, build_index=False)
        if fold.op == "records":
            state = before[:done["records_done"] if done else 0] + list(state)
        result = _normal(fold.op, state, None)
    return _observed(obs, "durable", result)


#: Data keys -> builders, so references cache by key, not by bytes; and
#: what each builder runs (its code, captured and default values).
_DATA: dict = {}
_RECIPES: dict = {}


def data_key(name: str, make: Callable[[], bytes]) -> str:
    """Register ``make`` (run once) as the data named ``name``; a name
    registered again must come with the same builder."""
    recipe = (make.__code__, make.__defaults__,
              tuple(cell.cell_contents for cell in make.__closure__ or ()))
    if _RECIPES.setdefault(name, recipe) != recipe:
        raise ValueError(f"data {name!r} is already built otherwise")
    _DATA.setdefault(name, lru_cache(maxsize=1)(make))
    return name


def _mask(name: str) -> Optional[Mask]:
    """A uniform mask by name, or Figure 7's: check everything but the
    sorting of the timestamps (``test_paper_descriptions`` shows it
    drops that check)."""
    if name != "figure7":
        return MASKS.get(name)
    mask, events = Mask(P_CheckAndSet), Mask(P_CheckAndSet)
    events.compound_level = P_Set
    mask.fields["events"] = events
    return mask


@lru_cache(maxsize=None)
def reference(subject: Subject, key: str, op: str, mask: str = "none",
              limits: str = "none", header: Optional[str] = None,
              tracked: int = DEFAULT_TRACKED) -> Outcome:
    """The serial, in-memory run of a ``fastpath=False`` build."""
    plain = subject.build(False, LIMITS[limits])
    return outcome(plain, _DATA[key](), op, subject.rtype, mask=_mask(mask),
                   header=header, tracked=tracked)


def agree(subject: Subject, key: str, op: str, mode: str, tmp_path, *,
          mask: str = "none", limits: str = "none",
          header: Optional[str] = None, window: Optional[int] = None,
          crash: Optional[tuple] = None, expect: Optional[str] = None,
          grid: bool = False, tracked: int = DEFAULT_TRACKED) -> Outcome:
    """Run ``op`` on ``mode`` over a fast build of ``subject`` and assert
    it agrees with the reference; returns the mode's outcome.
    ``expect`` is the mode that must run; ``grid`` asserts that the grid
    block step or its misses took every record; ``tracked`` bounds the
    accumulators' value tables."""
    data = _DATA[key]()
    path = tmp_path / f"{key}.dat"
    if not path.exists():
        path.write_bytes(data)
    if mode == "header":
        header = header or subject.rtype
    want = reference(subject, key, op, mask, limits, header, tracked)
    desc = subject.build(True, LIMITS[limits])
    got = outcome(desc, data, op, subject.rtype, mode, path=path,
                  mask=_mask(mask), header=header, window=window, crash=crash,
                  tracked=tracked)
    where = f"{subject.name}/{key} {op} on {mode} ({got.mode}), " \
        f"mask {mask}, limits {limits}"
    if expect is not None:
        assert got.mode == expect, where
    assert got.result == want.result, where
    assert got.stats == want.stats, where
    if grid:
        assert got.taken == _records(op, got.result) > 0, where
    if mode in ("stream", "follow"):
        ref = _window_reference(subject, key, op, mode, mask, limits,
                                window, path)
        assert got.window == ref.window, where
        # The window widens to a record longer than itself, and to
        # ``max_scan``.
        cap = max(window or WINDOW,
                  (LIMITS[limits] or ParseLimits()).max_scan or 0,
                  _longest_record(subject, key))
        assert got.window[2] <= 2 * cap, where
    return got


#: ``_window_reference``'s runs, by everything but the input's path.
_WINDOWS: dict = {}


def _window_reference(subject: Subject, key: str, op: str, mode: str,
                      mask: str, limits: str, window: Optional[int],
                      path) -> Outcome:
    """A ``fastpath=False`` build's run on the sliding-window ``mode``."""
    args = (subject, key, op, mode, mask, limits, window)
    if args not in _WINDOWS:
        plain = subject.build(False, LIMITS[limits])
        _WINDOWS[args] = outcome(plain, _DATA[key](), op, subject.rtype,
                                 mode, path=path, mask=_mask(mask),
                                 window=window)
    return _WINDOWS[args]


@lru_cache(maxsize=None)
def _longest_record(subject: Subject, key: str) -> int:
    with subject.build().open(_DATA[key]()) as src:
        longest = 0
        while src.begin_record():
            longest = max(longest, src.rec_next - src.rec_start)
            src.end_record()
    return longest


def gallery_key(name: str) -> str:
    return data_key(f"gallery-{name}", lambda: gallery_data(name))


def grid_key(name: str, case: str) -> str:
    _subject, make = GRID[name]
    return data_key(f"{name}-{case}", lambda: make(case))


# -- the gallery: every op on every mode ----------------------------------------------


def _expected_mode(subject: Subject, mode: str) -> Optional[str]:
    if mode.startswith("parallel"):
        chunkable = subject.build().discipline.chunkable
        return mode.replace("-memory", "") if chunkable else None
    return {"file": "serial", "source": "serial", "header": "serial",
            "follow": "stream"}.get(mode, mode)


@pytest.mark.usefixtures("pool_chunks")
@pytest.mark.parametrize("name", list(GALLERY))
def test_gallery(name, tmp_path):
    subject = GALLERY[name]
    # A live stream of NoRecords packets cannot be carved into chunks
    # (an explicit error, ``test_stream``).
    for mode in (m for m in MODES if subject.discipline.chunkable
                 or m != "parallel-stream"):
        for op in OPS if mode != "header" else ("accum",):
            agree(subject, gallery_key(name), op, mode, tmp_path,
                  expect=_expected_mode(subject, mode))
    want = reference(subject, gallery_key(name), "tally").result
    assert dict(want)["bad_records"] > 0, "the injected errors must bite"


#: Value tables this small overflow at once, so the accum fold's
#: first-seen admission order across counted clean records and walked
#: error records shows in the report.  The modes that fold one record
#: stream in order (a parallel merge past the limit is a lower bound).
SMALL_TABLE_MODES = ("serial", "stream", "header", "durable")


@pytest.mark.parametrize("name", ["clf", "sirius"])
def test_gallery_small_value_tables(name, tmp_path):
    for mode in SMALL_TABLE_MODES:
        agree(GALLERY[name], gallery_key(name), "accum", mode, tmp_path,
              tracked=2)


# -- the grid cases -------------------------------------------------------------------


GRID_MODES = ("serial", "stream", "follow", "header", "parallel", "durable")


def grid_agrees(name: str, case: str, mode: str, tmp_path) -> None:
    """One grid case on one mode: the records and accum ops (plus the
    file and open-Source inputs on ``serial``, and the live stream on
    ``parallel``).  Run under ``pool_chunks``, so the pool splits the
    input."""
    subject, _make = GRID[name]
    desc = subject.build()
    assert isinstance(desc.grid(subject.rtype), tuple)
    key = grid_key(name, case)
    if mode == "serial":
        for source in ("serial", "file", "source"):
            agree(subject, key, "records", source, tmp_path, grid=True)
        agree(subject, key, "accum", "file", tmp_path, grid=True)
    elif mode in ("stream", "follow"):
        agree(subject, key, "records", mode, tmp_path, expect="stream",
              grid=True)
    elif mode == "parallel":
        for par in ("parallel", "parallel-stream"):
            agree(subject, key, "records", par, tmp_path, expect=par,
                  grid=True)
    else:
        agree(subject, key, "accum", mode, tmp_path, grid=True)


# -- masks: serial, stream, parallel -------------------------------------------------------


@pytest.mark.usefixtures("pool_chunks")
@pytest.mark.parametrize("name", ["clf", "sirius", "calldetail", "regulus"])
def test_masks(name, tmp_path):
    subject = GALLERY[name]
    for mask in list(MASKS) + (["figure7"] if name == "sirius" else []):
        for mode in ("serial", "stream", "parallel"):
            for op in ("records", "accum"):
                agree(subject, gallery_key(name), op, mode, tmp_path,
                      mask=mask)


# -- limits: serial, stream, durable ----------------------------------------------------


@pytest.mark.parametrize("name", ["clf", "sirius", "calldetail"])
def test_limits(name, tmp_path):
    """The accum op's result carries every tally field."""
    subject = GALLERY[name]
    for limits in ("generous", "record-bytes", "errors"):
        for mode in ("serial", "stream", "durable"):
            for op in ("records", "accum"):
                agree(subject, gallery_key(name), op, mode, tmp_path,
                      limits=limits)
    want = reference(subject, gallery_key(name), "tally",
                     limits="record-bytes").result
    assert dict(want)["by_code"].get("RECORD_LIMIT"), want


def test_error_budget_is_hit_after_the_durable_crash(tmp_path):
    """The error-budget durable case bites: the budget stops the parse
    past the crash point, so a resume must carry the error count over."""
    subject = GALLERY["clf"]
    want = reference(subject, gallery_key("clf"), "records",
                     limits="errors").result
    stop = len(want)
    assert want[-1][1][2] == ErrCode.ERROR_BUDGET_EXCEEDED
    records = subject.build().count_records(_DATA[gallery_key("clf")]())
    crash = 2 * max(1, stop // 3) + 1
    assert stop < records and crash < stop
    agree(subject, gallery_key("clf"), "tally", "durable", tmp_path,
          limits="errors")


# -- accumulator reports under the parallel reduce ----------------------------------------


def _scalars(acc: Accumulator):
    yield acc.self_acc
    if acc.lengths is not None:
        yield acc.lengths
    for sub in ([acc.elts] if acc.elts is not None else []) + \
            list(acc.children.values()):
        yield from _scalars(sub)


@pytest.mark.usefixtures("pool_chunks")
def test_parallel_reports_beyond_tracked_values_are_lower_bounds(tmp_path):
    """Within ``tracked`` distinct values a parallel accumulator report is
    the serial one (every gallery case above).  Past it, 9,000 rows over
    two chunks keep counts, min, max and totals exact, and every value
    count the parallel table reports is at most the serial count."""
    key = grid_key("rows", "clean")
    path = tmp_path / "rows.dat"
    path.write_bytes(_DATA[key]())
    desc = ROWS.build()
    par = run(desc, path, "accum", "row_t", ExecOptions(jobs=2))
    ser = run(desc, _DATA[key](), "accum", "row_t")
    assert par.mode == "parallel"
    assert tally_fields(par.tally) == tally_fields(ser.tally)
    overflowed = False
    for mine, ref in zip(_scalars(par.acc), _scalars(ser.acc)):
        assert (mine.good, mine.bad, mine.min, mine.max, mine.total) == \
            (ref.good, ref.bad, ref.min, ref.max, ref.total)
        overflowed |= len(ref.values) >= ref.tracked_limit
        for value, count in mine.values.items():
            assert count <= ref.values.get(value, count)
    assert overflowed


# -- random descriptions -----------------------------------------------------------------


RANDOM_MODES = ("serial", "source", "stream")


def _random_descriptions():
    from .test_dsl_property import array_source, struct_source, union_source
    return st.one_of(struct_source(), union_source(), array_source())


@settings(max_examples=20, deadline=None)
@given(text=_random_descriptions(), seed=st.integers(0, 10**6))
def test_random_descriptions(text, seed):
    subject = Subject("random", text, "row_t")
    fast, plain = subject.build(), subject.build(False)
    rng = random.Random(seed)
    injector = ErrorInjector(0.3)
    data = b"".join(injector.maybe_corrupt(record, rng) for record in
                    generate_records(fast, "row_t", 12, rng))
    for op, tracked in [(op, DEFAULT_TRACKED) for op in OPS] + [("accum", 2)]:
        want = outcome(plain, data, op, "row_t", tracked=tracked)
        for mode in RANDOM_MODES:
            got = outcome(fast, data, op, "row_t", mode, window=7,
                          tracked=tracked)
            assert (got.result, got.stats) == (want.result, want.stats), \
                (op, mode, tracked)
