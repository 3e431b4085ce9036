"""The execution planner (:mod:`repro.execute`): one decision table for
:func:`choose_engine`, plus :func:`run` returning the same results on
every mode it picks.

The table crosses op × {jobs, follow, window, checkpoint, header,
limits, tracer} × {call-detail (fixed-width, with a batch kernel), CLF
(newline records, dynamic fields)} and pins the chosen mode, the
reason it gives (which says whether the record loop's grid block step
runs), and every flag-combination diagnostic — all raised from the
library, so ``padsc`` and library callers share them.
"""

import contextlib
import io
import pathlib
import random

import pytest

from repro import compile_description, gallery, observe
from repro.core.errors import PadsError
from repro.core.io import FixedWidthRecords, LengthPrefixedRecords, Source
from repro.core.limits import ParseLimits
from repro.execute import OPS, ExecOptions, choose_engine, run
from repro.tools.datagen import (call_detail_workload, clf_workload,
                                 sirius_workload)

from . import test_oracle as oracle

FILE = pathlib.Path("input.dat")  # choose_engine never opens its input


def _desc(name, limits=None, fastpath=True):
    if name == "calls":
        return compile_description(
            gallery.CALL_DETAIL, ambient="binary", limits=limits,
            discipline=FixedWidthRecords(gallery.CALL_DETAIL_WIDTH),
            fastpath=fastpath)
    return compile_description(gallery.CLF, limits=limits,
                               fastpath=fastpath)


def _input(kind):
    return {"file": FILE, "stdin": io.BytesIO(b""), "bytes": b"",
            "source": Source(b"")}[kind]


RECORD = {"calls": "call_t", "clf": "entry_t"}
CALLS_GRID = "24-byte columns at 24-byte pitch"
CLF_WHY = "record width is not static"
BUDGET = ParseLimits(max_record_bytes=1 << 16)
ERROR_BUDGET = ParseLimits(max_errors=5)

#: (id, description, op, input, ExecOptions kwargs, extra) -> expected
#: ``(mode, reason substring)``, or ``PadsError`` (``TypeError`` for an
#: option that does not exist) with a substring.
#: ``extra`` may carry ``header``, ``limits`` and ``tracer``.
TABLE = [
    # every in-process mode runs the one record loop; the reason says
    # whether its grid block step runs
    ("calls-records", "calls", "records", "file", {}, {},
     ("serial", CALLS_GRID)),
    ("calls-accum", "calls", "accum", "file", {}, {}, ("serial", CALLS_GRID)),
    ("calls-count", "calls", "count", "file", {}, {},
     ("serial", "FixedWidthRecords: counted by arithmetic")),
    ("calls-stdin", "calls", "records", "stdin", {}, {},
     ("stream", CALLS_GRID)),
    ("calls-bytes", "calls", "accum", "bytes", {}, {},
     ("serial", CALLS_GRID)),
    ("clf-records", "clf", "records", "file", {}, {}, ("serial", CLF_WHY)),
    ("clf-accum", "clf", "accum", "file", {}, {}, ("serial", CLF_WHY)),
    ("clf-count", "clf", "count", "file", {}, {},
     ("serial", "NewlineRecords: counted by arithmetic")),
    ("clf-stdin", "clf", "accum", "stdin", {}, {}, ("stream", CLF_WHY)),
    ("clf-source", "clf", "records", "source", {}, {},
     ("serial", CLF_WHY)),
    ("calls-source", "calls", "records", "source", {}, {},
     ("serial", CALLS_GRID)),
    # window sizes only the sliding window; it forces nothing
    ("calls-window", "calls", "records", "stdin", {"window": 4096}, {},
     ("stream", CALLS_GRID)),
    ("clf-window", "clf", "records", "stdin", {"window": 4096}, {},
     ("stream", CLF_WHY)),
    # follow tails read through the sliding window
    ("calls-follow", "calls", "records", "file", {"follow": 0.5}, {},
     ("stream", CALLS_GRID)),
    ("calls-follow-count", "calls", "count", "file", {"follow": -1.0}, {},
     ("stream", "counted by arithmetic")),
    # jobs
    ("calls-jobs", "calls", "records", "file", {"jobs": 2}, {},
     ("parallel", "--jobs 2")),
    ("clf-jobs-bytes", "clf", "count", "bytes", {"jobs": 3}, {},
     ("parallel", "--jobs 3")),
    ("clf-jobs-stdin", "clf", "accum", "stdin", {"jobs": 2}, {},
     ("parallel-stream", "--jobs 2")),
    ("calls-jobs-source", "calls", "records", "source", {"jobs": 2}, {},
     ("serial", "open Source")),
    ("clf-jobs-header", "clf", "accum", "file", {"jobs": 2},
     {"header": "entry_t"}, ("parallel", "--jobs 2")),
    # header: a serial prefix parse (accum only), then the same loop
    ("calls-header", "calls", "accum", "file", {}, {"header": "call_t"},
     ("serial", CALLS_GRID)),
    ("calls-header-stdin", "calls", "accum", "stdin", {},
     {"header": "call_t"}, ("stream", CALLS_GRID)),
    ("calls-header-records", "calls", "records", "file", {},
     {"header": "call_t"}, ("serial", CALLS_GRID)),
    # limits are accounted per record
    ("calls-limits", "calls", "records", "file", {}, {"limits": BUDGET},
     ("serial", "per record: parse limits attached")),
    ("calls-limits-count", "calls", "count", "bytes", {},
     {"limits": BUDGET}, ("serial", "parse limits attached")),
    ("clf-limits-jobs", "clf", "accum", "file", {"jobs": 2},
     {"limits": BUDGET}, ("parallel", "--jobs 2")),
    ("clf-errors-jobs", "clf", "accum", "file", {"jobs": 2},
     {"limits": ERROR_BUDGET}, ("serial", "max_errors")),
    # an active tracer pins one record at a time (count parses no fields)
    ("calls-tracer", "calls", "records", "file", {}, {"tracer": True},
     ("serial", "per record: active tracer")),
    ("calls-tracer-jobs", "calls", "accum", "file", {"jobs": 2},
     {"tracer": True}, ("serial", "stays on one core: active tracer")),
    ("clf-tracer-stdin-jobs", "clf", "records", "stdin", {"jobs": 2},
     {"tracer": True}, ("stream", "active tracer")),
    ("calls-tracer-count", "calls", "count", "file", {}, {"tracer": True},
     ("serial", "counted by arithmetic")),
    # checkpoints
    ("calls-checkpoint", "calls", "accum", "file", {"checkpoint": 100}, {},
     ("durable", "--checkpoint")),
    ("clf-resume", "clf", "count", "file", {"resume": True}, {},
     ("durable", "--resume")),
    ("clf-checkpoint-jobs-window", "clf", "records", "file",
     {"checkpoint": -1, "jobs": 2, "window": 4096}, {},
     ("durable", "--checkpoint")),
    # the flag-combination diagnostics
    ("jobs-0", "clf", "count", "file", {"jobs": 0}, {},
     (PadsError, "--jobs 0 makes no sense")),
    ("jobs-negative", "clf", "count", "file", {"jobs": -3}, {},
     (PadsError, "--jobs -3")),
    ("window-0", "clf", "count", "file", {"window": 0}, {},
     (PadsError, "--window 0 makes no sense")),
    ("follow-jobs", "clf", "count", "file", {"follow": -1.0, "jobs": 2}, {},
     (PadsError, "--follow tails an unbounded stream and cannot be "
                 "combined with --jobs")),
    ("checkpoint-follow", "clf", "count", "file",
     {"checkpoint": -1, "follow": -1.0}, {},
     (PadsError, "cannot be checkpointed")),
    ("checkpoint-stdin", "clf", "count", "stdin", {"checkpoint": -1}, {},
     (PadsError, "need a seekable file, not stdin")),
    ("resume-bytes", "clf", "count", "bytes", {"resume": True}, {},
     (PadsError, "need a seekable file")),
    ("checkpoint-header", "calls", "accum", "file", {"checkpoint": -1},
     {"header": "call_t"},
     (PadsError, "cannot be combined with --checkpoint/--resume")),
    ("header-jobs-stdin", "clf", "accum", "stdin", {"jobs": 2},
     {"header": "entry_t"},
     (PadsError, "cannot be combined with --jobs on stdin")),
    ("unknown-op", "clf", "fmt", "file", {}, {}, (PadsError, "unknown op")),
    # one record loop: there is no engine to pick
    ("engine-unknown", "clf", "count", "file", {"engine": "gpu"}, {},
     (TypeError, "unexpected keyword argument 'engine'")),
]


@pytest.mark.parametrize("name,op,kind,opts,extra,expect",
                         [row[1:] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_decision_table(name, op, kind, opts, extra, expect):
    desc = _desc(name, extra.get("limits"))

    def choose():
        return choose_engine(desc, _input(kind), op, RECORD[name],
                             ExecOptions(**opts), header=extra.get("header"))

    with (observe.observed(trace=True) if extra.get("tracer")
          else contextlib.nullcontext()):
        if expect[0] in (PadsError, TypeError):
            with pytest.raises(expect[0], match=expect[1].replace(
                    "(", r"\(").replace(")", r"\)")):
                choose()
            return
        mode, reason = choose()
    assert (mode, expect[1] in reason) == (expect[0], True), reason


# -- run(): one result shape, identical outcomes on every mode ------------------


@pytest.fixture(scope="module")
def calls_data():
    return call_detail_workload(300, random.Random(3))


@pytest.fixture(scope="module")
def clf_log():
    return clf_workload(300, random.Random(3))


#: name -> (oracle subject, oracle data key).
SUBJECTS = {
    "calls": (oracle.GALLERY["calldetail"], oracle.data_key(
        "calls-300", lambda: call_detail_workload(300, random.Random(3)))),
    "clf": (oracle.GALLERY["clf"], oracle.data_key(
        "clf-300-3", lambda: clf_workload(300, random.Random(3)))),
}


@pytest.mark.parametrize("name", ["calls", "clf"])
@pytest.mark.parametrize("mode,window", [
    ("serial", None), ("stream", 512), ("parallel", None),
    ("parallel-stream", None), ("durable", None),
], ids=["serial", "stream", "parallel", "parallel-stream", "durable"])
def test_run_agrees_with_the_serial_reference(tmp_path, pool_chunks, name,
                                              mode, window):
    """Every op through ``run`` on every mode (a file for the serial and
    parallel modes, stdin for the stream modes) against the oracle's
    serial reference."""
    subject, key = SUBJECTS[name]
    for op in OPS:
        oracle.agree(subject, key, op, "file" if mode == "serial" else mode,
                     tmp_path, window=window, expect=mode)


def test_run_accum_folds_header_then_records(clf_log):
    desc = _desc("clf")
    res = run(desc, clf_log, "accum", "entry_t", header="entry_t")
    assert res.mode == "serial"
    assert "<header>" in res.header_acc.full_report()
    assert res.tally.records == clf_log.count(b"\n") - 1


@pytest.mark.parametrize("limits", [None, ParseLimits(max_record_bytes=120)],
                         ids=["plain", "record-bytes"])
def test_parallel_header_on_a_file_too_small_to_split(tmp_path, limits):
    # No plan for 40 orders: the parallel driver folds them in process,
    # numbering records on from the header exactly as the serial run.
    desc = compile_description(gallery.SIRIUS, limits=limits)
    path = tmp_path / "orders.dat"
    path.write_bytes(sirius_workload(40, random.Random(20050612)))
    serial, par = (run(desc, path, "accum", "entry_t", ExecOptions(jobs=jobs),
                       header="summary_header_t") for jobs in (1, 2))
    assert (serial.mode, par.mode) == ("serial", "serial")
    assert par.reason.startswith("--jobs 2 stays on one core: ")
    assert serial.tally.first_error_loc is not None
    assert par.tally.first_error_loc == serial.tally.first_error_loc
    assert par.tally.first_error_code == serial.tally.first_error_code
    assert (par.tally.records, par.tally.bad_records, par.tally.by_code) == \
        (serial.tally.records, serial.tally.bad_records, serial.tally.by_code)
    assert par.acc.full_report() == serial.acc.full_report()
    assert par.header_acc.full_report() == serial.header_acc.full_report()


ROWS = "Precord Pstruct r_t { Puint32 n; };"


@pytest.mark.parametrize("on_file", [False, True], ids=["bytes", "file"])
def test_run_reports_the_serial_cursor_when_no_window_plan(tmp_path,
                                                           on_file):
    # choose_engine picks `parallel`, but 100 short records make no
    # window plan: the result names the mode that ran, and why.
    desc = compile_description(ROWS)
    data = b"".join(b"%d\n" % i for i in range(100))
    path = tmp_path / "rows.txt"
    path.write_bytes(data)
    assert choose_engine(desc, FILE, "tally", "r_t",
                         ExecOptions(jobs=2)).mode == "parallel"
    res = run(desc, path if on_file else data, "tally", "r_t",
              ExecOptions(jobs=2))
    assert res.mode == "serial"
    assert res.reason == ("--jobs 2 stays on one core: 290 bytes is too "
                          "small to split; per record: "
                          + desc.grid("r_t").reason)
    assert res.tally.records == 100


def test_run_reports_an_unindexed_length_prefixed_file(tmp_path):
    desc = compile_description(
        'Psource Pstruct rec_t { Pstring_ME(:"[a-z]+":) body; };',
        ambient="binary", discipline=LengthPrefixedRecords())
    path = tmp_path / "tlv.bin"
    path.write_bytes(b"".join(len(p).to_bytes(4, "big") + p
                              for p in (b"abcdefghij",) * 20000))
    res = run(desc, path, "count", options=ExecOptions(jobs=2))
    assert (res.mode, res.count) == ("serial", 20000)
    assert res.reason.startswith(
        "--jobs 2 stays on one core: LengthPrefixedRecords records have no "
        "scannable boundaries and no boundary index splits the file; ")


class _Stop(Exception):
    pass


def test_on_record_ends_an_in_process_fold(calls_data):
    desc = _desc("calls")
    seen = []

    def stop_after_five(pd, tally):
        seen.append(tally.records)
        if tally.records == 5:
            raise _Stop

    with pytest.raises(_Stop):
        run(desc, calls_data, "accum", "call_t", on_record=stop_after_five)
    assert seen == [1, 2, 3, 4, 5]
