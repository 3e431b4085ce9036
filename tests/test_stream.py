"""The bounded-memory streaming subsystem.

``records_stream`` must be observationally identical to the slurped
``records`` path — same reps, same parse-descriptor summaries — across
the gallery, serial and parallel, every window size (including windows
smaller than one record, which force a record to span refill
boundaries), and a truncated final record; those comparisons are the
oracle's (``tests/test_oracle.py``) ``stream`` and ``parallel-stream``
modes.  On top of the equivalence, the memory bound itself is asserted:
streaming an input many times the window keeps peak buffered bytes
within 2x the window (via the ``stream.high_water`` metric).  Live pipes
and growing files are fed here.
"""

import io
import itertools
import os
import random
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import gallery, observe
from repro.core.errors import ErrCode, PadsError
from repro.core.io import NewlineRecords, StreamSource
from repro.execute import ExecOptions, run
from repro.stream import count_records_stream, open_stream, records_stream
from repro.tools.datagen import clf_workload

from . import test_oracle as oracle
from .test_codegen import pd_summary
from .test_differential import CASES

WINDOWS = [64, 256, 4096, 1 << 20]
CLF_40 = oracle.data_key("clf-40", lambda: clf_workload(40, random.Random(5)))


def agree(name, op, mode, tmp_path, key=None, **kw):
    subject, case_key = CASES[name]
    return oracle.agree(subject, key or case_key, op, mode, tmp_path, **kw)


def slurped(engine, data, rtype):
    return [(r, pd_summary(p)) for r, p in engine.records(data, rtype)]


def _truncated(name):
    """``name``'s data cut mid-record, mid-window."""
    subject, key = CASES[name]

    def cut():
        data = oracle._DATA[key]()
        return data[:len(data) - len(data) % 64 - 31]
    return oracle.data_key(f"{key}-cut", cut)


@pytest.mark.parametrize("name", list(CASES))
class TestStreamMatchesSlurp:
    def test_every_window_both_engines(self, name, tmp_path):
        for window in WINDOWS:
            agree(name, "records", "stream", tmp_path, window=window)

    def test_truncated_final_record(self, name, tmp_path):
        for window in (64, 4096):
            agree(name, "records", "stream", tmp_path, _truncated(name),
                  window=window)

    def test_stats_match_slurped(self, name, tmp_path):
        # Deterministic stats projection: identical whether the bytes
        # arrived all at once or through a sliding window; a description
        # with a batch kernel takes the grid block step over the
        # window's refills, accounting for every record.
        subject, _key = CASES[name]
        grid = isinstance(subject.build().grid(subject.rtype), tuple)
        got = agree(name, "records", "stream", tmp_path, window=256,
                    grid=grid)
        assert got.window[0] > 0 and got.window[2] > 0


class TestRandomWindows:
    @settings(max_examples=40, deadline=None)
    @given(window=st.integers(min_value=1, max_value=4097))
    def test_any_window_agrees(self, window, tmp_path_factory):
        # Every window size puts the refill boundary somewhere new
        # inside some record; none of them may change the parse.
        agree("clf", "records", "stream", tmp_path_factory.mktemp("window"),
              CLF_40, window=window)


class TestBoundedMemory:
    def test_high_water_stays_within_twice_the_window(self, tmp_path):
        window = 1 << 14
        key = oracle.data_key("clf-2500", lambda: clf_workload(
            2500, random.Random(6)))
        size = len(oracle._DATA[key]())
        assert size >= 10 * window  # ~20x the window
        # ...and the bounded run parses everything, identically.
        got = agree("clf", "records", "stream", tmp_path, key, window=window)
        assert got.window[2] <= 2 * window and got.window[0] >= size // window

    def test_source_counters_mirror_metrics(self):
        data = b"a,1\nb,2\nc,3\n" * 50
        src = StreamSource(io.BytesIO(data), NewlineRecords(), window=16)
        with src:
            n = 0
            while src.begin_record():
                src.end_record()
                n += 1
        assert n == 150
        assert src.refills > 0
        assert 0 < src.high_water <= 2 * 16


@pytest.mark.usefixtures("pool_chunks")
class TestParallelStream:
    def test_records_match_serial(self, tmp_path):
        agree("clf", "records", "parallel-stream", tmp_path,
              expect="parallel-stream")

    def test_count_and_accumulate_match(self, tmp_path):
        for op in ("count", "accum"):
            agree("clf", op, "parallel-stream", tmp_path,
                  expect="parallel-stream")

    def test_unchunkable_stream_is_an_explicit_error(self):
        sirius_like = gallery.load_sirius()
        from repro.core.io import LengthPrefixedRecords
        sirius_like.discipline = LengthPrefixedRecords(4)
        with pytest.raises(PadsError, match="cannot split"):
            list(run(sirius_like, io.BytesIO(b""), "records", "entry_t",
                     ExecOptions(jobs=3)).pairs)


class TestLiveSources:
    def test_pipe(self):
        interp = gallery.load_clf()
        data = clf_workload(50, random.Random(7))
        base = slurped(interp, data, "entry_t")
        r_fd, w_fd = os.pipe()

        def feed():
            with os.fdopen(w_fd, "wb") as w:
                for i in range(0, len(data), 777):
                    w.write(data[i:i + 777])
                    w.flush()

        t = threading.Thread(target=feed)
        t.start()
        try:
            got = [(r, pd_summary(p)) for r, p in
                   records_stream(interp, r_fd, "entry_t", window=4096)]
        finally:
            t.join()
        assert got == base

    def test_follow_growing_file(self, tmp_path):
        interp = gallery.load_clf()
        data = clf_workload(60, random.Random(8))
        lines = data.splitlines(keepends=True)
        path = tmp_path / "grow.log"
        with open(path, "wb") as w:
            w.writelines(lines[:20])

        def grow():
            time.sleep(0.15)
            with open(path, "ab") as w:
                w.writelines(lines[20:])

        t = threading.Thread(target=grow)
        t.start()
        try:
            with observe.observed() as obs:
                got = [(r, pd_summary(p)) for r, p in
                       records_stream(interp, str(path), "entry_t",
                                      follow=True, idle_timeout=1.0,
                                      poll_interval=0.02)]
        finally:
            t.join()
        assert got == slurped(interp, data, "entry_t")
        # the reader must actually have waited on the growing file
        assert obs.stats(deterministic=True)["stream"]["stalls"] > 0

    def test_open_stream_rejects_unreadable(self):
        with pytest.raises(PadsError, match="cannot stream"):
            open_stream(3.14, NewlineRecords())

    def test_open_stream_passthrough(self):
        src = StreamSource(io.BytesIO(b"x\n"), NewlineRecords())
        assert open_stream(src, NewlineRecords()) is src


# ---------------------------------------------------------------------------
# The shared record loop against the per-record reference path
# ---------------------------------------------------------------------------


def _crlf(name):
    """``name``'s records CRLF-terminated, the last one unterminated."""
    _subject, key = CASES[name]
    return oracle.data_key(f"{key}-crlf", lambda: oracle._DATA[key]()
                           .replace(b"\n", b"\r\n")[:-2])


#: ``engine`` picks each case's input: bytes in memory (``interp``), or
#: an open Source, the file on disk, other windows, the count (``source``).
INPUTS = {"serial": ("serial", "source"), "windows": ((1, 7, 64), (3, 17, 200))}


@pytest.mark.parametrize("engine", [0, 1], ids=["interp", "source"])
@pytest.mark.parametrize("name", list(CASES))
class TestSharedRecordLoop:
    def test_matches_the_reference_and_takes_the_fast_path(
            self, name, engine, tmp_path):
        mode = INPUTS["serial"][engine]
        assert agree(name, "records", mode, tmp_path).hits > 0

    def test_windows_that_split_records(self, name, engine, tmp_path):
        for window in INPUTS["windows"][engine]:
            agree(name, "records", "stream", tmp_path, window=window)

    def test_record_index_after_partial_iteration(self, name, engine,
                                                  tmp_path):
        subject, key = CASES[name]
        data = oracle._DATA[key]()
        path = tmp_path / "input.dat"
        path.write_bytes(data)
        for k in (1, 7, 40):
            seen = []
            for desc in (subject.build(), subject.build(False)):
                src = desc.open_file(str(path)) if engine else desc.open(data)
                pairs = itertools.islice(desc.records(src, subject.rtype), k)
                seen.append(([(rep, oracle.pd_tree(pd)) for rep, pd in pairs],
                             src.record_idx, src.pos))
            assert seen[0] == seen[1], k

    def test_crlf_and_unterminated_final_record(self, name, engine,
                                                tmp_path):
        if name == "call_detail":
            pytest.skip("fixed-width records have no terminator")
        agree(name, "records", INPUTS["serial"][engine], tmp_path,
              _crlf(name))
        agree(name, "records", "stream", tmp_path, _crlf(name),
              window=INPUTS["windows"][engine][1])

    def test_index_sidecar_identical(self, name, engine, tmp_path):
        from repro.durable import index_path_for
        subject, key = CASES[name]
        path = tmp_path / "input.dat"
        path.write_bytes(oracle._DATA[key]())
        want = oracle.reference(subject, key, "records").result
        sidecars = []
        for desc in (subject.build(), subject.build(False)):
            if engine:  # the counting pass builds the index too
                assert count_records_stream(desc, str(path),
                                            index=True) == len(want)
            else:
                got = [(rep, oracle.pd_tree(pd)) for rep, pd in
                       desc.records_stream(str(path), subject.rtype,
                                           index=True)]
                assert got == want
            sidecars.append(open(index_path_for(str(path)), "rb").read())
            os.remove(index_path_for(str(path)))
        assert sidecars[0] == sidecars[1]

    def test_error_budget_and_tracer(self, name, engine, tmp_path):
        """An error budget runs the record-boundary guard before every
        record; a tracer keeps every build on its general parse (the
        only one emitting per-field events).  Neither changes a result
        or a trace event."""
        got = agree(name, "records", INPUTS["serial"][engine], tmp_path,
                    limits="errors-3")
        if name != "call_detail":  # the call-detail sample is clean
            assert got.result[-1][1][2] == ErrCode.ERROR_BUDGET_EXCEEDED
        subject, key = CASES[name]
        events = []
        for desc in (subject.build(), subject.build(False)):
            with observe.observed(trace=True) as obs:
                pairs = [(rep, oracle.pd_tree(pd)) for rep, pd in
                         desc.records(oracle._DATA[key](), subject.rtype)]
            # A traced pass never takes the fast path.
            assert not obs.stats()["fastpath"]
            events.append((pairs, list(obs.tracer.events)))
        assert events[0] == events[1]


class TestNonRecordTypeInTheLoop:
    """A type not declared ``Precord`` is still read record-at-a-time:
    the loop opens the record scope and runs the general parser."""

    @pytest.mark.parametrize("engine", [0, 1], ids=["interp", "source"])
    def test_matches_the_reference(self, engine, tmp_path):
        subject, key = CASES["sirius"]
        header = replace(subject, rtype="order_header_t")
        got = oracle.agree(header, key, "records", INPUTS["serial"][engine],
                           tmp_path)
        # The events after the header are data past the struct.
        assert got.result and all(tree[1] for _rep, tree in got.result)
