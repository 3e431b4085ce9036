"""Differential sweep for the bounded-memory streaming subsystem.

``records_stream`` must be observationally identical to the slurped
``records`` path — same reps, same parse-descriptor summaries — across
the gallery, both engines, serial and parallel, every window size
(including windows smaller than one record, which force a record to
span refill boundaries), and a truncated final record.  On top of the
equivalence, the memory bound itself is asserted: streaming an input
many times the window keeps peak buffered bytes within 2x the window
(via the ``stream.high_water`` metric).
"""

import io
import os
import random
import threading
import time

import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked-in image has hypothesis
    HAVE_HYPOTHESIS = False

from repro import gallery, observe
from repro.core.errors import ErrCode, PadsError
from repro.core.io import NewlineRecords, StreamSource
from repro.execute import ExecOptions, run
from repro.stream import open_stream, records_stream
from repro.tools.accum import Accumulator
from repro.tools.datagen import clf_workload

from .test_codegen import pd_summary
from .test_differential import CASES

WINDOWS = [64, 256, 4096, 1 << 20]


@pytest.fixture(scope="module")
def cases():
    return {name: build() for name, build in CASES.items()}


def slurped(engine, data, rtype):
    return [(r, pd_summary(p)) for r, p in engine.records(data, rtype)]


def streamed(engine, data, rtype, **opts):
    return [(r, pd_summary(p))
            for r, p in engine.records_stream(io.BytesIO(data), rtype,
                                              **opts)]


@pytest.mark.parametrize("name", list(CASES))
class TestStreamMatchesSlurp:
    def test_every_window_both_engines(self, cases, name):
        interp, gen, data, rtype = cases[name]
        base = slurped(interp, data, rtype)
        assert base, "empty case would vacuously pass"
        for engine in (interp, gen):
            for window in WINDOWS:
                assert streamed(engine, data, rtype, window=window) == base, \
                    f"window={window}"

    def test_truncated_final_record(self, cases, name):
        interp, _gen, data, rtype = cases[name]
        cut = data[:len(data) - len(data) % 64 - 31]  # mid-record, mid-window
        base = slurped(interp, cut, rtype)
        for window in (64, 4096):
            assert streamed(interp, cut, rtype, window=window) == base

    def test_stats_match_slurped(self, cases, name):
        # Deterministic stats projection: identical whether the bytes
        # arrived all at once or through a sliding window.
        interp, _gen, data, rtype = cases[name]
        with observe.observed() as obs:
            list(interp.records(data, rtype))
        base = obs.stats(deterministic=True)
        with observe.observed() as obs:
            list(interp.records_stream(io.BytesIO(data), rtype, window=256))
        doc = obs.stats(deterministic=True)
        assert doc["records"] == base["records"]
        assert doc["errors"] == base["errors"]
        assert doc["stream"]["refills"] > 0
        assert doc["stream"]["high_water"] > 0
        grid = obs.stats()["batch"]
        if grid["batches"]:
            # A description with a batch kernel: the record loop's grid
            # block step ran over the window's refills, and its counters
            # account for every record.
            assert grid["records"] + grid["fallback_records"] \
                == doc["records"]["total"]


if HAVE_HYPOTHESIS:
    _HYPO_CASE = {}

    def _hypo_case():
        # Build lazily (and once): hypothesis re-invokes the test body.
        if not _HYPO_CASE:
            interp = gallery.load_clf()
            data = clf_workload(40, random.Random(5))
            _HYPO_CASE["case"] = (interp, data,
                                  slurped(interp, data, "entry_t"))
        return _HYPO_CASE["case"]

    class TestRandomWindows:
        @settings(max_examples=40, deadline=None)
        @given(window=st.integers(min_value=1, max_value=4097))
        def test_any_window_agrees(self, window):
            # Every window size puts the refill boundary somewhere new
            # inside some record; none of them may change the parse.
            interp, data, base = _hypo_case()
            assert streamed(interp, data, "entry_t", window=window) == base


class TestBoundedMemory:
    def test_high_water_stays_within_twice_the_window(self):
        window = 1 << 14
        data = clf_workload(2500, random.Random(6))  # ~20x the window
        assert len(data) >= 10 * window
        interp = gallery.load_clf()
        with observe.observed() as obs:
            out = list(interp.records_stream(io.BytesIO(data), "entry_t",
                                             window=window))
        stream = obs.stats(deterministic=True)["stream"]
        assert stream["high_water"] <= 2 * window, stream
        assert stream["refills"] >= len(data) // window
        # ...and the bounded run still parsed everything, identically.
        assert [r for r, _ in out] == \
            [r for r, _ in interp.records(data, "entry_t")]

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


def _par_stream(engine, data, op, rtype=None):
    res = run(engine, io.BytesIO(data), op, rtype, ExecOptions(jobs=3))
    assert res.mode == "parallel-stream", res.reason
    return res


class TestParallelStream:
    @pytest.fixture(autouse=True)
    def _clean_pools(self, monkeypatch):
        from repro import parallel
        parallel.shutdown()
        # Small windows, so a few hundred records span several chunks.
        monkeypatch.setattr(parallel, "STREAM_CHUNK_BYTES", 2048)
        yield
        parallel.shutdown()

    def test_records_match_serial(self, cases):
        interp, gen, data, rtype = cases["clf"]
        base = slurped(interp, data, rtype)
        for engine in (interp, gen):
            got = [(r, pd_summary(p)) for r, p in
                   _par_stream(engine, data, "records", rtype).pairs]
            assert got == base

    def test_count_and_accumulate_match(self, cases):
        interp, _gen, data, rtype = cases["clf"]
        expected = interp.count_records(data)
        assert _par_stream(interp, data, "count").count == expected
        acc = Accumulator(interp.node(rtype), "<top>", 1000)
        for rep, pd in interp.records(data, rtype):
            acc.add(rep, pd)
        res = _par_stream(interp, data, "accum", rtype)
        assert res.tally.records == expected
        assert res.acc.full_report() == acc.full_report()

    def test_unchunkable_stream_is_an_explicit_error(self, cases):
        interp, _gen, data, rtype = cases["call_detail"]
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


def _reference(engine):
    """``engine`` rebuilt with ``fastpath=False``: no compiled fast
    function, so every record takes the general per-record path."""
    from repro.codegen import compile_generated
    from repro.core.api import compile_description
    build = compile_generated if hasattr(engine, "module") \
        else compile_description
    return build(engine.source_text, ambient=engine.ambient,
                 discipline=engine.discipline, fastpath=False,
                 limits=engine.limits)


def _outcome(pairs):
    """Reps, pd summaries and locations, plus the first error's record
    as the vetting tally reports it."""
    from repro.core.errors import ErrorTally
    tally, out = ErrorTally(), []
    for rep, pd in pairs:
        tally.add(pd)
        out.append((rep, pd_summary(pd), pd.loc))
    first = tally.first_error_loc
    return out, None if first is None else first.record


def _crlf_unterminated(data):
    """CRLF-terminated records whose last record has no terminator."""
    return data.replace(b"\n", b"\r\n")[:-2]


@pytest.fixture(scope="module")
def references(cases):
    return {name: (_reference(interp), _reference(gen))
            for name, (interp, gen, _data, _rtype) in cases.items()}


@pytest.mark.parametrize("engine", [0, 1], ids=["interp", "source"])
@pytest.mark.parametrize("name", list(CASES))
class TestSharedRecordLoop:
    def _pair(self, cases, references, name, engine):
        fast = cases[name][engine]
        ref = references[name][engine]
        return fast, ref, cases[name][2], cases[name][3]

    def test_matches_the_reference_and_takes_the_fast_path(
            self, cases, references, name, engine):
        fast, ref, data, rtype = self._pair(cases, references, name, engine)
        with observe.observed() as obs:
            got = _outcome(fast.records(data, rtype))
        assert got == _outcome(ref.records(data, rtype))
        assert obs.stats()["fastpath"][rtype]["hit"] > 0

    def test_windows_that_split_records(self, cases, references, name,
                                        engine):
        fast, ref, data, rtype = self._pair(cases, references, name, engine)
        want = _outcome(ref.records(data, rtype))
        for window in (1, 7, 64):
            src = open_stream(io.BytesIO(data), fast.discipline,
                              window=window)
            assert _outcome(fast.records_stream(src, rtype)) == want, window

    def test_record_index_after_partial_iteration(self, cases, references,
                                                  name, engine):
        import itertools
        fast, ref, data, rtype = self._pair(cases, references, name, engine)
        for k in (1, 7, 40):
            seen = []
            for desc in (fast, ref):
                src = desc.open(data)
                pairs = list(itertools.islice(desc.records(src, rtype), k))
                seen.append((_outcome(pairs), src.record_idx, src.pos))
            assert seen[0] == seen[1], k

    def test_crlf_and_unterminated_final_record(self, cases, references,
                                                name, engine):
        fast, ref, data, rtype = self._pair(cases, references, name, engine)
        if name == "call_detail":
            pytest.skip("fixed-width records have no terminator")
        data = _crlf_unterminated(data)
        want = _outcome(ref.records(data, rtype))
        assert _outcome(fast.records(data, rtype)) == want
        src = open_stream(io.BytesIO(data), fast.discipline, window=7)
        assert _outcome(fast.records_stream(src, rtype)) == want

    def test_index_sidecar_identical(self, cases, references, name, engine,
                                     tmp_path):
        from repro.durable import index_path_for
        fast, ref, data, rtype = self._pair(cases, references, name, engine)
        path = tmp_path / "input.dat"
        path.write_bytes(data)
        sidecars = []
        for desc in (fast, ref):
            got = _outcome(desc.records_stream(str(path), rtype, index=True))
            sidecars.append(open(index_path_for(str(path)), "rb").read())
            os.remove(index_path_for(str(path)))
        assert got == _outcome(ref.records(data, rtype))
        assert sidecars[0] == sidecars[1]

    def test_error_budget_and_tracer(self, cases, references, name,
                                     engine):
        """An error budget runs the record-boundary guard before every
        record; a tracer keeps every build on its general parse (the
        only one emitting per-field events).  Neither changes a result
        or a trace event."""
        from repro.core.limits import ParseLimits
        fast, ref, data, rtype = self._pair(cases, references, name, engine)
        for d in (fast, ref):
            d.limits = ParseLimits(max_errors=3)
        try:
            got = _outcome(fast.records(data, rtype))
            assert got == _outcome(ref.records(data, rtype))
        finally:
            fast.limits = ref.limits = None
        if name != "call_detail":  # the call-detail sample is clean
            assert got[0][-1][1][2] == ErrCode.ERROR_BUDGET_EXCEEDED
        with observe.observed(trace=True) as obs:
            got = _outcome(fast.records(data, rtype))
        events = list(obs.tracer.events)
        # A traced pass never takes the fast path.
        assert not obs.stats()["fastpath"]
        with observe.observed(trace=True) as obs:
            assert got == _outcome(ref.records(data, rtype))
        assert events == list(obs.tracer.events)


class TestNonRecordTypeInTheLoop:
    """A type not declared ``Precord`` is still read record-at-a-time:
    the loop opens the record scope and runs the general parser."""

    @pytest.mark.parametrize("engine", [0, 1], ids=["interp", "source"])
    def test_matches_the_reference(self, cases, references, engine):
        fast, ref = cases["sirius"][engine], references["sirius"][engine]
        data = cases["sirius"][2]
        got = _outcome(fast.records(data, "order_header_t"))
        assert got == _outcome(ref.records(data, "order_header_t"))
        # The events after the header are data past the struct.
        assert got[0] and all(summary[1] for _rep, summary, _loc in got[0])
