"""Tests for :mod:`repro.observe` — metrics, tracing, and the merge
property the parallel engine relies on: metering the chunks of *any*
split of a record stream and merging the per-chunk registries yields the
same metrics as metering the whole stream.
"""

import io
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_description, gallery, observe
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SIZE_BUCKETS,
)
from repro.observe.trace import Tracer
from repro.execute import Fold
from repro.parallel import drive

DESC = """
Precord Pstruct entry_t {
  Puint32 a;
  '|';
  Puint32 b;
  '|';
  Pstring(:'|':) name;
};
Psource Parray src_t { entry_t[]; };
"""


def make_lines(n):
    """A workload with a deterministic sprinkling of bad records."""
    lines = []
    for i in range(n):
        if i % 7 == 3:
            lines.append(f"{i}|x|bad{i}")       # INVALID_INT on b
        elif i % 11 == 5:
            lines.append(f"junk line {i}")      # panics
        else:
            lines.append(f"{i}|{i * 2}|ok{i}")
    return lines


@pytest.fixture(scope="module")
def desc():
    return compile_description(DESC)


# -- metric primitives ---------------------------------------------------------


class TestMetrics:
    def test_counter_inc_and_merge(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(4)
        b.inc(2)
        a.merge(b)
        assert a.snapshot() == 7

    def test_gauge_merges_to_max(self):
        a, b = Gauge(), Gauge()
        a.set(3.0)
        b.set(9.0)
        a.merge(b)
        assert a.snapshot() == 9.0

    def test_histogram_buckets_and_merge(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            a.observe(v)
        b.observe(0.25)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"1": 2, "10": 1, "+Inf": 1}
        assert snap["sum"] == pytest.approx(55.75)

    def test_histogram_bucket_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_timing_histogram_deterministic_snapshot(self):
        h = Histogram(timing=True)
        h.observe(0.25)
        assert h.snapshot(deterministic=True) == {"count": 1}
        assert h.snapshot()["sum"] == pytest.approx(0.25)

    def test_registry_merge_does_not_share_state(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("x", "l").inc(3)
        b.histogram("h", bounds=SIZE_BUCKETS).observe(20)
        a.merge(b)
        b.counter("x", "l").inc(10)
        assert a.value("x", "l") == 3
        assert b.value("x", "l") == 13

    def test_registry_pickles(self):
        reg = MetricsRegistry()
        reg.counter("records.total").inc(5)
        reg.histogram("latency", "t", timing=True).observe(1e-4)
        reg.gauge("hwm").set(7.0)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()

    def test_nested_snapshot_layout(self):
        reg = MetricsRegistry()
        reg.counter("errors.by_field", "top.a", "INVALID_INT").inc(2)
        reg.counter("records.total").inc()
        snap = reg.snapshot()
        assert snap["errors.by_field"] == {"top.a": {"INVALID_INT": 2}}
        assert snap["records.total"] == 1


# -- the merge property --------------------------------------------------------


class TestMergeProperty:
    """Merging per-chunk registries over any split of a stream equals
    metering the whole stream (the parallel engine's metrics guarantee)."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_any_split_merges_to_whole(self, desc, data):
        lines = make_lines(40)
        cuts = data.draw(st.lists(st.integers(0, len(lines)),
                                  max_size=6).map(sorted))
        bounds = [0] + cuts + [len(lines)]
        chunks = ["".join(f"{ln}\n" for ln in lines[a:b])
                  for a, b in zip(bounds, bounds[1:])]

        whole = MetricsRegistry()
        with observe.observed(whole):
            for _ in desc.records("".join(f"{ln}\n" for ln in lines),
                                  "entry_t"):
                pass

        merged = MetricsRegistry()
        for chunk in chunks:
            part = MetricsRegistry()
            with observe.observed(part):
                for _ in desc.records(chunk, "entry_t"):
                    pass
            merged.merge(part)

        assert merged.snapshot(deterministic=True) == \
            whole.snapshot(deterministic=True)


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_enter_exit_paths_nest(self, desc):
        with observe.observed(trace=True) as obs:
            desc.parse("1|2|x\n", "entry_t")
        kinds = [(e.kind, e.path) for e in obs.tracer.events]
        assert ("enter", "a") in kinds and ("exit", "a") in kinds
        assert ("enter", "name") in kinds
        spans = {e.path: (e.start, e.end) for e in obs.tracer.events
                 if e.kind == "exit"}
        assert spans["a"] == (0, 1)
        assert spans["b"] == (2, 3)

    def test_record_events_cover_stream(self, desc):
        data = "".join(f"{ln}\n" for ln in make_lines(12))
        with observe.observed(trace=True) as obs:
            list(desc.records(data, "entry_t"))
        recs = [e for e in obs.tracer.events if e.kind == "record"]
        assert len(recs) == 12
        assert [e.record for e in recs] == list(range(12))
        assert {e.outcome for e in recs} == {"ok", "err", "panic"}

    def test_bounded_buffer_counts_drops(self):
        tr = Tracer(max_events=2)
        for i in range(5):
            tr.record_event("t", i, i + 1, i, "ok")
        assert len(tr) == 2 and tr.dropped == 3

    def test_jsonl_sink_streams(self, desc):
        sink = io.StringIO()
        with observe.observed(trace_sink=sink):
            desc.parse("1|2|x\n", "entry_t")
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert lines and {"kind", "path", "type", "start", "end",
                          "record", "outcome", "err"} <= set(lines[0])

    def test_tracer_forces_serial_fallback(self, desc):
        data = "".join(f"{ln}\n" for ln in make_lines(30))
        with observe.observed(trace=True) as obs:
            pairs, _hdr, _why = drive(desc, data, Fold("records", "entry_t"), 4)
            out = list(pairs)
        # Worker-side events could never reach this tracer; a complete
        # event stream proves the serial path ran.
        recs = [e for e in obs.tracer.events if e.kind == "record"]
        assert len(recs) == len(out) == 30


# -- observer lifecycle --------------------------------------------------------


class TestObserver:
    def test_observed_installs_and_restores(self):
        assert observe.CURRENT is None
        with observe.observed() as outer:
            assert observe.CURRENT is outer
            with observe.observed() as inner:
                assert observe.CURRENT is inner
            assert observe.CURRENT is outer
        assert observe.CURRENT is None

    def test_count_is_noop_when_disabled(self):
        observe.count("resync.literal")  # must not raise, must not install
        assert observe.CURRENT is None

    def test_stats_shape(self, desc):
        data = "".join(f"{ln}\n" for ln in make_lines(20))
        with observe.observed() as obs:
            list(desc.records(data, "entry_t"))
        s = obs.stats()
        assert s["records"]["total"] == 20
        assert s["records"]["bad"] == s["records"]["partial"] + \
            s["records"]["panic"]
        assert s["bytes"]["total"] == len(data)
        assert "INVALID_INT" in s["errors"]["by_code"]
        assert any(path.endswith(".b")
                   for path in s["errors"]["by_field"])
        assert s["throughput"]["wall_seconds"] > 0
        assert s["latency"]["entry_t"]["count"] == 20
        assert json.dumps(s)  # JSON-serialisable as-is

    def test_summary_renders(self, desc):
        with observe.observed() as obs:
            list(desc.records("1|2|x\n", "entry_t"))
        text = obs.summary()
        assert "records: 1" in text and "records/sec" in text

    def test_resync_counters_fire(self):
        d = compile_description("""
Precord Pstruct pair_t {
  Puint32 a;
  '|';
  Puint32 b;
  ';';
};
Psource Parray src_t { pair_t[]; };
""")
        with observe.observed() as obs:
            list(d.records("1|2;\n3 garbage |4;\n", "pair_t"))
        resync = obs.stats()["resync"]
        assert resync["literal"] + resync["field_skip"] > 0


class TestFastpathCounters:
    """The metered record loop counts, per record type, the records the
    compiled fast function parsed (``hit``) and the ones it handed to
    the general parser (``miss``)."""

    @staticmethod
    def _sirius(n):
        import random
        from repro.tools.datagen import sirius_workload
        # The benchmark's shape: 1 sort violation + 53 syntax errors.
        return sirius_workload(n, random.Random(1)).split(b"\n", 1)[1]

    @pytest.mark.parametrize("engine", ["interp", "source"])
    def test_sirius_hits_and_misses(self, engine):
        d = compile_description(gallery.SIRIUS)
        with observe.observed() as obs:
            n = sum(1 for _ in d.records(self._sirius(1000), "entry_t"))
        assert n == 1000
        assert obs.stats()["fastpath"] == {
            "entry_t": {"hit": n - 54, "miss": 54}}
        assert "fastpath: entry_t: 946 hit, 54 miss" in obs.summary()
        assert "fastpath" not in obs.stats(deterministic=True)

    def test_absent_when_the_fast_path_does_not_apply(self):
        from repro.core.masks import Mask, P_CheckAndSet, P_Set
        data = self._sirius(600)
        ref = compile_description(gallery.SIRIUS, fastpath=False)
        fast = compile_description(gallery.SIRIUS)
        per_field = Mask(P_CheckAndSet, fields={"header": Mask(P_Set)})
        for d, kwargs in ((ref, {}), (fast, {"mask": per_field}),
                          (fast, {"trace": True})):
            with observe.observed(trace=kwargs.pop("trace", False)) as obs:
                list(d.records(data, "entry_t", kwargs.get("mask")))
            assert obs.stats()["fastpath"] == {}

    def test_padsc_stats_print_them(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc_file = tmp_path / "sirius.pads"
        desc_file.write_text(gallery.SIRIUS)
        data = tmp_path / "orders.dat"
        data.write_bytes(self._sirius(600))
        assert main(["accum", str(desc_file), str(data), "--record",
                     "entry_t", "--stats"]) == 0
        assert "fastpath: entry_t: 546 hit, 54 miss" in \
            capsys.readouterr().err
