"""Tests for ``repro.batch`` — the vectorized batch engine.

The batch engine's whole contract is "faster, never different": for
plan-proven column-regular descriptions it must yield the identical
``(rep, pd)`` stream — values, parse descriptors, error locations,
accumulators and deterministic metrics (modulo the ``batch.*``
counters) — that the cursor engines produce, and fall back to them
per-record wherever the grid assumption breaks.  This suite pins:

* the eligibility verdicts (engine- and plan-level) and their reasons;
* eligibility edges: zero-width ``Pcompute`` fields, nested fixed
  arrays, cp037/EBCDIC columns, width-mismatched disciplines;
* differential equality against serial, parallel and streaming cursor
  runs on clean, constraint-violating (fallback-forcing) and truncated
  inputs, through both the interpreted and generated engines;
* the newline-pitch grid: CRLF terminators, ragged lines, unterminated
  tails;
* the strict (``--engine batch``) contract and the counting floor;
* the worker-window helpers ``repro.parallel`` delegates to;
* a hypothesis sweep hammering random corruption, when available.
"""

import random

import pytest

from repro import compile_description, gallery, observe
from repro.batch import (
    batch_verdict,
    count_records_batch,
    records_batch,
    window_count,
    window_records,
)
from repro.codegen import compile_generated
from repro.core.errors import ErrorTally, PadsError
from repro.core.io import FixedWidthRecords, NewlineRecords
from repro.execute import run
from repro.plan import format_plan
from repro.stream import count_records_stream
from repro.tools.datagen import call_detail_workload

from .test_codegen import pd_summary
from .test_plan import EBCDIC_DESC

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

WIDTH = 24            # call_t static width
CALL_TYPE_OFF = 22    # call_type column: Ptypedef constraint t <= 4

#: Stats sections that legitimately differ between the engines: wall
#: clock (latency/throughput) and the batch engine's own counters.
_ENGINE_LOCAL = ("latency", "throughput", "batch")


def _scrub(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k not in _ENGINE_LOCAL}


def _fingerprint(pairs):
    """Everything the fallback contract promises is byte-identical."""
    return [(rep, pd_summary(pd), str(pd.loc)) for rep, pd in pairs]


def _assert_same_stream(got, want):
    got, want = list(got), list(want)
    assert [r for r, _ in got] == [r for r, _ in want]
    assert _fingerprint(got) == _fingerprint(want)


def _tally_fields(tally: ErrorTally):
    doc = []
    for name in ErrorTally.__slots__:
        value = getattr(tally, name)
        doc.append((name, str(value) if name == "first_error_loc" else value))
    return doc


def clean_data(n: int) -> bytes:
    return call_detail_workload(n, random.Random(13))


def dirty_data(n: int, every: int = 37) -> bytes:
    """Clean workload with every ``every``-th call_type forced over the
    ``t <= 4`` constraint — the kernel must hand exactly those records
    to the cursor."""
    raw = bytearray(clean_data(n))
    for i in range(0, n, every):
        raw[i * WIDTH + CALL_TYPE_OFF] = 99
    return bytes(raw)


@pytest.fixture(scope="module", params=["interp", "gen"])
def cd(request):
    disc = FixedWidthRecords(WIDTH)
    if request.param == "interp":
        return compile_description(gallery.CALL_DETAIL, ambient="binary",
                                   discipline=disc)
    return compile_generated(gallery.CALL_DETAIL, ambient="binary",
                             discipline=disc)


# ---------------------------------------------------------------------------
# Verdicts: plan pass, engine gate, pretty-printer
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_call_detail_is_eligible(self, cd):
        v = batch_verdict(cd, "call_t")
        assert v.eligible
        assert "24-byte columns at 24-byte pitch" in v.reason

    def test_plan_level_verdict(self, cd):
        v = cd.plan.decl("call_t").batch_verdict
        assert v.eligible
        assert "columnar kernel" in v.reason

    def test_clf_is_not_eligible(self, clf):
        v = batch_verdict(clf, "entry_t")
        assert not v.eligible
        assert "not static" in v.reason

    def test_width_mismatched_discipline(self):
        d = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(WIDTH - 1))
        v = batch_verdict(d, "call_t")
        assert not v.eligible
        assert "static record width 24" in v.reason

    def test_fastpath_off_disables_kernels(self):
        d = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(WIDTH),
                                fastpath=False)
        v = batch_verdict(d, "call_t")
        assert not v.eligible
        assert "disabled" in v.reason
        # ...but the plan-level layout verdict is engine-independent.
        assert d.plan.decl("call_t").batch_verdict.eligible

    def test_plan_printer_shows_the_verdict(self, cd):
        text = format_plan(cd.plan, "call_t")
        assert "batch: eligible" in text

    def test_kernel_reports_misses(self, cd):
        """The kernel contract: ``(reps, miss)`` with ``miss`` counting
        the None (fallback) slots, so the driver never scans for them."""
        width, kernel = cd.batch_kernel("call_t")
        assert width == WIDTH
        data = dirty_data(64, every=8)
        reps, miss = kernel(memoryview(data), 64, WIDTH, True)
        assert len(reps) == 64
        assert miss == sum(1 for r in reps if r is None) == 8


# ---------------------------------------------------------------------------
# Eligibility edges: zero-width fields, nested arrays, EBCDIC
# ---------------------------------------------------------------------------


ZERO_WIDTH_DESC = """
Precord Pstruct z_t {
  Pb_uint16 a;
  Pb_uint16 b;
  Pcompute Pint32 total = a + 1;
};
Psource Parray zs_t { z_t[]; };
"""

NESTED_ARRAY_DESC = """
Parray triple_t { Pb_uint16[3]; };
Precord Pstruct point_t {
  Pb_uint8 id;
  triple_t xs;
};
Psource Parray points_t { point_t[]; };
"""


class TestEligibilityEdges:
    def test_zero_width_compute_field(self):
        d = compile_description(ZERO_WIDTH_DESC, ambient="binary",
                                discipline=FixedWidthRecords(4))
        v = batch_verdict(d, "z_t")
        assert v.eligible, v.reason
        data = bytes(range(64)) * 4
        got = list(d.records_batch(data, "z_t"))
        _assert_same_stream(got, d.records(data, "z_t"))
        assert all(rep.total == rep.a + 1 for rep, _ in got)

    def test_nested_fixed_array(self):
        d = compile_description(NESTED_ARRAY_DESC, ambient="binary",
                                discipline=FixedWidthRecords(7))
        v = batch_verdict(d, "point_t")
        assert v.eligible, v.reason
        data = bytes(range(256))[:7 * 30]
        got = list(d.records_batch(data, "point_t"))
        _assert_same_stream(got, d.records(data, "point_t"))
        assert all(len(rep.xs) == 3 for rep, _ in got)

    @pytest.mark.parametrize("engine", [compile_description, compile_generated])
    def test_ebcdic_columns(self, engine):
        width = 15
        disc = FixedWidthRecords(width)
        d = engine(EBCDIC_DESC, ambient="ebcdic", discipline=disc)
        v = batch_verdict(d, "item_t")
        assert v.eligible, v.reason
        writer = compile_description(EBCDIC_DESC, ambient="ebcdic",
                                     discipline=disc)
        rng = random.Random(2005)
        reps = [writer.generate("item_t", rng) for _ in range(40)]
        data = b"".join(writer.write(r, "item_t") for r in reps)
        got = list(d.records_batch(data, "item_t"))
        assert [r for r, _ in got] == reps
        _assert_same_stream(got, d.records(data, "item_t"))
        # Corruption inside the zoned column falls back identically.
        raw = bytearray(data)
        raw[3 * width + 8] = 0x40
        _assert_same_stream(d.records_batch(bytes(raw), "item_t"),
                            d.records(bytes(raw), "item_t"))


# ---------------------------------------------------------------------------
# Differential: batch ≡ cursor on clean, dirty and truncated input
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_clean(self, cd):
        data = clean_data(3000)
        _assert_same_stream(cd.records_batch(data, "call_t"),
                            cd.records(data, "call_t"))

    def test_constraint_violations_fall_back(self, cd):
        data = dirty_data(2000)
        got = list(cd.records_batch(data, "call_t"))
        bad = sum(1 for _, pd in got if pd.nerr)
        assert bad >= 2000 // 37  # the corruption actually bit
        _assert_same_stream(got, cd.records(data, "call_t"))

    def test_truncated_final_record(self, cd):
        data = clean_data(1500)[:1499 * WIDTH + 11]
        _assert_same_stream(cd.records_batch(data, "call_t"),
                            cd.records(data, "call_t"))

    def test_small_chunks_preserve_offsets(self, cd):
        """Feeding the grid in tiny record-aligned chunks must not
        disturb absolute locations or record indices."""
        import io
        data = dirty_data(400)
        got = list(records_batch(cd, io.BytesIO(data), "call_t",
                                 chunk_bytes=7 * WIDTH))
        _assert_same_stream(got, cd.records(data, "call_t"))

    def test_deterministic_stats_match(self, cd):
        data = dirty_data(800)
        with observe.observed() as obs_s:
            for _ in cd.records(data, "call_t"):
                pass
        with observe.observed() as obs_b:
            for _ in cd.records_batch(data, "call_t"):
                pass
        assert (_scrub(obs_b.stats(deterministic=True))
                == _scrub(obs_s.stats(deterministic=True)))

    def test_batch_metrics_account_for_every_record(self, cd):
        data = dirty_data(800)
        with observe.observed() as obs:
            total = sum(1 for _ in cd.records_batch(data, "call_t"))
        s = obs.stats(deterministic=True)
        assert s["batch"]["batches"] > 0
        assert s["batch"]["bytes"] > 0
        assert s["batch"]["fallback_records"] > 0
        assert (s["batch"]["records"] + s["batch"]["fallback_records"]
                == s["records"]["total"] == total == 800)
        assert "batch:" in obs.summary()

    def test_accumulate_batch(self, cd):
        data = dirty_data(600)
        res = run(cd, data, "accum", "call_t")
        assert res.mode == "batch"
        acc_b, tally_b = res.acc, res.tally
        from repro.tools.accum import Accumulator
        acc_s = Accumulator(cd.node("call_t"), "<top>", 1000)
        tally_s = ErrorTally()
        for rep, pd in cd.records(data, "call_t"):
            acc_s.add(rep, pd)
            tally_s.add(pd)
        assert _tally_fields(tally_b) == _tally_fields(tally_s)
        assert acc_b.report() == acc_s.report()

    def test_flyweight_pds_are_clean(self, cd):
        """Unmetered clean windows share one flyweight Pd; it must be
        content-identical to a fresh descriptor."""
        from repro.core.errors import Pd
        data = clean_data(200)
        fresh = pd_summary(Pd())
        for _, pd in cd.records_batch(data, "call_t"):
            assert pd_summary(pd) == fresh


# ---------------------------------------------------------------------------
# Newline-pitch grids
# ---------------------------------------------------------------------------


ROW_DESC = """
Precord Pstruct row_t {
  Pstring_FW(:3:) tag;
  '|';
  Puint32_FW(:4:) n;
};
Psource Parray rows_t { row_t[]; };
"""


class TestNewlineGrid:
    @pytest.fixture(scope="class")
    def rows(self):
        return compile_description(ROW_DESC, discipline=NewlineRecords())

    def test_eligible_at_width_plus_one_pitch(self, rows):
        v = batch_verdict(rows, "row_t")
        assert v.eligible
        assert "8-byte columns at 9-byte pitch" in v.reason

    @pytest.mark.parametrize("blob", [
        b"abc|0001\nxyz|0042\npqr|9999\n",       # clean grid
        b"abc|0001\r\nxyz|0042\r\n",             # CRLF: cursor fallback
        b"abc|0001\nlong-line|123\nxyz|0042\n",  # ragged tear mid-grid
        b"abc|0001\nxyz|0042",                   # unterminated tail
        b"",
    ])
    def test_differential(self, rows, blob):
        _assert_same_stream(rows.records_batch(blob, "row_t"),
                            rows.records(blob, "row_t"))

    @pytest.mark.parametrize("blob", [
        b"abc|0001\nxyz|0042\npqr|9999\n",
        b"abc|0001\r\nxyz|0042\r\n",
        b"abc|0001\nxyz|0042",
        b"",
    ])
    def test_count_parity(self, rows, blob):
        assert (count_records_batch(rows, blob)
                == rows.count_records(blob))


# ---------------------------------------------------------------------------
# Strict mode, fallback inputs, counting
# ---------------------------------------------------------------------------


class TestStrictAndCount:
    def test_strict_raises_at_call_time(self, clf):
        with pytest.raises(PadsError, match="batch engine"):
            records_batch(clf, b"x\n", "entry_t", strict=True)

    def test_silent_fallback_matches_serial(self, clf, rng):
        reps = [clf.generate("entry_t", rng) for _ in range(10)]
        data = b"".join(clf.write(r, "entry_t") + b"\n" for r in reps)
        _assert_same_stream(records_batch(clf, data, "entry_t"),
                            clf.records(data, "entry_t"))

    def test_open_source_keeps_cursor_path(self, cd):
        data = clean_data(50)
        src = cd.open_bytes(data) if hasattr(cd, "open_bytes") else None
        if src is None:
            from repro.core.io import Source
            src = Source(data, discipline=cd.discipline)
        with pytest.raises(PadsError, match="cannot feed"):
            records_batch(cd, src, "call_t", strict=True)

    def test_count_parity_fixed_width(self, cd, tmp_path):
        data = clean_data(700)
        assert count_records_batch(cd, data) == 700
        truncated = data[:699 * WIDTH + 3]
        assert (count_records_batch(cd, truncated)
                == cd.count_records(truncated) == 700)
        assert count_records_batch(cd, b"") == 0
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        assert count_records_batch(cd, path) == 700

    def test_count_strict(self, cd):
        d = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(WIDTH))
        from repro.core.limits import ParseLimits
        limited = compile_description(
            gallery.CALL_DETAIL, ambient="binary",
            discipline=FixedWidthRecords(WIDTH),
            limits=ParseLimits(max_record_bytes=1 << 16))
        assert count_records_batch(d, clean_data(10)) == 10
        with pytest.raises(PadsError, match="limits"):
            count_records_batch(limited, clean_data(10), strict=True)


# ---------------------------------------------------------------------------
# Worker-window helpers (the parallel engine's handoff)
# ---------------------------------------------------------------------------


class TestWindows:
    def test_bytes_window_is_chunk_local(self, cd):
        data = dirty_data(300)
        lo, hi = 100, 220
        window = ("bytes", data[lo * WIDTH:hi * WIDTH], lo * WIDTH)
        got = list(window_records(cd, window, "call_t"))
        want = list(cd.records(data, "call_t"))[lo:hi]
        assert [r for r, _ in got] == [r for r, _ in want]
        # Fallback pds carry chunk-local record indices (the parallel
        # reduce rebases them) but absolute byte offsets.
        bad = [(i, pd) for i, (_, pd) in enumerate(got) if pd.nerr]
        assert bad
        for i, pd in bad:
            assert pd.loc.record == i
            assert want[i][1].loc.record == lo + i
            assert pd.loc.offset == want[i][1].loc.offset

    def test_file_window(self, cd, tmp_path):
        data = clean_data(500)
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        window = ("file", str(path), 200 * WIDTH, 450 * WIDTH)
        got = list(window_records(cd, window, "call_t"))
        want = list(cd.records(data, "call_t"))[200:450]
        assert [r for r, _ in got] == [r for r, _ in want]

    def test_window_count(self, cd, tmp_path):
        data = clean_data(123)
        assert window_count(cd, ("bytes", data, 0)) == 123
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        assert window_count(cd, ("file", str(path), 0, len(data))) == 123
        assert window_count(cd, ("file", str(path), 0, 10 * WIDTH + 1)) == 11

    def test_ineligible_returns_none(self, clf):
        assert window_records(clf, ("bytes", b"x\n", 0), "entry_t") is None


# ---------------------------------------------------------------------------
# Integration: the parallel and streaming engines take the batch path
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_parallel_matches_batch_and_serial(self, call_detail, tmp_path):
        from repro.execute import ExecOptions, run
        jobs = ExecOptions(jobs=2)
        data = dirty_data(2000)
        want = _fingerprint(call_detail.records(data, "call_t"))
        assert _fingerprint(
            run(call_detail, data, "records", "call_t", jobs).pairs) == want
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        assert _fingerprint(
            run(call_detail, path, "records", "call_t", jobs).pairs) == want
        assert run(call_detail, path, "count", options=jobs).count == 2000

    def test_stream_hands_off_to_batch(self, call_detail, tmp_path):
        data = dirty_data(1500)
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        with observe.observed() as obs:
            got = list(call_detail.records_stream(str(path), "call_t"))
        _assert_same_stream(got, call_detail.records(data, "call_t"))
        s = obs.stats(deterministic=True)
        # The grid driver replaced the sliding window entirely.
        assert s["batch"]["batches"] > 0
        assert s["stream"]["refills"] == 0
        assert count_records_stream(call_detail, str(path)) == 1500

    def test_follow_keeps_the_cursor_path(self, call_detail, tmp_path):
        data = clean_data(40)
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        with observe.observed() as obs:
            got = list(call_detail.records_stream(
                str(path), "call_t", follow=True, idle_timeout=0.1))
        assert len(got) == 40
        assert obs.stats(deterministic=True)["batch"]["batches"] == 0


# ---------------------------------------------------------------------------
# Hypothesis: random corruption anywhere must never open a gap
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           hits=st.lists(st.tuples(st.integers(0, 120 * WIDTH - 1),
                                   st.integers(0, 255)),
                         max_size=12),
           trunc=st.integers(0, WIDTH))
    def test_hypothesis_differential(seed, hits, trunc):
        d = gallery.load_call_detail()
        raw = bytearray(call_detail_workload(120, random.Random(seed)))
        for off, val in hits:
            raw[off] = val
        data = bytes(raw[:len(raw) - trunc])
        got = list(d.records_batch(data, "call_t"))
        want = list(d.records(data, "call_t"))
        assert [r for r, _ in got] == [r for r, _ in want]
        assert _fingerprint(got) == _fingerprint(want)
