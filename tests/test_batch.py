"""Tests for the record loop's grid block step.

A record whose layout is provably static compiles to a *batch kernel*
(:mod:`repro.plan.fastpath`); when the record discipline gives its
records a constant pitch, the one record loop
(``repro.core.api._record_loop``) parses each block of grid-aligned
buffered records with one kernel call (``Source.grid_frames``) and
takes every other record — a kernel miss, a torn or short record, the
first one past the buffered bytes — one step at a time.  The whole
contract is "faster, never different": every mode must yield the
``(rep, pd)`` stream, reports and deterministic metrics of a
``fastpath=False`` build, which parses every record with the general
parser (the ``batch.*`` counters, which follow buffering, stay out of
the deterministic projection).  This suite
pins:

* the grid decision (:meth:`CompiledDescription.grid`), its plan-level
  half and the reasons either gives;
* eligibility edges: zero-width ``Pcompute`` fields, nested fixed
  arrays, cp037/EBCDIC columns, width-mismatched disciplines;
* the newline-pitch grid: CRLF terminators, ragged lines, unterminated
  tails, and the record-counting floor;
* worker windows (the parallel map function) and the streaming entry
  point;
* one grid differential, run by the oracle (``tests/test_oracle.py``):
  call-detail and a newline fixed-payload description, over clean
  records, constraint misses, a torn record mid-block, a short tail and
  CRLF, through serial, stream, ``--follow``, ``--header`` accum,
  parallel and durable crash + resume runs;
* a hypothesis sweep hammering random corruption, when available.
"""

import random

import pytest

from repro import compile_description, gallery, observe
from repro.codegen import compile_generated
from repro.core.errors import Pd
from repro.core.io import FixedWidthRecords, NewlineRecords, Source
from repro.core.masks import Mask, P_Check, P_CheckAndSet
from repro.execute import ExecOptions, Fold, run, step_reason
from repro.parallel import _fold_one
from repro.plan import format_plan
from repro.plan.ir import Verdict
from repro.stream import count_records_stream
from repro.tools.datagen import call_detail_workload

from . import test_oracle as oracle
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

def _fingerprint(pairs):
    """What the grid contract promises identical: reps and whole pd
    trees, every location included."""
    return [(rep, oracle.pd_tree(pd)) for rep, pd in pairs]


def _plain(d):
    """``d`` rebuilt without compiled fast paths: the reference that
    parses every record with the general parser."""
    return compile_description(d.source_text, ambient=d.ambient,
                               discipline=d.discipline, fastpath=False)


def clean_data(n: int) -> bytes:
    return call_detail_workload(n, random.Random(13))


def dirty_data(n: int, every: int = 37) -> bytes:
    """Clean workload with every ``every``-th call_type forced over the
    ``t <= 4`` constraint — the kernel must hand exactly those records
    to the general parser."""
    raw = bytearray(clean_data(n))
    for i in range(0, n, every):
        raw[i * WIDTH + CALL_TYPE_OFF] = 99
    return bytes(raw)


@pytest.fixture(scope="module", params=["interp", "gen"])
def cd(request):
    """One build under both ids: ``compile_generated`` is
    ``compile_description``."""
    return compile_description(gallery.CALL_DETAIL, ambient="binary",
                               discipline=FixedWidthRecords(WIDTH))


@pytest.fixture(scope="module")
def cd_plain():
    return compile_description(gallery.CALL_DETAIL, ambient="binary",
                               discipline=FixedWidthRecords(WIDTH),
                               fastpath=False)


# ---------------------------------------------------------------------------
# The grid decision: plan pass, per-pass step, pretty-printer
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_call_detail_is_eligible(self, cd):
        kernel, width, stride = cd.grid("call_t")
        assert (width, stride) == (WIDTH, WIDTH)
        assert "grid: 24-byte columns at 24-byte pitch" in \
            step_reason(cd, "records", "call_t")

    def test_plan_level_verdict(self, cd):
        v = cd.plan.decl("call_t").batch_verdict
        assert v.eligible
        assert "columnar kernel" in v.reason

    def test_clf_is_not_eligible(self, clf):
        v = clf.grid("entry_t")
        assert isinstance(v, Verdict) and not v.eligible
        assert "not static" in v.reason

    def test_width_mismatched_discipline(self):
        d = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(WIDTH - 1))
        v = d.grid("call_t")
        assert isinstance(v, Verdict) and not v.eligible
        assert "static record width 24" in v.reason

    def test_fastpath_off_disables_kernels(self):
        d = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(WIDTH),
                                fastpath=False)
        v = d.grid("call_t")
        assert isinstance(v, Verdict) and not v.eligible
        assert "disabled" in v.reason
        # ...but the plan-level layout verdict is engine-independent.
        assert d.plan.decl("call_t").batch_verdict.eligible

    def test_plan_printer_shows_the_verdict(self, cd):
        text = format_plan(cd.plan, "call_t")
        assert "batch: eligible" in text

    def test_kernel_reports_misses(self, cd):
        """The kernel contract: ``(reps, miss)`` with ``miss`` counting
        the None (fallback) slots, so the loop never scans for them."""
        width, kernel = cd.batch_kernel("call_t")
        assert width == WIDTH
        data = dirty_data(64, every=8)
        reps, miss = kernel(memoryview(data), 64, WIDTH, True)
        assert len(reps) == 64
        assert miss == sum(1 for r in reps if r is None) == 8

    def test_per_pass_conditions(self, cd):
        """Limits, a tracer and a non-uniform mask each take every record
        one step at a time, and say so."""
        from repro.core.limits import ParseLimits
        limits = ParseLimits(max_record_bytes=1 << 16)
        assert "limits" in cd.grid("call_t", limits=limits).reason
        assert "mask" in cd.grid("call_t", Mask(P_Check)).reason
        with observe.observed(trace=True):
            assert "tracer" in cd.grid("call_t").reason


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
        assert not isinstance(d.grid("z_t"), Verdict)
        data = bytes(range(64)) * 4
        got = list(d.records_batch(data, "z_t"))
        assert _fingerprint(got) == _fingerprint(_plain(d).records(data, "z_t"))
        assert all(rep.total == rep.a + 1 for rep, _ in got)

    def test_nested_fixed_array(self):
        d = compile_description(NESTED_ARRAY_DESC, ambient="binary",
                                discipline=FixedWidthRecords(7))
        assert not isinstance(d.grid("point_t"), Verdict)
        data = bytes(range(256))[:7 * 30]
        got = list(d.records(data, "point_t"))
        assert _fingerprint(got) == _fingerprint(_plain(d).records(data, "point_t"))
        assert all(len(rep.xs) == 3 for rep, _ in got)

    @pytest.mark.parametrize("engine", [compile_description, compile_generated],
                             ids=["compile_description", "compile_generated"])
    def test_ebcdic_columns(self, engine):
        width = 15
        disc = FixedWidthRecords(width)
        d = engine(EBCDIC_DESC, ambient="ebcdic", discipline=disc)
        assert not isinstance(d.grid("item_t"), Verdict)
        writer = compile_description(EBCDIC_DESC, ambient="ebcdic",
                                     discipline=disc, fastpath=False)
        rng = random.Random(2005)
        reps = [writer.generate("item_t", rng) for _ in range(40)]
        data = b"".join(writer.write(r, "item_t") for r in reps)
        got = list(d.records(data, "item_t"))
        assert [r for r, _ in got] == reps
        assert _fingerprint(got) == _fingerprint(writer.records(data, "item_t"))
        # Corruption inside the zoned column misses identically.
        raw = bytearray(data)
        raw[3 * width + 8] = 0x40
        assert _fingerprint(d.records(bytes(raw), "item_t")) == \
            _fingerprint(writer.records(bytes(raw), "item_t"))


# ---------------------------------------------------------------------------
# Differential: the grid ≡ the general parser on clean, dirty, truncated
# ---------------------------------------------------------------------------


def _calls(name: str, make) -> str:
    return oracle.data_key(f"calls-{name}", make)


class TestDifferential:
    """Through the oracle (``tests/test_oracle.py``): every record the
    grid block step or its misses took, against ``fastpath=False``."""

    def agree(self, key, tmp_path, op="records", mode="serial", **kw):
        return oracle.agree(oracle.CALLS, key, op, mode, tmp_path, grid=True,
                            **kw)

    def test_clean(self, cd, tmp_path):
        self.agree(_calls("clean-3000", lambda: clean_data(3000)), tmp_path)

    def test_constraint_violations_fall_back(self, cd, tmp_path):
        got = self.agree(_calls("dirty-2000", lambda: dirty_data(2000)),
                         tmp_path)
        bad = sum(1 for _rep, tree in got.result if tree[1])
        assert bad >= 2000 // 37  # the corruption actually bit

    def test_truncated_final_record(self, cd, tmp_path):
        self.agree(_calls("cut-1500", lambda: clean_data(1500)[
            :1499 * WIDTH + 11]), tmp_path)

    def test_small_chunks_preserve_offsets(self, cd, tmp_path):
        """Blocks cut by a sliding window of a few records must not
        disturb absolute locations or record indices."""
        self.agree(_calls("dirty-400", lambda: dirty_data(400)), tmp_path,
                   mode="stream", window=7 * WIDTH)

    def test_deterministic_stats_match(self, cd, tmp_path):
        self.agree(_calls("dirty-800", lambda: dirty_data(800)), tmp_path,
                   op="tally")

    def test_batch_metrics_account_for_every_record(self, cd):
        data = dirty_data(800)
        with observe.observed() as obs:
            total = sum(1 for _ in cd.records(data, "call_t"))
        s = obs.stats()
        assert s["batch"]["batches"] > 0
        assert s["batch"]["bytes"] > 0
        assert s["batch"]["fallback_records"] > 0
        assert (s["batch"]["records"] + s["batch"]["fallback_records"]
                == s["records"]["total"] == total == 800)
        assert "batch:" in obs.summary()

    def test_accumulate_batch(self, cd, cd_plain, tmp_path):
        self.agree(_calls("dirty-600", lambda: dirty_data(600)), tmp_path,
                   op="accum")
        assert "grid:" in step_reason(cd, "accum", "call_t")
        assert "per record:" in step_reason(cd_plain, "accum", "call_t")

    def test_flyweight_pds_are_clean(self, cd):
        """Records the grid parsed clean get descriptors content-identical
        to a fresh one, one each."""
        data = clean_data(200)
        fresh = pd_summary(Pd())
        pds = [pd for _, pd in cd.records(data, "call_t")]
        assert all(pd_summary(pd) == fresh for pd in pds)
        assert len({id(pd) for pd in pds}) == len(pds)


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
        assert rows.grid("row_t")[1:] == (8, 9)
        assert "8-byte columns at 9-byte pitch" in \
            step_reason(rows, "records", "row_t")

    @pytest.mark.parametrize("blob", [
        b"abc|0001\nxyz|0042\npqr|9999\n",       # clean grid
        b"abc|0001\r\nxyz|0042\r\n",             # CRLF: one step each
        b"abc|0001\nlong-line|123\nxyz|0042\n",  # ragged tear mid-grid
        b"abc|0001\nxyz|0042",                   # unterminated tail
        b"",
    ])
    def test_differential(self, rows, blob):
        assert _fingerprint(rows.records(blob, "row_t")) == \
            _fingerprint(_plain(rows).records(blob, "row_t"))

    @pytest.mark.parametrize("blob", [
        b"abc|0001\nxyz|0042\npqr|9999\n",
        b"abc|0001\r\nxyz|0042\r\n",
        b"abc|0001\nxyz|0042",
        b"",
    ])
    def test_count_parity(self, rows, blob):
        framed = sum(1 for _ in Source(blob).boundaries())
        assert rows.count_records(blob) == framed


# ---------------------------------------------------------------------------
# Inputs without a grid, counting
# ---------------------------------------------------------------------------


class TestStrictAndCount:
    def test_silent_fallback_matches_serial(self, clf, rng):
        reps = [clf.generate("entry_t", rng) for _ in range(10)]
        data = b"".join(clf.write(r, "entry_t") + b"\n" for r in reps)
        assert _fingerprint(clf.records_batch(data, "entry_t")) == \
            _fingerprint(clf.records(data, "entry_t"))

    def test_count_parity_fixed_width(self, cd, tmp_path):
        data = clean_data(700)
        assert cd.count_records(data) == 700
        truncated = data[:699 * WIDTH + 3]
        assert (cd.count_records(truncated)
                == sum(1 for _ in Source(truncated,
                                         discipline=cd.discipline)
                       .boundaries()) == 700)
        assert cd.count_records(b"") == 0
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        assert run(cd, path, "count").count == 700


# ---------------------------------------------------------------------------
# Worker windows (the parallel map function)
# ---------------------------------------------------------------------------


class TestWindows:
    def test_bytes_window_is_chunk_local(self, cd):
        data = dirty_data(300)
        lo, hi = 100, 220
        window = ("bytes", data[lo * WIDTH:hi * WIDTH], lo * WIDTH)
        got = _fold_one(cd, window, Fold("records", "call_t"), None)
        want = list(cd.records(data, "call_t"))[lo:hi]
        assert [r for r, _ in got] == [r for r, _ in want]
        # Error pds carry chunk-local record indices (the parallel
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
        got = _fold_one(cd, window, Fold("records", "call_t"), None)
        want = list(cd.records(data, "call_t"))[200:450]
        assert [r for r, _ in got] == [r for r, _ in want]

    def test_window_count(self, cd, tmp_path):
        def count(window):
            return _fold_one(cd, window, Fold("count"), None).records

        data = clean_data(123)
        assert count(("bytes", data, 0)) == 123
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        assert count(("file", str(path), 0, len(data))) == 123
        assert count(("file", str(path), 0, 10 * WIDTH + 1)) == 11


# ---------------------------------------------------------------------------
# Integration: the parallel and streaming entry points run the same loop
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_parallel_matches_batch_and_serial(self, call_detail, tmp_path):
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

    def test_stream_hands_off_to_batch(self, call_detail, cd_plain,
                                       tmp_path):
        data = dirty_data(1500)
        path = tmp_path / "cd.dat"
        path.write_bytes(data)
        with observe.observed() as obs:
            got = list(call_detail.records_stream(str(path), "call_t"))
        assert _fingerprint(got) == _fingerprint(cd_plain.records(data, "call_t"))
        s = obs.stats()
        # The grid runs over the sliding window's refills.
        assert s["batch"]["batches"] > 0
        assert s["stream"]["refills"] > 0
        assert count_records_stream(call_detail, str(path)) == 1500


# ---------------------------------------------------------------------------
# The grid differential: every mode ≡ fastpath=False (the oracle's grid
# cases, tests/test_oracle.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", oracle.GRID_CASES)
@pytest.mark.parametrize("mode", oracle.GRID_MODES)
@pytest.mark.parametrize("name", list(oracle.GRID))
def test_grid_differential(name, mode, case, tmp_path, pool_chunks):
    oracle.grid_agrees(name, case, mode, tmp_path)


# ---------------------------------------------------------------------------
# Hypothesis: random corruption anywhere must never open a gap
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    _HYPO_PLAIN = {}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           hits=st.lists(st.tuples(st.integers(0, 120 * WIDTH - 1),
                                   st.integers(0, 255)),
                         max_size=12),
           trunc=st.integers(0, WIDTH))
    def test_hypothesis_differential(seed, hits, trunc):
        d = gallery.load_call_detail()
        plain = _HYPO_PLAIN.setdefault("d", _plain(d))
        raw = bytearray(call_detail_workload(120, random.Random(seed)))
        for off, val in hits:
            raw[off] = val
        data = bytes(raw[:len(raw) - trunc])
        got = list(d.records(data, "call_t", Mask(P_CheckAndSet)))
        want = list(plain.records(data, "call_t"))
        assert [r for r, _ in got] == [r for r, _ in want]
        assert _fingerprint(got) == _fingerprint(want)
