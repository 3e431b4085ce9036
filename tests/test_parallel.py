"""Tests for the chunked map-reduce driver (repro.parallel).

Every fold run on the parallel driver must be observationally equivalent
to the serial run, and the driver must fall back to the in-process
cursor — without touching a worker pool — whenever splitting is
impossible.
"""

import io
import random

import pytest

from repro import gallery, parallel
from repro.codegen import compile_generated
from repro.execute import ExecOptions, Fold, run
from repro.core.io import (
    FixedWidthRecords,
    NewlineRecords,
    NoRecords,
    Source,
    plan_chunks,
    plan_file_chunks,
)
from repro.tools.datagen import clf_workload, sirius_workload

from . import test_oracle as oracle

JOBS = 2  # keep pools small; correctness, not throughput, is under test


# -- chunk planning ------------------------------------------------------------


class TestPlanChunks:
    def plan(self, data: bytes, n, disc=None, min_chunk=8, start=0):
        return plan_chunks(io.BytesIO(data), len(data), disc or NewlineRecords(),
                           n, min_chunk=min_chunk, start=start)

    def test_tiles_input_exactly(self):
        data = b"".join(b"rec%04d\n" % i for i in range(64))
        chunks = self.plan(data, 4)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(data)
        for (_, e1), (s2, _) in zip(chunks, chunks[1:]):
            assert e1 == s2

    def test_cuts_land_on_record_boundaries(self):
        data = b"".join(b"rec%04d\n" % i for i in range(64))
        chunks = self.plan(data, 4)
        assert len(chunks) > 1
        for s, _ in chunks[1:]:
            assert data[s - 1:s] == b"\n"

    def test_small_input_declines(self):
        assert self.plan(b"a\nb\n", 4, min_chunk=1 << 16) is None

    def test_single_job_declines(self):
        data = b"x\n" * 100
        assert self.plan(data, 1) is None

    def test_unchunkable_discipline_declines(self):
        data = b"x" * 4096
        assert self.plan(data, 4, disc=NoRecords()) is None

    def test_one_giant_record_declines(self):
        # No interior newline: every cut aligns to EOF, <2 chunks remain.
        data = b"x" * 4096 + b"\n"
        assert self.plan(data, 4) is None

    def test_fixed_width_cuts_are_multiples(self):
        data = b"ABCDEFGH" * 64
        chunks = self.plan(data, 4, disc=FixedWidthRecords(8))
        for s, _ in chunks:
            assert s % 8 == 0

    def test_fixed_width_respects_origin_after_header(self):
        # 3-byte header, then 8-byte records: cuts must align to the
        # record grid (start + k*8), not to multiples of 8.
        header = b"HDR"
        data = header + b"ABCDEFGH" * 64
        chunks = self.plan(data, 4, disc=FixedWidthRecords(8), start=3)
        assert chunks[0][0] == 3
        for s, _ in chunks:
            assert (s - 3) % 8 == 0

    def test_start_after_header_line(self):
        data = b"header\n" + b"body\n" * 200
        chunks = self.plan(data, 4, start=7)
        assert chunks[0][0] == 7 and chunks[-1][1] == len(data)
        for s, _ in chunks[1:]:
            assert data[s - 1:s] == b"\n"

    def test_plan_file_chunks(self, tmp_path):
        path = tmp_path / "data.log"
        path.write_bytes(b"line\n" * 1000)
        chunks = plan_file_chunks(str(path), NewlineRecords(), 4, min_chunk=64)
        assert chunks[0][0] == 0 and chunks[-1][1] == 5000
        for s, _ in chunks[1:]:
            assert s % 5 == 0  # every record is 5 bytes

    def test_chunked_records_equal_whole(self):
        rng = random.Random(7)
        data = b"".join(bytes(rng.choices(b"abc", k=rng.randrange(12))) + b"\n"
                        for _ in range(300))
        whole = self._records(Source.from_bytes(data, NewlineRecords()))
        for n in (2, 3, 5, 8):
            chunks = self.plan(data, n, min_chunk=4)
            if chunks is None:
                continue
            split = []
            for s, e in chunks:
                split += self._records(Source(data[s:e], start=s,
                                              discipline=NewlineRecords()))
            assert split == whole

    @staticmethod
    def _records(src):
        out = []
        with src:
            while src.begin_record():
                out.append(src.record_bytes())
                src.end_record()
        return out


# -- the parallel driver -------------------------------------------------------


@pytest.fixture(scope="module")
def clf_data() -> bytes:
    return oracle._DATA[CLF_1500]()


CLF = oracle.GALLERY["clf"]
CLF_1500 = oracle.data_key(
    "clf-1500", lambda: clf_workload(1500, random.Random(20050612)))
SIRIUS_1500 = oracle.data_key(
    "sirius-1500", lambda: sirius_workload(1500, random.Random(20050612)))


@pytest.fixture(scope="module", params=["interp", "generated"])
def clf_desc(request):
    """One build under both ids: ``compile_generated`` is
    ``compile_description``."""
    return gallery.load_clf()


@pytest.mark.usefixtures("small_chunks")
class TestParallelEquivalence:
    """Files and bytes in memory on the pool against the oracle's serial
    reference (``tests/test_oracle.py``)."""

    def agree(self, op, tmp_path, modes=("parallel", "parallel-memory")):
        for mode in modes:
            oracle.agree(CLF, CLF_1500, op, mode, tmp_path,
                         expect="parallel")

    def test_count(self, clf_desc, tmp_path):
        self.agree("count", tmp_path)

    def test_records_order_and_parity(self, clf_desc, tmp_path):
        self.agree("records", tmp_path, ["parallel-memory"])

    def test_records_from_file(self, clf_desc, tmp_path):
        self.agree("records", tmp_path, ["parallel"])

    def test_tally(self, clf_desc, tmp_path):
        self.agree("tally", tmp_path)

    def test_accumulate(self, clf_desc, tmp_path):
        self.agree("accum", tmp_path)

    def test_accumulate_with_header(self, tmp_path):
        oracle.agree(oracle.GALLERY["sirius"], SIRIUS_1500, "accum",
                     "parallel", tmp_path, header="summary_header_t",
                     expect="parallel")


# -- serial fallback -----------------------------------------------------------


class TestSerialFallback:
    @pytest.fixture(autouse=True)
    def _no_pool(self, monkeypatch):
        # The fallback path must never touch a worker pool.
        monkeypatch.setattr(parallel, "_pool", self._boom)
        monkeypatch.setattr(parallel, "plan_chunks",
                            lambda h, size, d, n, start=0:
                            plan_chunks(h, size, d, n, min_chunk=1 << 12,
                                        start=start))

    @staticmethod
    def _boom(jobs):  # pragma: no cover - only reached on failure
        raise AssertionError("serial fallback reached the worker pool")

    def test_jobs_one_is_serial(self, clf_desc, clf_data):
        assert parallel._plan_windows(clf_desc, clf_data, 1) == "one job"
        count, _hdr, why = parallel.drive(clf_desc, clf_data, Fold("count"), 1)
        assert why == "one job"
        assert count.records == clf_desc.count_records(clf_data)

    def test_unchunkable_discipline_is_serial(self):
        desc = gallery.load_netflow()  # NoRecords: one packed binary blob
        assert not desc.discipline.chunkable
        data = bytes(20) * 400
        assert parallel._plan_windows(desc, data, JOBS) == \
            "NoRecords records have no scannable boundaries"

    def test_small_input_is_serial(self, clf_desc):
        data = clf_workload(5, random.Random(1))
        assert "too small to split" in parallel._plan_windows(clf_desc, data,
                                                            JOBS)
        res = run(clf_desc, data, "tally", "entry_t", ExecOptions(jobs=JOBS))
        assert (res.mode, res.tally.records) == ("serial", 5)

    def test_open_source_is_serial(self, clf_desc, clf_data):
        src = clf_desc.open(clf_data)
        assert parallel._plan_windows(clf_desc, src, JOBS) == \
            "an open Source is read in place"
        count, _hdr, _why = parallel.drive(clf_desc, src, Fold("count"), JOBS)
        assert count.records == clf_desc.count_records(clf_data)

    def test_specless_description_is_serial(self, clf_desc, clf_data,
                                            monkeypatch):
        monkeypatch.setattr(parallel, "_spec_for", lambda d: None)
        pairs, _hdr, _why = parallel.drive(clf_desc, clf_data,
                                     Fold("records", "entry_t"), JOBS)
        assert len(list(pairs)) == clf_desc.count_records(clf_data)


# -- spec plumbing -------------------------------------------------------------


def _rebuilt_has_fast_fn(spec, record_type):
    """Worker side: rebuild ``spec`` as an unseeded worker does and report
    whether the record gets its plan-compiled fast function."""
    parallel._COMPILED.pop(spec.key(), None)
    return parallel._materialise(spec).node(record_type).fast_fn is not None


class TestDescSpec:
    def test_interp_spec_roundtrip(self):
        desc = gallery.load_clf()
        spec = parallel._spec_for(desc)
        rebuilt = parallel._materialise(spec)
        assert rebuilt.count_records(b"") == 0

    def test_generated_spec(self):
        # A generated description ships as its source text, like any other.
        desc = compile_generated(gallery.CLF)
        spec = parallel._spec_for(desc)
        assert spec.key() == parallel._spec_for(gallery.load_clf()).key()

    def test_generated_spec_keeps_fastpath(self):
        # A reference-mode generated description must ship fastpath=False:
        # otherwise it shares the fastpath module's worker-cache slot and
        # workers that rebuild it get the fast functions back.
        fast = compile_generated(gallery.CLF)
        ref = compile_generated(gallery.CLF, fastpath=False)
        fast_spec, ref_spec = parallel._spec_for(fast), parallel._spec_for(ref)
        assert fast_spec.key() != ref_spec.key()
        pool = parallel._pool(JOBS)
        assert pool.submit(_rebuilt_has_fast_fn, fast_spec, "entry_t").result()
        assert not pool.submit(_rebuilt_has_fast_fn, ref_spec,
                               "entry_t").result()

    def test_spec_is_picklable(self):
        import pickle
        spec = parallel._spec_for(gallery.load_sirius())
        assert pickle.loads(pickle.dumps(spec)).key() == spec.key()

    def test_seeding_avoids_recompilation(self):
        desc = gallery.load_clf()
        spec = parallel._spec_for(desc)
        parallel._COMPILED.pop(spec.key(), None)
        parallel._seed(desc, spec)
        assert parallel._materialise(spec) is desc
