"""Durable runs: the record-boundary index and checkpoint/resume.

Three contracts under test:

1. **Index** — built as a side effect of any pass, O(1) seek to record
   N, scan-free parallel chunk planning, and *hard rejection* of any
   stale/torn/corrupt artifact (fall back to full scan, never wrong
   answers).
2. **Checkpoint/resume** — a run interrupted at an arbitrary point
   (injected crash or real SIGKILL) resumed with ``resume=True``
   produces accumulator reports, error accounting, and deterministic
   observe metrics identical to an uninterrupted run, across the
   serial, stream, and parallel paths and every gallery description.
3. **Corrupt-artifact battery** — truncated, bit-flipped, stale, and
   zero-length ``.padsidx``/``.padsckpt`` files are detected, counted
   in ``index.rejected``/``checkpoint.rejected``, and degrade to a
   clean full re-scan.
"""

import os
import random

import pytest

from repro import durable, gallery, observe
from repro.core.api import compile_description
from repro.core.io import DEFAULT_STREAM_WINDOW, LengthPrefixedRecords
from repro.execute import ExecOptions, Fold, run
from repro.faults import GALLERY_TARGETS, kill_resume_check
from repro.tools.datagen import generate_records

from . import test_oracle as oracle

N_RECORDS = 600
CKPT_EVERY = 97  # deliberately not a divisor of N_RECORDS


def _gallery_data(name, n=N_RECORDS, seed=20050612):
    """A compiled gallery description, its record type and data."""
    by_name = {t[0]: t for t in GALLERY_TARGETS}
    _, text, rtype, ambient, discipline = by_name[name]
    desc = compile_description(text, ambient=ambient, discipline=discipline)
    rng = random.Random(seed)
    return desc, rtype, b"".join(generate_records(desc, rtype, n, rng))


#: name -> the oracle's key for ``_gallery_data(name)``.
GALLERY_KEYS = {t[0]: oracle.data_key(f"{t[0]}-{N_RECORDS}", lambda name=t[0]:
                                      _gallery_data(name)[2])
                for t in GALLERY_TARGETS}


def _gallery_file(tmp_path, name, n=N_RECORDS, seed=20050612):
    """A compiled gallery description plus a conforming data file."""
    desc, rtype, data = _gallery_data(name, n, seed)
    path = tmp_path / f"{name}.dat"
    path.write_bytes(data)
    return desc, str(path), rtype, data


def _accum(desc, path, rtype, **kw):
    """A checkpointed accumulation: ``(acc, tally)``."""
    return durable.drive(desc, path, Fold("accum", rtype), **kw)


def _count(desc, path, **kw):
    return durable.drive(desc, path, Fold("count"), **kw).records


def _records(desc, path, rtype, **kw):
    return durable.drive(desc, path, Fold("records", rtype), **kw)


def _crash_at(point):
    """Run ``fn`` with an injected hard crash after ``point`` units."""
    class _ctx:
        def __enter__(self):
            durable._CRASH_AFTER = point
        def __exit__(self, *exc):
            durable._CRASH_AFTER = None
    return _ctx()


def _reports(acc, tally):
    return (acc.full_report(), tally.records, tally.bad_records,
            tally.total_errors, dict(tally.by_code))


class TestIndex:
    def test_build_and_load_round_trip(self, tmp_path):
        desc, path, _rt, data = _gallery_file(tmp_path, "clf")
        idx, target = durable.build_index(desc, path, interval=50)
        assert target == path + durable.INDEX_SUFFIX
        assert idx.records == N_RECORDS
        assert idx.interval == 50
        assert idx.offsets[0] == 0
        assert idx.offsets == sorted(idx.offsets)
        assert len(idx.offsets) == 1 + N_RECORDS // 50
        assert idx.size == len(data)
        again = durable.load_index(path, desc.discipline)
        assert again is not None and again.offsets == idx.offsets

    def test_open_at_record_matches_scan(self, tmp_path):
        desc, path, _rt, _data = _gallery_file(tmp_path, "clf")
        idx, _ = durable.build_index(desc, path, interval=50)
        scan = desc.open_file(path)
        with scan:
            by_scan = {}
            while scan.begin_record():
                by_scan[scan.record_idx] = scan.record_bytes()
                scan.end_record()
        for n in (0, 1, 49, 50, 51, 123, N_RECORDS - 1):
            src = durable.open_at_record(desc, path, n, idx)
            assert src is not None
            assert src.begin_record()
            assert src.record_idx == n
            assert src.record_bytes() == by_scan[n]
            src.close()
        # Past the end: None, not garbage.
        assert durable.open_at_record(desc, path, N_RECORDS, idx) is None

    def test_seek_record_is_o1_bounded(self, tmp_path):
        desc, path, _rt, _data = _gallery_file(tmp_path, "clf")
        idx, _ = durable.build_index(desc, path, interval=50)
        offset, base = durable.seek_record(idx, 137)
        assert base == 100 and offset == idx.offsets[2]
        assert 137 - base < idx.interval

    def test_indexed_chunk_plan_tiles_the_file(self, tmp_path):
        desc, path, _rt, data = _gallery_file(tmp_path, "clf")
        idx, _ = durable.build_index(desc, path, interval=20)
        plan = durable.plan_chunks_indexed(idx, 4, min_chunk=1)
        assert plan is not None and len(plan) > 1
        assert plan[0][0] == 0 and plan[-1][1] == len(data)
        for (_s1, e1), (s2, _e2) in zip(plan, plan[1:]):
            assert e1 == s2  # contiguous, no gap or overlap
        for s, _e in plan[1:]:
            assert s in idx.offsets  # every cut is a sampled boundary
        # Parsing the chunks independently re-yields every record.
        total = 0
        for s, e in plan:
            from repro.core.io import Source
            src = Source.from_file(path, desc.discipline, start=s, end=e)
            with src:
                while src.begin_record():
                    src.end_record()
                    total += 1
        assert total == N_RECORDS

    def test_index_unlocks_parallel_for_length_prefixed(self, tmp_path):
        # LengthPrefixedRecords has no scannable boundary: the parallel
        # engine previously always degraded to serial.  A persistent
        # index makes the split possible — sampled offsets ARE record
        # starts.
        import pathlib
        from repro.parallel import _plan_windows
        lp = LengthPrefixedRecords()
        raw = b"".join(len(p).to_bytes(4, "big") + p
                       for p in (b"x" * 40, b"y" * 30, b"z" * 50) * 2000)
        lp_path = tmp_path / "tlv.bin"
        lp_path.write_bytes(raw)
        assert not lp.chunkable
        tlv = compile_description(
            'Psource Pstruct rec_t { Pstring_ME(:"[a-z]+":) body; };',
            ambient="binary", discipline=lp)
        assert "no boundary index" in _plan_windows(
            tlv, pathlib.Path(str(lp_path)), 2)
        durable.build_index(tlv, str(lp_path), interval=100)
        windows = _plan_windows(tlv, pathlib.Path(str(lp_path)), 2)
        assert isinstance(windows, list) and len(windows) >= 2
        res = run(tlv, pathlib.Path(str(lp_path)), "count",
                  options=ExecOptions(jobs=2))
        assert (res.mode, res.count) == ("parallel", 6000)

    def test_stream_pass_builds_index_as_side_effect(self, tmp_path):
        from repro.stream import count_records_stream, records_stream
        desc, path, rtype, _data = _gallery_file(tmp_path, "clf")
        n = count_records_stream(desc, path, index=50)
        idx = durable.load_index(path, desc.discipline)
        assert idx is not None and idx.records == n == N_RECORDS
        assert idx.interval == 50
        os.unlink(path + durable.INDEX_SUFFIX)
        # An abandoned iterator must NOT publish a partial index.
        it = records_stream(desc, path, rtype, index=True)
        next(it)
        it.close()
        assert durable.load_index(path, desc.discipline) is None

    def test_durable_run_builds_index_and_reuses_it(self, tmp_path):
        # Big enough that the parallel planner can actually split it
        # (files under MIN_CHUNK_BYTES always stay serial).
        desc, path, rtype, _data = _gallery_file(tmp_path, "clf", n=3000)
        with observe.observed() as obs:
            _accum(desc, path, rtype,
                   index_interval=50)
        assert obs.stats()["durable"]["index_built"] == 1
        idx = durable.load_index(path, desc.discipline)
        assert idx is not None and idx.records == 3000
        with observe.observed() as obs2:
            _count(desc, path, jobs=2)
        assert obs2.stats()["durable"]["index_hits"] >= 1


def _flip_byte(path, at):
    blob = bytearray(open(path, "rb").read())
    blob[at] ^= 0x40
    open(path, "wb").write(bytes(blob))


class TestCorruptIndex:
    """Every damaged index is rejected, counted, and harmless."""

    @pytest.fixture()
    def built(self, tmp_path):
        desc, path, rtype, data = _gallery_file(tmp_path, "clf")
        durable.build_index(desc, path, interval=50)
        return desc, path, rtype, data

    def _assert_rejected(self, desc, path):
        with observe.observed() as obs:
            assert durable.load_index(path, desc.discipline) is None
            assert obs.stats()["durable"]["index_rejected"] == 1
        # ...and the engines still answer correctly via full scan.
        assert desc.count_records(desc.open_file(path)) == N_RECORDS

    def test_truncated(self, built):
        desc, path, _rt, _d = built
        idx_file = path + durable.INDEX_SUFFIX
        blob = open(idx_file, "rb").read()
        open(idx_file, "wb").write(blob[:len(blob) // 2])
        self._assert_rejected(desc, path)

    def test_missing_footer_torn_write(self, built):
        desc, path, _rt, _d = built
        idx_file = path + durable.INDEX_SUFFIX
        lines = open(idx_file, "rb").read().splitlines(keepends=True)
        open(idx_file, "wb").write(b"".join(lines[:-1]))
        self._assert_rejected(desc, path)

    def test_bit_flipped(self, built):
        desc, path, _rt, _d = built
        idx_file = path + durable.INDEX_SUFFIX
        _flip_byte(idx_file, os.path.getsize(idx_file) // 2)
        self._assert_rejected(desc, path)

    def test_zero_length(self, built):
        desc, path, _rt, _d = built
        open(path + durable.INDEX_SUFFIX, "wb").close()
        self._assert_rejected(desc, path)

    def test_stale_source_mutated(self, built):
        desc, path, _rt, _d = built
        with open(path, "ab") as handle:
            handle.write(b"trailing garbage\n")
        with observe.observed() as obs:
            assert durable.load_index(path, desc.discipline) is None
            assert obs.stats()["durable"]["index_rejected"] == 1

    def test_stale_source_prefix_rewritten(self, built):
        # Same size, same length — only content changed.  mtime alone
        # could miss this (utimes games); the prefix CRC cannot.
        desc, path, _rt, _d = built
        st = os.stat(path)
        _flip_byte(path, 10)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert durable.load_index(path, desc.discipline) is None

    def test_wrong_discipline(self, built):
        desc, path, _rt, _d = built
        assert durable.load_index(path, LengthPrefixedRecords()) is None

    def test_missing_is_silent(self, tmp_path):
        desc, path, _rt, _d = _gallery_file(tmp_path, "clf", n=5)
        with observe.observed() as obs:
            assert durable.load_index(path, desc.discipline) is None
            assert obs.stats()["durable"]["index_rejected"] == 0


class TestCorruptCheckpoint:
    """Every damaged checkpoint starts the run over — never a crash,
    never a skewed result."""

    def _interrupted(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf")
        ref = _accum(desc, path, rtype, checkpoint=None,
                     build_index=False)
        with _crash_at(300):
            with pytest.raises(durable._InjectedCrash):
                _accum(desc, path, rtype,
                       interval=CKPT_EVERY,
                       build_index=False)
        ckpt = path + durable.CHECKPOINT_SUFFIX
        assert os.path.exists(ckpt)
        return desc, path, rtype, ref, ckpt

    def _assert_full_rerun(self, desc, path, rtype, ref, rejected=1,
                           reason=None):
        with observe.observed() as obs:
            acc, tally = _accum(
                desc, path, rtype, interval=CKPT_EVERY, resume=True,
                build_index=False)
            s = obs.stats()["durable"]
            assert s["checkpoint_rejected"] == rejected
            if reason is not None:
                assert obs.metrics.value("checkpoint.rejected_reason",
                                         reason) == rejected
            assert s["checkpoint_resumes"] == 0
            assert s["records_skipped"] == 0
        assert _reports(acc, tally) == _reports(*ref)

    def test_truncated(self, tmp_path):
        desc, path, rtype, ref, ckpt = self._interrupted(tmp_path)
        blob = open(ckpt, "rb").read()
        open(ckpt, "wb").write(blob[:len(blob) // 2])
        self._assert_full_rerun(desc, path, rtype, ref)

    def test_bit_flipped(self, tmp_path):
        desc, path, rtype, ref, ckpt = self._interrupted(tmp_path)
        _flip_byte(ckpt, os.path.getsize(ckpt) // 2)
        self._assert_full_rerun(desc, path, rtype, ref)

    def test_zero_length(self, tmp_path):
        desc, path, rtype, ref, ckpt = self._interrupted(tmp_path)
        open(ckpt, "wb").close()
        self._assert_full_rerun(desc, path, rtype, ref)

    def test_older_payload_version(self, tmp_path):
        # Correctly framed (valid CRC) but written by an older payload
        # layout: rejected as ``version`` before anything is unpacked.
        desc, path, rtype, ref, ckpt = self._interrupted(tmp_path)
        payload = durable._load_checkpoint(ckpt)
        payload["version"] = durable._CKPT_VERSION - 1
        durable._write_checkpoint(ckpt, payload)
        self._assert_full_rerun(desc, path, rtype, ref, reason="version")

    def test_stale_source(self, tmp_path):
        desc, path, rtype, ref, ckpt = self._interrupted(tmp_path)
        # The source shrank by one byte after the crash: every offset in
        # the checkpoint is now suspect.  Binding mismatch -> start over.
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-1])
        ref2 = _accum(desc, path, rtype, checkpoint=None,
                      build_index=False)
        self._assert_full_rerun(desc, path, rtype, ref2)

    def test_wrong_mode(self, tmp_path):
        desc, path, rtype, ref, ckpt = self._interrupted(tmp_path)
        with observe.observed() as obs:
            n = _count(desc, path, interval=CKPT_EVERY,
                       resume=True, build_index=False)
            assert obs.stats()["durable"]["checkpoint_rejected"] == 1
        assert n == N_RECORDS

    def test_missing_is_silent(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=20)
        with observe.observed() as obs:
            _accum(desc, path, rtype, resume=True,
                   build_index=False)
            assert obs.stats()["durable"]["checkpoint_rejected"] == 0


#: The in-process durable loop reads through ``Source.from_file``
#: (``window=None``) or a sliding stream window.
WINDOWS = pytest.mark.parametrize("window", [None, DEFAULT_STREAM_WINDOW],
                                  ids=["serial", "stream"])


class TestCrashResumeDifferential:
    """Interrupt at an arbitrary record, resume, compare everything with
    the oracle's serial reference (``tests/test_oracle.py``)."""

    @pytest.mark.parametrize("name", [t[0] for t in GALLERY_TARGETS])
    @WINDOWS
    def test_gallery_serial_and_stream(self, tmp_path, name, window):
        key = GALLERY_KEYS[name]
        crash_at = 257 if name != "netflow" else 1
        oracle.agree(oracle.GALLERY[name], key, "accum", "durable", tmp_path,
                     crash=(crash_at, CKPT_EVERY), window=window)
        assert not os.path.exists(str(tmp_path / f"{key}.dat")
                                  + durable.CHECKPOINT_SUFFIX)

    @pytest.mark.parametrize("crash_at", [1, 96, 97, 98, 599, 600])
    def test_every_interruption_point_class(self, tmp_path, crash_at):
        # Before the first checkpoint, exactly on one, just after one,
        # on the final record, and past the end (no crash at all).
        key = GALLERY_KEYS["clf"]
        oracle.agree(oracle.GALLERY["clf"], key, "accum", "durable",
                     tmp_path, crash=(crash_at, CKPT_EVERY))

    def test_dirty_data_error_accounting_survives_resume(self, tmp_path):
        # Errors (bad records, per-code tallies, record-indexed
        # locations) must continue across the crash, not restart at 0.
        from repro.tools.datagen import ErrorInjector, generate_source
        subject = oracle.GALLERY["clf"]

        def dirty():
            return generate_source(subject.build(), subject.rtype, N_RECORDS,
                                   random.Random(99), ErrorInjector(0.2))
        key = oracle.data_key("clf-dirty", dirty)
        got = oracle.agree(subject, key, "accum", "durable", tmp_path,
                           crash=(301, CKPT_EVERY))
        assert dict(got.result[1])["bad_records"] > 0  # the corruption bites

    def test_records_durable_resume_yields_the_suffix(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf")
        whole = [rep for rep, _pd in
                 _records(desc, path, rtype, checkpoint=None,
                          build_index=False)]
        assert len(whole) == N_RECORDS
        count = 0
        with _crash_at(250):
            try:
                for _rep, _pd in _records(
                        desc, path, rtype, interval=CKPT_EVERY,
                        build_index=False):
                    count += 1
            except durable._InjectedCrash:
                pass
        assert count == 250
        resumed = [rep for rep, _pd in
                   _records(desc, path, rtype,
                            interval=CKPT_EVERY, resume=True,
                            build_index=False)]
        # The resumed iterator restarts at the last checkpoint (194 ==
        # 2*97 records were durably done) and replays only the suffix.
        assert resumed == whole[194:]

    def test_crash_with_index_building_still_completes_index(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf")
        with _crash_at(300):
            try:
                _accum(desc, path, rtype,
                       interval=CKPT_EVERY,
                       index_interval=50)
            except durable._InjectedCrash:
                pass
        assert durable.load_index(path, desc.discipline) is None
        _accum(desc, path, rtype, interval=CKPT_EVERY,
               resume=True, index_interval=50)
        idx = durable.load_index(path, desc.discipline)
        assert idx is not None and idx.records == N_RECORDS
        # The stitched-together offsets equal a one-shot build's.
        os.unlink(path + durable.INDEX_SUFFIX)
        one_shot, _ = durable.build_index(desc, path, interval=50)
        assert idx.offsets == one_shot.offsets


class TestParallelDurable:
    def test_parallel_matches_parallel_engine(self, tmp_path):
        import pathlib
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=3000)
        ref = run(desc, pathlib.Path(path), "accum", rtype, ExecOptions(jobs=2))
        ref_acc, ref_tally = ref.acc, ref.tally
        acc, tally = _accum(desc, path, rtype, jobs=2,
                            build_index=False)
        assert _reports(acc, tally) == _reports(ref_acc, ref_tally)

    def test_parallel_crash_resume_skips_completed_chunks(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=3000)
        ref = _accum(desc, path, rtype, jobs=2,
                     checkpoint=None, build_index=False)
        with _crash_at(1):  # parallel path: crash after chunk #1 reduces
            try:
                _accum(desc, path, rtype, jobs=2,
                       build_index=False)
            except durable._InjectedCrash:
                pass
        ckpt = durable._load_checkpoint(path + durable.CHECKPOINT_SUFFIX)
        assert ckpt is not None and ckpt["chunks_done"] == 1
        assert ckpt["windows"] is not None
        with observe.observed() as obs:
            out = _accum(desc, path, rtype, jobs=2,
                         resume=True, build_index=False)
            skipped = obs.stats()["durable"]["records_skipped"]
        assert skipped == ckpt["records_done"] > 0
        assert _reports(*out) == _reports(*ref)

    def test_parallel_count_crash_resume(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=3000)
        with _crash_at(1):
            try:
                _count(desc, path, jobs=2,
                       build_index=False)
            except durable._InjectedCrash:
                pass
        n = _count(desc, path, jobs=2, resume=True,
                   build_index=False)
        assert n == 3000


@pytest.mark.timing
class TestKillResume:
    """A real fork + SIGKILL (process group, so pool workers die too)."""

    def test_sigkill_then_resume_matches_reference(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=4000)
        detail = kill_resume_check(desc, path, rtype,
                                   rng=random.Random(7), interval=50)
        assert detail is None, detail


class TestCheckpointFileFormat:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=50)
        _accum(desc, path, rtype, interval=10)
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
        assert leftovers == []

    def test_checkpoint_none_never_touches_disk(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf", n=50)
        before = set(os.listdir(tmp_path))
        _accum(desc, path, rtype, checkpoint=None,
               build_index=False)
        assert set(os.listdir(tmp_path)) == before

    def test_explicit_checkpoint_path(self, tmp_path):
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf")
        alt = str(tmp_path / "elsewhere.ckpt")
        with _crash_at(200):
            try:
                _accum(desc, path, rtype, checkpoint=alt,
                       interval=CKPT_EVERY,
                       build_index=False)
            except durable._InjectedCrash:
                pass
        assert os.path.exists(alt)
        ref = _accum(desc, path, rtype, checkpoint=None,
                     build_index=False)
        out = _accum(desc, path, rtype, checkpoint=alt,
                     interval=CKPT_EVERY, resume=True,
                     build_index=False)
        assert _reports(*out) == _reports(*ref)
        assert not os.path.exists(alt)


class TestCLI:
    def _write_desc(self, tmp_path):
        p = tmp_path / "clf.pads"
        p.write_text(gallery.CLF)
        return str(p)

    def test_index_build_and_verify(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc_file = self._write_desc(tmp_path)
        _desc, path, _rt, _d = _gallery_file(tmp_path, "clf")
        assert main(["index", desc_file, path, "--interval", "50"]) == 0
        out = capsys.readouterr().out
        assert "600 records" in out
        assert main(["index", desc_file, path, "--verify"]) == 0
        _flip_byte(path + durable.INDEX_SUFFIX, 30)
        assert main(["index", desc_file, path, "--verify"]) == 1

    def test_checkpoint_resume_accum(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc_file = self._write_desc(tmp_path)
        desc, path, rtype, _d = _gallery_file(tmp_path, "clf")
        ref = _accum(desc, path, rtype, checkpoint=None,
                     build_index=False)
        assert main(["accum", desc_file, path, "--record", rtype,
                     "--checkpoint", "100"]) == 0
        full = capsys.readouterr()
        assert "600 records" in full.err
        assert ref[0].full_report(10) in full.out
        # Resume with no checkpoint on disk: clean full run, exit 0.
        assert main(["accum", desc_file, path, "--record", rtype,
                     "--resume"]) == 0

    def test_count_checkpoint(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc_file = self._write_desc(tmp_path)
        _desc, path, _rt, _d = _gallery_file(tmp_path, "clf")
        assert main(["count", desc_file, path, "--checkpoint"]) == 0
        assert capsys.readouterr().out.strip() == "600"

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc_file = self._write_desc(tmp_path)
        _desc, path, _rt, _d = _gallery_file(tmp_path, "clf")
        assert main(["accum", desc_file, "-", "--record", "entry_t",
                     "--checkpoint"]) == 2
        assert main(["accum", desc_file, path, "--record", "entry_t",
                     "--checkpoint", "--follow", "0.1"]) == 2
        assert main(["index", desc_file, "-"]) == 2

    def test_stats_surface_durable_metrics(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc_file = self._write_desc(tmp_path)
        _desc, path, _rt, _d = _gallery_file(tmp_path, "clf")
        assert main(["count", desc_file, path, "--checkpoint", "100",
                     "--stats"]) == 0
        err = capsys.readouterr().err
        assert "durable:" in err and "ckpt-writes: 6" in err
