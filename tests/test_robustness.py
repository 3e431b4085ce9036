"""Robustness suite: resource guards, fault injection, self-healing.

Three layers under test:

* **Resource guards** — :class:`ParseLimits` budgets surface as
  LIMIT_EXCEEDED-family pd errors with identical semantics in the
  interpreter and the generated engine, never as crashes.
* **Fault injection** — :mod:`repro.faults` corrupts conforming data and
  asserts the never-crash invariants; the hypothesis sweep extends that
  to arbitrary byte strings, seeded from ``tests/corpus/``.
* **Self-healing parallel engine** — injected worker crashes, clean
  worker exceptions and wedged workers all recover to byte-identical
  results, with every recovery action counted.
"""

import os
import pathlib
import random
import time

import pytest

from repro import gallery, observe, parallel
from repro.core.api import compile_description
from repro.core.errors import ErrCode, Pstate
from repro.core.limits import ParseLimits
from repro.execute import ExecOptions, run
from repro.faults import (
    FaultReport,
    boundary_truncations,
    fuzz_description,
    fuzz_gallery,
    mutation_battery,
)
from repro.tools.datagen import call_detail_workload, clf_workload, sirius_workload
from repro.tools.padsc import main

from . import test_oracle as oracle
from .test_codegen import pd_summary

JOBS = 3
CORPUS = pathlib.Path(__file__).parent / "corpus"


def _par_records(engine, data, rtype):
    return run(engine, data, "records", rtype, ExecOptions(jobs=JOBS)).pairs


@pytest.mark.usefixtures("pool_chunks")
class TestEdgeInputsPinned:
    """Truncated-final-record and empty-input behaviour is pinned
    identical across the serial and parallel runs (the oracle's
    ``serial`` and ``parallel-memory`` modes)."""

    CASES = {
        "clf": ("clf", lambda: clf_workload(200, random.Random(5))),
        "sirius": ("sirius", lambda: sirius_workload(
            60, random.Random(6)).split(b"\n", 1)[1]),
        "call_detail": ("calldetail",
                        lambda: call_detail_workload(100, random.Random(7))),
    }

    def agree(self, key, tmp_path):
        for name, (subject, make) in self.CASES.items():
            data_key = oracle.data_key(f"{name}-{key}", lambda make=make: {
                "truncated": make()[:-9], "empty": b""}[key])
            for mode in ("serial", "parallel-memory"):
                yield oracle.agree(oracle.GALLERY[subject], data_key,
                                   "records", mode, tmp_path)

    def test_truncated_final_record_identical_four_ways(self, tmp_path):
        for got in self.agree("truncated", tmp_path):
            # The cut record surfaces as a pd error, not silence: the
            # last parsed record carries errors.
            assert got.result and got.result[-1][1][1] > 0

    def test_truncation_chunked_parallel_matches_serial(self, tmp_path):
        # Big enough to really chunk (>= 3 * 64KiB windows).
        key = oracle.data_key("clf-4000-cut", lambda: clf_workload(
            4000, random.Random(8))[:-11])
        oracle.agree(oracle.GALLERY["clf"], key, "records", "parallel",
                     tmp_path, expect="parallel")

    def test_empty_input_identical_four_ways(self, tmp_path):
        for got in self.agree("empty", tmp_path):
            assert got.result == []


class TestResourceLimits:
    """Limit hits are pd errors with the LIMIT pstate bit, identical
    across engines."""

    def test_spec_parsing_and_validation(self):
        limits = ParseLimits.parse("record-bytes=4096,deadline=1.5,errors=10")
        assert limits.max_record_bytes == 4096
        assert limits.deadline == 1.5
        assert limits.max_errors == 10
        from repro.core.errors import PadsError
        with pytest.raises(PadsError):
            ParseLimits.parse("bogus=1")
        with pytest.raises(PadsError):
            ParseLimits.parse("record-bytes=0")
        with pytest.raises(PadsError):
            ParseLimits(deadline=-1.0)

    def test_limit_codes_are_not_syntactic(self):
        # Limit errors must never trigger resync-style recovery.
        assert not ErrCode.RECORD_LIMIT.is_syntactic()
        assert not ErrCode.DEADLINE_EXCEEDED.is_syntactic()
        assert ErrCode.RECORD_LIMIT.is_limit()
        assert not ErrCode.MISSING_LITERAL.is_limit()

    def _both(self, limits, data, rtype="entry_t", text=gallery.CLF):
        """The fast build's pairs, asserted equal to the reference's."""
        out = [[(r, pd_summary(p)) for r, p in compile_description(
            text, limits=limits, fastpath=fast).records(data, rtype)]
            for fast in (False, True)]
        assert out[0] == out[1]
        return out[1]

    def test_record_bytes_limit(self):
        data = clf_workload(20, random.Random(9))
        out = self._both(ParseLimits(max_record_bytes=8), data)
        assert len(out) == 20  # every record still yields a pd
        for _rep, (pstate, nerr, code, *_rest) in out:
            assert code == int(ErrCode.RECORD_LIMIT)
            assert pstate & int(Pstate.LIMIT)
            assert pstate & int(Pstate.PANIC)
            assert nerr > 0

    def test_depth_limit(self):
        data = clf_workload(10, random.Random(10))
        out = self._both(ParseLimits(max_depth=1), data)
        assert all(s[2] == int(ErrCode.NEST_LIMIT) for _r, s in out)

    def test_array_limit(self):
        sirius = sirius_workload(30, random.Random(11)).split(b"\n", 1)[1]
        out = self._both(ParseLimits(max_array_elems=1), sirius,
                         text=gallery.SIRIUS)
        assert str(int(ErrCode.ARRAY_LIMIT)) in repr(out)

    def test_error_budget_aborts_run(self):
        data = b"garbage line one\ngarbage line two\ngarbage three\n" * 10
        unlimited = self._both(None, data)
        capped = self._both(ParseLimits(max_errors=2), data)
        assert len(capped) < len(unlimited)
        # The aborting record reports the budget code and the source is
        # driven to EOF — nothing after it.
        assert capped[-1][1][2] == int(ErrCode.ERROR_BUDGET_EXCEEDED)

    def test_expired_deadline_reported_not_raised(self):
        data = clf_workload(5, random.Random(12))
        out = self._both(ParseLimits(deadline=1e-9), data)
        assert out, "deadline abort must still yield a pd"
        assert out[0][1][2] == int(ErrCode.DEADLINE_EXCEEDED)

    def test_limit_counters_in_stats(self):
        interp = compile_description(gallery.CLF,
                                     limits=ParseLimits(max_record_bytes=8))
        data = clf_workload(7, random.Random(13))
        with observe.observed() as obs:
            list(interp.records(data, "entry_t"))
        stats = obs.stats(deterministic=True)
        assert stats["limits"]["record_bytes"] == 7
        assert stats["recovery"] == {"chunk_retry": 0, "chunk_timeout": 0,
                                     "pool_rebuild": 0, "degraded": 0}

    def test_max_errors_forces_serial_path(self):
        interp = compile_description(gallery.CLF,
                                     limits=ParseLimits(max_errors=5))
        data = clf_workload(4000, random.Random(14))
        assert "max_errors" in parallel._plan_windows(interp, data, JOBS)


@pytest.mark.timing
class TestSelfHealingParallel:
    """Injected worker faults recover to byte-identical results, with
    recovery actions visible in the metrics registry.

    Marked ``timing``: these tests stall and kill real worker processes
    against wall-clock caps, so CI runs them serially, isolated from
    suite-load jitter.
    """

    @pytest.fixture()
    def big_clf(self):
        interp = gallery.load_clf()
        data = clf_workload(4000, random.Random(15))
        assert isinstance(parallel._plan_windows(interp, data, JOBS), list)
        serial = [(r, pd_summary(p))
                  for r, p in interp.records(data, "entry_t")]
        return interp, data, serial

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        # Fault hooks must be armed before workers fork; cleared after.
        parallel.shutdown()
        yield
        parallel._WORKER_FAULT = None
        parallel._WEDGE_TIMEOUT = None
        parallel.shutdown()

    def _run_with_fault(self, interp, data, fault):
        parallel._WORKER_FAULT = fault
        with observe.observed() as obs:
            out = [(r, pd_summary(p)) for r, p in
                   _par_records(interp, data, "entry_t")]
        parallel._WORKER_FAULT = None
        return out, obs.stats(deterministic=True)["recovery"]

    def test_crashed_workers_recover_and_degrade(self, big_clf):
        interp, data, serial = big_clf
        parent = os.getpid()

        def crash_all(task):
            if os.getpid() != parent:
                os._exit(13)

        out, recovery = self._run_with_fault(interp, data, crash_all)
        assert out == serial
        assert recovery["chunk_retry"] >= 1
        assert recovery["pool_rebuild"] == 1
        assert recovery["degraded"] == 1

    def test_single_bad_chunk_retries_in_process(self, big_clf):
        interp, data, serial = big_clf
        parent = os.getpid()

        def flaky_first_window(task):
            window = task[1]
            if os.getpid() != parent and window[2] == 0:
                raise RuntimeError("injected chunk failure")

        out, recovery = self._run_with_fault(interp, data, flaky_first_window)
        assert out == serial
        assert recovery["chunk_retry"] == 1
        assert recovery["pool_rebuild"] == 0
        assert recovery["degraded"] == 0

    def test_wedged_worker_times_out_and_recovers(self, big_clf, tmp_path):
        # Wedge detection gets its own clock (parallel._WEDGE_TIMEOUT)
        # rather than a ParseLimits deadline: a deadline tight enough to
        # detect the wedge quickly is also a real per-chunk data budget
        # that healthy workers can trip under full-suite load, silently
        # truncating their chunks (the flake this test used to have).
        interp, data, serial = big_clf
        parent = os.getpid()
        release = tmp_path / "release"

        def stall_first_window(task):
            window = task[1]
            if os.getpid() != parent and window[2] == 0:
                # Wedge, don't crash: hold the chunk hostage until the
                # parent finishes recovering, so the stall outlives the
                # wedge timeout however loaded the machine is.
                give_up = time.monotonic() + 60.0
                while not release.exists() and time.monotonic() < give_up:
                    time.sleep(0.05)

        parallel._WEDGE_TIMEOUT = 5.0
        try:
            out, recovery = self._run_with_fault(interp, data,
                                                 stall_first_window)
        finally:
            parallel._WEDGE_TIMEOUT = None
            release.touch()  # let the abandoned worker exit
        assert out == serial
        assert recovery["chunk_timeout"] == 1
        assert recovery["chunk_retry"] >= 1

    def test_parallel_count_survives_crashes(self, big_clf):
        interp, data, _serial = big_clf
        expected = interp.count_records(data)
        parent = os.getpid()

        def crash_all(task):
            if os.getpid() != parent:
                os._exit(13)

        parallel._WORKER_FAULT = crash_all
        assert run(interp, data, "count",
                   options=ExecOptions(jobs=JOBS)).count == expected


class TestFaultHarness:
    def test_fuzz_clf_never_crashes(self):
        report = fuzz_description(gallery.CLF, "entry_t", name="clf",
                                  n_records=6, seed=2)
        assert report.ok, report.summary()
        assert report.cases > 0
        assert report.errors > 0  # corruption must actually bite

    def test_fuzz_gallery_subset(self):
        report = fuzz_gallery(n_records=4, seed=3,
                              only=["calldetail", "netflow"])
        assert report.ok, report.summary()
        assert report.cases > 0

    def test_battery_aims_at_plan_structure(self):
        interp = gallery.load_clf()
        labels = [label for label, _fn in mutation_battery(interp, "entry_t")]
        assert any(label.startswith("drop-literal") for label in labels)
        assert any(label.startswith("double-literal") for label in labels)

    def test_boundary_truncations_cover_literal_edges(self):
        record = b'a b [x] "y" 1 2\n'
        cuts = dict(boundary_truncations(record, [b"[", b"]", b'"']))
        assert "truncate@4" in cuts  # the '[' boundary
        assert all(record.startswith(data) for data in cuts.values())

    def test_report_merge_and_summary(self):
        a, b = FaultReport(cases=2, records=5, errors=1), FaultReport(cases=1)
        a.merge(b)
        assert (a.cases, a.records, a.errors) == (3, 5, 1)
        assert a.ok
        assert "3 runs" in a.summary()


class TestCorpusNeverCrashes:
    """Every seed in tests/corpus/ parses through every gallery engine
    without violating the never-crash invariants."""

    @pytest.mark.parametrize("seed_path", sorted(CORPUS.glob("*")),
                             ids=lambda p: p.name)
    def test_seed(self, seed_path):
        from repro.faults import GALLERY_TARGETS, _never_crash
        data = seed_path.read_bytes()
        for name, text, rtype, ambient, discipline in GALLERY_TARGETS:
            interp = compile_description(
                text, ambient=ambient, discipline=discipline,
                limits=ParseLimits(deadline=10.0, max_scan=4096))
            _count, _errors, violation = _never_crash(interp, data, rtype, 30.0)
            assert violation is None, (name, seed_path.name, violation)


class TestCLIRobustness:
    @pytest.fixture()
    def clf_file(self, tmp_path):
        path = tmp_path / "clf.pads"
        path.write_text(gallery.CLF)
        return str(path)

    def test_fuzz_subcommand(self, clf_file, capsys):
        assert main(["fuzz", clf_file, "--record", "entry_t", "-n", "3"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_fuzz_gallery_flag(self, capsys):
        assert main(["fuzz", "--gallery", "--only", "calldetail",
                     "-n", "3"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_fuzz_without_target_is_usage_error(self, capsys):
        assert main(["fuzz"]) == 2
        assert "padsc:" in capsys.readouterr().err

    def test_missing_data_file_one_line_exit_2(self, clf_file, capsys):
        assert main(["count", clf_file, "/nonexistent.data"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one diagnostic line, no traceback
        assert "padsc:" in err

    def test_bad_limits_spec_exit_2(self, clf_file, tmp_path, capsys):
        data = tmp_path / "d.log"
        data.write_bytes(clf_workload(2, random.Random(1)))
        assert main(["count", clf_file, str(data),
                     "--limits", "frobnicate=1"]) == 2
        assert "padsc:" in capsys.readouterr().err

    def test_limits_flag_reaches_engine(self, clf_file, tmp_path, capsys):
        data = tmp_path / "d.log"
        data.write_bytes(clf_workload(3, random.Random(2)))
        assert main(["accum", clf_file, str(data), "--record", "entry_t",
                     "--limits", "record-bytes=8", "--stats=json"]) == 0
        import json
        stderr = capsys.readouterr().err
        doc = json.loads(stderr[stderr.index("{"):])
        assert doc["limits"]["record_bytes"] == 3
