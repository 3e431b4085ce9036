"""Tests for the ``padsc`` command line."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import compile_description, gallery
from repro.codegen import compile_generated
from repro.core.io import Source
from repro.tools.padsc import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def clf_file(tmp_path):
    path = tmp_path / "clf.pads"
    path.write_text(gallery.CLF)
    return str(path)


@pytest.fixture
def clf_data(tmp_path):
    path = tmp_path / "clf.log"
    path.write_text(gallery.CLF_SAMPLE)
    return str(path)


@pytest.fixture
def sirius_file(tmp_path):
    path = tmp_path / "sirius.pads"
    path.write_text(gallery.SIRIUS)
    return str(path)


@pytest.fixture
def sirius_data(tmp_path):
    path = tmp_path / "sirius.dat"
    path.write_text(gallery.SIRIUS_SAMPLE)
    return str(path)


class TestCheckAndCompile:
    def test_check_ok(self, clf_file, capsys):
        assert main(["check", clf_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_bad_description(self, tmp_path, capsys):
        path = tmp_path / "bad.pads"
        path.write_text("Pstruct p { Pnosuch x; };")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_produces_importable_module(self, clf_file, tmp_path, capsys):
        out = str(tmp_path / "clf_parser.py")
        assert main(["compile", clf_file, "-o", out]) == 0
        # the file is exactly the module the generated engine runs
        with open(out, encoding="utf-8") as handle:
            written = handle.read()
        assert written == compile_generated(gallery.CLF,
                                            filename=clf_file).py_source
        sys.path.insert(0, str(tmp_path))
        try:
            import clf_parser  # noqa: F401
            src = Source.from_bytes(gallery.CLF_SAMPLE.encode())
            rep, pd = clf_parser.entry_t_read(src)
            assert pd.nerr == 0 and rep.response == 200
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("clf_parser", None)

    def test_compiled_module_runs_in_a_fresh_interpreter(self, clf_file,
                                                         tmp_path, capsys):
        # Nothing presets the module's description: its first call
        # compiles the embedded SOURCE, and the Figure 6 functions must
        # then reproduce compile_description record for record.
        out = tmp_path / "clf_parser.py"
        assert main(["compile", clf_file, "-o", str(out)]) == 0
        script = (
            "import io, sys\n"
            "import clf_parser as m\n"
            "from repro.core.io import Source\n"
            "assert m._INTERP is None\n"
            "src = Source.from_bytes(sys.stdin.buffer.read())\n"
            "while not src.at_eof():\n"
            "    rep, pd = m.entry_t_read(src)\n"
            "    buf = io.BytesIO()\n"
            "    m.entry_t_write2io(buf, rep)\n"
            "    print(repr(rep), pd.nerr, buf.getvalue())\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tmp_path), str(SRC)]))
        result = subprocess.run([sys.executable, "-c", script],
                                input=gallery.CLF_SAMPLE.encode(), env=env,
                                capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode()
        ref = compile_description(gallery.CLF)
        want = "".join(f"{rep!r} {pd.nerr} {ref.write(rep, 'entry_t')}\n"
                       for rep, pd in ref.records(gallery.CLF_SAMPLE,
                                                  "entry_t"))
        assert result.stdout.decode() == want


class TestDataTools:
    def test_accum(self, clf_file, clf_data, capsys):
        assert main(["accum", clf_file, clf_data, "--record", "entry_t",
                     "--field", "length"]) == 0
        out = capsys.readouterr().out
        assert "good: 2 bad: 0" in out
        assert "<top>.length" in out

    def test_fmt_reproduces_figure8(self, clf_file, clf_data, capsys):
        assert main(["fmt", clf_file, clf_data, "--record", "entry_t",
                     "--delims", "|", "--date-format", "%D:%T"]) == 0
        out = capsys.readouterr().out
        assert out == gallery.CLF_FORMATTED

    def test_xml(self, sirius_file, sirius_data, capsys):
        assert main(["xml", sirius_file, sirius_data, "--record",
                     "entry_t"]) == 0
        out = capsys.readouterr().out
        assert "<order_num>9152</order_num>" in out

    def test_xsd(self, sirius_file, capsys):
        assert main(["xsd", sirius_file, "--type", "eventSeq"]) == 0
        out = capsys.readouterr().out
        assert '<xs:complexType name="eventSeq_pd">' in out

    def test_query(self, sirius_file, sirius_data, capsys):
        assert main(["query", sirius_file, sirius_data,
                     "/es/entry/header/order_num", "--root", "sirius"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["9152", "9153"]

    def test_gen_roundtrip(self, clf_file, tmp_path, capsys):
        out = str(tmp_path / "gen.log")
        assert main(["gen", clf_file, "--type", "entry_t", "-n", "5",
                     "--seed", "3", "-o", out]) == 0
        assert main(["accum", clf_file, out, "--record", "entry_t",
                     "--field", "response"]) == 0
        assert "good: 5 bad: 0" in capsys.readouterr().out

    def test_cobol(self, tmp_path, capsys):
        import importlib.resources as res
        cpy = tmp_path / "billing.cpy"
        cpy.write_text((res.files("repro.gallery") / "billing.cpy").read_text())
        assert main(["cobol", str(cpy)]) == 0
        out = capsys.readouterr().out
        assert "Precord Pstruct billing_record_t" in out


class TestCountAndJobs:
    @pytest.fixture
    def big_log(self, tmp_path):
        import random
        from repro.tools.datagen import clf_workload
        path = tmp_path / "big.log"
        path.write_bytes(clf_workload(2500, random.Random(20050612)))
        return str(path)

    def test_count(self, clf_file, clf_data, capsys):
        assert main(["count", clf_file, clf_data]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_count_parallel_matches_serial(self, clf_file, big_log, capsys):
        assert main(["count", clf_file, big_log]) == 0
        serial = capsys.readouterr().out
        assert main(["count", clf_file, big_log, "-j", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert serial.strip() == "2500"

    def test_accum_parallel_matches_serial(self, clf_file, big_log, capsys):
        argv = ["accum", clf_file, big_log, "--record", "entry_t"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_fmt_parallel_matches_serial(self, clf_file, big_log, capsys):
        argv = ["fmt", clf_file, big_log, "--record", "entry_t",
                "--delims", "|"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["-j", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_on_stdin_pipelines_into_the_pool(self, clf_file, big_log,
                                                   capsys, monkeypatch):
        # --jobs on stdin feeds the pool chunk-by-chunk (no silent
        # one-core degrade, no slurp); same count as the serial path.
        import io as _io
        data = open(big_log, "rb").read()
        monkeypatch.setattr("sys.stdin",
                            type("S", (), {"buffer": _io.BytesIO(data)})())
        assert main(["count", clf_file, "-", "-j", "4"]) == 0
        assert capsys.readouterr().out.strip() == "2500"

    def test_jobs_on_unchunkable_stdin_is_an_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # The CLI contract: --jobs it cannot honour is exit 2 with one
        # diagnostic line, never a silent serial run.
        import io as _io
        desc = tmp_path / "v.pads"
        desc.write_text("Precord Pstruct entry_t { Puint32 n; };")
        monkeypatch.setattr("sys.stdin",
                            type("S", (), {"buffer": _io.BytesIO(b"")})())
        assert main(["count", str(desc), "-", "-j", "4",
                     "--records", "lenprefix:4"]) == 2
        err = capsys.readouterr().err
        assert "cannot split" in err
        assert err.strip().count("\n") == 0

    def test_follow_with_jobs_is_an_error(self, clf_file, clf_data, capsys):
        assert main(["count", clf_file, clf_data, "-j", "2",
                     "--follow", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "--follow" in err
        assert err.strip().count("\n") == 0

    def test_xml_parallel_matches_serial(self, clf_file, big_log, capsys):
        argv = ["xml", clf_file, big_log, "--record", "entry_t"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["-j", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_fmt_stdout_is_byte_transparent(self, tmp_path, capsysbinary):
        """High bytes reach stdout as the bytes they were parsed from,
        not their utf-8 re-encoding (fmt/xml write raw bytes)."""
        desc = tmp_path / "l1.pads"
        desc.write_text("Precord Pstruct entry_t {"
                        " Pstring(:'|':) name; '|'; Puint32 n; };")
        data = tmp_path / "l1.dat"
        data.write_bytes(b"caf\xe9|7\nna\xefve|9\n")
        assert main(["fmt", str(desc), str(data),
                     "--record", "entry_t"]) == 0
        out = capsysbinary.readouterr().out
        assert out == b"caf\xe9|7\nna\xefve|9\n"
        assert main(["xml", str(desc), str(data),
                     "--record", "entry_t"]) == 0
        out = capsysbinary.readouterr().out
        assert b"<name>caf\xe9</name>" in out
        assert b"caf\xc3\xa9" not in out

    def test_accum_report_is_byte_transparent(self, tmp_path, capsysbinary):
        """Accumulator reports quote raw field bytes; high bytes must not
        mojibake into their utf-8 re-encoding (the fmt/xml treatment)."""
        desc = tmp_path / "l1.pads"
        desc.write_text("Precord Pstruct entry_t {"
                        " Pstring(:'|':) name; '|'; Puint32 n; };")
        data = tmp_path / "l1.dat"
        data.write_bytes(b"caf\xe9|7\nna\xefve|9\n")
        assert main(["accum", str(desc), str(data),
                     "--record", "entry_t"]) == 0
        out = capsysbinary.readouterr().out
        assert b"caf\xe9" in out
        assert b"caf\xc3\xa9" not in out

    def test_stdin_count_streams_without_slurp(self, clf_file, big_log,
                                               capsys, monkeypatch):
        """Stdin reads through a sliding window: a tiny window still
        counts every record of an input many times its size."""
        import io as _io
        data = open(big_log, "rb").read()
        monkeypatch.setattr("sys.stdin",
                            type("S", (), {"buffer": _io.BytesIO(data)})())
        assert main(["count", clf_file, "-", "--window", "4096"]) == 0
        assert capsys.readouterr().out.strip() == "2500"

    def test_follow_idle_timeout_drains_growing_file(self, clf_file,
                                                     big_log, capsys):
        assert main(["count", clf_file, big_log, "--follow", "0.2"]) == 0
        assert capsys.readouterr().out.strip() == "2500"


class TestObservabilityFlags:
    @pytest.fixture
    def big_log(self, tmp_path):
        import random
        from repro.tools.datagen import clf_workload
        path = tmp_path / "big.log"
        path.write_bytes(clf_workload(800, random.Random(7)))
        return str(path)

    @staticmethod
    def _deterministic(doc):
        """The projection of a --stats=json doc that must be identical
        between serial and parallel runs (drop wall-clock values and the
        engine decision, which names the mode that ran)."""
        doc = dict(doc)
        doc.pop("throughput", None)
        doc.pop("engine", None)
        doc["latency"] = {name: {"count": hist["count"]}
                         for name, hist in doc["latency"].items()}
        return doc

    def test_stats_text_goes_to_stderr(self, clf_file, clf_data, capsys):
        assert main(["accum", clf_file, clf_data, "--record", "entry_t",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "records: 2" in captured.err
        assert "records/sec" in captured.err
        assert "records/sec" not in captured.out  # stdout stays data-only

    #: extra flags -> the mode ``count`` and ``accum`` report on CLF.
    MODE_CASES = [
        ([], {"count": "serial", "accum": "serial"}),
        (["-j", "2"], {"count": "parallel", "accum": "parallel"}),
        (["-", "-j", "2"], {"count": "parallel-stream",
                            "accum": "parallel-stream"}),
        (["--checkpoint"], {"count": "durable", "accum": "durable"}),
    ]

    @pytest.mark.parametrize("command", ["count", "accum"])
    @pytest.mark.parametrize("extra,modes", MODE_CASES,
                             ids=[" ".join(c[0]) or "default"
                                  for c in MODE_CASES])
    def test_stats_report_the_mode_that_ran(self, clf_file, big_log, capsys,
                                            monkeypatch, small_chunks,
                                            command, extra, modes):
        import io
        import json
        mode = modes[command]
        data = big_log
        if extra[:1] == ["-"]:
            monkeypatch.setattr(sys, "stdin", type(
                "S", (), {"buffer": io.BytesIO(open(big_log, "rb").read())})())
            data, extra = "-", extra[1:]
        argv = [command, clf_file, data, "--stats=json"] + extra
        if command == "accum":
            argv += ["--record", "entry_t"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        doc = json.loads(err[err.index("{"):])
        assert doc["engine"]["mode"] == mode
        assert doc["engine"]["reason"]

    def test_stats_json_shape(self, clf_file, clf_data, capsys):
        import json
        assert main(["fmt", clf_file, clf_data, "--record", "entry_t",
                     "--delims", "|", "--date-format", "%D:%T",
                     "--stats=json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.err)
        assert doc["records"]["total"] == 2
        assert doc["bytes"]["total"] == len(gallery.CLF_SAMPLE)
        assert {"records", "bytes", "errors", "latency", "record_bytes",
                "resync", "throughput"} <= set(doc)
        assert captured.out == gallery.CLF_FORMATTED

    def test_stats_json_serial_matches_parallel(self, clf_file, big_log,
                                                capsys):
        import json
        argv = ["accum", clf_file, big_log, "--record", "entry_t",
                "--stats=json"]
        assert main(argv) == 0
        serial = capsys.readouterr()
        assert main(argv + ["-j", "4"]) == 0
        parallel = capsys.readouterr()
        assert parallel.out == serial.out
        # cmd_accum also notes the record count on stderr; the stats
        # document is the JSON object that follows.
        s_doc = self._deterministic(json.loads(serial.err[serial.err.index("{"):]))
        p_doc = self._deterministic(json.loads(parallel.err[parallel.err.index("{"):]))
        assert s_doc == p_doc
        assert s_doc["records"]["total"] == 800

    def test_trace_to_file(self, clf_file, clf_data, tmp_path, capsys):
        import json
        out = tmp_path / "trace.jsonl"
        assert main(["xml", clf_file, clf_data, "--record", "entry_t",
                     "--trace", str(out)]) == 0
        events = [json.loads(line)
                  for line in out.read_text().splitlines()]
        assert events
        assert {"kind", "path", "type", "start", "end", "record",
                "outcome", "err"} <= set(events[0])
        assert sum(1 for e in events if e["kind"] == "record") == 2

    def test_trace_default_streams_to_stderr(self, clf_file, clf_data,
                                             capsys):
        import json
        assert main(["count", clf_file, clf_data, "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "2"
        # count never parses fields, so only the stream being valid JSONL
        # (possibly empty) is guaranteed here.
        for line in captured.err.splitlines():
            json.loads(line)

    def test_stats_flag_error_paths_keep_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.pads"
        bad.write_text("Pstruct p { Pnosuch x; };")
        data = tmp_path / "d.txt"
        data.write_text("x\n")
        assert main(["accum", str(bad), str(data), "--record", "p",
                     "--stats"]) == 2
        assert main(["query", "/nonexistent.pads", str(data), "/a",
                     "--stats=json"]) == 2


class TestHeaderOnBatchEligible:
    """``--header`` parses a serial prefix first; on a description with a
    batch kernel the records after it still take the record loop's grid
    block step, and ``--engine`` (which once pinned a separate batch
    mode) is gone."""

    @pytest.fixture
    def calls(self, tmp_path):
        import random
        from repro.tools.datagen import call_detail_workload
        desc = tmp_path / "calls.pads"
        desc.write_text(gallery.CALL_DETAIL)
        data = tmp_path / "calls.bin"
        data.write_bytes(call_detail_workload(40, random.Random(5)))
        return [str(desc), str(data), "--record", "call_t", "--ambient",
                "binary", "--records", f"fixed:{gallery.CALL_DETAIL_WIDTH}"]

    def test_auto_picks_cursor_and_says_why(self, calls, capsys):
        assert main(["accum"] + calls + ["--header", "call_t",
                                          "--stats"]) == 0
        captured = capsys.readouterr()
        assert "39 records" in captured.err
        engine = [ln for ln in captured.err.splitlines()
                  if ln.startswith("engine:")]
        assert len(engine) == 1
        assert "serial" in engine[0]
        assert "grid: 24-byte columns at 24-byte pitch" in engine[0]
        assert "batch:   records: 39 " in captured.err

    def test_explicit_batch_with_header_exits_2(self, calls, capsys):
        assert main(["accum"] + calls + ["--header", "call_t",
                                          "--engine", "batch"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --engine batch" in err
        assert err.strip().count("\n") == 0


class TestFlagConflictMatrix:
    """The audited flag-conflict matrix: every invalid combination is
    one diagnostic line on stderr and exit code 2 — never a traceback,
    never a silently different run.  Before the audit, several of these
    tracebacked (``--records fixed:abc``) or silently ignored a flag
    (``--engine batch --jobs 2`` ran the parallel pool; ``--engine`` is
    gone since every mode runs the one record loop)."""

    CASES = [
        # malformed record-discipline specs used to escape as ValueError
        (["--records", "fixed:abc"], "bad record discipline"),
        (["--records", "fixed:0"], "bad record discipline"),
        (["--records", "lenprefix:xyz"], "bad record discipline"),
        (["--records", "martian"], "unknown record discipline"),
        # nonsense numeric flags
        (["--jobs", "0"], "--jobs 0"),
        (["--jobs", "-3"], "--jobs -3"),
        (["--window", "0"], "--window 0"),
        (["--window", "-1"], "--window -1"),
        # one record loop: there is no engine to pin
        (["--engine", "cursor", "--jobs", "2"],
         "unrecognized arguments: --engine cursor"),
        (["--engine", "batch", "--jobs", "2"],
         "unrecognized arguments: --engine batch"),
        # unbounded tails cannot fan out or checkpoint
        (["--follow", "--jobs", "2"], "--follow"),
        (["--checkpoint", "--follow"], "cannot be checkpointed"),
        (["--checkpoint", "--engine", "batch"],
         "unrecognized arguments: --engine batch"),
        # budgets with malformed specs
        (["--limits", "nope=1"], "bad --limits entry"),
        (["--limits", "deadline=soon"], "bad --limits value"),
        # one engine: there is no backend to choose
        (["--backend", "ast"], "unrecognized arguments: --backend ast"),
        (["--backend", "auto"], "unrecognized arguments: --backend auto"),
        (["compile", "--dump"], "unrecognized arguments: --dump"),
    ]

    @pytest.mark.parametrize("extra,needle", CASES,
                             ids=[" ".join(c[0]) for c in CASES])
    def test_invalid_combo_exits_2(self, clf_file, clf_data, capsys,
                                   extra, needle):
        if extra[0] == "compile":
            argv = ["compile", clf_file] + extra[1:]
        else:
            argv = ["count", clf_file, clf_data] + extra
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.err
        assert needle in captured.err
        diag = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(diag) == 1 and diag[0].startswith("padsc: ")

    def test_checkpoint_on_stdin_is_an_error(self, clf_file, capsys,
                                             monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
        rc = main(["count", clf_file, "-", "--checkpoint"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "seekable file" in captured.err
        assert "Traceback" not in captured.err

    SERVE_CASES = [
        (["--port", "99999"], "out of range"),
        (["--port", "-1"], "out of range"),
        (["--jobs", "0"], "--jobs 0"),
        (["--cache", "0"], "--cache"),
        (["--workers", "0"], "--workers"),
        (["--max-body", "0"], "--max-body"),
        (["--parallel-threshold", "-1"], "--parallel-threshold"),
        (["--limits", "nope=1"], "bad --limits entry"),
        (["--tenant-limits", "noseparator"], "--tenant-limits wants"),
        (["--tenant-limits", "gold:bogus=1"], "bad --limits entry"),
    ]

    @pytest.mark.parametrize("extra,needle", SERVE_CASES,
                             ids=[" ".join(c[0]) for c in SERVE_CASES])
    def test_serve_flag_validation(self, capsys, extra, needle):
        rc = main(["serve"] + extra)
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.err
        assert needle in captured.err
