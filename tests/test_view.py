"""Tests for the field-annotated record viewer (tools.view)."""

from repro import gallery
from repro.tools.view import hex_dump, render_record, trace_record


class TestTrace:
    def test_spans_cover_clf_record(self, clf):
        line = gallery.CLF_SAMPLE.splitlines()[0] + "\n"
        rep, pd, events, payload, base = trace_record(clf, line, "entry_t")
        assert pd.nerr == 0
        paths = [e.path for e in events]
        assert "client<ip>" in paths
        assert "request.meth" in paths
        assert "length" in paths
        # Spans are within the record and non-overlapping in order.
        rel = [(e.start - base, e.end - base) for e in events]
        assert all(0 <= s <= t <= len(payload) for s, t in rel)
        assert all(rel[i][1] <= rel[i + 1][0] for i in range(len(rel) - 1))

    def test_values_match_parse(self, clf):
        line = gallery.CLF_SAMPLE.splitlines()[0] + "\n"
        rep, pd, events, _, _ = trace_record(clf, line, "entry_t")
        by_path = {e.path: e.value for e in events}
        assert by_path["client<ip>"] == "207.136.97.49"
        assert by_path["response"] == 200
        assert by_path["length"] == 30

    def test_losing_union_branches_leave_no_events(self, clf):
        # Hostname record: the failed Pip attempt must not appear.
        line = gallery.CLF_SAMPLE.splitlines()[1] + "\n"
        _, _, events, _, _ = trace_record(clf, line, "entry_t")
        paths = [e.path for e in events]
        assert "client<host>" in paths
        assert "client<ip>" not in paths

    def test_array_elements_traced(self, sirius):
        line = gallery.SIRIUS_SAMPLE.splitlines()[2] + "\n"
        _, pd, events, _, _ = trace_record(sirius, line, "entry_t")
        assert pd.nerr == 0
        states = [e.value for e in events if e.path == "events[].state"]
        assert states == ["LOC_CRTE", "LOC_OS_10"]

    def test_opt_none_leaves_no_event(self, sirius):
        line = gallery.SIRIUS_SAMPLE.splitlines()[1] + "\n"
        _, _, events, _, _ = trace_record(sirius, line, "entry_t")
        paths = [e.path for e in events]
        assert "header.nlp_service_tn" not in paths  # the omitted field

    def test_traced_parse_equals_plain_parse(self, sirius):
        line = gallery.SIRIUS_SAMPLE.splitlines()[1] + "\n"
        traced_rep, traced_pd, _, _, _ = trace_record(sirius, line, "entry_t")
        plain_rep, plain_pd = sirius.parse(line, "entry_t")
        assert traced_rep == plain_rep
        assert traced_pd.nerr == plain_pd.nerr

    def test_error_records_still_render(self, clf):
        bad = gallery.CLF_SAMPLE.splitlines()[0].replace(" 30", " -") + "\n"
        rep, pd, events, _, _ = trace_record(clf, bad, "entry_t")
        assert pd.nerr == 1
        assert any(e.kind == "error" for e in events)


class TestRendering:
    def test_hex_dump_layout(self):
        out = hex_dump(b"hello world, this is longer than sixteen")
        lines = out.splitlines()
        assert lines[0].startswith("  000000  68 65 6c 6c 6f")
        assert "|hello world, thi|" in lines[0]
        assert lines[1].startswith("  000010")

    def test_render_record(self, clf):
        out = render_record(clf, gallery.CLF_SAMPLE, "entry_t")
        assert "record:" in out and "ok" in out
        assert "client<ip>" in out
        assert "207.136.97.49" in out
        assert "|207.136.97.49" in out  # hex panel text column

    def test_cli_view(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc = tmp_path / "clf.pads"
        desc.write_text(gallery.CLF)
        data = tmp_path / "clf.log"
        data.write_text(gallery.CLF_SAMPLE)
        assert main(["view", str(desc), str(data), "--record", "entry_t",
                     "--index", "1"]) == 0
        out = capsys.readouterr().out
        assert "tj62.aol.com" in out
        assert "client<host>" in out

    def test_cli_view_index_out_of_range(self, tmp_path, capsys):
        from repro.tools.padsc import main
        desc = tmp_path / "clf.pads"
        desc.write_text(gallery.CLF)
        data = tmp_path / "clf.log"
        data.write_text(gallery.CLF_SAMPLE)
        assert main(["view", str(desc), str(data), "--record", "entry_t",
                     "--index", "9"]) == 1
