"""Error-recovery semantics: resynchronisation, panic, containment.

The paper's central robustness claim is that the generated parser "checks
all possible error cases" and keeps going: a bad field resynchronises at
the next literal, a lost record panics to end-of-record, and errors in
one record never leak into the next.  These tests pin those behaviours in
both engines.
"""

import pytest

from repro import ErrCode, Pstate, compile_description

from .test_codegen import pd_summary


def both(desc_text, **kw):
    """The ``fastpath=False`` reference and the fast build."""
    return (compile_description(desc_text, fastpath=False, **kw),
            compile_description(desc_text, **kw))


THREE_FIELDS = """
    Precord Pstruct row_t {
        Puint32 a; '|';
        Puint32 b; ':';
        Pstring_any c;
    };
"""


class TestStructResync:
    def test_bad_first_field_recovers_at_literal(self):
        interp, gen = both(THREE_FIELDS)
        for d in (interp, gen):
            rep, pd = d.parse(b"xx|7:tail\n", "row_t")
            assert pd.fields["a"].err_code == ErrCode.INVALID_INT
            assert rep.b == 7 and rep.c == "tail"
            assert pd.pstate & Pstate.PARTIAL

    def test_stuck_field_resyncs_at_next_literal(self):
        interp, gen = both(THREE_FIELDS)
        # Field b is garbage: the parser skips to the next literal ':' and
        # continues with c; b carries its error and a default value.
        for d in (interp, gen):
            rep, pd = d.parse(b"5|~~~~:tail\n", "row_t")
            assert rep.a == 5
            assert rep.b == 0
            assert rep.c == "tail"
            assert pd.fields["b"].err_code == ErrCode.INVALID_INT

    def test_missing_literal_with_no_later_occurrence_panics(self):
        interp, gen = both(THREE_FIELDS)
        # The '|' literal never occurs again: literal recovery rescans for
        # the literal itself and, failing, panics to end-of-record.
        for d in (interp, gen):
            rep, pd = d.parse(b"5~~~~:tail\n", "row_t")
            assert rep.a == 5
            assert pd.err_code == ErrCode.MISSING_LITERAL
            assert pd.pstate & Pstate.PANIC
            assert rep.c == ""  # defaulted: the panic skipped the rest

    def test_panic_when_no_sync_point(self):
        interp, gen = both("Precord Pstruct r { Puint32 a; Puint32 b; };")
        for d in (interp, gen):
            rep, pd = d.parse(b"zz\n", "r")
            assert pd.pstate & Pstate.PANIC
            assert rep.b == 0  # default-filled

    def test_engines_agree_on_recovery(self):
        interp, gen = both(THREE_FIELDS)
        for data in (b"xx|7:tail\n", b"5~~~~:t\n", b"\n", b"1|2:\n",
                     b"9|x:y\n", b"~|~:~\n"):
            ri, pi = interp.parse(data, "row_t")
            rg, pg = gen.parse(data, "row_t")
            assert pd_summary(pi) == pd_summary(pg), data
            assert ri == rg, data


class TestErrorContainment:
    DESC = """
        Precord Pstruct row_t { Puint32 n; '!'; Puint32 m; };
    """

    def test_bad_record_does_not_poison_following(self):
        interp, gen = both(self.DESC)
        data = b"1!2\ngarbage beyond hope\n3!4\n5!5\n"
        for d in (interp, gen):
            out = list(d.records(data, "row_t"))
            assert [pd.nerr > 0 for _, pd in out] == [False, True, False, False]
            assert out[2][0].n == 3 and out[3][0].m == 5

    def test_error_location_points_at_the_record(self):
        interp, _ = both(self.DESC)
        out = list(interp.records(b"1!2\nbad\n", "row_t"))
        loc = out[1][1].loc
        assert loc.record == 1

    def test_every_record_yields_exactly_once(self):
        interp, gen = both(self.DESC)
        lines = [b"1!1", b"x", b"", b"2!2", b"!", b"3!3"]
        data = b"\n".join(lines) + b"\n"
        for d in (interp, gen):
            out = list(d.records(data, "row_t"))
            assert len(out) == len(lines)


class TestArrayRecovery:
    DESC = """
        Precord Parray xs_t {
            Puint32[] : Psep(',') && Pterm(Peor);
        };
    """

    def test_bad_elements_recorded_and_skipped(self):
        interp, gen = both(self.DESC)
        for d in (interp, gen):
            rep, pd = d.parse(b"1,zz,3,4\n", "xs_t")
            assert pd.neerr == 1
            assert pd.first_error == 1
            assert rep[0] == 1 and rep[2:] == [3, 4]

    def test_multiple_bad_elements(self):
        interp, gen = both(self.DESC)
        for d in (interp, gen):
            rep, pd = d.parse(b"a,b,3\n", "xs_t")
            assert pd.neerr == 2
            assert rep[2] == 3

    def test_engines_agree(self):
        interp, gen = both(self.DESC)
        for data in (b"1,zz,3\n", b",,\n", b"zz\n", b"1,\n", b",1\n"):
            ri, pi = interp.parse(data, "xs_t")
            rg, pg = gen.parse(data, "xs_t")
            assert pd_summary(pi) == pd_summary(pg), data
            assert ri == rg, data


class TestUnionPanic:
    def test_union_failure_panics_and_recovers_next_record(self):
        desc = """
            Punion v_t { Pip ip; Puint32 num; };
            Precord Pstruct row_t { v_t v; };
        """
        interp, gen = both(desc)
        data = b"1.2.3.4\nnot anything\n99\n"
        for d in (interp, gen):
            out = list(d.records(data, "row_t"))
            assert out[0][0].v.tag == "ip"
            assert out[1][1].err_code == ErrCode.UNION_MATCH_FAILURE
            assert out[1][1].pstate & Pstate.PANIC
            assert out[2][0].v.value == 99


class TestResyncScanBound:
    def test_scan_is_bounded(self):
        """Literal resynchronisation gives up after MAX_RESYNC_SCAN bytes
        (within the record) rather than scanning forever."""
        from repro.core.types import MAX_RESYNC_SCAN
        interp, _ = both("Precord Pstruct r { Puint32 a; '!'; Puint32 b; };")
        filler = b"x" * (MAX_RESYNC_SCAN + 100)
        data = filler + b"!5\n"
        rep, pd = interp.parse(data, "r")
        # The '!' lies beyond the scan bound: the parser panics instead.
        assert pd.pstate & Pstate.PANIC
