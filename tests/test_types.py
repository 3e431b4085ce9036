"""Tests for the structured-type combinators (parse/write/verify semantics,
masks, error recovery)."""

import pytest

from repro import (
    ErrCode,
    Mask,
    P_Check,
    P_CheckAndSet,
    P_Set,
    Pstate,
    compile_description,
)
from repro import gallery
from repro.core.limits import ParseLimits
from repro.core.masks import MaskFlag
from repro.tools.datagen import ErrorInjector, generate_source

from .test_codegen import pd_summary


def c(text, **kw):
    return compile_description(text, **kw)


class TestStruct:
    DESC = """
      Pstruct pair_t {
        Puint32 a; '|'; Puint32 b : b >= a;
      };
    """

    def test_clean_parse(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"3|7")
        assert (rep.a, rep.b) == (3, 7)
        assert pd.nerr == 0 and pd.pstate == Pstate.OK

    def test_constraint_violation(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"9|7")
        assert pd.nerr == 1
        assert pd.fields["b"].err_code == ErrCode.USER_CONSTRAINT_VIOLATION
        assert (rep.a, rep.b) == (9, 7)  # value still materialised

    def test_missing_literal_resync(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"3xx|7")
        assert pd.nerr >= 1
        assert pd.err_code == ErrCode.MISSING_LITERAL
        assert rep.b == 7  # recovered at the literal and kept going

    def test_field_syntax_error_resyncs_at_next_literal(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"zz|7")
        assert pd.fields["a"].err_code == ErrCode.INVALID_INT
        assert rep.b == 7
        assert pd.pstate & Pstate.PARTIAL

    def test_panic_when_no_resync_possible(self):
        d = c("Pstruct p { Puint32 a; Puint32 b; };")
        rep, pd = d.parse(b"zz")
        assert pd.pstate & Pstate.PANIC

    def test_earlier_fields_in_scope(self):
        d = c("""
          Pstruct p {
            Puint8 n; ':';
            Pstring_FW(:n:) s;
          };
        """)
        rep, pd = d.parse(b"4:abcdxyz")
        assert pd.nerr == 0
        assert rep.s == "abcd"

    def test_compute_field(self):
        d = c("""
          Pstruct p {
            Puint8 a; '|'; Puint8 b;
            Pcompute int total = a + b;
          };
        """)
        rep, pd = d.parse(b"3|4")
        assert rep.total == 7

    def test_struct_where(self):
        d = c("Pstruct p { Puint8 a; '|'; Puint8 b; } Pwhere { a + b == 10 };")
        _, pd = d.parse(b"4|6")
        assert pd.nerr == 0
        _, pd = d.parse(b"4|5")
        assert pd.err_code == ErrCode.WHERE_CLAUSE_VIOLATION

    def test_write_roundtrip(self):
        d = c(self.DESC)
        rep, _ = d.parse(b"3|7")
        assert d.write(rep) == b"3|7"

    def test_verify(self):
        d = c(self.DESC)
        rep, _ = d.parse(b"3|7")
        assert d.verify(rep)
        rep.b = 1
        assert not d.verify(rep)


class TestMasks:
    DESC = """
      Pstruct p {
        Puint8 small; '|'; Puint32 big : big > 100;
      };
    """

    def test_ignore_semantic_checks(self):
        d = c(self.DESC)
        _, pd = d.parse(b"300|5", Mask(P_Set | MaskFlag.SYN_CHECK))
        assert pd.nerr == 0  # range + constraint both masked off

    def test_check_without_set_still_reports(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"300|5", Mask(P_Check))
        assert pd.nerr == 2

    def test_per_field_mask(self):
        d = c(self.DESC)
        mask = Mask(P_CheckAndSet).with_field("big", Mask(P_Set))
        _, pd = d.parse(b"20|5", mask)
        assert pd.nerr == 0
        _, pd = d.parse(b"300|5", mask)
        assert pd.nerr == 1  # only `small`'s range check remains

    def test_compound_level_controls_where(self):
        d = c("Pstruct p { Puint8 a; '|'; Puint8 b; } Pwhere { a < b };")
        mask = Mask(P_CheckAndSet)
        mask.compound_level = P_Set
        _, pd = d.parse(b"9|3", mask)
        assert pd.nerr == 0
        _, pd = d.parse(b"9|3", Mask(P_CheckAndSet))
        assert pd.nerr == 1


class TestUnion:
    DESC = """
      Punion u {
        Pchar dash : dash == '-';
        Puint32 num;
        Pstring(:' ':) word;
      };
      Pstruct holder { u v; ' '; Puint8 after; };
    """

    def test_branch_order(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"- 7", "holder")
        assert rep.v.tag == "dash"
        rep, pd = d.parse(b"42 7", "holder")
        assert rep.v.tag == "num" and rep.v.value == 42
        rep, pd = d.parse(b"hi 7", "holder")
        assert rep.v.tag == "word" and rep.v.value == "hi"

    def test_backtracking_restores_cursor(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"x 5", "holder")
        assert rep.v.tag == "word" and rep.v.value == "x"
        assert rep.after == 5 and pd.nerr == 0

    def test_constraint_guards_branch_selection(self):
        # 'x' parses as Pchar but fails the guard, so the union moves on.
        d = c(self.DESC)
        rep, _ = d.parse(b"x 5", "holder")
        assert rep.v.tag != "dash"

    def test_match_failure(self):
        d = c("Punion u { Puint32 n; Pip addr; };")
        rep, pd = d.parse(b"xyz")
        assert pd.err_code == ErrCode.UNION_MATCH_FAILURE
        assert pd.pstate & Pstate.PANIC

    def test_union_value_projection(self):
        d = c(self.DESC)
        rep, _ = d.parse(b"42 7", "holder")
        assert rep.v.num == 42
        with pytest.raises(AttributeError):
            _ = rep.v.word

    def test_write_roundtrip(self):
        d = c(self.DESC)
        for data in (b"- 7", b"42 7", b"hi 7"):
            rep, _ = d.parse(data, "holder")
            assert d.write(rep, "holder") == data


class TestSwitchedUnion:
    DESC = """
      Punion payload_t(:int which:) {
        Pswitch (which) {
          Pcase 0: Puint32 num;
          Pcase 1: Pstring(:'!':) text;
          Pdefault: Pchar other;
        }
      };
      Pstruct rec_t {
        Puint8 tag; ':';
        payload_t(:tag:) body;
      };
      Psource Pstruct top { rec_t r; };
    """

    def test_case_selection(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"0:123", "rec_t")
        assert rep.body.tag == "num" and rep.body.value == 123
        rep, pd = d.parse(b"1:hello!", "rec_t")
        assert rep.body.tag == "text" and rep.body.value == "hello"
        rep, pd = d.parse(b"9:Z", "rec_t")
        assert rep.body.tag == "other" and rep.body.value == "Z"

    def test_errors_propagate(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"0:xyz", "rec_t")
        assert pd.nerr >= 1

    def test_write(self):
        d = c(self.DESC)
        rep, _ = d.parse(b"1:hey!", "rec_t")
        assert d.write(rep, "rec_t") == b"1:hey"  # '!' is the string term, not part of data

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_verify_checks_the_case_constraint(self, fastpath):
        # verify must re-check what parse checked: the chosen case's own
        # constraint, not only its node and the Pwhere.
        d = c("""
          Punion s_t(:Puint8 k:) {
            Pswitch (k) { Pcase 1: Puint8 a : a > 5;
                          Pdefault: Pstring(:";":) s; }
          };
          Precord Pstruct r_t { Puint8 k; '|'; s_t(:k:) v; };
        """, fastpath=fastpath)
        got = [(r, p.nerr) for r, p in d.records(b"1|3\n1|9\n2|3\n", "r_t")]
        assert [(r.v.tag, nerr) for r, nerr in got] == \
            [("a", 1), ("a", 0), ("s", 0)]
        assert [d.verify(r, "r_t") for r, _nerr in got] == [False, True, True]


class TestOpt:
    DESC = """
      Pstruct p {
        Popt Puint32 maybe; '|'; Puint8 always;
      };
    """

    def test_present(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"42|7")
        assert rep.maybe == 42 and pd.nerr == 0

    def test_absent(self):
        d = c(self.DESC)
        rep, pd = d.parse(b"|7")
        assert rep.maybe is None and pd.nerr == 0

    def test_write_both(self):
        d = c(self.DESC)
        for data in (b"42|7", b"|7"):
            rep, _ = d.parse(data)
            assert d.write(rep) == data


class TestArray:
    def test_sep_term(self):
        d = c("Precord Parray a { Puint32[] : Psep(',') && Pterm(Peor); };")
        rep, pd = d.parse(b"1,2,3\n", "a")
        assert rep == [1, 2, 3] and pd.nerr == 0

    def test_empty_array(self):
        d = c("Precord Parray a { Puint32[] : Psep(',') && Pterm(Peor); };")
        rep, pd = d.parse(b"\n", "a")
        assert rep == [] and pd.nerr == 0

    def test_fixed_size(self):
        d = c("Parray a { Puint8[3] : Psep(','); };")
        rep, pd = d.parse(b"1,2,3,4,5")
        assert rep == [1, 2, 3] and pd.nerr == 0

    def test_too_few_elements(self):
        d = c("Precord Parray a { Puint32[4] : Psep(','); };")
        rep, pd = d.parse(b"1,2\n", "a")
        assert pd.err_code == ErrCode.ARRAY_SIZE_ERR

    def test_size_range(self):
        d = c("Parray a { Puint8[2..4] : Psep(','); };")
        rep, pd = d.parse(b"1,2,3,4,5,6")
        assert rep == [1, 2, 3, 4]

    def test_element_error_resync(self):
        d = c("Precord Parray a { Puint32[] : Psep(',') && Pterm(Peor); };")
        rep, pd = d.parse(b"1,x,3\n", "a")
        assert pd.neerr == 1
        assert pd.first_error == 1
        assert rep[0] == 1 and rep[2] == 3

    def test_last_predicate(self):
        d = c("Parray a { Puint8[] : Psep(',') && Plast(elts[length-1] == 0); };")
        rep, pd = d.parse(b"5,3,0,7,8")
        assert rep == [5, 3, 0]

    def test_ended_predicate(self):
        d = c("Parray a { Puint8[] : Psep(',') && Pended(length >= 2); };")
        rep, pd = d.parse(b"5,3,9,7")
        assert rep == [5, 3]

    def test_longest(self):
        d = c("""
          Parray nums_t { Puint8[] : Psep(',') && Plongest; };
          Pstruct p {
            nums_t nums;
            Pstring_any rest;
          };
          Psource Pstruct top { p v; };
        """)
        rep, pd = d.parse(b"1,2,3xyz", "p")
        assert rep.nums == [1, 2, 3]
        assert rep.rest == "xyz"

    def test_where_clause_sortedness(self):
        d = c("""
          Precord Parray a {
            Puint32[] : Psep(',') && Pterm(Peor);
          } Pwhere {
            Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1])
          };
        """)
        _, pd = d.parse(b"1,2,3\n", "a")
        assert pd.nerr == 0
        _, pd = d.parse(b"3,1,2\n", "a")
        assert pd.err_code == ErrCode.WHERE_CLAUSE_VIOLATION

    def test_parameterised_size(self):
        d = c("""
          Parray body_t(:int n:) { Puint8[n] : Psep(','); };
          Pstruct p { Puint8 n; ':'; body_t(:n:) xs; };
        """)
        rep, pd = d.parse(b"3:7,8,9,10", "p")
        assert rep.xs == [7, 8, 9] and pd.nerr == 0

    def test_write_roundtrip(self):
        d = c("Precord Parray a { Puint32[] : Psep(',') && Pterm(Peor); };")
        rep, _ = d.parse(b"10,20,30\n", "a")
        assert d.write(rep, "a") == b"10,20,30\n"

    def test_element_at_a_time(self):
        d = c("Parray a { Puint32[] : Psep(','); };")
        seen = [v for v, pd in d.array_elements(b"1,2,3", "a")]
        assert seen == [1, 2, 3]

    ZERO_WIDTH = """
      Pstruct z_t { Pcompute Puint8 x = 1; };
      Parray zs_t(:Puint32 n:) { z_t[n] : Psep(Pre "/x*/"); };
      Precord Pstruct r_t { Puint32 n; ' '; zs_t(:n:) zs; };
      Psource Parray all_t { z_t[] : Psep(Pre "/x*/"); };
    """

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_zero_width_separator_and_element_stop(self, fastpath):
        # Neither the separator nor the element consumes input: the
        # array stops instead of building n empty elements.
        import time
        d = c(self.ZERO_WIDTH, fastpath=fastpath)
        t0 = time.perf_counter()
        (rep, pd), = d.records(b"1000000 ab\n", "r_t")
        assert time.perf_counter() - t0 < 1.0
        assert len(rep.zs) == 2
        assert pd.err_code == ErrCode.ARRAY_SIZE_ERR
        assert len(list(d.array_elements(b"ab", "all_t"))) == 2

    # Element-at-a-time reading runs parse's element loop.

    def test_elements_stop_at_the_size_bound(self):
        d = c("Parray a { Puint32[3] : Psep(','); };")
        assert d.parse(b"1,2,3,4,5", "a")[0] == [1, 2, 3]
        assert [v for v, _ in d.array_elements(b"1,2,3,4,5", "a")] == [1, 2, 3]

    def test_elements_refused_at_the_array_limit(self):
        d = c("Parray a { Puint32[] : Psep(','); };",
              limits=ParseLimits(max_array_elems=2))
        rep, pd = d.parse(b"1,2,3,4,5", "a")
        assert rep == [1, 2] and pd.err_code == ErrCode.ARRAY_LIMIT
        out = list(d.array_elements(b"1,2,3,4,5", "a"))
        assert [v for v, _ in out] == [1, 2, 0]
        assert [p.err_code for _, p in out] == [
            ErrCode.NO_ERR, ErrCode.NO_ERR, ErrCode.ARRAY_LIMIT]
        assert out[-1][1].pstate & Pstate.LIMIT

    def test_elements_resync_past_a_bad_element(self):
        d = c("Parray a { Puint32[] : Psep(','); };")
        assert d.parse(b"1,x,3", "a")[0] == [1, 0, 3]
        out = list(d.array_elements(b"1,x,3", "a"))
        assert [v for v, _ in out] == [1, 0, 3]
        assert [p.nerr for _, p in out] == [0, 1, 0]


class TestEnum:
    DESC = 'Penum m { GET, PUT, POST, POSTER Pfrom("POSTER") };'

    def test_parse(self):
        d = c(self.DESC + "Pstruct p { m x; '!'; };")
        rep, pd = d.parse(b"PUT!", "p")
        assert rep.x == "PUT"
        assert int(rep.x) == 1

    def test_longest_match_wins(self):
        d = c(self.DESC + "Pstruct p { m x; '!'; };")
        rep, _ = d.parse(b"POSTER!", "p")
        assert rep.x == "POSTER"

    def test_no_match(self):
        d = c(self.DESC + "Pstruct p { m x; '!'; };")
        rep, pd = d.parse(b"NOPE!", "p")
        assert pd.fields["x"].err_code == ErrCode.INVALID_ENUM

    def test_enum_literals_usable_in_constraints(self):
        d = c(self.DESC + "Pstruct p { m x : x != PUT; '!'; };")
        _, pd = d.parse(b"GET!", "p")
        assert pd.nerr == 0
        _, pd = d.parse(b"PUT!", "p")
        assert pd.nerr == 1

    def test_write(self):
        d = c(self.DESC + "Pstruct p { m x; '!'; };")
        rep, _ = d.parse(b"POST!", "p")
        assert d.write(rep, "p") == b"POST!"


class TestTypedef:
    DESC = ("Ptypedef Puint16_FW(:3:) response_t : "
            "response_t x => { 100 <= x && x < 600 };")

    def test_constraint(self):
        d = c(self.DESC)
        _, pd = d.parse(b"200")
        assert pd.nerr == 0
        _, pd = d.parse(b"042")
        assert pd.err_code == ErrCode.TYPEDEF_CONSTRAINT_VIOLATION
        _, pd = d.parse(b"999")
        assert pd.err_code == ErrCode.TYPEDEF_CONSTRAINT_VIOLATION

    def test_masked_off(self):
        d = c(self.DESC)
        _, pd = d.parse(b"042", mask=Mask(P_Set | MaskFlag.SYN_CHECK))
        assert pd.nerr == 0

    def test_plain_alias(self):
        d = c("Ptypedef Puint32 id_t; Pstruct p { id_t x; };")
        rep, pd = d.parse(b"77", "p")
        assert rep.x == 77


class TestRecords:
    def test_records_iterator(self):
        d = c("Precord Pstruct line_t { Puint32 n; };")
        out = [(rep.n, pd.nerr) for rep, pd in d.records(b"1\n2\n3\n", "line_t")]
        assert out == [(1, 0), (2, 0), (3, 0)]

    def test_bad_record_does_not_derail_later_ones(self):
        d = c("Precord Pstruct line_t { Puint32 n; };")
        out = list(d.records(b"1\nxx\n3\n", "line_t"))
        assert [pd.nerr for _, pd in out] == [0, 1, 0]
        assert out[2][0].n == 3

    def test_extra_data_at_eor(self):
        d = c("Precord Pstruct line_t { Puint32 n; };")
        out = list(d.records(b"1 trailing\n", "line_t"))
        assert out[0][1].err_code == ErrCode.EXTRA_DATA_AT_EOR

    def test_records_equivalent_to_whole_source(self):
        text = """
          Precord Pstruct line_t { Puint32 n; };
          Psource Parray all_t { line_t[]; };
        """
        d = c(text)
        data = b"5\n6\n7\n"
        whole, pd = d.parse(data)
        one_at_a_time = [rep for rep, _ in d.records(data, "line_t")]
        assert [r.n for r in whole] == [r.n for r in one_at_a_time]


#: gallery loader -> (record type, sample data opening the source)
GALLERY_SOURCES = {
    "clf": (gallery.load_clf, "entry_t", gallery.CLF_SAMPLE),
    "sirius": (gallery.load_sirius, "entry_t", gallery.SIRIUS_SAMPLE),
    "calldetail": (gallery.load_call_detail, "call_t", ""),
    "netflow": (gallery.load_netflow, "nf_packet_t", ""),
    "regulus": (gallery.load_regulus, "util_t", ""),
}


@pytest.mark.parametrize("name", sorted(GALLERY_SOURCES))
def test_whole_source_parse_is_the_same_with_and_without_fast_paths(name):
    # The source's records run the record step, whose fast function
    # stands in for the general parse only where it agrees with it.
    import random
    load, rtype, sample = GALLERY_SOURCES[name]
    d = load()
    plain = compile_description(d.source_text, ambient=d.ambient,
                                discipline=d.discipline, fastpath=False)
    data = sample.encode("latin-1") + generate_source(
        d, rtype, 30, random.Random(5), ErrorInjector(0.3))
    rep, pd = d.parse(data)
    want, want_pd = plain.parse(data)
    assert rep == want
    assert pd_summary(pd) == pd_summary(want_pd)

