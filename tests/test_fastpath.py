"""Tests for the record-level fast path (plan.fastpath).

The fast path must be *transparent*: over any input, a generated module
with the fast path produces byte-identical reps and pd summaries to the
general parser and the interpreter.  These tests target the tricky
equivalence corners — maximal munch, ordered-choice commitment, guard
steering, constraint fallback — plus eligibility boundaries.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Mask, P_Check, P_CheckAndSet, P_Set, compile_description, gallery
from repro.codegen import compile_generated, generate_source
from repro.core.io import FixedWidthRecords
from repro.core.masks import MaskFlag
from repro.tools.datagen import (
    call_detail_workload,
    clf_workload,
    sirius_workload,
)

from .test_codegen import pd_summary  # reuse the structural fingerprint


def pair(desc_text, **kw):
    return compile_description(desc_text, **kw), compile_generated(desc_text, **kw)


def assert_equiv(interp, gen, data, type_name, mask=None):
    ri, pi = interp.parse(data, type_name, mask)
    rg, pg = gen.parse(data, type_name, mask)
    assert pd_summary(pi) == pd_summary(pg), (data, pi, pg)
    assert ri == rg, data
    return ri, pi


class TestEligibility:
    def test_fastpath_generated_for_paper_records(self):
        assert "_fp_entry_t" in generate_source(gallery.CLF)
        assert "_fp_entry_t" in generate_source(gallery.SIRIUS)
        assert "_fp_summary_header_t" in generate_source(gallery.SIRIUS)
        assert "_fp_call_t" in generate_source(gallery.CALL_DETAIL,
                                               ambient="binary")

    def test_parameterised_records_not_eligible(self):
        src = generate_source("""
            Precord Pstruct row_t(:int n:) {
                Pstring_FW(:n:) s;
            };
        """)
        assert "_fp_row_t" not in src

    def test_switched_union_not_eligible(self):
        src = generate_source("""
            Punion u(:int t:) {
                Pswitch (t) { Pcase 0: Puint8 a; Pdefault: Pchar b; }
            };
            Precord Pstruct row_t { Puint8 tag; ':'; u(:tag:) v; };
        """)
        assert "_fp_row_t" not in src

    def test_mid_record_array_not_eligible(self):
        src = generate_source("""
            Parray xs_t { Puint8[] : Psep(',') && Pterm(';'); };
            Precord Pstruct row_t { xs_t xs; ';'; Puint8 z; };
        """)
        assert "_fp_row_t" not in src

    def test_tail_eor_array_is_eligible(self):
        src = generate_source("""
            Parray xs_t { Puint8[] : Psep(',') && Pterm(Peor); };
            Precord Pstruct row_t { Puint8 z; ':'; xs_t xs; };
        """)
        assert "_fp_row_t" in src

    def test_dynamic_size_not_eligible(self):
        src = generate_source("""
            Parray xs_t(:int n:) { Puint8[n] : Psep(','); };
            Precord Pstruct row_t { Puint8 n; ':'; xs_t(:n:) xs; };
        """)
        assert "_fp_row_t" not in src


class TestMaximalMunch:
    """The regex must never accept by backtracking where the real parser
    commits."""

    def test_digit_run_commitment(self):
        # General: Puint32 eats ALL digits, then the FW field fails.
        desc = """
            Precord Pstruct row_t {
                Puint32 a; Puint16_FW(:4:) b;
            };
        """
        interp, gen = pair(desc)
        # 9 digits: general parse consumes all 9 into `a`, leaving nothing
        # for the fixed-width field -> error.  A backtracking regex would
        # split 5/4 and report clean.
        assert_equiv(interp, gen, b"123456789\n", "row_t")
        _, pd = gen.parse(b"123456789\n", "row_t")
        assert pd.nerr > 0

    def test_string_run_commitment(self):
        desc = """
            Precord Pstruct row_t {
                Pzip z; Pstring_any rest;
            };
        """
        interp, gen = pair(desc)
        # 6 digits: general Pzip rejects (not exactly 5); regex must not
        # quietly split 5+1.
        ri, pi = assert_equiv(interp, gen, b"123456\n", "row_t")
        assert pi.nerr > 0

    def test_enum_longest_commitment(self):
        desc = """
            Penum m { POSTER, POST };
            Precord Pstruct row_t { m x; "ER"; };
        """
        interp, gen = pair(desc)
        # "POSTER" then "ER" missing: the general parser commits to POSTER
        # and errors; the regex must not re-split as POST + "ER".
        ri, pi = assert_equiv(interp, gen, b"POSTER\n", "row_t")
        assert pi.nerr > 0
        assert_equiv(interp, gen, b"POSTERER\n", "row_t")

    def test_union_ordered_commitment(self):
        desc = """
            Punion u { Puint32 num; Pstring(:'!':) word; };
            Precord Pstruct row_t { u v; "!x"; };
        """
        interp, gen = pair(desc)
        # "12!x": num matches "12" and the union commits; the literal
        # matches -> clean, via the SAME branch on both engines.
        ri, _ = assert_equiv(interp, gen, b"12!x\n", "row_t")
        assert ri.v.tag == "num"
        # "12y!x": num matches "12", commits, then literal fails -> the
        # general parser resynchronises; regex must not fall through to
        # the word branch and call it clean.
        ri, pi = assert_equiv(interp, gen, b"12y!x\n", "row_t")
        assert pi.nerr > 0


class TestGuardsAndConstraints:
    def test_char_guard_baked_into_pattern(self, clf):
        gen = compile_generated(gallery.CLF)
        # auth '-' guard: both dash and named ids take the fast path and
        # agree with the interpreter.
        for line in (b'1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 200 5\n',
                     b'1.2.3.4 bob alice [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 200 5\n'):
            ri, pi = clf.parse(line, "entry_t")
            rg, pg = gen.parse(line, "entry_t")
            assert pd_summary(pi) == pd_summary(pg)
            assert ri == rg

    def test_semantic_violation_falls_back_to_full_pd(self):
        desc = """
            Precord Pstruct row_t { Puint32 a : a < 100; };
        """
        interp, gen = pair(desc)
        _, pd = gen.parse(b"500\n", "row_t")
        assert pd.nerr == 1
        assert pd.fields["a"].err_code.name == "USER_CONSTRAINT_VIOLATION"
        assert_equiv(interp, gen, b"500\n", "row_t")

    def test_dosem_gating(self):
        desc = "Precord Pstruct row_t { Puint32 a : a < 100; };"
        interp, gen = pair(desc)
        mask = Mask(P_Set | MaskFlag.SYN_CHECK)
        _, pg = gen.parse(b"500\n", "row_t", mask)
        assert pg.nerr == 0  # semantic check masked off, fast path accepts
        assert_equiv(interp, gen, b"500\n", "row_t", mask)

    def test_where_clause_on_tail_array(self, sirius):
        gen = compile_generated(gallery.SIRIUS)
        bad = gallery.SIRIUS_SAMPLE.replace(
            "LOC_CRTE|1001476800|LOC_OS_10|1001649601",
            "LOC_CRTE|1001649601|LOC_OS_10|1001476800")
        for data in (gallery.SIRIUS_SAMPLE, bad):
            ri, pi = sirius.parse(data)
            rg, pg = gen.parse(data)
            assert pd_summary(pi) == pd_summary(pg)
            assert ri == rg

    def test_per_field_masks_bypass_fastpath(self, sirius):
        gen = compile_generated(gallery.SIRIUS)
        mask = Mask(P_CheckAndSet)
        events_mask = Mask(P_CheckAndSet)
        events_mask.compound_level = P_Set
        mask.fields["events"] = events_mask
        bad = gallery.SIRIUS_SAMPLE.split("\n", 1)[1].replace(
            "LOC_CRTE|1001476800|LOC_OS_10|1001649601",
            "LOC_CRTE|1001649601|LOC_OS_10|1001476800")
        out_i = list(sirius.records(bad, "entry_t", mask))
        out_g = list(gen.records(bad, "entry_t", mask))
        assert [pd.nerr for _, pd in out_i] == [pd.nerr for _, pd in out_g]
        assert all(pd.nerr == 0 for _, pd in out_g)


class TestCobolFastPath:
    def test_billing_copybook_fastpath_equivalence(self, rng):
        """Fixed-count OCCURS arrays of fixed-width elements take the fast
        path; the full Cobol billing record compiles end to end."""
        import importlib.resources as res
        from repro import FixedWidthRecords
        from repro.tools.cobol import translate
        text = (res.files("repro.gallery") / "billing.cpy").read_text()
        tr = translate(text, "billing.cpy")
        interp = tr.compile()
        gen = compile_generated(tr.pads_source, ambient="ebcdic",
                                discipline=FixedWidthRecords(tr.record_width))
        assert "_fp_billing_record_t" in gen.py_source
        reps = [interp.generate(tr.record_type, rng) for _ in range(20)]
        data = b"".join(interp.write(r, tr.record_type) for r in reps)
        out_g = list(gen.records(data, tr.record_type))
        assert [r for r, _ in out_g] == reps
        # Corrupt a packed-decimal byte: engines agree on the error.
        bad = bytearray(data[:tr.record_width])
        bad[33] = 0xFF  # inside BILL-AMOUNT
        ri, pi = interp.parse(bytes(bad), tr.record_type)
        rg, pg = gen.parse(bytes(bad), tr.record_type)
        assert pd_summary(pi) == pd_summary(pg)
        assert ri == rg


class TestBinaryFastPath:
    def test_call_detail_fast(self, call_detail, rng):
        from repro import FixedWidthRecords
        gen = compile_generated(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(24))
        reps = [call_detail.generate("call_t", rng) for _ in range(30)]
        data = call_detail.write(reps, "calls_t")
        out = list(gen.records(data, "call_t"))
        assert [r for r, _ in out] == reps
        assert all(pd.nerr == 0 for _, pd in out)

    def test_binary_corruption_equivalence(self, call_detail, rng):
        from repro import FixedWidthRecords
        gen = compile_generated(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(24))
        rep = call_detail.generate("call_t", rng)
        data = bytearray(call_detail.write([rep], "calls_t"))
        data[20] = 0xFF  # corrupt the call_type byte (constraint t <= 4)
        ri, pi = call_detail.parse(bytes(data), "calls_t")
        rg, pg = gen.parse(bytes(data), "calls_t")
        assert pd_summary(pi) == pd_summary(pg)
        assert ri == rg


# ---------------------------------------------------------------------------
# Property: fast-path-enabled modules == interpreter over adversarial bytes
# ---------------------------------------------------------------------------

FP_DESC = """
    Penum kind_t { ALPHA, BETA, BE };
    Punion id_t {
        Pchar dash : dash == '-';
        Puint32 num;
        Pstring(:'|':) label;
    };
    Parray tail_t {
        Puint16[] : Psep(',') && Pterm(Peor);
    } Pwhere { Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1]) };
    Precord Pstruct row_t {
        kind_t kind; '|';
        id_t who; '|';
        Popt Pzip zip; '|';
        Puint8 n : n < 200; '|';
        tail_t tail;
    };
"""


@pytest.fixture(scope="module")
def fp_pair():
    interp = compile_description(FP_DESC)
    gen = compile_generated(FP_DESC)
    assert "_fp_row_t" in gen.py_source
    return interp, gen


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=0, max_size=48).filter(lambda b: b"\n" not in b))
def test_fastpath_equals_interpreter_on_random_bytes(fp_pair, payload):
    interp, gen = fp_pair
    data = payload + b"\n"
    ri, pi = interp.parse(data, "row_t")
    rg, pg = gen.parse(data, "row_t")
    assert pd_summary(pi) == pd_summary(pg), data
    assert ri == rg


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_fastpath_equals_interpreter_on_mutated_rows(fp_pair, seed, data):
    interp, gen = fp_pair
    rng = random.Random(seed)
    rep = interp.generate("row_t", rng)
    raw = bytearray(interp.write(rep, "row_t"))
    for _ in range(data.draw(st.integers(0, 2))):
        if len(raw) > 1:
            idx = data.draw(st.integers(0, len(raw) - 2))
            raw[idx] = data.draw(st.integers(32, 126))
    blob = bytes(raw)
    ri, pi = interp.parse(blob, "row_t")
    rg, pg = gen.parse(blob, "row_t")
    assert pd_summary(pi) == pd_summary(pg), blob
    assert ri == rg


# ---------------------------------------------------------------------------
# The compiled record writer (_fw_<type>) against the general writer
# ---------------------------------------------------------------------------


def _billing():
    import importlib.resources as res
    from repro.tools.cobol import translate
    tr = translate((res.files("repro.gallery") / "billing.cpy").read_text(),
                   "billing.cpy")
    return tr.pads_source, {"ambient": "ebcdic",
                            "discipline": FixedWidthRecords(tr.record_width)}


def _sirius_inputs():
    header, entries = sirius_workload(300, random.Random(4)).split(b"\n", 1)
    return {"summary_header_t": header + b"\n", "entry_t": entries}


#: case -> (description text and compile options, {record type: workload
#: bytes or None when only generate() reps are checked}).
WRITER_CASES = {
    "clf": (lambda: (gallery.CLF, {}),
            lambda: {"entry_t": clf_workload(400, random.Random(3))}),
    "sirius": (lambda: (gallery.SIRIUS, {}), _sirius_inputs),
    "call_detail": (
        lambda: (gallery.CALL_DETAIL,
                 {"ambient": "binary",
                  "discipline": FixedWidthRecords(gallery.CALL_DETAIL_WIDTH)}),
        lambda: {"call_t": call_detail_workload(300, random.Random(5))}),
    "regulus": (lambda: (gallery.REGULUS, {}), lambda: {"util_t": None}),
    "billing": (_billing, lambda: {"billing_record_t": None}),
    "fp_desc": (lambda: (FP_DESC, {}), lambda: {"row_t": None}),
}


def _build(case, engine, fastpath):
    text, kw = WRITER_CASES[case][0]()
    if engine == "source":
        return compile_generated(text, fastpath=fastpath, **kw)
    return compile_description(text, fastpath=fastpath, **kw)


def _writer(desc, rtype):
    """The record's compiled writer on either engine, or None."""
    if hasattr(desc, "module"):
        return getattr(desc.module, f"_fw_{rtype}", None)
    return desc.node(rtype).write_fn


@pytest.fixture(scope="module", params=["interp", "source"])
def writer_engine(request):
    return request.param


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writer_matches_the_general_writer(case, writer_engine):
    fast = _build(case, writer_engine, True)
    ref = _build(case, writer_engine, False)
    gen_reps = _build(case, "interp", False)  # generate() is interpreted
    rng = random.Random(17)
    for rtype, data in WRITER_CASES[case][1]().items():
        writer = _writer(fast, rtype)
        assert writer is not None and _writer(ref, rtype) is None
        reps = [gen_reps.generate(rtype, rng) for _ in range(60)]
        if data is not None:
            parsed = list(fast.records(data, rtype))
            reps += [rep for rep, _pd in parsed]
            if case in ("clf", "sirius") and rtype == "entry_t":
                # Error records hold default values; they are written too.
                assert any(pd.nerr for _rep, pd in parsed)
        for rep in reps:
            assert writer(rep) is not None, rep
            assert fast.write(rep, rtype) == ref.write(rep, rtype), rep


def _sirius_rep(desc):
    rep, pd = desc.parse(gallery.SIRIUS_SAMPLE.split("\n", 2)[1] + "\n",
                         "entry_t")
    assert pd.nerr == 0
    return rep


def _bad_terminator(rep):
    rep.header.order_type = "a|b"


def _bad_zip(rep):
    rep.header.zip_code = "0790é"


def _bad_tag(rep):
    from repro.core.values import UnionVal
    rep.header.ramp = UnionVal("nope", 1)


def _bad_int(rep):
    rep.header.order_num = None


def _bad_latin1(rep):
    rep.header.stream = "caf€"


@pytest.mark.parametrize("mutate,exc", [
    (_bad_terminator, ValueError), (_bad_zip, UnicodeEncodeError),
    (_bad_tag, ValueError), (_bad_int, TypeError),
    (_bad_latin1, UnicodeEncodeError)],
    ids=["terminator", "non-ascii-zip", "union-tag", "none-int",
         "non-latin1-string"])
def test_bad_reps_raise_the_general_writers_error(mutate, exc,
                                                   writer_engine):
    fast = _build("sirius", writer_engine, True)
    ref = _build("sirius", writer_engine, False)
    rep = _sirius_rep(fast)
    mutate(rep)
    assert _writer(fast, "entry_t")(rep) is None
    with pytest.raises(exc) as got:
        fast.write(rep, "entry_t")
    with pytest.raises(exc) as want:
        ref.write(rep, "entry_t")
    assert str(got.value) == str(want.value)


def test_write2io_output_unchanged():
    import io
    fast = _build("sirius", "source", True)
    ref = _build("sirius", "source", False)
    assert "_fw_entry_t(rep)" in fast.py_source
    assert "_fw_" not in ref.py_source
    for rep, _pd in fast.records(_sirius_inputs()["entry_t"], "entry_t"):
        a, b = io.BytesIO(), io.BytesIO()
        assert fast.module.entry_t_write2io(a, rep) == \
            ref.module.entry_t_write2io(b, rep)
        assert a.getvalue() == b.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=0, max_size=48).filter(lambda b: b"\n" not in b))
def test_writer_equals_general_writer_on_parsed_garbage(fp_pair, payload):
    interp, gen = fp_pair
    ref = compile_description(FP_DESC, fastpath=False)
    rep, _pd = interp.parse(payload + b"\n", "row_t")
    want = ref.write(rep, "row_t")
    assert interp.write(rep, "row_t") == want
    assert gen.write(rep, "row_t") == want
