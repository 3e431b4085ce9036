"""Tests for the record-level fast path (plan.fastpath).

The fast path must be *transparent*: over any input, a generated module
with the fast path produces byte-identical reps and pd summaries to the
general parser and the interpreter.  These tests target the tricky
equivalence corners — maximal munch, ordered-choice commitment, guard
steering, constraint fallback — plus eligibility boundaries.
"""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Mask, P_CheckAndSet, P_Set, compile_description, gallery
from repro.codegen import compile_generated
from repro.core.errors import ErrCode, PadsError, Pstate
from repro.core.io import FixedWidthRecords, NewlineRecords, Source
from repro.core.limits import ParseLimits
from repro.core.masks import MaskFlag
from repro.core.types import StructNode
from repro.faults import GALLERY_TARGETS
from repro.observe import observed
from repro.plan.ir import Verdict
from repro.plan.runtime import Runtime
from repro.tools.datagen import (
    ErrorInjector,
    call_detail_workload,
    clf_workload,
    generate_records,
    plan_injector,
    sirius_workload,
)
from repro.tools.datagen import generate_source as generate_data

from .test_codegen import pd_summary  # reuse the structural fingerprint
from .test_oracle import _random_descriptions, pd_tree


def pair(desc_text, **kw):
    """The ``fastpath=False`` reference and the fast build."""
    return (compile_description(desc_text, fastpath=False, **kw),
            compile_description(desc_text, **kw))


def assert_equiv(interp, gen, data, type_name, mask=None):
    ri, pi = interp.parse(data, type_name, mask)
    rg, pg = gen.parse(data, type_name, mask)
    assert pd_summary(pi) == pd_summary(pg), (data, pi, pg)
    assert ri == rg, data
    return ri, pi


def has_fast_fn(desc_text, rtype, **kw):
    """Whether the bound description gives ``rtype`` a record fast
    function."""
    return compile_description(desc_text, **kw).node(rtype).fast_fn is not None


class TestEligibility:
    def test_fastpath_generated_for_paper_records(self):
        assert has_fast_fn(gallery.CLF, "entry_t")
        assert has_fast_fn(gallery.SIRIUS, "entry_t")
        assert has_fast_fn(gallery.SIRIUS, "summary_header_t")
        assert has_fast_fn(gallery.CALL_DETAIL, "call_t", ambient="binary")

    def test_parameterised_records_not_eligible(self):
        assert not has_fast_fn("""
            Precord Pstruct row_t(:int n:) {
                Pstring_FW(:n:) s;
            };
        """, "row_t")

    def test_switched_union_not_eligible(self):
        assert not has_fast_fn("""
            Punion u(:int t:) {
                Pswitch (t) { Pcase 0: Puint8 a; Pdefault: Pchar b; }
            };
            Precord Pstruct row_t { Puint8 tag; ':'; u(:tag:) v; };
        """, "row_t")

    def test_mid_record_array_not_eligible(self):
        assert not has_fast_fn("""
            Parray xs_t { Puint8[] : Psep(',') && Pterm(';'); };
            Precord Pstruct row_t { xs_t xs; ';'; Puint8 z; };
        """, "row_t")

    def test_tail_eor_array_is_eligible(self):
        assert has_fast_fn("""
            Parray xs_t { Puint8[] : Psep(',') && Pterm(Peor); };
            Precord Pstruct row_t { Puint8 z; ':'; xs_t xs; };
        """, "row_t")

    def test_dynamic_size_not_eligible(self):
        assert not has_fast_fn("""
            Parray xs_t(:int n:) { Puint8[n] : Psep(','); };
            Precord Pstruct row_t { Puint8 n; ':'; xs_t(:n:) xs; };
        """, "row_t")


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
        gen = compile_description(gallery.CLF, fastpath=False)
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
        gen = compile_description(gallery.SIRIUS, fastpath=False)
        bad = gallery.SIRIUS_SAMPLE.replace(
            "LOC_CRTE|1001476800|LOC_OS_10|1001649601",
            "LOC_CRTE|1001649601|LOC_OS_10|1001476800")
        for data in (gallery.SIRIUS_SAMPLE, bad):
            ri, pi = sirius.parse(data)
            rg, pg = gen.parse(data)
            assert pd_summary(pi) == pd_summary(pg)
            assert ri == rg

    def test_per_field_masks_bypass_fastpath(self, sirius):
        gen = compile_description(gallery.SIRIUS, fastpath=False)
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
        assert gen.node(tr.record_type).fast_fn is not None
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
        gen = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                  discipline=FixedWidthRecords(24),
                                  fastpath=False)
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
    interp, gen = pair(FP_DESC)
    assert gen.node("row_t").fast_fn is not None
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


#: Regulus's missing-value union (tagged, float, blank) at both
#: measurements, with near misses of each branch.
REGULUS_MISSING = [b"1005022860|nyc-core-1|ge-0/0/1|07|%s|%s|0" % (a, b)
                   for a in (b"NONE", b"Nothing", b"Nothingx", b"", b"0",
                             b"12.5", b"-3e2", b".5", b"NONEx", b"1.")
                   for b in (b"Nothing", b"", b"7.25", b"Nothin")]


def _regex_form(desc, rtype):
    """The record's anchored-regex fast function (the compiler's
    internal ``split`` argument), beside the kernel it chose."""
    from repro.plan.fastpath import compile_fast
    from repro.plan.runtime import runtime_namespace
    plan = desc.plan
    name, lines, _ = compile_fast(plan, plan.decls[rtype], None, split=False)
    ns = runtime_namespace(plan)
    exec("\n".join(lines), ns)
    return ns[name]


def _sirius_rows():
    """Workload rows plus text ``int()`` would take where the regex
    wants digits: a sign, a blank or an underscore in a digit field."""
    rows = sirius_workload(400, random.Random(20050612), syntax_errors=40,
                           sort_violations=4).split(b"\n")[1:-1]
    bent = []
    for row in rows[:30]:
        first, rest = row.split(b"|", 1)
        bent += [b"+" + row, b" " + row, first[:1] + b"_" + first[1:] + b"|"
                 + rest, row[:-1] + b"+" + row[-1:], row + b" "]
    return rows + bent


@pytest.mark.parametrize("text,rtype,rows", [
    (gallery.SIRIUS, "entry_t", _sirius_rows),
    (gallery.REGULUS, "util_t", lambda: REGULUS_MISSING + [
        row.replace(b"|07|", b"|7|") for row in REGULUS_MISSING[:8]] + [
        row.replace(b"|07|", b"|24|") for row in REGULUS_MISSING[:8]])],
    ids=["sirius", "regulus"])
def test_split_kernel_on_the_gallery(text, rtype, rows):
    """The gallery's delimited records get the split kernel; wherever it
    returns a rep, the regex form returns the same and the general
    parser parses the record clean to it, and the records it declines
    parse as before."""
    desc = compile_description(text)
    ref = compile_description(text, fastpath=False)
    assert desc.plan.decls[rtype].verdict.reason.startswith(
        "split kernel over '|' tokens")
    kernel, regex = desc.node(rtype).fast_fn, _regex_form(desc, rtype)
    hits = 0
    rows = rows()
    for row in rows:
        for dosem in (True, False):
            got = kernel(row, dosem)
            assert got == regex(row, dosem) or got is None, row
            hits += got is not None
        want, got = ref.parse(row + b"\n", rtype), desc.parse(row + b"\n",
                                                           rtype)
        assert got[0] == want[0], row
        assert pd_summary(got[1]) == pd_summary(want[1]), row
        if kernel(row, True) is not None:
            assert want[1].nerr == 0 and want[0] == kernel(row, True)
    assert 0 < hits < 2 * len(rows)


def test_write_entry_matches_the_node_writer():
    """``write`` goes straight to the framed compiled writer: same bytes
    as the node's general writer under newline, length-prefixed and
    fixed-width disciplines, for a writer that declines, and for a
    parameterised type (which keeps the general path)."""
    from repro.core.io import LengthPrefixedRecords
    sirius_rows = _sirius_inputs()["entry_t"]
    for disc in (NewlineRecords(), LengthPrefixedRecords(prefix=2),
                 LengthPrefixedRecords(prefix=4, inclusive=True)):
        fast = compile_description(gallery.SIRIUS, discipline=disc)
        ref = compile_description(gallery.SIRIUS, discipline=disc,
                                  fastpath=False)
        assert "entry_t" in fast._framed_writers
        reps = [rep for rep, _pd in compile_description(
            gallery.SIRIUS).records(sirius_rows, "entry_t")]
        for rep in reps:
            assert fast.write(rep, "entry_t") == ref.write(rep, "entry_t")
        # Declined by the compiled writer: the general writer's error.
        rep = reps[0]
        rep.header.order_type = "a|b"
        assert fast.node("entry_t").write_fn(rep) is None
        with pytest.raises(ValueError):
            fast.write(rep, "entry_t")
    param = """
        Precord Pstruct row_t(:int n:) { Pstring_FW(:n:) body; };
        Psource Parray rows_t { row_t(:3:)[]; };
    """
    fast = compile_description(param)
    assert "row_t" not in fast._framed_writers
    rep, _pd = fast.parse(b"abc\n", "row_t", None, 3)
    assert fast.write(rep, "row_t", 3) == \
        compile_description(param, fastpath=False).write(rep, "row_t", 3) \
        == b"abc\n"
    with pytest.raises(PadsError):
        compile_description(gallery.SIRIUS).write(reps[1], "entry_t", 3)


@pytest.mark.parametrize("engine", ["interp", "gen"])
def test_a_declined_compiled_writer_runs_once(engine):
    """A rep the compiled writer declines goes straight to the general
    content writer, which raises its error; the compiled writer is not
    asked again."""
    build = compile_description if engine == "interp" else compile_generated
    desc = build(gallery.SIRIUS)
    node = desc.node("entry_t")
    calls = []
    compiled = node.write_fn
    node.write_fn = lambda rep: calls.append(rep) or compiled(rep)
    rep = next(iter(desc.records(_sirius_inputs()["entry_t"], "entry_t")))[0]
    rep.header.unused = "a|b"
    with pytest.raises(ValueError):
        desc.write(rep, "entry_t")
    assert len(calls) == 1


def test_write2io_output_unchanged():
    import io
    fast = _build("sirius", "source", True)
    ref = _build("sirius", "source", False)
    assert fast.node("entry_t").write_fn is not None
    assert ref.node("entry_t").write_fn is None
    # ``write2io`` reaches the framed compiled writer through ``write``.
    assert "entry_t" in fast._framed_writers
    assert "entry_t" not in ref._framed_writers
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


# ---------------------------------------------------------------------------
# Struct functions: inside a record, the interpreter's struct parse runs the
# struct's compiled function, which calls the member fast function of every
# member and interprets only the member that fails.  Contract: reps, whole
# pd trees (locations included) and the cursor equal the fastpath=False
# reference.
# ---------------------------------------------------------------------------


def parsed(desc, data, rtype, mask=None, limits=None, src=None):
    """``(rep, pd tree, cursor)`` after each record."""
    if src is None:
        src = Source.from_bytes(data, desc.discipline, limits=limits)
    return [(rep, pd_tree(pd), src.pos)
            for rep, pd in desc.records(src, rtype, mask)]


@pytest.fixture
def compiled_calls(monkeypatch):
    """Names of the struct functions (``"struct"``) and of the member fast
    functions they call (``"member"``) run, each in call order."""
    calls = {"struct": [], "member": []}
    build = Runtime.struct

    def counted(fn, kind):
        def run(*args):
            calls[kind].append(fn.__name__)
            return fn(*args)
        run.spied = True
        return run

    def struct(self, decl, node):
        fn = build(self, decl, node)
        # The struct function looks its member functions up in the
        # runtime namespace on each call.
        for name, value in list(self.ns.items()):
            if name.startswith("_fm_") and not hasattr(value, "spied"):
                self.ns[name] = counted(value, "member")
        return counted(fn, "struct")
    monkeypatch.setattr(Runtime, "struct", struct)
    return calls


@pytest.fixture
def member_calls(compiled_calls):
    """Names of the member fast functions run, in call order."""
    return compiled_calls["member"]


@pytest.fixture
def struct_calls(compiled_calls):
    """Names of the struct functions run, in call order."""
    return compiled_calls["struct"]


def _gallery_input(name, ref, rtype):
    rng = random.Random(20050612)
    if name == "clf":
        lines = clf_workload(300, rng).split(b"\n")
        injector = ErrorInjector(0.3)
        return b"\n".join(injector.maybe_corrupt(line, rng) for line in lines)
    if name == "sirius":
        return sirius_workload(200, rng, syntax_errors=20,
                               sort_violations=2).split(b"\n", 1)[1]
    return generate_data(ref, rtype, 150, rng,
                         plan_injector(ref, rtype, 0.3))


@pytest.mark.parametrize("target", GALLERY_TARGETS, ids=lambda t: t[0])
def test_member_fns_match_the_reference_on_the_gallery(target, member_calls):
    name, text, rtype, ambient, discipline = target
    desc = compile_description(text, ambient=ambient, discipline=discipline)
    ref = compile_description(text, ambient=ambient, discipline=discipline,
                              fastpath=False)
    data = _gallery_input(name, ref, rtype)
    got = parsed(desc, data, rtype)
    assert got == parsed(ref, data, rtype)
    assert any(pd[1] for _, pd, _ in got), "no error records to exercise"
    if name in ("clf", "sirius"):
        assert member_calls, "the error records never ran a member function"


@pytest.fixture(scope="module")
def fp_ref():
    interp = compile_description(FP_DESC)
    return interp, compile_description(FP_DESC, fastpath=False)


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=0, max_size=48).filter(lambda b: b"\n" not in b))
def test_member_fns_match_the_reference_on_random_bytes(fp_ref, payload):
    interp, ref = fp_ref
    data = payload + b"\n"
    assert parsed(interp, data, "row_t") == parsed(ref, data, "row_t")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_member_fns_match_the_reference_on_mutated_rows(fp_ref, seed, data):
    interp, ref = fp_ref
    rep = interp.generate("row_t", random.Random(seed))
    raw = bytearray(interp.write(rep, "row_t"))
    for _ in range(data.draw(st.integers(1, 3))):
        if len(raw) > 1:
            idx = data.draw(st.integers(0, len(raw) - 2))
            raw[idx] = data.draw(st.integers(32, 126))
    blob = bytes(raw)
    assert parsed(interp, blob, "row_t") == parsed(ref, blob, "row_t")


def test_clean_member_keeps_its_own_constraint(fp_ref, member_calls):
    # Every member is clean, but n fails `n < 200`: the member function
    # returns 250 and the struct's own check reports the violation.  A
    # fresh build, so the spy sees its struct function built.
    interp, ref = compile_description(FP_DESC), fp_ref[1]
    data = b"ALPHA|-|07988|250|1,2\n"
    got = parsed(interp, data, "row_t")
    assert got == parsed(ref, data, "row_t")
    assert got[0][1][2] == int(ErrCode.USER_CONSTRAINT_VIOLATION)
    assert "_fm_row_t__n" in member_calls


@pytest.fixture(scope="module")
def clf_dash():
    """The `-` byte-count records of a CLF log: each fails the record fast
    path on its last member only."""
    lines = clf_workload(600, random.Random(2)).split(b"\n")
    return b"\n".join(ln for ln in lines if ln.endswith(b" -")) + b"\n"


@pytest.fixture
def clf_pair():
    return (compile_description(gallery.CLF),
            compile_description(gallery.CLF, fastpath=False))


def test_error_record_interprets_only_the_failing_member(clf_pair, clf_dash,
                                                         member_calls):
    desc, ref = clf_pair
    got = parsed(desc, clf_dash, "entry_t")
    assert got == parsed(ref, clf_dash, "entry_t")
    assert got and all(list(dict(pd[7])) == ["length"] for _, pd, _ in got)
    per_record = member_calls[:7]
    assert per_record == [f"_fm_entry_t__{m}" for m in (
        "client", "remoteID", "auth", "date", "request", "response",
        "length")]


@pytest.mark.parametrize("opener", [
    lambda data: Source(data, discipline=NewlineRecords(), start=1000),
    lambda data: Source.from_stream(io.BytesIO(data), NewlineRecords(),
                                    window=4096),
], ids=["offset-window", "stream"])
def test_member_fns_read_buffers_that_do_not_start_at_zero(
        clf_pair, clf_dash, member_calls, opener):
    # The member functions index the source's buffer, whose first byte
    # is not offset 0 in a windowed or trimmed source.
    desc, ref = clf_pair
    data = clf_dash * 8
    got = parsed(desc, None, "entry_t", src=opener(data))
    assert got == parsed(ref, None, "entry_t", src=opener(data))
    assert len(got) == 8 * clf_dash.count(b"\n") and member_calls


def test_member_fns_compile_lazily_once_per_struct(monkeypatch, clf_dash):
    compiled = []
    build = Runtime.struct

    def counted(self, decl, node):
        compiled.append(decl.name)
        return build(self, decl, node)
    monkeypatch.setattr(Runtime, "struct", counted)
    desc = compile_description(gallery.CLF)
    structs = [n for n in desc.bound.nodes.values()
               if isinstance(getattr(n, "inner", n), StructNode)]
    assert structs and compiled == []
    assert all(getattr(n, "inner", n).struct_fn is None for n in structs)
    list(desc.records(clf_dash, "entry_t"))
    list(desc.records(clf_dash, "entry_t"))
    # request_t's general parse never runs: its member function hits.
    assert compiled == ["entry_t"]
    bad_request = clf_dash.replace(b'"GET ', b'"GOT ', 1)
    list(desc.records(bad_request, "entry_t"))
    assert sorted(compiled) == ["entry_t", "request_t"]


def test_reference_builds_have_no_member_fns():
    ref = compile_description(gallery.SIRIUS, fastpath=False)
    nodes = [getattr(n, "inner", n) for n in ref.bound.nodes.values()]
    assert all(n.compile_struct_fn is None
               for n in nodes if isinstance(n, StructNode))


def test_member_fns_off_under_a_tracer(clf_pair, clf_dash, member_calls):
    desc, ref = clf_pair
    traces = []
    for d in (desc, ref):
        with observed(trace=True) as obs:
            list(d.records(clf_dash, "entry_t"))
        traces.append(obs.tracer.to_jsonl())
    assert traces[0] == traces[1] and "entry_t" in traces[0]
    assert member_calls == []


@pytest.mark.parametrize("mask", [
    Mask(P_CheckAndSet).with_field("length", MaskFlag.SYN_CHECK),
    Mask(P_CheckAndSet, compound_level=MaskFlag.SET | MaskFlag.SYN_CHECK),
], ids=["per-field", "compound_level"])
def test_record_members_off_under_non_uniform_masks(clf_pair, clf_dash,
                                                    member_calls, mask):
    desc, ref = clf_pair
    assert parsed(desc, clf_dash, "entry_t", mask) == \
        parsed(ref, clf_dash, "entry_t", mask)
    # The test is the mask each struct parses under: entry_t's is not
    # uniform, so none of its members run compiled.
    assert not [c for c in member_calls if c.startswith("_fm_entry_t__")]


@pytest.mark.parametrize("limits", [ParseLimits(max_depth=64),
                                    ParseLimits(max_array_elems=1000)],
                         ids=["max_depth", "max_array_elems"])
def test_member_fns_off_under_limits(clf_pair, clf_dash, member_calls,
                                     limits):
    desc, ref = clf_pair
    assert parsed(desc, clf_dash, "entry_t", limits=limits) == \
        parsed(ref, clf_dash, "entry_t", limits=limits)
    assert member_calls == []


def test_member_fns_off_outside_a_record(clf_pair, member_calls):
    desc, ref = clf_pair
    data = b'"GET /a HTTP/1.1"'
    got = desc.parse(data, "request_t")
    want = ref.parse(data, "request_t")
    assert got[0] == want[0] and pd_tree(got[1]) == pd_tree(want[1])
    assert member_calls == []


#: One clean CLF record, and the error shapes a struct function must
#: parse exactly as the walk does: ``(shape, record)``.
CLF_CLEAN = (b'207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] '
             b'"GET /tk/p.txt HTTP/1.0" 200 30')
CLF_SHAPES = [
    ("dash-length", CLF_CLEAN[:-2] + b"-"),
    ("response-099", CLF_CLEAN.replace(b" 200 ", b" 099 ")),
    # chkVersion fails: a clean member of request_t breaks its constraint.
    ("link-http10", CLF_CLEAN.replace(b'"GET ', b'"LINK ')),
    ("bad-method", CLF_CLEAN.replace(b'"GET ', b'"GOT ')),
    # The date stops at the first ']', where "] " is missing: the literal
    # resynchronises on the next "] ".
    ("missing-bracket", CLF_CLEAN.replace(b"0700] ", b"0700]x] ")),
    # The date does not parse: the member resynchronises on "] ".
    ("bad-date", CLF_CLEAN.replace(b"-0700]", b"-0700 junk]")),
    # No "] " anywhere after the date: panic, the rest defaulted.
    ("truncated", CLF_CLEAN[:33]),
]


@pytest.mark.parametrize("record", [r for _, r in CLF_SHAPES],
                         ids=[name for name, _ in CLF_SHAPES])
def test_struct_fn_parses_clf_error_shapes_like_the_walk(clf_pair,
                                                         struct_calls,
                                                         record):
    desc, ref = clf_pair
    data = CLF_CLEAN + b"\n" + record + b"\n" + CLF_CLEAN + b"\n"
    results = []
    for d in (desc, ref):
        with observed() as obs:
            got = parsed(d, data, "entry_t")
        results.append((got, [obs.metrics.value(f"resync.{kind}")
                              for kind in ("literal", "field_skip")]))
    assert results[0] == results[1]
    (got, _resyncs), _ = results
    assert got[1][1][1] and not got[0][1][1] and not got[2][1][1]
    assert "_fs_entry_t" in struct_calls


def test_struct_fn_stops_at_the_record_end(clf_pair):
    # The last record of the input ends, with no newline after it, right
    # after a member and before a one-byte literal: the literal's compare
    # must not read past the record.
    desc, ref = clf_pair
    data = CLF_CLEAN + b"\n" + CLF_CLEAN[:13]
    assert parsed(desc, data, "entry_t") == parsed(ref, data, "entry_t")


def test_clf_error_shapes_cover_resync_and_panic(clf_pair):
    # The shapes above reach every recovery the struct function reproduces.
    _desc, ref = clf_pair
    seen = set()
    for _name, record in CLF_SHAPES:
        with observed() as obs:
            ((_rep, tree, _pos),) = parsed(ref, record + b"\n", "entry_t")
        seen |= {kind for kind in ("literal", "field_skip")
                 if obs.metrics.value(f"resync.{kind}")}
        if tree[0] & int(Pstate.PANIC):
            seen.add("panic")
    assert seen == {"literal", "field_skip", "panic"}


@settings(max_examples=40, deadline=None)
@given(text=_random_descriptions(), seed=st.integers(0, 10**6))
def test_struct_fns_match_the_reference_on_random_descriptions(text, seed):
    desc = compile_description(text)
    ref = compile_description(text, fastpath=False)
    rng = random.Random(seed)
    injector = ErrorInjector(0.3)
    data = b"".join(injector.maybe_corrupt(record, rng) for record in
                    generate_records(desc, "row_t", 12, rng))
    want = parsed(ref, data, "row_t")
    assert parsed(desc, data, "row_t") == want
    # With the record fast function missing every record and no grid
    # block step, every record, clean or not, runs row_t's struct
    # function.
    record = desc.node("row_t")
    record.fast_fn = lambda line, dosem: None
    desc.grid = lambda *args: Verdict(False, "every record on its own")
    struct = record.inner
    run, calls = struct.compile_struct_fn(), []
    struct.struct_fn = lambda *args: calls.append(args) or run(*args)
    assert parsed(desc, data, "row_t") == want
    assert len(calls) == len(want) > 0


ZERO_PADDED = (b'61.253.50.051 - - [06/Apr/1997:03:46:37 -0700] '
               b'"GET /a HTTP/1.1" 304 3946\n')


@pytest.mark.parametrize("engine", ["interp", "gen"])
def test_zero_padded_ipv4_is_normalised_like_the_reference(engine):
    build = compile_description if engine == "interp" else compile_generated
    desc = build(gallery.CLF)
    ref = compile_description(gallery.CLF, fastpath=False)
    got = parsed(desc, ZERO_PADDED, "entry_t")
    assert got == parsed(ref, ZERO_PADDED, "entry_t")
    assert got[0][0].client.value == "61.253.50.51"


MID_RECORD_EOR = """
    Pstruct inner_t { Puint8 a; Peor; };
    Precord Pstruct row_t { inner_t x; Popt Pchar c; };
"""


@pytest.mark.parametrize("engine", ["interp", "gen"])
def test_popt_member_commits_like_the_general_parser(engine):
    # "123": the general parser reads a = 123, then b fails.  The record
    # regex used to backtrack into a = None, b = 123 and call it clean.
    text = "Precord Pstruct r_t { Popt Puint8 a; Puint8 b; };"
    build = compile_description if engine == "interp" else compile_generated
    ref = compile_description(text, fastpath=False)
    for data in (b"123\n", b"12\n", b"\n"):
        assert parsed(build(text), data, "r_t") == parsed(ref, data, "r_t")
    assert parsed(build(text), b"123\n", "r_t")[0][1][1] == 1


@pytest.mark.parametrize("engine", ["interp", "gen"])
def test_mid_record_peor_matches_only_at_the_record_end(engine):
    # "5x": inner_t's Peor is not at the end, an error for the general
    # parser; the record fast function used to accept it as clean.
    build = compile_description if engine == "interp" else compile_generated
    desc = build(MID_RECORD_EOR)
    ref = compile_description(MID_RECORD_EOR, fastpath=False)
    for data in (b"5x\n", b"5\n", b"5x\n5\n"):
        assert parsed(desc, data, "row_t") == parsed(ref, data, "row_t")
    assert parsed(desc, b"5x\n", "row_t")[0][1][1] == 1


def test_padsc_plan_shows_each_member_decision():
    from repro.plan import format_plan
    text = format_plan(compile_description(gallery.SIRIUS).bound.plan,
                       "entry_t")
    header, events = text.split("[0] header")[1].split("[1] events")
    assert "member fastpath: eligible: anchored regex over the member" \
        in header
    assert ("member fastpath: not eligible: Peor-terminated array "
            "(compiled only as the record's last member)") in events


OVERFLOW_EVENT = (b"9153|9153|1|0|0|0|0||152268|LOC_6|0|FRDW1|DUO|"
                  b"LOC_CRTE|1001476800|x|99999999999\n")


#: A regex-record tail array takes the per-element loop and its
#: converter; the element's constraint fails on "bad".
CHECKED_WORDS = """
    Ptypedef Pstring(:';':) word_t : word_t w => { w != "bad" };
    Parray words_t { word_t[] : Psep(';') && Pterm(Peor); };
    Precord Pstruct row_t { Puint8 id; '|'; words_t words; };
"""


def _namespace(desc, engine):
    # Both engines load the compiled fragments into the bound runtime.
    return desc.bound.runtime.ns


@pytest.mark.parametrize("engine", ["interp", "gen"])
def test_tail_array_element_converter_always_returns_a_pair(engine):
    # A failed element check must answer (False, None), not a bare None
    # the record function cannot unpack.
    build = compile_description if engine == "interp" else compile_generated
    desc = build(CHECKED_WORDS)
    ns = _namespace(desc, engine)
    (conv,) = [v for k, v in ns.items() if k.startswith("_fpelt_row_t")]
    (rx,) = [v for k, v in ns.items() if k.startswith("_fperx_row_t")]
    assert conv(rx.match(b"bad"), True) == (False, None)
    assert conv(rx.match(b"good"), True)[0] is True
    ref = compile_description(CHECKED_WORDS, fastpath=False)
    for data in (b"1|a;bad;c\n", b"1|a;;c\n", b"1|\n", b"1|a;\n"):
        assert parsed(desc, data, "row_t") == parsed(ref, data, "row_t")
    # The Sirius event's Puint32 check fails on 99999999999 inside the
    # split kernel: the record falls back to the general parser.
    desc = build(gallery.SIRIUS)
    assert not [k for k in _namespace(desc, engine) if k.startswith("_fpelt")]
    ref = compile_description(gallery.SIRIUS, fastpath=False)
    got = parsed(desc, OVERFLOW_EVENT, "entry_t")
    assert got == parsed(ref, OVERFLOW_EVENT, "entry_t")
    assert got[0][1][1] == 1


def test_padsc_plan_shows_each_tail_array_form():
    from repro.plan import format_plan
    sirius = format_plan(compile_description(gallery.SIRIUS).bound.plan,
                         "entry_t")
    assert ("fastpath: eligible: split kernel over '|' tokens (tail "
            "array eventSeq: 2 tokens per element)") in sirius
    words = format_plan(compile_description(CHECKED_WORDS).bound.plan,
                        "row_t")
    assert "(tail array words_t: per-element loop)" in words


#: Tail-array element shapes for the differential property: ``(element
#: declarations, element type, separator, strategy for one element's
#: text)``.  Elements are mostly well formed, with some junk (overflows,
#: stray separators, empty text) mixed in.
_NUM = st.integers(0, 300).map(str)
_WORD = st.text("abxyz", max_size=4)
_JUNK = st.text("ab|;:xn0123456789", max_size=4)


def _mostly(valid):
    return st.one_of(valid, valid, valid, _JUNK)


TAIL_SHAPES = {
    "scalar": ("", "Puint8", ";", _mostly(_NUM)),
    "sirius_event": ("""
        Pstruct ev_t { Pstring(:'|':) state; '|'; Puint32 tstamp; };
        """, "ev_t", "|", _mostly(st.tuples(_WORD, _NUM).map("|".join))),
    "union": ("""
        Pstruct tagged_t { "n"; Puint8 n; };
        Punion u_t { Puint8 num; tagged_t tag; Pchar c; };
        """, "u_t", ";", _mostly(st.one_of(_NUM, _NUM.map("n".__add__),
                                          st.sampled_from("abn;")))),
    "popt": ("""
        Pstruct o_t { Popt Puint8 a; ':'; Pstring(:';':) b; };
        """, "o_t", ";", _mostly(st.tuples(st.one_of(st.just(""), _NUM),
                                           _WORD).map(":".join))),
    "popt_empty": ("""
        Pstruct e_t { Popt Pstring(:':':) a; ':'; Puint8 b; };
        """, "e_t", ";", _mostly(st.tuples(_WORD, _NUM).map(":".join))),
    "no_sep": ("""
        Pstruct p_t { 'x'; Puint8 v; };
        """, "p_t", None, _mostly(_NUM.map("x".__add__))),
    "min_width_0": ("", "Pstring(:';':)", ";", _mostly(_WORD)),
}


def _tail_desc(shape):
    decls, elt, sep, _ = TAIL_SHAPES[shape]
    term = f"Psep('{sep}') && Pterm(Peor)" if sep else "Pterm(Peor)"
    return f"""{decls}
        Parray tail_t {{ {elt}[] : {term}; }};
        Precord Pstruct row_t {{ Puint8 id; '|'; tail_t tail; }};
    """


@pytest.fixture(scope="module")
def tail_builds():
    return {shape: (compile_description(_tail_desc(shape)),
                    compile_generated(_tail_desc(shape)),
                    compile_description(_tail_desc(shape), fastpath=False))
            for shape in TAIL_SHAPES}


@st.composite
def _tails(draw):
    shape = draw(st.sampled_from(sorted(TAIL_SHAPES)))
    sep = TAIL_SHAPES[shape][2] or ""
    elts = draw(st.lists(TAIL_SHAPES[shape][3], max_size=5))
    return shape, ("7|" + sep.join(elts)).encode("latin-1")


def test_tail_array_forms():
    # Every shape gets the regex form's per-element loop, except the one
    # whose separator is the record's: it is a run of '|'-separated
    # tokens, so it gets the split kernel.
    for shape in TAIL_SHAPES:
        verdict = compile_description(_tail_desc(shape)).bound.plan \
            .decls["row_t"].verdict
        form = ("split kernel over '|' tokens (tail array tail_t: 2 tokens "
                "per element)" if shape == "sirius_event"
                else "(tail array tail_t: per-element loop)")
        assert form in verdict.reason, (shape, verdict)


@settings(max_examples=400, deadline=None)
@given(case=_tails())
def test_tail_array_fast_path_equals_the_general_parser(tail_builds, case):
    shape, line = case
    interp, gen, ref = tail_builds[shape]
    data = line + b"\n"
    want = parsed(ref, data, "row_t")
    assert parsed(interp, data, "row_t") == want, (shape, line)
    assert parsed(gen, data, "row_t") == want, (shape, line)


@pytest.mark.parametrize("engine", ["interp", "gen"])
def test_min_width_0_tail_keeps_the_general_parsers_elements(engine):
    # The element matches empty: the general parser reads two elements
    # of "1|;n1034", the first one empty.
    build = compile_description if engine == "interp" else compile_generated
    desc = build(_tail_desc("min_width_0"))
    ref = compile_description(_tail_desc("min_width_0"), fastpath=False)
    got = parsed(desc, b"1|;n1034\n", "row_t")
    assert got == parsed(ref, b"1|;n1034\n", "row_t")
    assert list(got[0][0].tail) == ["", "n1034"]


#: A union's Pwhere, checked after the branch is chosen: ``1 == 2``
#: never holds, ``a > 6`` holds for the second record only.
UNION_WHERE = """
    Punion u_t {{ Puint8 a : a > 5; Pstring(:" ":) s; }} Pwhere {{ {} }};
    Precord Pstruct r_t {{ u_t u; }};
"""


@pytest.mark.parametrize("fastpath", [True, False])
def test_union_pwhere_is_checked(fastpath):
    never = compile_description(UNION_WHERE.format("1 == 2"),
                                fastpath=fastpath)
    (rep, pd), = never.records(b"7\n", "r_t")
    assert rep.u.tag == "a" and rep.u.value == 7
    assert pd.nerr == 1
    assert pd.fields["u"].err_code == ErrCode.WHERE_CLAUSE_VIOLATION
    assert not never.verify(rep, "r_t")
    # Semantic checks off: the clause is not evaluated.
    (_rep, pd), = never.records(b"7\n", "r_t", Mask(P_Set))
    assert pd.nerr == 0

    holds = compile_description(UNION_WHERE.format("a > 6"),
                                fastpath=fastpath)
    got = [(r.u.tag, p.nerr) for r, p in holds.records(b"6\n7\nxy\n", "r_t")]
    assert got == [("a", 1), ("a", 0), ("s", 1)]
    clean = compile_description(UNION_WHERE.format("a > 6").replace(
        "Pwhere { a > 6 }", ""), fastpath=fastpath)
    assert [(r, p.nerr) for r, p in clean.records(b"7\n", "r_t")] == \
        [(r, p.nerr) for r, p in holds.records(b"7\n", "r_t")]
    assert holds.verify(holds.parse(b"7\n", "r_t")[0], "r_t")
