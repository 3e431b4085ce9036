"""Tests for the plan IR (repro.plan): the analyzed middle layer.

Pins the facts the binder, the fast-path compilers and the tools consume
from one analysis instead of re-deriving independently: the
ambient-coding table (with an EBCDIC regression), static widths,
fastpath verdicts and their reasons, adjacent-literal parses matching
the reference, and the ``padsc plan`` pretty-printer.
"""

import random

import pytest

from repro import compile_description, gallery
from repro.codegen import compile_generated, generate_source
from repro.core.io import FixedWidthRecords, NoRecords
from repro.plan import ENCODINGS, analyze, encoding_for, format_plan
from repro.dsl.parser import parse_description
from repro.dsl.typecheck import check_description

from .test_codegen import pd_summary


def _analyze(text, ambient="ascii"):
    desc = parse_description(text, "<test>")
    check_description(desc, ambient)
    return analyze(desc, ambient)


# ---------------------------------------------------------------------------
# Encodings: one table, shared by everything
# ---------------------------------------------------------------------------


class TestEncodings:
    def test_the_one_table(self):
        assert ENCODINGS == {"ascii": "latin-1", "binary": "latin-1",
                             "ebcdic": "cp037"}

    def test_encoding_for(self):
        assert encoding_for("ebcdic") == "cp037"
        with pytest.raises(ValueError):
            encoding_for("utf-16")

    def test_plan_carries_the_encoding(self):
        assert _analyze(gallery.CLF).encoding == "latin-1"

    def test_no_second_encodings_table(self):
        # The acceptance criterion in code form: neither engine defines
        # its own ambient table anymore.
        import repro.codegen.emitter as emitter
        import repro.core.binding as binding
        assert not hasattr(emitter, "_ENCODINGS")
        assert not hasattr(binding, "_ENCODINGS")


EBCDIC_DESC = """
Precord Pstruct item_t {
  Pe_string_FW(:6:) tag;
  Pzoned_FW(:5:)    qty;
  Pbcd_FW(:7, 2:)   amount;
};
Psource Parray items_t {
  item_t[];
};
"""


class TestEbcdicRegression:
    """cp037 descriptions parse identically through both engines."""

    def test_both_engines_byte_identical(self):
        width = 6 + 5 + 4  # FW string + zoned digits + packed (7+2+2)//2
        disc = FixedWidthRecords(width)
        interp = compile_description(EBCDIC_DESC, ambient="ebcdic",
                                     discipline=disc)
        gen = compile_generated(EBCDIC_DESC, ambient="ebcdic",
                                discipline=disc)
        assert interp.plan.encoding == "cp037"
        assert interp.plan.decl("item_t").width == width

        rng = random.Random(2005)
        reps = [interp.generate("item_t", rng) for _ in range(25)]
        data = b"".join(interp.write(r, "item_t") for r in reps)
        assert len(data) == 25 * width

        out_i = list(interp.records(data, "item_t"))
        out_g = list(gen.records(data, "item_t"))
        assert [r for r, _ in out_i] == reps
        assert [r for r, _ in out_i] == [r for r, _ in out_g]
        assert ([pd_summary(p) for _, p in out_i]
                == [pd_summary(p) for _, p in out_g])
        assert all(pd.nerr == 0 for _, pd in out_i)
        # Writing round-trips through the same cp037 table.
        assert b"".join(gen.write(r, "item_t") for r, _ in out_g) == data

    def test_ebcdic_corruption_handled_identically(self):
        width = 15
        disc = FixedWidthRecords(width)
        interp = compile_description(EBCDIC_DESC, ambient="ebcdic",
                                     discipline=disc)
        gen = compile_generated(EBCDIC_DESC, ambient="ebcdic",
                                discipline=disc)
        rng = random.Random(7)
        rep = interp.generate("item_t", rng)
        raw = bytearray(interp.write(rep, "item_t"))
        raw[8] = 0x40  # EBCDIC space inside the zoned field
        pairs_i = list(interp.records(bytes(raw), "item_t"))
        pairs_g = list(gen.records(bytes(raw), "item_t"))
        assert ([pd_summary(p) for _, p in pairs_i]
                == [pd_summary(p) for _, p in pairs_g])


# ---------------------------------------------------------------------------
# Static widths and verdicts
# ---------------------------------------------------------------------------


class TestWidthsAndVerdicts:
    def test_call_detail_widths(self):
        plan = _analyze(gallery.CALL_DETAIL, "binary")
        assert plan.decl("call_t").width == 24

    def test_clf_is_dynamic_but_regex_eligible(self):
        plan = _analyze(gallery.CLF)
        decl = plan.decl("entry_t")
        assert decl.width is None
        assert decl.verdict.eligible
        assert decl.verdict.reason == (
            "anchored regex over the record; split kernel declined: "
            "literal ' [' holds the separator ' '")

    def test_fixed_width_records_get_the_slice_path(self):
        plan = _analyze(gallery.CALL_DETAIL, "binary")
        verdict = plan.decl("call_t").verdict
        assert verdict.eligible
        assert verdict.reason == "batch kernel over one 24-byte record"

    def test_non_record_types_are_ineligible_with_reason(self):
        plan = _analyze(gallery.CLF)
        verdict = plan.decl("request_t").verdict
        assert not verdict.eligible
        assert "not a Precord" in verdict.reason

    def test_parameterised_records_are_ineligible(self):
        plan = _analyze("""
Precord Pstruct row_t(:int len:) {
  Pstring_FW(:len:) body;
};
Psource Parray rows_t {
  row_t(:4:)[];
};
""")
        verdict = plan.decl("row_t").verdict
        assert not verdict.eligible
        assert verdict.reason == "parameterised type"


# ---------------------------------------------------------------------------
# Adjacent literals and kernel-backed fast functions
# ---------------------------------------------------------------------------

FUSED_DESC = """
Precord Pstruct pair_t {
  "<<";
  '[';
  Puint32 a;
  "]::";
  '(';
  Puint32 b;
  ')';
};
Psource Parray pairs_t {
  pair_t[];
};
"""


class TestLiteralFusion:
    def test_fused_parse_identical_to_reference(self):
        fast = compile_description(FUSED_DESC)
        ref = compile_description(FUSED_DESC, fastpath=False)
        gen = compile_generated(FUSED_DESC)
        gen_ref = compile_generated(FUSED_DESC, fastpath=False)

        clean = b"<<[7]::(9)\n<<[12]::(0)\n"
        # Corruptions hitting inside and across the adjacent-literal
        # runs: per-literal resync behaves exactly as the reference.
        corrupt = (b"<<[7]::(9)\n"
                   b"<[7]::(9)\n"        # first run broken at byte 1
                   b"<<7]::(9)\n"        # missing '[' inside run
                   b"<<[7]:(9)\n"        # second run broken
                   b"<<[7]::9)\n"        # missing '(' inside run
                   b"garbage\n"
                   b"<<[1]::(2)\n")
        for data in (clean, corrupt):
            base = [(r, pd_summary(p))
                    for r, p in ref.records(data, "pair_t")]
            for engine in (fast, gen, gen_ref):
                got = [(r, pd_summary(p))
                       for r, p in engine.records(data, "pair_t")]
                assert got == base, engine


class TestSlicePath:
    def test_interpreter_gains_the_fast_fn(self):
        disc = FixedWidthRecords(24)
        interp = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                     discipline=disc)
        node = interp.node("call_t")
        assert node.fast_fn is not None

    def test_reference_mode_has_no_fast_fn(self):
        disc = FixedWidthRecords(24)
        interp = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                     discipline=disc, fastpath=False)
        assert interp.node("call_t").fast_fn is None

    def test_sliced_parse_identical_to_reference(self):
        from repro.tools.datagen import call_detail_workload
        disc = FixedWidthRecords(24)
        fast = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                   discipline=disc)
        ref = compile_description(gallery.CALL_DETAIL, ambient="binary",
                                  discipline=disc, fastpath=False)
        data = bytearray(call_detail_workload(60, random.Random(3)))
        data[22] = 0xFF  # corrupt a constrained field in record 0
        data = bytes(data)
        ref_out = list(ref.records(data, "call_t"))
        base = [(r, pd_summary(p)) for r, p in ref_out]
        got = [(r, pd_summary(p)) for r, p in fast.records(data, "call_t")]
        assert got == base
        assert any(p.nerr for _, p in ref_out)  # the corruption registered


    # The record fast function of a static layout is its batch kernel
    # over one record; each case below must match reference mode
    # exactly, reps and pd summaries.

    def _matches_reference(self, text, data, rtype, **kw):
        fast = compile_description(text, **kw)
        ref = compile_description(text, fastpath=False, **kw)
        assert fast.plan.decl(rtype).verdict.reason.startswith(
            "batch kernel over one ")
        assert fast.node(rtype).fast_fn is not None
        ref_out = list(ref.records(data, rtype))
        got = [(r, pd_summary(p)) for r, p in fast.records(data, rtype)]
        assert got == [(r, pd_summary(p)) for r, p in ref_out]
        return fast, [p for _, p in ref_out]

    STATIC_DESC = """
Precord Pstruct fw_t {
  "ID"; Pstring_FW(:4:) id; ':'; Puint16_FW(:3:) n : n < 500; '|'; Pchar c;
};
"""

    def test_short_and_long_lines_take_the_general_path(self):
        data = (b"IDabcd:123|x\n"      # clean
                b"IDabc:123|x\n"       # one byte short
                b"IDabcd:123|xy\n"     # one byte long
                b"IDabcd:042|z\n")     # clean
        fast, pds = self._matches_reference(self.STATIC_DESC, data, "fw_t")
        assert [p.nerr > 0 for p in pds] == [False, True, True, False]
        fn = fast.node("fw_t").fast_fn
        assert fn(b"IDabc:123|x", True) is None
        assert fn(b"IDabcd:123|xy", True) is None
        assert fn(b"IDabcd:123|x", True).n == 123

    def test_literal_mismatch_and_constraint_miss(self):
        data = (b"IDabcd:123|x\n"
                b"IDabcd;123|x\n"      # ':' column broken
                b"IDabcd:999|x\n"      # n < 500 fails
                b"JDabcd:001|x\n")     # "ID" column broken
        _, pds = self._matches_reference(self.STATIC_DESC, data, "fw_t")
        assert [p.nerr > 0 for p in pds] == [False, True, True, True]

    def test_big_endian_majority_layout(self):
        text = """
Precord Pstruct be_t {
  Pb_uint32_be a; Pb_uint16_be b; Pb_int32_be c : c > -1000000;
  Pb_uint16 d; Pb_uint8 e;
};
"""
        # Three big-endian columns outvote two little-endian ones: the
        # kernel unpacks big-endian and converts d per record.
        plan = _analyze(text, "binary")
        assert "_btfmt_be_t = '>" in "\n".join(plan.decl("be_t").batch_fn[1])
        rng = random.Random(11)
        data = bytes(rng.randrange(256) for _ in range(13 * 80))
        _, pds = self._matches_reference(text, data, "be_t", ambient="binary",
                                         discipline=FixedWidthRecords(13))
        assert any(p.nerr for p in pds) and not all(p.nerr for p in pds)

    def test_call_detail_under_ebcdic(self):
        from repro.tools.datagen import call_detail_workload
        data = bytearray(call_detail_workload(60, random.Random(5)))
        data[22] = 0xFF  # call_type of record 0 breaks its constraint
        _, pds = self._matches_reference(
            gallery.CALL_DETAIL, bytes(data), "call_t", ambient="ebcdic",
            discipline=FixedWidthRecords(24))
        assert pds[0].nerr and not any(p.nerr for p in pds[1:])

    def test_cobol_billing_with_garbled_bytes(self):
        import importlib.resources as res
        from repro.tools.cobol import translate
        from repro.tools.datagen import garble_byte
        tr = translate((res.files("repro.gallery") / "billing.cpy")
                       .read_text(), "billing.cpy")
        kw = {"ambient": "ebcdic",
              "discipline": FixedWidthRecords(tr.record_width)}
        writer = compile_description(tr.pads_source, **kw)
        rng = random.Random(23)
        records = [writer.write(writer.generate(tr.record_type, rng),
                                tr.record_type) for _ in range(60)]
        data = b"".join(garble_byte(r, rng) if i % 3 == 0 else r
                        for i, r in enumerate(records))
        _, pds = self._matches_reference(tr.pads_source, data,
                                         tr.record_type, **kw)
        assert any(p.nerr for p in pds)


# ---------------------------------------------------------------------------
# padsc plan (CLI pretty-printer)
# ---------------------------------------------------------------------------


class TestPlanCLI:
    @pytest.fixture()
    def clf_path(self, tmp_path):
        path = tmp_path / "clf.pads"
        path.write_text(gallery.CLF)
        return str(path)

    def test_whole_description(self, clf_path, capsys):
        from repro.tools.padsc import main
        assert main(["plan", clf_path]) == 0
        out = capsys.readouterr().out
        assert "plan: ambient=ascii encoding=latin-1 source=clt_t" in out
        assert "fastpath: eligible: anchored regex over the record" in out
        assert "fastpath: not eligible:" in out

    def test_single_type(self, clf_path, capsys):
        from repro.tools.padsc import main
        assert main(["plan", clf_path, "--type", "entry_t"]) == 0
        out = capsys.readouterr().out
        assert "Pstruct entry_t  [Precord]" in out
        assert "width: dynamic" in out
        assert "resync literals:" in out

    def test_unknown_type(self, clf_path, capsys):
        from repro.tools.padsc import main
        assert main(["plan", clf_path, "--type", "nope"]) == 2
        assert "no type named" in capsys.readouterr().err

    def test_format_plan_shows_widths(self):
        plan = _analyze(gallery.CALL_DETAIL, "binary")
        text = format_plan(plan, "call_t")
        assert "width: 24 bytes" in text
        assert ("fastpath: eligible: batch kernel over one 24-byte record"
                in text)

    def test_format_plan_names_the_fast_function_form(self, tmp_path,
                                                      capsys):
        from repro.tools.padsc import main
        path = tmp_path / "sirius.pads"
        path.write_text(gallery.SIRIUS)
        assert main(["plan", str(path), "--type", "entry_t"]) == 0
        assert ("fastpath: eligible: split kernel over '|' tokens (tail "
                "array eventSeq: 2 tokens per element)"
                in capsys.readouterr().out)
        # A delimited record whose member may hold the separator keeps
        # the regex form, and the plan names the member and why.
        text = format_plan(_analyze("""
            Precord Pstruct row_t {
              Puint32 n; '|'; Pstring_FW(:3:) tag; '|'; Pchar c;
            };"""), "row_t")
        assert ("fastpath: eligible: anchored regex over the record; split "
                "kernel declined: member tag: Pstring_FW(:3:) may contain "
                "'|'") in text


# ---------------------------------------------------------------------------
# Engines consume the plan (structure sharing)
# ---------------------------------------------------------------------------


class TestPlanIsShared:
    def test_bound_nodes_carry_plan_nodes(self):
        interp = compile_description(gallery.CLF)
        decl = interp.plan.decl("entry_t")
        assert interp.node("entry_t").plan is decl

    def test_emitter_reuses_an_existing_plan(self):
        desc = parse_description(gallery.CLF, "<description>")
        check_description(desc, "ascii")
        plan = analyze(desc, "ascii")
        src_shared = generate_source(gallery.CLF)
        from repro.codegen.emitter import generate_source as emit
        assert emit(desc, "ascii", source_text=gallery.CLF,
                    plan=plan) == src_shared


# ---------------------------------------------------------------------------
# Work bound: steps per input byte, None when a parsed value sets the work
# ---------------------------------------------------------------------------

_UNBOUNDED = {
    "quantifier over a parsed value":
        "Precord Pstruct r_t { Puint32 n; } "
        "Pwhere { Pforall (i Pin [0..n] : i >= 0) };",
    "helper loop":
        "bool f(int n) { int i = 0; while (i < n) { i += 1; } return true; };"
        "Precord Pstruct r_t { Puint32 n : f(n); };",
    "recursive helper":
        "bool f(int n) { return f(n - 1); };"
        "Precord Pstruct r_t { Puint32 n : f(n); };",
    "Pre field": 'Precord Pstruct r_t { Pre "/a*b/" x; };',
    "regex base type": 'Precord Pstruct r_t { Pstring_SE(:"a*b":) x; };',
    "Popt element":
        "Parray a_t { Popt Puint32[] : Psep(','); };"
        "Precord Pstruct r_t { a_t a; };",
    "union element":
        "Punion u_t { Puint32 a; Pstring(:',':) b; };"
        "Parray a_t { u_t[] : Psep(','); };"
        "Precord Pstruct r_t { a_t a; };",
    "empty separator":
        'Parray a_t { Puint8[] : Psep(""); }; Precord Pstruct r_t { a_t a; };',
    "repeat by a parsed count":
        'Precord Pstruct r_t { Puint32 n; Pcompute Pstring s = "ab" * n; };',
    "shift by a parsed count":
        "Precord Pstruct r_t { Puint32 n; Pcompute Puint64 s = 1 << n; };",
    "kept concatenation":
        "Precord Pstruct r_t { Pstring(:' ':) s; "
        "Pcompute Pstring t = s + s; };",
    "kept repetition":
        "Precord Pstruct r_t { Pstring(:' ':) s; "
        "Pcompute Pstring t = s * 2; };",
    "nested length quantifiers":
        "Parray a_t { Puint8[] : Psep(','); } Pwhere { "
        "Pforall (i Pin [0..length-1] : Pforall (j Pin [0..length-1] : "
        "i > j || elts[i] <= elts[j])) };"
        "Precord Pstruct r_t { a_t a; };",
    "length quantifier per element":
        "Parray a_t { Puint8[] : Psep(',') && "
        "Plast(Pforall (i Pin [0..length-1] : elts[i] > 0)); };"
        "Precord Pstruct r_t { a_t a; };",
}


class TestWorkBound:
    @pytest.mark.parametrize("text", _UNBOUNDED.values(), ids=_UNBOUNDED)
    def test_unbounded(self, text):
        assert compile_description(text).work_per_byte is None

    @pytest.mark.parametrize("name,ambient,bound", [
        ("CALL_DETAIL", "binary", 12), ("CLF", "ascii", 85),
        ("NETFLOW", "binary", 33), ("REGULUS", "ascii", 32),
        ("SIRIUS", "ascii", 73)])
    def test_gallery_descriptions_are_bounded(self, name, ambient, bound):
        desc = compile_description(getattr(gallery, name), ambient=ambient)
        assert desc.work_per_byte == bound

    def test_length_quantifier_in_an_array_where_is_linear(self):
        # Sirius's sortedness check: one body per element parsed.
        text = ("Parray a_t { Puint8[] : Psep(','); } Pwhere { "
                "Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1]) };"
                "Precord Pstruct r_t { a_t a; };")
        assert compile_description(text).work_per_byte == 18

    def test_literal_span_counts_its_iterations(self):
        small, large = (compile_description(
            "Precord Pstruct r_t { Puint32 n; } "
            f"Pwhere {{ Pforall (i Pin [0..{hi}] : i >= 0) }};").work_per_byte
            for hi in (9, 999_999))
        assert large - small == 3 * (1_000_000 - 10)

    def test_a_literal_factor_costs_its_magnitude(self):
        small, large = (compile_description(
            f"Precord Pstruct r_t {{ Puint32 x : x * {k} > 5; }};"
        ).work_per_byte for k in (2, 1000))
        assert large - small == 998
        kept = compile_description(
            "Precord Pstruct r_t { Puint32 x; Pcompute Puint32 y = x + 1; };")
        assert kept.work_per_byte is not None

    def test_a_record_element_rescans_only_its_record(self):
        text = ("Precord Punion u_t { Puint32 a; Pstring(:',':) b; };"
                "Psource Parray a_t { u_t[]; };")
        assert compile_description(text).work_per_byte == 5
        # with no record discipline the one record is the whole input
        assert compile_description(
            text, discipline=NoRecords()).work_per_byte is None
