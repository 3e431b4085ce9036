"""Unit tests for the core value/mask/error/API modules."""

import random

import pytest

from repro import (
    DateVal,
    EnumVal,
    ErrCode,
    Loc,
    Mask,
    MaskFlag,
    P_Check,
    P_CheckAndSet,
    P_Ignore,
    P_Set,
    PadsError,
    Pd,
    Pstate,
    Rec,
    UnionVal,
    compile_description,
    gallery,
    mask_init,
)
from repro.core.values import FloatVal


class TestRec:
    def test_attribute_and_item_access(self):
        rec = Rec(a=1, b="x")
        assert rec.a == 1 and rec["b"] == "x"
        assert "a" in rec and "z" not in rec
        assert list(rec) == ["a", "b"]
        assert dict(rec.items()) == {"a": 1, "b": "x"}

    def test_mutation(self):
        # A field may be reassigned; a struct's fields are fixed by its
        # shape, so a new one cannot be added.
        rec = Rec(a=1, b=2)
        rec.a = 5
        rec["b"] = 7
        assert rec.a == 5 and rec.b == 7
        with pytest.raises(AttributeError):
            rec.c = 1
        with pytest.raises(AttributeError):
            rec["c"] = 1
        assert rec == Rec(a=5, b=7)

    def test_equality(self):
        assert Rec(a=1, b=2) == Rec(a=1, b=2)
        assert Rec(a=1) != Rec(a=2)
        assert Rec(a=1) != "not a rec"

    def test_repr(self):
        assert repr(Rec(a=1)) == "Rec(a=1)"


class TestUnionVal:
    def test_projection(self):
        u = UnionVal("ip", "1.2.3.4")
        assert u.tag == "ip"
        assert u.value == "1.2.3.4"
        assert u.ip == "1.2.3.4"

    def test_wrong_branch_raises(self):
        u = UnionVal("ip", "1.2.3.4")
        with pytest.raises(AttributeError, match="holds 'ip'"):
            _ = u.host

    def test_immutability(self):
        u = UnionVal("a", 1)
        with pytest.raises(AttributeError):
            u.value = 2

    def test_equality(self):
        assert UnionVal("a", 1) == UnionVal("a", 1)
        assert UnionVal("a", 1) != UnionVal("b", 1)


class TestScalarValues:
    def test_enumval_is_str_with_code(self):
        v = EnumVal("GET", 3, "get")
        assert v == "GET"
        assert int(v) == 3
        assert v.physical == "get"

    def test_floatval_is_float_with_raw(self):
        v = FloatVal(0.0, "0")
        assert v == 0.0 and v + 1 == 1.0
        assert v.raw == "0"

    def test_dateval_strftime_shorthands(self):
        v = DateVal(0)
        assert v.strftime("%D") == "01/01/70"
        assert v.strftime("%T") == "00:00:00"

    def test_dateval_cross_type_comparisons(self):
        assert DateVal(100) < DateVal(200)
        assert DateVal(100) <= 100
        assert 150 > DateVal(100)
        assert DateVal(100) != "not comparable"


class TestPd:
    def test_clean(self):
        pd = Pd()
        assert not pd.errors
        assert pd.summary() == "ok"

    def test_first_error_kept(self):
        pd = Pd()
        pd.record_error(ErrCode.INVALID_INT, Loc(3, 5, 0))
        pd.record_error(ErrCode.RANGE_ERR, Loc(9, 9, 0))
        assert pd.nerr == 2
        assert pd.err_code == ErrCode.INVALID_INT
        assert pd.loc.offset == 3
        assert "INVALID_INT" in pd.summary()

    def test_panic_flag(self):
        pd = Pd()
        pd.record_error(ErrCode.MISSING_LITERAL, Loc(), panic=True)
        assert pd.pstate & Pstate.PANIC

    def test_absorb(self):
        parent, child = Pd(), Pd()
        child.record_error(ErrCode.INVALID_IP, Loc(7, 8, 1))
        parent.absorb(child)
        assert parent.nerr == 1
        assert parent.err_code == ErrCode.INVALID_IP
        clean = Pd()
        parent.absorb(clean)
        assert parent.nerr == 1

    def test_error_code_classification(self):
        assert ErrCode.MISSING_LITERAL.is_syntactic()
        assert ErrCode.UNION_MATCH_FAILURE.is_syntactic()
        assert ErrCode.USER_CONSTRAINT_VIOLATION.is_semantic()
        assert not ErrCode.WHERE_CLAUSE_VIOLATION.is_syntactic()

    def test_loc_str(self):
        assert "record 2" in str(Loc(1, 5, 2))
        assert "record" not in str(Loc(1, 5, -1))


class TestMasks:
    def test_flag_combinations(self):
        assert P_CheckAndSet == MaskFlag.SET | MaskFlag.SYN_CHECK | MaskFlag.SEM_CHECK
        assert P_Check == MaskFlag.SYN_CHECK | MaskFlag.SEM_CHECK
        assert int(P_Ignore) == 0

    def test_predicates(self):
        m = Mask(P_CheckAndSet)
        assert m.do_set and m.do_syn and m.do_sem
        m = Mask(P_Set)
        assert m.do_set and not m.do_syn and not m.do_sem

    def test_uniform_child_cached_and_equal(self):
        m = Mask(P_Check)
        child1 = m.for_field("a")
        child2 = m.for_field("b")
        assert child1 is child2
        assert child1.base == P_Check

    def test_field_overrides(self):
        m = Mask(P_CheckAndSet).with_field("x", Mask(P_Ignore))
        assert m.for_field("x").base == P_Ignore
        assert m.for_field("y").base == P_CheckAndSet

    def test_flag_shorthand_in_fields(self):
        m = Mask(P_CheckAndSet)
        m.fields["x"] = P_Set
        assert m.for_field("x").base == P_Set

    def test_compound_level_default_is_base(self):
        m = Mask(P_Check)
        assert m.level == P_Check
        m.compound_level = P_Set
        assert m.level == P_Set
        assert not m.level_sem

    def test_mask_init(self):
        assert mask_init().base == P_CheckAndSet
        assert mask_init(P_Set).base == P_Set


class TestApiEntryPoints:
    def test_count_records(self, sirius):
        assert sirius.count_records(gallery.SIRIUS_SAMPLE) == 3

    def test_open_file(self, clf, tmp_path):
        path = tmp_path / "clf.log"
        path.write_text(gallery.CLF_SAMPLE)
        src = clf.open_file(str(path))
        rep, pd = clf.parse(src)
        assert pd.nerr == 0 and len(rep) == 2
        src.close()

    def test_records_from_file_stream(self, sirius, tmp_path):
        from repro.tools.datagen import sirius_workload
        data = sirius_workload(500, random.Random(6))
        path = tmp_path / "sirius.dat"
        path.write_bytes(data.split(b"\n", 1)[1])
        src = sirius.open_file(str(path))
        count = sum(1 for _ in sirius.records(src, "entry_t"))
        assert count == 500
        src.close()

    def test_unknown_type_raises(self, clf):
        with pytest.raises(PadsError, match="nosuch"):
            clf.parse(b"x", "nosuch")

    def test_array_elements_requires_array(self, clf):
        with pytest.raises(PadsError, match="not a Parray"):
            list(clf.array_elements(b"", "entry_t"))

    def test_source_reuse_across_calls(self, sirius):
        """A Source can be threaded through multiple entry points, the
        paper's 'sequence calls to parsing functions' pattern."""
        src = sirius.open(gallery.SIRIUS_SAMPLE)
        header, hpd = sirius.parse(src, "summary_header_t")
        assert hpd.nerr == 0 and header.tstamp == 1005022800
        orders = [rep for rep, _ in sirius.records(src, "entry_t")]
        assert [o.header.order_num for o in orders] == [9152, 9153]

    def test_str_and_bytes_inputs(self, clf):
        a, _ = clf.parse(gallery.CLF_SAMPLE)
        b, _ = clf.parse(gallery.CLF_SAMPLE.encode())
        assert a == b

    @pytest.mark.parametrize("backend", ["ast", "auto", "llvm"])
    def test_unknown_backend_is_an_error(self, backend):
        # One engine: compile_description has no backend to select.
        with pytest.raises(TypeError, match="backend"):
            compile_description(gallery.CLF, backend=backend)

    def test_compile_file(self, tmp_path):
        from repro import compile_file
        path = tmp_path / "d.pads"
        path.write_text("Precord Pstruct r { Puint8 x; };")
        d = compile_file(str(path))
        rep, pd = d.parse(b"7\n", "r")
        assert rep.x == 7
