"""Tests for the code generator.

``compile_generated`` is ``compile_description``: every compiled
description emits its Figure 6 module (``py_source``, what ``padsc
compile`` writes) and loads it (``module``) on first access, with itself
as the description the module's functions run on.  The module's
functions must give exactly what the description gives — same reps,
same parse-descriptor summaries, same write-back bytes — over clean and
corrupted inputs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import FixedWidthRecords, Mask, NoRecords, P_Check, P_CheckAndSet, P_Set
from repro import PadsError, compile_description, gallery
from repro.codegen import compile_generated, generate_source
from repro.core.api import CompiledDescription
from repro.core.masks import MaskFlag
from repro.tools.datagen import clf_workload, sirius_workload


def pd_summary(pd):
    """Structural fingerprint of a pd tree (order-insensitive on fields)."""
    return (
        int(pd.pstate), pd.nerr, int(pd.err_code),
        pd.tag, pd.neerr, pd.first_error,
        tuple(sorted((k, pd_summary(v)) for k, v in (pd._fields or {}).items())),
        tuple(pd_summary(e) for e in (pd._elts or [])),
        pd_summary(pd.branch) if pd.branch is not None else None,
    )


@pytest.fixture(scope="module")
def clf_gen():
    return compile_generated(gallery.CLF)


@pytest.fixture(scope="module")
def sirius_gen():
    return compile_generated(gallery.SIRIUS)


class TestGeneratedCLF:
    def test_sample(self, clf_gen):
        rep, pd = clf_gen.parse(gallery.CLF_SAMPLE)
        assert pd.nerr == 0
        assert len(rep) == 2
        assert rep[0].client.tag == "ip"

    def test_roundtrip(self, clf_gen):
        rep, _ = clf_gen.parse(gallery.CLF_SAMPLE)
        assert clf_gen.write(rep) == gallery.CLF_SAMPLE.encode()

    def test_matches_interpreter_on_clean_and_dirty_data(self, tmp_path):
        from . import test_oracle as oracle
        key = oracle.data_key(
            "clf-300-77", lambda: clf_workload(300, random.Random(77)))
        oracle.agree(oracle.GALLERY["clf"], key, "records", "serial", tmp_path)

    def test_constraint_inlined(self, clf_gen):
        bad = gallery.CLF_SAMPLE.replace('"GET /tk/p.txt HTTP/1.0"',
                                         '"LINK /tk/p.txt HTTP/1.0"')
        _, pd = clf_gen.parse(bad)
        assert pd.nerr == 1


class TestGeneratedSirius:
    def test_sample(self, sirius_gen):
        rep, pd = sirius_gen.parse(gallery.SIRIUS_SAMPLE)
        assert pd.nerr == 0
        assert rep.es[0].header.ramp.tag == "genRamp"

    def test_roundtrip_and_verify(self, sirius_gen):
        rep, _ = sirius_gen.parse(gallery.SIRIUS_SAMPLE)
        assert sirius_gen.write(rep) == gallery.SIRIUS_SAMPLE.encode()
        assert sirius_gen.verify(rep)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_interpreter_on_workload(self, seed, tmp_path):
        from . import test_oracle as oracle
        key = oracle.data_key(f"sirius-150-{seed}", lambda: sirius_workload(
            150, random.Random(seed)).split(b"\n", 1)[1])
        oracle.agree(oracle.GALLERY["sirius"], key, "records", "serial",
                     tmp_path)

    def test_mask_behaviour_matches(self, sirius, sirius_gen):
        bad = gallery.SIRIUS_SAMPLE.replace(
            "LOC_CRTE|1001476800|LOC_OS_10|1001649601",
            "LOC_CRTE|1001649601|LOC_OS_10|1001476800")
        for mask in (Mask(P_CheckAndSet), Mask(P_Check),
                     Mask(P_Set | MaskFlag.SYN_CHECK)):
            _, pi = sirius.parse(bad, mask=mask)
            _, pg = sirius_gen.parse(bad, mask=mask)
            assert pd_summary(pi) == pd_summary(pg)


class TestGeneratedBinary:
    def test_call_detail(self, call_detail, rng):
        gen = compile_generated(gallery.CALL_DETAIL, ambient="binary",
                                discipline=FixedWidthRecords(24))
        reps = [call_detail.generate("call_t", rng) for _ in range(10)]
        data = call_detail.write(reps, "calls_t")
        got, pd = gen.parse(data, "calls_t")
        assert pd.nerr == 0 and got == reps
        assert gen.write(got, "calls_t") == data

    def test_netflow_parameterised_types(self, netflow, rng):
        gen = compile_generated(gallery.NETFLOW, ambient="binary",
                                discipline=NoRecords())
        pkt = netflow.generate("nf_packet_t", rng)
        data = netflow.write(pkt, "nf_packet_t")
        got, pd = gen.parse(data, "nf_packet_t")
        assert pd.nerr == 0
        assert len(got.flows) == pkt.hdr.count

    def test_netflow_corruption_matches_interpreter(self, netflow, rng):
        gen = compile_generated(gallery.NETFLOW, ambient="binary",
                                discipline=NoRecords())
        pkt = netflow.generate("nf_packet_t", rng)
        data = bytearray(netflow.write(pkt, "nf_packet_t"))
        for corrupt_at in (0, 2, 10, len(data) // 2):
            bad = bytes(data[:corrupt_at]) + b"\xff" + bytes(data[corrupt_at + 1:])
            _, pi = netflow.parse(bad, "nf_packet_t")
            _, pg = gen.parse(bad, "nf_packet_t")
            assert pd_summary(pi) == pd_summary(pg)


class TestGeneratedModuleSurface:
    """Figure 6: the generated library exposes the full tool surface."""

    FUNCTIONS = ["read", "write2io", "verify", "m_init",
                 "fmt2io", "write_xml_2io", "acc_init", "acc_add",
                 "acc_report", "node_new", "node_kthChild"]

    def test_api_surface(self, clf_gen):
        module = clf_gen.module
        for tname in ("entry_t", "request_t", "client_t", "clt_t"):
            for fn in self.FUNCTIONS:
                assert hasattr(module, f"{tname}_{fn}"), f"{tname}_{fn} missing"

    def test_module_runs_on_the_bound_description(self, clf_gen):
        # One bind: the module's functions reach the nodes gen.records runs.
        module = clf_gen.module
        assert type(clf_gen) is CompiledDescription
        assert module._interp() is clf_gen
        assert clf_gen.node("entry_t").fast_fn is not None
        rep, pd = module.entry_t_read(gallery.CLF_SAMPLE)
        assert pd.nerr == 0 and module.entry_t_verify(rep)

    @pytest.mark.parametrize("text,ambient,rtype", [
        (gallery.CLF, "ascii", "entry_t"), (gallery.SIRIUS, "ascii", "entry_t"),
        (gallery.CALL_DETAIL, "binary", "call_t")],
        ids=["clf", "sirius", "calls"])
    def test_module_carries_no_compiled_fragments(self, text, ambient, rtype):
        # The bound description owns the record parsers, writers and
        # batch kernels; the module only reaches them through _interp().
        gen = compile_generated(text, ambient=ambient)
        names = [n for n in vars(gen.module)
                 if n.startswith(("_fp_", "_fw_", "_bt_"))
                 or n in ("FAST", "BATCH")]
        assert names == []
        assert gen.node(rtype).fast_fn is not None

    def test_write2io(self, clf_gen):
        import io
        rep, _ = clf_gen.parse(gallery.CLF_SAMPLE)
        buf = io.BytesIO()
        n = clf_gen.module.clt_t_write2io(buf, rep)
        assert buf.getvalue() == gallery.CLF_SAMPLE.encode()
        assert n == len(gallery.CLF_SAMPLE)

    def test_fmt2io(self, clf_gen):
        import io
        rep, _ = clf_gen.parse(gallery.CLF_SAMPLE)
        buf = io.BytesIO()
        clf_gen.module.entry_t_fmt2io(buf, rep[0], delims=("|",),
                                      date_format="%D:%T")
        assert buf.getvalue().decode() == gallery.CLF_FORMATTED.splitlines()[0]

    def test_acc_functions(self, clf_gen):
        module = clf_gen.module
        acc = module.entry_t_acc_init()
        for rep, pd in clf_gen.records(gallery.CLF_SAMPLE, "entry_t"):
            module.entry_t_acc_add(acc, pd, rep)
        report = module.entry_t_acc_report(acc)
        assert "good: 2 bad: 0" in report

    def test_node_functions(self, clf_gen):
        module = clf_gen.module
        rep, pd = clf_gen.parse(gallery.CLF_SAMPLE)
        node = module.clt_t_node_new(rep, pd)
        first = module.clt_t_node_kthChild(node, 0)
        assert first is not None
        assert first.kth_child_named("response").value() == 200

    def test_enum_constants_exported(self, clf_gen):
        assert clf_gen.module.E_GET == "GET"
        assert int(clf_gen.module.E_POST) == 2

    def test_user_functions_compiled(self, clf_gen):
        module = clf_gen.module
        from repro.core.values import Rec
        v10 = Rec(major=1, minor=0)
        assert module.fn_chkVersion(v10, module.E_GET) is True
        assert module.fn_chkVersion(v10, module.E_LINK) is False

    def test_expansion_ratio(self):
        """Paper Section 4: the 68-line Sirius description expands to
        thousands of generated lines."""
        desc_lines = len([l for l in gallery.SIRIUS.splitlines()
                          if l.strip() and not l.strip().startswith("/-")])
        gen_lines = len(generate_source(gallery.SIRIUS).splitlines())
        assert gen_lines / desc_lines > 10


# ---------------------------------------------------------------------------
# Parameterised types: arguments bind to the declaration's parameters
# ---------------------------------------------------------------------------

PARAM_DESC = "Pstruct p_t(:Puint32 n:) { Pstring_FW(:n:) s; };"


@pytest.mark.parametrize("build", [compile_description, compile_generated],
                         ids=["interp", "gen"])
def test_parameterised_type_round_trips(build):
    desc = build(PARAM_DESC)
    rep, pd = desc.parse(b"abc", "p_t", None, 3)
    assert pd.nerr == 0 and rep.s == "abc"
    assert desc.write(rep, "p_t", 3) == b"abc"
    assert desc.verify(rep, "p_t", 3)
    assert desc.default("p_t", 3).s == ""
    rep, pd = desc.parse(b"abcdef", "p_t", None, 4)
    assert pd.nerr == 0 and rep.s == "abcd"
    for call in (lambda: desc.parse(b"abc", "p_t"),
                 lambda: desc.write(rep, "p_t"),
                 lambda: desc.verify(rep, "p_t", 1, 2)):
        with pytest.raises(PadsError, match="p_t takes 1 parameter"):
            call()


def test_parameterised_type_through_the_module():
    module = compile_generated(PARAM_DESC).module
    rep, pd = module.p_t_read(b"abc", None, 3)
    assert pd.nerr == 0 and rep.s == "abc"
    assert module.p_t_verify(rep, 3)


# ---------------------------------------------------------------------------
# Property: generated == interpreted on random data (clean and corrupted)
# ---------------------------------------------------------------------------

PROP_DESC = """
    Penum tag_t { AA, BB, CC };
    Punion val_t {
        Pchar dash : dash == '-';
        Puint16 num;
        Pstring(:';':) word;
    };
    Parray nums_t {
        Puint8[] : Psep(',') && Pterm(';');
    } Pwhere { Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1]) };
    Precord Pstruct row_t {
        tag_t tag; '|';
        val_t value; ';';
        nums_t nums; ';';
        Popt Pzip zip; '|';
        Puint32 total : total >= 10;
    };
"""


@pytest.fixture(scope="module")
def prop_pair():
    """The ``fastpath=False`` reference and the fast build."""
    return (compile_description(PROP_DESC, fastpath=False),
            compile_generated(PROP_DESC))


@settings(max_examples=120, deadline=None)
@given(st.binary(min_size=0, max_size=60).filter(lambda b: b"\n" not in b))
def test_generated_equals_interpreted_on_random_bytes(prop_pair, payload):
    interp, gen = prop_pair
    data = payload + b"\n"
    ri, pi = interp.parse(data, "row_t")
    rg, pg = gen.parse(data, "row_t")
    assert pd_summary(pi) == pd_summary(pg)
    assert ri == rg


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_generated_equals_interpreted_on_mutated_rows(prop_pair, seed, data):
    interp, gen = prop_pair
    rng = random.Random(seed)
    rep = interp.generate("row_t", rng)
    raw = bytearray(interp.write(rep, "row_t"))
    # Mutate a couple of bytes (avoiding the record terminator).
    for _ in range(data.draw(st.integers(0, 3))):
        if len(raw) > 1:
            idx = data.draw(st.integers(0, len(raw) - 2))
            raw[idx] = data.draw(st.integers(33, 126))
    blob = bytes(raw)
    ri, pi = interp.parse(blob, "row_t")
    rg, pg = gen.parse(blob, "row_t")
    assert pd_summary(pi) == pd_summary(pg)
    assert ri == rg
