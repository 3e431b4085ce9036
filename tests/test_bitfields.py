"""Tests for Pbitfields (the paper's Section 9 bit-field construct)."""

import random

import pytest

from repro import ErrCode, Mask, P_Set, compile_description, gallery
from repro.codegen import compile_generated, generate_source
from repro.core.io import NoRecords
from repro.core.masks import MaskFlag
from repro.dsl.parser import parse_description
from repro.dsl.pprint import pp_description
from repro.dsl.typecheck import TypeErrorReport, check_description

from .test_codegen import pd_summary

IPV4_HEADER = """
    Pbitfields ip_hdr_t {
        4 : version : version == 4;
        4 : ihl : ihl >= 5;
        6 : dscp;
        2 : ecn;
        16 : total_length;
    };
    Pstruct packet_t {
        ip_hdr_t hdr;
        Pb_uint16_be ident;
    };
"""


def make(nibbles):
    """Build the 4 header bytes from (version, ihl, dscp, ecn, length)."""
    version, ihl, dscp, ecn, length = nibbles
    word = (version << 28) | (ihl << 24) | (dscp << 18) | (ecn << 16) | length
    return word.to_bytes(4, "big")


class TestParsing:
    @pytest.fixture(scope="class")
    def d(self):
        return compile_description(IPV4_HEADER, ambient="binary",
                                   discipline=NoRecords())

    def test_field_extraction(self, d):
        data = make((4, 5, 10, 1, 1500)) + (7).to_bytes(2, "big")
        rep, pd = d.parse(data, "packet_t")
        assert pd.nerr == 0
        assert rep.hdr.version == 4
        assert rep.hdr.ihl == 5
        assert rep.hdr.dscp == 10
        assert rep.hdr.ecn == 1
        assert rep.hdr.total_length == 1500
        assert rep.ident == 7

    def test_raw_word_kept(self, d):
        data = make((4, 5, 0, 0, 20)) + b"\0\0"
        rep, _ = d.parse(data, "packet_t")
        assert rep.hdr._raw == int.from_bytes(data[:4], "big")

    def test_constraints(self, d):
        data = make((6, 5, 0, 0, 20)) + b"\0\0"  # version 6 violates == 4
        _, pd = d.parse(data, "packet_t")
        assert pd.nerr == 1
        assert pd.fields["hdr"].err_code == ErrCode.USER_CONSTRAINT_VIOLATION

    def test_constraints_masked_off(self, d):
        data = make((6, 5, 0, 0, 20)) + b"\0\0"
        _, pd = d.parse(data, "packet_t", Mask(P_Set | MaskFlag.SYN_CHECK))
        assert pd.nerr == 0

    def test_write_roundtrip(self, d):
        data = make((4, 7, 3, 2, 9999)) + (55).to_bytes(2, "big")
        rep, _ = d.parse(data, "packet_t")
        assert d.write(rep, "packet_t") == data

    def test_truncated_input(self, d):
        _, pd = d.parse(b"\x45", "packet_t")
        assert pd.nerr > 0

    def test_generation(self, d):
        rng = random.Random(0)
        for _ in range(20):
            rep = d.generate("ip_hdr_t", rng)
            assert rep.version == 4 and rep.ihl >= 5
            data = d.write(rep, "ip_hdr_t")
            back, pd = d.parse(data, "ip_hdr_t")
            assert pd.nerr == 0 and back == rep

    def test_verify(self, d):
        rep, _ = d.parse(make((4, 5, 0, 0, 20)) + b"\0\0", "packet_t")
        assert d.verify(rep, "packet_t")


class TestChecking:
    def test_widths_must_fill_bytes(self):
        with pytest.raises(TypeErrorReport, match="whole number of bytes"):
            check_description(parse_description(
                "Pbitfields b { 3 : x; 4 : y; };"))

    def test_width_positive(self):
        with pytest.raises(TypeErrorReport, match="positive"):
            check_description(parse_description(
                "Pbitfields b { 0 : x; 8 : y; };"))

    def test_duplicate_names(self):
        with pytest.raises(TypeErrorReport, match="duplicate"):
            check_description(parse_description(
                "Pbitfields b { 4 : x; 4 : x; };"))

    def test_constraint_scoping(self):
        check_description(parse_description(
            "Pbitfields b { 4 : x; 4 : y : y >= x; };"))
        with pytest.raises(TypeErrorReport, match="unbound"):
            check_description(parse_description(
                "Pbitfields b { 4 : x : x < zz; 4 : y; };"))


class TestCodegenAndTools:
    def test_generated_module_matches_interpreter(self):
        desc_text = """
            Pbitfields flags_t {
                1 : urgent;
                1 : ack;
                6 : window;
            };
            Precord Pstruct row_t {
                flags_t flags;
                Pb_uint8 extra;
            };
        """
        from repro import FixedWidthRecords
        interp = compile_description(desc_text, ambient="binary",
                                     discipline=FixedWidthRecords(2))
        gen = compile_generated(desc_text, ambient="binary",
                                discipline=FixedWidthRecords(2))
        # bitfields are fast-path eligible
        assert gen.node("row_t").fast_fn is not None
        for word in range(0, 256, 7):
            data = bytes([word, word ^ 0xFF])
            ri, pi = interp.parse(data, "row_t")
            rg, pg = gen.parse(data, "row_t")
            assert pd_summary(pi) == pd_summary(pg)
            assert ri == rg
            assert ri.flags.window == word & 0x3F

    def test_pprint_roundtrip(self):
        text = """
            Pbitfields b { 4 : x : x == 4; 12 : y; };
        """
        printed = pp_description(parse_description(text))
        assert "Pbitfields b {" in printed
        assert pp_description(parse_description(printed)) == printed

    def test_accumulator_over_bitfields(self):
        desc = compile_description(IPV4_HEADER, ambient="binary",
                                   discipline=NoRecords())
        from repro.tools.accum import Accumulator
        acc = Accumulator(desc.node("ip_hdr_t"))
        rng = random.Random(1)
        for _ in range(50):
            rep = desc.generate("ip_hdr_t", rng)
            acc.add(rep, None)
        # The raw word is a data field and is profiled.
        assert acc.field("_raw").self_acc.good == 50
