"""Tests for the Regulus description: the multiple-missing-value story.

Paper Section 5.2: "The Regulus project uses PADS accumulator programs to
find all the different representations of 'data not available', typical
examples of which include 0, a blank, NONE, and Nothing."
"""

import random

import pytest

from repro import gallery
from repro.tools.accum import accumulate_records
from repro.tools.query import query_records

SAMPLE = (
    "1005022800|nyc-core-1|ge-0/0/0|07|42.5|NONE|12\n"
    "1005022860|nyc-core-1|ge-0/0/1|07||Nothing|0\n"
    "1005022920|chi-edge-3|xe-1/2/0|08|0|17.25|3\n"
)


@pytest.fixture(scope="module")
def regulus():
    return gallery.load_regulus()


class TestParsing:
    def test_sample_parses(self, regulus):
        rep, pd = regulus.parse(SAMPLE)
        assert pd.nerr == 0
        assert len(rep) == 3

    def test_all_missing_representations(self, regulus):
        rep, _ = regulus.parse(SAMPLE)
        r0, r1, r2 = rep
        assert r0.in_util.tag == "value" and r0.in_util.value == 42.5
        assert r0.out_util.tag == "tagged" and r0.out_util.value == "NONE"
        assert r1.in_util.tag == "blank"
        assert r1.out_util.tag == "tagged" and r1.out_util.value == "Nothing"
        assert r2.in_util.tag == "value" and r2.in_util.value == 0.0

    def test_roundtrip(self, regulus):
        rep, _ = regulus.parse(SAMPLE)
        assert regulus.write(rep) == SAMPLE.encode()

    def test_hour_constraint(self, regulus):
        bad = SAMPLE.replace("|07|42.5", "|97|42.5")
        _, pd = regulus.parse(bad)
        assert pd.nerr == 1


class TestAccumulatorDiscovery:
    def test_missing_value_census(self, regulus):
        """The accumulator's union-tag distribution *is* the discovery: it
        lists every representation of 'data not available' in the data."""
        acc, _, n = accumulate_records(regulus, SAMPLE, "util_t")
        assert n == 3
        in_tags = acc.field("in_util").self_acc.values
        assert in_tags == {"value": 2, "blank": 1}
        # Drill into the tagged branch for the literal spellings.
        out_misses = acc.field("out_util.tagged").self_acc.values
        assert out_misses == {"NONE": 1, "Nothing": 1}

    def test_zero_is_visible_in_value_distribution(self, regulus):
        acc, _, _ = accumulate_records(regulus, SAMPLE, "util_t")
        values = acc.field("in_util.value").self_acc.values
        assert 0.0 in values  # the suspicious 0 representation


class TestStreamingQuery:
    def test_query_records_streams(self, regulus):
        drops = list(query_records(regulus, SAMPLE, "util_t",
                                   "$record/drops"))
        assert [n.value() for n in drops] == [12, 0, 3]

    def test_query_records_filters(self, regulus):
        routers = list(query_records(
            regulus, SAMPLE, "util_t",
            '$record[in_util/blank or out_util/tagged]/router'))
        assert [n.value() for n in routers] == ["nyc-core-1", "nyc-core-1"]

    def test_bounded_memory_over_many_records(self, regulus):
        rng = random.Random(0)
        lines = []
        for i in range(2000):
            util = rng.choice(["", "NONE", "Nothing", f"{rng.uniform(0,100):.1f}"])
            lines.append(f"{1005022800+i}|r{i%7}|if{i%3}|{i%24:02d}|{util}|0|{i%5}")
        data = ("\n".join(lines) + "\n").encode()
        hits = sum(1 for _ in query_records(
            regulus, data, "util_t", "$record[drops > 2]"))
        expected = sum(1 for i in range(2000) if i % 5 > 2)
        assert hits == expected


class TestGenerated:
    def test_codegen_equivalence(self, regulus):
        from repro.codegen import compile_generated
        from .test_codegen import pd_summary
        gen = compile_generated(gallery.REGULUS)
        assert gen.node("util_t").fast_fn is not None
        ri, pi = regulus.parse(SAMPLE)
        rg, pg = gen.parse(SAMPLE)
        assert pd_summary(pi) == pd_summary(pg)
        assert ri == rg

    def test_generated_random_roundtrip(self, regulus, rng):
        for _ in range(25):
            rep = regulus.generate("util_t", rng)
            data = regulus.write(rep, "util_t")
            back, pd = regulus.parse(data, "util_t")
            assert pd.nerr == 0
            assert back == rep
