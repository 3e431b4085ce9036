"""Tests for accumulators (paper Section 5.2)."""

import hashlib
import pickle
import random

import pytest

from repro import compile_description, gallery
from repro.faults import GALLERY_TARGETS
from repro.tools.accum import (
    Accumulator,
    ScalarAccum,
    accumulate_records,
    record_accumulator,
)
from repro.tools.datagen import (
    ErrorInjector,
    clf_workload,
    garble_byte,
    generate_source,
    sirius_workload,
)


class TestScalarAccum:
    def test_good_bad_counts(self):
        acc = ScalarAccum("int")
        from repro.core.errors import ErrCode, Loc, Pd
        acc.add(5, None)
        acc.add(7, None)
        bad = Pd()
        bad.record_error(ErrCode.INVALID_INT, Loc())
        acc.add(None, bad)
        assert acc.good == 2 and acc.bad == 1
        assert acc.total_count == 3
        assert acc.pcnt_bad() == pytest.approx(100.0 / 3)

    def test_numeric_stats(self):
        acc = ScalarAccum("int")
        for v in (35, 100, 248591):
            acc.add(v, None)
        assert acc.min == 35 and acc.max == 248591
        assert acc.total == 35 + 100 + 248591

    def test_top_k(self):
        acc = ScalarAccum("int")
        for v in [1] * 5 + [2] * 3 + [3]:
            acc.add(v, None)
        assert acc.top(2) == [(1, 5), (2, 3)]

    def test_tracking_limit(self):
        acc = ScalarAccum("int", tracked=10)
        for v in range(50):
            acc.add(v, None)
        assert len(acc.values) == 10
        assert acc.tracked_count == 10  # only first 10 distinct tracked

    def test_tracked_percentage_counts_repeats(self):
        acc = ScalarAccum("int", tracked=1)
        for v in (7, 7, 8, 7):
            acc.add(v, None)
        # 3 of 4 adds hit the tracked value 7.
        assert acc.tracked_count == 3

    def test_error_code_histogram(self):
        from repro.core.errors import ErrCode, Loc, Pd
        acc = ScalarAccum("int")
        for code in (ErrCode.INVALID_INT, ErrCode.INVALID_INT, ErrCode.RANGE_ERR):
            pd = Pd()
            pd.record_error(code, Loc())
            acc.add(None, pd)
        assert acc.err_codes == {"INVALID_INT": 2, "RANGE_ERR": 1}

    def test_report_layout_matches_paper(self):
        acc = ScalarAccum("int")
        for v in (30, 941):
            acc.add(v, None)
        report = acc.report("<top>.length", "uint32")
        lines = report.splitlines()
        assert lines[0] == "<top>.length : uint32"
        assert set(lines[1]) == {"+"}
        assert lines[2].startswith("good: 2 bad: 0 pcnt-bad:")
        assert "min: 30 max: 941 avg: 485.500" in report
        assert "SUMMING count:" in report


class TestStructuredAccum:
    def test_struct_children(self, clf):
        acc, _, n = accumulate_records(clf, gallery.CLF_SAMPLE, "entry_t")
        assert n == 2
        assert acc.field("length").self_acc.good == 2
        assert acc.field("response").self_acc.good == 2

    def test_union_tag_distribution(self, clf):
        acc, _, _ = accumulate_records(clf, gallery.CLF_SAMPLE, "entry_t")
        client = acc.field("client")
        assert client.self_acc.values == {"ip": 1, "host": 1}

    def test_opt_presence(self, sirius):
        body = gallery.SIRIUS_SAMPLE.split("\n", 1)[1]
        acc, _, _ = accumulate_records(sirius, body, "entry_t")
        zips = acc.field("header.zip_code")
        assert zips.self_acc.values == {"SOME": 1, "NONE": 1}

    def test_array_lengths_and_elements(self, sirius):
        body = gallery.SIRIUS_SAMPLE.split("\n", 1)[1]
        acc, _, _ = accumulate_records(sirius, body, "entry_t")
        events = acc.field("events")
        assert events.lengths.values == {1: 1, 2: 1}
        states = acc.field("events[].state")
        assert states.self_acc.good == 3

    def test_header_type(self, sirius):
        acc, header_acc, n = accumulate_records(
            sirius, gallery.SIRIUS_SAMPLE, "entry_t",
            header_type="summary_header_t")
        assert n == 2
        assert header_acc.field("tstamp").self_acc.values == {1005022800: 1}

    def test_full_report_covers_nested_fields(self, clf):
        acc, _, _ = accumulate_records(clf, gallery.CLF_SAMPLE, "entry_t")
        report = acc.full_report()
        for path in ("<top>.client", "<top>.request.meth", "<top>.length"):
            assert path in report


class TestPaperDiscoveries:
    def test_dash_length_discovery(self, clf, rng):
        """Section 5.2's punchline: ~6.666% of CLF length fields hold '-'."""
        data = clf_workload(3000, rng, dash_rate=0.06666)
        acc, _, n = accumulate_records(clf, data, "entry_t")
        length = acc.field("length")
        assert n == 3000
        assert 4.0 < length.self_acc.pcnt_bad() < 10.0
        assert length.self_acc.err_codes.get("INVALID_INT", 0) == length.self_acc.bad

    def test_missing_value_representations_surface(self, sirius, rng):
        """Section 5.2: accumulators revealed the two representations of
        missing phone numbers (NONE and 0)."""
        from repro.tools.datagen import sirius_workload
        data = sirius_workload(500, rng, syntax_errors=0, sort_violations=0)
        body = data.split(b"\n", 1)[1]
        acc, _, _ = accumulate_records(sirius, body, "entry_t")
        billing = acc.field("header.billing_tn")
        assert "NONE" in billing.self_acc.values
        numbers = billing.children["some"].self_acc.values
        assert 0 in numbers  # the zero representation shows up among values


# -- golden reports ------------------------------------------------------------
#
# Every execution mode shares one Accumulator class, so the differential
# sweeps cannot notice a wrong accumulator; these pinned digests can.
# Each gallery description with a record type is profiled over fixed-seed
# datagen data with injected errors, and the report text is hashed.

def _golden_clf(desc, rng):
    lines = clf_workload(400, rng).split(b"\n")
    injector = ErrorInjector(0.08)
    return b"\n".join(injector.maybe_corrupt(line, rng) for line in lines)


def _golden_sirius(desc, rng):
    return sirius_workload(120, rng, syntax_errors=6,
                           sort_violations=2).split(b"\n", 1)[1]


def _golden_calldetail(desc, rng):
    # Width-preserving corruption: a misaligned fixed-width record would
    # turn every later record into an error too.
    return generate_source(desc, "call_t", 300, rng,
                           ErrorInjector(0.3, [garble_byte]))


def _golden_netflow(desc, rng):
    # One source-level record whose elements are packets; a bad version
    # field fails the packet's constraint without shifting later ones.
    def bad_version(packet, rng):
        return b"\xff" + packet[1:]
    return generate_source(desc, "nf_packet_t", 40, rng,
                           ErrorInjector(0.15, [bad_version]))


#: name -> (record type, data builder, digests of the plain, summaries
#: and pickle-round-trip + 3-way merge reports).
GOLDEN = {
    "clf": ("entry_t", _golden_clf, (
        "c8107ece657acec3b0b100a8a6b4b259517c6700af80ae76418e3b0c8ab805b1",
        "1dde7c4fda366c7f6b2c18960c60d63654cee6de3c9e7f44de781c7f03d72987",
        "aac412dcb5f3fd084cfe942c86526cbb8e2cf764938b991951627e2b33d47a96")),
    "sirius": ("entry_t", _golden_sirius, (
        "7f50e03f3fd3c0d6d3671be717c4c0b12223f28ff667b53918542176baff4199",
        "4c35e46ea9931bfd4e1edf10bdaf81b28ce7ab4aaddd92b14448ba03cfb1cdd4",
        "51220850ecc38756c185e83472c7506ff173e17e19c4c0432f1dd18d57e075a0")),
    "calldetail": ("call_t", _golden_calldetail, (
        "bb3f695500bc367d2ee0b177e46ccaf627212e1e03203d96d6b9bd2bc7a8f1b7",
        "1cab6e2087fa99fdc0e1476d7e33ee46cf87c54cca3da5a6117a2858ea004dd6",
        "651a038ec5b444d408d368f954c5f967bf0d5b67969cba37463c1adda77b60ca")),
    "netflow": ("nf_stream_t", _golden_netflow, (
        "719fcccf9c593a47f62d504aa9d7a60e483dd8f0257a703f2b0deee4d34ac168",
        "2ea1d7502b9ad1c3c9f4794fbc35368e73518117a6a0a25b713923e55bebd941",
        "f5bf68f68c12dea8c076c660efc2ea354c4a74418aa4e1fcc7d2495e6de7b9bf")),
}


def _golden_input(name):
    _, text, _, ambient, discipline = \
        {t[0]: t for t in GALLERY_TARGETS}[name]
    desc = compile_description(text, ambient=ambient, discipline=discipline)
    rtype, build, _ = GOLDEN[name]
    return desc, build(desc, random.Random(20050612)), rtype


def _digest(acc):
    """sha256 of ``full_report(10)`` plus every attached summary."""
    parts = [acc.full_report(10)]

    def visit(node):
        for scalar in (node.self_acc, node.lengths):
            summ = getattr(scalar, "summaries", None)
            if summ is not None:
                parts.append(summ.report())
        for child in ([node.elts] if node.elts is not None else []) \
                + list(node.children.values()):
            visit(child)

    visit(acc)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _fold(acc, pairs):
    for rep, pd in pairs:
        acc.add(rep, pd)
    return acc


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenReports:
    def test_plain(self, name):
        desc, data, rtype = _golden_input(name)
        acc = _fold(Accumulator(desc.node(rtype), "<top>"),
                    desc.records(data, rtype))
        assert _digest(acc) == GOLDEN[name][2][0]

    def test_summaries(self, name):
        desc, data, rtype = _golden_input(name)
        acc = _fold(record_accumulator(desc, rtype, summaries=True),
                    desc.records(data, rtype))
        assert _digest(acc) == GOLDEN[name][2][1]

    def test_pickled_three_way_merge(self, name):
        """The durable and parallel path: parts accumulated apart,
        shipped as pickles, merged in order into a fresh tree."""
        desc, data, rtype = _golden_input(name)
        pairs = list(desc.records(data, rtype))
        cut = [0, len(pairs) // 3, 2 * len(pairs) // 3, len(pairs)]
        merged = record_accumulator(desc, rtype, summaries=True)
        for lo, hi in zip(cut, cut[1:]):
            part = _fold(record_accumulator(desc, rtype, summaries=True),
                         pairs[lo:hi])
            merged.merge(pickle.loads(pickle.dumps(part)))
        assert _digest(merged) == GOLDEN[name][2][2]

    def test_generated_acc_add(self, name):
        desc, data, rtype = _golden_input(name)
        gen = compile_description(desc.source_text, ambient=desc.ambient,
                                  discipline=desc.discipline,
                                  backend="source")
        module = gen.module
        acc = getattr(module, f"{rtype}_acc_init")()
        for rep, pd in gen.records(data, rtype):
            getattr(module, f"{rtype}_acc_add")(acc, pd, rep)
        assert _digest(acc) == GOLDEN[name][2][0]
