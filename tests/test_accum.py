"""Tests for accumulators (paper Section 5.2)."""

import functools
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


# -- the compiled adder ----------------------------------------------------------
#
# ``Accumulator.add`` sends clean records through one generated function
# per tree shape; ``walk`` is the tree walk it unrolls and the reference
# every test below compares against.

ENGINES = ("interp", "gen")


@functools.lru_cache(maxsize=None)
def _target(name, engine):
    """``name``'s record pairs, from its golden data (or error-injected
    datagen data) followed by a clean source, on ``engine``."""
    _, text, unit, ambient, discipline = \
        {t[0]: t for t in GALLERY_TARGETS}[name]
    rng = random.Random(7)
    if name in GOLDEN:
        desc, bad, rtype = _golden_input(name)
    else:
        desc = compile_description(text, ambient=ambient,
                                   discipline=discipline)
        rtype = unit
        bad = generate_source(desc, rtype, 80, rng,
                              ErrorInjector(0.25, [garble_byte]))
    # ``unit`` differs from ``rtype`` for netflow: packets, which the
    # golden record type reads as one source-level array.
    clean = generate_source(desc, unit, 20, rng)
    if engine == "gen":
        desc = compile_description(text, ambient=ambient,
                                   discipline=discipline, backend="source")
    return desc, rtype, tuple(pair for data in (bad, clean)
                              for pair in desc.records(data, rtype))


def _walk(acc, pairs):
    for rep, pd in pairs:
        acc.walk(rep, pd)
    return acc


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", [t[0] for t in GALLERY_TARGETS])
class TestCompiledAdder:
    def test_matches_tree_walk(self, name, engine):
        desc, rtype, pairs = _target(name, engine)
        assert any(pd.nerr for _, pd in pairs)
        for summaries in (False, True):
            fast = _fold(record_accumulator(desc, rtype, summaries=summaries),
                         pairs)
            ref = _walk(record_accumulator(desc, rtype, summaries=summaries),
                        pairs)
            assert fast._adder is not None
            assert _digest(fast) == _digest(ref)

    def test_small_value_table(self, name, engine):
        """First-seen admission past ``tracked_limit``."""
        desc, rtype, pairs = _target(name, engine)
        fast = _fold(record_accumulator(desc, rtype, tracked=3), pairs)
        ref = _walk(record_accumulator(desc, rtype, tracked=3), pairs)
        assert _digest(fast) == _digest(ref)

    def test_pd_none_adds(self, name, engine):
        """With no descriptor every record, error reps included (their
        default and partial values), takes the compiled adder."""
        desc, rtype, pairs = _target(name, engine)
        bare = [(rep, None) for rep, _ in pairs]
        fast = _fold(record_accumulator(desc, rtype, summaries=True), bare)
        ref = _walk(record_accumulator(desc, rtype, summaries=True), bare)
        assert _digest(fast) == _digest(ref)

    def test_summaries_attached_after_adds(self, name, engine):
        from repro.tools.summaries import attach_summaries
        desc, rtype, pairs = _target(name, engine)
        half = len(pairs) // 2
        fast = _fold(record_accumulator(desc, rtype), pairs[:half])
        ref = _walk(record_accumulator(desc, rtype), pairs[:half])
        attach_summaries(fast)
        attach_summaries(ref)
        assert _digest(_fold(fast, pairs[half:])) == \
            _digest(_walk(ref, pairs[half:]))

    def test_pickled_three_way_merge(self, name, engine):
        desc, rtype, pairs = _target(name, engine)
        cut = [0, len(pairs) // 3, 2 * len(pairs) // 3, len(pairs)]
        merged = {}
        for how, fold in (("fast", _fold), ("ref", _walk)):
            merged[how] = record_accumulator(desc, rtype, summaries=True)
            for lo, hi in zip(cut, cut[1:]):
                part = fold(record_accumulator(desc, rtype, summaries=True),
                            pairs[lo:hi])
                merged[how].merge(pickle.loads(pickle.dumps(part)))
        assert _digest(merged["fast"]) == _digest(merged["ref"])

    def test_error_records_take_only_the_walk(self, name, engine):
        desc, rtype, pairs = _target(name, engine)
        acc = record_accumulator(desc, rtype)
        compiled = []
        acc._adder = compiled.append
        _fold(acc, pairs)
        assert compiled == [rep for rep, pd in pairs if not pd.nerr]


class TestAdderTemplate:
    def test_compiled_once_per_shape(self, clf):
        from repro.execute import Fold
        from repro.tools.adder import _adder_template
        pairs = list(clf.records(gallery.CLF_SAMPLE, "entry_t"))
        _fold(record_accumulator(clf, "entry_t"), pairs)
        compiled = _adder_template.cache_info().misses
        again = _fold(record_accumulator(clf, "entry_t"), pairs)
        acc, _tally = Fold("accum", "entry_t").zero(clf)
        _fold(acc, pairs)
        # A separately compiled description of the same text shares it too.
        _fold(record_accumulator(compile_description(gallery.CLF),
                                 "entry_t"), pairs)
        assert _adder_template.cache_info().misses == compiled
        assert again._adder is not acc._adder
        assert again.full_report() == acc.full_report()

    def test_unpickled_copy_has_no_adder(self, clf):
        pairs = list(clf.records(gallery.CLF_SAMPLE, "entry_t"))
        acc = _fold(record_accumulator(clf, "entry_t", summaries=True), pairs)
        copy = pickle.loads(pickle.dumps(acc))
        assert copy._adder is None and not hasattr(copy, "walk")
        merged = record_accumulator(clf, "entry_t", summaries=True)
        merged.merge(copy)
        assert _digest(merged) == _digest(acc)

    def test_odd_reps_match_the_walk(self, clf):
        """Values outside each position's inlined type take
        ``ScalarAccum.add`` or the node's walk, as the tree walk does."""
        from repro.core.values import DateVal, Rec, UnionVal
        (rep, _), _ = list(clf.records(gallery.CLF_SAMPLE, "entry_t"))
        fields = dict(rep.items())
        odd = [dict(fields, length=True), dict(fields, length=2.5),
               dict(fields, length=[1]), dict(fields, response=None),
               dict(fields, date=1000), dict(fields, date=DateVal(7)),
               dict(fields, client=None), dict(fields, client=5),
               dict(fields, client=UnionVal(7, "x")),
               dict(fields, client=UnionVal("nope", "x")),
               dict(fields, remoteID=UnionVal("id", ["unhashable"])),
               dict(fields, request=Rec(meth="GET", req_uri="/")),
               {k: v for k, v in fields.items() if k != "auth"}]
        reps = [rep] + [Rec(**f) for f in odd] + [None, 3]
        fast = record_accumulator(clf, "entry_t", summaries=True)
        ref = record_accumulator(clf, "entry_t", summaries=True)
        for value in reps:
            fast.add(value)
            ref.walk(value, None)
        assert _digest(fast) == _digest(ref)

    def test_deep_tree_falls_back_to_the_walk(self):
        """Subtrees nested past the inline depth are handed to their
        node's walk, so any description compiles."""
        depth = 110  # past CPython's 100 levels of indentation
        decls = ["Pstruct s0_t { Puint8 a; };"]
        for i in range(1, depth):
            decls.append(f"Pstruct s{i}_t {{ s{i - 1}_t f; ':'; Puint8 n; }};")
        decls.append(f"Precord Pstruct rec_t {{ s{depth - 1}_t top; }};")
        desc = compile_description("\n".join(decls))
        data = b"".join(b"%d" % i + b":%d" % (i % 3) * (depth - 1) + b"\n"
                        for i in range(6))
        pairs = list(desc.records(data, "rec_t"))
        assert pairs and not any(pd.nerr for _, pd in pairs)
        fast = _fold(record_accumulator(desc, "rec_t"), pairs)
        assert _digest(fast) == _digest(_walk(record_accumulator(
            desc, "rec_t"), pairs))
        assert fast.field("top" + ".f" * (depth - 1) + ".a").self_acc.good == 6


def test_typedef_of_a_struct_is_profiled_by_field():
    """A ``Ptypedef`` over a compound type descends into it like the
    type it names (it was one opaque, untracked scalar)."""
    desc = compile_description(
        "Pstruct pair_t { Puint8 a; ','; Puint8 b; };\n"
        "Ptypedef pair_t tpair_t;\n"
        "Precord Pstruct rec_t { tpair_t p; };")
    pairs = list(desc.records(b"1,2\n3,4\n1,9\n", "rec_t"))
    for fold in (_fold, _walk):
        acc = fold(record_accumulator(desc, "rec_t"), pairs)
        assert acc.field("p.a").self_acc.values == {1: 2, 3: 1}
        assert acc.field("p.b").self_acc.max == 9
        assert acc.field("p").self_acc.values == {None: 3}
