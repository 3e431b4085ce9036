"""Tests for accumulators (paper Section 5.2)."""

import functools
import hashlib
import pickle
import random

import pytest

from repro import compile_description, gallery
from repro.codegen import compile_generated
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
        "752fa30ee382f1638f58a0793dc27801add8afda5dcd4fe50ffa10f1f268fd9e",
        "819512a580ec801ac9c5b1c59b1c3818da4c2682d54fb8c65fa0d96ebdbfa899",
        "6abc3e62d2a2c9e38104d74ef1126a47f0a76a2d975c1e0d550203e8c8cdbc10")),
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

    def test_execute_run(self, name):
        """The accum fold of ``execute.run``, which counts clean records
        inside the record function where it can."""
        from repro.execute import run
        desc, data, rtype = _golden_input(name)
        for summaries, digest in ((False, 0), (True, 1)):
            res = run(desc, data, "accum", rtype, summaries=summaries)
            assert _digest(res.acc) == GOLDEN[name][2][digest]

    def test_generated_acc_add(self, name):
        desc, data, rtype = _golden_input(name)
        gen = compile_generated(desc.source_text, ambient=desc.ambient,
                                discipline=desc.discipline)
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
def _target(name):
    """``name``'s record pairs, from its golden data (or error-injected
    datagen data) followed by a clean source.  Both ``engine`` ids run
    the one description class, so they share one build and its pairs."""
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
        desc, rtype, pairs = _target(name)
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
        desc, rtype, pairs = _target(name)
        fast = _fold(record_accumulator(desc, rtype, tracked=3), pairs)
        ref = _walk(record_accumulator(desc, rtype, tracked=3), pairs)
        assert _digest(fast) == _digest(ref)

    def test_pd_none_adds(self, name, engine):
        """With no descriptor every record, error reps included (their
        default and partial values), takes the compiled adder."""
        desc, rtype, pairs = _target(name)
        bare = [(rep, None) for rep, _ in pairs]
        fast = _fold(record_accumulator(desc, rtype, summaries=True), bare)
        ref = _walk(record_accumulator(desc, rtype, summaries=True), bare)
        assert _digest(fast) == _digest(ref)

    def test_summaries_attached_after_adds(self, name, engine):
        from repro.tools.summaries import attach_summaries
        desc, rtype, pairs = _target(name)
        half = len(pairs) // 2
        fast = _fold(record_accumulator(desc, rtype), pairs[:half])
        ref = _walk(record_accumulator(desc, rtype), pairs[:half])
        attach_summaries(fast)
        attach_summaries(ref)
        assert _digest(_fold(fast, pairs[half:])) == \
            _digest(_walk(ref, pairs[half:]))

    def test_pickled_three_way_merge(self, name, engine):
        desc, rtype, pairs = _target(name)
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
        desc, rtype, pairs = _target(name)
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


# -- the counting function -------------------------------------------------------
#
# The accum fold's record step counts a clean record inside the record
# function, compiled with the accumulator sink; misses, error records and
# grid-kernel reps take the rep and the compiled adder.

#: A clean CLF record, then one that converts every member and then fails
#: ``chkVersion`` (LINK needs HTTP/1.1).
_CLEAN = (b'207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] '
          b'"GET /tk/p.txt HTTP/1.0" 200 30\n')
_LATE = (b'tj62.aol.com - - [16/Oct/1997:14:32:22 -0700] '
         b'"LINK /x HTTP/1.0" 200 941\n')


def _reference_report(data: bytes, tracked: int = 1000) -> str:
    from repro.execute import run
    plain = compile_description(gallery.CLF, fastpath=False)
    return run(plain, data, "accum", "entry_t",
               tracked=tracked).acc.full_report()


def _nodes(acc):
    yield acc
    for child in ([acc.elts] if acc.elts is not None else []) + \
            list(acc.children.values()):
        yield from _nodes(child)


class TestCountingFunction:
    def test_clean_record_builds_no_rep(self, clf, monkeypatch):
        """A clean CLF record through the fold calls neither the adder
        nor any walk, and constructs no ``UnionVal``."""
        from repro.execute import Fold
        from repro.tools.adder import counter_template

        def boom(*args):
            raise AssertionError("called")

        data = _CLEAN * 3
        want = _reference_report(data)
        _shape, make = counter_template(clf, "entry_t")
        monkeypatch.setitem(make.__globals__, "UnionVal", boom)
        monkeypatch.setattr(Accumulator, "add", boom)
        fold = Fold("accum", "entry_t")
        state = fold.zero(clf)
        for node in _nodes(state[0]):
            node.walk = boom
        acc, tally = fold.over(clf, clf.open(data), state)
        assert tally.records == 3 and tally.bad_records == 0
        assert acc._counter is not None
        monkeypatch.undo()
        assert acc.full_report() == want

    def test_late_rejection_is_counted_once(self, clf):
        """A record the counting function refuses after converting every
        member counts nothing there, and once through the walk (the
        general parse reports the failed ``chkVersion``)."""
        from repro.execute import run
        from repro.tools.adder import bind_counter
        acc = record_accumulator(clf, "entry_t")
        count = bind_counter(clf, "entry_t", acc)
        assert count(_LATE.rstrip(b"\n"), True) is None
        assert all(n.self_acc.total_count == 0 for n in _nodes(acc))
        data = _CLEAN + _LATE + _CLEAN
        res = run(clf, data, "accum", "entry_t")
        assert res.reason.endswith("accum: counted in the record function")
        assert (res.tally.records, res.tally.bad_records) == (3, 1)
        assert (res.acc.self_acc.good, res.acc.self_acc.bad) == (2, 1)
        assert res.acc.field("request.meth").self_acc.total_count == 3
        assert res.acc.full_report() == _reference_report(data)

    def test_pickled_mid_run_carries_no_function(self, clf):
        """A parallel part or a durable checkpoint pickles the
        accumulator mid-run; the bound function stays behind."""
        from repro.execute import Fold
        fold = Fold("accum", "entry_t")
        state = fold.zero(clf)
        data = _CLEAN + _LATE + _CLEAN * 2
        src = clf.open(data)
        items = fold.items(clf, src, state)
        fold.feed(state, (next(items), next(items)))
        acc = state[0]
        assert acc._counter is not None
        assert "_counter" not in acc.__getstate__()
        copy = pickle.loads(pickle.dumps(acc))
        assert copy._counter is None and copy._adder is None
        fold.feed(state, items)
        merged = record_accumulator(clf, "entry_t")
        merged.merge(pickle.loads(pickle.dumps(acc)))
        assert merged.full_report() == _reference_report(data)

    def test_small_value_table_keeps_admission_order(self, clf, rng):
        """First-seen admission past ``tracked`` across counted clean
        records and walked error records."""
        from repro.execute import run
        data = clf_workload(300, rng)
        res = run(clf, data, "accum", "entry_t", tracked=2)
        assert res.tally.bad_records > 0
        assert res.acc.full_report() == _reference_report(data, tracked=2)

    def test_hits_match_the_rep_path(self, clf, rng):
        """Under ``--stats`` a counted record is a ``fastpath.hit``."""
        from repro import observe
        from repro.execute import run
        data = clf_workload(200, rng)
        hits = {}
        for op in ("accum", "tally"):
            with observe.observed() as obs:
                run(clf, data, op, "entry_t")
            hits[op] = obs.stats()["fastpath"]["entry_t"]
        assert hits["accum"] == hits["tally"]
        assert hits["accum"]["hit"] > 0

    def test_verdicts(self, clf):
        """Grid-kernel reps, masks, tracers and records with no fast
        function keep the rep and the adder, and say why."""
        from repro import observe
        from repro.core.masks import Mask, P_CheckAndSet
        from repro.execute import count_step, run
        calls = gallery.load_call_detail()
        res = run(calls, b"", "accum", "call_t")
        assert res.reason.endswith(
            "accum: declined: grid step: 24-byte columns at 24-byte pitch")
        mask = Mask(P_CheckAndSet)
        mask.fields["date"] = Mask(P_CheckAndSet)
        assert count_step(clf, "entry_t", mask=mask)[0].reason == \
            "non-uniform or non-materialising mask"
        with observe.observed(trace=True):
            assert count_step(clf, "entry_t")[0].reason == "active tracer"
        from repro.core.limits import ParseLimits
        assert count_step(clf, "entry_t", limits=ParseLimits(
            max_depth=8))[0].reason == "parse limits a clean record could trip"
        assert count_step(clf, "entry_t", limits=ParseLimits(
            max_record_bytes=4096))[0].eligible
        plain = compile_description(gallery.CLF, fastpath=False)
        assert count_step(plain, "entry_t")[0].reason == \
            "shape not compiled: no record fast function"

    def test_deep_nesting(self):
        """Nested structs stay flat locals and are counted; unions nested
        past the inline depth keep the adder.  Both report as the
        reference does."""
        from repro.execute import count_step, run
        structs = ["Pstruct s0_t { Puint8 a; };"] + [
            f"Pstruct s{i}_t {{ s{i - 1}_t f; ':'; Puint8 n; }};"
            for i in range(1, 40)] + ["Precord Pstruct rec_t { s39_t top; };"]
        unions = ["Pstruct s0_t { Puint8 a; };"] + [
            line for i in range(1, 30) for line in (
                f"Punion u{i}_t {{ s{i - 1}_t x; Pstring(:';':) y; }};",
                f"Pstruct s{i}_t {{ u{i}_t f; ':'; Puint8 n; }};")] + [
            "Precord Pstruct rec_t { s29_t top; };"]
        for decls, data, counted in (
                (structs, b"7" + b":1" * 39 + b"\nx\n", True),
                (unions, b"1" + b":2" * 29 + b"\nabc:1\n", False)):
            text = "\n".join(decls)
            desc = compile_description(text)
            verdict = count_step(desc, "rec_t")[0]
            assert verdict.eligible is counted, verdict
            got = run(desc, data, "accum", "rec_t")
            want = run(compile_description(text, fastpath=False), data,
                       "accum", "rec_t")
            assert got.tally.bad_records == 1
            assert got.acc.full_report() == want.acc.full_report()
