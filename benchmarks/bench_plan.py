"""Plan IR fast paths: plan-driven engines vs reference mode.

The plan layer compiles record and member fast functions (anchored
regex, or a static record's batch kernel over one record) and record
writers.  ``fastpath=False``
disables them, leaving the general parse and write paths — the
reference each pair below is measured against.

The workload is the same synthetic Sirius vetting task as
``bench_parallel.py`` (shared fixtures), the write-back of its clean
records through the compiled record writer (``_fw_entry_t``, against
the general writer), the
Section 5.2 accumulator fold over parsed CLF records (clean records
through the compiled adder; its reference is the same fold through the
tree walk, ``Accumulator.walk``), the accum fold of ``execute.run`` over
the CLF file (clean records counted inside the record function; its
reference is ``records()`` plus the compiled adder), the delimited formatter over the clean
CLF records (compiled against the formatting walk), the interpreter's
general path over the CLF records that miss the record fast function
(struct functions against the walk), the record loop framing Sirius
records a buffered block at a time (against one ``bounds`` step per
record), plus the fixed-width call-detail stream whose record fast function is
its batch kernel over one record.  **Correctness is asserted inside
every benchmark**: plan-driven and reference runs must agree on error
totals (or reports) before their timings mean anything.

Run ``pytest benchmarks/bench_plan.py --benchmark-only
--benchmark-json=BENCH_plan.json``; feed the JSON to
``benchmarks/check_plan_regression.py``, which fails if a plan-driven
engine regresses more than 5% against its reference twin.
"""

import random

import pytest

from repro import gallery
from repro.core.api import compile_description
from repro.core.errors import ErrorTally
from repro.core.io import FixedWidthRecords, NewlineRecords, RecordDiscipline
from repro.execute import run
from repro.tools.accum import record_accumulator
from repro.tools.fmt import FormatSpec, _join, formatter
from repro.tools.datagen import call_detail_workload

from .conftest import N_RECORDS


@pytest.fixture(scope="module")
def sirius_interp_ref():
    return compile_description(gallery.SIRIUS, fastpath=False)


def _vet(description, body):
    return run(description, body, "tally", "entry_t").tally


@pytest.mark.benchmark(group="plan-interp-vetting")
def test_interp_vet_plan(benchmark, sirius_interp, sirius_interp_ref,
                         sirius_body):
    base = _vet(sirius_interp_ref, sirius_body)
    tally = benchmark(_vet, sirius_interp, sirius_body)
    assert tally.records == base.records == N_RECORDS
    assert tally.bad_records == base.bad_records
    assert tally.by_code == base.by_code


@pytest.mark.benchmark(group="plan-interp-vetting")
def test_interp_vet_reference(benchmark, sirius_interp_ref, sirius_body):
    tally = benchmark(_vet, sirius_interp_ref, sirius_body)
    assert tally.records == N_RECORDS


# -- the compiled record writer (Figure 7's entry_t_write2io) ----------------


@pytest.fixture(scope="module")
def sirius_clean_reps(sirius_interp, sirius_body):
    """The reps of the clean orders: what the vetting program writes."""
    return [rep for rep, pd in sirius_interp.records(sirius_body, "entry_t")
            if not pd.nerr]


def _write_all(description, reps):
    return b"".join([description.write(rep, "entry_t") for rep in reps])


@pytest.mark.benchmark(group="plan-interp-writing")
def test_interp_write_plan(benchmark, sirius_interp, sirius_interp_ref,
                           sirius_clean_reps):
    base = _write_all(sirius_interp_ref, sirius_clean_reps)
    out = benchmark(_write_all, sirius_interp, sirius_clean_reps)
    assert out == base
    assert sirius_interp.node("entry_t").write_fn is not None


@pytest.mark.benchmark(group="plan-interp-writing")
def test_interp_write_reference(benchmark, sirius_interp_ref,
                                sirius_clean_reps):
    out = benchmark(_write_all, sirius_interp_ref, sirius_clean_reps)
    assert out.count(b"\n") == len(sirius_clean_reps)


# -- the compiled accumulator adder (Section 5.2's <type>_acc_add) -----------
#
# The pair times the fold alone, over records parsed once: the parse is the
# same code on both sides, and on a noisy host its spread would swamp the
# accumulator's share.  perfbench ``clf-accum`` carries the end-to-end number.


@pytest.fixture(scope="module")
def clf_pairs(clf_interp, clf_file):
    return list(clf_interp.records(clf_file, "entry_t"))


def _accum(description, pairs, walk=False):
    acc = record_accumulator(description, "entry_t")
    add = acc.walk if walk else acc.add
    for rep, pd in pairs:
        add(rep, pd)
    return acc


@pytest.mark.benchmark(group="plan-interp-accum")
def test_interp_accum_plan(benchmark, clf_interp, clf_pairs):
    base = _accum(clf_interp, clf_pairs, walk=True)
    acc = benchmark(_accum, clf_interp, clf_pairs)
    assert acc.full_report() == base.full_report()
    assert acc.self_acc.total_count == N_RECORDS and acc._adder is not None


@pytest.mark.benchmark(group="plan-interp-accum")
def test_interp_accum_reference(benchmark, clf_interp, clf_pairs):
    acc = benchmark(_accum, clf_interp, clf_pairs, walk=True)
    assert acc.self_acc.total_count == N_RECORDS and acc._adder is None


# -- the accum fold counting clean records in the record function -----------
#
# Parse and fold together: ``execute.run``'s accum fold, whose record step
# counts each clean CLF record inside the record function, against the
# same fold written as ``records()`` plus ``acc.add`` per pair (every
# clean record built as a rep and counted by the compiled adder).


def _accum_fold(description, data):
    acc = record_accumulator(description, "entry_t")
    tally = ErrorTally()
    for rep, pd in description.records(data, "entry_t"):
        acc.add(rep, pd)
        tally.add(pd)
    return acc, tally


@pytest.mark.benchmark(group="plan-interp-accum-fold")
def test_interp_accum_fold_plan(benchmark, clf_interp, clf_file):
    base, _ = _accum_fold(clf_interp, clf_file)
    res = benchmark(run, clf_interp, clf_file, "accum", "entry_t")
    assert res.reason.endswith("accum: counted in the record function")
    assert res.tally.records == N_RECORDS
    assert res.acc.full_report() == base.full_report()


@pytest.mark.benchmark(group="plan-interp-accum-fold")
def test_interp_accum_fold_reference(benchmark, clf_interp, clf_file):
    _acc, tally = benchmark(_accum_fold, clf_interp, clf_file)
    assert tally.records == N_RECORDS


# -- the compiled delimited formatter (Section 5.3.1's <type>_fmt2io) ------
#
# Formatting alone, over the clean records parsed once: the compiled
# formatter against the tree walk it is checked by.  perfbench
# ``serve-mix`` (records mode) carries the end-to-end number.


@pytest.fixture(scope="module")
def clf_clean_reps(clf_pairs):
    return [rep for rep, pd in clf_pairs if pd.nerr == 0]


def _format_all(node, reps, walk=False):
    if walk:
        spec = FormatSpec(("|",), "%D:%T")
        return [_join(node, rep, spec, spec.mask, 0) for rep in reps]
    fmt = formatter(node, delims=("|",), date_format="%D:%T")
    return [fmt(rep) for rep in reps]


@pytest.mark.benchmark(group="plan-fmt")
def test_fmt_plan(benchmark, clf_interp, clf_clean_reps):
    node = clf_interp.node("entry_t")
    base = _format_all(node, clf_clean_reps, walk=True)
    assert benchmark(_format_all, node, clf_clean_reps) == base


@pytest.mark.benchmark(group="plan-fmt")
def test_fmt_reference(benchmark, clf_interp, clf_clean_reps):
    lines = benchmark(_format_all, clf_interp.node("entry_t"),
                      clf_clean_reps, walk=True)
    assert len(lines) == len(clf_clean_reps) > N_RECORDS // 2


# -- the general path on error records (struct functions) -------------------
#
# Only the `-` byte-count records of the CLF workload: each one misses the
# record fast function on its last member.  The plan side runs entry_t's
# struct function, which calls the member fast functions of the six clean
# members and interprets ``length``; the reference walks all seven.  The
# clean row parses as many clean CLF records on the plan side: an error
# record should cost at most twice a clean one.


@pytest.fixture(scope="module")
def clf_dash_records(clf_file):
    lines = clf_file.split(b"\n")
    return b"\n".join(ln for ln in lines if ln.endswith(b" -")) + b"\n"


@pytest.fixture(scope="module")
def clf_interp_ref():
    return compile_description(gallery.CLF, fastpath=False)


def _parse_all(description, body):
    return list(description.records(body, "entry_t"))


def _pd_tree(pd):
    """A pd and all its children: state, counts, code, location, tag."""
    return (int(pd.pstate), pd.nerr, int(pd.err_code), pd.loc, pd.tag,
            pd.neerr, pd.first_error,
            sorted((k, _pd_tree(v)) for k, v in (pd._fields or {}).items()),
            [_pd_tree(e) for e in (pd._elts or [])],
            None if pd.branch is None else _pd_tree(pd.branch))


@pytest.mark.benchmark(group="plan-interp-errors")
def test_interp_errors_plan(benchmark, clf_interp, clf_interp_ref,
                           clf_dash_records):
    base = _parse_all(clf_interp_ref, clf_dash_records)
    pairs = benchmark(_parse_all, clf_interp, clf_dash_records)
    assert [rep for rep, _ in pairs] == [rep for rep, _ in base]
    assert [_pd_tree(pd) for _, pd in pairs] == \
        [_pd_tree(pd) for _, pd in base]
    assert pairs and all(pd.nerr for _, pd in pairs)


@pytest.mark.benchmark(group="plan-interp-errors")
def test_interp_errors_reference(benchmark, clf_interp_ref,
                                 clf_dash_records):
    pairs = benchmark(_parse_all, clf_interp_ref, clf_dash_records)
    assert pairs and all(pd.nerr for _, pd in pairs)


@pytest.fixture(scope="module")
def clf_clean_records(clf_interp, clf_file, clf_dash_records):
    """As many clean CLF records as ``clf_dash_records`` holds."""
    lines = clf_file.split(b"\n")
    pairs = clf_interp.records(clf_file, "entry_t")
    clean = [ln for ln, (_, pd) in zip(lines, pairs) if pd.nerr == 0]
    return b"\n".join(clean[:clf_dash_records.count(b"\n")]) + b"\n"


@pytest.mark.benchmark(group="plan-interp-errors")
def test_interp_clean_plan(benchmark, clf_interp, clf_clean_records,
                           clf_dash_records):
    pairs = benchmark(_parse_all, clf_interp, clf_clean_records)
    assert len(pairs) == clf_dash_records.count(b"\n")
    assert not any(pd.nerr for _, pd in pairs)


# -- block framing in the shared record loop ---------------------------------
#
# The same Sirius description on the same bytes, framed a buffered block at
# a time (``NewlineRecords.frame_block``) against a newline discipline with
# the bulk method removed, so every record takes the per-record
# ``begin_record`` → ``bounds`` step.  Fast and general parses are the same
# code on both sides.


class _PerRecordNewline(NewlineRecords):
    frame_block = RecordDiscipline.frame_block


@pytest.fixture(scope="module")
def sirius_per_record():
    return compile_description(gallery.SIRIUS, discipline=_PerRecordNewline())


def _frame_tally(description, body):
    tally = ErrorTally()
    for _rep, pd in description.records(body, "entry_t"):
        tally.add(pd)
    return tally


@pytest.mark.benchmark(group="plan-framing")
def test_frame_plan(benchmark, sirius_interp, sirius_per_record,
                    sirius_body):
    base = _frame_tally(sirius_per_record, sirius_body)
    tally = benchmark(_frame_tally, sirius_interp, sirius_body)
    assert tally.records == base.records == N_RECORDS
    assert tally.bad_records == base.bad_records
    assert tally.by_code == base.by_code


@pytest.mark.benchmark(group="plan-framing")
def test_frame_reference(benchmark, sirius_per_record, sirius_body):
    tally = benchmark(_frame_tally, sirius_per_record, sirius_body)
    assert tally.records == N_RECORDS


# -- fixed-width records (binary call-detail, kernel fast function) ---------


@pytest.fixture(scope="module")
def calls_body() -> bytes:
    return call_detail_workload(N_RECORDS, random.Random(20050612))


@pytest.fixture(scope="module")
def calls_interp():
    return compile_description(gallery.CALL_DETAIL, ambient="binary",
                               discipline=FixedWidthRecords(24))


@pytest.fixture(scope="module")
def calls_interp_ref():
    return compile_description(gallery.CALL_DETAIL, ambient="binary",
                               discipline=FixedWidthRecords(24),
                               fastpath=False)


def _count_clean(description, body):
    good = 0
    for _rep, pd in description.records(body, "call_t"):
        if pd.nerr == 0:
            good += 1
    return good


@pytest.mark.benchmark(group="plan-fixed-width")
def test_interp_calls_plan(benchmark, calls_interp, calls_interp_ref,
                           calls_body):
    base = _count_clean(calls_interp_ref, calls_body)
    good = benchmark(_count_clean, calls_interp, calls_body)
    assert good == base == N_RECORDS


@pytest.mark.benchmark(group="plan-fixed-width")
def test_interp_calls_reference(benchmark, calls_interp_ref, calls_body):
    assert benchmark(_count_clean, calls_interp_ref, calls_body) == N_RECORDS

