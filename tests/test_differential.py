"""Observation never changes a parse: the workloads below, with and
without masks and limits, serially and on the pool, through the oracle
(``tests/test_oracle.py``), which compares reps, pds, reports and the
deterministic stats with a serial ``fastpath=False`` run.
``compile_generated`` is ``compile_description``: the ``Engines`` and
``Backends`` classes name the same cases twice.
"""

import random

import pytest

from repro.execute import run
from repro.tools.datagen import (
    call_detail_workload,
    clf_workload,
    sirius_workload,
)

from . import test_oracle as oracle


def _sirius_body():
    return sirius_workload(90, random.Random(12)).split(b"\n", 1)[1]


#: name -> (oracle subject, oracle data key).
CASES = {
    "clf": (oracle.GALLERY["clf"], oracle.data_key(
        "clf-300", lambda: clf_workload(300, random.Random(11)))),
    "sirius": (oracle.GALLERY["sirius"], oracle.data_key(
        "sirius-90", _sirius_body)),
    "call_detail": (oracle.GALLERY["calldetail"], oracle.data_key(
        "calls-150", lambda: call_detail_workload(150, random.Random(13)))),
}


def agree(name, op, mode, tmp_path, **kw):
    subject, key = CASES[name]
    return oracle.agree(subject, key, op, mode, tmp_path, **kw)


pytestmark = pytest.mark.usefixtures("pool_chunks")


@pytest.mark.parametrize("name", list(CASES))
class TestEnginesAgree:
    def test_serial_with_and_without_observe(self, name, tmp_path):
        subject, key = CASES[name]
        got = agree(name, "records", "serial", tmp_path)
        unobserved = subject.build().records(oracle._DATA[key](),
                                             subject.rtype)
        assert [(r, oracle.pd_tree(p)) for r, p in unobserved] == got.result

    def test_deterministic_stats_match_across_engines(self, name, tmp_path):
        got = agree(name, "tally", "serial", tmp_path)
        assert got.stats["records"]["total"] > 0

    def test_masked_parses_agree_under_observation(self, name, tmp_path):
        for mask in oracle.MASKS:
            agree(name, "records", "serial", tmp_path, mask=mask)


@pytest.mark.parametrize("name", list(CASES))
class TestSerialParallelAgree:
    def test_values_and_pds(self, name, tmp_path):
        agree(name, "records", "parallel-memory", tmp_path,
              expect="parallel")

    def test_deterministic_stats(self, name, tmp_path):
        agree(name, "tally", "parallel", tmp_path, expect="parallel")


@pytest.mark.parametrize("name", list(CASES))
class TestPlanDrivenAgainstReference:
    def test_fast_path_is_actually_active(self, name):
        subject, _key = CASES[name]
        fast, plain = subject.build(), subject.build(False)
        assert fast.plan.decl(subject.rtype).verdict.eligible
        assert fast.node(subject.rtype).fast_fn is not None
        # Reference mode disables materialisation, not analysis: the plan
        # still carries the verdict, but no fast fn reaches the node.
        assert plain.plan.decl(subject.rtype).verdict.eligible
        assert plain.node(subject.rtype).fast_fn is None

    def test_reps_and_pds_match_reference(self, name, tmp_path):
        got = agree(name, "records", "serial", tmp_path)
        assert got.hits > 0
        agree(name, "records", "parallel", tmp_path, expect="parallel")

    def test_accumulator_reports_match_reference(self, name, tmp_path):
        for mode in ("serial", "parallel"):
            agree(name, "accum", mode, tmp_path)


@pytest.mark.parametrize("name", list(CASES))
class TestLimitsAgree:
    def test_generous_limits_change_nothing(self, name, tmp_path):
        subject, key = CASES[name]
        generous = oracle.reference(subject, key, "records", limits="generous")
        plain = oracle.reference(subject, key, "records")
        assert (generous.result, generous.stats) == (plain.result, plain.stats)
        for mode in ("serial", "parallel"):
            agree(name, "records", mode, tmp_path, limits="generous")

    def test_tight_limits_identical_across_engines(self, name, tmp_path):
        for mode in ("serial", "parallel"):
            got = agree(name, "records", mode, tmp_path,
                        limits="record-bytes")
        assert got.stats["limits"]["record_bytes"] > 0
        # Every record's top-level err_code is RECORD_LIMIT (501).
        assert all(tree[2] == 501 for _rep, tree in got.result)


@pytest.mark.parametrize("name", list(CASES))
class TestBackendsAgree:
    def test_records_and_stats_identical(self, name, tmp_path):
        agree(name, "records", "parallel", tmp_path, expect="parallel")

    def test_masked_parses_identical(self, name, tmp_path):
        for mask in oracle.MASKS:
            agree(name, "records", "parallel", tmp_path, mask=mask)

    def test_accumulator_reports_identical(self, name, tmp_path):
        agree(name, "accum", "serial", tmp_path)


@pytest.mark.parametrize("name", ["clf", "sirius"])
class TestAccumulatorsAgree:
    def test_reports_identical_everywhere(self, name, tmp_path):
        base = agree(name, "accum", "serial", tmp_path).result
        subject, key = CASES[name]
        unobserved = run(subject.build(), oracle._DATA[key](), "accum",
                         subject.rtype)
        assert unobserved.acc.full_report() == base[0]
        agree(name, "accum", "parallel", tmp_path)
