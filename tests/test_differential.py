"""Differential sweep hardening the observability layer.

Every gallery description runs through ``compile_description`` and
``compile_generated`` (the same engine, bound a second time under its
generated module), serially and on the parallel driver, with
observability off and on.  All paths must produce identical values,
parse-descriptor summaries and accumulator reports — enabling
observation never changes parse results, and every build reports the
same (deterministic subset of) metrics because the per-field error
counters are derived from the pd trees.
"""

import random

import pytest

from repro import Mask, P_Check, P_CheckAndSet, P_Set, gallery, observe
from repro.codegen import compile_generated
from repro.core.api import compile_description
from repro.core.io import FixedWidthRecords
from repro.core.limits import ParseLimits
from repro.core.masks import MaskFlag
from repro.execute import ExecOptions, run
from repro.tools.accum import Accumulator
from repro.tools.datagen import (
    call_detail_workload,
    clf_workload,
    sirius_workload,
)

from .test_codegen import pd_summary

JOBS = 3


def _case_clf():
    return (gallery.load_clf(), compile_generated(gallery.CLF),
            clf_workload(300, random.Random(11)), "entry_t")


def _case_sirius():
    data = sirius_workload(90, random.Random(12)).split(b"\n", 1)[1]
    return (gallery.load_sirius(), compile_generated(gallery.SIRIUS),
            data, "entry_t")


def _case_call_detail():
    disc = FixedWidthRecords(gallery.CALL_DETAIL_WIDTH)
    return (gallery.load_call_detail(),
            compile_generated(gallery.CALL_DETAIL, ambient="binary",
                              discipline=disc),
            call_detail_workload(150, random.Random(13)), "call_t")


CASES = {
    "clf": _case_clf,
    "sirius": _case_sirius,
    "call_detail": _case_call_detail,
}


@pytest.fixture(scope="module")
def cases():
    return {name: build() for name, build in CASES.items()}


@pytest.fixture(scope="module")
def backend_cases(cases):
    """Each case built again by ``compile_generated`` from the
    interpreter's own compile inputs."""
    return {
        name: compile_generated(
            interp.source_text, ambient=interp.ambient,
            discipline=interp.discipline)
        for name, (interp, _gen, _data, _rtype) in cases.items()
    }


def run_records(description, data, record_type, *, parallel=False,
                metered=False):
    """One sweep configuration: returns (reps, pd summaries, stats)."""
    def consume():
        if parallel:
            out = list(run(description, data, "records", record_type,
                           ExecOptions(jobs=JOBS)).pairs)
        else:
            out = list(description.records(data, record_type))
        return [r for r, _ in out], [pd_summary(p) for _, p in out]

    if not metered:
        return (*consume(), None)
    with observe.observed() as obs:
        reps, pds = consume()
    return reps, pds, obs.stats(deterministic=True)


def _parallel_acc(description, data, record_type):
    return run(description, data, "accum", record_type,
               ExecOptions(jobs=JOBS)).acc


@pytest.mark.parametrize("name", list(CASES))
class TestEnginesAgree:
    """Interpreter vs generated engine, with and without observation."""

    def test_serial_with_and_without_observe(self, cases, name):
        interp, gen, data, rtype = cases[name]
        base_reps, base_pds, _ = run_records(interp, data, rtype)
        for engine in (interp, gen):
            for metered in (False, True):
                reps, pds, _ = run_records(engine, data, rtype,
                                           metered=metered)
                assert reps == base_reps
                assert pds == base_pds

    def test_deterministic_stats_match_across_engines(self, cases, name):
        interp, gen, data, rtype = cases[name]
        _, _, s_interp = run_records(interp, data, rtype, metered=True)
        _, _, s_gen = run_records(gen, data, rtype, metered=True)
        assert s_interp == s_gen
        assert s_interp["records"]["total"] > 0

    def test_masked_parses_agree_under_observation(self, cases, name):
        interp, gen, data, rtype = cases[name]
        masks = [Mask(P_CheckAndSet), Mask(P_Check),
                 Mask(P_Set | MaskFlag.SYN_CHECK)]
        for mask in masks:
            pairs = []
            for engine in (interp, gen):
                with observe.observed() as obs:
                    out = list(engine.records(data, rtype, mask))
                pairs.append(([pd_summary(p) for _, p in out],
                              obs.stats(deterministic=True)))
            assert pairs[0] == pairs[1]


@pytest.mark.parametrize("name", list(CASES))
class TestSerialParallelAgree:
    """records vs the parallel driver (falls back serially when the record
    discipline cannot be chunk-aligned — still must agree)."""

    def test_values_and_pds(self, cases, name):
        interp, gen, data, rtype = cases[name]
        for engine in (interp, gen):
            s_reps, s_pds, _ = run_records(engine, data, rtype)
            p_reps, p_pds, _ = run_records(engine, data, rtype,
                                           parallel=True)
            assert p_reps == s_reps
            assert p_pds == s_pds

    def test_deterministic_stats(self, cases, name):
        interp, _gen, data, rtype = cases[name]
        _, _, serial = run_records(interp, data, rtype, metered=True)
        _, _, par = run_records(interp, data, rtype, parallel=True,
                                metered=True)
        assert serial == par


@pytest.mark.parametrize("name", list(CASES))
class TestPlanDrivenAgainstReference:
    """Plan-driven engines (record fast fns + fused literal runs) vs
    reference mode (``fastpath=False``), which runs the pre-refactor
    general parse path only.

    The reference side runs serially (parallel workers recompile with
    default settings); the plan-driven side must match it both serially
    and on the parallel driver.
    """

    def _reference_pair(self, interp):
        ref_interp = compile_description(
            interp.source_text, ambient=interp.ambient,
            discipline=interp.discipline, fastpath=False)
        ref_gen = compile_generated(
            interp.source_text, ambient=interp.ambient,
            discipline=interp.discipline, fastpath=False)
        return ref_interp, ref_gen

    def test_fast_path_is_actually_active(self, cases, name):
        interp, gen, _data, rtype = cases[name]
        verdict = interp.plan.decl(rtype).verdict
        assert verdict.eligible, verdict
        assert gen.node(rtype).fast_fn is not None
        ref_i, ref_g = self._reference_pair(interp)
        # Reference mode disables materialisation, not analysis: the plan
        # still carries the verdict, but no fast fn reaches the engines.
        assert ref_i.plan.decl(rtype).verdict.eligible
        assert ref_g.node(rtype).fast_fn is None

    def test_reps_and_pds_match_reference(self, cases, name):
        interp, gen, data, rtype = cases[name]
        ref_i, ref_g = self._reference_pair(interp)
        ref_reps, ref_pds, _ = run_records(ref_i, data, rtype)
        g_reps, g_pds, _ = run_records(ref_g, data, rtype)
        assert (g_reps, g_pds) == (ref_reps, ref_pds)
        for engine in (interp, gen):
            for parallel in (False, True):
                reps, pds, _ = run_records(engine, data, rtype,
                                           parallel=parallel)
                assert reps == ref_reps
                assert pds == ref_pds

    def test_accumulator_reports_match_reference(self, cases, name):
        interp, gen, data, rtype = cases[name]
        ref_i, _ = self._reference_pair(interp)

        def report(engine):
            acc = Accumulator(engine.node(rtype), "<top>", 1000)
            for rep, pd in engine.records(data, rtype):
                acc.add(rep, pd)
            return acc.full_report()

        base = report(ref_i)
        assert report(interp) == base
        assert report(gen) == base
        acc = _parallel_acc(interp, data, rtype)
        assert acc.full_report() == base


@pytest.mark.parametrize("name", list(CASES))
class TestLimitsAgree:
    """The whole sweep again with a ParseLimits budget attached: limits
    must not perturb clean parses, and limit *hits* must be identical
    across the interpreter, the generated engine, and the parallel path.
    """

    #: Generous enough that conforming records never trip, so results
    #: must match the unlimited run byte for byte.
    GENEROUS = ParseLimits(max_record_bytes=1 << 20, max_array_elems=10_000,
                           max_scan=4096, max_depth=64)
    #: Tight enough that every record trips (record cap below any real
    #: record) — both engines must report the identical RECORD_LIMIT pds.
    TIGHT = ParseLimits(max_record_bytes=4)

    @pytest.fixture()
    def limited(self, cases, name):
        """The case's engines with limits attached, restored afterwards
        (the ``cases`` fixture is module-scoped)."""
        interp, gen, data, rtype = cases[name]
        try:
            yield interp, gen, data, rtype
        finally:
            interp.limits = None
            gen.limits = None

    def test_generous_limits_change_nothing(self, cases, limited, name):
        interp, gen, data, rtype = limited
        base_reps, base_pds, base_stats = run_records(
            cases[name][0], data, rtype, metered=True)
        interp.limits = gen.limits = self.GENEROUS
        for engine in (interp, gen):
            for parallel in (False, True):
                reps, pds, stats = run_records(engine, data, rtype,
                                               parallel=parallel,
                                               metered=True)
                assert reps == base_reps
                assert pds == base_pds
                assert stats == base_stats

    def test_tight_limits_identical_across_engines(self, limited):
        interp, gen, data, rtype = limited
        interp.limits = gen.limits = self.TIGHT
        i_reps, i_pds, i_stats = run_records(interp, data, rtype,
                                             metered=True)
        assert i_stats["limits"]["record_bytes"] > 0
        # Every summary's top-level err_code is RECORD_LIMIT (501).
        assert all(summary[2] == 501 for summary in i_pds)
        for parallel in (False, True):
            g_reps, g_pds, g_stats = run_records(gen, data, rtype,
                                                 parallel=parallel,
                                                 metered=True)
            assert g_reps == i_reps
            assert g_pds == i_pds
            assert g_stats == i_stats


@pytest.mark.parametrize("name", list(CASES))
class TestBackendsAgree:
    """A generated build from the interpreter's compile inputs must match
    it on reps, pd summaries and deterministic observe stats, serially
    and through the parallel driver (whose workers rebuild the
    description from its source text).
    """

    def test_records_and_stats_identical(self, cases, backend_cases, name):
        interp, _gen, data, rtype = cases[name]
        gen = backend_cases[name]
        base_reps, base_pds, base_stats = run_records(interp, data, rtype,
                                                      metered=True)
        for parallel in (False, True):
            reps, pds, stats = run_records(gen, data, rtype,
                                           parallel=parallel, metered=True)
            assert reps == base_reps, parallel
            assert pds == base_pds, parallel
            assert stats == base_stats, parallel

    def test_masked_parses_identical(self, cases, backend_cases, name):
        interp, _gen, data, rtype = cases[name]
        masks = [Mask(P_CheckAndSet), Mask(P_Check),
                 Mask(P_Set | MaskFlag.SYN_CHECK)]
        for mask in masks:
            base = [pd_summary(p)
                    for _, p in interp.records(data, rtype, mask)]
            got = [pd_summary(p)
                   for _, p in backend_cases[name].records(data, rtype, mask)]
            assert got == base, mask

    def test_accumulator_reports_identical(self, cases, backend_cases, name):
        interp, _gen, data, rtype = cases[name]

        def report(engine):
            acc = Accumulator(engine.node(rtype), "<top>", 1000)
            for rep, pd in engine.records(data, rtype):
                acc.add(rep, pd)
            return acc.full_report()

        assert report(backend_cases[name]) == report(interp)


@pytest.mark.parametrize("name", ["clf", "sirius"])
class TestAccumulatorsAgree:
    """Accumulator reports across engines, paths and observation states."""

    def _serial_report(self, engine, data, rtype, metered):
        acc = Accumulator(engine.node(rtype), "<top>", 1000)
        if metered:
            with observe.observed():
                for rep, pd in engine.records(data, rtype):
                    acc.add(rep, pd)
        else:
            for rep, pd in engine.records(data, rtype):
                acc.add(rep, pd)
        return acc.full_report()

    def test_reports_identical_everywhere(self, cases, name):
        interp, gen, data, rtype = cases[name]
        base = self._serial_report(interp, data, rtype, metered=False)
        assert self._serial_report(interp, data, rtype, metered=True) == base
        assert self._serial_report(gen, data, rtype, metered=False) == base
        assert self._serial_report(gen, data, rtype, metered=True) == base
        for metered in (False, True):
            if metered:
                with observe.observed():
                    acc = _parallel_acc(interp, data, rtype)
            else:
                acc = _parallel_acc(interp, data, rtype)
            assert acc.full_report() == base
