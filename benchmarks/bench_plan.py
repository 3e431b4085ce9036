"""Plan IR fast paths: plan-driven engines vs reference mode.

The plan layer attaches two optimizations both engines consume: compiled
record fast functions (anchored regex / fixed-width slicing) and fused
literal runs.  ``fastpath=False`` disables both, leaving the pre-refactor
general parse path — the reference each pair below is measured against.

The workload is the same synthetic Sirius vetting task as
``bench_parallel.py`` (shared fixtures), the write-back of its clean
records through the compiled record writer (``_fw_entry_t``), plus the
fixed-width call-detail stream that exercises the slicing path.  **Correctness is asserted inside
every benchmark**: plan-driven and reference runs must agree on error
totals before their timings mean anything.

Run ``pytest benchmarks/bench_plan.py --benchmark-only
--benchmark-json=BENCH_plan.json``; feed the JSON to
``benchmarks/check_plan_regression.py``, which fails if a plan-driven
engine regresses more than 5% against its reference twin.
"""

import random

import pytest

from repro import gallery
from repro.codegen import compile_generated
from repro.core.api import compile_description
from repro.core.io import FixedWidthRecords
from repro.execute import run
from repro.tools.datagen import call_detail_workload

from .conftest import N_RECORDS


@pytest.fixture(scope="module")
def sirius_interp_ref():
    return compile_description(gallery.SIRIUS, fastpath=False)


@pytest.fixture(scope="module")
def sirius_gen_ref():
    return compile_generated(gallery.SIRIUS, fastpath=False)


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


@pytest.mark.benchmark(group="plan-gen-vetting")
def test_gen_vet_plan(benchmark, sirius_gen, sirius_gen_ref, sirius_body):
    base = _vet(sirius_gen_ref, sirius_body)
    tally = benchmark(_vet, sirius_gen, sirius_body)
    assert tally.records == base.records == N_RECORDS
    assert tally.bad_records == base.bad_records
    assert tally.by_code == base.by_code


@pytest.mark.benchmark(group="plan-gen-vetting")
def test_gen_vet_reference(benchmark, sirius_gen_ref, sirius_body):
    tally = benchmark(_vet, sirius_gen_ref, sirius_body)
    assert tally.records == N_RECORDS


# -- the compiled record writer (Figure 7's entry_t_write2io) ----------------


@pytest.fixture(scope="module")
def sirius_clean_reps(sirius_gen, sirius_body):
    """The reps of the clean orders: what the vetting program writes."""
    return [rep for rep, pd in sirius_gen.records(sirius_body, "entry_t")
            if not pd.nerr]


def _write_all(description, reps):
    return b"".join([description.write(rep, "entry_t") for rep in reps])


@pytest.mark.benchmark(group="plan-gen-writing")
def test_gen_write_plan(benchmark, sirius_gen, sirius_gen_ref,
                        sirius_clean_reps):
    base = _write_all(sirius_gen_ref, sirius_clean_reps)
    out = benchmark(_write_all, sirius_gen, sirius_clean_reps)
    assert out == base
    assert "_fw_entry_t" in sirius_gen.py_source


@pytest.mark.benchmark(group="plan-gen-writing")
def test_gen_write_reference(benchmark, sirius_gen_ref, sirius_clean_reps):
    out = benchmark(_write_all, sirius_gen_ref, sirius_clean_reps)
    assert out.count(b"\n") == len(sirius_clean_reps)


# -- fixed-width slicing (binary call-detail records) -----------------------


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


@pytest.mark.benchmark(group="plan-slicing")
def test_interp_calls_plan(benchmark, calls_interp, calls_interp_ref,
                           calls_body):
    base = _count_clean(calls_interp_ref, calls_body)
    good = benchmark(_count_clean, calls_interp, calls_body)
    assert good == base == N_RECORDS


@pytest.mark.benchmark(group="plan-slicing")
def test_interp_calls_reference(benchmark, calls_interp_ref, calls_body):
    assert benchmark(_count_clean, calls_interp_ref, calls_body) == N_RECORDS


@pytest.fixture(scope="module")
def calls_gen():
    return compile_generated(gallery.CALL_DETAIL, ambient="binary",
                             discipline=FixedWidthRecords(24))


@pytest.mark.benchmark(group="plan-slicing")
def test_gen_calls_plan(benchmark, calls_gen, calls_body):
    assert benchmark(_count_clean, calls_gen, calls_body) == N_RECORDS

