"""Parallel engine: chunked map-reduce vs the serial entry points.

The paper's Figure 10 tasks (vetting, selection, record counting) are
embarrassingly parallel — records are independent units of work — yet the
serial runtime drives them through one core.  This bench runs the same
tasks through :func:`repro.execute.run` with ``--jobs 4`` (the parallel
driver, which folds each chunk inside the workers) and compares against
the in-process driver.  **Correctness is asserted inside every
benchmark**: the parallel side must produce byte-identical error totals
and accumulator reports, not just similar timings.

The speedup assertion is gated on the machine actually having cores to
scale onto: on a multi-core box 4 workers must beat serial by >= 2x on
the vetting task; on a 1-2 core box (CI containers) only equivalence is
checked.

Run ``pytest benchmarks/bench_parallel.py --benchmark-only``; scale with
``PADS_BENCH_RECORDS``.
"""

import os
import time

import pytest

from repro.execute import ExecOptions, run
from repro.tools.accum import accumulate_records

from .conftest import N_RECORDS

JOBS = 4
CORES = os.cpu_count() or 1


def _warm_pool(description, data):
    """First parallel call pays pool + fork startup; do it off the clock."""
    run(description, data, "count", options=ExecOptions(jobs=JOBS))


def _vet(description, data, jobs=1):
    """Vetting: every record parsed, its pd folded into an error tally
    (inside the workers when ``jobs > 1``)."""
    res = run(description, data, "tally", "entry_t", ExecOptions(jobs=jobs))
    assert res.mode == ("parallel" if jobs > 1 else "serial"), res.reason
    return res.tally


@pytest.mark.benchmark(group="parallel-vetting")
def test_vet_serial(benchmark, sirius_gen, sirius_body):
    tally = benchmark(_vet, sirius_gen, sirius_body)
    assert tally.records == N_RECORDS


@pytest.mark.benchmark(group="parallel-vetting")
def test_vet_parallel(benchmark, sirius_gen, sirius_body):
    _warm_pool(sirius_gen, sirius_body)
    serial = _vet(sirius_gen, sirius_body)
    tally = benchmark(_vet, sirius_gen, sirius_body, jobs=JOBS)
    assert tally.records == serial.records
    assert tally.bad_records == serial.bad_records
    assert tally.total_errors == serial.total_errors
    assert tally.by_code == serial.by_code


@pytest.mark.benchmark(group="parallel-count")
def test_count_serial(benchmark, sirius_gen, sirius_body):
    assert benchmark(sirius_gen.count_records, sirius_body) == N_RECORDS


@pytest.mark.benchmark(group="parallel-count")
def test_count_parallel(benchmark, sirius_gen, sirius_body):
    _warm_pool(sirius_gen, sirius_body)
    res = benchmark(run, sirius_gen, sirius_body, "count",
                    options=ExecOptions(jobs=JOBS))
    assert res.count == N_RECORDS


@pytest.mark.benchmark(group="parallel-accum")
def test_accum_serial(benchmark, sirius_gen, sirius_body):
    acc, _hdr, n = benchmark(accumulate_records, sirius_gen, sirius_body,
                             "entry_t")
    assert n == N_RECORDS


@pytest.mark.benchmark(group="parallel-accum")
def test_accum_parallel(benchmark, sirius_gen, sirius_body):
    _warm_pool(sirius_gen, sirius_body)
    serial_acc, _hdr, _n = accumulate_records(sirius_gen, sirius_body,
                                              "entry_t")
    res = benchmark(run, sirius_gen, sirius_body, "accum", "entry_t",
                    ExecOptions(jobs=JOBS))
    acc, tally = res.acc, res.tally
    assert res.header_acc is None
    assert tally.records == N_RECORDS
    assert (acc.self_acc.good, acc.self_acc.bad) == \
        (serial_acc.self_acc.good, serial_acc.self_acc.bad)
    assert acc.full_report() == serial_acc.full_report()


def test_parallel_speedup():
    """With real cores underneath, 4 workers must give >= 2x on vetting.

    On machines without at least 4 cores there is nothing to scale onto,
    so only serial/parallel equivalence is asserted (the timing ratio is
    still printed for the record).
    """
    import random

    from repro.codegen import compile_generated
    from repro import gallery
    from repro.tools.datagen import sirius_workload

    desc = compile_generated(gallery.SIRIUS)
    n = max(N_RECORDS, 20_000)
    body = sirius_workload(n, random.Random(20050612)).split(b"\n", 1)[1]
    _warm_pool(desc, body)

    t0 = time.perf_counter()
    serial = _vet(desc, body)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = _vet(desc, body, jobs=JOBS)
    t_parallel = time.perf_counter() - t0

    assert par.records == serial.records == n
    assert par.bad_records == serial.bad_records
    assert par.total_errors == serial.total_errors
    assert par.by_code == serial.by_code

    speedup = t_serial / t_parallel if t_parallel else float("inf")
    print(f"\nvetting {n} records: serial {t_serial:.2f}s, "
          f"parallel({JOBS}) {t_parallel:.2f}s, speedup {speedup:.2f}x "
          f"on {CORES} core(s)")
    if CORES >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x with {JOBS} workers on {CORES} cores, "
            f"got {speedup:.2f}x")
