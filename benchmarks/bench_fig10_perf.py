"""Figure 10: the paper's performance table.

Paper setup: a 2.2GB Sirius file (11,773,843 records, 1 sort violation,
53 syntax errors), two tasks, PADS-generated C vs hand-written PERL:

======================  =======  =======  =====
task                    PADS     PERL     ratio
======================  =======  =======  =====
vetting (all checks)    ~1616s   ~3272s   ~2.0x
selection (no checks)   ~421s    ~520s    ~1.2x
record count (floor)      81s     124s    ~1.5x
======================  =======  =======  =====

This file reruns the same two tasks (plus the counting floor) over a
synthetic Sirius file with the same error mix, comparing the generated
Python parser against the transliterated hand-written Python programs
(:mod:`benchmarks.baselines`).  Correctness is asserted inside every
benchmark: both sides must find the same errors / the same order numbers.

Run ``pytest benchmarks/bench_fig10_perf.py --benchmark-only``; scale with
``PADS_BENCH_RECORDS``.
"""

import pytest

from .baselines import (
    pads_count_records,
    pads_select_sirius,
    pads_vet_sirius,
    python_count_records,
    python_select_sirius,
    python_vet_sirius,
)
from .conftest import SELECT_STATE


EXPECTED_BAD = 54  # 53 syntax errors + 1 sort violation, as in the paper


@pytest.mark.benchmark(group="fig10-vetting")
def test_vet_pads(benchmark, sirius_gen, sirius_body):
    """padsvet: full checking, including the timestamp sort order."""
    clean, errors = benchmark(pads_vet_sirius, sirius_gen, sirius_body)
    assert len(errors) == EXPECTED_BAD
    assert len(clean) + len(errors) == sirius_body.count(b"\n")


@pytest.mark.benchmark(group="fig10-vetting")
def test_vet_handwritten(benchmark, sirius_body):
    """perl vet.pl: the split-based hand-written vetter."""
    clean, errors = benchmark(python_vet_sirius, sirius_body)
    assert len(errors) == EXPECTED_BAD


@pytest.mark.benchmark(group="fig10-selection")
def test_select_pads(benchmark, sirius_gen, sirius_clean):
    """padsselect: all error checking off, emit matching order numbers."""
    result = benchmark(pads_select_sirius, sirius_gen, sirius_clean,
                       SELECT_STATE)
    expected = python_select_sirius(sirius_clean, SELECT_STATE.encode())
    assert result == expected


@pytest.mark.benchmark(group="fig10-selection")
def test_select_handwritten(benchmark, sirius_clean):
    """perl select.pl: the Figure 9 regex applied per line."""
    result = benchmark(python_select_sirius, sirius_clean,
                       SELECT_STATE.encode())
    assert len(result) > 0


@pytest.mark.benchmark(group="fig10-count")
def test_count_pads(benchmark, sirius_gen, sirius_clean):
    """The PADS record-count floor (81s in the paper)."""
    n = benchmark(pads_count_records, sirius_gen, sirius_clean)
    assert n == sirius_clean.count(b"\n")


@pytest.mark.benchmark(group="fig10-count")
def test_count_handwritten(benchmark, sirius_clean):
    """The PERL record-count floor (124s in the paper)."""
    n = benchmark(python_count_records, sirius_clean)
    assert n == sirius_clean.count(b"\n")


# -- where the PADS vetting time goes (EXPERIMENTS.md, Figure 10) ---------


@pytest.mark.benchmark(group="fig10-attribution")
def test_vet_write_pads(benchmark, sirius_gen, sirius_body):
    """The whole Figure 7 program: vet, then write every clean record
    back in physical form (``entry_t_write2io``)."""
    def vet_write():
        clean, errors = pads_vet_sirius(sirius_gen, sirius_body)
        return [sirius_gen.write(rep, "entry_t") for rep in clean], errors

    written, errors = benchmark(vet_write)
    assert len(errors) == EXPECTED_BAD
    assert written == [line + b"\n"
                       for line in python_vet_sirius(sirius_body)[0]]


@pytest.mark.benchmark(group="fig10-attribution")
def test_vet_fast_fn_only(benchmark, sirius_gen, sirius_body):
    """The compiled fast function alone over every record's bytes: no
    record discipline, no record loop, no parse descriptors."""
    fast = sirius_gen.node("entry_t").fast_fn
    lines = sirius_body.split(b"\n")[:-1]
    misses = benchmark(lambda: sum(fast(line, True) is None
                                   for line in lines))
    assert misses == EXPECTED_BAD



@pytest.mark.benchmark(group="fig10-attribution")
def test_vet_keep_reps_pads(benchmark, sirius_gen, sirius_body):
    """Vetting that keeps every record's rep and parse descriptor, as a
    program that loads a file and then works on its records would.  The
    cyclic collector runs as it would in that program."""
    pairs = benchmark(lambda: list(sirius_gen.records(sirius_body,
                                                      "entry_t")))
    assert len(pairs) == sirius_body.count(b"\n")
    assert sum(pd.nerr > 0 for _rep, pd in pairs) == EXPECTED_BAD


@pytest.mark.benchmark(group="fig10-attribution")
def test_vet_drop_reps_pads(benchmark, sirius_gen, sirius_body):
    """The same vetting keeping only the bad records' indices: each rep
    is dropped as soon as it is checked.  The gap to
    ``test_vet_keep_reps_pads`` is what keeping the reps costs."""
    bad = benchmark(lambda: [i for i, (_rep, pd) in enumerate(
        sirius_gen.records(sirius_body, "entry_t")) if pd.nerr])
    assert len(bad) == EXPECTED_BAD
