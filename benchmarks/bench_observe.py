"""Observability overhead: untraced vs metered vs traced throughput.

The observability layer's contract is a near-free disabled path: the
record loop checks one module global per record, and the per-position
trace hooks cost one hoisted local test each.  This bench quantifies the
three states on the Sirius record stream:

* **baseline** — no observer installed (the production default),
* **metered**  — ``observe.observed()``: counters + histograms per record,
* **traced**   — ``observe.observed(trace=True)``: a ``record`` event per
  record plus enter/exit events per field, taken branch and element
  (a traced pass takes no fast function, so every record parses through
  the type combinators).

Correctness is asserted inside every benchmark: enabling observation must
not change the records parsed.  Run with ``pytest benchmarks/bench_observe.py
--benchmark-only``; CI uploads the results as ``BENCH_observe.json``.
"""

from collections import Counter

import pytest

from repro import observe

from .conftest import N_RECORDS


def _drain(description, data):
    n = 0
    for _rep, _pd in description.records(data, "entry_t"):
        n += 1
    return n


class _KindCount:
    """A trace sink counting the JSONL events it receives by kind."""

    def __init__(self):
        self.counts = Counter()

    def write(self, line: str) -> None:
        # Each line opens with {"kind":"<kind>"
        self.counts[line[9:line.index('"', 9)]] += 1


@pytest.mark.benchmark(group="observe")
def test_baseline(benchmark, sirius_interp, sirius_body):
    assert observe.CURRENT is None
    assert benchmark(_drain, sirius_interp, sirius_body) == N_RECORDS


@pytest.mark.benchmark(group="observe")
def test_metered(benchmark, sirius_interp, sirius_body):
    def run():
        with observe.observed() as obs:
            n = _drain(sirius_interp, sirius_body)
        return n, obs.metrics.value("records.total")

    n, total = benchmark(run)
    assert n == N_RECORDS and total == N_RECORDS


@pytest.mark.benchmark(group="observe")
def test_traced(benchmark, sirius_interp, sirius_body):
    def run():
        # Bounded buffer: tracing cost, not list-growth cost.
        with observe.observed(trace=True, max_events=10_000) as obs:
            n = _drain(sirius_interp, sirius_body)
        return n, len(obs.tracer.events) + obs.tracer.dropped

    n, events = benchmark(run)
    assert n == N_RECORDS
    # The bounded buffer drops most events, so one untimed pass counts
    # them all by kind through a sink.
    kinds = _KindCount()
    with observe.observed(trace_sink=kinds, max_events=0):
        assert _drain(sirius_interp, sirius_body) == N_RECORDS
    assert kinds.counts["record"] == N_RECORDS
    assert sum(kinds.counts.values()) == events
    assert kinds.counts["enter"] == kinds.counts["exit"] > N_RECORDS
