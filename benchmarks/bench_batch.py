#!/usr/bin/env python
"""Batch engine: cursor vs columnar-kernel throughput on call-detail.

The batch engine's acceptance bar is a measured one: on a plan-proven
fixed-width gallery entry (the call-detail stream, 24-byte records) the
grid driver must parse at least **5x** the records/second of the PR-5
cursor engines.  This bench times both paths through both engines
(interpreted and generated), plus the record-counting floor, and writes
the results to ``BENCH_batch.json`` for ``check_plan_regression.py``
to gate.

Methodology notes (they matter at these speeds):

* every iteration drains through ``collections.deque(it, maxlen=0)`` —
  a C-level sink, so the harness measures the engines, not a Python
  ``for`` loop;
* one warm-up run per timer before measuring (the first kernel call
  pays ``struct.Struct`` compilation and code-object warm-up);
* best of ``PADS_BENCH_REPEATS`` runs (default 7) — the minimum is the
  run least disturbed by scheduler noise, which is what a throughput
  *ratio* gate needs to be reproducible on shared CI machines.

Scale with ``PADS_BENCH_RECORDS`` (default 20000; CI smoke uses 2000).

Run: ``python benchmarks/bench_batch.py [output.json]``
"""

import json
import os
import random
import sys
import time
from collections import deque

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import gallery  # noqa: E402
from repro.batch import batch_verdict, count_records_batch  # noqa: E402
from repro.codegen import compile_generated  # noqa: E402
from repro.core.io import FixedWidthRecords  # noqa: E402
from repro.tools.datagen import call_detail_workload  # noqa: E402

WIDTH = 24


def best_seconds(fn, repeats: int) -> float:
    fn()  # warm-up: kernel compilation, caches, branch warm paths
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def drain(iterable) -> None:
    deque(iterable, maxlen=0)


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_batch.json"
    n = int(os.environ.get("PADS_BENCH_RECORDS", "20000"))
    repeats = int(os.environ.get("PADS_BENCH_REPEATS", "7"))
    data = call_detail_workload(n, random.Random(13))

    disc = FixedWidthRecords(WIDTH)
    engines = {
        "interp": gallery.load_call_detail(),
        "gen": compile_generated(gallery.CALL_DETAIL, ambient="binary",
                                 discipline=disc),
    }

    from conftest import machine_line
    doc = {"machine": machine_line(),
           "records": n, "bytes": len(data), "repeats": repeats,
           "engines": {}}
    for name, d in engines.items():
        verdict = batch_verdict(d, "call_t")
        assert verdict.eligible, verdict.reason
        cursor_s = best_seconds(
            lambda d=d: drain(d.records(data, "call_t")), repeats)
        batch_s = best_seconds(
            lambda d=d: drain(d.records_batch(data, "call_t")), repeats)
        doc["engines"][name] = {
            "cursor_seconds": round(cursor_s, 6),
            "batch_seconds": round(batch_s, 6),
            "cursor_records_per_sec": round(n / cursor_s, 1),
            "batch_records_per_sec": round(n / batch_s, 1),
            "speedup": round(cursor_s / batch_s, 3),
        }

    interp = engines["interp"]
    count_cursor = best_seconds(
        lambda: interp.count_records(data), repeats)
    count_batch = best_seconds(
        lambda: count_records_batch(interp, data), repeats)
    doc["count"] = {
        "cursor_seconds": round(count_cursor, 6),
        "batch_seconds": round(count_batch, 6),
        "speedup": round(count_cursor / count_batch, 1),
    }

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)

    print(f"call-detail, {n} records x {repeats} runs (best):")
    for name, e in doc["engines"].items():
        print(f"  {name:6s} cursor {e['cursor_records_per_sec']:>12,.0f} rec/s"
              f"   batch {e['batch_records_per_sec']:>12,.0f} rec/s"
              f"   -> {e['speedup']:.2f}x")
    print(f"  count  {doc['count']['speedup']:.0f}x "
          f"(arithmetic vs record framing)")
    print(f"wrote {out_path}")

    # Sanity, not the gate (check_plan_regression.py owns the gate):
    # both paths must agree on the record count.
    total_b = sum(1 for _ in interp.records_batch(data, "call_t"))
    assert total_b == n, (total_b, n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
