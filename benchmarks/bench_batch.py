#!/usr/bin/env python
"""Grid block step: the record loop with and without it on call-detail.

The record loop (``repro.core.types.record_loop``) parses a record whose
layout is provably static either one record at a time, through the
record's fast function (its batch kernel over one record), or a block
of buffered records at a time, through one batch-kernel call per block
(the grid block step, ``Source.grid_frames``).  This bench times both
sides of that one switch — the frames the loop is handed — on the
plan-proven fixed-width gallery entry (the call-detail stream, 24-byte
records) and writes the ratio to ``BENCH_batch.json`` for
``check_plan_regression.py`` to gate against its 5x bar.

Methodology notes (they matter at these speeds):

* every iteration drains through ``collections.deque(it, maxlen=0)`` —
  a C-level sink, so the harness measures the loop, not a Python
  ``for`` loop;
* both sides read the same in-memory bytes through a fresh Source, with
  the same fast function, general parser and mask, so the grid is the
  only difference;
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
from repro.core.api import _parsed_or  # noqa: E402
from repro.core.masks import Mask, P_CheckAndSet  # noqa: E402
from repro.core.types import record_loop  # noqa: E402
from repro.tools.datagen import call_detail_workload  # noqa: E402


def best_seconds(fn, repeats: int) -> float:
    fn()  # warm-up: kernel compilation, caches, branch warm paths
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_batch.json"
    n = int(os.environ.get("PADS_BENCH_RECORDS", "20000"))
    repeats = int(os.environ.get("PADS_BENCH_REPEATS", "7"))
    data = call_detail_workload(n, random.Random(13))

    desc = gallery.load_call_detail()
    grid = desc.grid("call_t")
    assert isinstance(grid, tuple), grid.reason
    node = desc.node("call_t")
    mask = Mask(P_CheckAndSet)

    def loop(step):
        src = desc.open(data)
        if step is None:
            return record_loop(src, src.frames(), mask, node.fast_fn,
                               node.inner, {})
        return record_loop(src, src.grid_frames(*step, True), mask,
                           _parsed_or(node.fast_fn), node.inner, {})

    record_s = best_seconds(lambda: deque(loop(None), maxlen=0), repeats)
    grid_s = best_seconds(lambda: deque(loop(grid), maxlen=0), repeats)

    from conftest import machine_line
    doc = {"machine": machine_line(),
           "records": n, "bytes": len(data), "repeats": repeats,
           "engines": {"interp": {
               "per_record_seconds": round(record_s, 6),
               "grid_seconds": round(grid_s, 6),
               "per_record_records_per_sec": round(n / record_s, 1),
               "grid_records_per_sec": round(n / grid_s, 1),
               "speedup": round(record_s / grid_s, 3),
           }}}

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)

    e = doc["engines"]["interp"]
    print(f"call-detail, {n} records x {repeats} runs (best):")
    print(f"  per record {e['per_record_records_per_sec']:>12,.0f} rec/s"
          f"   grid {e['grid_records_per_sec']:>12,.0f} rec/s"
          f"   -> {e['speedup']:.2f}x")
    print(f"wrote {out_path}")

    # Sanity, not the gate (check_plan_regression.py owns the gate):
    # both sides must yield the same records.
    got = [r for r, _ in loop(grid)]
    assert len(got) == n and got == [r for r, _ in loop(None)]
    return 0


if __name__ == "__main__":
    sys.exit(main())
