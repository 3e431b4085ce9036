#!/usr/bin/env python
"""Durable runs: what the boundary index buys and what checkpoints cost.

Four numbers, measured on a >= 100 MB synthetic CLF log:

* **Index build overhead** — sampling sealed-record offsets during a
  full serial scan versus the same scan bare.  The sink is one ``is
  None`` test per record plus an append every N records, so this should
  be noise.
* **Indexed seek speedup** — positioning a cursor on record ~0.9*total
  via ``open_at_record`` (one ``seek`` + <= interval record walks)
  versus scanning from byte 0.  This is the headline: the gate in
  ``check_plan_regression.py`` holds it above ``SEEK_SPEEDUP``x.
* **Chunk-plan speedup** — ``plan_chunks_indexed`` (arithmetic over
  sampled offsets) versus ``plan_chunks`` (seek + boundary scan per
  probe point).
* **Checkpoint overhead** — seconds spent inside ``_write_checkpoint``
  (pickle + fsync + rename) during a checkpointed accumulation
  (``durable.drive`` with the ``accum`` fold) over a record-aligned ~8 MB slice, as a fraction of the parse they
  rode on.  The gate holds this under 5%.  A plain-vs-checkpointed A/B
  wall-clock delta and a crash+resume run are also reported, but not
  gated: on a shared box their noise floor is well above the
  millisecond-scale cost being measured.

Results go to ``BENCH_durable.json``.  Scale with
``PADS_BENCH_DURABLE_MB`` (default 100; CI smoke uses 8).

Run: ``python benchmarks/bench_durable.py [output.json]``
"""

import json
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import durable, gallery  # noqa: E402
from repro.execute import Fold  # noqa: E402
from repro.codegen import compile_generated  # noqa: E402
from repro.core.io import MIN_CHUNK_BYTES, plan_chunks  # noqa: E402
from repro.tools.datagen import clf_workload  # noqa: E402

GEN_BATCH = 5_000          # records per generation chunk (~0.8 MB)
SLICE_BYTES = 8 << 20      # checkpoint-overhead workload (record-aligned)
REPEATS = 3                # best-of-N for the overhead comparisons


def synthesize(path: str, target_bytes: int) -> int:
    rng = random.Random(20050612)
    size = 0
    with open(path, "wb") as out:
        while size < target_bytes:
            chunk = clf_workload(GEN_BATCH, rng)
            out.write(chunk)
            size += len(chunk)
    return size


def record_slice(log: str, out_path: str, limit: int) -> int:
    """Copy the first <= ``limit`` bytes of ``log``, cut on a newline."""
    with open(log, "rb") as handle:
        blob = handle.read(limit)
    blob = blob[:blob.rfind(b"\n") + 1]
    with open(out_path, "wb") as out:
        out.write(blob)
    return len(blob)


def best_of(repeats, fn):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_durable.json"
    target_mb = float(os.environ.get("PADS_BENCH_DURABLE_MB", "100"))
    gen = compile_generated(gallery.CLF)
    discipline = gen.discipline

    with tempfile.NamedTemporaryFile(suffix=".log", delete=False) as tmp:
        log = tmp.name
    slice_log = log + ".slice"
    try:
        size = synthesize(log, int(target_mb * (1 << 20)))
        size_mb = size / (1 << 20)

        # -- index build overhead: sampled scan vs bare scan ------------
        def bare_count():
            src = gen.open_file(log)
            with src:
                n = 0
                while src.begin_record():
                    src.end_record()
                    n += 1
            return n

        scan_s, records = best_of(REPEATS, bare_count)
        build_s, (idx, idx_path) = best_of(
            REPEATS, lambda: durable.build_index(
                gen, log, interval=durable.DEFAULT_INDEX_INTERVAL))
        assert idx.records == records, (idx.records, records)
        build_overhead_pct = (build_s - scan_s) / scan_s * 100.0

        # -- indexed seek vs scan-from-zero -----------------------------
        target = int(records * 0.9)

        def scan_to_target():
            src = gen.open_file(log)
            with src:
                for _ in range(target):
                    src.begin_record()
                    src.end_record()
                src.begin_record()
                got = src.record_bytes()
                src.end_record()
            return got

        def seek_to_target():
            src = durable.open_at_record(gen, log, target, idx)
            with src:
                src.begin_record()
                got = src.record_bytes()
                src.end_record()
            return got

        scan_seek_s, by_scan = best_of(REPEATS, scan_to_target)
        seek_s, by_seek = best_of(REPEATS, seek_to_target)
        assert by_scan == by_seek
        seek_speedup = scan_seek_s / seek_s

        # -- chunk planning: offset arithmetic vs boundary probing ------
        jobs = 8

        def plan_scan():
            with open(log, "rb") as handle:
                return plan_chunks(handle, size, discipline, jobs)

        plan_scan_s, chunks_scan = best_of(REPEATS, plan_scan)
        plan_idx_s, chunks_idx = best_of(
            REPEATS, lambda: durable.plan_chunks_indexed(idx, jobs))
        assert chunks_idx[0][0] == 0 and chunks_idx[-1][1] == size

        # -- checkpoint overhead + crash/resume on the ~8 MB slice ------
        slice_size = record_slice(log, slice_log, SLICE_BYTES)

        def accum(**kw):
            return durable.drive(gen, slice_log, Fold("accum", "entry_t"),
                                 build_index=False, **kw)

        # The gated number is the *instrumented* cost: seconds spent
        # inside _write_checkpoint during the run, over the parse it
        # rode on.  An A/B wall-clock delta of two multi-second runs on
        # a shared box swings an order of magnitude more than the ~ms
        # the writes actually take, so it is reported but not gated
        # (the runs are interleaved to cancel slow clock drift).
        write_cost = [0.0]
        orig_write = durable._write_checkpoint

        def timed_write(path, payload):
            t0 = time.perf_counter()
            orig_write(path, payload)
            write_cost[0] += time.perf_counter() - t0

        plain_ts, ckpt_ts, write_ts = [], [], []
        durable._write_checkpoint = timed_write
        try:
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                _, tally = accum(checkpoint=None)
                plain_ts.append(time.perf_counter() - t0)
                write_cost[0] = 0.0
                t0 = time.perf_counter()
                accum()
                ckpt_ts.append(time.perf_counter() - t0)
                write_ts.append(write_cost[0])
        finally:
            durable._write_checkpoint = orig_write
        plain_s, ckpt_s = min(plain_ts), min(ckpt_ts)
        write_s = write_ts[ckpt_ts.index(ckpt_s)]
        ckpt_overhead_pct = write_s / (ckpt_s - write_s) * 100.0
        ab_delta_pct = (ckpt_s - plain_s) / plain_s * 100.0
        slice_records = tally.records
        n_writes = slice_records // durable.DEFAULT_CHECKPOINT_INTERVAL

        def crash_then_resume():
            durable._CRASH_AFTER = slice_records // 2
            try:
                accum()
            except durable._InjectedCrash:
                pass
            finally:
                durable._CRASH_AFTER = None
            return accum(resume=True)

        t0 = time.perf_counter()
        crash_then_resume()
        interrupted_s = time.perf_counter() - t0
        resume_overhead_pct = (interrupted_s - ckpt_s) / ckpt_s * 100.0

        from conftest import machine_line
        doc = {
            "machine": machine_line(),
            "size_mb": round(size_mb, 2),
            "records": records,
            "index": {
                "interval": durable.DEFAULT_INDEX_INTERVAL,
                "file_bytes": os.path.getsize(idx_path),
                "scan_seconds": round(scan_s, 3),
                "build_seconds": round(build_s, 3),
                "build_overhead_pct": round(build_overhead_pct, 2),
            },
            "seek": {
                "target_record": target,
                "scan_seconds": round(scan_seek_s, 4),
                "seek_seconds": round(seek_s, 6),
                "speedup": round(seek_speedup, 1),
            },
            "plan": {
                "jobs": jobs,
                "chunks": len(chunks_idx),
                "scan_seconds": round(plan_scan_s, 6),
                "indexed_seconds": round(plan_idx_s, 6),
                "speedup": round(plan_scan_s / plan_idx_s, 1)
                if plan_idx_s else None,
            },
            "checkpoint": {
                "slice_mb": round(slice_size / (1 << 20), 2),
                "slice_records": slice_records,
                "interval": durable.DEFAULT_CHECKPOINT_INTERVAL,
                "writes": n_writes,
                "plain_seconds": round(plain_s, 3),
                "checkpointed_seconds": round(ckpt_s, 3),
                "write_seconds": round(write_s, 4),
                "overhead_pct": round(ckpt_overhead_pct, 2),
                "ab_delta_pct": round(ab_delta_pct, 2),
                "interrupted_resumed_seconds": round(interrupted_s, 3),
                "resume_overhead_pct": round(resume_overhead_pct, 2),
            },
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)

        print(f"indexed {size_mb:.0f} MB / {records} records "
              f"(every {durable.DEFAULT_INDEX_INTERVAL}, "
              f"{doc['index']['file_bytes']} bytes on disk)")
        print(f"  build overhead: {build_overhead_pct:+.1f}% over the "
              f"bare {scan_s:.2f}s scan")
        print(f"  seek to record {target}: {seek_s * 1e3:.2f} ms vs "
              f"{scan_seek_s:.2f}s scan -> {seek_speedup:.0f}x")
        print(f"  plan {len(chunks_idx)} chunks: {plan_idx_s * 1e6:.0f} us "
              f"indexed vs {plan_scan_s * 1e6:.0f} us probing")
        print(f"checkpoints every {durable.DEFAULT_CHECKPOINT_INTERVAL} "
              f"records on {doc['checkpoint']['slice_mb']} MB: "
              f"{ckpt_overhead_pct:+.2f}% in {n_writes} writes "
              f"({write_s * 1e3:.1f} ms; A/B delta {ab_delta_pct:+.1f}%); "
              f"crash+resume {resume_overhead_pct:+.1f}% vs uninterrupted")
        print(f"wrote {out_path}")

        # The contracts, not just the numbers (the committed-snapshot
        # gate in check_plan_regression.py re-checks these offline):
        assert seek_speedup >= 5.0, \
            f"indexed seek only {seek_speedup:.1f}x over a full scan"
        assert ckpt_overhead_pct <= 5.0, \
            f"checkpointing cost {ckpt_overhead_pct:.1f}% (> 5% budget)"
        return 0
    finally:
        for leftover in (log, slice_log, log + durable.INDEX_SUFFIX,
                         slice_log + durable.CHECKPOINT_SUFFIX):
            try:
                os.unlink(leftover)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
