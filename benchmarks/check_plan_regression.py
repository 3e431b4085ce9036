#!/usr/bin/env python
"""Gate on BENCH_plan.json: plan-driven engines must not regress.

Reads the pytest-benchmark JSON produced by ``bench_plan.py`` and
compares each plan-driven benchmark's median against its reference-mode
twin (``fastpath=False``, the pre-refactor parse path; for the
accumulator pair, the same fold through the tree walk instead of the
compiled adder; for the formatter pair, the formatting walk instead of
the compiled formatter; for the framing pair, a newline discipline that
frames one record per ``bounds`` step instead of a block at a time).
The plan-driven side carries the record and member fast functions, the
compiled record writer, the compiled adder, the compiled formatter and
the block framer, so it should be *faster*; the gate fails if any pair
is more than 5% slower than its reference.

It also bounds the general path on error records: the CLF records
with a ``-`` byte count (``test_interp_errors_plan``) may take at most
**2x** as long as as many clean CLF records (``test_interp_clean_plan``).

Optionally cross-checks against BENCH_parallel.json: its serial vetting
benchmark (``test_vet_serial``) measures the identical workload as
``test_interp_vet_plan``, so the two medians must agree within a
generous tolerance (guarding against the smoke comparing different
workloads after a refactor).

Also gates BENCH_batch.json when given: the record loop's grid block
step has an acceptance bar of a **5x** records/sec speedup over the
same loop taking one record at a time on the fixed-width call-detail
entry, enforced with the same 5% tolerance the plan pairs get (so the
required within-run ratio is ``5.0 / 1.05``).

Also gates BENCH_durable.json when given: the boundary index must keep
an indexed seek at least **5x** faster than scanning from byte zero to
the same record, and the measured checkpoint write cost must stay under
**5%** of the parse it rode on (the durable engine's acceptance bar,
ISSUE PR 9).

Usage::

    python benchmarks/check_plan_regression.py BENCH_plan.json \
        [BENCH_parallel.json] [BENCH_batch.json] [BENCH_durable.json]

Exits 0 when every gate holds, 1 otherwise.  Stdlib only.
"""

import json
import sys

#: (plan-driven benchmark, reference benchmark) pairs; the first must not
#: be slower than ``TOLERANCE`` times the second.
PAIRS = [
    ("test_interp_vet_plan", "test_interp_vet_reference"),
    ("test_interp_calls_plan", "test_interp_calls_reference"),
    ("test_interp_write_plan", "test_interp_write_reference"),
    ("test_interp_accum_plan", "test_interp_accum_reference"),
    ("test_interp_errors_plan", "test_interp_errors_reference"),
    ("test_fmt_plan", "test_fmt_reference"),
    ("test_frame_plan", "test_frame_reference"),
]

TOLERANCE = 1.05          # >5% regression fails
ERROR_RECORD_RATIO = 2.0  # error records vs as many clean ones
CROSS_TOLERANCE = 2.0     # sanity band for the BENCH_parallel cross-check
BATCH_SPEEDUP = 5.0       # the grid block step's acceptance bar
SEEK_SPEEDUP = 5.0        # indexed seek vs full scan floor (ISSUE PR 9)
CKPT_OVERHEAD_PCT = 5.0   # checkpoint write budget, % of the parse


def medians(path):
    with open(path) as handle:
        payload = json.load(handle)
    out = {}
    for bench in payload.get("benchmarks", []):
        out[bench["name"]] = bench["stats"]["median"]
    return out


def main(argv):
    if not argv:
        print(__doc__)
        return 1
    plan = medians(argv[0])
    failures = []

    for fast_name, ref_name in PAIRS:
        if fast_name not in plan or ref_name not in plan:
            failures.append(f"missing benchmark pair {fast_name}/{ref_name} "
                            f"in {argv[0]}")
            continue
        fast, ref = plan[fast_name], plan[ref_name]
        ratio = fast / ref if ref else float("inf")
        verdict = "OK" if ratio <= TOLERANCE else "REGRESSION"
        print(f"{fast_name}: {fast:.4f}s vs {ref_name}: {ref:.4f}s "
              f"-> {ratio:.3f}x ({verdict})")
        if ratio > TOLERANCE:
            failures.append(
                f"{fast_name} is {ratio:.3f}x its reference "
                f"(limit {TOLERANCE}x)")

    errors, clean = (plan.get("test_interp_errors_plan"),
                     plan.get("test_interp_clean_plan"))
    if errors is None or clean is None:
        failures.append(f"missing test_interp_errors_plan/"
                        f"test_interp_clean_plan in {argv[0]}")
    else:
        ratio = errors / clean if clean else float("inf")
        verdict = "OK" if ratio <= ERROR_RECORD_RATIO else "SLOW"
        print(f"error records: {errors:.4f}s vs as many clean records: "
              f"{clean:.4f}s -> {ratio:.3f}x (bar {ERROR_RECORD_RATIO}x) "
              f"({verdict})")
        if ratio > ERROR_RECORD_RATIO:
            failures.append(
                f"error records take {ratio:.3f}x as long as clean ones "
                f"(limit {ERROR_RECORD_RATIO}x)")

    if len(argv) > 1:
        par = medians(argv[1])
        if "test_interp_vet_plan" in plan and "test_vet_serial" in par:
            a, b = plan["test_interp_vet_plan"], par["test_vet_serial"]
            ratio = max(a, b) / min(a, b) if min(a, b) else float("inf")
            verdict = "OK" if ratio <= CROSS_TOLERANCE else "MISMATCH"
            print(f"cross-check vs BENCH_parallel test_vet_serial: "
                  f"{a:.4f}s vs {b:.4f}s -> {ratio:.3f}x ({verdict})")
            if ratio > CROSS_TOLERANCE:
                failures.append(
                    f"plan vetting median diverges {ratio:.3f}x from "
                    f"BENCH_parallel's serial vetting (limit "
                    f"{CROSS_TOLERANCE}x) — are the workloads still the "
                    "same?")

    if len(argv) > 2:
        with open(argv[2]) as handle:
            batch = json.load(handle)
        floor = BATCH_SPEEDUP / TOLERANCE
        speedups = {name: e["speedup"]
                    for name, e in batch.get("engines", {}).items()}
        if not speedups:
            failures.append(f"no engine results in {argv[2]}")
        for name, speedup in sorted(speedups.items()):
            verdict = "OK" if speedup >= floor else "SLOW"
            print(f"grid speedup ({name}): {speedup:.2f}x over one record "
                  f"at a time (bar {BATCH_SPEEDUP}x, floor {floor:.2f}x) "
                  f"({verdict})")
        if speedups and max(speedups.values()) < floor:
            failures.append(
                f"grid block step speedup {max(speedups.values()):.2f}x is "
                f"below the {BATCH_SPEEDUP}x bar (floor {floor:.2f}x with "
                f"the {TOLERANCE}x tolerance)")

    if len(argv) > 3:
        with open(argv[3]) as handle:
            dur = json.load(handle)
        seek = dur.get("seek", {}).get("speedup")
        overhead = dur.get("checkpoint", {}).get("overhead_pct")
        if seek is None or overhead is None:
            failures.append(f"no seek/checkpoint results in {argv[3]}")
        else:
            verdict = "OK" if seek >= SEEK_SPEEDUP else "SLOW"
            print(f"indexed seek: {seek:.1f}x over a scan to the same "
                  f"record (floor {SEEK_SPEEDUP}x) ({verdict})")
            if seek < SEEK_SPEEDUP:
                failures.append(
                    f"indexed seek speedup {seek:.1f}x is below the "
                    f"{SEEK_SPEEDUP}x floor")
            verdict = "OK" if overhead <= CKPT_OVERHEAD_PCT else "COSTLY"
            print(f"checkpoint writes: {overhead:.2f}% of the parse "
                  f"(budget {CKPT_OVERHEAD_PCT}%) ({verdict})")
            if overhead > CKPT_OVERHEAD_PCT:
                failures.append(
                    f"checkpoint overhead {overhead:.2f}% exceeds the "
                    f"{CKPT_OVERHEAD_PCT}% budget")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
