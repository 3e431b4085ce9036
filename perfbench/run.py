#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sirius-vet --seed 1 --seconds 20 --trace 0

Writes the workload's inputs, generated from ``--seed``, to files; starts
the program in processes of its own; checks every output against a
reference that does not come from the engine under test; and prints, as
the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` is a separate traced run that reports the per-layer
metrics (and writes its spans to ``.perfbench_out/``).  The command exits
non-zero when any output is wrong.  ``perfbench/NOTES.md`` explains the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import serveload  # noqa: E402
from common import (BLOCK, OUT_ROOT, ROOT, WORK_ROOT,  # noqa: E402
                    child_env, median, merge_span_docs, use_source_tree)

WORKLOADS = ("sirius-vet", "clf-accum", "serve-mix")
#: Input sizes: Sirius orders, CLF records, call-detail records.
SIRIUS_ORDERS = 20_000
CLF_RECORDS = 20_000
CALL_RECORDS = 50_000
#: Fresh processes whose set-up time is sampled, per run.
SETUP_RUNS = 9
SERVE_SETUP_RUNS = 7
#: Fresh processes timing the compile steps in a traced run.
COMPILE_RUNS = 3
WARMUP_S = 1.5
#: Traced serve phase measured on the library workloads' traced runs.
SERVE_PROBE_S = 3.0
#: Wall-clock budget of one run; children are killed past it.
RUN_BUDGET_S = 170.0
#: What the benchmark needs from the checkout besides its own files.
REQUIRED = ("src/repro/__init__.py", "benchmarks/baselines.py")

UNITS = {
    "setup_s": "s", "throughput_mb_s": "MB/s", "throughput_req_s": "1/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MiB",
    "setup.import_ms": "ms", "dsl.parse_ms": "ms", "dsl.typecheck_ms": "ms",
    "plan.analyze_ms": "ms", "core.bind_ms": "ms", "codegen.compile_ms": "ms",
    "serve.register_ms": "ms",
    "core.io.count_mb_s": "MB/s", "core.parse_mb_s": "MB/s",
    "core.parse_nocheck_mb_s": "MB/s", "core.bad_record_frac": "ratio",
    "plan.fastpath_types": "count", "stream.parse_mb_s": "MB/s",
    "stream.refills": "count", "stream.high_water_kb": "KiB",
    "core.write_mb_s": "MB/s", "batch.parse_mb_s": "MB/s",
    "core.calls_parse_mb_s": "MB/s", "core.clf_parse_mb_s": "MB/s",
    "accum.add_mb_s": "MB/s", "accum.report_ms": "ms", "fmt.format_us": "us",
    **{f"serve.{d}-{m}.rtt_p50_ms": "ms" for d in ("calls", "clf")
       for m in ("count", "records", "accum")},
    "serve.dispatch_mean_ms": "ms", "serve.parse_mean_ms": "ms",
    "serve.wire_mean_ms": "ms", "serve.overhead_mean_ms": "ms",
    "serve.cache_hit_frac": "ratio", "serve.compiles": "count",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


class Run:
    """One benchmark run: its arguments, work directory and time budget."""

    def __init__(self, args):
        self.args = args
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"

    def worker(self, *argv) -> dict:
        """Run ``worker.py`` in a fresh process; its last output line."""
        cmd = [sys.executable, str(HERE / "worker.py"), *map(str, argv)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {argv[0]} ran out of time") from None
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {argv[0]} exited {proc.returncode}")
        return json.loads(lines[-1])


# -- inputs and references ----------------------------------------------------
#
# References come from the hand-written baselines or from plain byte
# counting, never from the engine under test.


def write_sirius(work: Path, seed: int) -> dict:
    from benchmarks.baselines import vet_sirius_line
    from repro.tools.datagen import sirius_workload
    data = sirius_workload(SIRIUS_ORDERS, random.Random(seed))
    (work / "sirius.dat").write_bytes(data)
    body = data.split(b"\n")[1:-1]  # header line first, newline last
    verdicts = [vet_sirius_line(line) for line in body]
    clean = b"".join(line + b"\n" for line, ok in zip(body, verdicts) if ok)
    return {"records": len(body),
            "bad": [i for i, ok in enumerate(verdicts) if not ok],
            "header_errors": 0,
            "clean_sha256": hashlib.sha256(clean).hexdigest()}


def write_clf(work: Path, seed: int) -> dict:
    from repro.tools.datagen import clf_workload
    data = clf_workload(CLF_RECORDS, random.Random(seed))
    (work / "clf.log").write_bytes(data)
    lines = data.split(b"\n")[:-1]
    return {"records": len(lines),
            "dash": sum(1 for line in lines
                        if line.rsplit(b" ", 1)[-1] == b"-")}


def write_calls(work: Path, seed: int) -> None:
    from repro.tools.datagen import call_detail_workload
    (work / "calls.dat").write_bytes(
        call_detail_workload(CALL_RECORDS, random.Random(seed)))


INPUTS = {"sirius-vet": ("sirius.dat", write_sirius),
          "clf-accum": ("clf.log", write_clf)}


# -- library workloads ----------------------------------------------------------


def library_worker(run: Run, ref: dict, seconds: float, trace: bool) -> dict:
    work, workload = run.work, run.args.workload
    (work / "ref.json").write_text(json.dumps(ref))
    argv = ["run", workload, "--input", work / INPUTS[workload][0],
            "--ref", work / "ref.json", "--out", work / "clean.out",
            "--seconds", seconds]
    return run.worker(*argv, *(["--trace"] if trace else []))


def library_end_to_end(run: Run) -> dict:
    args = run.args
    ref = INPUTS[args.workload][1](run.work, args.seed)
    setups = [run.worker("setup", args.workload)["setup_s"]
              for _ in range(SETUP_RUNS)]
    res = library_worker(run, ref, args.seconds, trace=False)
    s = res["plain"]
    print(f"perfbench: {s['passes']} passes, {s['samples']} latency "
          f"samples of {BLOCK} records, host-speed scale {s['scale']:.3f}",
          file=sys.stderr)
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": {"setup_s": median(setups + [res["setup_s"]]),
                        "throughput_mb_s": s["mb_s"],
                        "throughput_req_s": s["req_s"],
                        "latency_p50_ms": s["p50_ms"],
                        "latency_p90_ms": s["p90_ms"],
                        "peak_rss_mb": res["peak_rss_mb"]}}


def serve_end_to_end(run: Run) -> dict:
    res = serveload.end_to_end(run.args.seed, run.args.seconds,
                               SERVE_SETUP_RUNS, WARMUP_S)
    s = res["summary"]
    print(f"perfbench: {s['samples']} latency samples", file=sys.stderr)
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": {"setup_s": res["setup_s"],
                        "throughput_mb_s": s["mb_s"],
                        "throughput_req_s": s["req_s"],
                        "latency_p50_ms": s["p50_ms"],
                        "latency_p90_ms": s["p90_ms"],
                        "peak_rss_mb": res["peak_rss_mb"]}}


# -- the traced run -------------------------------------------------------------


def traced(run: Run) -> dict:
    """Per-layer metrics.  The workload's own loop runs untraced, then
    traced, for a third of ``--seconds`` each (their throughput gap is
    ``trace.overhead_pct``); then every layer probe runs, so each traced
    run reports every per-layer metric."""
    args, work = run.args, run.work
    refs = {name: write(work, args.seed)
            for name, (_file, write) in INPUTS.items()}
    write_calls(work, args.seed)
    third = args.seconds / 3
    parts = {}
    if args.workload == "serve-mix":
        serve = serveload.layer_run(args.seed, third, third, WARMUP_S)
        plain, slow = serve["plain"]["req_s"], serve["traced"]["req_s"]
        attempted, failed = serve["attempted"], serve["failed"]
    else:
        res = library_worker(run, refs[args.workload], third, trace=True)
        plain, slow = res["plain"]["mb_s"], res["traced"]["mb_s"]
        parts["workload"] = res["spans"]
        serve = serveload.layer_run(args.seed, 0, SERVE_PROBE_S, WARMUP_S)
        attempted = res["attempted"] + serve["attempted"]
        failed = res["failed"] + serve["failed"]
    parts["serve-client"] = merge_span_docs(serve["spans"])
    m = dict(serve["metrics"])
    m["trace.overhead_pct"] = (plain - slow) / plain * 100.0

    compiles = [run.worker("compile") for _ in range(COMPILE_RUNS)]
    for key, name in (("import_ms", "setup.import_ms"),
                      ("parse_ms", "dsl.parse_ms"),
                      ("typecheck_ms", "dsl.typecheck_ms"),
                      ("analyze_ms", "plan.analyze_ms"),
                      ("bind_ms", "core.bind_ms"),
                      ("codegen_ms", "codegen.compile_ms")):
        m[name] = median([c[key] for c in compiles])
    parts["compile"] = merge_span_docs(c["spans"] for c in compiles)

    layers = run.worker("layers", work)
    m.update(layers["metrics"])
    parts["layers"] = layers["spans"]
    attempted += 1
    failed += not layers["ok"]

    OUT_ROOT.mkdir(exist_ok=True)
    dump = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "parts": parts}))
    for part, doc in parts.items():
        print(f"perfbench: self time by span, {part}:", file=sys.stderr)
        for name, agg in sorted(doc["totals"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {name:36s} {agg['count']:8d} calls "
                  f"{agg['self_ms']:10.1f} ms self "
                  f"{agg['wall_ms']:10.1f} ms wall", file=sys.stderr)
    print(f"perfbench: spans written to {dump.relative_to(ROOT)}",
          file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": m}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    use_source_tree()
    sys.path.insert(0, str(ROOT))  # benchmarks.baselines
    # Import what the program processes import, so their bytecode is
    # cached before any set-up is timed.
    import repro.codegen  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.stream  # noqa: F401
    import repro.tools.padsc  # noqa: F401

    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = traced(run)
        elif args.workload == "serve-mix":
            out = serve_end_to_end(run)
        else:
            out = library_end_to_end(run)
    except (BenchError, serveload.ServeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for name, value in out["metrics"].items():
        print(f"perfbench: {name:28s} {value:14.4f} {UNITS[name]}",
              file=sys.stderr)
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {name: {"value": value, "unit": UNITS[name]}
                          for name, value in out["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
