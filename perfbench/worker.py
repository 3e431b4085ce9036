#!/usr/bin/env python3
"""Program-side processes of the benchmark.

``run.py`` starts this file in a fresh interpreter for every measurement
that belongs to the program under test, so set-up time and peak memory
are those of a process that was handed nothing but input files:

``setup WORKLOAD``
    Import the library and compile the workload's description, then exit.
``run WORKLOAD --input F --ref F --out F --seconds S [--trace]``
    Set up, run one warm-up pass, then passes until ``S`` seconds are
    spent.  Every pass is checked against the reference ``run.py``
    computed without the engine.  With ``--trace`` a second, traced phase
    of ``S`` seconds follows, with a span around every call into the
    library.
``compile``
    Cold per-step compile times: import, parse, typecheck, analyze, bind,
    code generation.
``layers WORKDIR``
    Record- and output-layer probes over the generated input files.

Each mode prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

from common import (BLOCK, CALIBRATION_S, MB, BlockClock, NullSpans, Spans,
                    calibrate, median, p90, peak_rss_mb, use_source_tree)

use_source_tree()

NULL = NullSpans()
#: Values per position in an accumulator report (``padsc accum --top``).
REPORT_TOP = 10


def load(workload: str):
    """The workload's set-up: import the library and compile its
    description.  Returns ``(description, seconds)``."""
    t0 = perf_counter()
    import repro
    from repro import gallery
    if workload == "sirius-vet":
        import repro.stream  # noqa: F401 - the vetter reads through it
        from repro.codegen import compile_generated
        desc = compile_generated(gallery.SIRIUS)
    else:
        import repro.tools.accum  # noqa: F401 - the accumulator program
        desc = repro.compile_description(gallery.CLF)
    return desc, perf_counter() - t0


def scaled_setup(workload: str):
    """``load``, its time scaled to the reference core by calibration
    samples taken just before and just after it."""
    cal = [calibrate() for _ in range(3)]
    desc, seconds = load(workload)
    cal += [calibrate() for _ in range(3)]
    return desc, seconds * CALIBRATION_S / median(cal)


class Traced:
    """A description whose public calls each record a span; the traced
    phase hands the same pass code one of these instead of the
    description itself."""

    def __init__(self, desc, tr: Spans):
        self._desc = desc
        self._tr = tr

    def __getattr__(self, name):
        return getattr(self._desc, name)

    def _span(self, name, fn, args, kwargs):
        self._tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._tr.end()

    def _iter(self, name, it):
        tr = self._tr
        while True:
            tr.begin(name)
            try:
                item = next(it)
            except StopIteration:
                tr.end()
                return
            tr.end()
            yield item

    def open_file(self, *args, **kwargs):
        return self._span("core.io.open_file", self._desc.open_file,
                          args, kwargs)

    def parse(self, *args, **kwargs):
        return self._span("core.parse", self._desc.parse, args, kwargs)

    def write(self, *args, **kwargs):
        return self._span("core.write", self._desc.write, args, kwargs)

    def records(self, *args, **kwargs):
        return self._iter("core.records", self._desc.records(*args, **kwargs))

    def records_stream(self, *args, **kwargs):
        return self._iter("stream.records_stream",
                          self._desc.records_stream(*args, **kwargs))


class Blocked:
    """Hands ``accumulate_records`` a description whose ``records``
    iterator ticks the block clock every ``BLOCK`` records it yields."""

    def __init__(self, desc, clock: BlockClock):
        self._desc = desc
        self._clock = clock

    def __getattr__(self, name):
        return getattr(self._desc, name)

    def records(self, *args, **kwargs):
        n = 0
        for item in self._desc.records(*args, **kwargs):
            yield item
            n += 1
            if n % BLOCK == 0:
                self._clock.block()


def vet_pass(desc, path: str, out_path: str, clock: BlockClock, tr):
    """The paper's Figure 7 vetting program: parse every order with all
    checks on through the stream window, write clean records back out in
    physical form, note the index of every bad one."""
    from repro.stream import open_stream
    bad = []
    n = 0
    paused = clock.paused
    t0 = perf_counter()
    clock.restart()
    tr.begin("stream.open_stream")
    src = open_stream(path, desc.discipline)
    tr.end()
    with open(out_path, "wb") as out:
        _header, hpd = desc.parse(src, "summary_header_t")
        for rep, pd in desc.records_stream(src, "entry_t"):
            if pd.nerr:
                bad.append(n)
            else:
                out.write(desc.write(rep, "entry_t"))
            n += 1
            if n % BLOCK == 0:
                clock.block()
    dt = perf_counter() - t0 - (clock.paused - paused)
    return dt, {"records": n, "bad": bad, "header_errors": hpd.nerr,
                "clean_sha256": file_sha256(out_path)}


def accum_pass(desc, path: str, clock: BlockClock, tr):
    """The paper's Section 5.2 accumulator program, on the path ``padsc
    accum`` takes: ``accumulate_records`` over ``Source.from_file``, then
    the full report."""
    from repro.tools.accum import accumulate_records
    paused = clock.paused
    t0 = perf_counter()
    clock.restart()
    src = desc.open_file(path)
    try:
        tr.begin("tools.accum.accumulate_records")
        acc, _header, count = accumulate_records(
            Blocked(desc, clock), src, "entry_t")
        tr.end()
    finally:
        src.close()
    tr.begin("tools.accum.full_report")
    report = acc.full_report(REPORT_TOP)
    tr.end()
    dt = perf_counter() - t0 - (clock.paused - paused)
    return dt, {"records": count, "dash": acc.field("length").self_acc.bad,
                "report_sha256": hashlib.sha256(report.encode()).hexdigest()}


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run(args) -> dict:
    desc, setup_s = scaled_setup(args.workload)
    ref = json.loads(Path(args.ref).read_text())
    size = os.path.getsize(args.input)
    if args.workload == "sirius-vet":
        def one(d, clock, tr):
            return vet_pass(d, args.input, args.out, clock, tr)
    else:
        def one(d, clock, tr):
            return accum_pass(d, args.input, clock, tr)

    # Warm-up: fills regex caches and the lazy imports of stream/batch.
    # Its output must match the reference; every timed pass must then
    # reproduce it exactly (the accumulator report included).
    _dt, warm = one(desc, BlockClock(), NULL)
    counts = {"attempted": 1,
              "failed": int(any(warm[k] != v for k, v in ref.items()))}

    def phase(d, tr, seconds):
        """Passes until ``seconds`` are spent; times scaled to the
        reference core (see ``common.calibrate``)."""
        times, records, clock = [], [], BlockClock()
        stop = perf_counter() + seconds
        while True:
            first = len(clock.cal)
            tr.begin("bench.pass", counts["attempted"])
            dt, out = one(d, clock, tr)
            tr.end()
            counts["attempted"] += 1
            counts["failed"] += out != warm
            times.append(dt * clock.scale_since(first))
            records.append(out["records"])
            if perf_counter() >= stop:
                break
        lat = clock.scaled_latencies()
        return {"passes": len(times), "samples": len(lat),
                "scale": clock.scale_since(0),
                "mb_s": median([size / t / MB for t in times]),
                "req_s": median([n / BLOCK / t
                                 for n, t in zip(records, times)]),
                "p50_ms": median(lat) * 1e3, "p90_ms": p90(lat) * 1e3}

    result = {"setup_s": setup_s, "plain": phase(desc, NULL, args.seconds)}
    if args.trace:
        tr = Spans()
        result["traced"] = phase(Traced(desc, tr), tr, args.seconds)
        result["spans"] = tr.to_json()
    result.update(counts, peak_rss_mb=peak_rss_mb())
    return result


def compile_probe() -> dict:
    """Cold compile steps in a fresh process, each in its own span."""
    tr = Spans()
    tr.begin("setup.import")
    import repro
    from repro import gallery
    from repro.codegen import compile_generated
    from repro.core.binding import bind_description
    from repro.dsl.parser import parse_description
    from repro.dsl.typecheck import check_description
    from repro.plan import analyze
    import repro.stream  # noqa: F401
    import repro.tools.accum  # noqa: F401
    tr.end()
    front = 0.0
    for name, text, ambient in (("sirius", gallery.SIRIUS, "ascii"),
                                ("clf", gallery.CLF, "ascii"),
                                ("calls", gallery.CALL_DETAIL, "binary")):
        tr.begin("compile", name)
        ast, t_parse = tr.call("dsl.parse_description", parse_description,
                               text)
        _, t_check = tr.call("dsl.check_description", check_description,
                             ast, ambient)
        plan, t_plan = tr.call("plan.analyze", analyze, ast, ambient)
        tr.call("core.bind_description", bind_description, ast, ambient, plan)
        tr.end()
        if name == "sirius":
            front = t_parse + t_check + t_plan
    _, t_gen = tr.call("codegen.compile_generated", compile_generated,
                       gallery.SIRIUS)
    return {"import_ms": tr.wall("setup.import") * 1e3,
            "parse_ms": tr.wall("dsl.parse_description") * 1e3,
            "typecheck_ms": tr.wall("dsl.check_description") * 1e3,
            "analyze_ms": tr.wall("plan.analyze") * 1e3,
            "bind_ms": tr.wall("core.bind_description") * 1e3,
            "codegen_ms": (t_gen - front) * 1e3,
            "spans": tr.to_json()}


def layer_probes(workdir: str) -> dict:
    """One timed call per layer function, over the run's input files:
    the Sirius file on the generated engine, the CLF log and a
    call-detail file on the interpreter."""
    import repro
    from repro import gallery, observe
    from repro.codegen import compile_generated
    from repro.core.io import FixedWidthRecords
    from repro.core.masks import Mask, P_Set
    from repro.stream import open_stream
    from repro.tools.accum import Accumulator
    from repro.tools.fmt import format_value

    work = Path(workdir)
    s_path, c_path = str(work / "sirius.dat"), str(work / "clf.log")
    s_size, c_size = os.path.getsize(s_path), os.path.getsize(c_path)
    calls_data = (work / "calls.dat").read_bytes()
    sirius = compile_generated(gallery.SIRIUS)
    clf = repro.compile_description(gallery.CLF)
    calls = repro.compile_description(
        gallery.CALL_DETAIL, ambient="binary",
        discipline=FixedWidthRecords(gallery.CALL_DETAIL_WIDTH))
    tr = Spans()
    m = {}

    def drain(name, pairs):
        tr.begin(name)
        n = bad = 0
        for _rep, pd in pairs:
            n += 1
            bad += pd.nerr > 0
        return n, bad, tr.end()

    def sirius_body(src):
        sirius.parse(src, "summary_header_t")
        return src

    # Warm-up (regex caches, lazy imports), untimed.
    with sirius.open_file(s_path) as src:
        drain("warmup", sirius.records(sirius_body(src), "entry_t"))
    with clf.open_file(c_path) as src:
        drain("warmup", islice(clf.records(src, "entry_t"), 2000))
    head = calls_data[:1000 * gallery.CALL_DETAIL_WIDTH]
    drain("warmup", calls.records(head, "call_t"))
    drain("warmup", calls.records_batch(head, "call_t"))

    with sirius.open_file(s_path) as src:
        tr.begin("core.count_records")
        n_count = sirius.count_records(src)
        m["core.io.count_mb_s"] = s_size / tr.end() / MB
    with sirius.open_file(s_path) as src:
        n, bad, dt = drain("core.records", sirius.records(sirius_body(src),
                                                          "entry_t"))
    m["core.parse_mb_s"] = s_size / dt / MB
    m["core.bad_record_frac"] = bad / n
    with sirius.open_file(s_path) as src:
        n_nocheck, _, dt = drain("core.records.nocheck", sirius.records(
            sirius_body(src), "entry_t", Mask(P_Set)))
    m["core.parse_nocheck_mb_s"] = s_size / dt / MB
    src = sirius_body(open_stream(s_path, sirius.discipline))
    n_stream, bad_stream, dt = drain(
        "stream.records_stream", sirius.records_stream(src, "entry_t"))
    m["stream.parse_mb_s"] = s_size / dt / MB
    with observe.observed() as obs:
        src = sirius_body(open_stream(s_path, sirius.discipline))
        drain("stream.records_stream.observed",
              sirius.records_stream(src, "entry_t"))
    m["stream.refills"] = obs.metrics.value("stream.refills")
    m["stream.high_water_kb"] = obs.metrics.value("stream.high_water") / 1024
    written, t_write = 0, 0.0
    tr.begin("core.write.loop")
    with sirius.open_file(s_path) as src:
        for rep, pd in sirius.records(sirius_body(src), "entry_t"):
            if pd.nerr == 0:
                t = perf_counter()
                written += len(sirius.write(rep, "entry_t"))
                t_write += perf_counter() - t
    tr.end()
    m["core.write_mb_s"] = written / t_write / MB

    n_calls, bad_calls, dt = drain("core.records.calls",
                                   calls.records(calls_data, "call_t"))
    m["core.calls_parse_mb_s"] = len(calls_data) / dt / MB
    n_batch, bad_batch, dt = drain("batch.records_batch",
                                   calls.records_batch(calls_data, "call_t"))
    m["batch.parse_mb_s"] = len(calls_data) / dt / MB

    with clf.open_file(c_path) as src:
        tr.begin("core.records.clf")
        pairs = list(clf.records(src, "entry_t"))
        m["core.clf_parse_mb_s"] = c_size / tr.end() / MB
    node = clf.node("entry_t")
    acc = Accumulator(node, "<top>")
    tr.begin("tools.accum.add")
    for rep, pd in pairs:
        acc.add(rep, pd)
    m["accum.add_mb_s"] = c_size / tr.end() / MB
    reports = [tr.call("tools.accum.full_report", acc.full_report,
                       REPORT_TOP)[1] for _ in range(3)]
    m["accum.report_ms"] = median(reports) * 1e3
    tr.begin("tools.fmt.format_value")
    for rep, _pd in pairs:
        format_value(node, rep, delims=("|",))
    m["fmt.format_us"] = tr.end() / len(pairs) * 1e6
    m["plan.fastpath_types"] = sum(
        1 for d in (sirius, clf, calls) for dp in d.plan.decls.values()
        if dp.is_record and dp.verdict.eligible)

    # The engines must agree with each other on what they saw.
    ok = (n_count == n + 1 and n == n_nocheck == n_stream
          and bad == bad_stream
          and n_calls == n_batch == len(calls_data) // gallery.CALL_DETAIL_WIDTH
          and bad_calls == bad_batch)
    return {"metrics": m, "ok": ok, "spans": tr.to_json()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=("sirius-vet", "clf-accum"))
    p = sub.add_parser("run")
    p.add_argument("workload", choices=("sirius-vet", "clf-accum"))
    p.add_argument("--input", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    sub.add_parser("compile")
    p = sub.add_parser("layers")
    p.add_argument("workdir")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": scaled_setup(args.workload)[1]}
    elif args.mode == "run":
        result = run(args)
    elif args.mode == "compile":
        result = compile_probe()
    else:
        result = layer_probes(args.workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
