"""``padsc`` — the PADS command line.

Bundles the compiler and every generated tool the paper describes behind
one entry point::

    padsc compile  desc.pads -o desc_parser.py        # generate a parser module
    padsc check    desc.pads                          # parse + typecheck only
    padsc plan     desc.pads                          # analyzed plan IR
    padsc accum    desc.pads data --record entry_t    # statistical profile (5.2)
    padsc fmt      desc.pads data --record entry_t --delims '|'   # (5.3.1)
    padsc xml      desc.pads data --record entry_t    # canonical XML (5.3.2)
    padsc xsd      desc.pads                          # XML Schema (5.3.2)
    padsc query    desc.pads data 'es/entry[...]'     # XQuery subset (5.4)
    padsc gen      desc.pads --type entry_t -n 100    # synthetic data (9)
    padsc cobol    copybook.cpy                       # copybook -> PADS (5.2)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from itertools import islice
from typing import TYPE_CHECKING, Optional

from .. import observe
from ..core.api import compile_file
from ..core.errors import DescriptionError, PadsError
from ..core.io import discipline_from_spec
from ..core.limits import ParseLimits

if TYPE_CHECKING:
    from ..execute import Result


def _discipline(args):
    # The shared spec parser raises PadsError (one-line exit-2
    # diagnostic) on malformed specs like fixed:abc or fixed:0 — the
    # raw int() here used to escape as a ValueError traceback.
    return discipline_from_spec(getattr(args, "records", "newline"))


def _limits(args) -> Optional[ParseLimits]:
    spec = getattr(args, "limits", None)
    return ParseLimits.parse(spec) if spec else None


def _load(args):
    if getattr(args, "base_types", None):
        from ..core.basetypes.userdef import load_base_type_files
        load_base_type_files(args.base_types)
    return compile_file(args.description, ambient=args.ambient,
                        discipline=_discipline(args), limits=_limits(args))


def _input(args):
    """The data argument: ``-`` is stdin (streamed through a sliding
    window, never slurped), anything else a file path."""
    return sys.stdin.buffer if args.data == "-" else pathlib.Path(args.data)


def _execute(args, op: str, record_type: Optional[str] = None, **op_args):
    """``(description, Result)`` for a data subcommand: map its flags to
    :class:`~repro.execute.ExecOptions` (validated before the
    description compiles) and hand the op to :func:`repro.execute.run`
    (imported here: the subcommands that run no fold never load the
    execution planner)."""
    from ..execute import ExecOptions, run
    options = ExecOptions(jobs=args.jobs, window=args.window,
                          follow=args.follow, checkpoint=args.checkpoint,
                          resume=args.resume)
    d = _load(args)
    return d, run(d, _input(args), op, record_type, options, **op_args)


def cmd_check(args) -> int:
    try:
        d = _load(args)
    except DescriptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.description}: ok "
          f"({len(d.type_names)} types, source type {d.source_type})")
    return 0


def cmd_compile(args) -> int:
    from ..codegen import generate_source
    with open(args.description, "r", encoding="utf-8") as handle:
        text = handle.read()
    source = generate_source(text, ambient=args.ambient,
                             filename=args.description)
    out = args.output or (args.description.rsplit(".", 1)[0] + "_parser.py")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(source)
    print(f"wrote {out} ({len(source.splitlines())} lines)")
    return 0


def cmd_accum(args) -> Result:
    _d, result = _execute(args, "accum", args.record, header=args.header,
                          tracked=args.track, summaries=args.summaries)
    if result.header_acc is not None:
        _emit_text(result.header_acc.full_report(args.top) + "\n")
    if args.field:
        target = result.acc.field(args.field)
        _emit_text(target.report(args.top))
        if args.summaries and getattr(target.self_acc, "summaries", None):
            _emit_text("\n" + target.self_acc.summaries.report())
    else:
        _emit_text(result.acc.full_report(args.top))
    print(f"\n{result.tally.records} records", file=sys.stderr)
    return result


def _emit_lines(lines, flush_each: bool = False) -> None:
    # Bypass stdout's text encoding: byte-string fields must come out as
    # the bytes they were parsed from, not their utf-8 re-encoding.
    # ``flush_each`` keeps tail mode (--follow) live: each record's line
    # reaches the pipe as it parses, not when a buffer happens to fill.
    from ..core.io import transparent_encode
    out = sys.stdout.buffer
    sys.stdout.flush()
    for line in lines:
        out.write(transparent_encode(line))
        out.write(b"\n")
        if flush_each:
            out.flush()
    out.flush()


def _emit_text(text: str) -> None:
    # Same byte transparency for whole reports (accum, summaries, view):
    # they quote raw field bytes, which must round-trip unre-encoded.
    _emit_lines([text])


def cmd_fmt(args) -> Result:
    from .fmt import format_records
    d, result = _execute(args, "records", args.record)
    _emit_lines(format_records(d, None, args.record, delims=list(args.delims),
                               date_format=args.date_format,
                               skip_errors=args.skip_errors,
                               pairs=result.pairs),
                flush_each=args.follow is not None)
    return result


def cmd_xml(args) -> Result:
    from .xml_out import xml_records
    d, result = _execute(args, "records", args.record)
    _emit_lines(xml_records(d, None, args.record, pairs=result.pairs),
                flush_each=args.follow is not None)
    return result


def cmd_count(args) -> Result:
    """The paper's record-counting program (the Figure 10 floor task)."""
    _d, result = _execute(args, "count")
    print(result.count)
    return result


def cmd_plan(args) -> int:
    """Pretty-print the analyzed plan IR for a description."""
    from ..plan import format_plan
    try:
        d = _load(args)
    except DescriptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(format_plan(d.plan, args.type))
    except KeyError:
        print(f"padsc: no type named {args.type!r} in description",
              file=sys.stderr)
        return 2
    return 0


def cmd_xsd(args) -> int:
    from .xsd import schema_for_description, schema_for_type
    d = _load(args)
    if args.type:
        print(schema_for_type(args.type, d.node(args.type)))
    else:
        print(schema_for_description(d))
    return 0


def cmd_query(args) -> int:
    from ..execute import open_input
    from .dataapi import node_new
    from .query import query, query_records
    d = _load(args)
    data = open_input(d, _input(args))
    if args.record:
        # Streaming: one record resident at a time (bounded memory).
        results = query_records(d, data, args.record, args.expr)
    else:
        rep, pd = d.parse_source(data)
        root = node_new(d, rep, pd, None, name=args.root)
        results = query(args.expr, root)
    for item in results:
        if hasattr(item, "text"):
            print(item.text() if item.is_leaf else f"<{item.name}>")
        else:
            print(item)
    return 0


def cmd_gen(args) -> int:
    import random
    from .datagen import ErrorInjector, generate_source as gen_source
    d = _load(args)
    rng = random.Random(args.seed)
    injector = ErrorInjector(args.error_rate) if args.error_rate else None
    data = gen_source(d, args.type or d.source_type, args.count, rng, injector)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"wrote {len(data)} bytes to {args.output}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_drift(args) -> int:
    from .drift import profile_and_compare
    d = _load(args)
    with open(args.data, "rb") as handle:
        old = handle.read()
    with open(args.new_data, "rb") as handle:
        new = handle.read()
    report = profile_and_compare(d, args.record, old, new)
    _emit_text(report.render())
    return 2 if report.drifted else 0


def cmd_view(args) -> int:
    from ..execute import open_input
    from .view import render_record
    d = _load(args)
    # Skip to the requested record (streaming; only one record resident).
    src = open_input(d, _input(args))
    if sum(1 for _ in islice(src.boundaries(), args.index)) < args.index:
        print(f"padsc: no record {args.index}", file=sys.stderr)
        return 1
    _emit_text(render_record(d, src, args.record))
    return 0


def cmd_index(args) -> int:
    """Build (or verify) the persistent record-boundary index."""
    from .. import durable
    d = _load(args)
    if args.data == "-":
        raise PadsError("index needs a seekable file, not stdin")
    if args.verify:
        idx = durable.load_index(args.data, d.discipline,
                                 index_path=args.output)
        if idx is None:
            print(f"padsc: no valid index for {args.data} "
                  "(missing, corrupt, or stale)", file=sys.stderr)
            return 1
        print(f"{args.data}: {idx.records} records, "
              f"{len(idx.offsets)} sampled boundaries "
              f"(every {idx.interval}), {idx.size} bytes")
        return 0
    idx, target = durable.build_index(
        d, args.data, interval=args.interval or durable.DEFAULT_INDEX_INTERVAL,
        out=args.output)
    print(f"wrote {target} ({idx.records} records, "
          f"{len(idx.offsets)} sampled boundaries, every {idx.interval})")
    return 0


def cmd_fuzz(args) -> int:
    """Fault-injection sweep: corrupt conforming data, assert the
    never-crash invariants (:mod:`repro.faults`)."""
    from ..faults import fuzz_description, fuzz_gallery
    limits = _limits(args)
    if getattr(args, "kill_resume", False):
        from ..faults import kill_resume_gallery
        report = kill_resume_gallery(n_records=args.count, seed=args.seed,
                                     only=args.only or None)
        print(report.summary())
        return 0 if report.ok else 1
    if args.gallery:
        report = fuzz_gallery(n_records=args.count, seed=args.seed,
                              limits=limits, only=args.only or None)
    else:
        if not args.description or not args.record:
            raise PadsError("fuzz needs a description and --record "
                            "(or --gallery)")
        with open(args.description, "r", encoding="utf-8") as handle:
            text = handle.read()
        report = fuzz_description(
            text, args.record, name=args.description, ambient=args.ambient,
            discipline=_discipline(args), n_records=args.count,
            seed=args.seed, limits=limits)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Run the multi-tenant parse service (:mod:`repro.serve`)."""
    from ..execute import ExecOptions
    from ..serve import ServeConfig, run_server
    if not 0 <= args.port <= 65535:
        raise PadsError(f"--port {args.port} is out of range 0..65535")
    ExecOptions(jobs=args.jobs)  # the data subcommands' --jobs check
    if args.cache_size < 1:
        raise PadsError("--cache must be at least 1")
    if args.workers < 1:
        raise PadsError("--workers must be at least 1")
    if args.max_body < 1:
        raise PadsError("--max-body must be at least 1 byte")
    if args.parallel_threshold < 0:
        raise PadsError("--parallel-threshold cannot be negative")
    tenant_limits = {}
    for spec in args.tenant_limits or []:
        name, sep, budget = spec.partition(":")
        if not sep or not name or not budget:
            raise PadsError("--tenant-limits wants NAME:SPEC "
                            f"(e.g. gold:deadline=5,errors=10), got {spec!r}")
        tenant_limits[name] = ParseLimits.parse(budget)
    config = ServeConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_size=args.cache_size, max_body=args.max_body,
        parallel_threshold=args.parallel_threshold, workers=args.workers,
        default_limits=ParseLimits.parse(args.limits) if args.limits else None,
        tenant_limits=tenant_limits)
    return run_server(config)


def cmd_cobol(args) -> int:
    from .cobol import translate
    with open(args.copybook, "r", encoding="utf-8") as handle:
        text = handle.read()
    tr = translate(text, args.copybook)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(tr.pads_source)
        print(f"wrote {args.output} (record type {tr.record_type}, "
              f"width {tr.record_width})", file=sys.stderr)
    else:
        print(tr.pads_source)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors (an unknown flag, a bad choice) become the same one
    ``padsc: ...`` line and exit code 2 as every other invalid
    invocation (see :func:`main`), not a usage dump."""

    def error(self, message):
        raise PadsError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padsc",
        description="PADS: processing ad hoc data sources (PLDI 2005 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data: bool = True):
        p.add_argument("description", help="PADS description file")
        if data:
            p.add_argument("data", help="data file ('-' for stdin)")
        p.add_argument("--ambient", default="ascii",
                       choices=["ascii", "binary", "ebcdic"])
        p.add_argument("--records", default="newline",
                       help="record discipline: newline, none, fixed:<n>, "
                            "lenprefix:<n>")
        p.add_argument("--base-types", action="append", dest="base_types",
                       metavar="FILE",
                       help="user base-type specification file "
                            "(repeatable; paper Section 6)")
        if data:
            p.add_argument("--limits", metavar="SPEC",
                           help="resource budget, comma-separated key=value: "
                                "record-bytes, array, scan, depth, deadline "
                                "(seconds), errors — limit hits become "
                                "LIMIT_EXCEEDED pd errors, never crashes")

    def jobs_flag(p):
        p.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                       help="fan the input out to N worker processes, "
                            "split at record boundaries; stdin is "
                            "pipelined chunk-by-chunk into the pool, and "
                            "a stream that cannot be chunked is an error "
                            "(exit 2), never a silent one-core run")

    def stream_flags(p):
        p.add_argument("--follow", nargs="?", const=-1.0, type=float,
                       default=None, metavar="IDLE_SECS",
                       help="tail mode: keep reading as the input grows "
                            "(like tail -f); with a value, stop once no "
                            "new data arrives for IDLE_SECS seconds")
        p.add_argument("--window", type=int, default=None, metavar="BYTES",
                       help="sliding-window size for streamed input "
                            "(stdin/--follow; default 1 MiB) — peak "
                            "buffered bytes stay within 2x this")

    def durable_flags(p):
        p.add_argument("--checkpoint", nargs="?", const=-1, type=int,
                       default=None, metavar="INTERVAL",
                       help="persist an atomic resume checkpoint every "
                            "INTERVAL records (default 10000) so a killed "
                            "run can continue with --resume; needs a "
                            "seekable file input")
        p.add_argument("--resume", action="store_true",
                       help="continue from the input's checkpoint if a "
                            "valid one exists (implies --checkpoint); a "
                            "missing, corrupt, or stale checkpoint starts "
                            "over from byte 0 — never a wrong result")

    def obs_flags(p):
        p.add_argument("--stats", nargs="?", const="text",
                       choices=["text", "json"], default=None,
                       metavar="FORMAT",
                       help="report parse metrics to stderr after the run "
                            "(--stats for text, --stats=json for JSON)")
        p.add_argument("--trace", nargs="?", const="-", default=None,
                       metavar="FILE",
                       help="stream per-field parse-trace events as JSONL "
                            "to FILE ('-' or omitted: stderr); tracing "
                            "forces the serial path")

    p = sub.add_parser("check", help="parse and typecheck a description")
    common(p, data=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile", help="generate a Python parser module")
    common(p, data=False)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("accum", help="statistical profile (accumulators)")
    common(p)
    p.add_argument("--record", required=True, help="record type name")
    p.add_argument("--header", help="optional header type name")
    p.add_argument("--field", help="report only this dotted field path")
    p.add_argument("--track", type=int, default=1000,
                   help="distinct values tracked (default 1000)")
    p.add_argument("--top", type=int, default=10,
                   help="values reported (default 10)")
    p.add_argument("--summaries", action="store_true",
                   help="attach streaming histogram/quantile summaries "
                        "(paper Section 9)")
    jobs_flag(p)
    stream_flags(p)
    durable_flags(p)
    obs_flags(p)
    p.set_defaults(fn=cmd_accum)

    p = sub.add_parser("fmt", help="delimited formatting")
    common(p)
    p.add_argument("--record", required=True)
    p.add_argument("--delims", default="|")
    p.add_argument("--date-format", default=None)
    p.add_argument("--skip-errors", action="store_true")
    jobs_flag(p)
    stream_flags(p)
    durable_flags(p)
    obs_flags(p)
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("xml", help="convert to canonical XML")
    common(p)
    p.add_argument("--record", required=True)
    jobs_flag(p)
    stream_flags(p)
    durable_flags(p)
    obs_flags(p)
    p.set_defaults(fn=cmd_xml)

    p = sub.add_parser("count", help="count records (the paper's "
                                     "record-counting floor)")
    common(p)
    jobs_flag(p)
    stream_flags(p)
    durable_flags(p)
    obs_flags(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("plan", help="print the analyzed plan IR (resolved "
                                    "types, widths, terminators, fastpath "
                                    "eligibility)")
    common(p, data=False)
    p.add_argument("--type", help="only this type's plan entry")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("xsd", help="emit the XML Schema")
    common(p, data=False)
    p.add_argument("--type", help="only this type's schema fragment")
    p.set_defaults(fn=cmd_xsd)

    p = sub.add_parser("query", help="run an XQuery-subset query")
    common(p)
    p.add_argument("expr", help="query expression")
    p.add_argument("--root", default="source", help="name of the root node")
    p.add_argument("--record", help="stream record-at-a-time over this type "
                                    "(bind each record to $record)")
    obs_flags(p)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("gen", help="generate conforming random data")
    common(p, data=False)
    p.add_argument("--type", help="record type (default: the Psource type)")
    p.add_argument("-n", "--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--error-rate", type=float, default=0.0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("drift", help="compare two files' statistical "
                                     "profiles (Altair daily check)")
    common(p)
    p.add_argument("new_data", help="the newer data file")
    p.add_argument("--record", required=True)
    p.set_defaults(fn=cmd_drift)

    p = sub.add_parser("view", help="field-annotated hex view of a record")
    common(p)
    p.add_argument("--record", required=True, help="record type name")
    p.add_argument("--index", type=int, default=0,
                   help="0-based record index (default 0)")
    p.set_defaults(fn=cmd_view)

    p = sub.add_parser("index", help="build or verify the persistent "
                                     "record-boundary index (.padsidx)")
    common(p)
    p.add_argument("--interval", type=int, default=None, metavar="N",
                   help="sample a boundary offset every N records "
                        "(default 1000)")
    p.add_argument("-o", "--output", default=None,
                   help="index file to write/verify (default: "
                        "<data>.padsidx)")
    p.add_argument("--verify", action="store_true",
                   help="validate the existing index against the data "
                        "file (CRCs, source binding) instead of building")
    obs_flags(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("fuzz", help="fault-injection sweep: corrupt "
                                    "conforming data, assert never-crash")
    p.add_argument("description", nargs="?",
                   help="PADS description file (omit with --gallery)")
    p.add_argument("--gallery", action="store_true",
                   help="sweep every shipped gallery description")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="with --gallery: restrict to this format "
                        "(repeatable)")
    p.add_argument("--record", help="record type to fuzz")
    p.add_argument("--ambient", default="ascii",
                   choices=["ascii", "binary", "ebcdic"])
    p.add_argument("--records", default="newline",
                   help="record discipline: newline, none, fixed:<n>, "
                        "lenprefix:<n>")
    p.add_argument("--limits", metavar="SPEC",
                   help="resource budget applied during the sweep "
                        "(default: deadline=10,scan=4096)")
    p.add_argument("-n", "--count", type=int, default=12,
                   help="conforming records per corrupted source "
                        "(default 12)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kill-resume", action="store_true",
                   help="durable-run differential: fork a checkpointed "
                        "run per gallery description, SIGKILL it at a "
                        "random progress point, resume, and assert the "
                        "final report matches an uninterrupted reference")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("serve", help="run the multi-tenant parse service "
                                     "(POST descriptions + data over HTTP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8712,
                   help="listen port (default 8712; 0 picks an ephemeral "
                        "port and prints it)")
    p.add_argument("--limits", metavar="SPEC",
                   help="default per-request resource budget "
                        "(key=value,... as elsewhere) for tenants without "
                        "an explicit one")
    p.add_argument("--tenant-limits", action="append", metavar="NAME:SPEC",
                   help="per-tenant budget, repeatable (the X-Tenant "
                        "request header selects it), e.g. "
                        "free:deadline=1,errors=10")
    p.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the parallel engine on "
                        "large payloads (default 1: in-process engines "
                        "only)")
    p.add_argument("--cache", type=int, default=128, dest="cache_size",
                   metavar="N", help="compiled-description cache slots "
                                     "(default 128)")
    p.add_argument("--workers", type=int, default=8, metavar="N",
                   help="parse worker threads (default 8)")
    p.add_argument("--max-body", type=int, default=64 << 20, metavar="BYTES",
                   help="largest accepted request body (default 64 MiB)")
    p.add_argument("--parallel-threshold", type=int, default=1 << 20,
                   metavar="BYTES",
                   help="payload size at which accum/count requests fan "
                        "out to the worker pool (default 1 MiB)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cobol", help="translate a Cobol copybook to PADS")
    p.add_argument("copybook")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_cobol)

    return parser


def _run(args) -> int:
    """Dispatch a subcommand, wrapped in an observation session when
    ``--stats``/``--trace`` were given.  Stats and trace streams go to
    stderr by default so stdout stays clean for data pipes.  Data
    subcommands return their :class:`~repro.execute.Result`, whose mode
    and reason the stats report; the rest return an exit code."""
    stats = getattr(args, "stats", None)
    trace = getattr(args, "trace", None)
    if stats is None and trace is None:
        ret = args.fn(args)
        return ret if isinstance(ret, int) else 0
    opened = sink = None
    if trace is not None:
        if trace == "-":
            sink = sys.stderr
        else:
            opened = sink = open(trace, "w", encoding="utf-8")
    try:
        with observe.observed(trace_sink=sink) as obs:
            ret = args.fn(args)
        result = None if isinstance(ret, int) else ret
        if stats == "json":
            doc = obs.stats()
            if result is not None:
                doc["engine"] = {"mode": result.mode,
                                 "reason": result.reason}
            print(json.dumps(doc, indent=2, sort_keys=True), file=sys.stderr)
        elif stats is not None:
            text = obs.summary()
            if result is not None:
                text += f"\nengine:  {result.mode} ({result.reason})"
            print(text, file=sys.stderr)
        return 0 if result is not None else ret
    finally:
        if opened is not None:
            opened.close()


def main(argv: Optional[list] = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (PadsError, OSError) as exc:
        # Usage-level failures (missing/unreadable input, a description
        # that fails to compile, a bad --limits spec) get one diagnostic
        # line and argparse's conventional exit code — never a traceback.
        print(f"padsc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
