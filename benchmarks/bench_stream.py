#!/usr/bin/env python
"""Streaming engine: throughput and peak memory on a large synthetic log.

The point of ``repro.stream`` is that input size and resident memory are
decoupled: a log many times larger than the sliding window parses in
O(window) bytes.  This bench writes a >= 100 MB synthetic CLF log to
disk **in chunks** (so the generator never inflates this process's RSS
high-water mark), then drives it through ``records_stream`` with a 1 MiB
window and measures:

* MB/s for the full record parse, for the same parse through the plain
  file cursor (``Source.from_file``) and for the record-counting floor;
* peak RSS (``ru_maxrss``) and its growth across the parse;
* the ``stream.high_water`` metric — asserted ``<= 2x window``, the
  bounded-memory contract the tests also pin.

Results go to ``BENCH_stream.json`` (CI uploads it next to the other
bench artifacts).  Scale with ``PADS_BENCH_STREAM_MB`` (default 100;
CI smoke uses a small value).

Run: ``python benchmarks/bench_stream.py [output.json]``
"""

import json
import os
import random
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import gallery, observe  # noqa: E402
from repro.codegen import compile_generated  # noqa: E402
from repro.stream import count_records_stream  # noqa: E402
from repro.tools.datagen import clf_workload  # noqa: E402

WINDOW = 1 << 20
GEN_BATCH = 5_000  # records per generation chunk (~0.8 MB)


def _maxrss_kb() -> int:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform.startswith("linux") else rss // 1024


def synthesize(path: str, target_bytes: int) -> int:
    rng = random.Random(20050612)
    size = 0
    with open(path, "wb") as out:
        while size < target_bytes:
            chunk = clf_workload(GEN_BATCH, rng)
            out.write(chunk)
            size += len(chunk)
    return size


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_stream.json"
    target_mb = float(os.environ.get("PADS_BENCH_STREAM_MB", "100"))
    gen = compile_generated(gallery.CLF)

    with tempfile.NamedTemporaryFile(suffix=".log", delete=False) as tmp:
        log = tmp.name
    try:
        size = synthesize(log, int(target_mb * (1 << 20)))
        size_mb = size / (1 << 20)

        rss_before = _maxrss_kb()
        t0 = time.perf_counter()
        with observe.observed() as obs:
            records = sum(1 for _ in gen.records_stream(log, "entry_t",
                                                        window=WINDOW))
        parse_s = time.perf_counter() - t0
        rss_after = _maxrss_kb()
        stream = obs.stats(deterministic=True)["stream"]

        t0 = time.perf_counter()
        counted = count_records_stream(gen, log, window=WINDOW)
        count_s = time.perf_counter() - t0

        # The same records through the plain file cursor, metered like
        # the streamed pass, so the cost of the sliding window itself is
        # a measured difference.
        t0 = time.perf_counter()
        with observe.observed(), gen.open_file(log) as src:
            from_file = sum(1 for _ in gen.records(src, "entry_t"))
        file_s = time.perf_counter() - t0

        from conftest import machine_line
        doc = {
            "machine": machine_line(),
            "size_mb": round(size_mb, 2),
            "window_bytes": WINDOW,
            "records": records,
            "parse": {"seconds": round(parse_s, 3),
                      "mb_per_sec": round(size_mb / parse_s, 2),
                      "records_per_sec": round(records / parse_s, 1)},
            "parse_from_file": {"seconds": round(file_s, 3),
                                "mb_per_sec": round(size_mb / file_s, 2),
                                "records_per_sec": round(from_file / file_s,
                                                         1)},
            "count": {"seconds": round(count_s, 3),
                      "mb_per_sec": round(size_mb / count_s, 2)},
            "peak_rss_kb": rss_after,
            "rss_growth_kb": rss_after - rss_before,
            "stream": stream,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)

        print(f"streamed {size_mb:.0f} MB / {records} records through a "
              f"{WINDOW >> 20} MiB window")
        print(f"  parse: {doc['parse']['mb_per_sec']} MB/s   "
              f"from file: {doc['parse_from_file']['mb_per_sec']} MB/s   "
              f"count: {doc['count']['mb_per_sec']} MB/s")
        print(f"  peak RSS {rss_after // 1024} MB "
              f"(+{doc['rss_growth_kb'] // 1024} MB across the parse), "
              f"buffered high-water {stream['high_water']} bytes")
        print(f"wrote {out_path}")

        # The contracts, not just the numbers:
        assert counted == records == from_file, (counted, records,
                                                 from_file)
        assert stream["high_water"] <= 2 * WINDOW, \
            f"buffered {stream['high_water']} bytes > 2x the {WINDOW} window"
        # RSS must track the window, not the file.  256 MB of slack
        # swallows interpreter noise while still catching a slurp of a
        # 100 MB+ input (which would also double under latin-1 decode).
        assert rss_after - rss_before < 256 * 1024, \
            f"RSS grew {(rss_after - rss_before) // 1024} MB during a " \
            f"parse that should buffer ~{2 * WINDOW >> 20} MiB"
        return 0
    finally:
        os.unlink(log)


if __name__ == "__main__":
    sys.exit(main())
