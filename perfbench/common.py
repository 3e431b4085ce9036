"""Helpers shared by the benchmark entry point (``run.py``) and the program
processes it starts (``worker.py``): paths, the child-process
environment, order statistics and the span recorder of the traced run.

Standard library only: ``worker.py`` imports this module before the
timed ``import repro`` of a set-up measurement.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from pathlib import Path
from statistics import median  # noqa: F401 - shared with the other modules
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Generated inputs and scratch outputs of one run; removed when it ends.
WORK_ROOT = ROOT / ".perfbench_work"
#: Span dumps of traced runs, one JSON file per workload and seed.
OUT_ROOT = ROOT / ".perfbench_out"

#: Records per latency sample on the library workloads.
BLOCK = 1000
MB = 1e6


def child_env() -> dict:
    """Environment for every process the benchmark starts: the source
    tree on the import path, and a fixed string-hash seed so dict and set
    layouts, and with them timings, do not differ between processes."""
    env = dict(os.environ)
    paths = [str(SRC)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds ``calibrate()`` takes on an uncontended core of the host this
#: benchmark was written on.  Every reported time is scaled by
#: ``CALIBRATION_S / median(calibrate() samples of the run)``.
CALIBRATION_S = 0.002


def calibrate() -> float:
    """Seconds spent on a fixed slice of interpreter work (dict, str and
    int churn): a yardstick of how fast the host runs Python right now.

    The shared host this benchmark runs on drifts between speeds up to
    1.7x apart, for seconds to minutes at a time.  Samples of this
    yardstick taken between the measured operations, in the same process,
    let a run report its times as if on an uncontended core."""
    t0 = perf_counter()
    table, total = {}, 0
    for i in range(10_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return perf_counter() - t0


class BlockClock:
    """Latency samples of the library workloads: the wall time of every
    ``BLOCK`` records, each followed by one ``calibrate()`` sample whose
    time is kept out of every measurement."""

    def __init__(self):
        self.lat = []
        self.cal = []
        self.paused = 0.0
        self._start = perf_counter()

    def restart(self) -> None:
        self._start = perf_counter()

    def block(self) -> None:
        t = perf_counter()
        self.lat.append(t - self._start)
        self.cal.append(calibrate())
        self._start = perf_counter()
        self.paused += self._start - t

    def scaled_latencies(self) -> list:
        """Block times scaled to the reference core, each by the mean of
        the calibration samples on either side of it."""
        out = []
        for i, t in enumerate(self.lat):
            near = self.cal[max(i - 1, 0):i + 1]
            out.append(t * CALIBRATION_S * len(near) / sum(near))
        return out

    def scale_since(self, first: int) -> float:
        """Reference-core scale of the blocks from index ``first`` on."""
        return CALIBRATION_S / median(self.cal[first:])


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class NullSpans:
    """The recorder of an untraced phase: every call is a no-op."""

    def begin(self, name: str, req=None) -> None:
        pass

    def end(self) -> float:
        return 0.0


class Spans:
    """In-memory span recorder for the traced run.

    ``begin``/``end`` bracket one call into a layer.  Spans nest by a
    stack, so each knows its parent.  Every span is folded into per-name
    totals: count, wall time, and self time (wall minus the part its
    direct children cover).  The first ``keep`` spans are also kept
    whole, as ``(id, name, start, end, parent, request)``, for the JSON
    dump written when the run ends.
    """

    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.kept = []
        self.dropped = 0
        self.totals = {}
        self._stack = []
        self._next = 0

    def begin(self, name: str, req=None) -> None:
        parent = self._stack[-1][3] if self._stack else None
        self._stack.append([name, perf_counter(), 0.0, self._next, parent,
                            req])
        self._next += 1

    def end(self) -> float:
        t = perf_counter()
        name, start, covered, sid, parent, req = self._stack.pop()
        wall = t - start
        if self._stack:
            self._stack[-1][2] += wall
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += wall
        agg[2] += wall - covered
        if len(self.kept) < self.keep:
            self.kept.append((sid, name, start, t, parent, req))
        else:
            self.dropped += 1
        return wall

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span; returns ``(result, seconds)``."""
        self.begin(name)
        try:
            result = fn(*args)
        finally:
            wall = self.end()
        return result, wall

    def wall(self, name: str) -> float:
        """Total wall seconds of the spans called ``name``."""
        agg = self.totals.get(name)
        return agg[1] if agg else 0.0

    def to_json(self) -> dict:
        return {
            "totals": {name: {"count": n, "wall_ms": wall * 1e3,
                              "self_ms": own * 1e3}
                       for name, (n, wall, own) in sorted(self.totals.items())},
            "spans": [{"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "request": req}
                      for sid, name, start, end, parent, req in self.kept],
            "dropped": self.dropped,
        }


def merge_span_docs(docs) -> dict:
    """Fold several ``Spans.to_json`` documents (one per thread or
    process) into one."""
    out = {"totals": {}, "spans": [], "dropped": 0}
    for doc in docs:
        for name, agg in doc["totals"].items():
            into = out["totals"].setdefault(
                name, {"count": 0, "wall_ms": 0.0, "self_ms": 0.0})
            for key in into:
                into[key] += agg[key]
        out["spans"].extend(doc["spans"])
        out["dropped"] += doc["dropped"]
    return out
