"""Mergeable parse metrics: counters, gauges, fixed-bucket histograms.

The registry follows the same algebra as the accumulators and error
tallies from :mod:`repro.tools.accum` / :mod:`repro.core.errors`: each
process-pool worker folds its chunk into a private registry, and the
parent :meth:`MetricsRegistry.merge`\\ s the per-chunk registries in the
reduce.  Merging registries built over any split of a record stream
yields the same counters as metering the whole stream — the property the
parallel engine's byte-identical-output guarantee extends to metrics
(property-tested in ``tests/test_observe.py``).

Metrics are identified by a name plus an ordered label tuple, e.g.
``("errors.by_field", "entry_t.response", "RANGE_ERR")``.  Everything is
plain Python data (dicts, lists, ints, floats), so registries pickle
cheaply across process boundaries.

Histogram buckets are *fixed* per metric family: merging two histograms
is element-wise addition of bucket counts, with no re-binning.  Timing
histograms are flagged ``timing=True`` so reports can separate the
deterministic projection (observation counts, which are identical across
serial/parallel runs) from wall-clock-dependent values (sums and bucket
spreads, which are not).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "LATENCY_BUCKETS", "SIZE_BUCKETS"]

#: Log-spaced latency buckets (seconds): 1us .. 1s, then +Inf.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,
)

#: Power-of-two byte-size buckets: 16B .. 64KiB, then +Inf.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(1 << p) for p in range(4, 17))

MetricKey = Tuple[str, Tuple[str, ...]]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: int = 0):
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value.  Merge takes the max (workers race; the
    only gauges the runtime emits are high-water marks)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def snapshot(self):
        return self.value


class Histogram:
    """A fixed-bucket histogram: counts per upper bound plus an overflow
    bucket, a running sum, and the observation count.

    ``timing=True`` marks histograms of wall-clock durations, whose sums
    and bucket spreads vary run to run; their observation *counts* are
    still deterministic and are what the differential tests compare.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "timing")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS,
                 timing: bool = False):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.timing = timing

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    def snapshot(self, deterministic: bool = False):
        if deterministic and self.timing:
            return {"count": self.count}
        out = {"count": self.count, "sum": self.sum, "buckets": {}}
        for bound, c in zip(self.bounds, self.counts):
            out["buckets"][f"{bound:g}"] = c
        out["buckets"]["+Inf"] = self.counts[-1]
        return out


class MetricsRegistry:
    """A flat registry of named, labelled metrics.

    Access is create-on-first-use::

        reg.counter("records.total").inc()
        reg.counter("errors.by_code", "MISSING_LITERAL").inc()
        reg.histogram("latency", "entry_t", timing=True).observe(dt)

    The registry is the unit of transport: workers return theirs to the
    parent, which folds them together with :meth:`merge`.
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: Dict[MetricKey, object] = {}

    # -- access -----------------------------------------------------------

    def counter(self, name: str, *labels: str) -> Counter:
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Counter()
        return metric

    def gauge(self, name: str, *labels: str) -> Gauge:
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Gauge()
        return metric

    def histogram(self, name: str, *labels: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS,
                  timing: bool = False) -> Histogram:
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(bounds, timing=timing)
        return metric

    def get(self, name: str, *labels: str):
        return self._metrics.get((name, labels))

    def value(self, name: str, *labels: str, default=0):
        metric = self._metrics.get((name, labels))
        return default if metric is None else metric.snapshot()

    def items(self) -> Iterable[Tuple[MetricKey, object]]:
        return self._metrics.items()

    def __len__(self) -> int:
        return len(self._metrics)

    # -- algebra ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (the parallel reduce)."""
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                # Copy via merge into a fresh metric so the two registries
                # never share mutable state.
                if metric.kind == "histogram":
                    mine = Histogram(metric.bounds, timing=metric.timing)
                elif metric.kind == "gauge":
                    mine = Gauge()
                else:
                    mine = Counter()
                self._metrics[key] = mine
            mine.merge(metric)
        return self

    # -- reporting ---------------------------------------------------------

    def snapshot(self, deterministic: bool = False) -> Dict[str, dict]:
        """Nested ``{name: {label-path: value}}`` view of the registry.

        With ``deterministic=True``, timing histograms are reduced to
        their observation counts — the projection that is identical
        whether produced serially or by a worker pool.
        """
        out: Dict[str, dict] = {}
        for (name, labels), metric in sorted(self._metrics.items(),
                                             key=lambda kv: kv[0]):
            if metric.kind == "histogram":
                value = metric.snapshot(deterministic)
            else:
                value = metric.snapshot()
            slot = out.setdefault(name, {})
            if not labels:
                out[name] = value
            else:
                for label in labels[:-1]:
                    slot = slot.setdefault(label, {})
                slot[labels[-1]] = value
        return out
