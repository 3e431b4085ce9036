"""Small-space streaming summaries for accumulators (paper Section 9).

"We also plan to augment the statistical profiling library with functions
that use randomized and approximate techniques to create small summaries
such as histograms [...] or quantile summaries" — citing Gilbert et al.'s
histogram and quantile-maintenance work.  This module provides three such
summaries, all single-pass and bounded-memory, suitable for the
gigabytes-per-day feeds of Figure 1:

* :class:`StreamingHistogram` — a merge-based equi-depth-ish histogram in
  the style of Ben-Haim & Tom-Tov: keeps at most ``bins`` centroids,
  merging the two closest after every insertion.
* :class:`QuantileSketch` — the Greenwald-Khanna epsilon-approximate
  quantile summary: ``query(q)`` returns a value whose rank is within
  ``eps * n`` of the true q-quantile using O((1/eps) log(eps n)) space.
* :class:`ReservoirSample` — a uniform k-sample over the stream
  (Vitter's algorithm R), handy for eyeballing representative values.

``attach_summaries`` bolts all three onto an accumulator tree's numeric
scalar positions.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Optional, Tuple


class StreamingHistogram:
    """Bounded-bin streaming histogram (merge the closest pair).

    ``bins`` bounds memory; ``counts()`` yields (center, count) pairs and
    ``render`` draws a terminal bar chart, the shape the paper's analysts
    would eyeball for a field's distribution.
    """

    def __init__(self, bins: int = 32):
        if bins < 2:
            raise ValueError("need at least 2 bins")
        self.max_bins = bins
        self._centroids: List[Tuple[float, int]] = []  # sorted (center, count)
        self.n = 0

    def add(self, value: float) -> None:
        self.n += 1
        key = float(value)
        idx = bisect.bisect_left(self._centroids, (key, 0))
        if idx < len(self._centroids) and self._centroids[idx][0] == key:
            center, count = self._centroids[idx]
            self._centroids[idx] = (center, count + 1)
            return
        self._centroids.insert(idx, (key, 1))
        if len(self._centroids) > self.max_bins:
            self._merge_closest()

    def _merge_closest(self) -> None:
        cs = self._centroids
        gaps = [(cs[i + 1][0] - cs[i][0], i) for i in range(len(cs) - 1)]
        _, i = min(gaps)
        (c1, n1), (c2, n2) = cs[i], cs[i + 1]
        merged = ((c1 * n1 + c2 * n2) / (n1 + n2), n1 + n2)
        cs[i:i + 2] = [merged]

    def add_weighted(self, center: float, count: int) -> None:
        """Insert a pre-aggregated centroid (used when merging)."""
        self.n += count
        key = float(center)
        idx = bisect.bisect_left(self._centroids, (key, 0))
        if idx < len(self._centroids) and self._centroids[idx][0] == key:
            existing_center, existing_count = self._centroids[idx]
            self._centroids[idx] = (existing_center, existing_count + count)
            return
        self._centroids.insert(idx, (key, count))
        if len(self._centroids) > self.max_bins:
            self._merge_closest()

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold another histogram in (Ben-Haim & Tom-Tov merge: re-insert
        the other side's centroids with their weights)."""
        for center, count in other._centroids:
            self.add_weighted(center, count)
        return self

    def counts(self) -> List[Tuple[float, int]]:
        return list(self._centroids)

    def cdf(self, x: float) -> float:
        """Approximate fraction of values <= x."""
        if self.n == 0:
            return 0.0
        total = 0.0
        for center, count in self._centroids:
            if center <= x:
                total += count
            else:
                break
        return total / self.n

    def render(self, width: int = 40) -> str:
        if not self._centroids:
            return "(empty histogram)"
        peak = max(count for _, count in self._centroids)
        lines = []
        for center, count in self._centroids:
            bar = "#" * max(1, round(width * count / peak))
            lines.append(f"{center:>14.2f} | {bar} {count}")
        return "\n".join(lines)


class QuantileSketch:
    """Greenwald-Khanna epsilon-approximate quantiles.

    Maintains tuples ``(value, g, delta)`` where ``g`` is the gap in
    minimum rank to the previous tuple and ``delta`` bounds the rank
    uncertainty; invariant: ``g + delta <= floor(2 * eps * n)`` after
    compression, which guarantees ``query(q)`` is within ``eps * n`` ranks
    of the true quantile.
    """

    def __init__(self, eps: float = 0.01):
        if not (0 < eps < 1):
            raise ValueError("eps must be in (0, 1)")
        self.eps = eps
        self.n = 0
        # (value, g, delta), sorted by value.
        self._tuples: List[List[float]] = []

    def add(self, value: float) -> None:
        value = float(value)
        threshold = math.floor(2 * self.eps * self.n)
        idx = bisect.bisect_left([t[0] for t in self._tuples], value)
        if idx == 0 or idx == len(self._tuples):
            delta = 0
        else:
            delta = max(0, threshold - 1)
        self._tuples.insert(idx, [value, 1, delta])
        self.n += 1
        # Compress periodically.
        if self.n % max(1, int(1.0 / (2.0 * self.eps))) == 0:
            self._compress()

    def _compress(self) -> None:
        threshold = math.floor(2 * self.eps * self.n)
        ts = self._tuples
        i = len(ts) - 2
        while i >= 1:
            if ts[i][1] + ts[i + 1][1] + ts[i + 1][2] <= threshold:
                ts[i + 1][1] += ts[i][1]
                del ts[i]
            i -= 1

    def query(self, q: float) -> Optional[float]:
        """Value at quantile ``q`` (0..1), within eps*n ranks."""
        if not self._tuples:
            return None
        q = min(1.0, max(0.0, q))
        target = q * self.n
        bound = self.eps * self.n
        rank_min = 0.0
        for value, g, delta in self._tuples:
            rank_min += g
            if rank_min + delta >= target - bound and rank_min >= target - bound:
                return value
        return self._tuples[-1][0]

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Standard GK merge: interleave the tuple lists by value, bumping
        each side's rank uncertainty by the other side's bound.  The
        merged sketch answers queries within ``eps_self + eps_other`` of
        the true rank (the known bound for merging GK summaries)."""
        if other.n == 0:
            return self
        err_other = math.floor(2 * other.eps * other.n)
        err_self = math.floor(2 * self.eps * self.n)
        combined = ([[v, g, d + err_other] for v, g, d in self._tuples]
                    + [[v, g, d + err_self] for v, g, d in other._tuples])
        combined.sort(key=lambda t: t[0])
        # The extreme tuples are exact by construction.
        combined[0][2] = 0
        combined[-1][2] = 0
        self._tuples = combined
        self.n += other.n
        self._compress()
        return self

    def space(self) -> int:
        return len(self._tuples)

    def report(self, quantiles=(0.01, 0.25, 0.5, 0.75, 0.99)) -> str:
        parts = [f"p{int(q * 100):02d}: {self.query(q):g}" for q in quantiles]
        return "  ".join(parts) + f"   (n={self.n}, tuples={self.space()})"


class ReservoirSample:
    """Uniform k-sample over a stream (Vitter's algorithm R)."""

    def __init__(self, k: int = 50, rng: Optional[random.Random] = None):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.rng = rng or random.Random(0)
        self.n = 0
        self.sample: List = []

    def add(self, value) -> None:
        self.n += 1
        if len(self.sample) < self.k:
            self.sample.append(value)
        else:
            j = self.rng.randrange(self.n)
            if j < self.k:
                self.sample[j] = value

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Combine two reservoirs into an (approximately) uniform sample
        of the concatenated streams: each output slot draws from one of
        the reservoirs with probability proportional to its stream size."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.sample = list(other.sample)
            self.n = other.n
            return self
        total = self.n + other.n
        mine, theirs = list(self.sample), list(other.sample)
        merged: List = []
        while len(merged) < self.k and (mine or theirs):
            take_mine = mine and (not theirs
                                  or self.rng.random() < self.n / total)
            pool = mine if take_mine else theirs
            merged.append(pool.pop(self.rng.randrange(len(pool))))
        self.sample = merged
        self.n = total
        return self


class NumericSummaries:
    """The bundle attached to a numeric accumulator position."""

    def __init__(self, bins: int = 32, eps: float = 0.01, sample_k: int = 50):
        self.histogram = StreamingHistogram(bins)
        self.quantiles = QuantileSketch(eps)
        self.sample = ReservoirSample(sample_k)

    def add(self, value: float) -> None:
        self.histogram.add(value)
        self.quantiles.add(value)
        self.sample.add(value)

    def merge(self, other: "NumericSummaries") -> "NumericSummaries":
        self.histogram.merge(other.histogram)
        self.quantiles.merge(other.quantiles)
        self.sample.merge(other.sample)
        return self

    def report(self) -> str:
        return (self.quantiles.report() + "\n" + self.histogram.render())


def attach_summaries(accumulator, bins: int = 32, eps: float = 0.01) -> None:
    """Attach :class:`NumericSummaries` to every numeric scalar position
    of an accumulator tree; subsequent ``add`` calls feed them."""
    from .accum import Accumulator

    def visit(acc: Accumulator) -> None:
        for scalar in (acc.self_acc, acc.lengths):
            if scalar is not None and scalar.summaries is None \
                    and scalar.kind in ("int", "float", "date"):
                scalar.summaries = NumericSummaries(bins, eps)
        if acc.elts is not None:
            visit(acc.elts)
        for child in acc.children.values():
            visit(child)

    visit(accumulator)
