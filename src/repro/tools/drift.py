"""Profile comparison: flag feeds whose statistics drifted (paper §5.2).

The Altair project receives ~4000 Cobol files a day — too many to eyeball
— so "accumulator profiles can be used to automatically determine which
profiles have high percentages of errors and which have significantly
different statistical profiles than earlier versions of the same file."

:func:`compare` diffs two accumulator trees position by position and
returns scored :class:`Drift` findings:

* **bad-rate drift** — the error fraction moved by more than a threshold,
* **distribution drift** — total-variation distance between the tracked
  value distributions exceeds a threshold (catches a field being
  "hijacked" for a new purpose, the paper's Section 1 anecdote),
* **novel / vanished values** — union tags or enum literals that appear
  in one profile only (a new missing-value representation, a retired
  state code),
* **range drift** — numeric min/max moved outside the old envelope by a
  wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .accum import Accumulator, ScalarAccum, accumulate_records


@dataclass
class Drift:
    path: str
    kind: str       # 'bad-rate' | 'distribution' | 'novel-values' | 'range'
    score: float    # larger = more severe, comparable within a kind
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind:>13}] {self.path}: {self.detail}"


@dataclass
class DriftReport:
    findings: List[Drift] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return bool(self.findings)

    def render(self) -> str:
        if not self.findings:
            return "no drift detected"
        ranked = sorted(self.findings, key=lambda d: -d.score)
        return "\n".join(str(d) for d in ranked)


def _distribution(scalar: ScalarAccum) -> Optional[dict]:
    if not scalar.values or scalar.good == 0:
        return None
    total = sum(scalar.values.values())
    return {k: v / total for k, v in scalar.values.items()}


def _tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _compare_scalar(path: str, old: ScalarAccum, new: ScalarAccum,
                    out: List[Drift], *, bad_rate_delta: float,
                    tv_threshold: float, min_count: int,
                    category_limit: int) -> None:
    if old.total_count < min_count or new.total_count < min_count:
        return

    old_bad = old.pcnt_bad() / 100.0
    new_bad = new.pcnt_bad() / 100.0
    if abs(new_bad - old_bad) > bad_rate_delta:
        out.append(Drift(path, "bad-rate", abs(new_bad - old_bad),
                         f"bad fraction {old_bad:.1%} -> {new_bad:.1%}"))

    old_dist = _distribution(old)
    new_dist = _distribution(new)
    if old_dist is not None and new_dist is not None:
        # Distribution comparisons are only meaningful for *categorical*
        # positions (enum literals, union tags, small code sets): two
        # samples of a wide numeric field legitimately share few exact
        # values.  High-cardinality fields are covered by the bad-rate and
        # range checks instead.
        small = (len(old.values) <= category_limit
                 and len(new.values) <= category_limit
                 and len(old.values) < old.tracked_limit
                 and len(new.values) < new.tracked_limit)
        if small:
            tv = _tv_distance(old_dist, new_dist)
            if tv > tv_threshold:
                out.append(Drift(path, "distribution", tv,
                                 f"total-variation distance {tv:.2f}"))
            novel = sorted(set(new_dist) - set(old_dist))
            vanished = sorted(set(old_dist) - set(new_dist))
            # Report categorical novelty (strings/tags), not numeric churn.
            novel = [v for v in novel if isinstance(v, str)]
            vanished = [v for v in vanished if isinstance(v, str)]
            if novel or vanished:
                bits = []
                if novel:
                    bits.append("new: " + ", ".join(map(str, novel[:5])))
                if vanished:
                    bits.append("gone: " + ", ".join(map(str, vanished[:5])))
                out.append(Drift(path, "novel-values",
                                 float(len(novel) + len(vanished)),
                                 "; ".join(bits)))

    if old.kind in ("int", "float", "date") and old.good and new.good:
        old_span = (old.max - old.min) or 1
        widened = 0.0
        if new.max > old.max:
            widened = max(widened, (new.max - old.max) / old_span)
        if new.min < old.min:
            widened = max(widened, (old.min - new.min) / old_span)
        if widened > 1.0:  # range grew by more than the whole old span
            out.append(Drift(path, "range", widened,
                             f"range [{old.min}, {old.max}] -> "
                             f"[{new.min}, {new.max}]"))


def compare(old: Accumulator, new: Accumulator, *,
            bad_rate_delta: float = 0.02,
            tv_threshold: float = 0.25,
            min_count: int = 20,
            category_limit: int = 32) -> DriftReport:
    """Diff two accumulator trees built over the same description."""
    findings: List[Drift] = []

    def walk(path: str, a: Accumulator, b: Accumulator) -> None:
        _compare_scalar(path or "<top>", a.self_acc, b.self_acc, findings,
                        bad_rate_delta=bad_rate_delta,
                        tv_threshold=tv_threshold, min_count=min_count,
                        category_limit=category_limit)
        if a.lengths is not None and b.lengths is not None:
            _compare_scalar(f"{path}.length" if path else "<top>.length",
                            a.lengths, b.lengths, findings,
                            bad_rate_delta=bad_rate_delta,
                            tv_threshold=tv_threshold, min_count=min_count,
                            category_limit=category_limit)
        if a.elts is not None and b.elts is not None:
            walk(f"{path}[]", a.elts, b.elts)
        for name, child in a.children.items():
            other = b.children.get(name)
            if other is not None:
                walk(f"{path}.{name}" if path else name, child, other)

    walk("", old, new)
    return DriftReport(findings)


def profile_and_compare(description, record_type: str,
                        old_data, new_data, **thresholds) -> DriftReport:
    """Profile two files and diff the profiles (the Altair daily check)."""
    old_acc = accumulate_records(description, old_data, record_type)[0]
    new_acc = accumulate_records(description, new_data, record_type)[0]
    return compare(old_acc, new_acc, **thresholds)
