"""Accumulators: statistical profiling of ad hoc data (paper Section 5.2).

For each type in a description, an accumulator tracks the number of good
values, the number of bad values, and the distribution of legal values.
By default the first 1000 distinct values are tracked and the top 10
reported, exactly as the paper describes; both knobs are settable.

The rendered report matches the paper's layout::

    <top>.length : uint32
    +++++++++++++++++++++++++++++++++++++++++++
    good: 53544 bad: 3824 pcnt-bad: 6.666
    min: 35 max: 248591 avg: 4090.234
    top 10 values out of 1000 distinct values:
    tracked 99.552% of values

    val: 3082 count: 1254 %-of-good: 2.342
    ...
    . . . . . . . . . . . . . . . . . . . . . .
    SUMMING count: 9655 %-of-good: 18.032

Accumulators mirror the type tree: struct accumulators hold one child per
field, union accumulators track the tag distribution, array accumulators
aggregate over all elements and track lengths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import Pd
from ..core.types import (
    AppNode,
    ArrayNode,
    BaseNode,
    EnumNode,
    OptNode,
    PType,
    RecordNode,
    StructNode,
    SwitchUnionNode,
    TypedefNode,
    UnionNode,
)
from ..core.values import DateVal

DEFAULT_TRACKED = 1000
DEFAULT_REPORTED = 10


def _unwrap(node: PType) -> PType:
    """The type under any ``Precord``, ``Ptypedef`` and type application:
    the one whose shape an accumulator mirrors."""
    while True:
        if isinstance(node, RecordNode):
            node = node.inner
        elif isinstance(node, TypedefNode):
            node = node.base
        elif isinstance(node, AppNode):
            node = node.decl_node
        else:
            return node


def _kind_of(node: PType) -> str:
    node = _unwrap(node)
    if isinstance(node, BaseNode):
        if node._static is not None:
            return node._static.kind
        return "string"
    if isinstance(node, EnumNode):
        return "enum"
    return node.kind


class ScalarAccum:
    """Tracks one scalar position: good/bad counts, numeric stats, top-K."""

    def __init__(self, kind: str = "string", tracked: int = DEFAULT_TRACKED):
        self.kind = kind
        self.good = 0
        self.bad = 0
        self.tracked_limit = tracked
        self.values: Dict[object, int] = {}
        self.tracked_count = 0  # adds that landed in self.values
        self.min = None
        self.max = None
        self.total = 0.0
        self.err_codes: Dict[str, int] = {}
        self.summaries = None  # NumericSummaries, set by attach_summaries

    def add(self, value, pd: Optional[Pd]) -> None:
        if pd is not None and pd.nerr > 0:
            self.bad += 1
            name = pd.err_code.name
            self.err_codes[name] = self.err_codes.get(name, 0) + 1
            return
        self.good += 1
        key = value.epoch if isinstance(value, DateVal) else value
        if isinstance(key, (int, float)) and not isinstance(key, bool):
            self.total += key
            # Strict comparisons keep the first of equal values, as min/max do.
            if self.min is None or key < self.min:
                self.min = key
            if self.max is None or key > self.max:
                self.max = key
            if self.summaries is not None:
                self.summaries.add(key)
        try:
            in_table = key in self.values
        except TypeError:
            return  # unhashable; skip distribution tracking
        if in_table:
            self.values[key] += 1
            self.tracked_count += 1
        elif len(self.values) < self.tracked_limit:
            self.values[key] = 1
            self.tracked_count += 1

    def merge(self, other: "ScalarAccum") -> "ScalarAccum":
        """Combine another scalar accumulator into this one.

        Counts, numeric stats (min/max/sum) and the error-code histogram
        merge exactly: merging accumulators built over any split of a
        record stream gives the same values as accumulating the whole
        stream.  The value-distribution table is exact as long as the
        number of distinct values stays within ``tracked_limit``.  Under
        overflow the merge mirrors the serial first-seen admission policy
        — keep this side's keys, admit the other side's new keys in their
        first-seen order until full — so the tracked key set matches the
        serial run except when a part's own table overflowed before
        seeing a key the serial run would have admitted; every reported
        count is then a lower bound on the true count (the documented
        tolerance).
        """
        self.good += other.good
        self.bad += other.bad
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for name, count in other.err_codes.items():
            self.err_codes[name] = self.err_codes.get(name, 0) + count
        for key, count in other.values.items():
            if key in self.values:
                self.values[key] += count
            elif len(self.values) < self.tracked_limit:
                # dict order is first-seen order, matching serial admission
                self.values[key] = count
        # Invariant maintained by ``add``: tracked_count is the number of
        # adds represented in the table.
        self.tracked_count = sum(self.values.values())
        if self.summaries is not None and other.summaries is not None:
            self.summaries.merge(other.summaries)
        return self

    @property
    def total_count(self) -> int:
        return self.good + self.bad

    def pcnt_bad(self) -> float:
        n = self.total_count
        return 100.0 * self.bad / n if n else 0.0

    def top(self, k: int = DEFAULT_REPORTED) -> List:
        return sorted(self.values.items(), key=lambda kv: (-kv[1], str(kv[0])))[:k]

    def report(self, path: str, type_name: str,
               reported: int = DEFAULT_REPORTED) -> str:
        lines = [f"{path} : {type_name}",
                 "+" * 43,
                 f"good: {self.good} bad: {self.bad} "
                 f"pcnt-bad: {self.pcnt_bad():.3f}"]
        if self.kind in ("int", "float", "date") and self.good:
            avg = self.total / self.good
            lines.append(f"min: {_fmt(self.min)} max: {_fmt(self.max)} "
                         f"avg: {avg:.3f}")
        if self.values:
            top = self.top(reported)
            lines.append(f"top {len(top)} values out of "
                         f"{len(self.values)} distinct values:")
            if self.good:
                lines.append(f"tracked {100.0 * self.tracked_count / self.good:.3f}% of values")
            lines.append("")
            summed = 0
            for value, count in top:
                pct = 100.0 * count / self.good if self.good else 0.0
                lines.append(f"val: {_fmt(value)} count: {count} "
                             f"%-of-good: {pct:.3f}")
                summed += count
            lines.append(". " * 21)
            pct = 100.0 * summed / self.good if self.good else 0.0
            lines.append(f"SUMMING count: {summed} %-of-good: {pct:.3f}")
        if self.err_codes:
            lines.append("errors by code: " + ", ".join(
                f"{name}: {count}" for name, count
                in sorted(self.err_codes.items(), key=lambda kv: -kv[1])))
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


class Accumulator:
    """A type-shaped accumulator tree (``<type>_acc`` in the paper's
    Figure 6: ``acc_init`` / ``acc_add`` / ``acc_report``).

    ``add`` sends a clean record (``pd`` None or ``pd.nerr == 0``) through
    a compiled adder — one straight-line function for the whole tree,
    bound on the first add (:mod:`repro.tools.adder`) — and a record with
    errors through ``walk``, the tree walk chosen from the node's shape
    when the tree is built.  The walk is the reference semantics and the
    only error path.  An unpickled copy has neither, since it is only
    merged and reported."""

    def __init__(self, node: PType, name: str = "<top>",
                 tracked: int = DEFAULT_TRACKED):
        self.node = node
        self.name = name
        self.tracked = tracked
        self.self_acc = ScalarAccum(_kind_of(node), tracked)
        self.children: Dict[str, Accumulator] = {}
        self.elts: Optional[Accumulator] = None
        self.lengths: Optional[ScalarAccum] = None
        self._adder = None
        self._build()

    def _build(self) -> None:
        node = _unwrap(self.node)
        if isinstance(node, StructNode):
            # Pcompute fields are derived values, not data positions, so
            # they are not profiled.
            for f in node.fields:
                if f.kind == "data":
                    self.children[f.name] = Accumulator(
                        f.node, f"{self.name}.{f.name}", self.tracked)
            self.form = "struct"
        elif isinstance(node, (UnionNode, SwitchUnionNode)):
            arms = node.branches if isinstance(node, UnionNode) else node.cases
            for arm in arms:
                self.children[arm.name] = Accumulator(
                    arm.node, f"{self.name}.{arm.name}", self.tracked)
            self.form = "union"
        elif isinstance(node, OptNode):
            self.children["some"] = Accumulator(
                node.inner, f"{self.name}.some", self.tracked)
            self.form = "opt"
        elif isinstance(node, ArrayNode):
            self.elts = Accumulator(node.elt, f"{self.name}[]", self.tracked)
            self.lengths = ScalarAccum("int", self.tracked)
            self.form = "array"
        else:
            self.form = "scalar"
        self.walk = getattr(self, f"_add_{self.form}")

    # -- adding -----------------------------------------------------------------

    def add(self, rep, pd: Optional[Pd] = None) -> None:
        """Profile one value: the same counts as ``walk(rep, pd)``."""
        if pd is not None and pd.nerr:
            self.walk(rep, pd)
            return
        adder = self._adder
        if adder is None:
            from .adder import bind_adder
            adder = self._adder = bind_adder(self)
        adder(rep)

    def _add_scalar(self, rep, pd: Optional[Pd] = None) -> None:
        self.self_acc.add(rep, pd)

    def _add_struct(self, rep, pd: Optional[Pd] = None) -> None:
        self.self_acc.add(None, pd)
        fields = pd.fields if pd is not None else {}
        for name, child in self.children.items():
            try:
                value = getattr(rep, name)
            except AttributeError:
                continue
            child.walk(value, fields.get(name))

    def _add_union(self, rep, pd: Optional[Pd] = None) -> None:
        tag = getattr(rep, "tag", None)
        self.self_acc.add(tag, pd)
        child = self.children.get(tag)
        if child is not None:
            child.walk(rep.value, pd.branch if pd is not None else None)

    def _add_opt(self, rep, pd: Optional[Pd] = None) -> None:
        if pd is not None and pd.nerr > 0:
            self.self_acc.add(None, pd)
        elif rep is None:
            self.self_acc.add("NONE", None)
        else:
            self.self_acc.add("SOME", None)
            self.children["some"].walk(rep, pd.branch if pd is not None else None)

    def _add_array(self, rep, pd: Optional[Pd] = None) -> None:
        self.self_acc.add(None, pd)
        if rep is None:
            return
        self.lengths.add(len(rep), None)
        elt_pds = pd.elts if pd is not None else []
        n_pds = len(elt_pds)
        for i, value in enumerate(rep):
            self.elts.walk(value, elt_pds[i] if i < n_pds else None)

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Combine another accumulator of the same shape into this one.

        This is the reduce step of parallel accumulation: each worker
        accumulates its chunk independently, then the per-chunk trees are
        merged in chunk order.  See :meth:`ScalarAccum.merge` for the
        exactness guarantees.
        """
        self.self_acc.merge(other.self_acc)
        if self.lengths is not None and other.lengths is not None:
            self.lengths.merge(other.lengths)
        if self.elts is not None and other.elts is not None:
            self.elts.merge(other.elts)
        for name, child in self.children.items():
            theirs = other.children.get(name)
            if theirs is not None:
                child.merge(theirs)
        return self

    def __getstate__(self):
        # Type nodes may close over interpreter environments and are not
        # picklable; a transferred accumulator only needs its counters
        # (the receiving side merges it into a tree that kept its nodes),
        # so the bound ``walk`` and the compiled adder are dropped too.
        state = dict(self.__dict__, node=None, _adder=None)
        state.pop("walk", None)  # absent on a copy that was unpickled
        return state

    # -- reporting ----------------------------------------------------------------

    def field(self, path: str) -> "Accumulator":
        """Descend to a nested accumulator by dotted path (``[]`` for array
        elements), e.g. ``"es[].header.order_num"``."""
        acc = self
        for part in path.split("."):
            depth = 0
            while part.endswith("[]"):
                part = part[:-2]
                depth += 1
            if part:
                acc = acc.children[part]
            for _ in range(depth):
                acc = acc.elts
        return acc

    def type_label(self) -> str:
        node = self.node
        while isinstance(node, RecordNode):
            node = node.inner
        if isinstance(node, BaseNode):
            label = node.name.split("(")[0]
            return {"Puint32": "uint32", "Puint8": "uint8", "Puint16": "uint16",
                    "Puint64": "uint64", "Pint32": "int32", "Pint64": "int64",
                    }.get(label, label)
        return node.name

    def report(self, reported: int = DEFAULT_REPORTED) -> str:
        return self.self_acc.report(self.name, self.type_label(), reported)

    def full_report(self, reported: int = DEFAULT_REPORTED) -> str:
        """Reports for this node and every nested position, paper-style."""
        chunks = [self.report(reported)]
        if self.lengths is not None and self.lengths.total_count:
            chunks.append(self.lengths.report(f"{self.name}.length",
                                              "array length", reported))
        if self.elts is not None:
            chunks.append(self.elts.full_report(reported))
        for child in self.children.values():
            chunks.append(child.full_report(reported))
        return "\n\n".join(chunks)


def record_accumulator(description, record_type: str,
                       tracked: int = DEFAULT_TRACKED,
                       summaries: bool = False) -> Accumulator:
    """A fresh ``<top>`` accumulator for ``record_type``, carrying the
    streaming histogram/quantile summaries (paper Section 9) when
    ``summaries`` is set."""
    acc = Accumulator(description.node(record_type), "<top>", tracked)
    if summaries:
        from .summaries import attach_summaries
        attach_summaries(acc)
    return acc


def header_accumulator(description, src, header_type: str,
                       tracked: int = DEFAULT_TRACKED,
                       mask=None) -> Accumulator:
    """Parse one ``header_type`` at ``src``'s position into a fresh
    ``<header>`` accumulator; ``src`` is left after the header."""
    acc = Accumulator(description.node(header_type), "<header>", tracked)
    acc.add(*description.parse(src, header_type, mask))
    return acc


def accumulate_records(description, data, record_type: str,
                       mask=None, tracked: int = DEFAULT_TRACKED,
                       header_type: Optional[str] = None):
    """Build an accumulator program from minimal extra information.

    The paper (Section 5.2): "given only the names of the optional header
    type and the record type, the PADS system will generate an accumulator
    program."  Returns ``(record_accumulator, header_accumulator_or_None,
    n_records)``.
    """
    src = description.open(data)
    header_acc = None if header_type is None else header_accumulator(
        description, src, header_type, tracked, mask)
    acc = record_accumulator(description, record_type, tracked)
    count = 0
    for rep, pd in description.records(src, record_type, mask):
        acc.add(rep, pd)
        count += 1
    return acc, header_acc, count
