"""Field-annotated record viewer (paper Section 9's data-editor idea).

The paper wants "a graphical binary data editor" generated from
descriptions; the terminal equivalent is a *view*: a hex dump of a record
annotated with the byte span, path and value of every field the parser
recognised.  ``padsc view desc.pads data --record t`` prints it.

Spans are collected by a *shadow tree*: each runtime node is wrapped in a
tracing proxy that records ``(path, start, end, value)`` around the real
parse, and the source drops the events of every attempt it rewinds (a
losing union branch, an absent option).  The underlying parsers do all
the work, so what the view shows is exactly what the parser did.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.masks import Mask, P_CheckAndSet
from ..core.types import (
    AppNode,
    ArrayNode,
    BaseNode,
    EnumNode,
    LiteralNode,
    OptNode,
    PType,
    RecordNode,
    StructField,
    StructNode,
    SwitchCaseRT,
    SwitchUnionNode,
    TypedefNode,
    UnionBranch,
    UnionNode,
)
from ..core.values import DateVal


class SpanEvent:
    __slots__ = ("path", "start", "end", "value", "kind")

    def __init__(self, path: str, start: int, end: int, value, kind: str):
        self.path = path
        self.start = start
        self.end = end
        self.value = value
        self.kind = kind

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SpanEvent({self.path}, {self.start}-{self.end}, {self.value!r})"


class Tracer:
    def __init__(self):
        self.events: List[SpanEvent] = []

    def mark(self) -> int:
        return len(self.events)

    def truncate(self, mark: int) -> None:
        del self.events[mark:]

    def record(self, path: str, start: int, end: int, value, kind: str) -> None:
        self.events.append(SpanEvent(path, start, end, value, kind))


class _TracedLeaf(PType):
    """Wraps a leaf node, recording its span and value."""

    def __init__(self, inner: PType, path: str, tracer: Tracer):
        self.inner = inner
        self.path = path
        self.tracer = tracer
        self.name = inner.name
        self.kind = inner.kind

    def parse(self, src, mask, scope):
        start = src.pos
        rep, pd = self.inner.parse(src, mask, scope)
        if pd.nerr == 0:
            self.tracer.record(self.path, start, src.pos, rep, self.inner.kind)
        else:
            self.tracer.record(self.path, start, src.pos, None, "error")
        return rep, pd

    def default(self, scope):
        return self.inner.default(scope)


def _rewinding(src, tracer: Tracer):
    """``src``, made to drop the trace events recorded since a
    checkpoint whenever it is rewound to it."""
    mark, restore, commit = src.mark, src.restore, src.commit
    src.mark = lambda: (mark(), tracer.mark())
    src.restore = lambda state: (restore(state[0]), tracer.truncate(state[1]))
    src.commit = lambda state: commit(state[0])
    return src


def _shadow(node: PType, path: str, tracer: Tracer) -> PType:
    """Build the tracing shadow of a runtime node tree.  A shadowed
    compound keeps its compiled sites and parameters but none of its
    fast functions: every member must parse through its traced node."""
    shadow = _shadow_node(node, path, tracer)
    if shadow is not node:
        shadow.params = node.params
    return shadow


def _shadow_node(node: PType, path: str, tracer: Tracer) -> PType:
    if isinstance(node, RecordNode):
        return RecordNode(_shadow(node.inner, path, tracer))
    if isinstance(node, AppNode):
        app = AppNode(node.name, _shadow(node.decl_node, path, tracer),
                      node.param_names)
        app.args = node.args
        return app
    if isinstance(node, TypedefNode):
        return TypedefNode(node.name,
                           _TracedLeaf(node.base, path, tracer)
                           if isinstance(node.base, (BaseNode, EnumNode))
                           else _shadow(node.base, path, tracer),
                           node.var, node.constraint)
    if isinstance(node, StructNode):
        fields = []
        for f in node.fields:
            if f.kind == "literal":
                # Literal members are matched inline by StructNode (they
                # need matches_at/scan_from); their bytes show up as the
                # gaps between field spans.
                fields.append(f)
            elif f.kind == "compute":
                fields.append(f)
            else:
                child_path = f"{path}.{f.name}" if path else f.name
                fields.append(StructField("data", name=f.name,
                                          node=_shadow_child(f.node, child_path,
                                                             tracer),
                                          constraint=f.constraint))
        return StructNode(node.name, fields, node.where)
    if isinstance(node, UnionNode) and not isinstance(node, SwitchUnionNode):
        branches = [UnionBranch(br.name,
                                _shadow_child(br.node, f"{path}<{br.name}>",
                                              tracer),
                                br.constraint)
                    for br in node.branches]
        return UnionNode(node.name, branches)
    if isinstance(node, SwitchUnionNode):
        cases = [SwitchCaseRT(c.name,
                              _shadow_child(c.node, f"{path}<{c.name}>", tracer),
                              c.constraint)
                 for c in node.cases]
        switch = SwitchUnionNode(node.name, cases)
        switch.pick = node.pick
        return switch
    if isinstance(node, OptNode):
        return OptNode(_shadow_child(node.inner, path, tracer))
    if isinstance(node, ArrayNode):
        return ArrayNode(node.name,
                         _shadow_child(node.elt, path + "[]", tracer),
                         sep=node.sep, term=node.term,
                         min_size=node.min_size, max_size=node.max_size,
                         last=node.last, ended=node.ended,
                         longest=node.longest, where=node.where)
    return node


def _shadow_child(node: PType, path: str, tracer: Tracer) -> PType:
    if isinstance(node, (BaseNode, EnumNode, LiteralNode)):
        return _TracedLeaf(node, path, tracer)
    return _shadow(node, path, tracer)


def trace_record(description, data, type_name: str,
                 mask: Optional[Mask] = None):
    """Parse one record, returning (rep, pd, events, payload, rec_base)."""
    tracer = Tracer()
    node = description.node(type_name)
    shadowed = _shadow(node, "", tracer)
    if not isinstance(shadowed, RecordNode):
        shadowed = RecordNode(shadowed)
    src = _rewinding(description.open(data), tracer)
    # Capture the record's bytes without consuming, so the dump and the
    # span table describe the same record.
    state = src.mark()
    if not src.begin_record():
        src.restore(state)
        raise ValueError("no record at the cursor")
    payload = src.record_bytes()
    rec_base = src.rec_start
    src.restore(state)
    rep, pd = shadowed.parse(src, mask or Mask(P_CheckAndSet), {})
    return rep, pd, tracer.events, payload, rec_base


def _printable(b: int) -> str:
    return chr(b) if 32 <= b < 127 else "."


def hex_dump(data: bytes, base: int = 0, width: int = 16) -> str:
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off:off + width]
        hexes = " ".join(f"{b:02x}" for b in chunk).ljust(width * 3 - 1)
        text = "".join(_printable(b) for b in chunk)
        lines.append(f"  {base + off:06x}  {hexes}  |{text}|")
    return "\n".join(lines)


def _value_text(event: SpanEvent) -> str:
    v = event.value
    if event.kind == "error":
        return "<error>"
    if event.kind == "literal":
        return "(literal)"
    if v is None:
        return "(none)"
    if isinstance(v, DateVal):
        return v.raw
    text = repr(v) if isinstance(v, str) else str(v)
    return text if len(text) <= 40 else text[:37] + "..."


def render_record(description, data, type_name: str,
                  mask: Optional[Mask] = None) -> str:
    """The annotated view of the record at ``data``'s cursor."""
    rep, pd, events, payload, rec_base = trace_record(description, data,
                                                      type_name, mask)
    lines = [f"record: {len(payload)} bytes, {pd.summary()}",
             hex_dump(payload, base=0), "",
             f"  {'offset':>9}  {'field':40} value",
             "  " + "-" * 72]
    for event in events:
        span = f"{event.start - rec_base}-{event.end - rec_base}"
        lines.append(f"  {span:>9}  {event.path[:40]:40} {_value_text(event)}")
    return "\n".join(lines)
