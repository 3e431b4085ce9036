"""Field-annotated record viewer (paper Section 9's data-editor idea).

The paper wants "a graphical binary data editor" generated from
descriptions; the terminal equivalent is a *view*: a hex dump of a record
annotated with the byte span, path and value of every field the parser
recognised.  ``padsc view desc.pads data --record t`` prints it.

The view renders the parse tracer's events (:mod:`repro.observe.trace`):
the record is parsed once under ``observed(trace=True)``, and each exit
of a leaf position (a base or enum value) becomes a row whose value is
read from the rep along the event's path.  The tracer withdraws the
events of every rewound trial (a losing union branch, an absent option),
so what the view shows is exactly what the parser did.
"""

from __future__ import annotations

import re
import sys
from typing import List, NamedTuple, Optional

from .. import observe
from ..core.masks import Mask
from ..core.values import DateVal
from .dataapi import PNode


class Row(NamedTuple):
    """One leaf of the record: its span, its path (elements spelled
    ``[]``) and value; ``kind`` is ``error`` when it did not parse."""

    path: str
    start: int
    end: int
    value: object
    kind: str


#: One step of a trace path: a field name, a branch ``<name>`` or an
#: element ``[i]``.
_STEP = re.compile(r"\.?(\w+)|<(\w+)>|\[(\d+)\]")
_INDEX = re.compile(r"\[\d+\]")


def _leaf(root: PNode, path: str) -> Optional[PNode]:
    """The node at trace path ``path`` below ``root``, if it is a leaf."""
    node: Optional[PNode] = root
    for field, branch, index in _STEP.findall(path):
        if node is None:
            return None
        if index:
            node = node.kth_child(int(index))
        else:
            name = field or branch
            node = next((c for c in node.children
                         if c.ptype is not None and c.name == name), None)
    return node if node is not None and node.is_leaf else None


def trace_record(description, data, type_name: str,
                 mask: Optional[Mask] = None):
    """Parse one record, returning (rep, pd, rows, payload, rec_base)."""
    src = description.open(data)
    # Capture the record's bytes without consuming, so the dump and the
    # span table describe the same record.
    state = src.mark()
    if not src.begin_record():
        src.restore(state)
        raise ValueError("no record at the cursor")
    payload = src.record_bytes()
    rec_base = src.rec_start
    src.restore(state)
    # The record loop opens a record scope around a non-Precord type.
    with observe.observed(trace=True, max_events=sys.maxsize) as obs:
        rep, pd = next(description.records(src, type_name, mask))
    root = PNode(description.node(type_name), rep, None, type_name)
    rows: List[Row] = []
    for event in obs.tracer.events:
        leaf = _leaf(root, event.path) if event.kind == "exit" else None
        if leaf is not None:
            rows.append(Row(_INDEX.sub("[]", event.path), event.start,
                            event.end, leaf.rep,
                            "value" if event.outcome == "ok" else "error"))
    return rep, pd, rows, payload, rec_base


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


def _value_text(row: Row) -> str:
    v = row.value
    if row.kind == "error":
        return "<error>"
    if v is None:
        return "(none)"
    if isinstance(v, DateVal):
        return v.raw
    text = repr(v) if isinstance(v, str) else str(v)
    return text if len(text) <= 40 else text[:37] + "..."


def render_record(description, data, type_name: str,
                  mask: Optional[Mask] = None) -> str:
    """The annotated view of the record at ``data``'s cursor."""
    _, pd, rows, payload, rec_base = trace_record(description, data,
                                                  type_name, mask)
    lines = [f"record: {len(payload)} bytes, {pd.summary()}",
             hex_dump(payload, base=0), "",
             f"  {'offset':>9}  {'field':40} value",
             "  " + "-" * 72]
    for row in rows:
        span = f"{row.start - rec_base}-{row.end - rec_base}"
        lines.append(f"  {span:>9}  {row.path[:40]:40} {_value_text(row)}")
    return "\n".join(lines)
