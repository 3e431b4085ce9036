"""Canonical XML embedding of PADS data (paper Section 5.3.2).

"One interesting aspect of the mapping is that we embed not just the
in-memory representation of PADS values, but also the parse descriptors in
cases where the data was buggy" — each node whose parse descriptor records
errors carries a ``<pd>`` child with ``pstate`` / ``nerr`` / ``errCode`` /
``loc`` (arrays additionally ``neerr`` / ``firstError``), so analysts can
explore exactly the error portions of their sources.
"""

from __future__ import annotations

from typing import List, Optional
from xml.sax.saxutils import escape

from ..core.errors import Pd
from ..core.types import (
    AppNode,
    ArrayNode,
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


def _scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, DateVal):
        return escape(value.raw)
    if isinstance(value, float):
        return f"{value:g}"
    return escape(str(value))


def _pd_xml(pd: Pd, indent: str, array: bool) -> List[str]:
    lines = [f"{indent}<pd>",
             f"{indent}  <pstate>{pd.pstate.name or 'OK'}</pstate>",
             f"{indent}  <nerr>{pd.nerr}</nerr>",
             f"{indent}  <errCode>{pd.err_code.name}</errCode>"]
    if pd.loc is not None:
        lines.append(f"{indent}  <loc>{escape(str(pd.loc))}</loc>")
    if array:
        lines.append(f"{indent}  <neerr>{pd.neerr}</neerr>")
        lines.append(f"{indent}  <firstError>{pd.first_error}</firstError>")
    lines.append(f"{indent}</pd>")
    return lines


def _emit(node: PType, rep, pd: Optional[Pd], tag: str, indent: int,
          out: List[str]) -> None:
    pad = "  " * indent
    while isinstance(node, RecordNode):
        node = node.inner
    if isinstance(node, AppNode):
        node = node.decl_node
    if isinstance(node, TypedefNode):
        # Typedefs are transparent in the embedding, but keep their pd.
        _emit(node.base, rep, pd, tag, indent, out)
        return

    buggy = pd is not None and pd.nerr > 0

    if isinstance(node, StructNode):
        out.append(f"{pad}<{tag}>")
        for f in node.fields:
            if f.kind == "literal":
                continue
            child_pd = pd.fields.get(f.name) if pd else None
            value = getattr(rep, f.name, None)
            if f.kind == "compute":
                out.append(f"{pad}  <{f.name}>{_scalar(value)}</{f.name}>")
            else:
                _emit(f.node, value, child_pd, f.name, indent + 1, out)
        if buggy:
            out.extend(_pd_xml(pd, pad + "  ", array=False))
        out.append(f"{pad}</{tag}>")
        return

    if isinstance(node, (UnionNode, SwitchUnionNode)):
        out.append(f"{pad}<{tag}>")
        branches = node.branches if isinstance(node, UnionNode) else node.cases
        matched = False
        for br in branches:
            if br.name == rep.tag:
                _emit(br.node, rep.value, pd.branch if pd else None,
                      br.name, indent + 1, out)
                matched = True
                break
        if buggy or not matched:
            out.extend(_pd_xml(pd or Pd(), pad + "  ", array=False))
        out.append(f"{pad}</{tag}>")
        return

    if isinstance(node, OptNode):
        if rep is None:
            out.append(f"{pad}<{tag}/>")
        else:
            _emit(node.inner, rep, pd.branch if pd else None, tag, indent, out)
        return

    if isinstance(node, ArrayNode):
        out.append(f"{pad}<{tag}>")
        elts = rep or []
        for i, value in enumerate(elts):
            elt_pd = pd.elts[i] if pd and i < len(pd.elts) else None
            _emit(node.elt, value, elt_pd, "elt", indent + 1, out)
        out.append(f"{pad}  <length>{len(elts)}</length>")
        if buggy:
            out.extend(_pd_xml(pd, pad + "  ", array=True))
        out.append(f"{pad}</{tag}>")
        return

    if isinstance(node, EnumNode):
        body = _scalar(str(rep))
    else:
        body = _scalar(rep)
    if buggy:
        out.append(f"{pad}<{tag}>")
        if body:
            out.append(f"{pad}  <value>{body}</value>")
        out.extend(_pd_xml(pd, pad + "  ", array=False))
        out.append(f"{pad}</{tag}>")
    else:
        out.append(f"{pad}<{tag}>{body}</{tag}>")


def to_xml(node: PType, rep, pd: Optional[Pd] = None,
           tag: Optional[str] = None, indent: int = 0) -> str:
    """Render one parsed value as canonical XML
    (``<type>_write_xml_2io`` in the paper's Figure 6)."""
    out: List[str] = []
    _emit(node, rep, pd, tag or _default_tag(node), indent, out)
    return "\n".join(out)


def _default_tag(node: PType) -> str:
    name = node.name
    for ch in " (:)\"'/":
        name = name.replace(ch, "_")
    return name or "value"


def xml_records(description, data, record_type: str, mask=None,
                root: str = "source", pairs=None):
    """Convert a whole source to XML, one element per record (the
    generated conversion program of Section 5.3.2).  An already-parsed
    ``(rep, pd)`` iterable may be supplied as ``pairs``
    (``repro.execute.run``'s ``records`` op produces one on whichever
    engine it picks), in which case ``data`` is ignored."""
    yield f"<{root}>"
    node = description.node(record_type)
    if pairs is None:
        pairs = description.records(data, record_type, mask)
    for rep, pd in pairs:
        yield to_xml(node, rep, pd, record_type, indent=1)
    yield f"</{root}>"
