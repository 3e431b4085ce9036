"""Delimited formatting of parsed data (paper Section 5.3.1, Figure 8).

The generated formatting function "takes a delimiter list as an argument.
At each field boundary, it prints the first delimiter.  At each nested
type boundary, it advances the delimiter list unless the list is
exhausted, in which case it reuses the last delimiter.  The mask argument
allows the user to suppress printing of portions of the data."

Dates are rendered through an output format (the paper's example uses
``"%D:%T"``); other scalars render naturally.  Custom per-type formatters
may be registered, mirroring "PADS allows users to provide their own
formatting functions for any type".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.masks import Mask, MaskFlag, P_CheckAndSet
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

Formatter = Callable[[object], str]


class FormatSpec:
    """Options threaded through a formatting walk."""

    def __init__(self, delims: Sequence[str] = ("|",),
                 date_format: Optional[str] = None,
                 mask: Optional[Mask] = None,
                 none_text: str = "",
                 custom: Optional[Dict[str, Formatter]] = None):
        self.delims = list(delims) or ["|"]
        self.date_format = date_format
        self.mask = mask or Mask(P_CheckAndSet)
        self.none_text = none_text
        self.custom = custom or {}

    def delim(self, depth: int) -> str:
        return self.delims[min(depth, len(self.delims) - 1)]


def _scalar_text(value, spec: FormatSpec) -> str:
    if value is None:
        return spec.none_text
    if isinstance(value, DateVal):
        if spec.date_format is not None:
            return value.strftime(spec.date_format)
        return value.raw
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _pieces(node: PType, rep, spec: FormatSpec, mask: Mask, depth: int) -> List[str]:
    """Flatten a value into formatted leaf strings at ``depth``."""
    if node.name in spec.custom:
        return [spec.custom[node.name](rep)]
    if isinstance(node, RecordNode):
        return _pieces(node.inner, rep, spec, mask, depth)
    if isinstance(node, AppNode):
        return _pieces(node.decl_node, rep, spec, mask, depth)
    if isinstance(node, TypedefNode):
        return _pieces(node.base, rep, spec, mask, depth)
    if isinstance(node, StructNode):
        out: List[str] = []
        for f in node.fields:
            if f.kind == "literal":
                continue
            fmask = mask.for_field(f.name)
            if fmask.base == MaskFlag.IGNORE:
                continue
            value = getattr(rep, f.name, None)
            if f.kind == "compute":
                out.append(_scalar_text(value, spec))
            else:
                out.append(_join(f.node, value, spec, fmask, depth + 1))
        return out
    if isinstance(node, (UnionNode, SwitchUnionNode)):
        branches = node.branches if isinstance(node, UnionNode) else node.cases
        for br in branches:
            if br.name == rep.tag:
                return _pieces(br.node, rep.value, spec,
                               mask.for_field(br.name), depth)
        return [spec.none_text]
    if isinstance(node, OptNode):
        if rep is None:
            return [spec.none_text]
        return _pieces(node.inner, rep, spec, mask, depth)
    if isinstance(node, ArrayNode):
        emask = mask.for_elements()
        return [_join(node.elt, v, spec, emask, depth + 1) for v in (rep or [])]
    if isinstance(node, EnumNode):
        return [str(rep)]
    if isinstance(node, BaseNode):
        return [_scalar_text(rep, spec)]
    return [_scalar_text(rep, spec)]


def _join(node: PType, rep, spec: FormatSpec, mask: Mask, depth: int) -> str:
    return spec.delim(depth).join(_pieces(node, rep, spec, mask, depth))


def format_value(node: PType, rep, *, delims: Sequence[str] = ("|",),
                 date_format: Optional[str] = None,
                 mask: Optional[Mask] = None,
                 none_text: str = "",
                 custom: Optional[Dict[str, Formatter]] = None) -> str:
    """Render one parsed value as a delimited line (``<type>_fmt2io``)."""
    spec = FormatSpec(delims, date_format, mask, none_text, custom)
    return spec.delim(0).join(_pieces(node, rep, spec, spec.mask, 0))


def format_records(description, data, record_type: str, *,
                   delims: Sequence[str] = ("|",),
                   date_format: Optional[str] = None,
                   mask: Optional[Mask] = None,
                   none_text: str = "",
                   custom: Optional[Dict[str, Formatter]] = None,
                   skip_errors: bool = False,
                   pairs=None):
    """The generated formatting *program* (paper: given just the record
    type and a delimiter string).  Yields one formatted line per record.

    An already-parsed ``(rep, pd)`` iterable may be supplied as ``pairs``
    (``repro.execute.run``'s ``records`` op produces one on whichever
    engine it picks), in which case ``data`` is ignored.
    """
    node = description.node(record_type)
    if pairs is None:
        pairs = description.records(data, record_type, mask)
    for rep, pd in pairs:
        if skip_errors and pd.nerr:
            continue
        yield format_value(node, rep, delims=delims, date_format=date_format,
                           mask=mask, none_text=none_text, custom=custom)
