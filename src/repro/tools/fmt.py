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

The tree walk (:func:`_pieces`/:func:`_join`) is the reference semantics.
Like the paper's generated function, :func:`formatter` also compiles it
once per record shape into one straight-line function (the formatting
twin of :mod:`repro.tools.adder`), used whenever no custom formatter or
per-field mask applies; any exception in it re-runs the walk.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


# -- the compiled formatter ------------------------------------------------

#: Deepest compound nesting the compiled formatter inlines; a subtree
#: below it is handed to the walk, keeping the source within CPython's
#: limits on nested indentation (100) and blocks (20) for any description.
_MAX_DEPTH = 16
#: Compiled formatters kept per top node (one per distinct option set).
_NODE_MEMO = 16


def _shape(node: PType, walked: List[PType], level: int = 0):
    """The template key of ``node``'s tree.  Record, typedef and app nodes
    unwrap, as in :func:`_pieces`; a compound below ``_MAX_DEPTH`` is
    ``("walk", i)``, its node appended to ``walked`` at ``i``."""
    while isinstance(node, (RecordNode, AppNode, TypedefNode)):
        node = (node.inner if isinstance(node, RecordNode) else
                node.decl_node if isinstance(node, AppNode) else node.base)
    if not isinstance(node, (StructNode, UnionNode, SwitchUnionNode,
                             OptNode, ArrayNode)):
        return ("enum" if isinstance(node, EnumNode) else "scalar", None)
    if level > _MAX_DEPTH:
        walked.append(node)
        return ("walk", len(walked) - 1)
    level += 1
    if isinstance(node, StructNode):
        return ("struct", tuple(
            (f.name, None if f.kind == "compute"
             else _shape(f.node, walked, level))
            for f in node.fields if f.kind != "literal"))
    if isinstance(node, (UnionNode, SwitchUnionNode)):
        branches = node.branches if isinstance(node, UnionNode) else node.cases
        return ("union", tuple((br.name, _shape(br.node, walked, level))
                               for br in branches))
    if isinstance(node, OptNode):
        return ("opt", _shape(node.inner, walked, level))
    return ("array", _shape(node.elt, walked, level))


def _max_depth(shape, depth: int = 0) -> int:
    """The deepest depth whose delimiter the tree can print: that of a
    struct or an array (a scalar's join has one piece)."""
    form, sub = shape
    if form == "struct":
        return max([depth] + [_max_depth(child, depth + 1)
                              for _, child in sub if child is not None])
    if form == "union":
        return max([0] + [_max_depth(child, depth) for _, child in sub])
    if form == "opt":
        return _max_depth(sub, depth)
    if form == "array":
        return max(depth, _max_depth(sub, depth + 1))
    return sys.maxsize if form == "walk" else 0


class _FormatterSource:
    """Emits ``_make(N, _walk)``, returning ``fmt(rep)`` over the walked
    subtrees ``N`` (see :func:`_shape`); ``fmt`` re-runs ``_walk`` on any
    exception.  Pieces are a list of expressions when their number is
    fixed, else the name of a list variable."""

    def __init__(self, delims: Tuple[str, ...]):
        self.delims = delims
        self.lines: List[str] = []
        self.nvars = 0

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def var(self, prefix: str = "v") -> str:
        self.nvars += 1
        return f"{prefix}{self.nvars}"

    def delim(self, depth: int) -> str:
        return repr(self.delims[min(depth, len(self.delims) - 1)])

    def source(self, shape) -> str:
        pieces = self.pieces(shape, "rep", 0, 3)
        self.w(3, f"return {self.delim(0)}.join({self.seq(pieces)})")
        return "\n".join(
            ["def _make(N, _walk):", "    def fmt(rep):", "        try:"]
            + self.lines
            + ["        except Exception:", "            return _walk(rep)",
               "    return fmt", ""])

    @staticmethod
    def seq(pieces) -> str:
        if isinstance(pieces, str):
            return pieces
        return "(" + "".join(p + ", " for p in pieces) + ")"

    @staticmethod
    def scalar(v: str) -> str:
        """``_scalar_text(v)``, with ``str`` and ``int`` inline."""
        return (f"({v} if type({v}) is str else str({v}) "
                f"if type({v}) is int else _st({v}, _spec))")

    def apart(self, emit, *args):
        """``(lines, result)`` of ``emit(*args)``, its lines kept apart."""
        saved, self.lines = self.lines, []
        result = emit(*args)
        lines, self.lines = self.lines, saved
        return lines, result

    def text(self, shape, var: str, depth: int, indent: int) -> str:
        """An expression for ``_join(node, var, depth)``; a single piece
        stands for itself (a non-``str`` one still fails a later join)."""
        pieces = self.pieces(shape, var, depth, indent)
        if isinstance(pieces, list) and len(pieces) == 1:
            return pieces[0]
        return f"{self.delim(depth)}.join({self.seq(pieces)})"

    def pieces(self, shape, var: str, depth: int, indent: int):
        """Emit ``_pieces(node, var, depth)``'s statements at ``indent``."""
        form, sub = shape
        if form == "scalar":
            return [self.scalar(var)]
        if form == "enum":
            return [f"str({var})"]
        if form == "walk":
            out = self.var("p")
            self.w(indent, f"{out} = _pieces(N[{sub}], {var}, _spec, _mask, "
                           f"{depth})")
            return out
        if form == "struct":
            out = []
            for name, child in sub:
                value = self.var()
                self.w(indent, f"{value} = getattr({var}, {name!r}, None)")
                out.append(self.scalar(value) if child is None
                           else self.text(child, value, depth + 1, indent))
            return out
        if form == "array":
            elt = self.var("e")
            lines, text = self.apart(self.text, sub, elt, depth + 1,
                                     indent + 1)
            out = self.var("p")
            if not lines:
                self.w(indent, f"{out} = [{text} for {elt} in {var} or ()]")
            else:
                self.w(indent, f"{out} = []")
                self.w(indent, f"for {elt} in {var} or ():")
                self.lines += lines
                self.w(indent + 1, f"{out}.append({text})")
            return out
        if form == "opt":
            arms = [(f"if {var} is not None:",
                     *self.apart(self.pieces, sub, var, depth, indent + 1))]
        else:  # union: the first branch of a name wins, as in the walk
            tag = self.var("t")
            self.w(indent, f"{tag} = {var}.tag")
            arms = []
            for n, (name, child) in enumerate(sub):
                value = self.var()
                lines, pieces = self.apart(self.pieces, child, value, depth,
                                           indent + 1)
                arms.append((f"{'elif' if n else 'if'} {name!r} == {tag}:",
                             [f"{'    ' * (indent + 1)}{value} = {var}.value"]
                             + lines, pieces))
        # An arm of one piece each keeps the pieces fixed: one variable.
        one = all(isinstance(p, list) and len(p) == 1 for _, _, p in arms)
        if form == "opt" and one and not arms[0][1]:
            return [f"(_none if {var} is None else {arms[0][2][0]})"]
        out = self.var("x" if one else "p")
        for head, lines, pieces in arms:
            self.w(indent, head)
            self.lines += lines
            self.w(indent + 1, f"{out} = " + (
                pieces[0] if one else pieces if isinstance(pieces, str)
                else "[" + ", ".join(pieces) + "]"))
        if arms:
            self.w(indent, "else:")
        self.w(indent + bool(arms), f"{out} = " + ("_none" if one
                                                   else "[_none]"))
        return [out] if one else out


@functools.lru_cache(maxsize=256)
def _template(shape, delims: Tuple[str, ...], date_format: Optional[str],
              none_text: str):
    """Compile the formatter source for one tree shape and the options it
    prints with; every tree of that shape, of any description, binds it."""
    spec = FormatSpec(delims, date_format, None, none_text)
    source = _FormatterSource(delims).source(shape)
    namespace = {"_st": _scalar_text, "_spec": spec, "_mask": spec.mask,
                 "_pieces": _pieces, "_none": none_text}
    exec(compile(source, "<delimited formatter>", "exec"), namespace)
    return namespace["_make"]


def _compiled(node: PType, delims: Tuple[str, ...],
              date_format: Optional[str], none_text: str) -> Formatter:
    walked: List[PType] = []
    shape = _shape(node, walked)
    delims = delims[:_max_depth(shape) + 1]
    spec = FormatSpec(delims, date_format, None, none_text)
    return _template(shape, delims, date_format, none_text)(
        walked, lambda rep: _join(node, rep, spec, spec.mask, 0))


def _prints_all(mask: Optional[Mask]) -> bool:
    return mask is None or (type(mask) is Mask and not mask.fields
                            and mask.elts is None
                            and mask.base != MaskFlag.IGNORE)


def _plain(delims: Tuple[str, ...], date_format: Optional[str],
           none_text: str) -> bool:
    """Options a compiled formatter can hold: plain ``str`` values."""
    return (all(type(d) is str for d in delims) and type(none_text) is str
            and (date_format is None or type(date_format) is str))


def formatter(node: PType, *, delims: Sequence[str] = ("|",),
              date_format: Optional[str] = None,
              mask: Optional[Mask] = None,
              none_text: str = "",
              custom: Optional[Dict[str, Formatter]] = None) -> Formatter:
    """``rep -> str`` rendering ``node``'s values with these options: the
    one place the formatting path is chosen.

    With no custom formatter and a mask that prints everything, this is
    the compiled formatter, built on first use and kept on ``node`` per
    option set; any exception in it re-runs the walk, so the result is
    the walk's string or the walk's own exception.  Otherwise it is the
    walk, which alone calls custom formatters (user code runs once).
    """
    key = (tuple(delims) or ("|",), date_format, none_text)
    if not custom and _prints_all(mask) and _plain(*key):
        memo = node.__dict__.setdefault("_formatters", {})
        fn = memo.get(key)
        if fn is None:
            if len(memo) >= _NODE_MEMO:
                memo.clear()
            fn = memo[key] = _compiled(node, *key)
        return fn
    spec = FormatSpec(delims, date_format, mask, none_text, custom)
    return lambda rep: _join(node, rep, spec, spec.mask, 0)


def format_value(node: PType, rep, *, delims: Sequence[str] = ("|",),
                 date_format: Optional[str] = None,
                 mask: Optional[Mask] = None,
                 none_text: str = "",
                 custom: Optional[Dict[str, Formatter]] = None) -> str:
    """Render one parsed value as a delimited line (``<type>_fmt2io``)."""
    return formatter(node, delims=delims, date_format=date_format, mask=mask,
                     none_text=none_text, custom=custom)(rep)


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
    fmt = formatter(description.node(record_type), delims=delims,
                    date_format=date_format, mask=mask, none_text=none_text,
                    custom=custom)
    if pairs is None:
        pairs = description.records(data, record_type, mask)
    for rep, pd in pairs:
        if skip_errors and pd.nerr:
            continue
        yield fmt(rep)
