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
per-field mask applies; any exception in it re-runs the walk.  The source
is written with the plan's line writer and loaded by its template step
(:mod:`repro.plan.lines`), as the adder's is.
"""

from __future__ import annotations

import functools
import sys
from contextlib import nullcontext
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
from ..plan.lines import MAX_DEPTH, Fresh, Lines, template

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

#: Compiled formatters kept per top node (one per distinct option set).
_NODE_MEMO = 16


def _shape(node: PType, walked: List[PType], level: int = 0):
    """The template key of ``node``'s tree.  Record, typedef and app nodes
    unwrap, as in :func:`_pieces`; a compound below ``MAX_DEPTH`` is
    ``("walk", i)``, its node appended to ``walked`` at ``i``."""
    while isinstance(node, (RecordNode, AppNode, TypedefNode)):
        node = (node.inner if isinstance(node, RecordNode) else
                node.decl_node if isinstance(node, AppNode) else node.base)
    if not isinstance(node, (StructNode, UnionNode, SwitchUnionNode,
                             OptNode, ArrayNode)):
        return ("enum" if isinstance(node, EnumNode) else "scalar", None)
    if level > MAX_DEPTH:
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
        self.out = Lines(depth=3)
        self.var = Fresh("v")

    def delim(self, depth: int) -> str:
        return repr(self.delims[min(depth, len(self.delims) - 1)])

    def source(self, shape) -> str:
        pieces = self.pieces(shape, "rep", 0)
        self.out.w(f"return {self.delim(0)}.join({self.seq(pieces)})")
        return "\n".join(
            ["def _make(N, _walk):", "    def fmt(rep):", "        try:"]
            + self.out.lines
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

    def text(self, shape, var: str, depth: int) -> str:
        """An expression for ``_join(node, var, depth)``; a single piece
        stands for itself (a non-``str`` one still fails a later join)."""
        pieces = self.pieces(shape, var, depth)
        if isinstance(pieces, list) and len(pieces) == 1:
            return pieces[0]
        return f"{self.delim(depth)}.join({self.seq(pieces)})"

    def pieces(self, shape, var: str, depth: int):
        """Emit ``_pieces(node, var, depth)``'s statements."""
        w = self.out
        form, sub = shape
        if form == "scalar":
            return [self.scalar(var)]
        if form == "enum":
            return [f"str({var})"]
        if form == "walk":
            out = self.var("p")
            w.w(f"{out} = _pieces(N[{sub}], {var}, _spec, _mask, {depth})")
            return out
        if form == "struct":
            out = []
            for name, child in sub:
                value = self.var()
                w.w(f"{value} = getattr({var}, {name!r}, None)")
                out.append(self.scalar(value) if child is None
                           else self.text(child, value, depth + 1))
            return out
        if form == "array":
            elt = self.var("e")
            lines, text = w.apart(self.text, sub, elt, depth + 1)
            out = self.var("p")
            if not lines:
                w.w(f"{out} = [{text} for {elt} in {var} or ()]")
            else:
                w.w(f"{out} = []")
                with w.block(f"for {elt} in {var} or ():"):
                    w.lines += lines
                    w.w(f"{out}.append({text})")
            return out
        if form == "opt":
            arms = [(f"if {var} is not None:",
                     *w.apart(self.pieces, sub, var, depth))]
        else:  # union: the first branch of a name wins, as in the walk
            tag = self.var("t")
            w.w(f"{tag} = {var}.tag")
            arms = []
            for n, (name, child) in enumerate(sub):
                value = self.var()

                def branch(child=child, value=value):
                    w.w(f"{value} = {var}.value")
                    return self.pieces(child, value, depth)

                arms.append((f"{'elif' if n else 'if'} {name!r} == {tag}:",
                             *w.apart(branch)))
        # An arm of one piece each keeps the pieces fixed: one variable.
        one = all(isinstance(p, list) and len(p) == 1 for _, _, p in arms)
        if form == "opt" and one and not arms[0][1]:
            return [f"(_none if {var} is None else {arms[0][2][0]})"]
        out = self.var("x" if one else "p")
        for head, lines, pieces in arms:
            with w.block(head):
                w.lines += lines
                w.w(f"{out} = " + (
                    pieces[0] if one else pieces if isinstance(pieces, str)
                    else "[" + ", ".join(pieces) + "]"))
        with w.block("else:") if arms else nullcontext():
            w.w(f"{out} = " + ("_none" if one else "[_none]"))
        return [out] if one else out


@functools.lru_cache(maxsize=256)
def _template(shape, delims: Tuple[str, ...], date_format: Optional[str],
              none_text: str):
    """Compile the formatter source for one tree shape and the options it
    prints with; every tree of that shape, of any description, binds it."""
    spec = FormatSpec(delims, date_format, None, none_text)
    return template(_FormatterSource(delims).source(shape),
                    "<delimited formatter>",
                    {"_st": _scalar_text, "_spec": spec, "_mask": spec.mask,
                     "_pieces": _pieces, "_none": none_text})


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
