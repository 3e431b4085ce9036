"""Struct functions: a struct's general parse, compiled per struct.

The interpreter's struct walk (:meth:`repro.core.types.StructNode.walk`)
parses the members one node at a time: a cursor method per literal, a
mask and a descriptor per member.  Inside an open record, under the
record fast path's own conditions, a struct runs its *struct function*
instead, ``_fs_<struct>(src, mask, scope) -> (rep, pd)``: the same walk
partially evaluated for the one struct into straight-line source.

* The buffer, the cursor and the record's end are read once; the cursor
  is a local offset into the buffer, written back to the source only
  where the general path takes over.
* A char or string literal is a byte compare on the buffer: an index for
  one byte, else one ``startswith``.
* A data member runs its member fast function (``_fm_<struct>__<member>``,
  :func:`repro.plan.fastpath.compile_member`) directly; its constraint is
  the member's compiled site.  A clean member builds no descriptor.
* A member the fast function misses, or one that has none, is parsed by
  its own node, and the walk's own steps finish it
  (:meth:`~repro.core.types.StructNode.member`): the one error path.
  So are a missing literal, a computed member and a constraint that
  fails, and resynchronisation and panic, whose members every later step
  skips past (``_at``, the index of the next member to parse).

The walk stays the reference: what ``fastpath=False``, tracers, limits
that a clean record could trip and non-uniform masks run.  This module
is imported when the first struct function is built, not before.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ir import ComputeItem, DataItem, LitItem, StructPlan
from .lines import Lines


def compile_struct(decl: StructPlan, fms: List[Optional[str]]
                   ) -> Tuple[str, List[str]]:
    """The factory fragment ``(name, source lines)`` of struct ``decl``'s
    function.  ``fms`` names, per item, the member fast function the
    struct function calls (None where there is none); they are loaded in
    the same namespace.  The factory ``_mk_fs_<struct>(node)`` takes the
    struct's bound node (whose fields hold the member nodes and
    constraint sites) and returns the struct function."""
    name = decl.name
    w = Lines()
    with w.block(f"def _mk_fs_{name}(_S):"):
        w.w("_F = _S.fields")
        for k, item in enumerate(decl.items):
            if isinstance(item, DataItem) and item.constraint is not None:
                w.w(f"_c{k} = _F[{k}].constraint")
        if decl.where is not None:
            w.w("_W = _S.where")
        w.w("_RC = _S.rec_class")
        with w.block(f"def _fs_{name}(src, mask, scope):"):
            w.w(f'"""Compiled general parse of struct {name}."""')
            _body(w, decl, fms)
        w.w(f"return _fs_{name}")
    return f"_mk_fs_{name}", w.lines


def _slots(decl: StructPlan) -> List[Optional[int]]:
    """Per item, its position in the rep (None for a literal)."""
    slots: List[Optional[int]] = []
    n = 0
    for item in decl.items:
        slots.append(None if isinstance(item, LitItem) else n)
        n += not isinstance(item, LitItem)
    return slots


def _body(w: Lines, decl: StructPlan, fms: List[Optional[str]]) -> None:
    nvalues = sum(not isinstance(item, LitItem) for item in decl.items)
    w.w("_b = src._buf")
    w.w("_o = src._base")
    w.w("_p = src.pos - _o")
    w.w("_e = src.rec_end - _o")
    w.w("dosem = (mask.bits & 4) != 0")
    w.w("pd = _Pd()")
    w.w("s = dict(scope)" if decl.params else "s = {}")
    w.w(f"_v = [None] * {nvalues}")
    w.w("_at = 0")
    slots = _slots(decl)
    for k, item in enumerate(decl.items):
        if k:
            # A step before this one may have resynchronised past it or
            # panicked.
            with w.block(f"if _at <= {k}:"):
                _step(w, k, item, slots[k], fms[k])
        else:
            _step(w, k, item, slots[k], fms[k])
    w.w("src.pos = _p + _o")
    if decl.where is not None:
        with w.block("if dosem and pd.nerr == 0 and not _W(s):"):
            w.w("pd.record_error(_WHERE, src.here())")
    w.w("return _RC(*_v), pd")


def _general(w: Lines, *calls: str) -> None:
    """Hand the cursor to the walk for ``calls`` (the last sets ``_at``)
    and take it back.  An open record is wholly buffered and stays put,
    so the buffer and its base need no re-reading."""
    w.w("src.pos = _p + _o")
    for call in calls:
        w.w(call)
    w.w("_p = src.pos - _o")


def _step(w: Lines, k: int, item, slot: Optional[int],
          fm: Optional[str]) -> None:
    """Emit member ``k``'s step."""
    if isinstance(item, LitItem):
        lit = item.literal
        miss = f"_at = _S.missing_literal({k}, src, s, _v, pd)"
        if lit.kind in ("char", "string"):
            # One byte compares by index, a third of a startswith call.
            test = (f"_p < _e and _b[_p] == {lit.raw[0]}"
                    if len(lit.raw) == 1 else
                    f"_b.startswith({lit.raw!r}, _p, _e)")
            with w.block(f"if {test}:"):
                w.w(f"_p += {len(lit.raw)}")
            with w.block("else:"):
                _general(w, miss)
        elif lit.kind == "eor":
            with w.block("if _p < _e:"):
                _general(w, miss)
        else:
            w.w("src.pos = _p + _o")
            w.w(f"_n = _F[{k}].node.matches_at(src)")
            with w.block("if _n >= 0:"):
                w.w("_p += _n")
            with w.block("else:"):
                _general(w, miss)
        return
    if isinstance(item, ComputeItem):
        w.w("src.pos = _p + _o")
        w.w(f"_S.compute({k}, src, dosem, s, _v, pd)")
        return
    assert isinstance(item, DataItem)
    parse = (f"_r, _c = _F[{k}].node.parse(src, "
             f"mask.for_field({item.name!r}), s)",
             f"_at = _S.member({k}, src, dosem, s, _v, pd, _r, _c, _p + _o)")
    if fm is None:
        _general(w, *parse)
        return
    w.w(f"_h = {fm}(_b, _p, _e, dosem)")
    with w.block("if _h is not None:"):
        w.w(f"_v[{slot}] = s[{item.name!r}] = _h[0]")
        if item.constraint is not None:
            with w.block(f"if dosem and not _c{k}(s):"):
                w.w("src.pos = _h[1] + _o")
                w.w(f"_S.violated({k}, src, pd, _p + _o)")
        w.w("_p = _h[1]")
    with w.block("else:"):
        _general(w, *parse)
