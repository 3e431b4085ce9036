"""Static work bound: how much interpreter work one parse may do per byte.

A description is a program, and its per-byte cost is set by the
description, not by the data's size alone: a ``Pforall`` whose range
comes from a parsed integer, a helper function with a ``while`` loop, a
user regex that backtracks, or an array whose separator and element can
both match nothing will run for as long as a parsed value says, on an
input of a few bytes.  :func:`work_per_byte` finds the descriptions for
which that cannot happen and says how much work they may do.

The bound ``c`` is a count of *steps* — one per base-type read,
literal, constraint node, helper-function statement and quantifier
iteration — such that parsing ``b`` bytes as any declared type takes at
most ``c * (b + 1)`` steps.  Scans that run inside one C call (finding a
terminator, matching a built-in base type's own pattern) are not steps;
they are linear in the bytes they look at.  It composes bottom-up:

* a struct costs the sum of its members, a union the sum of its
  branches (each may be tried), a switch its selector plus every case;
* an array runs at most once per byte it consumes (plus one), because a
  non-empty separator consumes a byte per element and an element that
  consumes nothing without a separator ends the array; so its per-byte
  cost is its element's plus the per-element predicates;
* a quantifier over ``[lo..hi]`` costs its span times its body.  Spans
  between literals are constants; in an array's ``Pwhere`` a span up to
  ``length`` is capped by the elements parsed, so by the bytes.

It is None (no bound) when the work can outgrow the bytes:

* a quantifier with any other span (a parsed value sets its range),
  or a ``length`` span inside another quantifier or a per-element
  predicate (quadratic in the elements);
* a ``while``/``for`` loop or a recursive call in a helper function;
* a user regex (``Pre``, ``Pstring_ME``, ``Pstring_SE``): Python's
  backtracking matcher has no linear bound;
* an array whose separator can match the empty string;
* an array whose element may try an alternative, consume a variable
  number of bytes and give them back (a union, ``Popt`` or longest-match
  array over variable widths): each element may then rescan the rest of
  the record, which is quadratic.  A ``Precord`` element rescans only
  its own record, so it does not count (unless the record discipline
  is ``none``, whose one record is the whole input);
* ``*`` without a numeric literal operand, ``<<`` by anything but a
  literal under 64: a parsed value sets the size of the result;
* in a value that is kept (a ``Pcompute`` field, a type argument, a
  helper's variables), ``+`` without a literal operand or ``*`` by a
  factor other than 0 or ±1: chained through fields, the growth
  compounds.  ``*`` by a literal ``k`` elsewhere costs ``|k|`` steps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..expr import ast as E
from .ir import (
    ArrayPlan,
    BaseUse,
    ComputeItem,
    DataItem,
    EnumPlan,
    LitItem,
    LitPlan,
    OptUse,
    Plan,
    RefUse,
    StructPlan,
    SwitchPlan,
    TypedefPlan,
    UnionPlan,
    Use,
)

#: Base types whose argument is a regex the matcher runs on the data.
_REGEX_BASES = frozenset({"Pstring_ME", "Pstring_SE"})


def work_per_byte(plan: Plan, record_scoped: bool = True) -> Optional[int]:
    """The largest per-byte step bound over ``plan``'s declared types,
    or None when some type's work is not bounded by its input.

    ``record_scoped``: a ``Precord`` type's parse is confined to its own
    record, as under every record discipline but ``none``.
    """
    try:
        return _Bound(plan, record_scoped).worst()
    except _Unbounded:
        return None


class _Unbounded(Exception):
    """Some site's work is set by a parsed value, not by the bytes."""


class _Bound:
    def __init__(self, plan: Plan, record_scoped: bool):
        self.plan = plan
        self.record_scoped = record_scoped
        #: type name -> (steps per byte, may rescan): "may rescan" is
        #: whether a parse may consume a variable number of bytes and
        #: give them back.
        self.types: Dict[str, Tuple[int, bool]] = {}
        #: helper name -> steps per call; None while its body is walked
        #: (meeting it again then is recursion).
        self.funcs: Dict[str, Optional[int]] = {}

    def worst(self) -> int:
        # Types are declared before use, so one in-order pass suffices.
        for name, dp in self.plan.decls.items():
            self.types[name] = self.decl(dp)
        return max((c for c, _ in self.types.values()), default=0)

    # -- declarations ---------------------------------------------------------

    def decl(self, dp) -> Tuple[int, bool]:
        cost = 1 + self.expr(dp.where,
                             in_array_where=isinstance(dp, ArrayPlan))
        rescans = False
        if isinstance(dp, StructPlan):
            for item in dp.items:
                if isinstance(item, LitItem):
                    cost += self.lit(item.literal)
                elif isinstance(item, ComputeItem):
                    _check_stored(item.expr)
                    cost += (1 + self.expr(item.expr)
                             + self.expr(item.constraint))
                else:
                    assert isinstance(item, DataItem)
                    c, r = self.use(item.type)
                    cost += c + self.expr(item.constraint)
                    rescans |= r
        elif isinstance(dp, UnionPlan):
            for br in dp.branches:
                c, r = self.use(br.type)
                cost += c + self.expr(br.constraint)
                rescans |= r or br.type.width is None
        elif isinstance(dp, SwitchPlan):
            cost += self.expr(dp.selector)
            for case in dp.cases:
                c, r = self.use(case.type)
                cost += (c + self.expr(case.value)
                         + self.expr(case.constraint))
                rescans |= r
        elif isinstance(dp, ArrayPlan):
            if dp.sep is not None and not dp.sep.width:
                raise _Unbounded  # empty or regex separator
            c, r = self.use(dp.elt)
            if r:
                raise _Unbounded
            cost += (c + self.lit(dp.sep) + self.lit(dp.term)
                     + self.expr(dp.ended) + self.expr(dp.last)
                     + self.expr(dp.min_size) + self.expr(dp.max_size))
            rescans = dp.longest and dp.elt.width is None
        elif isinstance(dp, EnumPlan):
            cost += len(dp.items)
        else:
            assert isinstance(dp, TypedefPlan)
            c, rescans = self.use(dp.base)
            cost += c + self.expr(dp.constraint)
        return cost, rescans

    def use(self, use: Use) -> Tuple[int, bool]:
        for arg in getattr(use, "args", ()):
            _check_stored(arg)
        if isinstance(use, BaseUse):
            if use.name in _REGEX_BASES:
                raise _Unbounded
            return 1 + sum(self.expr(a) for a in use.args), False
        if isinstance(use, OptUse):
            c, r = self.use(use.inner)
            return 1 + c, r or use.inner.width is None
        if isinstance(use, RefUse):
            c, r = self.types[use.name]
            scoped = self.record_scoped and self.plan.decls[use.name].is_record
            return c + sum(self.expr(a) for a in use.args), r and not scoped
        raise _Unbounded  # RegexUse

    @staticmethod
    def lit(lp: Optional[LitPlan]) -> int:
        if lp is None:
            return 0
        if lp.kind == "regex":
            raise _Unbounded
        return 1

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Optional[E.Expr], in_array_where: bool = False) -> int:
        """Steps to evaluate ``e`` once, per byte where a quantifier's
        span is capped by an array's ``length`` (``in_array_where``:
        ``e`` is, or is an operand within, an array's Pwhere)."""
        if e is None:
            return 0
        if isinstance(e, (E.IntLit, E.FloatLit, E.StrLit, E.CharLit,
                          E.BoolLit, E.Name)):
            return 1
        if isinstance(e, E.Unary):
            return 1 + self.expr(e.operand, in_array_where)
        if isinstance(e, E.Binary):
            return (_growth(e.op, e.left, e.right)
                    + self.expr(e.left, in_array_where)
                    + self.expr(e.right, in_array_where))
        if isinstance(e, E.Ternary):
            return (1 + self.expr(e.cond, in_array_where)
                    + self.expr(e.then, in_array_where)
                    + self.expr(e.other, in_array_where))
        if isinstance(e, E.Member):
            return 1 + self.expr(e.obj)
        if isinstance(e, E.Index):
            return 1 + self.expr(e.obj) + self.expr(e.index)
        if isinstance(e, E.Call):
            args = sum(self.expr(a) for a in e.args)
            if e.func in self.plan.functions:
                return 1 + args + self.func(e.func)
            return 1 + args  # a builtin: one C call
        if isinstance(e, (E.Forall, E.Exists)):
            span = _span(e.lo, e.hi, in_array_where)
            if span is None:
                raise _Unbounded
            return (1 + self.expr(e.lo) + self.expr(e.hi)
                    + span * self.expr(e.body))
        raise _Unbounded  # an expression form this bound does not know

    def func(self, name: str) -> int:
        if name in self.funcs:
            cost = self.funcs[name]
            if cost is None:
                raise _Unbounded  # recursion
            return cost
        self.funcs[name] = None
        body = self.plan.functions[name].body
        _check_stored(body)  # its variables and result
        cost = self.funcs[name] = self.stmt(body)
        return cost

    def stmt(self, s: Optional[E.Stmt]) -> int:
        if s is None:
            return 0
        if isinstance(s, E.Block):
            return sum(self.stmt(x) for x in s.stmts)
        if isinstance(s, E.VarDecl):
            return 1 + self.expr(s.init)
        if isinstance(s, E.Assign):
            return (_growth(s.op.rstrip("="), s.target, s.value)
                    + self.expr(s.target) + self.expr(s.value))
        if isinstance(s, E.If):
            return (1 + self.expr(s.cond) + self.stmt(s.then)
                    + self.stmt(s.other))
        if isinstance(s, E.Return):
            return 1 + self.expr(s.value)
        if isinstance(s, E.ExprStmt):
            return 1 + self.expr(s.expr)
        raise _Unbounded  # While, ForStmt


def _const(e: E.Expr) -> Optional[int]:
    """The value of an integer literal (optionally negated), else None."""
    if isinstance(e, E.IntLit):
        return e.value
    if isinstance(e, E.Unary) and e.op == "-" and isinstance(e.operand,
                                                             E.IntLit):
        return -e.operand.value
    return None


def _span(lo: E.Expr, hi: E.Expr, in_array_where: bool) -> Optional[int]:
    """The per-byte iteration factor of ``[lo..hi]``, None if unbounded.

    Literal bounds give their length.  In an array's Pwhere, ``hi`` may
    be ``length``, ``length + k`` or ``length - k``: at most
    ``length + k - lo + 1`` iterations, and ``length`` is at most the
    bytes plus one.
    """
    first, last = _const(lo), _const(hi)
    if first is None:
        return None
    if last is not None:
        return max(0, last - first + 1)
    if not in_array_where:
        return None
    offset = None
    if isinstance(hi, E.Name) and hi.ident == "length":
        offset = 0
    elif (isinstance(hi, E.Binary) and hi.op in ("+", "-")
          and isinstance(hi.left, E.Name) and hi.left.ident == "length"):
        k = _const(hi.right)
        if k is not None:
            offset = k if hi.op == "+" else -k
    if offset is None:
        return None
    return 1 + max(0, offset - first)


def _growth(op: str, left: E.Expr, right: E.Expr) -> int:
    """Steps for one binary operation.  ``*`` by a numeric literal ``k``
    costs ``|k|`` (on a string it makes ``k`` copies); the operators
    whose result size a parsed value sets are refused."""
    factor = _factor(left, right)
    if op == "*":
        if factor is None:
            raise _Unbounded  # "ab" * n, or a product of two parsed values
        return max(1, int(abs(factor)))
    if op == "<<":
        k = _const(right)
        if k is None or not 0 <= k < 64:
            raise _Unbounded  # 1 << n
    return 1


def _factor(left: E.Expr, right: E.Expr):
    """The numeric literal among two operands, else None."""
    for side in (left, right):
        if isinstance(side, (E.IntLit, E.FloatLit)):
            return side.value
    return None


def _check_stored(node: E.Node) -> None:
    """Refuse growth that compounds.  A value that is kept — a Pcompute
    field, a type argument, a helper's variables and result — feeds the
    next one, so an operation that may double it (``s + s``) or
    multiply it (``s * 2`` on a string) grows exponentially along a
    chain of fields: adding a literal is the only growth allowed."""
    for e in _subexpressions(node):
        if isinstance(e, E.Assign) and e.op in ("+=", "*="):
            e = E.Binary(e.op[0], e.target, e.value)
        if not isinstance(e, E.Binary):
            continue
        if e.op == "+" and not any(isinstance(side, _LITERALS)
                                   for side in (e.left, e.right)):
            raise _Unbounded
        k = _factor(e.left, e.right)
        if e.op == "*" and (k is None or abs(k) > 1):
            raise _Unbounded


_LITERALS = (E.IntLit, E.FloatLit, E.StrLit, E.CharLit, E.BoolLit)


def _subexpressions(node: E.Node):
    """``node`` and every expression and statement inside it."""
    yield node
    for value in vars(node).values():
        for child in (value if isinstance(value, list) else (value,)):
            if isinstance(child, E.Node):
                yield from _subexpressions(child)
