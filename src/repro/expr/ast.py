"""AST for the C-like expression language embedded in PADS descriptions.

Expressions appear in field constraints (``version : chkVersion(version,
meth)``), typedef predicates, ``Pwhere`` clauses, array termination
conditions, switched-union selectors, and type parameters.  Statements
appear only in user-defined helper functions such as ``chkVersion``.

Nodes carry ``line``/``col`` so later phases (typechecker, evaluator) can
produce located diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..util.fieldwise import Fieldwise


@dataclass(eq=False, repr=False)
class Node(Fieldwise):
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    pass


@dataclass(eq=False, repr=False)
class IntLit(Expr):
    value: int


@dataclass(eq=False, repr=False)
class FloatLit(Expr):
    value: float


@dataclass(eq=False, repr=False)
class StrLit(Expr):
    value: str


@dataclass(eq=False, repr=False)
class CharLit(Expr):
    """A character literal; the value is a one-character string."""
    value: str


@dataclass(eq=False, repr=False)
class BoolLit(Expr):
    value: bool


@dataclass(eq=False, repr=False)
class Name(Expr):
    ident: str


@dataclass(eq=False, repr=False)
class Unary(Expr):
    op: str  # '-', '!', '~', '+'
    operand: Expr


@dataclass(eq=False, repr=False)
class Binary(Expr):
    op: str  # '||' '&&' '|' '^' '&' '==' '!=' '<' '<=' '>' '>=' '<<' '>>' '+' '-' '*' '/' '%'
    left: Expr
    right: Expr


@dataclass(eq=False, repr=False)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(eq=False, repr=False)
class Call(Expr):
    func: str
    args: List[Expr]


@dataclass(eq=False, repr=False)
class Member(Expr):
    obj: Expr
    name: str


@dataclass(eq=False, repr=False)
class Index(Expr):
    obj: Expr
    index: Expr


@dataclass(eq=False, repr=False)
class Forall(Expr):
    """``Pforall (i Pin [lo..hi] : body)`` — universally quantified range.

    The paper's Figure 5 uses this to require Sirius event timestamps to be
    sorted.  The bounds are inclusive, matching the ``[0..length-2]``
    notation.
    """
    var: str
    lo: Expr
    hi: Expr
    body: Expr


@dataclass(eq=False, repr=False)
class Exists(Expr):
    """``Pexists (i Pin [lo..hi] : body)`` — existential counterpart."""
    var: str
    lo: Expr
    hi: Expr
    body: Expr


# ---------------------------------------------------------------------------
# Statements (bodies of user helper functions)
# ---------------------------------------------------------------------------

class Stmt(Node):
    pass


@dataclass(eq=False, repr=False)
class Block(Stmt):
    stmts: List[Stmt]


@dataclass(eq=False, repr=False)
class VarDecl(Stmt):
    type_name: str
    name: str
    init: Optional[Expr]


@dataclass(eq=False, repr=False)
class Assign(Stmt):
    target: Expr  # Name, Member or Index
    op: str  # '=', '+=', '-=', '*=', '/=', '%='
    value: Expr


@dataclass(eq=False, repr=False)
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt]


@dataclass(eq=False, repr=False)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(eq=False, repr=False)
class ForStmt(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Stmt]
    body: Stmt


@dataclass(eq=False, repr=False)
class Return(Stmt):
    value: Optional[Expr]


@dataclass(eq=False, repr=False)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(eq=False, repr=False)
class FuncDef(Node):
    """A user-defined helper function, e.g. ``chkVersion`` in Figure 4."""
    ret_type: str
    name: str
    params: List[Tuple[str, str]]  # (type name, param name)
    body: Block


def free_names(expr: Expr, bound: frozenset = frozenset()) -> set:
    """The free variable names of an expression.

    Used by the typechecker to verify that constraints only mention fields
    already in scope, and by codegen to decide what to pass into compiled
    predicates.
    """
    out: set = set()

    def walk(e: Expr, b: frozenset) -> None:
        if isinstance(e, Name):
            if e.ident not in b:
                out.add(e.ident)
        elif isinstance(e, Unary):
            walk(e.operand, b)
        elif isinstance(e, Binary):
            walk(e.left, b)
            walk(e.right, b)
        elif isinstance(e, Ternary):
            walk(e.cond, b)
            walk(e.then, b)
            walk(e.other, b)
        elif isinstance(e, Call):
            for a in e.args:
                walk(a, b)
        elif isinstance(e, Member):
            walk(e.obj, b)
        elif isinstance(e, Index):
            walk(e.obj, b)
            walk(e.index, b)
        elif isinstance(e, (Forall, Exists)):
            walk(e.lo, b)
            walk(e.hi, b)
            walk(e.body, b | {e.var})

    walk(expr, bound)
    return out
