"""Compile embedded-language ASTs to Python source.

The PADS compiler in the paper inlines constraint checks into the generated
C parser.  This module is the one evaluator the runtime has: every
constraint, ``Pwhere`` clause, selector, array bound, type argument and
helper function is translated to Python source here (through
:meth:`repro.plan.ir.Plan.cexpr` / :meth:`~repro.plan.ir.Plan.check`),
then embedded in a generated parser module or exec'd into the
interpreter's runtime namespace (:mod:`repro.plan.runtime`).

The tests keep a tree-walking interpreter as the reference semantics
(``tests/reference_eval.py``): ``tests/test_expr.py`` cross-checks the
two on randomly generated expressions.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from . import ast as E

Resolver = Callable[[str], str]

#: Iterations a compiled ``while``/``for`` loop may run before it raises,
#: so a runaway helper is an evaluation failure, not a hung parse.
LOOP_BOUND = 10_000_000

_BINOP = {
    "+": "+", "-": "-", "*": "*",
    "&": "&", "|": "|", "^": "^", "<<": "<<", ">>": ">>",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&&": "and", "||": "or",
}


def _default_resolver(name: str) -> str:
    return name


def compile_expr(expr: E.Expr, resolve: Optional[Resolver] = None) -> str:
    """Render ``expr`` as a Python expression string.

    ``resolve`` maps free identifiers to Python expressions (the code
    generator uses it to route field names to local variables and enum
    literals to constants).
    """
    r = resolve or _default_resolver

    def go(e: E.Expr) -> str:
        if isinstance(e, E.IntLit):
            return repr(e.value)
        if isinstance(e, E.FloatLit):
            return repr(e.value)
        if isinstance(e, (E.StrLit, E.CharLit)):
            return repr(e.value)
        if isinstance(e, E.BoolLit):
            return "True" if e.value else "False"
        if isinstance(e, E.Name):
            return r(e.ident)
        if isinstance(e, E.Unary):
            op = {"!": "not ", "-": "-", "+": "+", "~": "~"}[e.op]
            return f"({op}{go(e.operand)})"
        if isinstance(e, E.Binary):
            if e.op == "/":
                return f"_cdiv({go(e.left)}, {go(e.right)})"
            if e.op == "%":
                return f"_cmod({go(e.left)}, {go(e.right)})"
            if e.op in ("&&", "||"):
                return f"(bool({go(e.left)}) {_BINOP[e.op]} bool({go(e.right)}))"
            return f"({go(e.left)} {_BINOP[e.op]} {go(e.right)})"
        if isinstance(e, E.Ternary):
            return f"({go(e.then)} if {go(e.cond)} else {go(e.other)})"
        if isinstance(e, E.Member):
            # `length` needs the helper (it means len() on arrays); other
            # members compile to direct attribute access on Rec/UnionVal.
            if e.name == "length":
                return f"_member({go(e.obj)}, {e.name!r})"
            return f"{go(e.obj)}.{e.name}"
        if isinstance(e, E.Index):
            return f"{go(e.obj)}[{go(e.index)}]"
        if isinstance(e, E.Call):
            args = ", ".join(go(a) for a in e.args)
            return f"{r(e.func)}({args})"
        if isinstance(e, (E.Forall, E.Exists)):
            body = compile_expr(e.body, _shadowing(r, e.var))
            return (f"{'all' if isinstance(e, E.Forall) else 'any'}({body} "
                    f"for {e.var} in "
                    f"range(int({go(e.lo)}), int({go(e.hi)}) + 1))")
        raise TypeError(f"cannot compile {type(e).__name__}")

    return go(expr)


def compile_check(expr: E.Expr, resolve: Resolver, fail: str) -> List[str]:
    """``expr`` as statements that run ``fail`` (one statement) when it
    is false and fall through when it holds.

    A top-level ``Pforall``/``Pexists`` becomes a ``for`` loop that stops
    at the first deciding element, instead of a generator per element;
    its variable is renamed ``_q_<var>`` so it cannot clobber a local of
    the enclosing function.  Any other expression is one ``if not``.
    Exceptions propagate, so the caller decides what they mean.
    """
    if not isinstance(expr, (E.Forall, E.Exists)):
        return [f"if not ({compile_expr(expr, resolve)}):", f"    {fail}"]
    var = f"_q_{expr.var}"
    body = compile_expr(expr.body, lambda n: var if n == expr.var
                        else resolve(n))
    head = (f"for {var} in range(int({compile_expr(expr.lo, resolve)}), "
            f"int({compile_expr(expr.hi, resolve)}) + 1):")
    if isinstance(expr, E.Forall):
        return [head, f"    if not ({body}):", f"        {fail}",
                "        break"]
    return [head, f"    if {body}:", "        break", "else:", f"    {fail}"]


def _shadowing(resolve: Resolver, var: str) -> Resolver:
    def inner(name: str) -> str:
        if name == var:
            return name
        return resolve(name)
    return inner


def compile_function(fn: E.FuncDef, resolve: Optional[Resolver] = None,
                     name_prefix: str = "") -> str:
    """Render a user helper function as a Python ``def``.

    Free names inside the body that are neither parameters nor locals are
    resolved through ``resolve`` (enum literals, other helper functions).
    """
    bound = {p for _, p in fn.params}
    outer = resolve or _default_resolver

    def r(name: str) -> str:
        if name in bound:
            return name
        return outer(name)

    lines = [f"def {name_prefix}{fn.name}({', '.join(p for _, p in fn.params)}):"]
    body = _compile_block(fn.body, r, bound, indent=1, loops=[0])
    if not body:
        body = ["    return None"]
    lines.extend(body)
    lines.append("    return None")
    return "\n".join(lines)


def _compile_block(block: E.Block, r: Resolver, bound: set, indent: int,
                   loops: list) -> list:
    out: list = []
    for stmt in block.stmts:
        out.extend(_compile_stmt(stmt, r, bound, indent, loops))
    return out


def _loop_guard(pad: str, loops: list) -> tuple:
    """(init line, in-body lines) counting a loop's iterations against
    :data:`LOOP_BOUND`; ``loops`` numbers the function's loops."""
    loops[0] += 1
    n = f"_loop{loops[0]}"
    return (f"{pad}{n} = 0",
            [f"{pad}    {n} += 1", f"{pad}    if {n} > {LOOP_BOUND}:",
             f"{pad}        raise RuntimeError('loop exceeded iteration "
             "bound')"])


def _compile_stmt(stmt: E.Stmt, r: Resolver, bound: set, indent: int,
                  loops: list) -> list:
    pad = "    " * indent
    if isinstance(stmt, E.Block):
        return _compile_block(stmt, r, set(bound), indent, loops)
    if isinstance(stmt, E.VarDecl):
        bound.add(stmt.name)
        init = compile_expr(stmt.init, r) if stmt.init is not None else "0"
        return [f"{pad}{stmt.name} = {init}"]
    if isinstance(stmt, E.Assign):
        value = compile_expr(stmt.value, r)
        if isinstance(stmt.target, E.Name):
            bound.add(stmt.target.ident)
            target = stmt.target.ident
        elif isinstance(stmt.target, E.Index):
            target = f"{compile_expr(stmt.target.obj, r)}[{compile_expr(stmt.target.index, r)}]"
        else:
            raise TypeError("unsupported assignment target in generated code")
        op = stmt.op if stmt.op != "=" else "="
        if op in ("/=", "%="):
            helper = "_cdiv" if op == "/=" else "_cmod"
            return [f"{pad}{target} = {helper}({target}, {value})"]
        return [f"{pad}{target} {op} {value}"]
    if isinstance(stmt, E.If):
        out = [f"{pad}if {compile_expr(stmt.cond, r)}:"]
        out.extend(_compile_stmt(stmt.then, r, set(bound), indent + 1, loops)
                   or [f"{pad}    pass"])
        if stmt.other is not None:
            out.append(f"{pad}else:")
            out.extend(_compile_stmt(stmt.other, r, set(bound), indent + 1,
                                     loops) or [f"{pad}    pass"])
        return out
    if isinstance(stmt, E.While):
        init, guard = _loop_guard(pad, loops)
        out = [init, f"{pad}while {compile_expr(stmt.cond, r)}:"]
        out.extend(_compile_stmt(stmt.body, r, set(bound), indent + 1, loops))
        return out + guard
    if isinstance(stmt, E.ForStmt):
        out = []
        inner_bound = set(bound)
        if stmt.init is not None:
            out.extend(_compile_stmt(stmt.init, r, inner_bound, indent, loops))
        init, guard = _loop_guard(pad, loops)
        cond = compile_expr(stmt.cond, r) if stmt.cond is not None else "True"
        out += [init, f"{pad}while {cond}:"]
        out.extend(_compile_stmt(stmt.body, r, inner_bound, indent + 1, loops))
        if stmt.step is not None:
            out.extend(_compile_stmt(stmt.step, r, inner_bound, indent + 1,
                                     loops))
        return out + guard
    if isinstance(stmt, E.Return):
        value = compile_expr(stmt.value, r) if stmt.value is not None else "None"
        return [f"{pad}return {value}"]
    if isinstance(stmt, E.ExprStmt):
        return [f"{pad}{compile_expr(stmt.expr, r)}"]
    raise TypeError(f"cannot compile statement {type(stmt).__name__}")
