"""Reference interpreter for the embedded expression language.

The package has no interpreter: every expression site runs compiled to
Python by :mod:`repro.expr.pycompile`.  This tree walker is the
independent statement of the semantics that ``tests/test_expr.py`` and
``tests/test_expr_functions_equiv.py`` check the compiler against (on
random expressions among others).

Semantics follow C where it matters for descriptions:

* ``&&`` / ``||`` short-circuit and yield booleans,
* integer division truncates toward zero,
* comparisons between a char literal and a one-character string compare
  equal exactly when the characters match (chars *are* one-character
  strings here),
* enum values evaluate to their literal name, so ``m == LINK`` compares
  strings.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.expr import ast as E
from repro.expr.runtime import BUILTINS, member


class EvalError(Exception):
    """Raised when an expression cannot be evaluated (bad name, bad type)."""


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class Env:
    """Lexically chained environment.

    ``vars`` holds local bindings; ``funcs`` user function definitions
    (shared across the chain); ``builtins`` native Python callables.
    """

    def __init__(self, vars: Optional[Dict[str, Any]] = None,
                 parent: Optional["Env"] = None,
                 funcs: Optional[Dict[str, E.FuncDef]] = None,
                 builtins: Optional[Dict[str, Callable]] = None):
        self.vars = vars if vars is not None else {}
        self.parent = parent
        self.funcs = funcs if funcs is not None else (parent.funcs if parent else {})
        self.builtins = builtins if builtins is not None else (parent.builtins if parent else dict(BUILTINS))

    def child(self, vars: Optional[Dict[str, Any]] = None) -> "Env":
        return Env(vars or {}, parent=self)

    def lookup(self, name: str) -> Any:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise EvalError(f"unbound name {name!r}")

    def bound(self, name: str) -> bool:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            env = env.parent
        self.vars[name] = value


def _c_div(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise EvalError("division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _c_mod(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise EvalError("modulo by zero")
        return a - _c_div(a, b) * b
    return a % b


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_expr(expr: E.Expr, env: Env) -> Any:
    """Evaluate ``expr`` in ``env``; raises :class:`EvalError` on failure."""
    if isinstance(expr, (E.IntLit, E.FloatLit, E.StrLit, E.CharLit, E.BoolLit)):
        return expr.value
    if isinstance(expr, E.Name):
        return env.lookup(expr.ident)
    if isinstance(expr, E.Unary):
        v = eval_expr(expr.operand, env)
        if expr.op == "-":
            return -v
        if expr.op == "+":
            return +v
        if expr.op == "!":
            return not v
        if expr.op == "~":
            return ~v
        raise EvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, E.Binary):
        if expr.op == "&&":
            return bool(eval_expr(expr.left, env)) and bool(eval_expr(expr.right, env))
        if expr.op == "||":
            return bool(eval_expr(expr.left, env)) or bool(eval_expr(expr.right, env))
        a = eval_expr(expr.left, env)
        b = eval_expr(expr.right, env)
        if expr.op in _CMP:
            try:
                return _CMP[expr.op](a, b)
            except TypeError as exc:
                raise EvalError(f"bad comparison {type(a).__name__} {expr.op} {type(b).__name__}") from exc
        if expr.op in _ARITH:
            try:
                return _ARITH[expr.op](a, b)
            except TypeError as exc:
                raise EvalError(f"bad operands for {expr.op!r}") from exc
        raise EvalError(f"unknown operator {expr.op!r}")
    if isinstance(expr, E.Ternary):
        return eval_expr(expr.then if eval_expr(expr.cond, env) else expr.other, env)
    if isinstance(expr, E.Member):
        obj = eval_expr(expr.obj, env)
        try:
            return member(obj, expr.name)
        except (AttributeError, KeyError) as exc:
            raise EvalError(f"no field {expr.name!r}") from exc
    if isinstance(expr, E.Index):
        obj = eval_expr(expr.obj, env)
        idx = eval_expr(expr.index, env)
        try:
            return obj[idx]
        except (IndexError, KeyError, TypeError) as exc:
            raise EvalError(f"bad index {idx!r}") from exc
    if isinstance(expr, E.Call):
        args = [eval_expr(a, env) for a in expr.args]
        if expr.func in env.funcs:
            return call_function(env.funcs[expr.func], args, env)
        if expr.func in env.builtins:
            try:
                return env.builtins[expr.func](*args)
            except EvalError:
                raise
            except Exception as exc:
                raise EvalError(f"builtin {expr.func} failed: {exc}") from exc
        raise EvalError(f"unknown function {expr.func!r}")
    if isinstance(expr, E.Forall):
        lo = eval_expr(expr.lo, env)
        hi = eval_expr(expr.hi, env)
        for i in range(int(lo), int(hi) + 1):
            if not eval_expr(expr.body, env.child({expr.var: i})):
                return False
        return True
    if isinstance(expr, E.Exists):
        lo = eval_expr(expr.lo, env)
        hi = eval_expr(expr.hi, env)
        for i in range(int(lo), int(hi) + 1):
            if eval_expr(expr.body, env.child({expr.var: i})):
                return True
        return False
    raise EvalError(f"cannot evaluate {type(expr).__name__}")


def call_function(fn: E.FuncDef, args: list, env: Env) -> Any:
    """Invoke a user helper function with C-like call-by-value semantics."""
    if len(args) != len(fn.params):
        raise EvalError(f"{fn.name} expects {len(fn.params)} argument(s), got {len(args)}")
    # C-like scoping: the body sees its parameters and globals (the root of
    # the caller's environment chain — enum literals, functions), but not
    # the caller's locals.
    root = env
    while root.parent is not None:
        root = root.parent
    frame = Env({name: val for (_, name), val in zip(fn.params, args)},
                parent=root)
    try:
        exec_stmt(fn.body, frame)
    except _ReturnSignal as ret:
        return ret.value
    return None


def exec_stmt(stmt: E.Stmt, env: Env) -> None:
    if isinstance(stmt, E.Block):
        inner = env.child()
        for s in stmt.stmts:
            exec_stmt(s, inner)
        return
    if isinstance(stmt, E.VarDecl):
        env.vars[stmt.name] = eval_expr(stmt.init, env) if stmt.init is not None else 0
        return
    if isinstance(stmt, E.Assign):
        value = eval_expr(stmt.value, env)
        if stmt.op != "=":
            current = eval_expr(stmt.target, env)
            value = _ARITH[stmt.op[:-1]](current, value)
        target = stmt.target
        if isinstance(target, E.Name):
            env.assign(target.ident, value)
        elif isinstance(target, E.Index):
            obj = eval_expr(target.obj, env)
            obj[eval_expr(target.index, env)] = value
        elif isinstance(target, E.Member):
            obj = eval_expr(target.obj, env)
            if isinstance(obj, dict):
                obj[target.name] = value
            else:
                setattr(obj, target.name, value)
        else:
            raise EvalError("invalid assignment target")
        return
    if isinstance(stmt, E.If):
        if eval_expr(stmt.cond, env):
            exec_stmt(stmt.then, env)
        elif stmt.other is not None:
            exec_stmt(stmt.other, env)
        return
    if isinstance(stmt, E.While):
        guard = 0
        while eval_expr(stmt.cond, env):
            exec_stmt(stmt.body, env)
            guard += 1
            if guard > 10_000_000:
                raise EvalError("while loop exceeded iteration bound")
        return
    if isinstance(stmt, E.ForStmt):
        inner = env.child()
        if stmt.init is not None:
            exec_stmt(stmt.init, inner)
        guard = 0
        while stmt.cond is None or eval_expr(stmt.cond, inner):
            exec_stmt(stmt.body, inner)
            if stmt.step is not None:
                exec_stmt(stmt.step, inner)
            guard += 1
            if guard > 10_000_000:
                raise EvalError("for loop exceeded iteration bound")
        return
    if isinstance(stmt, E.Return):
        raise _ReturnSignal(eval_expr(stmt.value, env) if stmt.value is not None else None)
    if isinstance(stmt, E.ExprStmt):
        eval_expr(stmt.expr, env)
        return
    raise EvalError(f"cannot execute {type(stmt).__name__}")
