"""Semantic analysis for PADS descriptions.

Checks performed before binding a description to the runtime:

* every type name resolves — to an *earlier* declaration (the paper:
  "types are declared before they are used") or to a registered base type;
* no duplicate type, field, branch or enum-literal names;
* parameter arity at every use site (declared types and base types);
* constraints mention only names in scope — for struct fields that is
  *earlier fields plus the field itself*, matching the paper's scoping
  rule; for array ``Pwhere`` clauses the pseudo-variables ``elts`` and
  ``length`` are in scope;
* helper functions are checked for unbound names;
* at most one explicit ``Psource``; the source type is resolvable.

Errors are reported together as a :class:`TypeErrorReport` carrying all
located diagnostics.
"""

from __future__ import annotations

import keyword as _kw
from typing import Dict, List, Set

from ..core.basetypes.base import base_type_arity, is_base_type
from ..core.errors import DescriptionError
from ..expr import ast as E
from ..expr.ast import free_names
from ..expr.runtime import BUILTINS
from . import ast as D

_PSEUDO_ARRAY_VARS = {"elts", "length"}


class TypeErrorReport(DescriptionError):
    """All diagnostics from one checking pass."""

    def __init__(self, diagnostics: List[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


def _reserved(name: str) -> bool:
    """Identifiers reserved by the Python backend.

    The paper's compiler emits C, so C keywords cannot name PADS fields;
    this backend emits Python, so Python keywords are reserved the same
    way.  The check keeps generated modules loadable for every legal
    description.
    """
    return _kw.iskeyword(name) or _kw.issoftkeyword(name)


class _Checker:
    def __init__(self, desc: D.Description, ambient: str):
        self.desc = desc
        self.ambient = ambient
        self.errors: List[str] = []
        self.declared: Dict[str, D.Decl] = {}
        self.functions: Dict[str, E.FuncDef] = {}
        self.enum_literals: Set[str] = set()

    def error(self, message: str, line: int = 0, col: int = 0) -> None:
        if line:
            message = f"line {line}:{col}: {message}"
        self.errors.append(message)

    def check_ident(self, name: str, what: str, line: int = 0, col: int = 0) -> None:
        if _reserved(name):
            self.error(f"{what} {name!r} is a Python keyword, which the "
                       "Python backend reserves", line, col)

    # -- scope helpers -------------------------------------------------------

    def global_names(self) -> Set[str]:
        return set(self.functions) | self.enum_literals | set(BUILTINS)

    def check_expr_scope(self, expr: E.Expr, local: Set[str],
                         context: str, line: int, col: int) -> None:
        unknown = free_names(expr) - local - self.global_names()
        for name in sorted(unknown):
            self.error(f"{context}: unbound name {name!r}", line, col)

    def check_function(self, fn: E.FuncDef) -> None:
        bound = {p for _, p in fn.params}
        self._check_stmt_scope(fn.body, set(bound), fn)

    def _check_stmt_scope(self, stmt: E.Stmt, bound: Set[str], fn: E.FuncDef) -> None:
        if isinstance(stmt, E.Block):
            inner = set(bound)
            for s in stmt.stmts:
                self._check_stmt_scope(s, inner, fn)
            return
        if isinstance(stmt, E.VarDecl):
            if stmt.init is not None:
                self.check_expr_scope(stmt.init, bound, f"function {fn.name}",
                                      stmt.line, stmt.col)
            bound.add(stmt.name)
            return
        if isinstance(stmt, E.Assign):
            if isinstance(stmt.target, E.Name):
                bound.add(stmt.target.ident)
            else:
                self.check_expr_scope(stmt.target, bound, f"function {fn.name}",
                                      stmt.line, stmt.col)
            self.check_expr_scope(stmt.value, bound, f"function {fn.name}",
                                  stmt.line, stmt.col)
            return
        if isinstance(stmt, E.If):
            self.check_expr_scope(stmt.cond, bound, f"function {fn.name}",
                                  stmt.line, stmt.col)
            self._check_stmt_scope(stmt.then, set(bound), fn)
            if stmt.other is not None:
                self._check_stmt_scope(stmt.other, set(bound), fn)
            return
        if isinstance(stmt, E.While):
            self.check_expr_scope(stmt.cond, bound, f"function {fn.name}",
                                  stmt.line, stmt.col)
            self._check_stmt_scope(stmt.body, set(bound), fn)
            return
        if isinstance(stmt, E.ForStmt):
            inner = set(bound)
            if stmt.init is not None:
                self._check_stmt_scope(stmt.init, inner, fn)
            if stmt.cond is not None:
                self.check_expr_scope(stmt.cond, inner, f"function {fn.name}",
                                      stmt.line, stmt.col)
            if stmt.step is not None:
                self._check_stmt_scope(stmt.step, inner, fn)
            self._check_stmt_scope(stmt.body, inner, fn)
            return
        if isinstance(stmt, E.Return):
            if stmt.value is not None:
                self.check_expr_scope(stmt.value, bound, f"function {fn.name}",
                                      stmt.line, stmt.col)
            return
        if isinstance(stmt, E.ExprStmt):
            self.check_expr_scope(stmt.expr, bound, f"function {fn.name}",
                                  stmt.line, stmt.col)

    # -- type uses ------------------------------------------------------------

    def check_type_use(self, texpr: D.TypeExpr, local: Set[str],
                       context: str) -> None:
        if isinstance(texpr, D.OptType):
            self.check_type_use(texpr.inner, local, context)
            return
        if isinstance(texpr, D.RegexType):
            return
        assert isinstance(texpr, D.TypeRef)
        name, args = texpr.name, texpr.args
        for arg in args:
            self.check_expr_scope(arg, local, f"{context}: parameter of {name}",
                                  texpr.line, texpr.col)
        if name in self.declared:
            want = len(self.declared[name].params)
            if len(args) != want:
                self.error(f"{context}: {name} takes {want} parameter(s), "
                           f"got {len(args)}", texpr.line, texpr.col)
            return
        if is_base_type(name):
            try:
                lo, hi = base_type_arity(name, self.ambient)
            except Exception as exc:  # unknown under this ambient
                self.error(f"{context}: {exc}", texpr.line, texpr.col)
                return
            if not (lo <= len(args) <= hi):
                bounds = str(lo) if lo == hi else f"{lo}..{hi}"
                self.error(f"{context}: base type {name} takes {bounds} "
                           f"parameter(s), got {len(args)}", texpr.line, texpr.col)
            return
        self.error(f"{context}: unknown type {name!r} "
                   "(types must be declared before use)", texpr.line, texpr.col)

    # -- declarations ------------------------------------------------------------

    def run(self) -> None:
        for decl in self.desc.decls:
            if isinstance(decl, D.FuncDecl):
                if decl.name in self.functions:
                    self.error(f"duplicate function {decl.name!r}",
                               decl.line, decl.col)
                self.check_ident(decl.name, "function name",
                                 decl.line, decl.col)
                for _, pname in decl.func.params:
                    self.check_ident(pname, "parameter", decl.line, decl.col)
                self.functions[decl.name] = decl.func
                self.check_function(decl.func)
                continue
            assert isinstance(decl, D.Decl)
            self.check_ident(decl.name, "type name", decl.line, decl.col)
            for _, pname in decl.params:
                self.check_ident(pname, "parameter", decl.line, decl.col)
            if decl.name in self.declared or decl.name in self.functions:
                self.error(f"duplicate declaration {decl.name!r}",
                           decl.line, decl.col)
            self.check_decl(decl)
            self.declared[decl.name] = decl
            if isinstance(decl, D.EnumDecl):
                for item in decl.items:
                    if item.name in self.enum_literals:
                        self.error(f"enum literal {item.name!r} redeclared",
                                   decl.line, decl.col)
                    self.enum_literals.add(item.name)

        sources = [d for d in self.desc.decls
                   if isinstance(d, D.Decl) and d.is_source]
        if len(sources) > 1:
            self.error("multiple Psource declarations: "
                       + ", ".join(d.name for d in sources))
        if not self.desc.decls:
            self.error("empty description")

    def check_decl(self, decl: D.Decl) -> None:
        params = {p for _, p in decl.params}
        if len(params) != len(decl.params):
            self.error(f"{decl.name}: duplicate parameter names",
                       decl.line, decl.col)

        if isinstance(decl, D.StructDecl):
            self.check_struct(decl, params)
        elif isinstance(decl, D.UnionDecl):
            self.check_union(decl, params)
        elif isinstance(decl, D.ArrayDecl):
            self.check_array(decl, params)
        elif isinstance(decl, D.EnumDecl):
            self.check_enum(decl)
        elif isinstance(decl, D.TypedefDecl):
            self.check_typedef(decl, params)
        elif isinstance(decl, D.BitfieldsDecl):
            self.check_bitfields(decl, params)

    def check_struct(self, decl: D.StructDecl, params: Set[str]) -> None:
        in_scope: Set[str] = set(params)
        seen: Set[str] = set()
        for item in decl.items:
            if isinstance(item, D.LiteralField):
                continue
            if isinstance(item, D.ComputeField):
                self.check_ident(item.name, "field name", item.line, item.col)
                if item.name in seen:
                    self.error(f"{decl.name}: duplicate field {item.name!r}",
                               item.line, item.col)
                self.check_expr_scope(item.expr, in_scope,
                                      f"{decl.name}.{item.name}",
                                      item.line, item.col)
                seen.add(item.name)
                in_scope.add(item.name)
                if item.constraint is not None:
                    self.check_expr_scope(item.constraint, in_scope,
                                          f"{decl.name}.{item.name} constraint",
                                          item.line, item.col)
                continue
            assert isinstance(item, D.DataField)
            self.check_ident(item.name, "field name", item.line, item.col)
            if item.name in seen:
                self.error(f"{decl.name}: duplicate field {item.name!r}",
                           item.line, item.col)
            self.check_type_use(item.type, in_scope, f"{decl.name}.{item.name}")
            seen.add(item.name)
            in_scope.add(item.name)
            if item.constraint is not None:
                self.check_expr_scope(item.constraint, in_scope,
                                      f"{decl.name}.{item.name} constraint",
                                      item.line, item.col)
        if decl.where is not None:
            self.check_expr_scope(decl.where, in_scope,
                                  f"{decl.name} Pwhere", decl.line, decl.col)

    def check_union(self, decl: D.UnionDecl, params: Set[str]) -> None:
        fields = decl.branches if not decl.is_switched else [c.field for c in decl.cases]
        seen: Set[str] = set()
        for f in fields:
            self.check_ident(f.name, "branch name", f.line, f.col)
            if f.name in seen:
                self.error(f"{decl.name}: duplicate branch {f.name!r}",
                           f.line, f.col)
            seen.add(f.name)
            self.check_type_use(f.type, set(params), f"{decl.name}.{f.name}")
            if f.constraint is not None:
                self.check_expr_scope(f.constraint, params | {f.name},
                                      f"{decl.name}.{f.name} constraint",
                                      f.line, f.col)
        if decl.is_switched:
            self.check_expr_scope(decl.switch, set(params),
                                  f"{decl.name} Pswitch selector",
                                  decl.line, decl.col)
            defaults = [c for c in decl.cases if c.value is None]
            if len(defaults) > 1:
                self.error(f"{decl.name}: multiple Pdefault cases",
                           decl.line, decl.col)
            if not decl.cases:
                self.error(f"{decl.name}: empty Pswitch", decl.line, decl.col)
        elif not decl.branches:
            self.error(f"{decl.name}: empty Punion", decl.line, decl.col)
        if decl.where is not None:
            self.check_expr_scope(decl.where, params | seen,
                                  f"{decl.name} Pwhere", decl.line, decl.col)

    def check_array(self, decl: D.ArrayDecl, params: Set[str]) -> None:
        self.check_type_use(decl.elt_type, set(params), f"{decl.name} element")
        for label, expr in (("Pmin", decl.min_size), ("Pmax", decl.max_size)):
            if expr is not None:
                self.check_expr_scope(expr, set(params),
                                      f"{decl.name} {label}", decl.line, decl.col)
        for label, expr in (("Plast", decl.last), ("Pended", decl.ended)):
            if expr is not None:
                self.check_expr_scope(expr, params | _PSEUDO_ARRAY_VARS,
                                      f"{decl.name} {label}", decl.line, decl.col)
        if decl.where is not None:
            self.check_expr_scope(decl.where, params | _PSEUDO_ARRAY_VARS,
                                  f"{decl.name} Pwhere", decl.line, decl.col)
        if decl.longest and (decl.sep is not None or decl.term is not None):
            # Allowed, but Plongest already subsumes failure-terminated scans.
            pass

    def check_enum(self, decl: D.EnumDecl) -> None:
        seen: Set[str] = set()
        spellings: Set[str] = set()
        for item in decl.items:
            self.check_ident(item.name, "enum literal", decl.line, decl.col)
            if item.name in seen:
                self.error(f"{decl.name}: duplicate literal {item.name!r}",
                           decl.line, decl.col)
            seen.add(item.name)
            spelling = item.physical if item.physical is not None else item.name
            if spelling in spellings:
                self.error(f"{decl.name}: duplicate physical spelling {spelling!r}",
                           decl.line, decl.col)
            spellings.add(spelling)
        if not decl.items:
            self.error(f"{decl.name}: empty Penum", decl.line, decl.col)

    def check_bitfields(self, decl: D.BitfieldsDecl, params: Set[str]) -> None:
        seen: Set[str] = set(params)
        for item in decl.items:
            if item.width <= 0:
                self.error(f"{decl.name}.{item.name}: width must be positive",
                           decl.line, decl.col)
            self.check_ident(item.name, "field name", decl.line, decl.col)
            if item.name in seen:
                self.error(f"{decl.name}: duplicate field {item.name!r}",
                           decl.line, decl.col)
            seen.add(item.name)
            if item.constraint is not None:
                self.check_expr_scope(item.constraint, seen,
                                      f"{decl.name}.{item.name} constraint",
                                      decl.line, decl.col)
        if not decl.items:
            self.error(f"{decl.name}: empty Pbitfields", decl.line, decl.col)
        elif decl.total_bits % 8 != 0:
            self.error(f"{decl.name}: field widths sum to {decl.total_bits} "
                       "bits, not a whole number of bytes",
                       decl.line, decl.col)
        if decl.where is not None:
            self.check_expr_scope(decl.where, seen, f"{decl.name} Pwhere",
                                  decl.line, decl.col)

    def check_typedef(self, decl: D.TypedefDecl, params: Set[str]) -> None:
        self.check_type_use(decl.base, set(params), decl.name)
        if decl.constraint is not None:
            scope = set(params)
            if decl.var is not None:
                scope.add(decl.var)
            self.check_expr_scope(decl.constraint, scope,
                                  f"{decl.name} constraint", decl.line, decl.col)


def check_description(desc: D.Description, ambient: str = "ascii") -> None:
    """Typecheck ``desc``; raises :class:`TypeErrorReport` on any error."""
    checker = _Checker(desc, ambient)
    checker.run()
    if checker.errors:
        raise TypeErrorReport(checker.errors)
