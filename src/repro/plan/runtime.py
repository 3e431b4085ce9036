"""Materialise plan-compiled code for a bound description.

The fast-path compilers in :mod:`repro.plan.fastpath` emit plain source
fragments over a small runtime namespace (the rep-class factory,
``UnionVal``, enum constants, helper functions, the Cobol base types'
packed/zoned converters, the date converter).  This module is the one owner of that namespace: the
fragments are exec'd into one namespace per bound description, which
also holds the struct functions and the member fast functions they
call, loaded lazily (:mod:`repro.plan.structfn`).

Every expression site of the description (constraints, ``Pwhere``,
selectors, array bounds and predicates, type arguments) is compiled
here too, into one function per site over a flat scope dict
(:meth:`Runtime.site`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .fastpath import compile_member
from .ir import DataItem, Plan, StructPlan, SwitchPlan


def runtime_namespace(plan: Plan) -> Dict[str, Any]:
    """Globals the plan-compiled fragments and expression sites of one
    description run on."""
    from ..core.basetypes.cobol import packed_value, zoned_value
    from ..core.basetypes.temporal import parse_date_value
    from ..core.errors import ErrCode, Pd
    from ..core.values import DateVal, EnumVal, FloatVal, UnionVal, rec_class
    from ..expr.pycompile import compile_function
    from ..expr.runtime import BUILTINS, cdiv, cmod, member
    from . import resolve_base

    ns: Dict[str, Any] = {
        "_rec_class": rec_class,
        "_onew": object.__new__,
        "UnionVal": UnionVal,
        "FloatVal": FloatVal,
        "DateVal": DateVal,
        "EnumVal": EnumVal,
        "_B": BUILTINS,
        "_cdiv": cdiv,
        "_cmod": cmod,
        "_member": member,
        "_fp_packed": packed_value,
        "_fp_zoned": zoned_value,
        "_fp_parse_date": parse_date_value,
        "_resolve": resolve_base,
        "_Pd": Pd,
        "_WHERE": ErrCode.WHERE_CLAUSE_VIOLATION,
        "AMBIENT": plan.ambient,
    }
    for name, (lit, code, phys) in plan.enum_literals.items():
        ns[f"E_{name}"] = EnumVal(lit, code, phys)
    exec("\n".join(compile_function(fn, plan.resolver({}), name_prefix="fn_")
                   for fn in plan.functions.values()), ns)
    return ns


Fns = Dict[str, Callable]


class Runtime:
    """The one runtime namespace of a bound description.

    The record fast functions, writers and batch kernels are exec'd into
    it at bind time (:meth:`tables`); a struct's function, and the member
    fast functions it calls, only on that struct's first parse that may
    use them (:meth:`struct`), so binding costs nothing for them.  The
    namespace itself is built on the first fragment loaded."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.ns: Optional[Dict[str, Any]] = None
        self._sites: List[str] = []
        self._pending: List[Tuple[Any, str, str, Any]] = []

    def load(self, fragment: Tuple[str, List[str]]) -> Callable:
        """Exec one ``(name, source lines)`` fragment; its function."""
        if self.ns is None:
            self.ns = runtime_namespace(self.plan)
        name, lines = fragment
        exec("\n".join(lines), self.ns)
        return self.ns[name]

    def site(self, obj: Any, attr: str, expr: Any, names,
             check: bool = False) -> None:
        """Compile the expression site ``expr`` into a function of one
        flat scope dict holding ``names`` (the declaration's parameters
        and the fields parsed so far), to be set as ``obj.attr`` by
        :meth:`define`.  A ``check`` site returns whether ``expr``
        holds, any exception counting as a failure; a value site returns
        the value (a tuple for a tuple of argument expressions) and lets
        exceptions propagate; a :class:`SwitchPlan` site returns the
        index of the case its selector picks (:meth:`Plan.pick`).  The
        function keeps its AST as ``expr``."""
        if expr is None:
            return
        name = f"_x{len(self._pending)}"
        scope = {n: f"_s[{n!r}]" for n in names}
        self._sites.append(f"def {name}(_s):")
        if isinstance(expr, SwitchPlan):
            self._sites += ["    " + line
                            for line in self.plan.pick(expr, scope)]
            self._sites.append("    return _case")
        elif check:
            self._sites += ["    try:",
                            *("        " + line for line in self.plan.check(
                                expr, scope, "return False")),
                            "    except Exception:",
                            "        return False",
                            "    return True"]
        elif isinstance(expr, tuple):
            self._sites.append("    return (" + "".join(
                f"{self.plan.cexpr(a, scope)}, " for a in expr) + ")")
        else:
            self._sites.append(f"    return {self.plan.cexpr(expr, scope)}")
        self._pending.append((obj, attr, name, expr))

    def define(self) -> None:
        """Exec every site function at once and set each on its node
        (called once, when binding ends)."""
        if self.ns is None:
            self.ns = runtime_namespace(self.plan)
        exec("\n".join(self._sites), self.ns)
        for obj, attr, name, expr in self._pending:
            fn = self.ns[name]
            fn.expr = expr
            setattr(obj, attr, fn)

    def tables(self) -> Tuple[Fns, Fns, Fns]:
        """``(fast functions, record writers, batch kernels)``, each
        ``{type name: function}``: the ``_fp_*``/``_fw_*``/``_bt_*``
        functions.  A fast function that is its record's batch kernel
        over one record calls the kernel loaded beside it."""
        tables: Tuple[Fns, Fns, Fns] = ({}, {}, {})
        for dp in self.plan.decls.values():
            fast = dp.verdict.eligible
            compiled = (dp.fast_fn if fast else None,
                        dp.write_fn if fast else None,
                        dp.batch_fn if dp.batch_verdict.eligible else None)
            for table, fragment in zip(tables, compiled):
                if fragment is not None:
                    table[dp.name] = self.load(fragment)
        return tables

    def struct(self, decl: StructPlan, node: Any) -> Callable:
        """The struct function of ``decl`` over its bound ``node``
        (:mod:`repro.plan.structfn`), after the member fast functions it
        calls."""
        from .structfn import compile_struct
        fms: List[Optional[str]] = []
        for item in decl.items:
            fragment = (compile_member(self.plan, decl, item)[0]
                        if isinstance(item, DataItem) else None)
            if fragment is not None:
                self.load(fragment)
            fms.append(None if fragment is None else fragment[0])
        return self.load(compile_struct(decl, fms))(node)
