"""Materialise plan-compiled fast functions for the interpreter.

The fast-path compilers in :mod:`repro.plan.fastpath` emit plain source
fragments over a small runtime namespace (``Rec``, ``UnionVal``, enum
constants, helper functions, the packed/zoned/date converters).  In a
generated module that namespace *is* the module globals; here the same
fragments are exec'd into an equivalent namespace so the interpreted
engine gets the identical fast functions — the record-level speedups no
longer belong to codegen alone.  The interpreter alone also loads the
member fast functions, lazily, into the same namespace.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .fastpath import compile_member
from .ir import DataItem, Plan, StructPlan


def runtime_namespace(plan: Plan) -> Dict[str, Any]:
    """Globals a plan-compiled fast function needs, mirroring the
    preamble of a generated module."""
    # Lazy imports: repro.codegen imports repro.plan at module level, so
    # this module must not import it back until call time.
    from ..codegen.runtime import convert_packed, convert_zoned
    from ..core.basetypes.temporal import parse_date_value
    from ..core.values import DateVal, EnumVal, FloatVal, Rec, UnionVal
    from ..expr.pycompile import compile_function
    from ..expr.runtime import builtins_table, cdiv, cmod, getmember
    from . import resolve_base

    ns: Dict[str, Any] = {
        "Rec": Rec,
        "UnionVal": UnionVal,
        "FloatVal": FloatVal,
        "DateVal": DateVal,
        "EnumVal": EnumVal,
        "_B": builtins_table,
        "_cdiv": cdiv,
        "_cmod": cmod,
        "_member": getmember,
        "_fp_packed": convert_packed,
        "_fp_zoned": convert_zoned,
        "_fp_parse_date": parse_date_value,
        "_resolve": resolve_base,
        "AMBIENT": plan.ambient,
    }
    for name, (lit, code, phys) in plan.enum_literals.items():
        ns[f"E_{name}"] = EnumVal(lit, code, phys)
    for fn in plan.functions.values():
        exec(compile_function(fn, plan.resolver({}), name_prefix="fn_"), ns)
    return ns


Fns = Dict[str, Callable]


class Runtime:
    """The one runtime namespace of a bound description.

    The record fast functions, writers and batch kernels are exec'd into
    it at bind time (:meth:`tables`); the member fast functions of a
    struct only on that struct's first general parse (:meth:`members`),
    so binding costs nothing for them.  The namespace itself is built on
    the first fragment loaded."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.ns: Optional[Dict[str, Any]] = None

    def load(self, fragment: Tuple[str, List[str]]) -> Callable:
        """Exec one ``(name, source lines)`` fragment; its function."""
        if self.ns is None:
            self.ns = runtime_namespace(self.plan)
        name, lines = fragment
        exec("\n".join(lines), self.ns)
        return self.ns[name]

    def tables(self) -> Tuple[Fns, Fns, Fns]:
        """``(fast functions, record writers, batch kernels)``, each
        ``{type name: function}`` — the interpreter twin of the
        ``_fp_*``/``_fw_*``/``_bt_*`` functions a generated module
        carries."""
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

    def members(self, decl: StructPlan) -> Tuple[Optional[Callable], ...]:
        """The member fast functions of ``decl``, one per item (None for
        literals, computed fields and members outside the subset)."""
        fns: List[Optional[Callable]] = []
        for item in decl.items:
            fragment = (compile_member(self.plan, decl, item)[0]
                        if isinstance(item, DataItem) else None)
            fns.append(None if fragment is None else self.load(fragment))
        return tuple(fns)
