"""Materialise plan-compiled fast functions for the interpreter.

The fast-path compilers in :mod:`repro.plan.fastpath` emit plain source
fragments over a small runtime namespace (``Rec``, ``UnionVal``, enum
constants, helper functions, the packed/zoned/date converters).  In a
generated module that namespace *is* the module globals; here the same
fragments are exec'd into an equivalent namespace so the interpreted
engine gets the identical fast functions — the record-level speedups no
longer belong to codegen alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from .ir import Plan


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
    }
    for name, (lit, code, phys) in plan.enum_literals.items():
        ns[f"E_{name}"] = EnumVal(lit, code, phys)
    for fn in plan.functions.values():
        exec(compile_function(fn, plan.resolver({}), name_prefix="fn_"), ns)
    return ns


def materialize_fast_fns(plan: Plan) -> Dict[str, Callable]:
    """``{type name: fast function}`` for every eligible record plan."""
    fns: Dict[str, Callable] = {}
    ns: Dict[str, Any] = {}
    for dp in plan.decls.values():
        if dp.fast_fn is None or not dp.verdict.eligible:
            continue
        if not ns:
            ns = runtime_namespace(plan)
        name, lines = dp.fast_fn
        exec("\n".join(lines), ns)
        fns[dp.name] = ns[name]
    return fns


def materialize_batch_fns(plan: Plan) -> Dict[str, Callable]:
    """``{type name: batch kernel}`` for every batch-eligible record
    plan — the interpreter twin of the ``_bt_*`` functions a generated
    module carries in its ``BATCH`` table."""
    fns: Dict[str, Callable] = {}
    ns: Dict[str, Any] = {}
    for dp in plan.decls.values():
        if dp.batch_fn is None or not dp.batch_verdict.eligible:
            continue
        if not ns:
            ns = runtime_namespace(plan)
        name, lines = dp.batch_fn
        exec("\n".join(lines), ns)
        fns[dp.name] = ns[name]
    return fns
