"""repro.plan — the analyzed middle layer between the DSL AST and the engines.

A type-checked description is lowered **once** (:func:`analyze`) into a
typed IR (:mod:`repro.plan.ir`) carrying every derived fact the
consumers used to re-compute independently: the ambient-coding table,
resolved base types, literal byte forms and resync sets, terminators
and separators, static-width analysis, and per-record fastpath
verdicts with compiled fast functions.

Consumers:

* :mod:`repro.core.binding` — builds the runtime nodes from plan nodes;
* :mod:`repro.plan.runtime` — materialises the compiled fast functions
  and expression sites for those nodes;
* :mod:`repro.codegen.emitter` — emits the Figure 6 module over a bound
  description (given none, it builds the plan with :func:`lower`);
* the AST-walking tools (``tools/xsd.py``, ``tools/datagen.py``,
  ``tools/cobol.py``) and the ``padsc plan`` pretty-printer.

See ``docs/ARCHITECTURE.md`` for the full layering.
"""

from __future__ import annotations

from typing import Any, Tuple

from .analyze import analyze, lower
from .encodings import ENCODINGS, encoding_for
from .ir import (
    ArrayPlan,
    BaseUse,
    BranchPlan,
    CasePlan,
    ComputeItem,
    DataItem,
    DeclPlan,
    EnumItemPlan,
    EnumPlan,
    LitItem,
    LitPlan,
    OptUse,
    Plan,
    RefUse,
    RegexUse,
    StructPlan,
    SwitchPlan,
    TypedefPlan,
    UnionPlan,
    Use,
    Verdict,
)


def __getattr__(name: str) -> Any:
    # The pretty-printer serves ``padsc plan`` only; it loads on first use.
    if name in ("describe_use", "format_plan"):
        from . import pprint
        return getattr(pprint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def resolve_base(name: str, args: Tuple[Any, ...] = (),
                 ambient: str = "ascii") -> Any:
    """Resolve a base-type use under an ambient coding.

    The sanctioned route into the base-type registry for everything
    outside :mod:`repro.core.basetypes` — engine consumers and generated
    modules import this instead of reaching into the registry directly.
    """
    from ..core.basetypes.base import resolve_base_type
    return resolve_base_type(name, args, ambient)


__all__ = [
    "ENCODINGS",
    "encoding_for",
    "analyze",
    "lower",
    "resolve_base",
    "format_plan",
    "describe_use",
    "Plan",
    "Verdict",
    "DeclPlan",
    "StructPlan",
    "UnionPlan",
    "SwitchPlan",
    "ArrayPlan",
    "EnumPlan",
    "TypedefPlan",
    "BranchPlan",
    "CasePlan",
    "EnumItemPlan",
    "LitItem",
    "ComputeItem",
    "DataItem",
    "LitPlan",
    "Use",
    "BaseUse",
    "RegexUse",
    "OptUse",
    "RefUse",
]
