"""Pretty-print an analyzed plan (the ``padsc plan`` subcommand).

Shows, per declaration, what the analysis derived: resolved base types,
static byte widths, separators/terminators, resync literal sets, and
the fastpath-eligibility verdict with its reason —
the answer to "why did (or didn't) my description get the fast path?".
Each struct data member also shows whether it gets a member fast
function, which the struct's compiled function
(:mod:`repro.plan.structfn`) calls on error records before interpreting
the member.
"""

from __future__ import annotations

from typing import List, Optional

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
    RegexUse,
    StructPlan,
    SwitchPlan,
    TypedefPlan,
    UnionPlan,
    Use,
)

_KEYWORDS = {
    "struct": "Pstruct",
    "union": "Punion",
    "switch": "Punion(Pswitch)",
    "array": "Parray",
    "enum": "Penum",
    "typedef": "Ptypedef",
}


def _width(w: Optional[int]) -> str:
    return "dynamic" if w is None else f"{w} bytes"


def describe_use(use: Use) -> str:
    if isinstance(use, OptUse):
        return f"Popt {describe_use(use.inner)}"
    if isinstance(use, RegexUse):
        return f"Pre {use.pattern!r}"
    if isinstance(use, RefUse):
        if use.args:
            return f"{use.name}(:{len(use.args)} arg(s):)"
        return use.name
    assert isinstance(use, BaseUse)
    text = use.name
    if use.static_args:
        text += "(:" + ", ".join(repr(v) for v in use.static_args) + ":)"
    elif use.args:
        text += f"(:{len(use.args)} dynamic arg(s):)"
    if use.static is not None:
        text += f" -> {type(use.static).__name__}"
    return text


def _lit_text(lit: LitPlan) -> str:
    text = lit.describe()
    if lit.raw is not None and lit.kind in ("char", "string"):
        text += f" = {lit.raw!r}"
    return text


def _decl_lines(plan: Plan, dp) -> List[str]:
    head = f"{_KEYWORDS.get(dp.kind, dp.kind)} {dp.name}"
    if dp.params:
        head += "(:" + ", ".join(n for _, n in dp.params) + ":)"
    flags = []
    if dp.is_record:
        flags.append("Precord")
    if dp.is_source:
        flags.append("Psource")
    if flags:
        head += "  [" + " ".join(flags) + "]"
    lines = [head,
             f"  width: {_width(dp.width)}",
             f"  fastpath: {dp.verdict}",
             f"  batch: {dp.batch_verdict}"]

    if isinstance(dp, StructPlan):
        from .fastpath import compile_member
        for i, item in enumerate(dp.items):
            if isinstance(item, LitItem):
                lines.append(f"  [{i}] literal {_lit_text(item.literal)}")
            elif isinstance(item, ComputeItem):
                lines.append(f"  [{i}] Pcompute {item.name} : {item.type_name}")
            else:
                assert isinstance(item, DataItem)
                w = f"  ({_width(item.type.width)})"
                lines.append(f"  [{i}] {item.name} : "
                             f"{describe_use(item.type)}{w}")
                # The compiler's own answer, not a second eligibility test.
                _, verdict = compile_member(plan, dp, item)
                lines.append(f"      member fastpath: {verdict}")
        if dp.scan_literals:
            lits = ", ".join(repr(b) for b in dp.scan_literals)
            lines.append(f"  resync literals: {lits}")
    elif isinstance(dp, SwitchPlan):
        lines.append("  switched on a selector expression")
        for c in dp.cases:
            label = "Pdefault" if c.value is None else "Pcase"
            lines.append(f"  {label} {c.name} : {describe_use(c.type)}")
    elif isinstance(dp, UnionPlan):
        for br in dp.branches:
            guard = "  (guarded)" if br.constraint is not None else ""
            lines.append(f"  | {br.name} : {describe_use(br.type)}{guard}")
    elif isinstance(dp, ArrayPlan):
        lines.append(f"  element: {describe_use(dp.elt)} "
                     f"({_width(dp.elt.width)})")
        if dp.sep is not None:
            lines.append(f"  separator: {_lit_text(dp.sep)}")
        if dp.term is not None:
            lines.append(f"  terminator: {_lit_text(dp.term)}")
        if dp.fixed_count is not None:
            lines.append(f"  count: {dp.fixed_count} (static)")
        elif dp.min_size is not None or dp.max_size is not None:
            lines.append("  count: bounded (dynamic)")
        if dp.longest:
            lines.append("  termination: Plongest")
        if dp.last is not None:
            lines.append("  termination: Plast predicate")
        if dp.ended is not None:
            lines.append("  termination: Pended predicate")
    elif isinstance(dp, EnumPlan):
        for item in dp.items:
            lines.append(f"  {item.name} = {item.code}  "
                         f"(physical {item.physical!r} = {item.raw!r})")
    elif isinstance(dp, TypedefPlan):
        constrained = " (constrained)" if dp.constraint is not None else ""
        lines.append(f"  base: {describe_use(dp.base)}{constrained}")
    return lines


def format_plan(plan: Plan, type_name: Optional[str] = None) -> str:
    """Human-readable rendering of the analyzed IR; ``type_name``
    restricts the output to one declaration."""
    out: List[str] = [
        f"plan: ambient={plan.ambient} encoding={plan.encoding} "
        f"source={plan.source_name or '<none>'}",
        "",
    ]
    if type_name is not None:
        if type_name not in plan.decls:
            raise KeyError(f"no declaration named {type_name!r}")
        out.extend(_decl_lines(plan, plan.decls[type_name]))
        return "\n".join(out) + "\n"
    for kind, entry in plan.order:
        if kind == "func":
            out.append(f"Pfunction {entry.name}")
            out.append("")
            continue
        out.extend(_decl_lines(plan, entry))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"
