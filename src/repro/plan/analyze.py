"""Lower a type-checked description AST into the plan IR.

One call to :func:`analyze` produces the :class:`~repro.plan.ir.Plan`
every engine consumes: declarations are lowered in order (legal because
PADS types are declared before use), ``Pbitfields`` are expanded to
their struct form, enum members are normalized (positional codes,
name-defaulted spellings), literals are encoded under the ambient
coding, and the optimization passes (static-width analysis, literal
fusion, fastpath compilation) are run.  :func:`lower` stops before those
passes; the module emitter needs nothing they derive.
"""

from __future__ import annotations

from typing import Optional

from ..dsl import ast as D
from ..expr import ast as E
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
)

_STATIC_ARG_TYPES = (E.IntLit, E.StrLit, E.CharLit, E.FloatLit, E.BoolLit)


def analyze(desc: D.Description, ambient: str = "ascii") -> Plan:
    """Analyze ``desc`` under ``ambient`` and return the plan IR."""
    plan = lower(desc, ambient)
    # Passes 2 and 3: analysis and optimization over the IR.
    from .passes import attach_fastpaths, compute_widths
    compute_widths(plan)
    attach_fastpaths(plan)
    return plan


def lower(desc: D.Description, ambient: str = "ascii") -> Plan:
    """The plan IR of ``desc`` before the analysis passes: declarations
    lowered, no widths, verdicts or compiled functions.  Enough for the
    module emitter, which carries none of them."""
    plan = Plan(desc, ambient)

    # Pass 0: names visible everywhere (helper functions, enum literals).
    for decl in desc.decls:
        if isinstance(decl, D.FuncDecl):
            plan.functions[decl.name] = decl.func
        elif isinstance(decl, D.EnumDecl):
            for pos, item in enumerate(decl.items):
                code = item.value if item.value is not None else pos
                phys = item.physical if item.physical is not None else item.name
                plan.enum_literals[item.name] = (item.name, code, phys)

    # Pass 1: lower declarations in order.
    for decl in desc.decls:
        if isinstance(decl, D.FuncDecl):
            plan.order.append(("func", decl))
            continue
        dplan = _lower_decl(plan, decl)
        plan.decls[decl.name] = dplan
        plan.order.append(("type", dplan))
    src = desc.source
    if src is not None:
        plan.source_name = src.name
    return plan


# -- literals -----------------------------------------------------------------


def _lit(plan: Plan, spec: D.LiteralSpec) -> LitPlan:
    raw: Optional[bytes] = None
    width: Optional[int] = None
    if spec.kind in ("char", "string"):
        raw = plan.encode(spec.value)
        width = len(raw)
    elif spec.kind == "regex":
        raw = plan.encode(spec.value)
    elif spec.kind in ("eor", "eof"):
        width = 0
    return LitPlan(spec.kind, spec.value, raw, width)


# -- type uses ----------------------------------------------------------------


def _use(plan: Plan, texpr: D.TypeExpr) -> Use:
    if isinstance(texpr, D.OptType):
        return OptUse(_use(plan, texpr.inner), ast=texpr)
    if isinstance(texpr, D.RegexType):
        return RegexUse(texpr.pattern, ast=texpr)
    assert isinstance(texpr, D.TypeRef)
    name, args = texpr.name, tuple(texpr.args)
    if plan.is_declared(name):
        return RefUse(name, args, ast=texpr)
    static = None
    static_args = None
    if all(isinstance(a, _STATIC_ARG_TYPES) for a in args):
        static_args = tuple(a.value for a in args)
        # Resolve eagerly: analysis fails fast on bad descriptions, and
        # every consumer shares the one resolved instance.
        static = plan.resolve(name, static_args)
    return BaseUse(name, args, static, static_args, ast=texpr)


# -- declarations -------------------------------------------------------------


def _head(decl: D.Decl) -> dict:
    return dict(name=decl.name, params=list(decl.params),
                is_record=decl.is_record, is_source=decl.is_source,
                where=decl.where, ast=decl)


def _lower_decl(plan: Plan, decl: D.Decl) -> DeclPlan:
    if isinstance(decl, D.BitfieldsDecl):
        decl = D.lower_bitfields(decl)

    if isinstance(decl, D.StructDecl):
        sp = StructPlan(**_head(decl))
        for item in decl.items:
            if isinstance(item, D.LiteralField):
                lp = _lit(plan, item.literal)
                sp.items.append(LitItem(lp))
                if lp.scannable and lp.raw is not None:
                    sp.scan_literals.append(lp.raw)
            elif isinstance(item, D.ComputeField):
                sp.items.append(ComputeItem(item.name, item.type_name,
                                            item.expr, item.constraint))
            else:
                sp.items.append(DataItem(item.name, _use(plan, item.type),
                                         item.constraint))
        return sp

    if isinstance(decl, D.UnionDecl):
        if decl.is_switched:
            up = SwitchPlan(**_head(decl))
            up.selector = decl.switch
            up.cases = [CasePlan(c.value, c.field.name,
                                 _use(plan, c.field.type), c.field.constraint)
                        for c in decl.cases]
            return up
        op = UnionPlan(**_head(decl))
        op.branches = [BranchPlan(b.name, _use(plan, b.type), b.constraint)
                       for b in decl.branches]
        return op

    if isinstance(decl, D.ArrayDecl):
        ap = ArrayPlan(**_head(decl))
        ap.elt = _use(plan, decl.elt_type)
        ap.elt_name = decl.elt_name
        ap.sep = _lit(plan, decl.sep) if decl.sep is not None else None
        ap.term = _lit(plan, decl.term) if decl.term is not None else None
        ap.min_size = decl.min_size
        ap.max_size = decl.max_size
        ap.last = decl.last
        ap.ended = decl.ended
        ap.longest = decl.longest
        return ap

    if isinstance(decl, D.EnumDecl):
        ep = EnumPlan(**_head(decl))
        for pos, item in enumerate(decl.items):
            code = item.value if item.value is not None else pos
            phys = item.physical if item.physical is not None else item.name
            ep.items.append(EnumItemPlan(item.name, code, phys,
                                         plan.encode(phys)))
        return ep

    if isinstance(decl, D.TypedefDecl):
        tp = TypedefPlan(**_head(decl))
        tp.base = _use(plan, decl.base)
        tp.var = decl.var
        tp.constraint = decl.constraint
        return tp

    raise TypeError(f"cannot analyze declaration {decl!r}")
