"""Bind an analyzed plan to runtime type nodes (the interpreted engine).

Binding consumes the plan IR (:mod:`repro.plan`) — not the raw AST — so
every derived fact (the ambient-coding table, resolved base types,
literal byte forms, fused literal runs, fastpath verdicts) comes from
the one analysis shared with the code generator.  One
:class:`~repro.core.types.PType` node is built per declaration, in
declaration order (legal because PADS types are declared before use),
along with the *global environment* holding user helper functions, enum
literal values and the expression builtins.

Each runtime node keeps a ``plan`` attribute pointing at the plan node
it was built from, so plan facts stay reachable from a bound tree (the
AST-walking tools rely on this).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..dsl import ast as D
from ..expr.eval import Env
from ..plan import analyze
from ..plan.ir import (
    ArrayPlan,
    BaseUse,
    ComputeItem,
    DataItem,
    DeclPlan,
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
from .basetypes.strings import RegexMatchString
from .errors import PadsError
from .types import (
    AppNode,
    ArrayNode,
    BaseNode,
    EnumNode,
    LiteralNode,
    OptNode,
    PType,
    RecordNode,
    StructField,
    StructNode,
    SwitchCaseRT,
    SwitchUnionNode,
    TypedefNode,
    UnionBranch,
    UnionNode,
)


class BoundDescription:
    """The result of binding: runtime nodes plus the global environment."""

    def __init__(self, desc: D.Description, ambient: str,
                 plan: Optional[Plan] = None, fastpath: bool = True):
        self.desc = desc
        self.ambient = ambient
        self.plan = plan if plan is not None else analyze(desc, ambient)
        self.encoding = self.plan.encoding
        self.fastpath = fastpath
        self.nodes: Dict[str, PType] = {}
        self.params: Dict[str, List[str]] = {}
        self.global_env = Env({})
        self._bind()

    # -- lookup ----------------------------------------------------------------

    def node(self, name: str) -> PType:
        try:
            return self.nodes[name]
        except KeyError:
            raise PadsError(f"no type named {name!r} in description") from None

    @property
    def source_name(self) -> Optional[str]:
        return self.plan.source_name

    @property
    def source_node(self) -> PType:
        if self.source_name is None:
            raise PadsError("description has no source type")
        return self.nodes[self.source_name]

    # -- binding ----------------------------------------------------------------

    def _bind(self) -> None:
        fast_fns: Dict[str, Callable] = {}
        write_fns: Dict[str, Callable] = {}
        self.batch_fns: Dict[str, Callable] = {}
        self.runtime = None
        if self.fastpath:
            from ..plan.runtime import Runtime
            self.runtime = Runtime(self.plan)
            fast_fns, write_fns, self.batch_fns = self.runtime.tables()
        for kind, entry in self.plan.order:
            if kind == "func":
                self.global_env.funcs[entry.name] = entry.func
                continue
            node = self._bind_decl(entry)
            node.plan = entry
            if entry.is_record:
                record = RecordNode(node)
                record.plan = entry
                if entry.verdict.eligible:
                    record.fast_fn = fast_fns.get(entry.name)
                    record.write_fn = write_fns.get(entry.name)
                node = record
            self.nodes[entry.name] = node
            self.params[entry.name] = entry.param_names

    def _literal(self, lit: LitPlan) -> LiteralNode:
        node = LiteralNode(lit.kind, lit.value, self.encoding)
        node.plan = lit
        return node

    def _type(self, use: Use) -> PType:
        if isinstance(use, RefUse):
            decl_node = self.nodes[use.name]
            pnames = self.params[use.name]
            if pnames:
                node = AppNode(use.name, decl_node, pnames, use.args,
                               self.global_env)
                node.plan = use
                return node
            # Shared declaration node; its ``plan`` is the DeclPlan.
            return decl_node
        node = self._type_node(use)
        node.plan = use
        return node

    def _type_node(self, use: Use) -> PType:
        if isinstance(use, OptUse):
            return OptNode(self._type(use.inner))
        if isinstance(use, RegexUse):
            pattern = use.pattern
            return BaseNode(f'Pre "{pattern}"',
                            lambda args, p=pattern: RegexMatchString(p), ())
        assert isinstance(use, BaseUse)
        if use.static is not None:
            # Statically resolved during analysis: close over the instance.
            return BaseNode(use.name, lambda args, inst=use.static: inst,
                            use.args)
        plan = self.plan
        return BaseNode(use.name,
                        lambda a, n=use.name, p=plan: p.resolve(n, a),
                        use.args)

    def _bind_decl(self, dp: DeclPlan) -> PType:
        if isinstance(dp, StructPlan):
            fields = []
            for item in dp.items:
                if isinstance(item, LitItem):
                    fields.append(StructField("literal",
                                              node=self._literal(item.literal)))
                elif isinstance(item, ComputeItem):
                    fields.append(StructField("compute", name=item.name,
                                              expr=item.expr,
                                              constraint=item.constraint))
                else:
                    assert isinstance(item, DataItem)
                    fields.append(StructField("data", name=item.name,
                                              node=self._type(item.type),
                                              constraint=item.constraint))
            node = StructNode(dp.name, fields, dp.where)
            if self.runtime is not None:
                # Member fast functions, compiled on first use.
                node.compile_members = partial(self.runtime.members, dp)
                if dp.fused_runs:
                    # Literal-prefix fusion (plan pass): match whole runs
                    # of adjacent literals with a single comparison.
                    node.fused = {start: (end, raw)
                                  for start, end, raw in dp.fused_runs}
            return node

        if isinstance(dp, SwitchPlan):
            cases = [SwitchCaseRT(c.value, c.name, self._type(c.type),
                                  c.constraint)
                     for c in dp.cases]
            return SwitchUnionNode(dp.name, dp.selector, cases)

        if isinstance(dp, UnionPlan):
            branches = [UnionBranch(b.name, self._type(b.type), b.constraint)
                        for b in dp.branches]
            return UnionNode(dp.name, branches, dp.where)

        if isinstance(dp, ArrayPlan):
            return ArrayNode(
                dp.name, self._type(dp.elt),
                sep=self._literal(dp.sep) if dp.sep else None,
                term=self._literal(dp.term) if dp.term else None,
                min_size=dp.min_size, max_size=dp.max_size,
                last=dp.last, ended=dp.ended, longest=dp.longest,
                where=dp.where)

        if isinstance(dp, EnumPlan):
            items = [(it.name, it.code, it.physical) for it in dp.items]
            node = EnumNode(dp.name, items, self.encoding)
            # Enum literals become global constants usable in constraints
            # (`m == LINK` in the paper's chkVersion).
            from .values import EnumVal
            for name, code, physical in items:
                self.global_env.vars[name] = EnumVal(name, code, physical)
            return node

        if isinstance(dp, TypedefPlan):
            return TypedefNode(dp.name, self._type(dp.base),
                               dp.var, dp.constraint)

        raise PadsError(f"cannot bind declaration {dp!r}")


def bind_description(desc: D.Description, ambient: str = "ascii",
                     plan: Optional[Plan] = None,
                     fastpath: bool = True) -> BoundDescription:
    return BoundDescription(desc, ambient, plan, fastpath)
