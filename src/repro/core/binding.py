"""Bind an analyzed plan to runtime type nodes (the one parsing engine).

Binding consumes the plan IR (:mod:`repro.plan`) — not the raw AST — so
every derived fact (the ambient-coding table, resolved base types,
literal byte forms, fastpath verdicts) comes from the one analysis
shared with the module emitter and the tools.  One
:class:`~repro.core.types.PType` node is built per declaration, in
declaration order (legal because PADS types are declared before use).
Every expression site is compiled into the description's runtime
namespace (:class:`~repro.plan.runtime.Runtime`, which also holds the
helper functions and enum literals) with the names it may see, and all
of them are exec'd at once when binding ends.

Each runtime node keeps a ``plan`` attribute pointing at the plan node
it was built from, so plan facts stay reachable from a bound tree (the
AST-walking tools rely on this).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..dsl import ast as D
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
from ..plan.runtime import Runtime
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
    """The result of binding: runtime nodes plus the runtime namespace
    their compiled code lives in."""

    def __init__(self, desc: D.Description, ambient: str,
                 plan: Optional[Plan] = None, fastpath: bool = True):
        self.desc = desc
        self.ambient = ambient
        self.plan = plan if plan is not None else analyze(desc, ambient)
        self.encoding = self.plan.encoding
        self.fastpath = fastpath
        self.nodes: Dict[str, PType] = {}
        self.params: Dict[str, List[str]] = {}
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
        self.runtime = Runtime(self.plan)
        if self.fastpath:
            fast_fns, write_fns, self.batch_fns = self.runtime.tables()
        for kind, entry in self.plan.order:
            if kind == "func":
                continue
            node = self._bind_decl(entry, tuple(entry.param_names))
            node.plan = entry
            node.params = tuple(entry.param_names)
            if entry.is_record:
                record = RecordNode(node)
                record.plan = entry
                if entry.verdict.eligible:
                    record.fast_fn = fast_fns.get(entry.name)
                    record.write_fn = write_fns.get(entry.name)
                node = record
            self.nodes[entry.name] = node
            self.params[entry.name] = entry.param_names
        self.runtime.define()

    def _literal(self, lit: LitPlan) -> LiteralNode:
        node = LiteralNode(lit.kind, lit.value, self.encoding)
        node.plan = lit
        return node

    def _type(self, use: Use, names: Sequence[str]) -> PType:
        """The node for ``use``; ``names`` are those its arguments see."""
        if isinstance(use, RefUse):
            decl_node = self.nodes[use.name]
            pnames = self.params[use.name]
            if pnames:
                node = AppNode(use.name, decl_node, pnames)
                self.runtime.site(node, "args", tuple(use.args), names)
                node.plan = use
                return node
            # Shared declaration node; its ``plan`` is the DeclPlan.
            return decl_node
        node = self._type_node(use, names)
        node.plan = use
        return node

    def _type_node(self, use: Use, names: Sequence[str]) -> PType:
        if isinstance(use, OptUse):
            return OptNode(self._type(use.inner, names))
        if isinstance(use, RegexUse):
            return BaseNode(f'Pre "{use.pattern}"',
                            RegexMatchString(use.pattern))
        assert isinstance(use, BaseUse)
        if use.static is not None:
            # Statically resolved during analysis.
            return BaseNode(use.name, use.static)
        node = BaseNode(use.name, resolver=partial(self.plan.resolve, use.name))
        self.runtime.site(node, "args", tuple(use.args), names)
        return node

    def _bind_decl(self, dp: DeclPlan, params: tuple) -> PType:
        if isinstance(dp, StructPlan):
            fields = []
            names = list(params)
            for item in dp.items:
                if isinstance(item, LitItem):
                    fields.append(StructField("literal",
                                              node=self._literal(item.literal)))
                    continue
                if isinstance(item, ComputeItem):
                    field = StructField("compute", name=item.name)
                    self.runtime.site(field, "expr", item.expr, names)
                else:
                    assert isinstance(item, DataItem)
                    field = StructField("data", name=item.name,
                                        node=self._type(item.type, names))
                names = names + [item.name]
                self.runtime.site(field, "constraint", item.constraint,
                                  names, True)
                fields.append(field)
            node = StructNode(dp.name, fields)
            self.runtime.site(node, "where", dp.where, names, True)
            if self.fastpath:
                # Member fast functions, compiled on first use.
                node.compile_members = partial(self.runtime.members, dp)
            return node

        if isinstance(dp, SwitchPlan):
            cases = []
            for c in dp.cases:
                case = SwitchCaseRT(c.name, self._type(c.type, params))
                self.runtime.site(case, "constraint", c.constraint,
                                  params + (c.name,), True)
                cases.append(case)
            node = SwitchUnionNode(dp.name, cases)
            self.runtime.site(node, "pick", dp, params)
            self.runtime.site(node, "where", dp.where,
                              params + tuple(c.name for c in dp.cases), True)
            return node

        if isinstance(dp, UnionPlan):
            branches = []
            for b in dp.branches:
                branch = UnionBranch(b.name, self._type(b.type, params))
                self.runtime.site(branch, "constraint", b.constraint,
                                  params + (b.name,), True)
                branches.append(branch)
            node = UnionNode(dp.name, branches)
            self.runtime.site(node, "where", dp.where,
                              params + tuple(b.name for b in dp.branches),
                              True)
            return node

        if isinstance(dp, ArrayPlan):
            inner = params + ("elts", "length")
            node = ArrayNode(
                dp.name, self._type(dp.elt, inner),
                sep=self._literal(dp.sep) if dp.sep else None,
                term=self._literal(dp.term) if dp.term else None,
                longest=dp.longest)
            self.runtime.site(node, "min_size", dp.min_size, params)
            self.runtime.site(node, "max_size", dp.max_size, params)
            for attr in ("last", "ended", "where"):
                self.runtime.site(node, attr, getattr(dp, attr), inner, True)
            return node

        if isinstance(dp, EnumPlan):
            items = [(it.name, it.code, it.physical) for it in dp.items]
            return EnumNode(dp.name, items, self.encoding)

        if isinstance(dp, TypedefPlan):
            node = TypedefNode(dp.name, self._type(dp.base, params), dp.var)
            self.runtime.site(node, "constraint", dp.constraint,
                              params + (dp.var,), True)
            return node

        raise PadsError(f"cannot bind declaration {dp!r}")


def bind_description(desc: D.Description, ambient: str = "ascii",
                     plan: Optional[Plan] = None,
                     fastpath: bool = True) -> BoundDescription:
    return BoundDescription(desc, ambient, plan, fastpath)
