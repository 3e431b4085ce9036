"""The plan IR: a typed middle layer between the DSL AST and the engines.

:func:`repro.plan.analyze` lowers a type-checked description once into
these nodes; the binder (:mod:`repro.core.binding`), the module
emitter (:mod:`repro.codegen.emitter`), the record fast path
(:mod:`repro.plan.fastpath`) and the AST-walking tools all consume the
same analyzed facts instead of re-deriving them:

* the ambient coding and its character encoding,
* base-type uses with their statically resolved instances,
* literal byte forms, struct resync literal sets, array terminators,
* static-size / fixed-width analysis results,
* a per-record fastpath-eligibility verdict with a human-readable
  reason, plus the compiled fast function when eligible.

``Pbitfields`` declarations are lowered to their struct form during
analysis, so plan consumers never see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..dsl import ast as D
from ..expr import ast as E
from ..expr.runtime import BUILTINS
from ..expr.pycompile import compile_check, compile_expr
from ..util.fieldwise import Fieldwise
from .encodings import encoding_for


@dataclass(eq=False, repr=False)
class Verdict(Fieldwise):
    """Fastpath eligibility for one declaration, with the reason."""

    eligible: bool
    reason: str

    def __str__(self) -> str:
        return ("eligible: " if self.eligible else "not eligible: ") + self.reason


# -- literals -----------------------------------------------------------------


@dataclass(eq=False, repr=False)
class LitPlan(Fieldwise):
    """An analyzed literal: kind, source value and encoded byte form."""

    kind: str                   # 'char' | 'string' | 'regex' | 'eor' | 'eof' | 'expr'
    value: Any
    raw: Optional[bytes]        # encoded bytes (char/string/regex), else None
    width: Optional[int]        # static byte width, None when dynamic

    @property
    def scannable(self) -> bool:
        """True when resynchronisation can scan for this literal."""
        return self.kind in ("char", "string")

    def describe(self) -> str:
        if self.kind in ("char", "string"):
            return repr(self.value)
        if self.kind == "regex":
            return f"Pre {self.value!r}"
        return self.kind.upper()


# -- type uses ----------------------------------------------------------------


class Use:
    """Base class for analyzed type uses (the plan twin of D.TypeExpr)."""

    width: Optional[int] = None
    ast: Optional[D.TypeExpr] = None


@dataclass(eq=False, repr=False)
class BaseUse(Use, Fieldwise):
    """A base-type use, with the instance pre-resolved when arguments are
    literals (the common case)."""

    name: str
    args: Tuple[E.Expr, ...]
    static: Optional[Any]           # resolved BaseType instance, or None
    static_args: Optional[Tuple[Any, ...]]  # literal arg values when static
    width: Optional[int] = None
    ast: Optional[D.TypeExpr] = None


@dataclass(eq=False, repr=False)
class RegexUse(Use, Fieldwise):
    """An inline ``Pre "pattern"`` use."""

    pattern: str
    width: Optional[int] = None
    ast: Optional[D.TypeExpr] = None


@dataclass(eq=False, repr=False)
class OptUse(Use, Fieldwise):
    """``Popt inner``."""

    inner: Use
    width: Optional[int] = None
    ast: Optional[D.TypeExpr] = None


@dataclass(eq=False, repr=False)
class RefUse(Use, Fieldwise):
    """A reference to a declared type (possibly parameterised)."""

    name: str
    args: Tuple[E.Expr, ...]
    width: Optional[int] = None
    ast: Optional[D.TypeExpr] = None


# -- struct items -------------------------------------------------------------


@dataclass(eq=False, repr=False)
class LitItem(Fieldwise):
    kind = "literal"
    literal: LitPlan


@dataclass(eq=False, repr=False)
class ComputeItem(Fieldwise):
    kind = "compute"
    name: str
    type_name: str
    expr: E.Expr
    constraint: Optional[E.Expr]


@dataclass(eq=False, repr=False)
class DataItem(Fieldwise):
    kind = "data"
    name: str
    type: Use
    constraint: Optional[E.Expr]


Item = Any  # LitItem | ComputeItem | DataItem


@dataclass(eq=False, repr=False)
class BranchPlan(Fieldwise):
    """One ordered-union branch."""

    name: str
    type: Use
    constraint: Optional[E.Expr]


@dataclass(eq=False, repr=False)
class CasePlan(Fieldwise):
    """One ``Pswitch`` case (``value is None`` for the default case)."""

    value: Optional[E.Expr]
    name: str
    type: Use
    constraint: Optional[E.Expr]


@dataclass(eq=False, repr=False)
class EnumItemPlan(Fieldwise):
    """A normalized enum member: code defaulted by position, physical
    spelling defaulted to the name, plus its encoded byte form."""

    name: str
    code: int
    physical: str
    raw: bytes


# -- declarations -------------------------------------------------------------


@dataclass(eq=False, repr=False)
class DeclPlan(Fieldwise):
    """Common head of every analyzed declaration."""

    name: str
    params: List[Tuple[Optional[str], str]]
    is_record: bool
    is_source: bool
    where: Optional[E.Expr]
    ast: D.Decl
    width: Optional[int] = None
    verdict: Verdict = field(
        default_factory=lambda: Verdict(False, "not analyzed"))
    fast_fn: Optional[Tuple[str, List[str]]] = None
    #: The record writer compiled beside ``fast_fn`` (``_fw_<name>``);
    #: None when some member has no compiled writer.
    write_fn: Optional[Tuple[str, List[str]]] = None
    #: Batch-kernel eligibility (columnar kernel over whole record grids);
    #: stricter than ``verdict`` — requires a fully static record width.
    batch_verdict: Verdict = field(
        default_factory=lambda: Verdict(False, "not analyzed"))
    batch_fn: Optional[Tuple[str, List[str]]] = None

    @property
    def param_names(self) -> List[str]:
        return [p for _, p in self.params]


@dataclass(eq=False, repr=False)
class StructPlan(DeclPlan):
    kind = "struct"
    items: List[Item] = field(default_factory=list)
    #: Encoded char/string literal members, in order — the resync scan set.
    scan_literals: List[bytes] = field(default_factory=list)


@dataclass(eq=False, repr=False)
class UnionPlan(DeclPlan):
    kind = "union"
    branches: List[BranchPlan] = field(default_factory=list)


@dataclass(eq=False, repr=False)
class SwitchPlan(DeclPlan):
    kind = "switch"
    selector: Optional[E.Expr] = None
    cases: List[CasePlan] = field(default_factory=list)


@dataclass(eq=False, repr=False)
class ArrayPlan(DeclPlan):
    kind = "array"
    elt: Use = field(default_factory=Use)
    elt_name: Optional[str] = None
    sep: Optional[LitPlan] = None
    term: Optional[LitPlan] = None
    min_size: Optional[E.Expr] = None
    max_size: Optional[E.Expr] = None
    last: Optional[E.Expr] = None
    ended: Optional[E.Expr] = None
    longest: bool = False

    @property
    def fixed_count(self) -> Optional[int]:
        """The element count when statically fixed (min == max, literal)."""
        if (isinstance(self.min_size, E.IntLit)
                and isinstance(self.max_size, E.IntLit)
                and self.min_size.value == self.max_size.value):
            return int(self.min_size.value)
        return None


@dataclass(eq=False, repr=False)
class EnumPlan(DeclPlan):
    kind = "enum"
    items: List[EnumItemPlan] = field(default_factory=list)

    @property
    def ordered(self) -> List[EnumItemPlan]:
        """Members by descending spelling length (longest match wins)."""
        return sorted(self.items, key=lambda it: -len(it.physical))


@dataclass(eq=False, repr=False)
class TypedefPlan(DeclPlan):
    kind = "typedef"
    base: Use = field(default_factory=Use)
    var: str = ""
    constraint: Optional[E.Expr] = None


# -- the plan -----------------------------------------------------------------


class Plan:
    """The analyzed description: every fact the engines and tools need,
    derived once from the type-checked AST."""

    def __init__(self, desc: D.Description, ambient: str):
        self.desc = desc
        self.ambient = ambient
        self.encoding = encoding_for(ambient)
        self.decls: Dict[str, DeclPlan] = {}
        #: ('type', DeclPlan) / ('func', D.FuncDecl) in declaration order.
        self.order: List[Tuple[str, Any]] = []
        self.functions: Dict[str, E.FuncDef] = {}
        #: enum literal name -> (name, code, physical spelling)
        self.enum_literals: Dict[str, Tuple[str, int, str]] = {}
        self.source_name: Optional[str] = None

    # -- lookups ------------------------------------------------------------

    def decl(self, name: str) -> DeclPlan:
        return self.decls[name]

    def is_declared(self, name: str) -> bool:
        return name in self.decls

    # -- base types ---------------------------------------------------------

    def resolve(self, name: str, args: Tuple[Any, ...] = ()) -> Any:
        """Resolve a base-type use under this plan's ambient coding.

        The one place outside :mod:`repro.core.basetypes` that calls
        ``resolve_base_type``; every consumer routes through the plan.
        """
        from ..core.basetypes.base import resolve_base_type
        return resolve_base_type(name, args, self.ambient)

    def encode(self, text: str) -> bytes:
        return text.encode(self.encoding)

    # -- constraint compilation --------------------------------------------

    def resolver(self, scope: Dict[str, str]) -> Callable[[str], str]:
        """Free-identifier resolution for compiled constraint expressions,
        shared by the emitter and the fast path: local scope, then enum
        literals (``E_<name>``), helper functions (``fn_<name>``),
        builtins (``_B[...]``), else the bare name."""
        def r(name: str) -> str:
            if name in scope:
                return scope[name]
            if name in self.enum_literals:
                return f"E_{name}"
            if name in self.functions:
                return f"fn_{name}"
            if name in BUILTINS:
                return f"_B[{name!r}]"
            return name
        return r

    def cexpr(self, expr: E.Expr, scope: Dict[str, str]) -> str:
        return compile_expr(expr, self.resolver(scope))

    def check(self, expr: E.Expr, scope: Dict[str, str],
              fail: str) -> List[str]:
        """``expr`` as check statements running ``fail`` when it is
        false (:func:`~repro.expr.pycompile.compile_check`): the form
        every constraint, ``Pwhere`` and ``Pforall`` site is emitted in."""
        return compile_check(expr, self.resolver(scope), fail)

    def pick(self, decl: "SwitchPlan", scope: Dict[str, str]) -> List[str]:
        """Lines setting ``_case`` to the index of the case ``decl``'s
        selector picks: the first whose value equals it (a value that
        fails to evaluate matches nothing), else the ``Pdefault`` case;
        -1 when the selector fails or no case applies."""
        default = next((k for k, c in enumerate(decl.cases)
                        if c.value is None), -1)
        lines = ["_case = None", "try:",
                 f"    _sel = {self.cexpr(decl.selector, scope)}",
                 "except Exception:", "    _case = -1"]
        for k, case in enumerate(decl.cases):
            if case.value is not None:
                lines += ["if _case is None:", "    try:",
                          f"        if _sel == {self.cexpr(case.value, scope)}:",
                          f"            _case = {k}",
                          "    except Exception:", "        pass"]
        return lines + ["if _case is None:", f"    _case = {default}"]
