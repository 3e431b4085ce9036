"""AST for PADS descriptions (the type-declaration layer).

Expressions and statements reuse :mod:`repro.expr.ast`; this module adds
the declaration forms from the paper's Section 3: ``Pstruct``, ``Punion``
(ordered and switched), ``Parray`` with separator/terminator/size/predicate
termination, ``Penum``, ``Popt``, ``Ptypedef``, ``Pwhere`` clauses and the
``Precord`` / ``Psource`` annotations, plus user helper functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..expr import ast as E
from ..util.fieldwise import Fieldwise


# ---------------------------------------------------------------------------
# Type expressions (uses of types)
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class TypeExpr(Fieldwise):
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


@dataclass(eq=False, repr=False)
class TypeRef(TypeExpr):
    """Use of a named type, possibly with value parameters: ``Puint16_FW(:3:)``."""
    name: str
    args: List[E.Expr] = field(default_factory=list)


@dataclass(eq=False, repr=False)
class OptType(TypeExpr):
    """``Popt T`` — sugar for a union of T and the void type (paper §3)."""
    inner: TypeExpr


@dataclass(eq=False, repr=False)
class RegexType(TypeExpr):
    """``Pre "pattern"`` used as an anonymous string-matching type."""
    pattern: str


# ---------------------------------------------------------------------------
# Literals appearing as data (struct literal fields, separators, terminators)
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class LiteralSpec(Fieldwise):
    """A physical literal: a char, string, or regex; or the EOR/EOF markers."""
    kind: str  # 'char' | 'string' | 'regex' | 'eor' | 'eof' | 'expr'
    value: object = None  # str for char/string/regex; E.Expr for 'expr'
    line: int = 0
    col: int = 0

    def describe(self) -> str:
        if self.kind == "eor":
            return "Peor"
        if self.kind == "eof":
            return "Peof"
        if self.kind == "regex":
            return f"Pre {self.value!r}"
        return repr(self.value)


# ---------------------------------------------------------------------------
# Struct / union members
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class LiteralField(Fieldwise):
    """An anonymous literal member of a Pstruct, e.g. ``"HTTP/";``."""
    literal: LiteralSpec


@dataclass(eq=False, repr=False)
class DataField(Fieldwise):
    """A named member: ``Puint8 major;`` possibly with a constraint.

    ``constraint`` is evaluated with all earlier fields and this field in
    scope (paper: "earlier fields are in scope during the processing of
    later fields").
    """
    name: str
    type: TypeExpr
    constraint: Optional[E.Expr] = None
    line: int = 0
    col: int = 0


@dataclass(eq=False, repr=False)
class ComputeField(Fieldwise):
    """``Pcompute`` member: a value computed from earlier fields, consuming
    no input.  An optional constraint checks the computed value."""
    name: str
    type_name: str
    expr: E.Expr
    constraint: Optional[E.Expr] = None
    line: int = 0
    col: int = 0


StructItem = object  # LiteralField | DataField | ComputeField


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class Decl(Fieldwise):
    name: str
    params: List[Tuple[str, str]] = field(default_factory=list)  # (type, name)
    is_record: bool = False
    is_source: bool = False
    where: Optional[E.Expr] = None
    line: int = 0
    col: int = 0


@dataclass(eq=False, repr=False)
class StructDecl(Decl):
    items: List[StructItem] = field(default_factory=list)

    def data_fields(self) -> List[DataField]:
        return [i for i in self.items if isinstance(i, DataField)]


@dataclass(eq=False, repr=False)
class SwitchCase(Fieldwise):
    value: Optional[E.Expr]  # None for Pdefault
    field: DataField


@dataclass(eq=False, repr=False)
class UnionDecl(Decl):
    branches: List[DataField] = field(default_factory=list)
    switch: Optional[E.Expr] = None  # selector expression for Pswitch form
    cases: List[SwitchCase] = field(default_factory=list)

    @property
    def is_switched(self) -> bool:
        return self.switch is not None


@dataclass(eq=False, repr=False)
class ArrayDecl(Decl):
    elt_type: TypeExpr = None
    elt_name: Optional[str] = None
    sep: Optional[LiteralSpec] = None
    term: Optional[LiteralSpec] = None
    min_size: Optional[E.Expr] = None
    max_size: Optional[E.Expr] = None
    last: Optional[E.Expr] = None   # stop *after* an element satisfying this
    ended: Optional[E.Expr] = None  # stop *before* parsing when this holds
    longest: bool = False           # parse as many elements as possible


@dataclass(eq=False, repr=False)
class BitfieldItem(Fieldwise):
    """One field of a Pbitfields declaration: ``width : name (: constraint)``."""
    width: int
    name: str
    constraint: Optional[E.Expr] = None


@dataclass(eq=False, repr=False)
class BitfieldsDecl(Decl):
    """``Pbitfields`` — the bit-field construct from the paper's Section 9
    ("we intend to add bit-field and overlay constructs ... in a fashion
    similar to DATASCRIPT and PACKETTYPES").  Fields are consecutive
    MSB-first bit ranges over a big-endian word whose width is the sum of
    the field widths (which must be a whole number of bytes).

    The construct is *checked sugar*: binding and code generation lower it
    to a Pstruct holding the raw word plus computed bit extractions (see
    ``lower_bitfields``), so every generated tool works on it unchanged.
    """
    items: List[BitfieldItem] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return sum(item.width for item in self.items)


def lower_bitfields(decl: "BitfieldsDecl") -> "StructDecl":
    """Lower a Pbitfields declaration to its equivalent Pstruct.

    The struct parses one ``Pb_raw(:nbytes:)`` word into the hidden field
    ``_raw`` and derives each bit-field with a Pcompute: shifting and
    masking MSB-first.  Writing serialises ``_raw``, so round-trips are
    exact.
    """
    nbytes = decl.total_bits // 8
    items: List[object] = [
        DataField("_raw", TypeRef("Pb_raw", [E.IntLit(nbytes)]))]
    shift = decl.total_bits
    for item in decl.items:
        shift -= item.width
        mask = (1 << item.width) - 1
        expr = E.Binary("&", E.Binary(">>", E.Name("_raw"), E.IntLit(shift)),
                        E.IntLit(mask))
        items.append(ComputeField(item.name, "int", expr, item.constraint))
    return StructDecl(name=decl.name, params=decl.params,
                      is_record=decl.is_record, is_source=decl.is_source,
                      where=decl.where, items=items,
                      line=decl.line, col=decl.col)


@dataclass(eq=False, repr=False)
class EnumItem(Fieldwise):
    name: str
    value: Optional[int] = None      # integer code (defaults to position)
    physical: Optional[str] = None   # Pfrom("...") alternate spelling


@dataclass(eq=False, repr=False)
class EnumDecl(Decl):
    items: List[EnumItem] = field(default_factory=list)


@dataclass(eq=False, repr=False)
class TypedefDecl(Decl):
    base: TypeExpr = None
    var: Optional[str] = None        # the `x` in `response_t x => {...}`
    constraint: Optional[E.Expr] = None


@dataclass(eq=False, repr=False)
class FuncDecl(Fieldwise):
    func: E.FuncDef
    line: int = 0
    col: int = 0

    @property
    def name(self) -> str:
        return self.func.name


@dataclass(eq=False, repr=False)
class Description(Fieldwise):
    """A complete PADS description: an ordered list of declarations.

    ``source`` names the Psource type (the totality of the data source);
    per the paper, types are declared before use, so by default the last
    type declaration is the source if none is annotated.
    """
    decls: List[object] = field(default_factory=list)
    filename: str = "<description>"

    def types(self) -> Dict[str, Decl]:
        return {d.name: d for d in self.decls if isinstance(d, Decl)}

    def functions(self) -> Dict[str, E.FuncDef]:
        return {d.name: d.func for d in self.decls if isinstance(d, FuncDecl)}

    @property
    def source(self) -> Optional[Decl]:
        explicit = [d for d in self.decls if isinstance(d, Decl) and d.is_source]
        if explicit:
            return explicit[-1]
        type_decls = [d for d in self.decls if isinstance(d, Decl)]
        return type_decls[-1] if type_decls else None
