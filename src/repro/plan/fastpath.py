"""Record-level fast paths compiled from the plan IR.

The paper's Section 9 proposes "partially evaluating the current PADS
library" to produce application-specific instances.  This module does
exactly that for the overwhelmingly common case — a uniform mask over a
``Precord`` type — in two flavours, tried in order:

* **Fixed-width slicing** (:class:`SlicePath`): when the size analysis
  proves the whole record static, the grammar compiles to straight-line
  code — a length check, literal ``startswith`` probes, and byte-slice
  conversions at constant offsets.  This is the Cobol/binary layout
  case (the paper's ``Pb_`` and ``Pebc_``/``Pbcd_`` families).
* **Anchored regex** (:class:`FastPath`): otherwise the record grammar
  is compiled into a single anchored regular expression (Python 3.11
  atomic groups ``(?>...)`` emulate the parser's maximal-munch /
  ordered-choice commitments) plus a generated *converter* that builds
  the in-memory representation and evaluates semantic constraints.

Both compilers share one conservative contract: the fast function
either returns a rep the general parser would have produced **with a
clean parse descriptor**, or ``None`` — in which case the caller
re-parses the record with the general (error-reporting) parser.  Errors
therefore cost one extra parse, while clean records — the vast majority
in the paper's workloads — run at compiled speed.  The compiled
function is a plain source fragment over a small runtime namespace, so
the *same* fast function serves the generated module (where the
namespace is the module globals) and the interpreter (where
:mod:`repro.plan.runtime` materialises it).

The regex compiler also emits *member* fast functions
(:func:`compile_member`), one per data member of a struct, under the
same contract for one member matched inside the buffered record.  The
interpreter's general struct parse compiles them on first use and runs
them before each member's combinator, so an error record interprets
only the members that fail.

Eligibility is decided here, once, and recorded on the plan node as a
:class:`~repro.plan.ir.Verdict` with a human-readable reason; anything
out of scope (switched unions, parameterised types, dynamic sizes,
mid-record arrays, regex terminators) simply keeps the general path.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

try:  # the regex parser, for its width analysis
    from re import _parser  # type: ignore[attr-defined]
except ImportError:  # Python 3.10
    import sre_parse as _parser  # type: ignore[no-redef]

from ..core.basetypes import cobol as _cobol
from ..core.basetypes import integers as _ints
from ..core.basetypes import misc as _misc
from ..core.basetypes import network as _net
from ..core.basetypes import strings as _strs
from ..core.basetypes import temporal as _tmp
from ..expr import ast as E
from .ir import (
    ArrayPlan,
    BaseUse,
    ComputeItem,
    DataItem,
    EnumPlan,
    LitItem,
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
from .passes import fixed_width_of

_HOST_GUARD = rb"(?![A-Za-z0-9.\-])"
_IP_OCTET = rb"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"


class NotEligible(Exception):
    """Raised when a construct is outside the fast-path subset; the
    message becomes the plan verdict's reason."""


class _NotFixed(Exception):
    """Internal: the slicing compiler hit a construct it cannot lay out
    at constant offsets; fall back to the regex compiler (which decides
    real eligibility)."""


class _W:
    def __init__(self, depth: int = 0):
        self.lines: List[str] = []
        self.depth = depth

    def w(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def block(self, header: str):
        self.w(header)
        return _I(self)


class _I:
    def __init__(self, w):
        self.w = w

    def __enter__(self):
        self.w.depth += 1

    def __exit__(self, *exc):
        self.w.depth -= 1


def _cls(value: bytes) -> bytes:
    """Escape one byte for use inside a character class."""
    return re.escape(value)


def base_conv(inst, var: str, ref: str, w: _W, exc=NotEligible) -> None:
    """Conversion code for a fixed-width base type from raw bytes in
    ``ref`` (slicing fast path and fixed-array elements)."""
    if isinstance(inst, _ints.BinaryInt):
        w.w(f"{var} = int.from_bytes({ref}, {inst.byteorder!r}, "
            f"signed={inst.signed})")
    elif isinstance(inst, _ints.BinaryRaw):
        w.w(f"{var} = int.from_bytes({ref}, 'big')")
    elif isinstance(inst, _ints.BinaryFloat):
        w.w(f"{var} = __import__('struct').unpack({inst.fmt!r}, {ref})[0]")
    elif isinstance(inst, _cobol.PackedDecimal):
        w.w(f"{var} = _fp_packed({ref}, {inst.digits}, {inst.decimals})")
        with w.block(f"if {var} is None:"):
            w.w("return None")
    elif isinstance(inst, _cobol.ZonedDecimal):
        w.w(f"{var} = _fp_zoned({ref}, {inst.digits}, {inst.decimals})")
        with w.block(f"if {var} is None:"):
            w.w("return None")
    elif isinstance(inst, _strs.FixedString):
        w.w(f"{var} = {ref}.decode({inst.encoding!r})")
    elif isinstance(inst, _strs.AsciiChar):
        w.w(f"{var} = {ref}.decode('latin-1')")
    elif isinstance(inst, _strs.EbcdicChar):
        w.w(f"{var} = {ref}.decode('cp037')")
    elif isinstance(inst, _ints.AsciiIntFW):
        w.w(f"{var} = int({ref}.decode('ascii', 'replace').strip(), 10)")
        if not inst.signed:
            with w.block(f"if {var} < 0:"):
                w.w("return None")
        with w.block(f"if dosem and not "
                     f"({inst.lo} <= {var} <= {inst.hi}):"):
            w.w("return None")
    else:
        raise exc(type(inst).__name__)


def _static_fixed(use: Use) -> Optional[Tuple[object, int]]:
    """(base instance, byte width) when ``use`` is a statically resolved
    fixed-width atomic base type of nonzero width; None otherwise."""
    if not isinstance(use, BaseUse) or use.static is None:
        return None
    width = fixed_width_of(use.static)
    if not width:
        return None
    return use.static, width


class FastPath:
    """Compiles one record plan, or one data member of a struct, to an
    anchored regex plus converter.

    The two flavours share every fragment and the one wrapper,
    :meth:`emit`; they differ only in how the regex is applied and what
    the function returns:

    * the **record** fast function ``_fp_<type>(line, dosem) -> rep |
      None`` fullmatches the whole record;
    * a **member** fast function ``_fm_<type>__<member>(buf, pos, end,
      dosem) -> (rep, end_pos) | None`` matches one member at ``pos`` in
      the buffered record, without copying it.  The interpreter's general
      struct parse runs it before a member's combinator.
    """

    def __init__(self, plan: Plan, decl: StructPlan,
                 member: Optional[str] = None):
        self.plan = plan
        self.decl = decl
        self.member = member
        #: Namespaces every module-level name this compiler emits.
        self.tag = decl.name if member is None else f"{decl.name}__{member}"
        self.gid = 0
        self.tmpid = 0
        self.aux: List[str] = []  # extra module-level sources
        #: Which form each compiled tail array took, for the verdict.
        self.tail_forms: List[str] = []

    # -- small helpers -------------------------------------------------------

    def group(self) -> str:
        self.gid += 1
        return f"g{self.gid}"

    def temp(self) -> str:
        self.tmpid += 1
        return f"_t{self.tmpid}"

    def auxname(self, stem: str, g: str) -> str:
        # Namespaced by record type (and member) so two fast functions in
        # one namespace never collide on their auxiliary maps/regexes.
        return f"_{stem}_{self.tag}_{g}"

    def cexpr(self, expr: E.Expr, scope: Dict[str, str]) -> str:
        return self.plan.cexpr(expr, scope)

    # -- entry point ---------------------------------------------------------

    def build(self) -> Tuple[str, List[str], str]:
        """(fast function name, module source lines, verdict reason);
        raises NotEligible."""
        decl = self.decl
        w = _W(depth=2)  # inside def + try
        var = self.temp()
        pattern = self.compile_struct_body(decl, var, w, is_tail=True)
        reason = "anchored regex over the record"
        if self.tail_forms:
            reason += f" ({'; '.join(self.tail_forms)})"
        return (*self.emit(pattern, var, w, decl.name), reason)

    def build_member(self, item: DataItem) -> Tuple[str, List[str]]:
        """(member fast function name, module source lines); raises
        NotEligible.  The member is never the record's tail: a Peor
        terminator is only compiled against the end of a whole record."""
        w = _W(depth=2)
        var = self.temp()
        pattern = self.compile_use(item.type, var, w, {}, is_tail=False)
        return self.emit(pattern, var, w,
                         f"member {self.decl.name}.{item.name}")

    def emit(self, pattern: bytes, var: str, w: _W,
             what: str) -> Tuple[str, List[str]]:
        """Wrap a converter body (``w``, leaving the value in ``var``)
        into the fast function of this compiler's flavour: the compiled
        regex, one ``groups()`` call, the converter, and ``except ->
        None``."""
        full = b"(?s:" + pattern + b")"
        compiled = re.compile(full)  # fail analysis, not import
        stem = "fp" if self.member is None else "fm"
        rx_name, fn_name = f"_{stem}rx_{self.tag}", f"_{stem}_{self.tag}"
        if self.member is None:
            args, call, result = "_line", "fullmatch(_line)", var
        else:
            args, call, result = ("_buf, _pos, _end", "match(_buf, _pos, _end)",
                                  f"({var}, _m.end())")
        return fn_name, [
            f"{rx_name} = __import__('re').compile({full!r})",
            f"def {fn_name}({args}, dosem):",
            f'    """Compiled fast path for {what}: one anchored regex plus '
            'conversion."""',
            f"    _m = {rx_name}.{call}",
            "    if _m is None:",
            "        return None",
            "    _gs = _m.groups()",
            "    try:",
            *_index_groups(w.lines, compiled.groupindex),
            f"        return {result}",
            "    except Exception:",
            "        return None",
            *self.aux,
        ]

    # -- struct --------------------------------------------------------------

    def compile_struct_body(self, decl: StructPlan, var: str, w: _W,
                            is_tail: bool) -> bytes:
        pattern = b""
        scope: Dict[str, str] = {}
        field_vars: List[Tuple[str, str]] = []
        last_idx = len(decl.items) - 1
        for i, item in enumerate(decl.items):
            tail_here = is_tail and i == last_idx
            if isinstance(item, LitItem):
                lit = item.literal
                if lit.kind == "char" or lit.kind == "string":
                    pattern += re.escape(lit.raw)
                elif lit.kind == "eor":
                    # The end of the subject: the record's end under
                    # fullmatch, the match's ``end`` bound for a member.
                    pattern += b"\\Z"
                else:
                    raise NotEligible(f"literal kind {lit.kind}")
                continue
            if isinstance(item, ComputeItem):
                fvar = self.temp()
                w.w(f"{fvar} = {self.cexpr(item.expr, scope)}")
                scope[item.name] = fvar
                field_vars.append((item.name, fvar))
                if item.constraint is not None:
                    with w.block(f"if dosem and not "
                                 f"({self.cexpr(item.constraint, scope)}):"):
                        w.w("return None")
                continue
            assert isinstance(item, DataItem)
            fvar = self.temp()
            pattern += self.compile_use(item.type, fvar, w, scope, tail_here)
            scope[item.name] = fvar
            field_vars.append((item.name, fvar))
            if item.constraint is not None:
                with w.block(f"if dosem and not "
                             f"({self.cexpr(item.constraint, scope)}):"):
                    w.w("return None")
        _build_rec(w, var, _rec_binding(self.aux, decl), field_vars)
        if decl.where is not None:
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, scope)}):"):
                w.w("return None")
        return pattern

    # -- type uses -----------------------------------------------------------

    def compile_use(self, use: Use, var: str, w: _W,
                    scope: Dict[str, str], is_tail: bool) -> bytes:
        if isinstance(use, OptUse):
            return self.compile_opt(use, var, w, scope, is_tail)
        if isinstance(use, RegexUse):
            return self.compile_regex_type(use.pattern, var, w)
        if isinstance(use, RefUse):
            decl = self.plan.decls[use.name]
            if decl.params or decl.is_record:
                raise NotEligible(f"nested {use.name}")
            return self.compile_decl_use(decl, var, w, scope, is_tail)
        assert isinstance(use, BaseUse)
        if use.static is None:
            raise NotEligible(f"dynamic parameters on {use.name}")
        return self.base_fragment(use.static, var, w, capture=True)

    def compile_decl_use(self, decl, var: str, w: _W,
                         scope: Dict[str, str], is_tail: bool) -> bytes:
        if isinstance(decl, StructPlan):
            return self.compile_struct_body(decl, var, w, is_tail)
        if isinstance(decl, SwitchPlan):
            raise NotEligible("switched union")
        if isinstance(decl, UnionPlan):
            return self.compile_union(decl, var, w, is_tail)
        if isinstance(decl, ArrayPlan):
            return self.compile_array(decl, var, w, is_tail)
        if isinstance(decl, EnumPlan):
            return self.compile_enum(decl, var, w)
        if isinstance(decl, TypedefPlan):
            return self.compile_typedef(decl, var, w, scope, is_tail)
        raise NotEligible(type(decl).__name__)

    # -- Popt / Punion -------------------------------------------------------

    def compile_opt(self, use: OptUse, var: str, w: _W,
                    scope: Dict[str, str], is_tail: bool) -> bytes:
        g = self.group()
        inner = self.temp()
        sub = _W(w.depth + 1)
        pattern = self.compile_use(use.inner, inner, sub, dict(scope), False)
        w.w(f"if _m.group({g!r}) is not None:")
        w.lines.extend(sub.lines)
        with _I(w):
            w.w(f"{var} = {inner}")
        with w.block("else:"):
            w.w(f"{var} = None")
        # Atomic: once the member matches it is present, as in the general
        # parser; a failure later in the record must not make it absent.
        return b"(?>(?P<" + g.encode() + b">" + pattern + b")?)"

    def compile_union(self, decl: UnionPlan, var: str, w: _W,
                      is_tail: bool) -> bytes:
        alts: List[bytes] = []
        first = True
        for br in decl.branches:
            g = self.group()
            bvar = self.temp()
            sub = _W(w.depth + 1)
            substituted = False
            lit = _guard_literal(br.constraint, br.name)
            if lit is not None and isinstance(lit, str):
                # `branch == 'literal'` guard on a char/string branch:
                # bake the literal into the pattern.
                kind = _string_kind(br.type)
                if kind is not None:
                    pattern = (b"(?>" + re.escape(self.plan.encode(lit))
                               + b")")
                    sub.w(f"{bvar} = {lit!r}")
                    substituted = True
            if not substituted:
                pattern = self.compile_use(br.type, bvar, sub, {}, False)
                if br.constraint is not None:
                    # Branch guards steer *selection*; a guard failure means
                    # the general parser would pick a later branch, so the
                    # fast path must bail out.
                    bscope = {br.name: bvar}
                    sub.w(f"if not ({self.cexpr(br.constraint, bscope)}):")
                    sub.w("    return None")
            header = "if" if first else "elif"
            w.w(f"{header} _m.group({g!r}) is not None:")
            w.lines.extend(sub.lines)
            with _I(w):
                w.w(f"{var} = UnionVal({br.name!r}, {bvar})")
            alts.append(b"(?P<" + g.encode() + b">" + pattern + b")")
            first = False
        with w.block("else:"):
            w.w("return None")
        return b"(?>" + b"|".join(alts) + b")"

    # -- Parray --------------------------------------------------------------

    def compile_array(self, decl: ArrayPlan, var: str, w: _W,
                      is_tail: bool) -> bytes:
        if decl.last is not None or decl.ended is not None or decl.longest:
            raise NotEligible("predicate-terminated array")
        if decl.sep is not None and (decl.sep.kind != "char"):
            raise NotEligible("non-char array separator")
        sep = decl.sep.raw if decl.sep is not None else None

        # Tail arrays: Pterm(Peor), no size bounds, last member of the record.
        if decl.term is not None and decl.term.kind == "eor" \
                and decl.min_size is None and decl.max_size is None:
            if not is_tail:
                raise NotEligible("Peor-terminated array (compiled only as "
                                  "the record's last member)")
            return self._tail_array(decl, sep, var, w)

        # Fixed-count arrays of fixed-width elements (Cobol OCCURS):
        # one .{k*n} span sliced into k-byte chunks by the converter.
        if decl.term is None and decl.sep is None \
                and decl.fixed_count is not None:
            return self._fixed_array(decl, decl.fixed_count, var, w)
        raise NotEligible("array outside the supported forms")

    def _tail_array(self, decl: ArrayPlan, sep: Optional[bytes],
                    var: str, w: _W) -> bytes:
        g = self.group()
        evar = self.temp()
        sub = _W()
        elt_pattern = self.compile_use(decl.elt, evar, sub, {}, False)
        elt_full = b"(?s:" + elt_pattern + b")"
        groupindex = re.compile(elt_full).groupindex
        span_var = self.temp()
        w.w(f"{span_var} = _m.group({g!r})")
        w.w(f"{var} = []")
        if _one_call(elt_full, groupindex, sub.lines):
            self.tail_forms.append(f"tail array {decl.name}: one fullmatch "
                                   "+ findall")
            self._tail_one_call(elt_pattern, groupindex, sub, sep, g, evar,
                                span_var, var, w)
        else:
            self.tail_forms.append(f"tail array {decl.name}: per-element "
                                   "loop (an element, or an optional part "
                                   "of one, may match empty)")
            self._tail_loop(elt_full, groupindex, sub, sep, g, evar,
                            span_var, var, w)
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, ascope)}):"):
                w.w("return None")
        # The span is everything to end-of-record.
        return b"(?P<" + g.encode() + b">.*)"

    def _tail_one_call(self, elt_pattern: bytes, groupindex, sub: _W,
                       sep: Optional[bytes], g: str, evar: str,
                       span_var: str, var: str, w: _W) -> None:
        """One ``fullmatch`` checks the whole tail is ``E (sep E)*`` with
        each ``E`` committed (atomic) to the match the general parser's
        element parse picks; one ``findall`` then yields every element's
        groups, converted inline.  Sound only when ``E`` never matches
        empty (see :func:`_one_call`)."""
        bare = _GROUP_OPEN.sub(b"(?:", elt_pattern)
        s = re.escape(sep) if sep is not None else b""
        check = b"(?s:(?:(?>" + bare + b")(?:" + s + b"(?>" + bare + b"))*)?)"
        rows = (b"(?s:(?>" + elt_pattern + b")"
                + (b"(?:" + s + b"|\\Z)" if sep is not None else b"") + b")")
        check_name = self.auxname("fpav", g)
        rows_name = self.auxname("fpfa", g)
        self.aux.append(f"{check_name} = __import__('re').compile("
                        f"{check!r}).fullmatch")
        self.aux.append(f"{rows_name} = __import__('re').compile("
                        f"{rows!r}).findall")
        with w.block(f"if {span_var}:"):
            with w.block(f"if {check_name}({span_var}) is None:"):
                w.w("return None")
            with w.block(f"for _eg in {rows_name}({span_var}):"):
                w.lines.extend("    " * w.depth + line
                               for line in _row_groups(sub.lines, groupindex))
                w.w(f"{var}.append({evar})")

    def _tail_loop(self, elt_full: bytes, groupindex, sub: _W,
                   sep: Optional[bytes], g: str, evar: str, span_var: str,
                   var: str, w: _W) -> None:
        """One anchored ``match`` and one converter call per element."""
        conv_name = self.auxname("fpelt", g)
        rx_name = self.auxname("fperx", g)
        self.aux.append(f"{rx_name} = __import__('re').compile({elt_full!r})")
        self.aux.append(f"def {conv_name}(_m, dosem):")
        self.aux.append("    _gs = _m.groups()")
        self.aux.append("    try:")
        # The converter answers ``(ok, value)``: a failed element check
        # emitted as ``return None`` must fail the pair, not the unpack.
        self.aux.extend(
            "        " + (line.replace("return None", "return (False, None)")
                          if line.strip() == "return None" else line)
            for line in _index_groups(sub.lines, groupindex))
        self.aux.append(f"        return (True, {evar})")
        self.aux.append("    except Exception:")
        self.aux.append("        return (False, None)")
        with w.block(f"if {span_var}:"):
            w.w("_apos = 0")
            w.w(f"_alen = len({span_var})")
            with w.block("while True:"):
                w.w(f"_aem = {rx_name}.match({span_var}, _apos)")
                with w.block("if _aem is None or _aem.end() == _apos "
                             "and _alen > _apos:"):
                    w.w("return None")
                w.w(f"_aok, _aval = {conv_name}(_aem, dosem)")
                with w.block("if not _aok:"):
                    w.w("return None")
                w.w(f"{var}.append(_aval)")
                w.w("_apos = _aem.end()")
                with w.block("if _apos >= _alen:"):
                    w.w("break")
                if sep is not None:
                    with w.block(f"if not {span_var}.startswith({sep!r}, "
                                 "_apos):"):
                        w.w("return None")
                    w.w(f"_apos += {len(sep)}")

    def _fixed_array(self, decl: ArrayPlan, count: int, var: str,
                     w: _W) -> bytes:
        fixed = _static_fixed(decl.elt)
        if fixed is None:
            raise NotEligible("fixed-count array of variable-width elements")
        inst, width = fixed
        if count <= 0:
            raise NotEligible("empty fixed array")
        g = self.group()
        span = self.temp()
        w.w(f"{span} = _m.group({g!r})")
        w.w(f"{var} = []")
        raw = self.temp()
        with w.block(f"for _ai in range({count}):"):
            w.w(f"{raw} = {span}[_ai * {width}:(_ai + 1) * {width}]")
            evar = self.temp()
            sub = _W(w.depth)
            base_conv(inst, evar, raw, sub)
            w.lines.extend(sub.lines)
            w.w(f"{var}.append({evar})")
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, ascope)}):"):
                w.w("return None")
        return (b"(?P<" + g.encode() + b">" +
                b".{%d}" % (width * count) + b")")

    # -- Penum / Ptypedef ----------------------------------------------------

    def compile_enum(self, decl: EnumPlan, var: str, w: _W) -> bytes:
        ordered = decl.ordered
        g = self.group()
        map_name = self.auxname("fpenum", g)
        entries = ", ".join(f"{item.raw!r}: E_{item.name}"
                            for item in ordered)
        self.aux.append(f"{map_name} = {{{entries}}}")
        alternation = b"|".join(re.escape(item.raw) for item in ordered)
        w.w(f"{var} = {map_name}[_m.group({g!r})]")
        return b"(?P<" + g.encode() + b">(?>" + alternation + b"))"

    def compile_typedef(self, decl: TypedefPlan, var: str, w: _W,
                        scope: Dict[str, str], is_tail: bool) -> bytes:
        pattern = self.compile_use(decl.base, var, w, scope, is_tail)
        if decl.constraint is not None:
            cscope = {decl.var: var}
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.constraint, cscope)}):"):
                w.w("return None")
        return pattern

    # -- regex-typed fields --------------------------------------------------

    def compile_regex_type(self, pattern: str, var: str, w: _W) -> bytes:
        raw = pattern.encode(self.plan.encoding)
        if b"(" in raw.replace(b"(?:", b"").replace(b"\\(", b""):
            raise NotEligible("regex field with groups")
        if re.compile(raw).match(b""):
            raise NotEligible("regex field matching empty")
        g = self.group()
        w.w(f"{var} = _m.group({g!r}).decode({self.plan.encoding!r})")
        return b"(?P<" + g.encode() + b">(?>" + raw + b"))"

    # -- base types ----------------------------------------------------------

    def base_fragment(self, inst, var: str, w: _W, capture: bool) -> bytes:
        g = self.group()
        ref = f"_m.group({g!r})"

        def grp(body: bytes) -> bytes:
            return b"(?P<" + g.encode() + b">" + body + b")"

        if isinstance(inst, _ints.AsciiInt):
            body = b"(?>[-+]?\\d+)" if inst.signed else b"(?>\\d+)"
            w.w(f"{var} = int({ref})")
            if inst.lo is not None:
                with w.block(f"if dosem and not "
                             f"({inst.lo} <= {var} <= {inst.hi}):"):
                    w.w("return None")
            return grp(body)

        if isinstance(inst, _ints.AsciiIntFW):
            body = b".{%d}" % inst.nchars
            raw = self.temp()
            w.w(f"{raw} = {ref}.decode('ascii', 'replace').strip()")
            w.w(f"{var} = int({raw}, 10)")
            if not inst.signed:
                with w.block(f"if {var} < 0:"):
                    w.w("return None")
            with w.block(f"if dosem and not ({inst.lo} <= {var} <= {inst.hi}):"):
                w.w("return None")
            return grp(body)

        if isinstance(inst, _ints.BinaryInt):
            body = b".{%d}" % inst.nbytes
            w.w(f"{var} = int.from_bytes({ref}, {inst.byteorder!r}, "
                f"signed={inst.signed})")
            return grp(body)

        if isinstance(inst, _ints.BinaryRaw):
            body = b".{%d}" % inst.nbytes
            w.w(f"{var} = int.from_bytes({ref}, 'big')")
            return grp(body)

        if isinstance(inst, _ints.EbcdicInt):
            digits = b"[\\xf0-\\xf9]"
            sign = b"[\\x60\\x4e]?" if inst.signed else b""
            w.w(f"{var} = int({ref}.decode('cp037'))")
            with w.block(f"if dosem and not ({inst.lo} <= {var} <= {inst.hi}):"):
                w.w("return None")
            return grp(b"(?>" + sign + digits + b"+)")

        if isinstance(inst, _ints.AsciiFloat):
            body = b"(?>[-+]?(?:\\d+(?:\\.\\d+)?|\\.\\d+)(?:[eE][-+]?\\d+)?)"
            w.w(f"{var} = FloatVal(float({ref}), {ref}.decode('ascii'))")
            return grp(body)

        if isinstance(inst, _ints.BinaryFloat):
            body = b".{%d}" % inst.nbytes
            w.w(f"{var} = __import__('struct').unpack({inst.fmt!r}, {ref})[0]")
            return grp(body)

        if isinstance(inst, _strs.AsciiChar) or isinstance(inst, _strs.EbcdicChar):
            codec = "cp037" if isinstance(inst, _strs.EbcdicChar) else "latin-1"
            w.w(f"{var} = {ref}.decode({codec!r})")
            return grp(b".")

        if isinstance(inst, _strs.TerminatedString):
            cls = b"[^" + _cls(inst.term) + b"]"
            w.w(f"{var} = {ref}.decode({inst.encoding!r})")
            return grp(b"(?>" + cls + b"*)")

        if isinstance(inst, _strs.FixedString):
            w.w(f"{var} = {ref}.decode({inst.encoding!r})")
            return grp(b".{%d}" % inst.nchars)

        if isinstance(inst, _strs.RegexMatchString):
            raw = inst.pattern.encode("latin-1")
            if b"(" in raw.replace(b"(?:", b"").replace(b"\\(", b""):
                raise NotEligible("regex base with groups")
            if re.compile(raw).match(b""):
                raise NotEligible("regex base matching empty")
            w.w(f"{var} = {ref}.decode('latin-1')")
            return grp(b"(?>" + raw + b")")

        if isinstance(inst, _strs.RestOfRecord):
            w.w(f"{var} = {ref}.decode('latin-1')")
            return grp(b"(?>.*)")

        if isinstance(inst, _tmp.AsciiDate):
            if inst.term is not None:
                body = b"(?>[^" + _cls(inst.term) + b"]*)"
            else:
                body = b"(?>.*)"
            raw = self.temp()
            w.w(f"{raw} = {ref}.decode({inst.encoding!r})")
            w.w(f"{var} = _fp_parse_date({raw})")
            with w.block(f"if {var} is None:"):
                w.w("return None")
            return grp(body)

        if isinstance(inst, _tmp.EpochSeconds):
            w.w(f"{var} = DateVal(int({ref}), {ref}.decode('ascii'))")
            return grp(b"(?>\\d+)")

        if isinstance(inst, _net.Ipv4):
            # Octets 0-255 without leading zeros, so the text is the value
            # the general parser rebuilds from the octets; "010" and "256"
            # miss and go to the general parser.
            body = (b"(?>" + b"\\.".join([_IP_OCTET] * 4) + b")"
                    + _HOST_GUARD)
            w.w(f"{var} = {ref}.decode('ascii')")
            return grp(body)

        if isinstance(inst, _net.Hostname):
            body = b"(?>[A-Za-z0-9.\\-]+)" + _HOST_GUARD
            w.w(f"{var} = {ref}.decode('ascii')")
            with w.block(f"if not any(_c.isalpha() for _c in {var}) or "
                         f"{var}.startswith('.') or {var}.endswith('.'):"):
                w.w("return None")
            return grp(body)

        if isinstance(inst, _net.ZipCode):
            body = b"(?>\\d{5}(?:-\\d{4})?(?!\\d))"
            w.w(f"{var} = {ref}.decode('ascii')")
            return grp(body)

        if isinstance(inst, _net.PhoneNumber):
            w.w(f"{var} = int({ref})")
            with w.block(f"if dosem and len({ref}) not in (1, 10):"):
                w.w("return None")
            return grp(b"(?>\\d+)")

        if isinstance(inst, _cobol.PackedDecimal):
            w.w(f"{var} = _fp_packed({ref}, {inst.digits}, {inst.decimals})")
            with w.block(f"if {var} is None:"):
                w.w("return None")
            return grp(b".{%d}" % inst.nbytes)

        if isinstance(inst, _cobol.ZonedDecimal):
            w.w(f"{var} = _fp_zoned({ref}, {inst.digits}, {inst.decimals})")
            with w.block(f"if {var} is None:"):
                w.w("return None")
            return grp(b".{%d}" % inst.digits)

        if isinstance(inst, _misc.Empty):
            w.w(f"{var} = None")
            return b""

        raise NotEligible(type(inst).__name__)


class SlicePath:
    """Compiles a record the size analysis proves static to straight-line
    slicing code: a length check, literal probes and byte-slice
    conversions at constant offsets.  No regex engine in the loop."""

    def __init__(self, plan: Plan, decl: StructPlan):
        self.plan = plan
        self.decl = decl
        self.tmpid = 0
        self.auxid = 0
        self.aux: List[str] = []

    def temp(self) -> str:
        self.tmpid += 1
        return f"_t{self.tmpid}"

    def cexpr(self, expr: E.Expr, scope: Dict[str, str]) -> str:
        return self.plan.cexpr(expr, scope)

    def build(self) -> Tuple[str, List[str], str]:
        """(fast function name, module source lines, verdict reason);
        raises _NotFixed when the layout is not sliceable."""
        decl = self.decl
        total = decl.width
        if total is None or total <= 0:
            raise _NotFixed("record width not static")
        w = _W(depth=2)  # inside def + try
        var = self.temp()
        end = self.compile_struct(decl, var, w, 0)
        if end != total:
            raise _NotFixed("layout does not cover the record")  # paranoia
        name = decl.name
        fn_name = f"_fp_{name}"
        out: List[str] = []
        out.append(f"def {fn_name}(_line, dosem):")
        out.append(f'    """Compiled fast path for {name}: fixed-width '
                   f'slicing over {total} bytes."""')
        out.append(f"    if len(_line) != {total}:")
        out.append("        return None")
        out.append("    try:")
        out.extend(w.lines)
        out.append(f"        return {var}")
        out.append("    except Exception:")
        out.append("        return None")
        out.extend(self.aux)
        return fn_name, out, f"fixed-width slicing over {total} bytes"

    # -- struct --------------------------------------------------------------

    def compile_struct(self, decl: StructPlan, var: str, w: _W,
                       off: int) -> int:
        scope: Dict[str, str] = {}
        field_vars: List[Tuple[str, str]] = []
        for item in decl.items:
            if isinstance(item, LitItem):
                lit = item.literal
                if lit.kind in ("char", "string"):
                    with w.block(f"if not _line.startswith({lit.raw!r}, "
                                 f"{off}):"):
                        w.w("return None")
                    off += len(lit.raw)
                elif lit.kind in ("eor", "eof"):
                    # The length check is the end-of-record anchor; a
                    # mid-record Peor would make the width non-static.
                    if lit.kind == "eof":
                        raise _NotFixed("eof literal")
                else:
                    raise _NotFixed(f"literal kind {lit.kind}")
                continue
            if isinstance(item, ComputeItem):
                fvar = self.temp()
                w.w(f"{fvar} = {self.cexpr(item.expr, scope)}")
                scope[item.name] = fvar
                field_vars.append((item.name, fvar))
                if item.constraint is not None:
                    with w.block(f"if dosem and not "
                                 f"({self.cexpr(item.constraint, scope)}):"):
                        w.w("return None")
                continue
            assert isinstance(item, DataItem)
            fvar = self.temp()
            off = self.compile_use(item.type, fvar, w, off, scope)
            scope[item.name] = fvar
            field_vars.append((item.name, fvar))
            if item.constraint is not None:
                with w.block(f"if dosem and not "
                             f"({self.cexpr(item.constraint, scope)}):"):
                    w.w("return None")
        _build_rec(w, var, _rec_binding(self.aux, decl), field_vars)
        if decl.where is not None:
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, scope)}):"):
                w.w("return None")
        return off

    # -- type uses -----------------------------------------------------------

    def compile_use(self, use: Use, var: str, w: _W, off: int,
                    scope: Dict[str, str]) -> int:
        if isinstance(use, BaseUse):
            inst = use.static
            if inst is None:
                raise _NotFixed(f"dynamic parameters on {use.name}")
            if isinstance(inst, _misc.Empty):
                w.w(f"{var} = None")
                return off
            width = fixed_width_of(inst)
            if not width:
                raise _NotFixed(f"variable-width {type(inst).__name__}")
            ref = f"_line[{off}:{off + width}]"
            base_conv(inst, var, ref, w, exc=_NotFixed)
            return off + width
        if isinstance(use, RefUse):
            decl = self.plan.decls[use.name]
            if decl.params or decl.is_record:
                raise _NotFixed(f"nested {use.name}")
            return self.compile_decl_use(decl, var, w, off, scope)
        raise _NotFixed(type(use).__name__)

    def compile_decl_use(self, decl, var: str, w: _W, off: int,
                         scope: Dict[str, str]) -> int:
        if isinstance(decl, StructPlan):
            return self.compile_struct(decl, var, w, off)
        if isinstance(decl, EnumPlan):
            lens = {len(item.raw) for item in decl.items}
            if len(lens) != 1:
                raise _NotFixed("enum spellings of differing widths")
            width = lens.pop()
            self.auxid += 1
            map_name = f"_fpenum_{self.decl.name}_s{self.auxid}"
            entries = ", ".join(f"{item.raw!r}: E_{item.name}"
                                for item in decl.ordered)
            self.aux.append(f"{map_name} = {{{entries}}}")
            # A miss raises KeyError -> the outer except returns None,
            # exactly like a failed alternation in the regex flavour.
            w.w(f"{var} = {map_name}[_line[{off}:{off + width}]]")
            return off + width
        if isinstance(decl, TypedefPlan):
            off = self.compile_use(decl.base, var, w, off, scope)
            if decl.constraint is not None:
                cscope = {decl.var: var}
                with w.block(f"if dosem and not "
                             f"({self.cexpr(decl.constraint, cscope)}):"):
                    w.w("return None")
            return off
        if isinstance(decl, ArrayPlan):
            return self.compile_array(decl, var, w, off)
        raise _NotFixed(type(decl).__name__)

    def compile_array(self, decl: ArrayPlan, var: str, w: _W,
                      off: int) -> int:
        if (decl.last is not None or decl.ended is not None or decl.longest
                or decl.sep is not None or decl.term is not None):
            raise _NotFixed("array termination is data-dependent")
        count = decl.fixed_count
        if count is None or count <= 0:
            raise _NotFixed("array count not static")
        fixed = _static_fixed(decl.elt)
        if fixed is None:
            raise _NotFixed("array of variable-width elements")
        inst, width = fixed
        raw = self.temp()
        evar = self.temp()
        w.w(f"{var} = []")
        with w.block(f"for _ai in range({count}):"):
            w.w(f"{raw} = _line[{off} + _ai * {width}:"
                f"{off} + (_ai + 1) * {width}]")
            base_conv(inst, evar, raw, w, exc=_NotFixed)
            w.w(f"{var}.append({evar})")
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, ascope)}):"):
                w.w("return None")
        return off + count * width


class BatchPath:
    """Compiles a statically-sized record to a *batch kernel*: one
    function parsing a whole grid of ``_n`` records laid out at a
    constant ``_stride`` in a buffer, instead of one record at a time.

    All fixed columns of every record are split in a single C-level
    ``struct.Struct.iter_unpack`` call; literal columns are verified for
    the whole batch at once with strided-slice compares; only the
    per-record Python work that cannot be hoisted (value conversion for
    non-native columns, semantic constraints, rep construction) runs in
    the loop.  Natively-decodable binary ints/floats come out of the
    tuple ready to use — zero per-record conversion cost.

    Contract (mirrors the record fast path, per *record* rather than per
    call): slot ``i`` of the returned list is either the rep the general
    parser would produce with a clean pd, or ``None`` — the batch driver
    re-parses ``None`` slots individually with the cursor engine, so
    error accounting stays byte-identical to reference.
    """

    #: struct codes for natively unpackable two's-complement widths.
    _INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

    def __init__(self, plan: Plan, decl: StructPlan, prefix: str):
        self.plan = plan
        self.decl = decl
        self.prefix = prefix          # struct byte-order prefix, '<' or '>'
        self.tmpid = 0
        self.auxid = 0
        self.aux: List[str] = []
        self.fmt: List[str] = []      # struct format parts, layout order
        self.nslots = 0               # tuple arity so far
        self.lits: List[Tuple[int, bytes]] = []  # literal columns: (off, raw)
        self.votes = {"<": 0, ">": 0}  # byte-order preferences seen

    def temp(self) -> str:
        self.tmpid += 1
        return f"_f{self.tmpid}"

    def cexpr(self, expr: E.Expr, scope: Dict[str, str]) -> str:
        return self.plan.cexpr(expr, scope)

    def slot(self, code: str) -> str:
        """Allocate one unpacked column; returns its tuple reference."""
        self.fmt.append(code)
        ref = f"_t[{self.nslots}]"
        self.nslots += 1
        return ref

    def build(self) -> Tuple[str, List[str], str]:
        """(kernel name, module source lines, verdict reason); raises
        NotEligible."""
        decl = self.decl
        total = decl.width
        if total is None or total <= 0:
            raise NotEligible("record width is not static")
        w = _W(depth=0)               # re-indented under both loop bodies
        var = self.temp()
        end = self.compile_struct(decl, var, w, 0)
        if end != total:
            raise NotEligible("layout does not cover the record")
        fmt = self.prefix + "".join(self.fmt)
        import struct as _struct
        if _struct.calcsize(fmt) != total:      # paranoia
            raise NotEligible("column format does not cover the record")
        name = decl.name
        fn_name = f"_bt_{name}"
        body = ["            " + ln for ln in w.lines]
        tail = f"            _ap({var})"
        out: List[str] = []
        out.append("_BT_MISS = ValueError")
        out.append(f"_btfmt_{name} = {fmt!r}")
        out.append(f"_btst_{name} = {{}}")
        out.append(f"def {fn_name}(_mv, _n, _stride, dosem):")
        out.append(f'    """Batch kernel for {name}: columnar parse of _n '
                   f'{total}-byte records at _stride-byte pitch."""')
        out.append(f"    _st = _btst_{name}.get(_stride)")
        out.append("    if _st is None:")
        out.append(f"        _pad = _stride - {total}")
        out.append(f"        _st = _btst_{name}[_stride] = "
                   f"__import__('struct').Struct(_btfmt_{name}"
                   " + (str(_pad) + 'x' if _pad else ''))")
        if self.lits:
            out.append("    _bad = None")
            for off, raw in self.lits:
                for j, byte in enumerate(raw):
                    # One strided pass over the whole batch per literal
                    # byte column; the per-record membership set is built
                    # only on the (rare) mismatch path.
                    out.append(f"    _col = bytes(_mv[{off + j}::_stride])")
                    out.append(f"    if _col != {bytes([byte])!r} * _n:")
                    out.append("        if _bad is None:")
                    out.append("            _bad = set()")
                    out.append("        _bad.update(_j for _j in range(_n) "
                               f"if _col[_j] != {byte})")
        out.append("    _reps = []")
        out.append("    _ap = _reps.append")
        # _miss counts None slots so the driver's clean-window test costs
        # nothing (scanning the rep list for None would call each rep's
        # __eq__).  Bumped only on the failure paths.
        out.append("    _miss = 0")
        if self.lits:
            deep = ["    " + ln for ln in body]
            out.append("    if _bad is None:")
            out.append("        for _t in _st.iter_unpack(_mv):")
            out.append("            try:")
            out.extend(deep)
            out.append("    " + tail)
            out.append("            except Exception:")
            out.append("                _ap(None)")
            out.append("                _miss += 1")
            out.append("    else:")
            out.append("        _ui = _st.iter_unpack(_mv)")
            out.append("        for _j in range(_n):")
            out.append("            _t = next(_ui)")
            out.append("            if _j in _bad:")
            out.append("                _ap(None)")
            out.append("                _miss += 1")
            out.append("                continue")
            out.append("            try:")
            out.extend(deep)
            out.append("    " + tail)
            out.append("            except Exception:")
            out.append("                _ap(None)")
            out.append("                _miss += 1")
        else:
            out.append("    for _t in _st.iter_unpack(_mv):")
            out.append("        try:")
            out.extend(body)
            out.append(tail)
            out.append("        except Exception:")
            out.append("            _ap(None)")
            out.append("            _miss += 1")
        out.append("    return _reps, _miss")
        out.extend(self.aux)
        return fn_name, out, (f"columnar kernel over {total}-byte records"
                              f" ({self.nslots} unpacked columns)")

    # -- struct --------------------------------------------------------------

    def compile_struct(self, decl: StructPlan, var: str, w: _W,
                       off: int) -> int:
        scope: Dict[str, str] = {}
        field_vars: List[Tuple[str, str]] = []
        for item in decl.items:
            if isinstance(item, LitItem):
                lit = item.literal
                if lit.kind in ("char", "string"):
                    self.lits.append((off, lit.raw))
                    self.fmt.append(f"{len(lit.raw)}x")
                    off += len(lit.raw)
                elif lit.kind == "eor":
                    pass  # the grid pitch is the end-of-record anchor
                else:
                    raise NotEligible(f"literal kind {lit.kind}")
                continue
            if isinstance(item, ComputeItem):
                fvar = self.temp()
                w.w(f"{fvar} = {self.cexpr(item.expr, scope)}")
                scope[item.name] = fvar
                field_vars.append((item.name, fvar))
                if item.constraint is not None:
                    with w.block(f"if dosem and not "
                                 f"({self.cexpr(item.constraint, scope)}):"):
                        w.w("raise _BT_MISS")
                continue
            assert isinstance(item, DataItem)
            fvar = self.temp()
            off = self.compile_use(item.type, fvar, w, off, scope)
            scope[item.name] = fvar
            field_vars.append((item.name, fvar))
            if item.constraint is not None:
                with w.block(f"if dosem and not "
                             f"({self.cexpr(item.constraint, scope)}):"):
                    w.w("raise _BT_MISS")
        _build_rec(w, var, _rec_binding(self.aux, decl), field_vars)
        if decl.where is not None:
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, scope)}):"):
                w.w("raise _BT_MISS")
        return off

    # -- type uses -----------------------------------------------------------

    def compile_use(self, use: Use, var: str, w: _W, off: int,
                    scope: Dict[str, str]) -> int:
        if isinstance(use, BaseUse):
            inst = use.static
            if inst is None:
                raise NotEligible(f"dynamic parameters on {use.name}")
            if isinstance(inst, _misc.Empty):
                w.w(f"{var} = None")
                return off
            width = fixed_width_of(inst)
            if not width:
                raise NotEligible(f"variable-width {type(inst).__name__}")
            self.compile_base(inst, width, var, w)
            return off + width
        if isinstance(use, RefUse):
            decl = self.plan.decls[use.name]
            if decl.params or decl.is_record:
                raise NotEligible(f"nested {use.name}")
            return self.compile_decl_use(decl, var, w, off, scope)
        raise NotEligible(type(use).__name__)

    def compile_base(self, inst, width: int, var: str, w: _W) -> None:
        """One fixed-width base column: a native struct code when the
        byte order matches the kernel prefix (the value comes out of the
        unpacked tuple ready to use), a raw ``{w}s`` column plus the
        shared per-record conversion otherwise."""
        if isinstance(inst, _ints.BinaryInt):
            pref = "<" if inst.byteorder == "little" else ">"
            self.votes[pref] += 1
            code = self._INT_CODES.get(inst.nbytes)
            if code is not None and pref == self.prefix:
                if not inst.signed:
                    code = code.upper()
                w.w(f"{var} = {self.slot(code)}")
                return
        elif isinstance(inst, _ints.BinaryRaw):
            self.votes[">"] += 1
            code = self._INT_CODES.get(inst.nbytes)
            if code is not None and self.prefix == ">":
                w.w(f"{var} = {self.slot(code.upper())}")
                return
        elif isinstance(inst, _ints.BinaryFloat):
            self.votes[inst.fmt[0]] += 1
            if inst.fmt[0] == self.prefix:
                w.w(f"{var} = {self.slot(inst.fmt[1])}")
                return
        ref = self.slot(f"{width}s")
        sub = _W(w.depth)
        base_conv(inst, var, ref, sub, exc=NotEligible)
        w.lines.extend(_miss_on_failure(sub.lines))

    def compile_decl_use(self, decl, var: str, w: _W, off: int,
                         scope: Dict[str, str]) -> int:
        if isinstance(decl, StructPlan):
            return self.compile_struct(decl, var, w, off)
        if isinstance(decl, EnumPlan):
            lens = {len(item.raw) for item in decl.items}
            if len(lens) != 1:
                raise NotEligible("enum spellings of differing widths")
            width = lens.pop()
            self.auxid += 1
            map_name = f"_btenum_{self.decl.name}_s{self.auxid}"
            entries = ", ".join(f"{item.raw!r}: E_{item.name}"
                                for item in decl.ordered)
            self.aux.append(f"{map_name} = {{{entries}}}")
            # A miss raises KeyError -> the per-record except marks the
            # slot None, and the driver re-parses just that record.
            w.w(f"{var} = {map_name}[{self.slot(f'{width}s')}]")
            return off + width
        if isinstance(decl, TypedefPlan):
            off = self.compile_use(decl.base, var, w, off, scope)
            if decl.constraint is not None:
                cscope = {decl.var: var}
                with w.block(f"if dosem and not "
                             f"({self.cexpr(decl.constraint, cscope)}):"):
                    w.w("raise _BT_MISS")
            return off
        if isinstance(decl, ArrayPlan):
            return self.compile_array(decl, var, w, off)
        raise NotEligible(type(decl).__name__)

    def compile_array(self, decl: ArrayPlan, var: str, w: _W,
                      off: int) -> int:
        if (decl.last is not None or decl.ended is not None or decl.longest
                or decl.sep is not None or decl.term is not None):
            raise NotEligible("array termination is data-dependent")
        count = decl.fixed_count
        if count is None or count <= 0:
            raise NotEligible("array count not static")
        fixed = _static_fixed(decl.elt)
        if fixed is None:
            raise NotEligible("array of variable-width elements")
        inst, width = fixed
        # Each element is its own column; the elements unroll into a
        # list literal (native codes) or a short straight-line run.
        evars = []
        for _ in range(count):
            evar = self.temp()
            self.compile_base(inst, width, evar, w)
            evars.append(evar)
        w.w(f"{var} = [{', '.join(evars)}]")
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            with w.block(f"if dosem and not "
                         f"({self.cexpr(decl.where, ascope)}):"):
                w.w("raise _BT_MISS")
        return off + count * width


class WritePath:
    """Compiles one record plan to a *writer*, ``_fw_<name>(rep) ->
    bytes | None``: the record's content built as one ``str`` and encoded
    once (latin-1, which maps every code point below 256 to its byte).

    Contract (the write-side twin of the parse fast path): the writer
    returns exactly the bytes the general writer appends for the record's
    content, or ``None`` on any value the general writer would reject —
    a string holding its terminator, non-ASCII text in an ASCII field, an
    unknown union tag, an ``int()`` that fails — and the caller then runs
    the general writer, which raises the error.  The writer adds no check
    the general writer lacks.  Fields whose bytes are not their latin-1
    spelling (binary, EBCDIC, other encodings) go through their base
    type's own ``write``, decoded latin-1 so the one encode restores them.
    """

    def __init__(self, plan: Plan, decl: StructPlan):
        self.plan = plan
        self.decl = decl
        self.tmpid = 0
        self.aux: List[str] = []

    def temp(self) -> str:
        self.tmpid += 1
        return f"_w{self.tmpid}"

    def build(self) -> Tuple[str, List[str]]:
        """(writer name, module source lines); raises NotEligible."""
        w = _W(depth=2)  # inside def + try
        parts = self.struct_parts(self.decl.items, "rep", w)
        name = self.decl.name
        fn_name = f"_fw_{name}"
        out = [f"def {fn_name}(rep):",
               f'    """Compiled writer for {name}: one str, encoded once."""',
               "    try:"]
        content = self.concat(parts, w)
        out.extend(w.lines)
        out.append(f"        return {content}.encode('latin-1')")
        out.append("    except Exception:")
        out.append("        return None")
        out.extend(self.aux)
        return fn_name, out

    # -- parts: (kind, text) with kind "lit" (literal text), "str" (an
    # expression yielding a str) or "fmt" (one an f-string formats) -----

    def concat(self, parts: List[Tuple[str, str]], w: _W) -> str:
        """One str expression joining ``parts`` (an f-string unless it is
        a lone literal or str; expressions an f-string cannot hold are
        bound first)."""
        if not parts:
            return "''"
        if len(parts) == 1 and parts[0][0] != "fmt":
            kind, text = parts[0]
            return repr(text) if kind == "lit" else text
        template = ""
        for kind, text in parts:
            if kind == "lit":
                template += text.replace("{", "{{").replace("}", "}}")
                continue
            if not _FSTRING_SAFE.fullmatch(text):
                var = self.temp()
                w.w(f"{var} = {text}")
                text = var
            template += "{" + text + "}"
        return "f" + repr(template)

    def bind(self, val: str, w: _W) -> str:
        """``val`` as a name, so it is evaluated once."""
        if val.isidentifier():
            return val
        var = self.temp()
        w.w(f"{var} = {val}")
        return var

    def checked(self, expr: str, fails, w: _W) -> List[Tuple[str, str]]:
        """Bind ``expr``; the writer returns None when ``fails(name)``
        holds."""
        var = self.temp()
        w.w(f"{var} = {expr}")
        with w.block(f"if {fails(var)}:"):
            w.w("return None")
        return [("str", var)]

    # -- struct --------------------------------------------------------------

    def struct_parts(self, items, ref: str, w: _W) -> List[Tuple[str, str]]:
        parts: List[Tuple[str, str]] = []
        for item in items:
            if isinstance(item, LitItem):
                lit = item.literal
                if lit.kind in ("char", "string"):
                    parts.append(("lit", lit.raw.decode("latin-1")))
                elif lit.kind not in ("eor", "eof"):
                    raise NotEligible(f"cannot write a {lit.kind} literal")
                continue
            if isinstance(item, ComputeItem):
                continue  # computed fields have no physical form
            assert isinstance(item, DataItem)
            parts.extend(self.use_parts(item.type, f"{ref}.{item.name}", w))
        return parts

    # -- type uses -----------------------------------------------------------

    def use_parts(self, use: Use, val: str, w: _W) -> List[Tuple[str, str]]:
        if isinstance(use, OptUse):
            v = self.bind(val, w)
            out = self.temp()
            with w.block(f"if {v} is None:"):
                w.w(f"{out} = ''")
            with w.block("else:"):
                sub = self.use_parts(use.inner, v, w)
                w.w(f"{out} = {self.concat(sub, w)}")
            return [("str", out)]
        if isinstance(use, RefUse):
            decl = self.plan.decls[use.name]
            if decl.params or decl.is_record:
                raise NotEligible(f"nested {use.name}")
            return self.decl_parts(decl, val, w)
        if isinstance(use, BaseUse) and use.static is not None:
            return self.base_parts(use, val, w)
        raise NotEligible(f"cannot write {type(use).__name__}")

    def decl_parts(self, decl, val: str, w: _W) -> List[Tuple[str, str]]:
        if isinstance(decl, StructPlan):
            return self.struct_parts(decl.items, self.bind(val, w), w)
        if isinstance(decl, TypedefPlan):
            return self.use_parts(decl.base, val, w)
        if isinstance(decl, EnumPlan):
            map_name = f"_fwenum_{self.decl.name}_{decl.name}"
            entries = {item.name: self.plan.encode(item.physical)
                       .decode("latin-1") for item in decl.items}
            if not any(ln.startswith(map_name + " =") for ln in self.aux):
                self.aux.append(f"{map_name} = {entries!r}")
            return self.checked(f"{map_name}.get(str({val}))",
                                lambda v: f"{v} is None", w)
        if isinstance(decl, UnionPlan) and not isinstance(decl, SwitchPlan):
            v = self.bind(val, w)
            tag, out = self.temp(), self.temp()
            w.w(f"{tag} = {v}.tag")
            for i, br in enumerate(decl.branches):
                with w.block(f"{'elif' if i else 'if'} {tag} == {br.name!r}:"):
                    sub = self.use_parts(br.type, f"{v}.value", w)
                    w.w(f"{out} = {self.concat(sub, w)}")
            with w.block("else:"):
                w.w("return None")
            return [("str", out)]
        if isinstance(decl, ArrayPlan):
            sep = ""
            if decl.sep is not None:
                if decl.sep.kind in ("char", "string"):
                    sep = decl.sep.raw.decode("latin-1")
                elif decl.sep.kind not in ("eor", "eof"):
                    raise NotEligible(f"cannot write a {decl.sep.kind} "
                                      "separator")
            elts, elt, out = self.temp(), self.temp(), self.temp()
            w.w(f"{elts} = []")
            with w.block(f"for {elt} in {val}:"):
                sub = self.use_parts(decl.elt, elt, w)
                w.w(f"{elts}.append({self.concat(sub, w)})")
            w.w(f"{out} = {sep!r}.join({elts})")
            return [("str", out)]
        raise NotEligible(f"cannot write {type(decl).__name__}")

    def base_parts(self, use: BaseUse, val: str,
                   w: _W) -> List[Tuple[str, str]]:
        inst = use.static
        kind = type(inst)
        if kind in (_ints.AsciiInt, _net.PhoneNumber):
            # Formatting an exact int is str(); int() of any int is exact.
            return [("fmt", f"int({val})")]
        if kind in (_strs.AsciiChar, _strs.RestOfRecord):
            return [("str", f"str({val})")]
        if kind is _strs.TerminatedString and inst.encoding == "latin-1":
            return self.checked(f"str({val})",
                                lambda v: f"{inst.term_char!r} in {v}", w)
        if kind in (_net.ZipCode, _net.Ipv4, _net.Hostname):
            return self.checked(f"str({val})",
                                lambda v: f"not {v}.isascii()", w)
        if kind is _tmp.AsciiDate and inst.encoding == "latin-1":
            v = self.bind(val, w)
            return [("str", f"({v}.raw if isinstance({v}, DateVal) "
                            f"else str({v}))")]
        if kind is _ints.AsciiIntFW:
            n = inst.nchars
            v = self.temp()
            w.w(f"{v} = int({val})")
            return self.checked(
                f"'-' + str(-{v}).rjust({n - 1}, '0') if {v} < 0 "
                f"else str({v}).rjust({n}, '0')", lambda t: f"len({t}) > {n}", w)
        if kind is _ints.BinaryInt:
            return [("str", f"int({val}).to_bytes({inst.nbytes}, "
                            f"{inst.byteorder!r}, signed={inst.signed})"
                            ".decode('latin-1')")]
        # Any other base type: its own write, spelled as latin-1 text.
        const = self.temp()
        self.aux.append(f"_fwbt_{self.decl.name}{const} = _resolve("
                        f"{use.name!r}, {use.static_args!r}, AMBIENT)")
        return [("str", f"_fwbt_{self.decl.name}{const}.write({val})"
                        ".decode('latin-1')")]


#: Expressions an f-string replacement field can hold verbatim.
_FSTRING_SAFE = re.compile(r"[\w.(), ]+")


def _miss_on_failure(lines: List[str]) -> List[str]:
    """Rewrite :func:`base_conv`'s bail-out idiom (``return None``) to
    the batch kernels' per-record one (``raise _BT_MISS``), keeping one
    source of truth for conversion semantics."""
    return [ln.replace("return None", "raise _BT_MISS")
            if ln.strip() == "return None" else ln
            for ln in lines]


def compile_batch(plan: Plan, decl: StructPlan) -> Tuple[str, List[str], str]:
    """Compile the batch kernel for an unparameterised Precord struct
    plan whose width analysis proved the record fully static; raises
    :class:`NotEligible` (with the reason) otherwise.

    The kernel's struct byte-order prefix follows the majority of the
    record's binary columns, so e.g. an all-little-endian layout decodes
    natively while stray big-endian columns fall back to per-record
    ``int.from_bytes``.
    """
    first = BatchPath(plan, decl, "<")
    built = first.build()
    if first.votes[">"] > first.votes["<"]:
        built = BatchPath(plan, decl, ">").build()
    return built


def rec_names(decl: StructPlan) -> Tuple[str, ...]:
    """The field names of ``decl``'s rep, in order: its data and computed
    members (the key of its class, :func:`~repro.core.values.rec_class`)."""
    return tuple(item.name for item in decl.items
                 if isinstance(item, (DataItem, ComputeItem)))


def _rec_binding(aux: List[str], decl: StructPlan) -> str:
    """Module-level name of ``decl``'s rep class; its binding is added to
    ``aux`` once, so the class is looked up when the fragment is loaded,
    not per record."""
    name = f"_rc_{decl.name}"
    line = f"{name} = _rec_class({rec_names(decl)!r})"
    if line not in aux:
        aux.append(line)
    return name


def _build_rec(w: _W, var: str, cls: str,
               field_vars: List[Tuple[str, str]]) -> None:
    """Construct rep ``var`` of class ``cls``: allocate it and store each
    slot (cheaper than a call to the class's constructor)."""
    w.w(f"{var} = _onew({cls})")
    for name, value in field_vars:
        w.w(f"{var}.{name} = {value}")


_GROUP_REF = re.compile(r"_m\.group\('(g\d+)'\)")


def _index_groups(lines: List[str], groupindex: Dict[str, int]) -> List[str]:
    """Rewrite ``_m.group('gk')`` references to positional ``_gs[i]``
    tuple indexing — one C-level ``groups()`` call per record instead of a
    named lookup per field."""

    def repl(m: "re.Match") -> str:
        return f"_gs[{groupindex[m.group(1)] - 1}]"

    return [_GROUP_REF.sub(repl, line) for line in lines]


#: The opening of one of the compiler's own (named) capture groups; an
#: escaped literal never contains ``(?P<`` since ``re.escape`` escapes ``?``.
_GROUP_OPEN = re.compile(rb"\(\?P<g\d+>")
#: A presence test on an optional member's or a union branch's group.
_PRESENT = re.compile(r"_m\.group\('(g\d+)'\) is not None")


def _min_widths(pattern: bytes) -> Tuple[int, Dict[int, int]]:
    """``(minimum match width of pattern, {group number: minimum width of
    that group})``, from the regex parser's own width analysis."""
    widths: Dict[int, int] = {}

    def visit(node) -> None:
        if isinstance(node, _parser.SubPattern):
            for op, av in node.data:
                if op is _parser.SUBPATTERN and av[0] is not None:
                    widths[av[0]] = av[-1].getwidth()[0]
                visit(av)
        elif isinstance(node, (tuple, list)):
            for child in node:
                visit(child)

    tree = _parser.parse(pattern)
    visit(tree)
    return tree.getwidth()[0], widths


def _one_call(elt_full: bytes, groupindex: Dict[str, int],
              lines: List[str]) -> bool:
    """Whether a tail array of this element may take the one-call form.

    ``findall`` reports a group that did not take part as ``b""``, where
    a ``match`` reports None, and it yields an extra empty match at the
    end of the span when the element can match empty.  So the element
    must never match empty, and neither may any group the converter tests
    for presence (an optional member, a union branch)."""
    total, widths = _min_widths(elt_full)
    if total == 0:
        return False
    return all(widths[groupindex[name]] > 0
               for line in lines for name in _PRESENT.findall(line))


def _row_groups(lines: List[str], groupindex: Dict[str, int]) -> List[str]:
    """Rewrite an element converter's group references to one ``findall``
    row ``_eg``: a tuple, or the lone group's bytes when the element has
    one group.  A presence test becomes a truth test, which
    :func:`_one_call` made exact."""
    lone = len(groupindex) == 1

    def ref(m: "re.Match") -> str:
        return "_eg" if lone else f"_eg[{groupindex[m.group(1)] - 1}]"

    return [_GROUP_REF.sub(ref, _PRESENT.sub(ref, line)) for line in lines]


def _guard_literal(constraint: Optional[E.Expr], name: str):
    """Value of an equality-with-literal branch guard, else None."""
    if constraint is None or not isinstance(constraint, E.Binary) \
            or constraint.op != "==":
        return None
    for a, b in ((constraint.left, constraint.right),
                 (constraint.right, constraint.left)):
        if isinstance(a, E.Name) and a.ident == name and \
                isinstance(b, (E.StrLit, E.CharLit)):
            return b.value
    return None


def _string_kind(use: Use) -> Optional[str]:
    """'char'/'string' when the branch type's value is its own spelling."""
    if not isinstance(use, BaseUse) or use.static is None:
        return None
    inst = use.static
    if isinstance(inst, (_strs.AsciiChar, _strs.EbcdicChar)):
        return "char"
    if isinstance(inst, (_strs.TerminatedString, _strs.FixedString)):
        return "string"
    return None


def compile_write(plan: Plan, decl: StructPlan) -> Tuple[str, List[str]]:
    """Compile the record writer for a record the parse fast path
    covers; raises :class:`NotEligible` when a member has no writer."""
    return WritePath(plan, decl).build()


def compile_member(plan: Plan, decl: StructPlan, item: DataItem
                   ) -> Tuple[Optional[Tuple[str, List[str]]], Verdict]:
    """``(fragment, verdict)`` for the member fast function of data member
    ``item`` of struct ``decl``: ``fn(buf, pos, end, dosem) -> (rep,
    end_pos) | None``.  The fragment is ``(name, module source lines)``,
    or None when the member is outside the fast-path subset; the verdict
    says which, with the reason (``padsc plan`` prints it)."""
    try:
        fragment = FastPath(plan, decl, member=item.name).build_member(item)
    except NotEligible as exc:
        return None, Verdict(False, str(exc) or "not eligible")
    except re.error as exc:
        return None, Verdict(False, f"regex error: {exc}")
    return fragment, Verdict(True, "anchored regex over the member")


def compile_fast(plan: Plan, decl: StructPlan) -> Tuple[str, List[str], str]:
    """Compile the fast path for an unparameterised Precord struct plan.

    Tries fixed-width slicing first (when the size analysis proved the
    record static), falling back to the anchored-regex compiler; raises
    :class:`NotEligible` (with the reason) when neither applies.
    """
    if decl.width is not None:
        try:
            return SlicePath(plan, decl).build()
        except _NotFixed:
            pass
    return FastPath(plan, decl).build()
