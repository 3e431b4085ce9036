"""Record-level fast paths compiled from the plan IR.

The paper's Section 9 proposes "partially evaluating the current PADS
library" to produce application-specific instances.  This module does
exactly that for the overwhelmingly common case — a uniform mask over a
``Precord`` type — with one of two compilers per record:

* **Batch kernel** (:class:`BatchPath`): when the size analysis proves
  the whole record static, the grammar compiles to a columnar kernel over
  a grid of records at a constant pitch — one ``struct`` unpack of the
  fixed columns, strided literal compares, and per-record conversions.
  This is the Cobol/binary layout case (the paper's ``Pb_`` and
  ``Pebc_``/``Pbcd_`` families).  The record loop's grid block step runs
  the kernel over a buffered block of records, and the record fast
  function is the same kernel over one record (:func:`compile_fast`).
* **Anchored regex** (:class:`FastPath`): otherwise the record grammar
  is compiled into a single anchored regular expression (Python 3.11
  atomic groups ``(?>...)`` emulate the parser's maximal-munch /
  ordered-choice commitments) plus a generated *converter* that builds
  the in-memory representation and evaluates semantic constraints.
  A delimited record gets the same walk's converter behind one
  ``bytes.split`` instead of the regex: the *split kernel*
  (:mod:`repro.plan.split`).  A tail array of a regex record is matched
  one element at a time, each element by its own anchored regex and
  converter.

Both compilers share one conservative contract: the fast function
either returns a rep the general parser would have produced **with a
clean parse descriptor**, or ``None`` — in which case the caller
re-parses the record with the general (error-reporting) parser.  Errors
therefore cost one extra parse, while clean records — the vast majority
in the paper's workloads — run at compiled speed.  The compiled
function is a plain source fragment over a small runtime namespace,
which :mod:`repro.plan.runtime` materialises for the bound description.
Every compiler here, and the record writer (:class:`WritePath`), emits
through the shared line writer (:mod:`repro.plan.lines`); the writer's
fail statement is how a fragment gives up, so the same conversion code
serves a fast function (``return None``), a batch kernel (``raise
_BT_MISS``) and a tail element's converter (``return (False, None)``).

The regex compiler also emits *member* fast functions
(:func:`compile_member`), one per data member of a struct, under the
same contract for one member matched inside the buffered record.  A
struct's compiled general parse, its struct function
(:mod:`repro.plan.structfn`), calls them before each member's
combinator, so an error record interprets only the members that fail.

The regex and split compilers' converter ends in one of two *sinks*.
The **rep sink** builds the rep (a record object per struct, a
``UnionVal`` per union) and returns it.  The **accumulator sink**
(:func:`compile_counter`) builds a sub-rep only where a constraint, a
``Pwhere`` or a ``Pcompute`` reads it (and for options and arrays, which
are counted from their reps); every other struct and union stays in the
converter's local values.  Its function leaves the ``try`` only once the
record is accepted, and the accumulator adder (:mod:`repro.tools.adder`)
appends the counting code over those locals: a rejected record is
re-parsed and walked, so it must not have counted anything.

Eligibility is decided here, once, and recorded on the plan node as a
:class:`~repro.plan.ir.Verdict` with a human-readable reason; anything
out of scope (switched unions, parameterised types, dynamic sizes,
mid-record arrays, regex terminators) simply keeps the general path.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

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
from .lines import Fresh, Lines

_HOST_GUARD = rb"(?![A-Za-z0-9.\-])"
_IP_OCTET = rb"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"


class NotEligible(Exception):
    """Raised when a construct is outside the fast-path subset; the
    message becomes the plan verdict's reason."""


def _check(w: Lines, plan: Plan, expr: E.Expr,
           scope: Dict[str, str]) -> None:
    """Emit, under ``dosem``, the check form of ``expr``
    (:meth:`Plan.check`) running the writer's fail statement when it is
    false."""
    with w.block("if dosem:"):
        w.extend(plan.check(expr, scope, w.fail_stmt))


def _cls(value: bytes) -> bytes:
    """Escape one byte for use inside a character class."""
    return re.escape(value)


def base_conv(inst, var: str, ref: str, w: Lines, temp: Fresh) -> None:
    """The one inline conversion of a fixed-width base type: its
    converter (:meth:`~repro.core.basetypes.base.BaseType.convert`) over
    the raw bytes in ``ref``, failing where the converter returns None,
    then its range check.  The regex fast path, fixed-count arrays and
    the batch kernel all convert through it."""
    if isinstance(inst, _ints.BinaryInt):
        w.w(f"{var} = int.from_bytes({ref}, {inst.byteorder!r}, "
            f"signed={inst.signed})")
    elif isinstance(inst, _ints.BinaryFloat):
        w.w(f"{var} = __import__('struct').unpack({inst.fmt!r}, {ref})[0]")
    elif isinstance(inst, _cobol.PackedDecimal):
        w.w(f"{var} = _fp_packed({ref}, {inst.digits}, {inst.decimals})")
        w.fail(f"{var} is None")
    elif isinstance(inst, _cobol.ZonedDecimal):
        w.w(f"{var} = _fp_zoned({ref}, {inst.decimals})")
        w.fail(f"{var} is None")
    elif isinstance(inst, (_strs.FixedString, _strs.AsciiChar)):
        # A decode error (a multi-byte encoding's) is the fragment's miss.
        w.w(f"{var} = {ref}.decode({inst.encoding!r})")
    elif isinstance(inst, _ints.AsciiIntFW):
        text = temp()
        w.w(f"{text} = {ref}.decode('ascii', 'replace').strip()")
        w.w(f"{var} = int({text}, 10)")
        if not inst.signed:
            w.fail(f"{var} < 0")
        w.fail(f"dosem and not ({inst.lo} <= {var} <= {inst.hi})")
    else:
        raise NotEligible(type(inst).__name__)


def _static_fixed(use: Use) -> Optional[Tuple[object, int]]:
    """(base instance, byte width) when ``use`` is a statically resolved
    fixed-width atomic base type of nonzero width; None otherwise."""
    if not isinstance(use, BaseUse) or use.static is None:
        return None
    width = use.static.static_width
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
      the buffered record, without copying it.  The struct function
      (:mod:`repro.plan.structfn`) runs it before a member's combinator.
    """

    def __init__(self, plan: Plan, decl: StructPlan,
                 member: Optional[str] = None, accum: bool = False):
        self.plan = plan
        self.decl = decl
        self.member = member
        #: The accumulator sink's unbuilt values (None: the rep sink): a
        #: struct's variable -> ``("struct", [(member, variable), ...])``
        #: over its data members; a union's variable, which holds the
        #: branch name -> ``("union", {branch: variable})``.
        self.parts: Optional[Dict[str, tuple]] = {} if accum else None
        #: Nesting depth of subtrees the accumulator sink builds as reps.
        self.reps = 0
        #: Namespaces every module-level name this compiler emits.
        self.tag = decl.name if member is None else f"{decl.name}__{member}"
        self.group = Fresh("g")
        self.temp = Fresh("_t")
        self.aux: List[str] = []  # extra module-level sources
        #: Which form each compiled tail array took, for the verdict.
        self.tail_forms: List[str] = []

    # -- small helpers -------------------------------------------------------

    def counting(self) -> bool:
        """Whether the value compiled now goes to the accumulator sink
        unbuilt."""
        return self.parts is not None and not self.reps

    def built(self, emit, *args):
        """``emit(*args)`` with the subtree built as a rep: a check reads
        it, or it is an option or array, which the adder counts from its
        rep.  Under the rep sink everything is built anyway."""
        self.reps += 1
        try:
            return emit(*args)
        finally:
            self.reps -= 1

    def sealed(self, body: List[str], result: str) -> List[str]:
        """Converter ``body`` in the ``try`` that turns any exception into
        a miss.  The rep sink returns ``result`` from inside it; the
        accumulator sink falls out of it once the record is accepted, to
        the counting code the adder appends."""
        end = [f"        return {result}"] if self.parts is None \
            else [] if body else ["        pass"]
        return ["    try:", *body, *end, "    except Exception:",
                "        return None"]

    def fragment(self, head: List[str], fn: List[str]) -> List[str]:
        """The module lines of function ``fn``, after ``head`` and before
        the auxiliary lines.  Under the accumulator sink, ``fn`` alone:
        ``head`` joins ``aux``, and the adder's template places ``fn``
        inside its binder."""
        if self.parts is None:
            return [*head, *fn, *self.aux]
        self.aux[:0] = head
        return fn

    def auxname(self, stem: str, g: str) -> str:
        # Namespaced by record type (and member) so two fast functions in
        # one namespace never collide on their auxiliary maps/regexes.
        return f"_{stem}_{self.tag}_{g}"

    # -- entry point ---------------------------------------------------------

    def build(self) -> Tuple[str, List[str], str]:
        """(fast function name, module source lines, verdict reason);
        raises NotEligible."""
        decl = self.decl
        w = Lines(depth=2)  # inside def + try
        var = self.result = self.temp()
        pattern = self.compile_struct_body(decl, var, w, is_tail=True)
        reason = "anchored regex over the record"
        if self.tail_forms:
            reason += f" ({'; '.join(self.tail_forms)})"
        return (*self.emit(pattern, var, w, decl.name), reason)

    def build_member(self, item: DataItem) -> Tuple[str, List[str]]:
        """(member fast function name, module source lines); raises
        NotEligible.  The member is never the record's tail: a Peor
        terminator is only compiled against the end of a whole record."""
        w = Lines(depth=2)
        var = self.temp()
        pattern = self.compile_use(item.type, var, w, {}, is_tail=False)
        return self.emit(pattern, var, w,
                         f"member {self.decl.name}.{item.name}")

    def emit(self, pattern: bytes, var: str, w: Lines,
             what: str) -> Tuple[str, List[str]]:
        """Wrap a converter body (``w``, leaving the value in ``var``)
        into the fast function of this compiler's flavour: the compiled
        regex, one ``groups()`` call, the converter, and ``except ->
        None``."""
        full = b"(?s:" + pattern + b")"
        compiled = re.compile(full)  # fail analysis, not import
        stem = self.stem()
        rx_name, fn_name = f"_{stem}rx_{self.tag}", f"_{stem}_{self.tag}"
        if self.member is None:
            args, call, result = "_line", "fullmatch(_line)", var
        else:
            args, call, result = ("_buf, _pos, _end", "match(_buf, _pos, _end)",
                                  f"({var}, _m.end())")
        return fn_name, self.fragment(
            [f"{rx_name} = __import__('re').compile({full!r})"], [
                f"def {fn_name}({args}, dosem):",
                f'    """Compiled fast path for {what}: one anchored regex '
                'plus conversion."""',
                f"    _m = {rx_name}.{call}",
                "    if _m is None:",
                "        return None",
                "    _gs = _m.groups()",
                *self.sealed(_index_groups(w.lines, compiled.groupindex),
                             result)])

    def stem(self) -> str:
        """The function name's stem: ``fp`` (record), ``fm`` (member) or
        ``fa`` (the accumulator sink's record function)."""
        if self.parts is not None:
            return "fa"
        return "fp" if self.member is None else "fm"

    # -- struct --------------------------------------------------------------

    def compile_struct_body(self, decl: StructPlan, var: str, w: Lines,
                            is_tail: bool) -> bytes:
        pattern = b""
        scope: Dict[str, str] = {}
        field_vars: List[Tuple[str, str]] = []
        counting = self.counting()
        read = _read_members(decl) if counting else set()
        data_vars: List[Tuple[str, str]] = []
        last_idx = len(decl.items) - 1
        for i, item in enumerate(decl.items):
            tail_here = is_tail and i == last_idx
            if isinstance(item, LitItem):
                pattern += self.literal(item.literal, tail_here)
                continue
            if isinstance(item, ComputeItem):
                fvar = self.temp()
                w.w(f"{fvar} = {self.plan.cexpr(item.expr, scope)}")
                scope[item.name] = fvar
                field_vars.append((item.name, fvar))
                if item.constraint is not None:
                    _check(w, self.plan, item.constraint, scope)
                continue
            assert isinstance(item, DataItem)
            fvar = self.temp()
            args = (item, fvar, w, scope, tail_here)
            pattern += self.built(self.member_use, *args) \
                if item.name in read else self.member_use(*args)
            scope[item.name] = fvar
            field_vars.append((item.name, fvar))
            data_vars.append((item.name, fvar))
            if item.constraint is not None:
                _check(w, self.plan, item.constraint, scope)
        if counting:
            self.parts[var] = ("struct", data_vars)
        else:
            _build_rec(w, var, _rec_binding(self.aux, decl), field_vars)
        if decl.where is not None:
            _check(w, self.plan, decl.where, scope)
        return pattern

    def literal(self, lit, is_tail: bool) -> bytes:
        """The pattern of a struct's literal member."""
        if lit.kind == "char" or lit.kind == "string":
            return re.escape(lit.raw)
        if lit.kind == "eor":
            # The end of the subject: the record's end under fullmatch,
            # the match's ``end`` bound for a member.
            return b"\\Z"
        raise NotEligible(f"literal kind {lit.kind}")

    def member_use(self, item: DataItem, var: str, w: Lines,
                   scope: Dict[str, str], is_tail: bool) -> bytes:
        """The pattern of a struct's data member (its converter goes to
        ``w``, leaving the value in ``var``)."""
        return self.compile_use(item.type, var, w, scope, is_tail)

    # -- type uses -----------------------------------------------------------

    def compile_use(self, use: Use, var: str, w: Lines,
                    scope: Dict[str, str], is_tail: bool) -> bytes:
        if isinstance(use, OptUse):
            return self.built(self.compile_opt, use, var, w, scope, is_tail)
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

    def compile_decl_use(self, decl, var: str, w: Lines,
                         scope: Dict[str, str], is_tail: bool) -> bytes:
        if isinstance(decl, StructPlan):
            return self.compile_struct_body(decl, var, w, is_tail)
        if isinstance(decl, SwitchPlan):
            raise NotEligible("switched union")
        if isinstance(decl, UnionPlan):
            return self.compile_union(decl, var, w, is_tail)
        if isinstance(decl, ArrayPlan):
            return self.built(self.compile_array, decl, var, w, is_tail)
        if isinstance(decl, EnumPlan):
            return self.compile_enum(decl, var, w)
        if isinstance(decl, TypedefPlan):
            return self.compile_typedef(decl, var, w, scope, is_tail)
        raise NotEligible(type(decl).__name__)

    # -- Popt / Punion -------------------------------------------------------

    def compile_opt(self, use: OptUse, var: str, w: Lines,
                    scope: Dict[str, str], is_tail: bool) -> bytes:
        g = self.group()
        inner = self.temp()
        with w.block(f"if _m.group({g!r}) is not None:"):
            pattern = self.compile_use(use.inner, inner, w, dict(scope), False)
            w.w(f"{var} = {inner}")
        with w.block("else:"):
            w.w(f"{var} = None")
        # Atomic: once the member matches it is present, as in the general
        # parser; a failure later in the record must not make it absent.
        return b"(?>(?P<" + g.encode() + b">" + pattern + b")?)"

    def compile_union(self, decl: UnionPlan, var: str, w: Lines,
                      is_tail: bool) -> bytes:
        alts: List[bytes] = []
        counting = self.counting()
        arms: Dict[str, str] = {}
        for i, br in enumerate(decl.branches):
            g = self.group()
            bvar = self.temp()
            with w.block(f"{'elif' if i else 'if'} _m.group({g!r}) "
                         "is not None:"):
                lit = _guard_literal(br.constraint, br.name)
                if isinstance(lit, str) and _string_kind(br.type) is not None:
                    # `branch == 'literal'` guard on a char/string branch:
                    # bake the literal into the pattern.
                    pattern = (b"(?>" + re.escape(self.plan.encode(lit))
                               + b")")
                    w.w(f"{bvar} = {lit!r}")
                else:
                    args = (br.type, bvar, w, {}, False)
                    # A branch a check reads is built.
                    pattern = self.built(self.compile_use, *args) \
                        if br.constraint is not None or decl.where is not None \
                        else self.compile_use(*args)
                    if br.constraint is not None:
                        # Branch guards steer *selection*; a guard failure
                        # means the general parser would pick a later
                        # branch, so the fast path must bail out.
                        w.extend(self.plan.check(br.constraint,
                                                 {br.name: bvar}, w.fail_stmt))
                if decl.where is not None:
                    # Checked after the choice, as the general parser does.
                    _check(w, self.plan, decl.where, {br.name: bvar})
                if counting:
                    w.w(f"{var} = {br.name!r}")
                    arms[br.name] = bvar
                else:
                    w.w(f"{var} = UnionVal({br.name!r}, {bvar})")
            alts.append(b"(?P<" + g.encode() + b">" + pattern + b")")
        with w.block("else:"):
            w.fail()
        if counting:
            self.parts[var] = ("union", arms)
        return b"(?>" + b"|".join(alts) + b")"

    # -- Parray --------------------------------------------------------------

    def compile_array(self, decl: ArrayPlan, var: str, w: Lines,
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
                    var: str, w: Lines) -> bytes:
        """One anchored ``match`` and one converter call per element.  The
        converter answers ``(ok, value)``, so it fails with ``(False,
        None)``."""
        g = self.group()
        evar = self.temp()
        sub = Lines(depth=2, fail="return (False, None)")  # def + try
        elt_full = (b"(?s:" + self.compile_use(decl.elt, evar, sub, {}, False)
                    + b")")
        groupindex = re.compile(elt_full).groupindex
        span_var = self.temp()
        w.w(f"{span_var} = _m.group({g!r})")
        w.w(f"{var} = []")
        self.tail_forms.append(f"tail array {decl.name}: per-element loop")
        conv_name = self.auxname("fpelt", g)
        rx_name = self.auxname("fperx", g)
        self.aux += [f"{rx_name} = __import__('re').compile({elt_full!r})",
                     f"def {conv_name}(_m, dosem):", "    _gs = _m.groups()",
                     "    try:", *_index_groups(sub.lines, groupindex),
                     f"        return (True, {evar})", "    except Exception:",
                     f"        {sub.fail_stmt}"]
        with w.block(f"if {span_var}:"):
            w.w("_apos = 0")
            w.w(f"_alen = len({span_var})")
            with w.block("while True:"):
                w.w(f"_aem = {rx_name}.match({span_var}, _apos)")
                w.fail("_aem is None or _aem.end() == _apos and _alen > _apos")
                w.w(f"_aok, _aval = {conv_name}(_aem, dosem)")
                w.fail("not _aok")
                w.w(f"{var}.append(_aval)")
                w.w("_apos = _aem.end()")
                with w.block("if _apos >= _alen:"):
                    w.w("break")
                if sep is not None:
                    w.fail(f"not {span_var}.startswith({sep!r}, _apos)")
                    w.w(f"_apos += {len(sep)}")
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            _check(w, self.plan, decl.where, ascope)
        # The span is everything to end-of-record.
        return b"(?P<" + g.encode() + b">.*)"

    def _fixed_array(self, decl: ArrayPlan, count: int, var: str,
                     w: Lines) -> bytes:
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
            base_conv(inst, evar, raw, w, self.temp)
            w.w(f"{var}.append({evar})")
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            _check(w, self.plan, decl.where, ascope)
        return (b"(?P<" + g.encode() + b">" +
                b".{%d}" % (width * count) + b")")

    # -- Penum / Ptypedef ----------------------------------------------------

    def compile_enum(self, decl: EnumPlan, var: str, w: Lines) -> bytes:
        ordered = decl.ordered
        g = self.group()
        map_name = self.auxname("fpenum", g)
        entries = ", ".join(f"{item.raw!r}: E_{item.name}"
                            for item in ordered)
        self.aux.append(f"{map_name} = {{{entries}}}")
        alternation = b"|".join(re.escape(item.raw) for item in ordered)
        w.w(f"{var} = {map_name}[_m.group({g!r})]")
        return b"(?P<" + g.encode() + b">(?>" + alternation + b"))"

    def compile_typedef(self, decl: TypedefPlan, var: str, w: Lines,
                        scope: Dict[str, str], is_tail: bool) -> bytes:
        args = (decl.base, var, w, scope, is_tail)
        pattern = self.compile_use(*args) if decl.constraint is None \
            else self.built(self.compile_use, *args)
        if decl.constraint is not None:
            cscope = {decl.var: var}
            _check(w, self.plan, decl.constraint, cscope)
        return pattern

    # -- regex-typed fields --------------------------------------------------

    def compile_regex_type(self, pattern: str, var: str, w: Lines) -> bytes:
        raw = pattern.encode(self.plan.encoding)
        if b"(" in raw.replace(b"(?:", b"").replace(b"\\(", b""):
            raise NotEligible("regex field with groups")
        if re.compile(raw).match(b""):
            raise NotEligible("regex field matching empty")
        g = self.group()
        w.w(f"{var} = _m.group({g!r}).decode({self.plan.encoding!r})")
        return b"(?P<" + g.encode() + b">(?>" + raw + b"))"

    # -- base types ----------------------------------------------------------

    def base_fragment(self, inst, var: str, w: Lines, capture: bool) -> bytes:
        g = self.group()
        ref = f"_m.group({g!r})"

        def grp(body: bytes) -> bytes:
            return b"(?P<" + g.encode() + b">" + body + b")"

        width = inst.static_width
        if width:
            # One byte of a char type matches ``.``, any other width
            # ``.{n}``.
            base_conv(inst, var, ref, w, self.temp)
            return grp(b"." if inst.kind == "char" else b".{%d}" % width)

        if isinstance(inst, _ints.AsciiInt):
            body = b"(?>[-+]?\\d+)" if inst.signed else b"(?>\\d+)"
            w.w(f"{var} = int({ref})")
            if inst.lo is not None:
                w.fail(f"dosem and not ({inst.lo} <= {var} <= {inst.hi})")
            return grp(body)

        if isinstance(inst, _ints.EbcdicInt):
            digits = b"[\\xf0-\\xf9]"
            sign = b"[\\x60\\x4e]?" if inst.signed else b""
            w.w(f"{var} = int({ref}.decode('cp037'))")
            w.fail(f"dosem and not ({inst.lo} <= {var} <= {inst.hi})")
            return grp(b"(?>" + sign + digits + b"+)")

        if isinstance(inst, _ints.AsciiFloat):
            body = b"(?>[-+]?(?:\\d+(?:\\.\\d+)?|\\.\\d+)(?:[eE][-+]?\\d+)?)"
            w.w(f"{var} = FloatVal(float({ref}), {ref}.decode('ascii'))")
            return grp(body)

        if isinstance(inst, _strs.TerminatedString):
            cls = b"[^" + _cls(inst.term) + b"]"
            w.w(f"{var} = {ref}.decode({inst.encoding!r})")
            return grp(b"(?>" + cls + b"*)")

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
            w.fail(f"{var} is None")
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
            w.fail(f"not any(_c.isalpha() for _c in {var}) or "
                   f"{var}.startswith('.') or {var}.endswith('.')")
            return grp(body)

        if isinstance(inst, _net.ZipCode):
            body = b"(?>\\d{5}(?:-\\d{4})?(?!\\d))"
            w.w(f"{var} = {ref}.decode('ascii')")
            return grp(body)

        if isinstance(inst, _net.PhoneNumber):
            w.w(f"{var} = int({ref})")
            w.fail(f"dosem and len({ref}) not in (1, 10)")
            return grp(b"(?>\\d+)")

        if isinstance(inst, _misc.Empty):
            w.w(f"{var} = None")
            return b""

        raise NotEligible(type(inst).__name__)


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
    parser would produce with a clean pd, or ``None`` — the record loop
    re-parses ``None`` slots individually with the general parser, so
    error accounting stays byte-identical to reference.
    """

    #: struct codes for natively unpackable two's-complement widths.
    _INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

    def __init__(self, plan: Plan, decl: StructPlan, prefix: str):
        self.plan = plan
        self.decl = decl
        self.prefix = prefix          # struct byte-order prefix, '<' or '>'
        self.temp = Fresh("_f")
        #: Names of the enum maps, one per enum column.
        self.enum_map = Fresh(f"_btenum_{decl.name}_s")
        self.aux: List[str] = []
        self.fmt: List[str] = []      # struct format parts, layout order
        self.nslots = 0               # tuple arity so far
        self.lits: List[Tuple[int, bytes]] = []  # literal columns: (off, raw)
        self.votes = {"<": 0, ">": 0}  # byte-order preferences seen

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
        if total is None:
            raise NotEligible("record width is not static")
        if total == 0:
            raise NotEligible("record has zero static width")
        w = Lines(fail="raise _BT_MISS")  # placed under both loop bodies
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
        out = Lines()
        out.w("_BT_MISS = ValueError")
        out.w(f"_btfmt_{name} = {fmt!r}")
        out.w(f"_btst_{name} = {{}}")
        with out.block(f"def {fn_name}(_mv, _n, _stride, dosem):"):
            out.w(f'"""Batch kernel for {name}: columnar parse of _n '
                  f'{total}-byte records at _stride-byte pitch."""')
            out.w(f"_st = _btst_{name}.get(_stride)")
            with out.block("if _st is None:"):
                out.w(f"_pad = _stride - {total}")
                out.w(f"_st = _btst_{name}[_stride] = __import__('struct')"
                      f".Struct(_btfmt_{name} + (str(_pad) + 'x' if _pad "
                      "else ''))")
            if self.lits:
                out.w("_bad = None")
            for off, raw in self.lits:
                for j, byte in enumerate(raw):
                    # One strided pass over the whole batch per literal
                    # byte column; the per-record membership set is built
                    # only on the (rare) mismatch path.
                    out.w(f"_col = bytes(_mv[{off + j}::_stride])")
                    with out.block(f"if _col != {bytes([byte])!r} * _n:"):
                        with out.block("if _bad is None:"):
                            out.w("_bad = set()")
                        out.w(f"_bad.update(_j for _j in range(_n) "
                              f"if _col[_j] != {byte})")
            out.w("_reps = []")
            out.w("_ap = _reps.append")
            # _miss counts None slots so the caller's clean-block test
            # costs nothing (scanning the rep list for None would call each
            # rep's __eq__).  Bumped only on the failure paths.
            out.w("_miss = 0")

            def miss() -> None:
                out.w("_ap(None)")
                out.w("_miss += 1")

            def record() -> None:
                with out.block("try:"):
                    out.extend(w.lines)
                    out.w(f"_ap({var})")
                with out.block("except Exception:"):
                    miss()

            if self.lits:
                with out.block("if _bad is None:"):
                    with out.block("for _t in _st.iter_unpack(_mv):"):
                        record()
                with out.block("else:"):
                    out.w("_ui = _st.iter_unpack(_mv)")
                    with out.block("for _j in range(_n):"):
                        out.w("_t = next(_ui)")
                        with out.block("if _j in _bad:"):
                            miss()
                            out.w("continue")
                        record()
            else:
                with out.block("for _t in _st.iter_unpack(_mv):"):
                    record()
            out.w("return _reps, _miss")
        out.lines += self.aux
        return fn_name, out.lines, (f"columnar kernel over {total}-byte records"
                                    f" ({self.nslots} unpacked columns)")

    # -- struct --------------------------------------------------------------

    def compile_struct(self, decl: StructPlan, var: str, w: Lines,
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
                w.w(f"{fvar} = {self.plan.cexpr(item.expr, scope)}")
                scope[item.name] = fvar
                field_vars.append((item.name, fvar))
                if item.constraint is not None:
                    _check(w, self.plan, item.constraint, scope)
                continue
            assert isinstance(item, DataItem)
            fvar = self.temp()
            off = self.compile_use(item.type, fvar, w, off, scope)
            scope[item.name] = fvar
            field_vars.append((item.name, fvar))
            if item.constraint is not None:
                _check(w, self.plan, item.constraint, scope)
        _build_rec(w, var, _rec_binding(self.aux, decl), field_vars)
        if decl.where is not None:
            _check(w, self.plan, decl.where, scope)
        return off

    # -- type uses -----------------------------------------------------------

    def compile_use(self, use: Use, var: str, w: Lines, off: int,
                    scope: Dict[str, str]) -> int:
        if isinstance(use, BaseUse):
            inst = use.static
            if inst is None:
                raise NotEligible(f"dynamic parameters on {use.name}")
            if isinstance(inst, _misc.Empty):
                w.w(f"{var} = None")
                return off
            width = inst.static_width
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

    def compile_base(self, inst, width: int, var: str, w: Lines) -> None:
        """One fixed-width base column: a native struct code when the
        byte order matches the kernel prefix (the value comes out of the
        unpacked tuple ready to use), a raw ``{w}s`` column plus the
        shared per-record conversion otherwise."""
        if isinstance(inst, _ints.BinaryInt):
            pref = "<" if inst.byteorder == "little" else ">"
            self.votes[pref] += 1
            code = self._INT_CODES.get(width)
            if code is not None and pref == self.prefix:
                if not inst.signed:
                    code = code.upper()
                w.w(f"{var} = {self.slot(code)}")
                return
        elif isinstance(inst, _ints.BinaryFloat):
            self.votes[inst.fmt[0]] += 1
            if inst.fmt[0] == self.prefix:
                w.w(f"{var} = {self.slot(inst.fmt[1])}")
                return
        base_conv(inst, var, self.slot(f"{width}s"), w, self.temp)

    def compile_decl_use(self, decl, var: str, w: Lines, off: int,
                         scope: Dict[str, str]) -> int:
        if isinstance(decl, StructPlan):
            return self.compile_struct(decl, var, w, off)
        if isinstance(decl, EnumPlan):
            lens = {len(item.raw) for item in decl.items}
            if len(lens) != 1:
                raise NotEligible("enum spellings of differing widths")
            width = lens.pop()
            map_name = self.enum_map()
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
                _check(w, self.plan, decl.constraint, cscope)
            return off
        if isinstance(decl, ArrayPlan):
            return self.compile_array(decl, var, w, off)
        raise NotEligible(type(decl).__name__)

    def compile_array(self, decl: ArrayPlan, var: str, w: Lines,
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
            _check(w, self.plan, decl.where, ascope)
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
        self.temp = Fresh("_w")
        self.aux: List[str] = []

    def build(self) -> Tuple[str, List[str]]:
        """(writer name, module source lines); raises NotEligible."""
        w = Lines(depth=2)  # inside def + try
        parts = self.struct_parts(self.decl.items, "rep", w)
        name = self.decl.name
        fn_name = f"_fw_{name}"
        content = self.concat(parts, w)
        return fn_name, [
            f"def {fn_name}(rep):",
            f'    """Compiled writer for {name}: one str, encoded once."""',
            "    try:", *w.lines,
            f"        return {content}.encode('latin-1')",
            "    except Exception:", "        return None", *self.aux]

    # -- parts: (kind, text) with kind "lit" (literal text), "str" (an
    # expression yielding a str) or "fmt" (one an f-string formats) -----

    def concat(self, parts: List[Tuple[str, str]], w: Lines) -> str:
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

    def bind(self, val: str, w: Lines) -> str:
        """``val`` as a name, so it is evaluated once."""
        if val.isidentifier():
            return val
        var = self.temp()
        w.w(f"{var} = {val}")
        return var

    def checked(self, expr: str, fails, w: Lines) -> List[Tuple[str, str]]:
        """Bind ``expr``; the writer returns None when ``fails(name)``
        holds."""
        var = self.temp()
        w.w(f"{var} = {expr}")
        w.fail(fails(var))
        return [("str", var)]

    # -- struct --------------------------------------------------------------

    def struct_parts(self, items, ref: str, w: Lines) -> List[Tuple[str, str]]:
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

    def use_parts(self, use: Use, val: str, w: Lines) -> List[Tuple[str, str]]:
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

    def decl_parts(self, decl, val: str, w: Lines) -> List[Tuple[str, str]]:
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
                w.fail()
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
                   w: Lines) -> List[Tuple[str, str]]:
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
            n = inst.static_width
            v = self.temp()
            w.w(f"{v} = int({val})")
            return self.checked(
                f"'-' + str(-{v}).rjust({n - 1}, '0') if {v} < 0 "
                f"else str({v}).rjust({n}, '0')", lambda t: f"len({t}) > {n}", w)
        if kind is _ints.BinaryInt:
            return [("str", f"int({val}).to_bytes({inst.static_width}, "
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


def _read_members(decl: StructPlan) -> set:
    """The names a check or ``Pcompute`` of ``decl`` reads: the members
    the accumulator sink must build."""
    exprs = [decl.where] + [
        e for item in decl.items if isinstance(item, (DataItem, ComputeItem))
        for e in (item.constraint, getattr(item, "expr", None))]
    return set().union(*(E.free_names(e) for e in exprs if e is not None))


def _rec_binding(aux: List[str], decl: StructPlan) -> str:
    """Module-level name of ``decl``'s rep class; its binding is added to
    ``aux`` once, so the class is looked up when the fragment is loaded,
    not per record."""
    name = f"_rc_{decl.name}"
    line = f"{name} = _rec_class({rec_names(decl)!r})"
    if line not in aux:
        aux.append(line)
    return name


def _build_rec(w: Lines, var: str, cls: str,
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


class Counter(NamedTuple):
    """The accumulator sink's record function (:func:`compile_counter`)."""

    name: str
    #: The function, ending after its converter's ``try`` block.
    lines: List[str]
    #: Module-level lines it uses (regexes, enum maps, rep classes).
    aux: List[str]
    #: The record's value, and the unbuilt values (:attr:`FastPath.parts`).
    var: str
    parts: Dict[str, tuple]


def compile_counter(plan: Plan, decl: StructPlan) -> Counter:
    """The accumulator sink's record function of ``decl``, from the
    compiler :func:`compile_fast` picks for a record without a batch
    kernel: the split kernel when it applies, else the anchored regex.
    Raises :class:`NotEligible` when neither does."""
    from .split import SplitPath, separator_of
    sep = separator_of(plan, decl)
    if sep is not None:
        try:
            return _counter(SplitPath(plan, decl, sep, accum=True))
        except (NotEligible, re.error):
            pass
    try:
        return _counter(FastPath(plan, decl, accum=True))
    except re.error as exc:
        raise NotEligible(f"regex error: {exc}") from None


def _counter(compiler: FastPath) -> Counter:
    name, lines, _reason = compiler.build()
    return Counter(name, lines, compiler.aux, compiler.result,
                   compiler.parts)


def compile_fast(plan: Plan, decl: StructPlan, kernel: Optional[str],
                 split: bool = True) -> Tuple[str, List[str], str]:
    """Compile the fast path for an unparameterised Precord struct plan.

    A record with a batch kernel (``kernel``, its name) runs that kernel
    over one record, after a length check.  Otherwise a delimited record
    gets the split kernel (:mod:`repro.plan.split`); any other record is
    compiled by the anchored-regex compiler, whose verdict then says why
    the split kernel declined, and which raises :class:`NotEligible`
    (with the reason) when the record is outside its subset.  ``split``
    False skips the split kernel (the differential tests compare the two
    forms with it).
    """
    if kernel is None:
        declined = None
        if split:
            from .split import compile_split
            try:
                return compile_split(plan, decl)
            except (NotEligible, re.error) as exc:
                declined = str(exc) or "not eligible"
        name, lines, reason = FastPath(plan, decl).build()
        if declined is not None:
            reason += f"; split kernel declined: {declined}"
        return name, lines, reason
    name, total = decl.name, decl.width
    return f"_fp_{name}", [
        f"def _fp_{name}(_line, dosem):",
        f'    """Compiled fast path for {name}: its batch kernel over one '
        f'{total}-byte record."""',
        f"    if len(_line) != {total}:",
        "        return None",
        f"    return {kernel}(_line, 1, {total}, dosem)[0][0]",
    ], f"batch kernel over one {total}-byte record"
