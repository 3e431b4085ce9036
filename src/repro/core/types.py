"""Structured-type combinators: the semantic core of the PADS runtime.

Each class here implements one PADS type constructor with the semantics of
the paper's generated C code:

* ``parse`` returns ``(rep, pd)`` — never raises on data errors; all
  syntactic and semantic problems are recorded in the parse descriptor,
* masks control which constraints are checked and which parts of the
  representation are materialised,
* errors trigger *recovery*: structs resynchronise on their next literal,
  arrays on their separator/terminator, and both fall back to panicking to
  end-of-record,
* ``write`` regenerates the physical form (``write2io``),
* ``verify`` re-checks semantic constraints against an in-memory value
  (``entry_t_verify`` in the paper's Figure 7),
* ``generate`` produces random conforming data (the generator the paper
  lists as future work; we use it in place of AT&T's proprietary feeds),
* ``unset`` puts the defaults a mask's unset positions hold into a parsed
  rep: parsing ignores ``SET``, so constraints always see parsed values.

Every expression site (constraint, ``Pwhere``, selector, array bound,
type argument) is a function the binder compiled from the plan
(:meth:`repro.plan.runtime.Runtime.site`), called with a flat *scope*: a
dict of the declaration's parameters plus the fields parsed so far.  A
node never mutates the scope it is given.  These combinators and the
plan-compiled record and member fast functions
(:mod:`repro.plan.fastpath`) must agree; the differential tests
cross-check them against ``fastpath=False``.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import observe
from ..expr import ast as E
from .basetypes.base import BaseType
from .errors import ErrCode, Pd, Pstate
from .io import NewlineRecords, Source
from .limits import fastpath_applies, note_limit, record_guard
from .masks import Mask
from .values import EnumVal, UnionVal, rec_class

# How far ahead resynchronisation scans for a literal before giving up and
# panicking to end-of-record.
MAX_RESYNC_SCAN = 4096


#: The flat expression scope nodes pass down; see the module docstring.
Scope = Dict[str, object]
#: A compiled expression site: ``fn(scope)``.
Site = Callable[[Scope], object]


def _own(node: "PType", scope: Scope) -> Scope:
    """A fresh scope for ``node``'s own fields: its parameters when it
    has some (a parameterised type is always reached through an
    ``AppNode``, which passes exactly them), else empty."""
    return dict(scope) if node.params else {}


def _with(node: "PType", scope: Scope, name: str, value) -> Scope:
    """``node``'s own scope plus ``name`` bound to ``value``."""
    s = _own(node, scope)
    s[name] = value
    return s


def _enter(tracer: "observe.Tracer", step: str, node: "PType",
           src: Source) -> int:
    """Enter the trace position ``step`` (a field name, a branch
    ``<name>`` or an element ``[i]``) before ``node`` parses, so its
    children's events nest inside; return the record its enter and exit
    carry (for a record type outside a record, the one it opens)."""
    record = src.record_idx + (node.opens_record and not src.in_record)
    tracer.enter(step, node.name, src.pos, record)
    return record


def _traced(tracer: "observe.Tracer", step: str, node: "PType", src: Source,
            mask: Mask, scope: Scope):
    """``node.parse`` as the trace position ``step``."""
    start = src.pos
    record = _enter(tracer, step, node, src)
    value, pd = node.parse(src, mask, scope)
    tracer.exit(node.name, start, src.pos, record, *observe.outcome_of(pd))
    return value, pd


def _drain(loop):
    """Run the generator ``loop`` to its end; return what it returns."""
    try:
        while True:
            next(loop)
    except StopIteration as stop:
        return stop.value


def _depth_guarded(parse):
    """Wrap a compound node's ``parse`` with the ``max_depth`` budget.

    Without a depth limit this is one attribute test; with one, the level
    is entered through ``Source.push_depth`` and always released, however
    the parse returns.  A refused level yields the type's default rep with
    a NEST_LIMIT pd.
    """
    def guarded(self, src: Source, mask: Mask, scope: Scope):
        limits = src.limits
        if limits is None or limits.max_depth is None:
            return parse(self, src, mask, scope)
        pd = Pd()
        if not src.push_depth(pd):
            return self.default(scope), pd
        try:
            return parse(self, src, mask, scope)
        finally:
            src.pop_depth()
    return guarded


class PType:
    """Base class for runtime type nodes."""

    name: str = "<anonymous>"
    kind: str = "type"
    #: The plan-IR node this runtime node was bound from (set by
    #: :mod:`repro.core.binding`); tools read analyzed facts through it.
    plan: Optional[object] = None
    #: The declaration's parameter names (set by the binder).
    params: Tuple[str, ...] = ()
    #: Whether parsing this type outside a record opens one (``Precord``).
    opens_record: bool = False

    def parse(self, src: Source, mask: Mask, scope: Scope) -> Tuple[object, Pd]:
        raise NotImplementedError

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        raise NotImplementedError

    def default(self, scope: Scope):
        return None

    def verify(self, rep, scope: Scope) -> bool:
        """Re-check semantic constraints on an in-memory value."""
        return True

    def generate(self, rng: random.Random, scope: Scope):
        raise NotImplementedError(f"{self.name} cannot generate data")

    def unset(self, rep, mask: Mask, scope: Scope):
        """``rep`` with the default at every base position ``mask``
        leaves unset (``SET`` decides only what the rep holds)."""
        return rep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


# ---------------------------------------------------------------------------
# Base-type wrapper
# ---------------------------------------------------------------------------

class BaseNode(PType):
    """A use of a base type, with (possibly value-dependent) parameters.

    ``Pstring_FW(:hdr.len:)`` must re-resolve its width for every parse, so
    when any argument is non-constant the factory is re-applied per parse
    to the arguments ``args(scope)`` evaluates (a site the binder sets).
    """

    kind = "base"
    args: Optional[Site] = None

    def __init__(self, name: str, static: Optional[BaseType] = None,
                 resolver: Optional[Callable[[tuple], BaseType]] = None):
        self.name = name
        self._static = static
        self._resolver = resolver

    def instance(self, scope: Scope) -> BaseType:
        if self._static is not None:
            return self._static
        return self._resolver(self.args(scope))

    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        try:
            base = self.instance(scope)
        except Exception:
            # Data-dependent parameters can be garbage on malformed input
            # (e.g. a zero-width Pstring_FW(:n:)); report, don't crash.
            pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here(),
                            panic=True)
            return None, pd
        start = src.pos
        value, code = base.parse(src, mask.do_sem)
        if code != ErrCode.NO_ERR:
            pd.record_error(code, src.loc_from(start))
        return value, pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        out.append(self.instance(scope).write(rep))

    def default(self, scope: Scope):
        try:
            return self.instance(scope).default()
        except Exception:
            return None

    def generate(self, rng: random.Random, scope: Scope):
        return self.instance(scope).generate(rng)

    def unset(self, rep, mask: Mask, scope: Scope):
        return rep if mask.bits & 1 else self.default(scope)


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

class LiteralNode(PType):
    """A physical literal: char, string, regex, or the EOR/EOF markers."""

    kind = "literal"

    def __init__(self, lit_kind: str, value=None, encoding: str = "latin-1"):
        self.lit_kind = lit_kind  # 'char' | 'string' | 'regex' | 'eor' | 'eof'
        self.value = value
        self.encoding = encoding
        self.raw: bytes = b""
        self.regex = None
        if lit_kind in ("char", "string"):
            self.raw = value.encode(encoding)
            self.name = repr(value)
        elif lit_kind == "regex":
            self.regex = re.compile(value.encode(encoding))
            self.name = f"Pre /{value}/"
        else:
            self.name = "Peor" if lit_kind == "eor" else "Peof"

    def matches_at(self, src: Source) -> int:
        """Length consumed if the literal matches at the cursor, else -1."""
        if self.lit_kind in ("char", "string"):
            return len(self.raw) if src.peek(len(self.raw)) == self.raw else -1
        if self.lit_kind == "regex":
            m = self.regex.match(src.scope_bytes())
            return m.end() if m else -1
        if self.lit_kind == "eor":
            return 0 if src.at_end() else -1
        if self.lit_kind == "eof":
            return 0 if src.at_eof() else -1
        return -1

    def scan_from(self, src: Source, max_scan: Optional[int] = None) -> int:
        """Offset delta to the literal's next occurrence in scope, else -1.

        The default window is :data:`MAX_RESYNC_SCAN` clamped by the
        source's ``max_scan`` limit when one is set.
        """
        if max_scan is None:
            max_scan = src.scan_cap(MAX_RESYNC_SCAN)
        if self.lit_kind in ("char", "string"):
            abs_at = src.scan_for(self.raw, max_scan)
            return -1 if abs_at < 0 else abs_at - src.pos
        if self.lit_kind == "regex":
            m = self.regex.search(src.scope_bytes()[:max_scan])
            return m.start() if m else -1
        return -1

    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        start = src.pos
        n = self.matches_at(src)
        if n < 0:
            pd.record_error(ErrCode.MISSING_LITERAL, src.loc_from(start))
            return None, pd
        src.skip(n)
        return None, pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        if self.lit_kind in ("char", "string"):
            out.append(self.raw)
        elif self.lit_kind == "regex":
            # A canonical instance of the pattern is not recoverable; regex
            # literals are read-only and excluded from write round-trips.
            raise ValueError("cannot write a regex literal")

    def generate(self, rng: random.Random, scope: Scope):
        return None


# ---------------------------------------------------------------------------
# Pstruct
# ---------------------------------------------------------------------------

class StructField:
    """One member of a struct: literal, data field, or computed field.
    ``constraint`` (a check site) and ``expr`` (a computed field's value
    site) are set by the binder."""

    __slots__ = ("kind", "name", "node", "constraint", "expr")

    def __init__(self, kind: str, name: Optional[str] = None,
                 node: Optional[PType] = None,
                 constraint: Optional[Site] = None,
                 expr: Optional[Site] = None):
        self.kind = kind  # 'literal' | 'data' | 'compute'
        self.name = name
        self.node = node
        self.constraint = constraint
        self.expr = expr


class StructNode(PType):
    """``Pstruct`` — a fixed sequence of fields and literals.

    Error recovery: when a member fails syntactically and leaves the cursor
    stuck, the parser scans forward (within the record) for the next
    literal member; if found it skips the garbage and continues in
    ``PARTIAL`` state, otherwise it panics to end-of-record and the
    remaining fields receive default values.
    """

    kind = "struct"

    #: Builds the member fast functions, one per entry of ``fields``
    #: (None where a member has none): ``fn(buf, pos, end, dosem) ->
    #: (rep, end_pos) | None``.  Set by the binder when fast paths are on
    #: and called on the first general parse that may use them; the
    #: result is kept in ``members``.
    compile_members: Optional[Callable[[], tuple]] = None
    members: Optional[tuple] = None

    def __init__(self, name: str, fields: Sequence[StructField],
                 where: Optional[Site] = None):
        self.name = name
        self.fields = list(fields)
        self.where = where
        #: Per field, its position in the rep (None for a literal), and
        #: the rep class those positions fill.
        self.slots: List[Optional[int]] = []
        names: List[str] = []
        for f in self.fields:
            self.slots.append(None if f.kind == "literal" else len(names))
            if f.kind != "literal":
                names.append(f.name)
        self.rec_class = rec_class(tuple(names))

    def _next_literal(self, idx: int) -> Optional[Tuple[int, LiteralNode]]:
        for j in range(idx + 1, len(self.fields)):
            f = self.fields[j]
            if f.kind == "literal" and f.node.lit_kind in ("char", "string", "regex"):
                return j, f.node
        return None

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        s = _own(self, scope)
        slots = self.slots
        values: List[object] = [None] * len(self.rec_class.__rec_fields__)
        panicked = False
        # Hoisted once per struct parse: the per-field tracing cost when
        # disabled is a single local ``is None`` test.
        tracer = observe.current_tracer()
        # Member fast functions stand in for clean members under the
        # record fast path's own conditions, inside an open (so wholly
        # buffered) record; a None result leaves the member to its
        # combinator, which stays the only error path.
        members = None
        if (self.compile_members is not None and src.in_record
                and fastpath_applies(mask, src.limits)):
            members = self.members
            if members is None:
                # Threads racing here each build an equivalent tuple.
                members = self.members = self.compile_members()
            dosem = (mask.bits & 4) != 0

        i = 0
        while i < len(self.fields):
            f = self.fields[i]
            if panicked:
                if f.kind == "data":
                    values[slots[i]] = f.node.default(s)
                    child = Pd()
                    child.pstate = Pstate.PANIC
                    pd.fields[f.name] = child
                elif f.kind == "compute":
                    values[slots[i]] = None
                i += 1
                continue

            if f.kind == "literal":
                start = src.pos
                n = f.node.matches_at(src)
                if n >= 0:
                    src.skip(n)
                else:
                    # Try to resynchronise on this same literal.
                    delta = f.node.scan_from(src)
                    if delta >= 0:
                        observe.count("resync.literal")
                        pd.record_error(ErrCode.MISSING_LITERAL, src.loc_from(start))
                        src.skip(delta)
                        src.skip(max(0, f.node.matches_at(src)))
                    else:
                        pd.record_error(ErrCode.MISSING_LITERAL,
                                        src.loc_from(start), panic=True)
                        src.skip_to_eor()
                        panicked = True
                i += 1
                continue

            if f.kind == "compute":
                try:
                    value = f.expr(s)
                except Exception:
                    value = None
                    pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here())
                values[slots[i]] = s[f.name] = value
                if f.constraint is not None and mask.do_sem \
                        and value is not None and not f.constraint(s):
                    pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION,
                                    src.here())
                i += 1
                continue

            # Data field.
            fmask = mask.for_field(f.name)
            start = src.pos
            hit = None
            if members is not None and members[i] is not None:
                hit = src.match_member(members[i], dosem)
            if hit is not None:
                value, child = hit[0], Pd()
            else:
                if tracer is not None:  # its span holds the constraint
                    record = _enter(tracer, f.name, f.node, src)
                value, child = f.node.parse(src, fmask, s)
            stuck = child.nerr > 0 and child.err_code.is_syntactic() and src.pos == start
            values[slots[i]] = s[f.name] = value
            if f.constraint is not None and fmask.do_sem and child.nerr == 0 \
                    and not f.constraint(s):
                child.record_error(ErrCode.USER_CONSTRAINT_VIOLATION,
                                   src.loc_from(start))
            if tracer is not None:
                tracer.exit(f.node.name, start, src.pos, record,
                            *observe.outcome_of(child))
            if child.nerr:
                # Clean children are omitted from the descriptor: one Pd per
                # *errored* position keeps descriptors cheap on clean data.
                pd.fields[f.name] = child
                pd.absorb(child)

            if stuck:
                # Resynchronise at the next literal member; data members
                # skipped over receive default values and PANIC-state pds.
                nxt = self._next_literal(i)
                if nxt is not None:
                    j, lit = nxt
                    delta = lit.scan_from(src)
                    if delta >= 0:
                        observe.count("resync.field_skip")
                        src.skip(delta)
                        src.skip(max(0, lit.matches_at(src)))
                        for k in range(i + 1, j):
                            skipped = self.fields[k]
                            if skipped.kind == "data":
                                values[slots[k]] = s[skipped.name] = \
                                    skipped.node.default(s)
                                sk_pd = Pd()
                                sk_pd.pstate = Pstate.PANIC
                                pd.fields[skipped.name] = sk_pd
                            elif skipped.kind == "compute":
                                values[slots[k]] = s[skipped.name] = None
                        i = j + 1
                        continue
                pd.pstate |= Pstate.PANIC
                src.skip_to_eor()
                panicked = True
            i += 1

        rep = self.rec_class(*values)
        if self.where is not None and mask.level_sem and pd.nerr == 0 \
                and not self.where(s):
            pd.record_error(ErrCode.WHERE_CLAUSE_VIOLATION, src.here())
        return rep, pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        s = _own(self, scope)
        for f in self.fields:
            if f.kind == "literal":
                f.node.write(None, out, s)
            elif f.kind == "compute":
                s[f.name] = getattr(rep, f.name, None)
            else:
                value = s[f.name] = getattr(rep, f.name)
                f.node.write(value, out, s)

    def default(self, scope: Scope):
        s = _own(self, scope)
        return self.rec_class(*[f.node.default(s) if f.kind == "data"
                                else None
                                for f in self.fields if f.kind != "literal"])

    def verify(self, rep, scope: Scope) -> bool:
        s = _own(self, scope)
        for f in self.fields:
            if f.kind == "literal":
                continue
            try:
                value = s[f.name] = getattr(rep, f.name)
            except AttributeError:
                return False
            if f.kind == "data" and not f.node.verify(value, s):
                return False
            if f.constraint is not None and not f.constraint(s):
                return False
        return self.where is None or self.where(s)

    def unset(self, rep, mask: Mask, scope: Scope):
        if rep is None:
            return rep
        s = _own(self, scope)
        for f in self.fields:
            if f.kind == "data":
                value = s[f.name] = getattr(rep, f.name)
                setattr(rep, f.name,
                        f.node.unset(value, mask.for_field(f.name), s))
            elif f.kind == "compute":
                s[f.name] = getattr(rep, f.name)
        return rep

    def generate(self, rng: random.Random, scope: Scope):
        # Rejection sampling over the whole struct.  The bound is generous
        # because derived-field constraints (Pbitfields ranges) can only be
        # satisfied by re-rolling the underlying data fields.
        last_error = None
        for _ in range(512):
            s = _own(self, scope)
            values: List[object] = []
            try:
                for f in self.fields:
                    if f.kind == "literal":
                        continue
                    if f.kind == "compute":
                        try:
                            value = f.expr(s)
                        except Exception:
                            value = None
                        values.append(value)
                        s[f.name] = value
                        if f.constraint is not None and not f.constraint(s):
                            # Derived value violates its constraint
                            # (e.g. a Pbitfields range): resample.
                            raise ValueError(
                                f"computed field {f.name} constraint")
                        continue
                    value = _generate_constrained(f.node, f.constraint,
                                                  f.name, rng, s)
                    values.append(value)
            except ValueError as exc:
                # A field constraint may be unsatisfiable for the earlier
                # fields drawn (e.g. chkVersion with meth == LINK); resample
                # the whole struct.
                last_error = exc
                continue
            if self.where is not None and not self.where(s):
                continue
            return self.rec_class(*values)
        raise ValueError(
            f"could not generate a {self.name} satisfying its constraints"
            + (f" ({last_error})" if last_error else ""))


def _generate_constrained(node: PType, constraint: Optional[Site],
                          name: str, rng: random.Random, scope: Scope,
                          attempts: int = 64):
    """Generate a value satisfying an optional field constraint, and
    bind it as ``scope[name]``.

    Uses a solve-by-retry loop, with fast paths for constraints (read
    from the site's AST) of the shape ``field == literal`` or integer
    bounds on the field.
    """
    if constraint is not None:
        lit = _equality_literal(constraint.expr, name)
        if lit is not None:
            scope[name] = lit
            return lit
        bounds = _int_bounds(constraint.expr, name)
        if bounds is not None:
            lo, hi = bounds
            nlo, nhi = _node_int_bounds(node, scope)
            lo = nlo if lo is None else (lo if nlo is None else max(lo, nlo))
            hi = nhi if hi is None else (hi if nhi is None else min(hi, nhi))
            lo = 0 if lo is None else lo
            hi = (1 << 32) - 1 if hi is None else hi
            if lo <= hi:
                for _ in range(attempts):
                    value = scope[name] = rng.randint(lo, hi)
                    if constraint(scope):
                        return value
    for _ in range(attempts):
        value = scope[name] = node.generate(rng, scope)
        if constraint is None or constraint(scope):
            return value
    raise ValueError(
        f"could not generate a value for {name!r} satisfying its constraint")


def _node_int_bounds(node: PType, scope: Scope):
    """The natural integer range of a node, when it has one."""
    if isinstance(node, TypedefNode):
        return _node_int_bounds(node.base, scope)
    if isinstance(node, BaseNode):
        try:
            inst = node.instance(scope)
        except Exception:
            return None, None
        if inst.kind == "int":
            return getattr(inst, "lo", None), getattr(inst, "hi", None)
    return None, None


def _int_bounds(constraint: E.Expr, name: str):
    """Extract integer bounds (lo, hi) implied by a conjunction of
    comparisons between ``name`` and integer literals; None when the
    constraint has some other shape."""
    if isinstance(constraint, E.Binary) and constraint.op == "&&":
        left = _int_bounds(constraint.left, name)
        right = _int_bounds(constraint.right, name)
        if left is None or right is None:
            return None
        lo = max((b for b in (left[0], right[0]) if b is not None), default=None)
        hi = min((b for b in (left[1], right[1]) if b is not None), default=None)
        return lo, hi
    if not isinstance(constraint, E.Binary) or constraint.op not in ("<", "<=", ">", ">=", "=="):
        return None
    a, b = constraint.left, constraint.right
    op = constraint.op
    if isinstance(b, E.Name) and b.ident == name and isinstance(a, E.IntLit):
        # k op x  ==  x (flip op) k
        a, b = b, a
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}[op]
    if not (isinstance(a, E.Name) and a.ident == name and isinstance(b, E.IntLit)):
        return None
    k = b.value
    if op == "==":
        return k, k
    if op == "<":
        return None, k - 1
    if op == "<=":
        return None, k
    if op == ">":
        return k + 1, None
    return k, None


def _equality_literal(constraint: E.Expr, name: str):
    if isinstance(constraint, E.Binary) and constraint.op == "==":
        for a, b in ((constraint.left, constraint.right),
                     (constraint.right, constraint.left)):
            if isinstance(a, E.Name) and a.ident == name and \
                    isinstance(b, (E.IntLit, E.StrLit, E.CharLit, E.FloatLit)):
                return b.value
    return None


# ---------------------------------------------------------------------------
# Punion
# ---------------------------------------------------------------------------

class UnionBranch:
    __slots__ = ("name", "node", "constraint")

    def __init__(self, name: str, node: PType, constraint: Optional[Site] = None):
        self.name = name
        self.node = node
        self.constraint = constraint


class UnionNode(PType):
    """``Punion`` — ordered alternatives; "the first branch that parses
    without error is taken" (paper Section 3).  The ``Pwhere`` clause
    (a check site the binder sets) sees the taken branch's value under
    its name; it is checked after the branch is chosen and does not
    steer the choice."""

    kind = "union"
    where: Optional[Site] = None

    def __init__(self, name: str, branches: Sequence[UnionBranch]):
        self.name = name
        self.branches = list(branches)

    def _guard(self, br: UnionBranch, value, scope: Scope) -> bool:
        """Whether ``value`` passes ``br``'s constraint, if any."""
        return br.constraint is None or br.constraint(
            _with(self, scope, br.name, value))

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        start_loc = src.here()
        tracer = observe.current_tracer()
        for br in self.branches:
            state = src.mark()
            bmask = mask.for_field(br.name)
            if tracer is None:
                value, child = br.node.parse(src, bmask, scope)
            else:
                trial = tracer.mark()
                value, child = _traced(tracer, f"<{br.name}>", br.node, src,
                                       bmask, scope)
            # A failing branch guard redirects to the next branch even
            # when semantic checking is masked off — the guard decides
            # *which* branch the data belongs to (paper: auth_id_t).
            if child.nerr == 0 and self._guard(br, value, scope):
                src.commit(state)
                if tracer is not None:
                    tracer.commit()
                pd.tag = br.name
                if self.where is not None and mask.level_sem \
                        and not self.where(_with(self, scope, br.name, value)):
                    pd.record_error(ErrCode.WHERE_CLAUSE_VIOLATION,
                                    src.here())
                return UnionVal(br.name, value), pd
            src.restore(state)
            if tracer is not None:
                tracer.rewind(trial)
        pd.record_error(ErrCode.UNION_MATCH_FAILURE, start_loc, panic=True)
        return UnionVal("<none>", None), pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        for br in self.branches:
            if br.name == rep.tag:
                br.node.write(rep.value, out, scope)
                return
        raise ValueError(f"unknown union branch {rep.tag!r} for {self.name}")

    def default(self, scope: Scope):
        br = self.branches[0]
        return UnionVal(br.name, br.node.default(scope))

    def verify(self, rep, scope: Scope) -> bool:
        for br in self.branches:
            if br.name == rep.tag:
                return (br.node.verify(rep.value, scope)
                        and self._guard(br, rep.value, scope)
                        and (self.where is None or self.where(
                            _with(self, scope, br.name, rep.value))))
        return False

    def unset(self, rep, mask: Mask, scope: Scope):
        for br in self.branches:
            if br.name == rep.tag:
                return UnionVal(rep.tag, br.node.unset(
                    rep.value, mask.for_field(br.name), scope))
        return rep

    def generate(self, rng: random.Random, scope: Scope):
        order = list(self.branches)
        rng.shuffle(order)
        last = None
        for br in order:
            for _ in range(16):
                try:
                    value = _generate_constrained(br.node, br.constraint,
                                                  br.name, rng, _own(self, scope))
                except (ValueError, NotImplementedError) as exc:
                    last = exc
                    break
                candidate = UnionVal(br.name, value)
                if self._unambiguous(candidate, scope):
                    return candidate
        if last is not None:
            raise ValueError(f"no generatable branch in union {self.name}: {last}")
        raise ValueError(
            f"could not generate an unambiguous value for union {self.name}")

    def _unambiguous(self, candidate: UnionVal, scope: Scope) -> bool:
        """Check that the candidate's physical form parses back to the same
        branch — an *earlier* branch may otherwise capture it (the paper's
        ordered-branch semantics), which would break write/parse round
        trips."""
        from .io import NoRecords, Source
        out: List[bytes] = []
        try:
            self.write(candidate, out, scope)
        except Exception:
            return True  # unserialisable here (e.g. regex literal): accept
        src = Source.from_bytes(b"".join(out), NoRecords())
        rep, pd = self.parse(src, Mask(), scope)
        return (pd.nerr == 0 and rep.tag == candidate.tag
                and rep.value == candidate.value and src.at_eof())


class SwitchCaseRT:
    __slots__ = ("name", "node", "constraint")

    def __init__(self, name: str, node: PType,
                 constraint: Optional[Site] = None):
        self.name = name
        self.node = node
        self.constraint = constraint


class SwitchUnionNode(PType):
    """Switched ``Punion``: a selector expression picks the branch
    (paper Section 3: "a switched union that uses a selection expression
    to determine the branch to parse")."""

    kind = "union"

    #: ``pick(scope)``: the index of the case the selector picks, or -1
    #: (a site the binder sets, see :meth:`repro.plan.ir.Plan.pick`).
    pick: Optional[Site] = None
    #: The ``Pwhere`` check, as on :class:`UnionNode`.
    where: Optional[Site] = None

    def __init__(self, name: str, cases: Sequence[SwitchCaseRT]):
        self.name = name
        self.cases = list(cases)

    def _pick(self, scope: Scope) -> Optional[SwitchCaseRT]:
        k = self.pick(scope)
        return None if k < 0 else self.cases[k]

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        case = self._pick(scope)
        if case is None:
            pd.record_error(ErrCode.SWITCH_NO_CASE, src.here(), panic=True)
            return UnionVal("<none>", None), pd
        tracer = observe.current_tracer()
        if tracer is None:
            value, child = case.node.parse(src, mask.for_field(case.name),
                                           scope)
        else:
            value, child = _traced(tracer, f"<{case.name}>", case.node, src,
                                   mask.for_field(case.name), scope)
        pd.branch = child
        pd.tag = case.name
        pd.absorb(child)
        if case.constraint is not None and mask.do_sem and child.nerr == 0 \
                and not case.constraint(_with(self, scope, case.name, value)):
            pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here())
        if self.where is not None and mask.level_sem and pd.nerr == 0 \
                and not self.where(_with(self, scope, case.name, value)):
            pd.record_error(ErrCode.WHERE_CLAUSE_VIOLATION, src.here())
        return UnionVal(case.name, value), pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        for case in self.cases:
            if case.name == rep.tag:
                case.node.write(rep.value, out, scope)
                return
        raise ValueError(f"unknown switch branch {rep.tag!r} for {self.name}")

    def default(self, scope: Scope):
        case = self.cases[0]
        return UnionVal(case.name, case.node.default(scope))

    def verify(self, rep, scope: Scope) -> bool:
        case = self._pick(scope)
        if case is None or case.name != rep.tag:
            return False
        own = _with(self, scope, case.name, rep.value)
        return (case.node.verify(rep.value, scope)
                and (case.constraint is None or case.constraint(own))
                and (self.where is None or self.where(own)))

    def unset(self, rep, mask: Mask, scope: Scope):
        for case in self.cases:
            if case.name == rep.tag:
                return UnionVal(rep.tag, case.node.unset(
                    rep.value, mask.for_field(case.name), scope))
        return rep

    def generate(self, rng: random.Random, scope: Scope):
        case = self._pick(scope)
        if case is None:
            raise ValueError(f"switch selector has no case for {self.name}")
        value = _generate_constrained(case.node, case.constraint, case.name,
                                      rng, _own(self, scope))
        return UnionVal(case.name, value)


# ---------------------------------------------------------------------------
# Popt
# ---------------------------------------------------------------------------

class OptNode(PType):
    """``Popt T`` — sugar for ``Punion { T x; Pempty none; }``.

    The value is the inner value or ``None``; parsing never errors
    (the void branch "always matches but never consumes any input").
    """

    kind = "opt"

    def __init__(self, inner: PType):
        self.inner = inner
        self.name = f"Popt {inner.name}"

    def parse(self, src: Source, mask: Mask, scope: Scope):
        tracer = observe.current_tracer()
        state = src.mark()
        trial = 0 if tracer is None else tracer.mark()
        value, child = self.inner.parse(src, mask, scope)
        if child.nerr == 0:
            src.commit(state)
            if tracer is not None:
                tracer.commit()
            pd = Pd()
            pd.tag = "some"
            return value, pd
        src.restore(state)
        if tracer is not None:
            tracer.rewind(trial)
        pd = Pd()
        pd.tag = "none"
        return None, pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        if rep is not None:
            self.inner.write(rep, out, scope)

    def default(self, scope: Scope):
        return None

    def verify(self, rep, scope: Scope) -> bool:
        if rep is None:
            return True
        return self.inner.verify(rep, scope)

    def unset(self, rep, mask: Mask, scope: Scope):
        return None if rep is None else self.inner.unset(rep, mask, scope)

    def generate(self, rng: random.Random, scope: Scope):
        if rng.random() < 0.25:
            return None
        return self.inner.generate(rng, scope)


# ---------------------------------------------------------------------------
# Parray
# ---------------------------------------------------------------------------

class ArrayNode(PType):
    """``Parray`` with the paper's "rich collection of array-termination
    conditions": maximum size, terminating literal (including end-of-record
    and end-of-source), or a user predicate over the already-parsed portion
    (``Plast`` / ``Pended``)."""

    kind = "array"

    def __init__(self, name: str, elt: PType, *,
                 sep: Optional[LiteralNode] = None,
                 term: Optional[LiteralNode] = None,
                 min_size: Optional[Site] = None,
                 max_size: Optional[Site] = None,
                 last: Optional[Site] = None,
                 ended: Optional[Site] = None,
                 longest: bool = False,
                 where: Optional[Site] = None):
        self.name = name
        self.elt = elt
        self.sep = sep
        self.term = term
        self.min_size = min_size
        self.max_size = max_size
        self.last = last
        self.ended = ended
        self.longest = longest
        self.where = where

    def _size_bounds(self, scope: Scope) -> Tuple[Optional[int], Optional[int]]:
        lo = hi = None
        if self.min_size is not None:
            lo = int(self.min_size(scope))
        if self.max_size is not None:
            hi = int(self.max_size(scope))
        return lo, hi

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        elts: List[object] = []
        s = _with(self, scope, "elts", elts)
        lo = _drain(self._elements(src, mask.for_elements(), s, pd))
        if lo is not None and len(elts) < lo and mask.do_syn:
            pd.record_error(ErrCode.ARRAY_SIZE_ERR, src.here())
        if self.where is not None and mask.level_sem and pd.nerr == 0:
            s["length"] = len(elts)
            if not self.where(s):
                pd.record_error(ErrCode.WHERE_CLAUSE_VIOLATION, src.here())
        return elts, pd

    def parse_elements(self, src: Source, mask: Mask, scope: Scope):
        """Element-at-a-time entry point (paper Section 4, for very large
        sources): :meth:`parse`'s element loop, each rep with the mask's
        unset positions defaulted; minimum size and ``Pwhere`` are whole
        array checks and stay with :meth:`parse`."""
        emask = mask.for_elements()
        s = _with(self, scope, "elts", [])
        for value, child in self._elements(src, emask, s, Pd()):
            yield self.elt.unset(value, emask, s), child

    def _elements(self, src: Source, emask: Mask, s: Scope, pd: Pd):
        """The element loop: parses elements into ``s["elts"]``, their
        pds into the array's ``pd``, and yields each ``(rep, pd)``.  A
        refused element (unevaluable size bounds, ``max_array_elems``)
        is yielded as the type's default with the refusal pd, and the
        loop stops.  Returns the minimum size, for :meth:`parse`."""
        elts = s["elts"]
        try:
            lo, hi = self._size_bounds(s)
        except Exception:
            pd.record_error(ErrCode.ARRAY_SIZE_ERR, src.here(), panic=True)
            yield self.elt.default(s), pd
            return None
        alim = src.limits.max_array_elems if src.limits is not None else None
        tracer = observe.current_tracer()

        def holds(pred: Site) -> bool:
            s["length"] = len(elts)
            return pred(s)

        first = True
        while True:
            if alim is not None and len(elts) >= alim:
                refused = Pd()
                note_limit(refused, ErrCode.ARRAY_LIMIT, src.here())
                # The array's pd as note_limit leaves one, counted once.
                pd.record_error(ErrCode.ARRAY_LIMIT, refused.loc, panic=True)
                pd.pstate |= Pstate.LIMIT
                yield self.elt.default(s), refused
                break
            if hi is not None and len(elts) >= hi:
                break
            if self.ended is not None and holds(self.ended):
                break
            if self.term is not None and self.term.matches_at(src) >= 0:
                # The terminator is left unconsumed (it belongs to the
                # enclosing type); Peor/Peof consume nothing anyway.
                break
            if src.at_end():
                break

            # Progress mark: an iteration in which neither the separator
            # nor the element consumes input ends the array.  A separated
            # array's first element may be empty; the next separator
            # must then consume.
            start = src.pos if not first or self.sep is None else None

            # Separator between elements.
            if not first and self.sep is not None:
                n = self.sep.matches_at(src)
                if n >= 0:
                    src.skip(n)
                else:
                    break

            before = src.pos
            trial = self.longest or (first and (lo is None or lo == 0))
            if trial:
                state = src.mark()
                mark = 0 if tracer is None else tracer.mark()
            if tracer is None:
                value, child = self.elt.parse(src, emask, s)
            else:
                value, child = _traced(tracer, f"[{len(elts)}]", self.elt,
                                       src, emask, s)
            if trial:
                if child.nerr > 0 and self.longest:
                    src.restore(state)
                    if tracer is not None:
                        tracer.rewind(mark)
                    break
                src.commit(state)
                if tracer is not None:
                    tracer.commit()

            if child.nerr > 0:
                pd.neerr += 1
                if pd.first_error < 0:
                    pd.first_error = len(elts)
                pd.absorb(child)
                if child.err_code.is_syntactic() and src.pos == before:
                    # Resynchronise: skip to next separator or terminator.
                    if not self._resync(src):
                        pd.pstate |= Pstate.PANIC
                        break
            pd.elts.append(child)
            elts.append(value)
            first = False
            yield value, child

            if self.last is not None and holds(self.last):
                break
            if src.pos == start:
                # Neither the separator nor the element consumed input:
                # another iteration would do the same.
                break
        return lo

    def _resync(self, src: Source) -> bool:
        """Skip junk up to the next separator/terminator.  False => panic."""
        candidates = []
        if self.sep is not None:
            d = self.sep.scan_from(src)
            if d >= 0:
                candidates.append(d)
        if self.term is not None and self.term.lit_kind in ("char", "string", "regex"):
            d = self.term.scan_from(src)
            if d >= 0:
                candidates.append(d)
        if candidates:
            observe.count("resync.array")
            src.skip(min(candidates))
            return True
        if src.in_record:
            src.skip_to_eor()
            return True
        return False

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        for i, value in enumerate(rep):
            if i and self.sep is not None:
                self.sep.write(None, out, scope)
            self.elt.write(value, out, scope)

    def default(self, scope: Scope):
        return []

    def verify(self, rep, scope: Scope) -> bool:
        s = _with(self, scope, "elts", rep)
        s["length"] = len(rep)
        try:
            lo, hi = self._size_bounds(s)
        except Exception:
            return False
        if lo is not None and len(rep) < lo:
            return False
        if hi is not None and len(rep) > hi:
            return False
        for value in rep:
            if not self.elt.verify(value, s):
                return False
        return self.where is None or self.where(s)

    def unset(self, rep, mask: Mask, scope: Scope):
        emask = mask.for_elements()
        s = _with(self, scope, "elts", rep)
        return [self.elt.unset(value, emask, s) for value in rep]

    def generate(self, rng: random.Random, scope: Scope, size: Optional[int] = None):
        s = _own(self, scope)
        try:
            lo, hi = self._size_bounds(s)
        except Exception:
            lo = hi = None
        lo_eff = lo if lo is not None else 0
        if size is None:
            hi_eff = hi if hi is not None else lo_eff + 8
            size = rng.randint(lo_eff, max(lo_eff, hi_eff))
        # Rejection sampling against the Pwhere clause; when a size is hard
        # to satisfy (e.g. a sortedness Pforall), retry with fewer elements
        # down to the minimum (workload generators that need long
        # constrained arrays construct them directly — see tools.datagen).
        trial_size = size
        while True:
            for _ in range(32):
                elts = [self.elt.generate(rng, s) for _ in range(trial_size)]
                if self.where is None:
                    return elts
                s["elts"], s["length"] = elts, len(elts)
                if self.where(s):
                    return elts
            if trial_size <= lo_eff:
                raise ValueError(
                    f"could not satisfy Pwhere while generating {self.name}")
            trial_size = max(lo_eff, trial_size - 1)


# ---------------------------------------------------------------------------
# Penum
# ---------------------------------------------------------------------------

class EnumNode(PType):
    """``Penum`` — "a fixed collection of literals" matched with the ambient
    coding; longest literal wins."""

    kind = "enum"

    def __init__(self, name: str, items: Sequence[Tuple[str, int, str]],
                 encoding: str = "latin-1"):
        # items: (name, code, physical spelling)
        self.name = name
        self.items = list(items)
        self.encoding = encoding
        self._by_name = {n: (n, c, p) for n, c, p in self.items}
        self._ordered = sorted(self.items, key=lambda it: -len(it[2]))

    def parse(self, src: Source, mask: Mask, scope: Scope):
        pd = Pd()
        for name, code, physical in self._ordered:
            raw = physical.encode(self.encoding)
            if src.peek(len(raw)) == raw:
                src.skip(len(raw))
                return EnumVal(name, code, physical), pd
        pd.record_error(ErrCode.INVALID_ENUM, src.here())
        return self.default(scope), pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        name = str(rep)
        if name not in self._by_name:
            raise ValueError(f"{name!r} is not a member of {self.name}")
        out.append(self._by_name[name][2].encode(self.encoding))

    def default(self, scope: Scope):
        name, code, physical = self.items[0]
        return EnumVal(name, code, physical)

    def verify(self, rep, scope: Scope) -> bool:
        return str(rep) in self._by_name

    def generate(self, rng: random.Random, scope: Scope):
        name, code, physical = rng.choice(self.items)
        return EnumVal(name, code, physical)


# ---------------------------------------------------------------------------
# Ptypedef
# ---------------------------------------------------------------------------

class TypedefNode(PType):
    """``Ptypedef`` — a new type constraining an existing one, e.g. the
    paper's ``response_t`` (100 <= x < 600)."""

    kind = "typedef"

    def __init__(self, name: str, base: PType, var: Optional[str],
                 constraint: Optional[Site] = None):
        self.name = name
        self.base = base
        self.var = var
        self.constraint = constraint
        self.opens_record = base.opens_record

    def parse(self, src: Source, mask: Mask, scope: Scope):
        start = src.pos
        value, pd = self.base.parse(src, mask, scope)
        if self.constraint is not None and mask.do_sem and pd.nerr == 0 \
                and not self.constraint(_with(self, scope, self.var, value)):
            pd.record_error(ErrCode.TYPEDEF_CONSTRAINT_VIOLATION,
                            src.loc_from(start))
        return value, pd

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        self.base.write(rep, out, scope)

    def default(self, scope: Scope):
        return self.base.default(scope)

    def verify(self, rep, scope: Scope) -> bool:
        return self.base.verify(rep, scope) and (
            self.constraint is None
            or self.constraint(_with(self, scope, self.var, rep)))

    def unset(self, rep, mask: Mask, scope: Scope):
        return self.base.unset(rep, mask, scope)

    def generate(self, rng: random.Random, scope: Scope):
        if self.constraint is not None:
            return _generate_constrained(self.base, self.constraint, self.var,
                                         rng, _own(self, scope))
        return self.base.generate(rng, scope)


# ---------------------------------------------------------------------------
# Precord / parameterised application
# ---------------------------------------------------------------------------

class RecordNode(PType):
    """``Precord`` wrapper: the inner type occupies exactly one record.

    Opening fails with ``AT_EOF`` at end of input.  Unconsumed bytes at
    end-of-record are a syntax error under ``P_SynCheck`` (undocumented
    trailing data is exactly the kind of thing accumulators surface).
    """

    kind = "record"

    #: Plan-compiled fast function (set by the binder when the plan's
    #: verdict is eligible): ``fn(record_bytes, do_sem) -> rep | None``.
    #: ``None`` means "not this fast way" — the general parser re-parses.
    fast_fn: Optional[Callable] = None
    #: Plan-compiled writer (``_fw_<name>``, set beside ``fast_fn``):
    #: ``fn(rep) -> content bytes | None``.  ``None`` means "not this
    #: fast way" — the general writer runs and raises any error.
    write_fn: Optional[Callable] = None
    #: The description's record discipline, framing written records
    #: (set by the compiled description).
    discipline = NewlineRecords()
    opens_record = True

    def __init__(self, inner: PType):
        self.inner = inner
        self.name = inner.name

    def parse(self, src: Source, mask: Mask, scope: Scope):
        if src.in_record:
            # Already inside a record (nested Precord): parse plainly.
            return self.inner.parse(src, mask, scope)
        if not src.begin_record():
            pd = Pd()
            pd.record_error(ErrCode.AT_EOF, src.here(), panic=True)
            return self.inner.default(scope), pd
        fast = self.fast_fn if fastpath_applies(mask, src.limits) else None
        return next(record_loop(src, (None,), mask, fast, self.inner, scope))

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        content = None if self.write_fn is None else self.write_fn(rep)
        out.append(self.discipline.frame(
            self.content(rep, scope) if content is None else content))

    def content(self, rep, scope: Scope) -> bytes:
        """The general writer's bytes for the record's content."""
        inner: List[bytes] = []
        self.inner.write(rep, inner, scope)
        return b"".join(inner)

    def default(self, scope: Scope):
        return self.inner.default(scope)

    def verify(self, rep, scope: Scope) -> bool:
        return self.inner.verify(rep, scope)

    def unset(self, rep, mask: Mask, scope: Scope):
        return self.inner.unset(rep, mask, scope)

    def generate(self, rng: random.Random, scope: Scope):
        return self.inner.generate(rng, scope)


def record_loop(src: Source, frames, mask: Mask, fast, body: PType,
                scope: Scope):
    """The record step, for each record ``frames`` opens: the
    record-at-a-time loop passes ``src.frames()`` or
    ``src.grid_frames(...)``, :meth:`RecordNode.parse` the one record it
    opened, ``(None,)``.  An item is the record's payload: its bytes, a
    rep the grid kernel parsed, or None (``src.record_bytes()``).
    ``fast`` is the record's fast function, None where it does not apply;
    ``body`` parses the value inside the record (``default`` on a limit
    refusal).  Yields ``(rep, pd)`` per record, once it is sealed."""
    dosem = (mask.bits & 4) != 0
    do_syn = mask.bits & 2
    limits = src.limits
    for payload in frames:
        if limits is not None:
            pd = Pd()
            if not record_guard(src, pd):
                src.note_errors(pd.nerr)
                yield body.default(scope), pd
                continue
        if fast is not None:
            rep = fast(src.record_bytes() if payload is None else payload,
                       dosem)
            if rep is not None:
                # Clean record: empty descriptor, identical to the general
                # parse (clean children are omitted from descriptors).
                src.end_record()
                yield rep, Pd()
                continue
        rep, pd = body.parse(src, mask, scope)
        if not src.at_eor() and do_syn and pd.nerr == 0:
            pd.record_error(ErrCode.EXTRA_DATA_AT_EOR, src.here())
        src.end_record()
        if limits is not None:
            src.note_errors(pd.nerr)
        yield rep, pd


class AppNode(PType):
    """Application of a parameterised declared type: ``foo(:x, y:)``.

    Arguments are evaluated in the *caller's* scope by ``args`` (a site
    the binder sets); the callee's body sees only its parameters plus
    globals (C-like scoping).
    """

    kind = "app"
    args: Optional[Site] = None

    def __init__(self, name: str, decl_node: PType, param_names: Sequence[str]):
        self.name = name
        self.decl_node = decl_node
        self.param_names = list(param_names)
        self.opens_record = decl_node.opens_record

    def _callee(self, scope: Scope) -> Scope:
        return dict(zip(self.param_names, self.args(scope)))

    def parse(self, src: Source, mask: Mask, scope: Scope):
        try:
            callee = self._callee(scope)
        except Exception:
            pd = Pd()
            pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here(), panic=True)
            return None, pd
        return self.decl_node.parse(src, mask, callee)

    def write(self, rep, out: List[bytes], scope: Scope) -> None:
        self.decl_node.write(rep, out, self._callee(scope))

    def default(self, scope: Scope):
        try:
            return self.decl_node.default(self._callee(scope))
        except Exception:
            return None

    def verify(self, rep, scope: Scope) -> bool:
        try:
            callee = self._callee(scope)
        except Exception:
            return False
        return self.decl_node.verify(rep, callee)

    def unset(self, rep, mask: Mask, scope: Scope):
        try:
            callee = self._callee(scope)
        except Exception:
            return rep
        return self.decl_node.unset(rep, mask, callee)

    def generate(self, rng: random.Random, scope: Scope):
        return self.decl_node.generate(rng, self._callee(scope))
