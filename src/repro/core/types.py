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
  lists as future work; we use it in place of AT&T's proprietary feeds).

The interpreted combinators and the code generator (:mod:`repro.codegen`)
must agree; a property test cross-checks them.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import observe
from ..expr import ast as E
from ..expr.eval import Env, EvalError, eval_expr
from .basetypes.base import BaseType
from .errors import ErrCode, Pd, Pstate
from .io import Source
from .limits import fastpath_applies, note_limit, record_guard
from .masks import Mask
from .values import EnumVal, UnionVal, rec_class

# How far ahead resynchronisation scans for a literal before giving up and
# panicking to end-of-record.
MAX_RESYNC_SCAN = 4096


def _depth_guarded(parse):
    """Wrap a compound node's ``parse`` with the ``max_depth`` budget.

    Without a depth limit this is one attribute test; with one, the level
    is entered through ``Source.push_depth`` and always released, however
    the parse returns.  A refused level yields the type's default rep with
    a NEST_LIMIT pd — the same shape the generated engine emits.
    """
    def guarded(self, src: Source, mask: Mask, env: Env):
        limits = src.limits
        if limits is None or limits.max_depth is None:
            return parse(self, src, mask, env)
        pd = Pd()
        if not src.push_depth(pd):
            return self.default(env), pd
        try:
            return parse(self, src, mask, env)
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

    def parse(self, src: Source, mask: Mask, env: Env) -> Tuple[object, Pd]:
        raise NotImplementedError

    def write(self, rep, out: List[bytes], env: Env) -> None:
        raise NotImplementedError

    def default(self, env: Env):
        return None

    def verify(self, rep, env: Env) -> bool:
        """Re-check semantic constraints on an in-memory value."""
        return True

    def generate(self, rng: random.Random, env: Env):
        raise NotImplementedError(f"{self.name} cannot generate data")

    def to_bytes(self, rep, env: Optional[Env] = None) -> bytes:
        out: List[bytes] = []
        self.write(rep, out, env or Env({}))
        return b"".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


def _eval_constraint(expr: E.Expr, env: Env) -> Tuple[bool, bool]:
    """Evaluate a constraint; returns (ok, evaluation_failed)."""
    try:
        return bool(eval_expr(expr, env)), False
    except EvalError:
        return False, True


# ---------------------------------------------------------------------------
# Base-type wrapper
# ---------------------------------------------------------------------------

class BaseNode(PType):
    """A use of a base type, with (possibly value-dependent) parameters.

    ``Pstring_FW(:hdr.len:)`` must re-resolve its width for every parse, so
    when any argument is non-constant the factory is re-applied per parse
    with arguments evaluated in the current environment.
    """

    kind = "base"

    def __init__(self, name: str, resolver: Callable[[tuple], BaseType],
                 arg_exprs: Sequence[E.Expr] = ()):
        self.name = name
        self._resolver = resolver
        self.arg_exprs = list(arg_exprs)
        self._static: Optional[BaseType] = None
        if all(isinstance(a, (E.IntLit, E.StrLit, E.CharLit, E.FloatLit, E.BoolLit))
               for a in self.arg_exprs):
            args = tuple(a.value for a in self.arg_exprs)
            self._static = resolver(args)

    def instance(self, env: Env) -> BaseType:
        if self._static is not None:
            return self._static
        args = tuple(eval_expr(a, env) for a in self.arg_exprs)
        return self._resolver(args)

    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        try:
            base = self.instance(env)
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
        if not mask.do_set and code == ErrCode.NO_ERR:
            value = base.default()
        return value, pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        out.append(self.instance(env).write(rep))

    def default(self, env: Env):
        try:
            return self.instance(env).default()
        except Exception:
            return None

    def generate(self, rng: random.Random, env: Env):
        return self.instance(env).generate(rng)


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

    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        start = src.pos
        n = self.matches_at(src)
        if n < 0:
            pd.record_error(ErrCode.MISSING_LITERAL, src.loc_from(start))
            return None, pd
        src.skip(n)
        return None, pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        if self.lit_kind in ("char", "string"):
            out.append(self.raw)
        elif self.lit_kind == "regex":
            # A canonical instance of the pattern is not recoverable; regex
            # literals are read-only and excluded from write round-trips.
            raise ValueError("cannot write a regex literal")

    def generate(self, rng: random.Random, env: Env):
        return None

    def generate_bytes(self, rng: random.Random) -> bytes:
        if self.lit_kind in ("char", "string"):
            return self.raw
        if self.lit_kind == "regex":
            from ..util.regexgen import sample_regex
            return sample_regex(self.value, rng).encode(self.encoding)
        return b""


# ---------------------------------------------------------------------------
# Pstruct
# ---------------------------------------------------------------------------

class StructField:
    """One member of a struct: literal, data field, or computed field."""

    __slots__ = ("kind", "name", "node", "constraint", "expr")

    def __init__(self, kind: str, name: Optional[str] = None,
                 node: Optional[PType] = None,
                 constraint: Optional[E.Expr] = None,
                 expr: Optional[E.Expr] = None):
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

    #: Fused literal runs from the plan's literal-prefix fusion pass:
    #: ``{start index: (end index, concatenated bytes)}`` over ``fields``.
    #: ``Source.match_bytes`` consumes only on success, so a fused miss
    #: falls back to the per-literal code (and its resync behavior) at an
    #: unchanged cursor.
    fused: Dict[int, Tuple[int, bytes]] = {}
    #: Builds the member fast functions, one per entry of ``fields``
    #: (None where a member has none): ``fn(buf, pos, end, dosem) ->
    #: (rep, end_pos) | None``.  Set by the binder when fast paths are on
    #: and called on the first general parse that may use them; the
    #: result is kept in ``members``.
    compile_members: Optional[Callable[[], tuple]] = None
    members: Optional[tuple] = None

    def __init__(self, name: str, fields: Sequence[StructField],
                 where: Optional[E.Expr] = None):
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

    def data_fields(self) -> List[StructField]:
        return [f for f in self.fields if f.kind == "data"]

    def _next_literal(self, idx: int) -> Optional[Tuple[int, LiteralNode]]:
        for j in range(idx + 1, len(self.fields)):
            f = self.fields[j]
            if f.kind == "literal" and f.node.lit_kind in ("char", "string", "regex"):
                return j, f.node
        return None

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        scope = env.child()
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
        if (self.compile_members is not None and tracer is None
                and src.in_record and fastpath_applies(mask, src.limits)):
            members = self.members
            if members is None:
                # Threads racing here each build an equivalent tuple.
                members = self.members = self.compile_members()
            dosem = (mask.bits & 4) != 0

        fused = self.fused

        i = 0
        while i < len(self.fields):
            if not panicked and i in fused:
                end, raw = fused[i]
                if src.match_bytes(raw):
                    i = end + 1
                    continue
            f = self.fields[i]
            if panicked:
                if f.kind == "data":
                    values[slots[i]] = f.node.default(scope)
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
                    values[slots[i]] = eval_expr(f.expr, scope)
                except EvalError:
                    values[slots[i]] = None
                    pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here())
                scope.vars[f.name] = values[slots[i]]
                if f.constraint is not None and mask.do_sem \
                        and values[slots[i]] is not None:
                    ok, failed = _eval_constraint(f.constraint, scope)
                    if not ok or failed:
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
            if tracer is not None:
                tracer.enter(f.name, getattr(f.node, "name", f.node.kind),
                             start, src.record_idx)
            if hit is None:
                value, child = f.node.parse(src, fmask, scope)
            else:
                value, child = hit[0], Pd()
            if tracer is not None:
                if child.nerr == 0:
                    outcome, code = "ok", ""
                elif child.pstate & Pstate.PANIC:
                    outcome, code = "panic", child.err_code.name
                else:
                    outcome, code = "err", child.err_code.name
                tracer.exit(getattr(f.node, "name", f.node.kind), start,
                            src.pos, src.record_idx, outcome, code)
            stuck = child.nerr > 0 and child.err_code.is_syntactic() and src.pos == start
            if f.constraint is not None and fmask.do_sem and child.nerr == 0:
                scope.vars[f.name] = value
                ok, failed = _eval_constraint(f.constraint, scope)
                if not ok or failed:
                    child.record_error(ErrCode.USER_CONSTRAINT_VIOLATION,
                                       src.loc_from(start))
            values[slots[i]] = value
            scope.vars[f.name] = value
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
                                values[slots[k]] = skipped.node.default(scope)
                                scope.vars[skipped.name] = values[slots[k]]
                                sk_pd = Pd()
                                sk_pd.pstate = Pstate.PANIC
                                pd.fields[skipped.name] = sk_pd
                            elif skipped.kind == "compute":
                                values[slots[k]] = None
                                scope.vars[skipped.name] = None
                        i = j + 1
                        continue
                pd.pstate |= Pstate.PANIC
                src.skip_to_eor()
                panicked = True
            i += 1

        rep = self.rec_class(*values)
        if self.where is not None and mask.level_sem and pd.nerr == 0:
            ok, failed = _eval_constraint(self.where, scope)
            if not ok or failed:
                pd.record_error(ErrCode.WHERE_CLAUSE_VIOLATION, src.here())
        return rep, pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        scope = env.child()
        for f in self.fields:
            if f.kind == "literal":
                f.node.write(None, out, scope)
            elif f.kind == "compute":
                scope.vars[f.name] = getattr(rep, f.name, None)
            else:
                value = getattr(rep, f.name)
                f.node.write(value, out, scope)
                scope.vars[f.name] = value

    def default(self, env: Env):
        return self.rec_class(*[f.node.default(env) if f.kind == "data"
                                else None
                                for f in self.fields if f.kind != "literal"])

    def verify(self, rep, env: Env) -> bool:
        scope = env.child()
        for f in self.fields:
            if f.kind == "literal":
                continue
            try:
                value = getattr(rep, f.name)
            except AttributeError:
                return False
            scope.vars[f.name] = value
            if f.kind == "data":
                if not f.node.verify(value, scope):
                    return False
            if f.constraint is not None:
                ok, failed = _eval_constraint(f.constraint, scope)
                if not ok or failed:
                    return False
        if self.where is not None:
            ok, failed = _eval_constraint(self.where, scope)
            if not ok or failed:
                return False
        return True

    def generate(self, rng: random.Random, env: Env):
        # Rejection sampling over the whole struct.  The bound is generous
        # because derived-field constraints (Pbitfields ranges) can only be
        # satisfied by re-rolling the underlying data fields.
        last_error = None
        for _ in range(512):
            scope = env.child()
            values: List[object] = []
            try:
                for f in self.fields:
                    if f.kind == "literal":
                        continue
                    if f.kind == "compute":
                        try:
                            value = eval_expr(f.expr, scope)
                        except EvalError:
                            value = None
                        values.append(value)
                        scope.vars[f.name] = value
                        if f.constraint is not None:
                            ok, failed = _eval_constraint(f.constraint, scope)
                            if not ok or failed:
                                # Derived value violates its constraint
                                # (e.g. a Pbitfields range): resample.
                                raise ValueError(
                                    f"computed field {f.name} constraint")
                        continue
                    value = _generate_constrained(f.node, f.constraint,
                                                  f.name, rng, scope)
                    values.append(value)
                    scope.vars[f.name] = value
            except ValueError as exc:
                # A field constraint may be unsatisfiable for the earlier
                # fields drawn (e.g. chkVersion with meth == LINK); resample
                # the whole struct.
                last_error = exc
                continue
            if self.where is not None:
                ok, failed = _eval_constraint(self.where, scope)
                if not ok or failed:
                    continue
            return self.rec_class(*values)
        raise ValueError(
            f"could not generate a {self.name} satisfying its constraints"
            + (f" ({last_error})" if last_error else ""))


def _generate_constrained(node: PType, constraint: Optional[E.Expr],
                          name: str, rng: random.Random, scope: Env,
                          attempts: int = 64):
    """Generate a value satisfying an optional field constraint.

    Uses a solve-by-retry loop, with a fast path for equality constraints
    of the shape ``field == literal``.
    """
    if constraint is not None:
        lit = _equality_literal(constraint, name)
        if lit is not None:
            return lit
        bounds = _int_bounds(constraint, name)
        if bounds is not None:
            lo, hi = bounds
            nlo, nhi = _node_int_bounds(node, scope)
            lo = nlo if lo is None else (lo if nlo is None else max(lo, nlo))
            hi = nhi if hi is None else (hi if nhi is None else min(hi, nhi))
            lo = 0 if lo is None else lo
            hi = (1 << 32) - 1 if hi is None else hi
            if lo <= hi:
                for _ in range(attempts):
                    value = rng.randint(lo, hi)
                    scope.vars[name] = value
                    ok, failed = _eval_constraint(constraint, scope)
                    if ok and not failed:
                        return value
    for _ in range(attempts):
        value = node.generate(rng, scope)
        if constraint is None:
            return value
        scope.vars[name] = value
        ok, failed = _eval_constraint(constraint, scope)
        if ok and not failed:
            return value
    raise ValueError(
        f"could not generate a value for {name!r} satisfying its constraint")


def _node_int_bounds(node: PType, env: Env):
    """The natural integer range of a node, when it has one."""
    if isinstance(node, TypedefNode):
        return _node_int_bounds(node.base, env)
    if isinstance(node, BaseNode):
        try:
            inst = node.instance(env)
        except EvalError:
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

    def __init__(self, name: str, node: PType, constraint: Optional[E.Expr] = None):
        self.name = name
        self.node = node
        self.constraint = constraint


class UnionNode(PType):
    """``Punion`` — ordered alternatives; "the first branch that parses
    without error is taken" (paper Section 3)."""

    kind = "union"

    def __init__(self, name: str, branches: Sequence[UnionBranch],
                 where: Optional[E.Expr] = None):
        self.name = name
        self.branches = list(branches)
        self.where = where

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        start_loc = src.here()
        for br in self.branches:
            state = src.mark()
            bmask = mask.for_field(br.name)
            value, child = br.node.parse(src, bmask, env)
            ok = child.nerr == 0
            if ok and br.constraint is not None:
                scope = env.child({br.name: value})
                cok, failed = _eval_constraint(br.constraint, scope)
                # A failing branch guard redirects to the next branch even
                # when semantic checking is masked off — the guard decides
                # *which* branch the data belongs to (paper: auth_id_t).
                ok = cok and not failed
            if ok:
                src.commit(state)
                pd.tag = br.name
                tracer = observe.current_tracer()
                if tracer is not None:
                    # The taken branch, emitted after the fact so rejected
                    # branches leave no trace (they consume no input).
                    tracer.enter(br.name, getattr(br.node, "name", br.node.kind),
                                 start_loc.offset, src.record_idx)
                    tracer.exit(getattr(br.node, "name", br.node.kind),
                                start_loc.offset, src.pos, src.record_idx,
                                "ok", "")
                return UnionVal(br.name, value), pd
            src.restore(state)
        pd.record_error(ErrCode.UNION_MATCH_FAILURE, start_loc, panic=True)
        return UnionVal("<none>", None), pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        for br in self.branches:
            if br.name == rep.tag:
                br.node.write(rep.value, out, env)
                return
        raise ValueError(f"unknown union branch {rep.tag!r} for {self.name}")

    def default(self, env: Env):
        br = self.branches[0]
        return UnionVal(br.name, br.node.default(env))

    def verify(self, rep, env: Env) -> bool:
        for br in self.branches:
            if br.name == rep.tag:
                if not br.node.verify(rep.value, env):
                    return False
                if br.constraint is not None:
                    scope = env.child({br.name: rep.value})
                    ok, failed = _eval_constraint(br.constraint, scope)
                    return ok and not failed
                return True
        return False

    def generate(self, rng: random.Random, env: Env):
        order = list(self.branches)
        rng.shuffle(order)
        last = None
        for br in order:
            for _ in range(16):
                try:
                    value = _generate_constrained(br.node, br.constraint,
                                                  br.name, rng, env.child())
                except (ValueError, NotImplementedError) as exc:
                    last = exc
                    break
                candidate = UnionVal(br.name, value)
                if self._unambiguous(candidate, env):
                    return candidate
        if last is not None:
            raise ValueError(f"no generatable branch in union {self.name}: {last}")
        raise ValueError(
            f"could not generate an unambiguous value for union {self.name}")

    def _unambiguous(self, candidate: UnionVal, env: Env) -> bool:
        """Check that the candidate's physical form parses back to the same
        branch — an *earlier* branch may otherwise capture it (the paper's
        ordered-branch semantics), which would break write/parse round
        trips."""
        from .io import NoRecords, Source
        out: List[bytes] = []
        try:
            self.write(candidate, out, env)
        except Exception:
            return True  # unserialisable here (e.g. regex literal): accept
        src = Source.from_bytes(b"".join(out), NoRecords())
        rep, pd = self.parse(src, Mask(), env)
        return (pd.nerr == 0 and rep.tag == candidate.tag
                and rep.value == candidate.value and src.at_eof())


class SwitchCaseRT:
    __slots__ = ("value_expr", "name", "node", "constraint")

    def __init__(self, value_expr: Optional[E.Expr], name: str, node: PType,
                 constraint: Optional[E.Expr] = None):
        self.value_expr = value_expr  # None = Pdefault
        self.name = name
        self.node = node
        self.constraint = constraint


class SwitchUnionNode(PType):
    """Switched ``Punion``: a selector expression picks the branch
    (paper Section 3: "a switched union that uses a selection expression
    to determine the branch to parse")."""

    kind = "union"

    def __init__(self, name: str, selector: E.Expr, cases: Sequence[SwitchCaseRT]):
        self.name = name
        self.selector = selector
        self.cases = list(cases)

    def _pick(self, env: Env) -> Optional[SwitchCaseRT]:
        try:
            sel = eval_expr(self.selector, env)
        except EvalError:
            return None
        default = None
        for case in self.cases:
            if case.value_expr is None:
                default = case
                continue
            try:
                if eval_expr(case.value_expr, env) == sel:
                    return case
            except EvalError:
                continue
        return default

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        case = self._pick(env)
        if case is None:
            pd.record_error(ErrCode.SWITCH_NO_CASE, src.here(), panic=True)
            return UnionVal("<none>", None), pd
        value, child = case.node.parse(src, mask.for_field(case.name), env)
        pd.branch = child
        pd.tag = case.name
        pd.absorb(child)
        if case.constraint is not None and mask.do_sem and child.nerr == 0:
            scope = env.child({case.name: value})
            ok, failed = _eval_constraint(case.constraint, scope)
            if not ok or failed:
                pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here())
        return UnionVal(case.name, value), pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        for case in self.cases:
            if case.name == rep.tag:
                case.node.write(rep.value, out, env)
                return
        raise ValueError(f"unknown switch branch {rep.tag!r} for {self.name}")

    def default(self, env: Env):
        case = self.cases[0]
        return UnionVal(case.name, case.node.default(env))

    def verify(self, rep, env: Env) -> bool:
        case = self._pick(env)
        if case is None or case.name != rep.tag:
            return False
        return case.node.verify(rep.value, env)

    def generate(self, rng: random.Random, env: Env):
        case = self._pick(env)
        if case is None:
            raise ValueError(f"switch selector has no case for {self.name}")
        value = _generate_constrained(case.node, case.constraint, case.name,
                                      rng, env.child())
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

    def parse(self, src: Source, mask: Mask, env: Env):
        state = src.mark()
        value, child = self.inner.parse(src, mask, env)
        if child.nerr == 0:
            src.commit(state)
            pd = Pd()
            pd.tag = "some"
            return value, pd
        src.restore(state)
        pd = Pd()
        pd.tag = "none"
        return None, pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        if rep is not None:
            self.inner.write(rep, out, env)

    def default(self, env: Env):
        return None

    def verify(self, rep, env: Env) -> bool:
        if rep is None:
            return True
        return self.inner.verify(rep, env)

    def generate(self, rng: random.Random, env: Env):
        if rng.random() < 0.25:
            return None
        return self.inner.generate(rng, env)


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
                 min_size: Optional[E.Expr] = None,
                 max_size: Optional[E.Expr] = None,
                 last: Optional[E.Expr] = None,
                 ended: Optional[E.Expr] = None,
                 longest: bool = False,
                 where: Optional[E.Expr] = None):
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

    def _size_bounds(self, env: Env) -> Tuple[Optional[int], Optional[int]]:
        lo = hi = None
        if self.min_size is not None:
            lo = int(eval_expr(self.min_size, env))
        if self.max_size is not None:
            hi = int(eval_expr(self.max_size, env))
        return lo, hi

    def _at_term(self, src: Source) -> bool:
        return self.term is not None and self.term.matches_at(src) >= 0

    @_depth_guarded
    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        emask = mask.for_elements()
        elts: List[object] = []
        try:
            lo, hi = self._size_bounds(env)
        except EvalError:
            pd.record_error(ErrCode.ARRAY_SIZE_ERR, src.here(), panic=True)
            return [], pd
        alim = src.limits.max_array_elems if src.limits is not None else None
        array_env = env.child()

        def pred_env() -> Env:
            array_env.vars["elts"] = elts
            array_env.vars["length"] = len(elts)
            return array_env

        first = True
        while True:
            if alim is not None and len(elts) >= alim:
                note_limit(pd, ErrCode.ARRAY_LIMIT, src.here())
                break
            if hi is not None and len(elts) >= hi:
                break
            if self.ended is not None:
                ok, failed = _eval_constraint(self.ended, pred_env())
                if ok and not failed:
                    break
            if self._at_term(src):
                # The terminator is left unconsumed (it belongs to the
                # enclosing type); Peor/Peof consume nothing anyway.
                break
            if src.at_end():
                break

            # Separator between elements.
            if not first and self.sep is not None:
                n = self.sep.matches_at(src)
                if n >= 0:
                    src.skip(n)
                else:
                    break

            before = src.pos
            if self.longest or (first and (lo is None or lo == 0)):
                state = src.mark()
                value, child = self.elt.parse(src, emask, array_env)
                if child.nerr > 0 and self.longest:
                    src.restore(state)
                    break
                src.commit(state)
            else:
                value, child = self.elt.parse(src, emask, array_env)

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

            if self.last is not None:
                ok, failed = _eval_constraint(self.last, pred_env())
                if ok and not failed:
                    break
            if src.pos == before and self.sep is None:
                # Zero-width element and no separator: avoid spinning.
                break

        if lo is not None and len(elts) < lo and mask.do_syn:
            pd.record_error(ErrCode.ARRAY_SIZE_ERR, src.here())
        if self.where is not None and mask.level_sem and pd.nerr == 0:
            ok, failed = _eval_constraint(self.where, pred_env())
            if not ok or failed:
                pd.record_error(ErrCode.WHERE_CLAUSE_VIOLATION, src.here())
        return elts, pd

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

    def parse_elements(self, src: Source, mask: Mask, env: Env):
        """Element-at-a-time entry point (paper Section 4: reading an array
        one element at a time to support very large sources)."""
        emask = mask.for_elements()
        array_env = env.child()
        elts: List[object] = []
        first = True
        while True:
            array_env.vars["elts"] = elts
            array_env.vars["length"] = len(elts)
            if self.ended is not None:
                ok, failed = _eval_constraint(self.ended, array_env)
                if ok and not failed:
                    return
            if self._at_term(src) or src.at_end():
                return
            if not first and self.sep is not None:
                n = self.sep.matches_at(src)
                if n < 0:
                    return
                src.skip(n)
            value, child = self.elt.parse(src, emask, array_env)
            elts.append(value)
            first = False
            yield value, child
            if self.last is not None:
                ok, failed = _eval_constraint(self.last, array_env)
                if ok and not failed:
                    return

    def write(self, rep, out: List[bytes], env: Env) -> None:
        for i, value in enumerate(rep):
            if i and self.sep is not None:
                self.sep.write(None, out, env)
            self.elt.write(value, out, env)

    def default(self, env: Env):
        return []

    def verify(self, rep, env: Env) -> bool:
        scope = env.child({"elts": rep, "length": len(rep)})
        try:
            lo, hi = self._size_bounds(scope)
        except EvalError:
            return False
        if lo is not None and len(rep) < lo:
            return False
        if hi is not None and len(rep) > hi:
            return False
        for value in rep:
            if not self.elt.verify(value, scope):
                return False
        if self.where is not None:
            ok, failed = _eval_constraint(self.where, scope)
            if not ok or failed:
                return False
        return True

    def generate(self, rng: random.Random, env: Env, size: Optional[int] = None):
        scope = env.child()
        try:
            lo, hi = self._size_bounds(scope)
        except EvalError:
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
                elts = [self.elt.generate(rng, scope) for _ in range(trial_size)]
                if self.where is None:
                    return elts
                wscope = env.child({"elts": elts, "length": len(elts)})
                ok, failed = _eval_constraint(self.where, wscope)
                if ok and not failed:
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

    def parse(self, src: Source, mask: Mask, env: Env):
        pd = Pd()
        for name, code, physical in self._ordered:
            raw = physical.encode(self.encoding)
            if src.peek(len(raw)) == raw:
                src.skip(len(raw))
                return EnumVal(name, code, physical), pd
        pd.record_error(ErrCode.INVALID_ENUM, src.here())
        return self.default(env), pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        name = str(rep)
        if name not in self._by_name:
            raise ValueError(f"{name!r} is not a member of {self.name}")
        out.append(self._by_name[name][2].encode(self.encoding))

    def default(self, env: Env):
        name, code, physical = self.items[0]
        return EnumVal(name, code, physical)

    def verify(self, rep, env: Env) -> bool:
        return str(rep) in self._by_name

    def generate(self, rng: random.Random, env: Env):
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
                 constraint: Optional[E.Expr]):
        self.name = name
        self.base = base
        self.var = var
        self.constraint = constraint

    def parse(self, src: Source, mask: Mask, env: Env):
        start = src.pos
        value, pd = self.base.parse(src, mask, env)
        if self.constraint is not None and mask.do_sem and pd.nerr == 0:
            scope = env.child({self.var: value})
            ok, failed = _eval_constraint(self.constraint, scope)
            if not ok or failed:
                pd.record_error(ErrCode.TYPEDEF_CONSTRAINT_VIOLATION,
                                src.loc_from(start))
        return value, pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        self.base.write(rep, out, env)

    def default(self, env: Env):
        return self.base.default(env)

    def verify(self, rep, env: Env) -> bool:
        if not self.base.verify(rep, env):
            return False
        if self.constraint is not None:
            scope = env.child({self.var: rep})
            ok, failed = _eval_constraint(self.constraint, scope)
            return ok and not failed
        return True

    def generate(self, rng: random.Random, env: Env):
        if self.constraint is not None:
            return _generate_constrained(self.base, self.constraint, self.var,
                                         rng, env.child())
        return self.base.generate(rng, env)


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

    def __init__(self, inner: PType):
        self.inner = inner
        self.name = inner.name

    def parse(self, src: Source, mask: Mask, env: Env):
        if src.in_record:
            # Already inside a record (nested Precord): parse plainly.
            return self.inner.parse(src, mask, env)
        if not src.begin_record():
            pd = Pd()
            pd.record_error(ErrCode.AT_EOF, src.here(), panic=True)
            return self.inner.default(env), pd
        limits = src.limits
        if limits is not None:
            pd = Pd()
            if not record_guard(src, pd):
                src.note_errors(pd.nerr)
                return self.inner.default(env), pd
        fast = self.fast_fn
        if (fast is not None and fastpath_applies(mask, limits)
                and observe.current_tracer() is None):
            rep = fast(src.record_bytes(), (mask.bits & 4) != 0)
            if rep is not None:
                # Clean record: empty descriptor, identical to the general
                # parse (clean children are omitted from descriptors).
                src.pos = src.rec_end
                src.end_record()
                return rep, Pd()
        rep, pd = self.inner.parse(src, mask, env)
        if not src.at_eor() and mask.do_syn and pd.nerr == 0:
            pd.record_error(ErrCode.EXTRA_DATA_AT_EOR, src.here())
        src.end_record()
        if limits is not None:
            src.note_errors(pd.nerr)
        return rep, pd

    def write(self, rep, out: List[bytes], env: Env) -> None:
        content = None
        if self.write_fn is not None:
            content = self.write_fn(rep)
        if content is None:
            inner: List[bytes] = []
            self.inner.write(rep, inner, env)
            content = b"".join(inner)
        discipline = None
        if env.bound("_pads_discipline"):
            discipline = env.lookup("_pads_discipline")
        if discipline is None:
            out.append(content + b"\n")
        else:
            out.append(discipline.header(content) + content
                       + discipline.trailer(content))

    def default(self, env: Env):
        return self.inner.default(env)

    def verify(self, rep, env: Env) -> bool:
        return self.inner.verify(rep, env)

    def generate(self, rng: random.Random, env: Env):
        return self.inner.generate(rng, env)


class AppNode(PType):
    """Application of a parameterised declared type: ``foo(:x, y:)``.

    Arguments are evaluated in the *caller's* environment; the callee's
    body sees only its parameters plus globals (C-like scoping).
    """

    kind = "app"

    def __init__(self, name: str, decl_node: PType, param_names: Sequence[str],
                 arg_exprs: Sequence[E.Expr], global_env: Env):
        self.name = name
        self.decl_node = decl_node
        self.param_names = list(param_names)
        self.arg_exprs = list(arg_exprs)
        self.global_env = global_env

    def _callee_env(self, env: Env) -> Env:
        args = {}
        for pname, aexpr in zip(self.param_names, self.arg_exprs):
            args[pname] = eval_expr(aexpr, env)
        return self.global_env.child(args)

    def parse(self, src: Source, mask: Mask, env: Env):
        try:
            callee = self._callee_env(env)
        except EvalError:
            pd = Pd()
            pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, src.here(), panic=True)
            return None, pd
        return self.decl_node.parse(src, mask, callee)

    def write(self, rep, out: List[bytes], env: Env) -> None:
        self.decl_node.write(rep, out, self._callee_env(env))

    def default(self, env: Env):
        try:
            return self.decl_node.default(self._callee_env(env))
        except EvalError:
            return None

    def verify(self, rep, env: Env) -> bool:
        try:
            return self.decl_node.verify(rep, self._callee_env(env))
        except EvalError:
            return False

    def generate(self, rng: random.Random, env: Env):
        return self.decl_node.generate(rng, self._callee_env(env))
