"""The split kernel: the record fast function of a delimited record.

Most ASCII records in the paper's workloads are runs of fields separated
by one byte (Sirius orders and Regulus measurements by ``|``).  The
hand-written vetter such data gets splits each line on that byte and
tests every field with a string method; this compiler lowers a
description to the same primitive (the paper's Section 9 partial
evaluation, aimed at the host's fastest operation instead of a regex).

A ``Precord Pstruct`` qualifies when its flattened layout — nested
structs inlined — is a run of *tokens* separated by one single-byte
literal ``d``, optionally ending in a ``Psep(d) && Pterm(Peor)`` tail
array whose elements are runs of tokens themselves, and no member's
pattern may match ``d``.  The kernel then does one ``line.split(d)``
and a token-count check, and tests each token: ``isdigit()`` for digit
runs, nothing for a string terminated by ``d``, the enum's dict lookup
for an enum, and for anything else the member's own anchored regex
fullmatched on the token.  Because no member pattern can cross ``d``
and every variable-width fragment of :class:`~repro.plan.fastpath.FastPath`
is atomic, that fullmatch is exactly what the record regex does to the
token (for a union: the first branch matching a prefix wins, and it
must consume the whole token).  The converters, ``dosem`` checks and
rep construction are the regex compiler's own, with each group
reference pointed at its token.

Contract: the kernel returns the rep the anchored-regex fast function
would return, or ``None`` (the general parser then decides).  The
verdict of a record that does not qualify names the member and why.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..core.basetypes import integers as _ints
from ..core.basetypes import network as _net
from ..core.basetypes import strings as _strs
from ..core.basetypes import temporal as _tmp
from ..util.retree import CATEGORIES, REPEATS, sre
from .fastpath import _GROUP_REF, FastPath, NotEligible, _check
from .ir import (ArrayPlan, BaseUse, DataItem, EnumPlan, LitItem, OptUse,
                 Plan, RefUse, RegexUse, StructPlan, TypedefPlan, Use)
from .lines import Lines

#: A token's parts: ``(pattern, shape)`` per member or literal in it;
#: the shape names a test cheaper than a fullmatch, or is None.
Token = List[Tuple[bytes, Optional[str]]]

_GROUP_NAME = re.compile(rb"\(\?P<(g\d+)>")
#: A presence test on an optional member's or a union branch's group.
_PRESENT = re.compile(r"_m\.group\('(g\d+)'\) is not None")

def may_hold(pattern: bytes, byte: int) -> bool:
    """Whether a match of ``pattern`` may consume ``byte``, or may
    depend on the text around the match (anchors, back references,
    case folding); False only when neither can happen."""
    def in_set(items) -> bool:
        negate = hit = False
        for op, av in items:
            if op is sre.NEGATE:
                negate = True
            elif op is sre.LITERAL:
                hit = hit or av == byte
            elif op is sre.RANGE:
                hit = hit or av[0] <= byte <= av[1]
            elif op is sre.CATEGORY and av in CATEGORIES:
                hit = hit or CATEGORIES[av](byte)
            else:
                return True
        return hit != negate

    def visit(sub) -> bool:
        for op, av in sub:
            if op is sre.LITERAL:
                held = av == byte
            elif op is sre.NOT_LITERAL:
                held = av != byte
            elif op is sre.IN:
                held = in_set(av)
            elif op is sre.SUBPATTERN:
                held = bool(av[1] & re.IGNORECASE) or visit(av[-1])
            elif op in REPEATS:
                held = visit(av[2])
            elif op is getattr(sre, "ATOMIC_GROUP", None):
                held = visit(av)
            elif op is sre.BRANCH:
                held = any(visit(alt) for alt in av[1])
            elif op in (sre.ASSERT, sre.ASSERT_NOT):
                held = visit(av[1])
            else:  # ANY, anchors, back references
                held = True
            if held:
                return True
        return False

    tree = sre.parse(pattern)
    return bool(tree.state.flags & re.IGNORECASE) or visit(tree)


def _spelling(use: Use) -> str:
    """A member's type as the description spells it."""
    if isinstance(use, OptUse):
        return f"Popt {_spelling(use.inner)}"
    if isinstance(use, RegexUse):
        return f"Pre {use.pattern!r}"
    if isinstance(use, BaseUse) and use.static_args:
        return (f"{use.name}(:"
                + ", ".join(repr(a) for a in use.static_args) + ":)")
    return getattr(use, "name", type(use).__name__)


def _int_text_rejects(use: Use, plan: Plan, byte: int) -> bool:
    """True for a fixed-width ASCII integer whose conversion (``int()``
    of the stripped text) fails on any text holding ``byte``: its
    ``.{n}`` pattern may cross the separator, but no clean parse can."""
    while isinstance(use, RefUse):
        decl = plan.decls.get(use.name)
        if not isinstance(decl, TypedefPlan):
            return False
        use = decl.base
    if not (isinstance(use, BaseUse)
            and isinstance(use.static, _ints.AsciiIntFW)):
        return False
    ch = chr(byte)
    return byte < 0x80 and not (ch.isdigit() or ch.isspace() or ch in "+-_")


def separator_of(plan: Plan, decl: StructPlan) -> Optional[bytes]:
    """The first single-byte char literal of ``decl``'s flattened
    layout, or its tail array's separator; None when there is none."""
    for item in decl.items:
        if isinstance(item, LitItem):
            lit = item.literal
            if lit.kind == "char" and len(lit.raw) == 1:
                return lit.raw
        elif isinstance(item, DataItem) and isinstance(item.type, RefUse):
            sub = plan.decls.get(item.type.name)
            if isinstance(sub, StructPlan) and _flattens(sub):
                found = separator_of(plan, sub)
                if found is not None:
                    return found
            elif (isinstance(sub, ArrayPlan) and sub.sep is not None
                  and sub.sep.kind == "char"):
                return sub.sep.raw
    return None


def _flattens(decl) -> bool:
    return isinstance(decl, StructPlan) and not decl.params \
        and not decl.is_record


class SplitPath(FastPath):
    """Compiles one delimited record plan to its split kernel,
    ``_fp_<type>(line, dosem) -> rep | None``.

    The walk is the regex compiler's (same patterns, same converter
    lines); at *token level* — the record body and the structs it
    inlines — it also records where each separator falls, so every
    member's pattern lands in its token.  Members below token level
    (inside a union, an option or a token's struct) compile exactly as
    in :class:`FastPath`.
    """

    def __init__(self, plan: Plan, decl: StructPlan, sep: bytes):
        super().__init__(plan, decl)
        self.sep = sep
        self.sep_text = repr(sep.decode("latin-1"))
        self.flat = True
        self.path: List[str] = []
        self.tokens: List[Token] = [[]]
        #: Number of fixed tokens before the tail array, when there is one.
        self.tail_at: Optional[int] = None

    # -- hooks into the regex compiler's walk --------------------------------

    def literal(self, lit, is_tail: bool) -> bytes:
        pattern = super().literal(lit, is_tail)
        if not self.flat:
            return pattern
        if lit.kind == "eor":
            if not is_tail:
                raise NotEligible("Peor literal before the record's end")
        elif lit.raw == self.sep:
            self.tokens.append([])
        elif self.sep in lit.raw:
            raise NotEligible(f"literal {lit.value!r} holds the separator "
                              f"{self.sep_text}")
        else:
            self.tokens[-1].append((pattern, None))
        return pattern

    def member_use(self, item: DataItem, var: str, w: Lines,
                   scope: Dict[str, str], is_tail: bool) -> bytes:
        use = item.type
        if not self.flat:
            return self.compile_use(use, var, w, scope, is_tail)
        decl = self.plan.decls.get(use.name) \
            if isinstance(use, RefUse) else None
        self.path.append(item.name)
        try:
            if _flattens(decl) or (
                    is_tail and isinstance(decl, ArrayPlan)
                    and decl.term is not None and decl.term.kind == "eor"):
                # Inlined: its members are tokens, or it is the tail.
                return self.compile_use(use, var, w, scope, is_tail)
            return self.token_member(use, var, w, scope, is_tail)
        finally:
            self.path.pop()

    def token_member(self, use: Use, var: str, w: Lines,
                     scope: Dict[str, str], is_tail: bool) -> bytes:
        """Compile a member that lies inside one token, as the regex
        compiler does; raises NotEligible when it may hold the
        separator."""
        self.flat = False
        try:
            pattern = self.compile_use(use, var, w, scope, is_tail)
        finally:
            self.flat = True
        if may_hold(pattern, self.sep[0]) and \
                not _int_text_rejects(use, self.plan, self.sep[0]):
            raise NotEligible(f"member {'.'.join(self.path)}: "
                              f"{_spelling(use)} may contain {self.sep_text}")
        self.tokens[-1].append((pattern, self.shape(use)))
        return pattern

    def shape(self, use: Use) -> Optional[str]:
        """The cheap test a one-member token of ``use`` takes: 'digits'
        (``isdigit()``), 'opt digits', 'any' (a string terminated by the
        separator) or 'enum' (the converter's dict lookup: members are
        tried longest first, so a fullmatch is a lookup); None for a
        fullmatch."""
        if isinstance(use, OptUse):
            return "opt digits" if self.shape(use.inner) == "digits" \
                else None
        if isinstance(use, RefUse):
            decl = self.plan.decls.get(use.name)
            if isinstance(decl, EnumPlan):
                return "enum"
            if isinstance(decl, TypedefPlan):
                return self.shape(decl.base)
            return None
        inst = use.static if isinstance(use, BaseUse) else None
        if (type(inst) is _ints.AsciiInt and not inst.signed) or \
                type(inst) in (_net.PhoneNumber, _tmp.EpochSeconds):
            return "digits"
        if type(inst) is _strs.TerminatedString and inst.term == self.sep:
            return "any"
        return None

    def _tail_array(self, decl: ArrayPlan, sep: Optional[bytes],
                    var: str, w: Lines) -> bytes:
        if sep != self.sep:
            raise NotEligible(f"tail array {decl.name}: separator "
                              f"{(sep or b'').decode('latin-1')!r} is not "
                              f"{self.sep_text}")
        if self.tokens[-1]:
            raise NotEligible(f"tail array {decl.name} does not follow "
                              "a separator")
        self.tail_at = len(self.tokens) - 1
        outer, self.tokens = self.tokens, [[]]
        evar = self.temp()
        sub = Lines()
        self.path.append("[]")
        try:
            if isinstance(decl.elt, RefUse) and \
                    _flattens(self.plan.decls.get(decl.elt.name)):
                elt = self.compile_use(decl.elt, evar, sub, {}, False)
            else:
                elt = self.token_member(decl.elt, evar, sub, {}, False)
        finally:
            self.path.pop()
            elts, self.tokens = self.tokens, outer
        if sre.parse(b"(?s:" + elt + b")").getwidth()[0] == 0:
            raise NotEligible(f"tail array {decl.name}: an element may "
                              "match empty")
        k = len(elts)
        self.tail_forms.append(f"tail array {decl.name}: {k} token"
                               f"{'s' if k > 1 else ''} per element")
        names = [f"_e{i}" for i in range(k)]
        tests, lines = self.bind_tokens(elts, names, sub.lines)
        w.w(f"{var} = []")
        with w.block("if _kt != [b'']:"):
            if k == 1:
                loop = "for _e0 in _kt:"
            else:
                w.fail(f"len(_kt) % {k}")
                w.w("_ki = iter(_kt)")
                loop = (f"for {', '.join(names)} in "
                        f"zip({', '.join(['_ki'] * k)}):")
            with w.block(loop):
                if tests:
                    w.fail(f"not ({' and '.join(tests)})")
                w.extend(lines)
                w.w(f"{var}.append({evar})")
        if decl.where is not None:
            ascope = {"elts": var, "length": f"len({var})"}
            _check(w, self.plan, decl.where, ascope)
        return b"(?P<" + self.group().encode() + b">.*)"

    # -- tokens ---------------------------------------------------------------

    def bind_tokens(self, tokens: List[Token], names: List[str],
                    lines: List[str]) -> Tuple[List[str], List[str]]:
        """``(tests, lines)``: the test of each token (variables
        ``names``) and converter ``lines`` with every group reference
        pointed at its token."""
        tests: List[str] = []
        refs: Dict[str, str] = {}
        present: Dict[str, str] = {}
        for tok, parts in zip(names, tokens):
            pattern = b"".join(p for p, _ in parts)
            groups = [g.decode() for g in _GROUP_NAME.findall(pattern)]
            shape = parts[0][1] if len(parts) == 1 else None
            if shape is not None:
                refs.update((g, tok) for g in groups)
                present.update((g, tok) for g in groups)
                if shape == "digits":
                    tests.append(f"{tok}.isdigit()")
                elif shape == "opt digits":
                    tests.append(f"(not {tok} or {tok}.isdigit())")
                continue
            if not pattern:
                tests.append(f"not {tok}")
                continue
            full = b"(?s:" + pattern + b")"
            index = re.compile(full).groupindex
            rx, m = self.auxname("fpsx", tok), f"{tok}m"
            self.aux.append(f"{rx} = __import__('re').compile({full!r})"
                            ".fullmatch")
            tests.append(f"({m} := {rx}({tok})) is not None")
            refs.update((g, f"{m}[{index[g]}]") for g in groups)

        def is_present(match: "re.Match") -> str:
            name = match.group(1)
            return present.get(name) or f"{refs[name]} is not None"

        try:
            return tests, [_GROUP_REF.sub(lambda m: refs[m.group(1)],
                                          _PRESENT.sub(is_present, line))
                           for line in lines]
        except KeyError as exc:  # a group outside every token
            raise NotEligible(f"group {exc} outside the tokens") from None

    # -- entry point ---------------------------------------------------------

    def build(self) -> Tuple[str, List[str], str]:
        decl = self.decl
        w = Lines(depth=2)  # inside def + try
        var = self.temp()
        self.compile_struct_body(decl, var, w, is_tail=True)
        tokens = self.tokens if self.tail_at is None \
            else self.tokens[:self.tail_at]
        if self.tail_at is None and len(tokens) < 2:
            raise NotEligible(f"no {self.sep_text} between members")
        n = len(tokens)
        names = [f"_k{i}" for i in range(n)]
        tests, lines = self.bind_tokens(tokens, names, w.lines)
        fn_name = f"_fp_{decl.name}"
        out = [f"def {fn_name}(_line, dosem):",
               f'    """Compiled fast path for {decl.name}: split kernel '
               f'over {self.sep_text} tokens."""',
               f"    _k = _line.split({self.sep!r})"]
        unpack = "".join(nm + ", " for nm in names)
        if self.tail_at is None:
            out += [f"    if len(_k) != {n}:", "        return None",
                    f"    {unpack}= _k"]
        elif n:
            out += [f"    if len(_k) <= {n}:", "        return None",
                    f"    {unpack}*_kt = _k"]
        else:
            out.append("    _kt = _k")
        if tests:
            out += [f"    if not ({' and '.join(tests)}):",
                    "        return None"]
        out += ["    try:", *lines, f"        return {var}",
                "    except Exception:", "        return None", *self.aux]
        reason = f"split kernel over {self.sep_text} tokens"
        if self.tail_forms:
            reason += f" ({'; '.join(self.tail_forms)})"
        return fn_name, out, reason


def compile_split(plan: Plan, decl: StructPlan) -> Tuple[str, List[str], str]:
    """The split kernel of ``decl``: ``(name, module source lines,
    verdict reason)``; raises :class:`NotEligible` with the reason when
    the record is not a run of separated tokens."""
    sep = separator_of(plan, decl)
    if sep is None:
        raise NotEligible("no single-byte literal separates the members")
    return SplitPath(plan, decl, sep).build()
