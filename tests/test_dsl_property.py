"""Generative property tests for the DSL front-end.

Hypothesis builds random (small, well-formed) descriptions as ASTs; we
pretty-print them, reparse, and require a pretty-print fixpoint plus
semantic equivalence (same parses over generated data).  This fuzzes the
lexer/parser/printer triangle far beyond the hand-written cases.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Mask, P_Check, P_CheckAndSet, Pstate, compile_description
from repro.core.limits import ParseLimits
from repro.dsl.parser import parse_description
from repro.dsl.pprint import pp_description

from .test_codegen import pd_summary

# -- strategies for random descriptions --------------------------------------

import keyword as _kw

from repro.dsl.lexer import KEYWORDS
from repro.expr.runtime import BUILTINS

_RESERVED = (KEYWORDS | set(BUILTINS) | {"elts", "length"}
             | set(_kw.kwlist) | set(_kw.softkwlist))
_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda n: n not in _RESERVED)
_field_names = st.lists(_names, min_size=1, max_size=4, unique=True)

_base_types = st.sampled_from([
    "Puint8", "Puint16", "Puint32", "Pint32",
    "Pstring(:'|':)", "Pstring_FW(:3:)", "Pchar", "Pzip", "Pfloat",
])

_literal_chars = st.sampled_from([";", ":", "|", "#", "~", "@"])


@st.composite
def struct_source(draw):
    """A random Precord Pstruct over base types with char literals."""
    fields = draw(_field_names)
    sep = draw(_literal_chars)
    lines = ["Precord Pstruct row_t {"]
    for i, name in enumerate(fields):
        base = draw(_base_types)
        if "Pstring(" in base:
            base = f"Pstring(:'{sep}':)"
        constraint = ""
        if base in ("Puint8", "Puint16", "Puint32") and draw(st.booleans()):
            bound = draw(st.integers(1, 200))
            constraint = f" : {name} < {bound}"
        lines.append(f"  {base} {name}{constraint};")
        if i < len(fields) - 1:
            lines.append(f"  '{sep}';")
    lines.append("};")
    return "\n".join(lines)


@st.composite
def union_source(draw):
    branches = draw(_field_names)
    kinds = ["Puint32", "Pzip", "Pstring(:'!':)"]
    lines = ["Punion u_t {"]
    for i, name in enumerate(branches):
        lines.append(f"  {kinds[i % len(kinds)]} {name};")
    lines.append("};")
    lines.append("Precord Pstruct row_t { u_t v; '!'; Puint8 n; };")
    return "\n".join(lines)


@st.composite
def array_source(draw):
    sep = draw(st.sampled_from([",", ";", "+"]))
    head = draw(st.sampled_from(["Puint8", "Pint8"]))
    lit = draw(st.sampled_from([":", sep]))
    lines = [
        "Parray xs_t {",
        f"  Puint16[] : Psep('{sep}') && Pterm(Peor);",
        "};" if not draw(st.booleans()) else
        "} Pwhere { Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1]) };",
        f"Precord Pstruct row_t {{ {head} head; '{lit}'; xs_t xs; }};",
    ]
    return "\n".join(lines)


_descriptions = st.one_of(struct_source(), union_source(), array_source())


@settings(max_examples=60, deadline=None)
@given(text=_descriptions)
def test_pretty_print_is_fixpoint(text):
    desc = parse_description(text)
    once = pp_description(desc)
    twice = pp_description(parse_description(once))
    assert once == twice


@settings(max_examples=40, deadline=None)
@given(text=_descriptions, seed=st.integers(0, 10**6))
def test_reparsed_description_is_semantically_identical(text, seed):
    original = compile_description(text)
    printed = pp_description(parse_description(text))
    reparsed = compile_description(printed)
    rng = random.Random(seed)
    rep = original.generate("row_t", rng)
    data = original.write(rep, "row_t")
    ra, pa = original.parse(data, "row_t")
    rb, pb = reparsed.parse(data, "row_t")
    assert pd_summary(pa) == pd_summary(pb)
    assert ra == rb == rep


@settings(max_examples=40, deadline=None)
@given(text=_descriptions, seed=st.integers(0, 10**6))
def test_generated_module_agrees_on_random_descriptions(text, seed):
    """The generated module's ``row_t_read`` runs the description itself
    (the modes are compared by ``tests/test_oracle.py``)."""
    desc = compile_description(text)
    rep = desc.generate("row_t", random.Random(seed))
    data = bytearray(desc.write(rep, "row_t"))
    if len(data) > 2 and seed % 3 == 0:
        data[seed % (len(data) - 1)] = 33 + (seed % 90)  # one mutation
    ri, pi = desc.parse(bytes(data), "row_t")
    rg, pg = desc.module.row_t_read(bytes(data))
    assert (ri, pd_summary(pi)) == (rg, pd_summary(pg)), bytes(data)


# -- the split kernel against the regex form and the interpreter -------------


def _regex_form(desc, type_name):
    """``type_name``'s anchored-regex fast function, compiled beside the
    split kernel the description chose (the compiler's internal
    ``split`` argument)."""
    from repro.plan.fastpath import compile_fast
    from repro.plan.runtime import runtime_namespace
    plan = desc.plan
    name, lines, _ = compile_fast(plan, plan.decls[type_name], None,
                                  split=False)
    ns = runtime_namespace(plan)
    exec("\n".join(lines), ns)
    return ns[name]


def _split_traps(text: str):
    """The member types of a generated description that may hold its
    separator, as the decline reason spells them."""
    traps = []
    for line in text.splitlines():
        if "Pstring_FW(:3:)" in line:
            traps.append("Pstring_FW(:3:) may contain")
        if "Pchar" in line:
            traps.append("Pchar may contain")
    if "Pint8 head; '+'" in text:
        traps.append("member head: Pint8 may contain '+'")
    return traps


def _rows(desc, rng, n=12):
    """Generated rows (record bytes without framing), half mutated: a
    byte replaced by, or one inserted from, the separators, signs,
    blanks, underscores (``int()`` takes ``+5``, `` 5`` and ``5_0``) or
    letters; a byte dropped; or a byte doubled."""
    pool = b";:|#~@!,+-0a.Ne _"
    rows = []
    for i in range(n):
        raw = bytearray(desc.write(desc.generate("row_t", rng), "row_t")[:-1])
        if i % 2 and raw:
            at = rng.randrange(len(raw))
            what = rng.randrange(4)
            if what == 0:
                raw[at] = rng.choice(pool)
            elif what == 1:
                del raw[at]
            elif what == 2:
                raw.insert(at, rng.choice(pool))
            else:
                raw[at:at] = raw[at:at + 1]
        rows.append(bytes(raw))
    return rows


@settings(max_examples=60, deadline=None)
@given(text=_descriptions, seed=st.integers(0, 10**6))
def test_split_kernel_agrees_with_the_regex_form_and_interpreter(text, seed):
    """Split kernel returns a rep => the regex fast function returns the
    same rep => the general parser (``fastpath=False``) parses the row
    clean to it; a description that may put the separator inside a
    member is declined with the member named."""
    desc = compile_description(text)
    verdict = desc.plan.decls["row_t"].verdict
    if verdict.reason.startswith("batch kernel"):
        return
    traps = _split_traps(text)
    if not verdict.reason.startswith("split kernel"):
        assert "split kernel declined: " in verdict.reason
        for trap in traps:
            if trap.startswith("member head"):
                assert trap in verdict.reason
        return
    assert not traps, verdict.reason
    kernel = desc.node("row_t").fast_fn
    regex = _regex_form(desc, "row_t")
    plain = compile_description(text, fastpath=False)
    for row in _rows(desc, random.Random(seed)):
        for dosem in (True, False):
            got = kernel(row, dosem)
            if got is None:
                continue
            assert got == regex(row, dosem), row
            if dosem:
                rep, pd = plain.parse(row + b"\n", "row_t")
                assert pd.nerr == 0 and rep == got, row


@settings(max_examples=40, deadline=None)
@given(text=array_source(), seed=st.integers(0, 10**6),
       limit=st.none() | st.integers(0, 6), sets=st.booleans())
def test_array_elements_read_parse_element_loop(text, seed, limit, sets):
    """``array_elements`` yields, before any refused element, the values
    of ``parse``'s rep (after unset) and the element pds of ``pd.elts``;
    a refusal is the ``max_array_elems`` limit ``parse`` reports."""
    limits = None if limit is None else ParseLimits(max_array_elems=limit)
    desc = compile_description(text, limits=limits)
    rng = random.Random(seed)
    data = bytearray(desc.write(desc.generate("xs_t", rng), "xs_t"))
    if data and seed % 3 == 0:
        data[seed % len(data)] = 33 + (seed % 90)  # one mutation
    mask = Mask(P_CheckAndSet if sets else P_Check)
    rep, pd = desc.parse(bytes(data), "xs_t", mask)
    pairs = list(desc.array_elements(bytes(data), "xs_t", mask))
    refused = bool(pairs) and bool(pairs[-1][1].pstate & Pstate.LIMIT)
    if refused:
        pairs.pop()
    assert refused == bool(pd.pstate & Pstate.LIMIT)
    assert [value for value, _ in pairs] == rep
    assert [pd_summary(p) for _, p in pairs] == \
        [pd_summary(p) for p in pd.elts]
