"""Generative property tests for the DSL front-end.

Hypothesis builds random (small, well-formed) descriptions as ASTs; we
pretty-print them, reparse, and require a pretty-print fixpoint plus
semantic equivalence (same parses over generated data).  This fuzzes the
lexer/parser/printer triangle far beyond the hand-written cases.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_description
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
    lines = [
        "Parray xs_t {",
        f"  Puint16[] : Psep('{sep}') && Pterm(Peor);",
        "};" if not draw(st.booleans()) else
        "} Pwhere { Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1]) };",
        "Precord Pstruct row_t { Puint8 head; ':'; xs_t xs; };",
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
    """Codegen equivalence, fuzzed at the description level too."""
    from repro.codegen import compile_generated
    interp = compile_description(text)
    gen = compile_generated(text)
    rng = random.Random(seed)
    rep = interp.generate("row_t", rng)
    data = bytearray(interp.write(rep, "row_t"))
    if len(data) > 2 and seed % 3 == 0:
        data[seed % (len(data) - 1)] = 33 + (seed % 90)  # one mutation
    blob = bytes(data)
    ri, pi = interp.parse(blob, "row_t")
    rg, pg = gen.parse(blob, "row_t")
    assert pd_summary(pi) == pd_summary(pg), blob
    assert ri == rg
