"""The mask contract, on every gallery description and both engines.

``SET`` decides only whether the rep is filled: checks always see the
parsed values, so turning it off never changes which errors are
reported.  The check bits decide which checks run, each at its own
position.  Some checks run only on a position with no earlier error (a
field's constraint, a ``Pwhere``, the record's trailing-data check), as
in the paper's generated code; so turning a check bit on never removes
an error except such a gated one at the same position or an ancestor,
and ``P_Ignore`` or a ``compound_level`` without ``SEM_CHECK``
suppresses the checks at its position and leaves every error outside
its subtree and its ancestors as it was.  Both hold for every record the
checks do not steer: a check can also decide which union branch or
option the data is (the paper's ``auth_id_t``), and a different branch
is a different parse, not a different set of reported errors.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Rec, UnionVal, compile_description
from repro.codegen import compile_generated
from repro.core.masks import (Mask, MaskFlag, P_Check, P_CheckAndSet,
                              P_Ignore)
from repro.core.types import (AppNode, ArrayNode, OptNode, RecordNode,
                              StructNode, SwitchUnionNode, TypedefNode,
                              UnionNode)
from repro.faults import GALLERY_TARGETS
from repro.tools.datagen import ErrorInjector, generate_records, \
    sirius_workload

N_RECORDS = 30
#: Checks that run only where no error came before them.
GATED = {"USER_CONSTRAINT_VIOLATION", "TYPEDEF_CONSTRAINT_VIOLATION",
         "WHERE_CLAUSE_VIOLATION", "EXTRA_DATA_AT_EOR"}
SET, SYN, SEM = MaskFlag.SET, MaskFlag.SYN_CHECK, MaskFlag.SEM_CHECK
ENGINES = {"interp": compile_description, "gen": compile_generated}


@pytest.fixture(scope="module", params=[t[0] for t in GALLERY_TARGETS])
def target(request):
    """``(name, engines, record type, data)``: conforming records of one
    gallery format, with errors injected into the text formats."""
    _, text, rtype, ambient, discipline = \
        {t[0]: t for t in GALLERY_TARGETS}[request.param]
    descs = {name: make(text, ambient=ambient, discipline=discipline)
             for name, make in ENGINES.items()}
    rng = random.Random(1)
    records = list(generate_records(descs["interp"], rtype, N_RECORDS, rng))
    if ambient == "ascii":
        inject = ErrorInjector(0.3)
        records = [inject.maybe_corrupt(r[:-1], rng) + b"\n"
                   for r in records]
    return request.param, descs, rtype, b"".join(records)


# -- mask specs ---------------------------------------------------------------
#
# A spec is a plain tree mirroring a mask: ``{"base", "level", "fields",
# "elts"}``; positions are paths of field/branch names and "[]".


def _children(node):
    """``(mask key, child node)`` for the positions below ``node``;
    ``None`` as the key means the element mask."""
    while isinstance(node, (RecordNode, AppNode, TypedefNode, OptNode)):
        node = {RecordNode: lambda n: n.inner, AppNode: lambda n: n.decl_node,
                TypedefNode: lambda n: n.base,
                OptNode: lambda n: n.inner}[type(node)](node)
    if isinstance(node, StructNode):
        return [(f.name, f.node) for f in node.fields if f.kind == "data"]
    if isinstance(node, SwitchUnionNode):
        return [(c.name, c.node) for c in node.cases]
    if isinstance(node, UnionNode):
        return [(b.name, b.node) for b in node.branches]
    if isinstance(node, ArrayNode):
        return [(None, node.elt)]
    return []


@st.composite
def specs(draw, node, depth=0):
    spec = {"base": draw(st.integers(0, 7)), "level": None, "fields": {},
            "elts": None}
    children = _children(node)
    if children and draw(st.booleans()):
        spec["level"] = draw(st.integers(0, 7))
    for key, child in children:
        if depth < 6 and draw(st.booleans()):
            sub = draw(specs(child, depth + 1))
            if key is None:
                spec["elts"] = sub
            else:
                spec["fields"][key] = sub
    return spec


def build(spec) -> Mask:
    return Mask(MaskFlag(spec["base"]),
                None if spec["level"] is None else MaskFlag(spec["level"]),
                {k: build(v) for k, v in spec["fields"].items()},
                None if spec["elts"] is None else build(spec["elts"]))


def positions(spec, path=()):
    yield path, spec
    for key, sub in spec["fields"].items():
        yield from positions(sub, path + (key,))
    if spec["elts"] is not None:
        yield from positions(spec["elts"], path + ("[]",))


def mapped(spec, fn):
    """A copy of ``spec`` with ``fn`` applied to every position."""
    out = fn(dict(spec))
    out["fields"] = {k: mapped(v, fn) for k, v in spec["fields"].items()}
    out["elts"] = None if spec["elts"] is None else mapped(spec["elts"], fn)
    return out


def replaced(spec, path, fn):
    """A copy of ``spec`` with the position at ``path`` replaced by
    ``fn(position)``."""
    if not path:
        return fn(dict(spec))
    out = dict(spec)
    key = path[0]
    if key == "[]":
        out["elts"] = replaced(spec["elts"], path[1:], fn)
    else:
        out["fields"] = dict(spec["fields"])
        out["fields"][key] = replaced(spec["fields"][key], path[1:], fn)
    return out


def with_set(spec):
    return mapped(spec, lambda s: {**s, "base": s["base"] | SET})


# -- observations -------------------------------------------------------------


def run(desc, rtype, data, spec):
    """``(reps, error counter over (record, path, code))``."""
    reps, errs = [], Counter()
    for i, (rep, pd) in enumerate(desc.records(data, rtype, build(spec))):
        reps.append(rep)
        for path, code, count in pd.iter_errors():
            errs[(i, path, code)] += count
    return reps, errs


def shape(value):
    """The branches taken, options present and array lengths in a rep."""
    if isinstance(value, UnionVal):
        return value.tag, shape(value.value)
    if isinstance(value, Rec):
        return tuple((k, shape(v)) for k, v in value.items())
    if isinstance(value, list):
        return tuple(shape(v) for v in value)
    return value is None


def unsteered(a, b):
    """The error counters of runs ``a`` and ``b`` over the records whose
    rep has the same shape in both."""
    keep = {i for i, (x, y) in enumerate(zip(a[0], b[0], strict=True))
            if shape(x) == shape(y)}
    return tuple(Counter({k: n for k, n in errs.items() if k[0] in keep})
                 for _, errs in (a, b))


def err_path(path) -> str:
    return "".join(f".{key}" for key in ("<top>",) + path)[1:]


def related(err_at: str, p: str) -> bool:
    """Whether an error at ``err_at`` lies in ``p``'s subtree or at one
    of ``p``'s ancestors (both may move when checks at ``p`` change)."""
    return err_at == p or err_at.startswith(p + ".") or p.startswith(err_at + ".")


def same_where_set(node, mask: Mask, a, b) -> bool:
    """``a`` equals ``b`` at every position ``mask`` sets, with the same
    shape (union tags, array lengths, present options) everywhere."""
    while isinstance(node, (RecordNode, AppNode, TypedefNode)):
        node = (node.inner if isinstance(node, RecordNode) else
                node.decl_node if isinstance(node, AppNode) else node.base)
    if isinstance(node, OptNode):
        return (a is None) == (b is None) and (
            a is None or same_where_set(node.inner, mask, a, b))
    if isinstance(node, StructNode):
        return all(same_where_set(f.node, mask.for_field(f.name),
                                  getattr(a, f.name), getattr(b, f.name))
                   for f in node.fields if f.kind == "data")
    if isinstance(node, (UnionNode, SwitchUnionNode)):
        if a.tag != b.tag:
            return False
        child = dict(_children(node)).get(a.tag)
        return child is None or same_where_set(
            child, mask.for_field(a.tag), a.value, b.value)
    if isinstance(node, ArrayNode):
        return len(a) == len(b) and all(
            same_where_set(node.elt, mask.for_elements(), x, y)
            for x, y in zip(a, b))
    return a == b if mask.bits & SET else True


# -- the properties -----------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_set_never_changes_the_errors(target, engine, data):
    _, descs, rtype, raw = target
    desc = descs[engine]
    spec = data.draw(specs(desc.node(rtype)))
    reps, errs = run(desc, rtype, raw, spec)
    full_reps, full_errs = run(desc, rtype, raw, with_set(spec))
    assert errs == full_errs
    assert len(reps) == len(full_reps)
    # The other engine reports the same errors under the same mask.
    other = descs["gen" if engine == "interp" else "interp"]
    assert run(other, rtype, raw, spec)[1] == errs


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_set_positions_hold_the_check_and_set_reps(target, engine, data):
    _, descs, rtype, raw = target
    desc = descs[engine]
    node = desc.node(rtype)
    spec = mapped(data.draw(specs(node)),
                  lambda s: {**s, "base": s["base"] | SYN | SEM,
                             "level": None})
    reps, errs = run(desc, rtype, raw, spec)
    full_reps, full_errs = run(desc, rtype, raw,
                               {"base": int(P_CheckAndSet), "level": None,
                                "fields": {}, "elts": None})
    assert errs == full_errs
    mask = build(spec)
    for rep, full in zip(reps, full_reps, strict=True):
        assert same_where_set(node, mask, rep, full)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_a_check_bit_turned_on_removes_no_error(target, engine, data):
    _, descs, rtype, raw = target
    desc = descs[engine]
    spec = data.draw(specs(desc.node(rtype)))
    path, _ = data.draw(st.sampled_from(list(positions(spec))))
    bit = data.draw(st.sampled_from([SYN, SEM]))
    more = replaced(spec, path, lambda s: {**s, "base": s["base"] | bit})
    errs, more_errs = unsteered(run(desc, rtype, raw, spec),
                                run(desc, rtype, raw, more))
    p = err_path(path)
    assert [k for k in errs - more_errs
            if not (k[2].name in GATED
                    and (k[1] == p or p.startswith(k[1] + ".")))] == []


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_ignore_and_compound_level_act_at_their_own_position(target, engine,
                                                              data):
    _, descs, rtype, raw = target
    desc = descs[engine]
    full = {"base": int(P_CheckAndSet), "level": None, "fields": {},
            "elts": None}
    # Spell every position out, so one can be changed on its own.
    spec = mapped(data.draw(specs(desc.node(rtype))),
                  lambda s: {**s, "base": int(P_CheckAndSet), "level": None})
    path, _ = data.draw(st.sampled_from(list(positions(spec))))
    p = err_path(path)
    full_run = run(desc, rtype, raw, full)

    ignored = replaced(spec, path, lambda s: {**full})
    ignored = replaced(ignored, path, lambda s: {**s, "base": int(P_Ignore)})
    errs, full_errs = unsteered(run(desc, rtype, raw, ignored), full_run)
    assert not [k for k in errs if related(k[1], p) and k[1].startswith(p)
                and not k[2].is_syntactic()]
    assert ({k: v for k, v in errs.items() if not related(k[1], p)}
            == {k: v for k, v in full_errs.items() if not related(k[1], p)})

    unchecked = replaced(spec, path,
                         lambda s: {**s, "level": int(P_CheckAndSet) & ~SEM})
    errs, full_errs = unsteered(run(desc, rtype, raw, unchecked), full_run)
    assert not [k for k in errs if k[1] == p
                and k[2].name == "WHERE_CLAUSE_VIOLATION"]
    assert ({k: v for k, v in errs.items()
             if not related(k[1], p) or k[1].startswith(p + ".")}
            == {k: v for k, v in full_errs.items()
                if not related(k[1], p) or k[1].startswith(p + ".")})


@pytest.mark.parametrize("make", [compile_description, compile_generated],
                         ids=sorted(ENGINES))
def test_sirius_check_reports_the_sort_violation(make):
    """``P_Check`` reports exactly the ``P_CheckAndSet`` errors on the
    Sirius vetting input, the timestamp-sort ``Pforall`` included."""
    from repro import gallery
    desc = make(gallery.SIRIUS)
    data = sirius_workload(2000, random.Random(2))

    def codes(flag):
        src = desc.open(data)
        desc.parse(src, "summary_header_t")
        return Counter(pd.err_code.name
                       for _, pd in desc.records(src, "entry_t", Mask(flag))
                       if pd.nerr)

    checked = codes(P_Check)
    assert checked == codes(P_CheckAndSet)
    assert checked["WHERE_CLAUSE_VIOLATION"] >= 1
