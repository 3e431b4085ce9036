"""Struct reps: one ``__slots__`` class per struct shape.

Every engine and every driver builds a struct value as the class
:func:`~repro.core.values.rec_class` made for its field names, so a rep
keeps its type through pickling and across the parallel and durable
workers, and the compiled fast path and the general parser return the
same type.
"""

import gc
import pickle
import random
import runpy
from pathlib import Path

import pytest

from repro import Rec, UnionVal, compile_description
from repro.codegen import compile_generated
from repro.core.values import rec_class
from repro.execute import ExecOptions, run
from repro.faults import GALLERY_TARGETS
from repro.tools.datagen import ErrorInjector, generate_records

N_RECORDS = 120


def _shape(value):
    """``value``'s types, recursively: equal shapes mean equal types at
    every struct, union and array position."""
    if isinstance(value, Rec):
        return (type(value), tuple(_shape(v) for _, v in value.items()))
    if isinstance(value, UnionVal):
        return (UnionVal, value.tag, _shape(value.value))
    if isinstance(value, list):
        return (list, tuple(_shape(v) for v in value))
    return type(value)


class TestRecApi:
    def test_constructor_and_parsed_rep_share_a_class(self):
        desc = compile_description("""
            Precord Pstruct pair_t { Puint8 a; ','; Puint8 b; };
        """)
        rep, pd = desc.parse(b"1,2\n", "pair_t")
        assert pd.nerr == 0
        assert type(rep) is type(Rec(a=1, b=2)) is rec_class(("a", "b"))
        assert rep == Rec(a=1, b=2)
        assert isinstance(rep, Rec)

    def test_field_order_is_part_of_the_shape(self):
        assert type(Rec(a=1, b=2)) is not type(Rec(b=2, a=1))
        assert Rec(a=1, b=2) == Rec(b=2, a=1)  # equal as mappings
        assert Rec(a=1, b=2) != Rec(a=1, c=2)

    def test_repr_and_mapping_api(self):
        rep = Rec(a=1, b="x")
        assert repr(rep) == "Rec(a=1, b='x')"
        assert list(rep) == ["a", "b"] and list(rep.keys()) == ["a", "b"]
        assert rep["b"] == "x" and "b" in rep and "items" not in rep
        with pytest.raises(KeyError):
            rep["c"]

    def test_unused_shapes_are_freed(self):
        from repro.core import values
        names = ("shape_used_once_a", "shape_used_once_b")
        Rec(shape_used_once_a=1, shape_used_once_b=2)
        gc.collect()
        assert names not in values._CLASSES
        kept = Rec(shape_used_once_a=1, shape_used_once_b=2)
        gc.collect()
        assert values._CLASSES[names] is type(kept)

    def test_no_instance_dict(self):
        rep = Rec(a=1)
        with pytest.raises(TypeError):
            vars(rep)
        with pytest.raises(AttributeError):
            rep.extra = 1

    def test_quickstart_edit_then_verify(self):
        quickstart = runpy.run_path(
            str(Path(__file__).parent.parent / "examples" / "quickstart.py"))
        weather = compile_description(quickstart["DESCRIPTION"])
        DATA = quickstart["DATA"]
        rep, _pd = next(iter(weather.records(DATA, "sample_t")))
        assert weather.verify(rep, "sample_t")
        rep.fahrenheit = 200
        assert rep.fahrenheit == 200
        assert not weather.verify(rep, "sample_t")


ENGINES = {"interp": compile_description, "gen": compile_generated}


@pytest.fixture(scope="module", params=[t[0] for t in GALLERY_TARGETS])
def gallery_file(request, tmp_path_factory):
    """``(target, path)`` for one gallery format: conforming records, with
    some errors injected into the text formats."""
    target = {t[0]: t for t in GALLERY_TARGETS}[request.param]
    _, text, rtype, ambient, discipline = target
    desc = compile_description(text, ambient=ambient, discipline=discipline)
    rng = random.Random(20051)
    records = list(generate_records(desc, rtype, N_RECORDS, rng))
    if ambient == "ascii":
        inject = ErrorInjector(0.2)
        records = [inject.maybe_corrupt(r[:-1], rng) + b"\n"
                   for r in records]
    path = tmp_path_factory.mktemp("reps") / f"{request.param}.dat"
    path.write_bytes(b"".join(records))
    return target, path


def _reps(target, engine, path, options):
    _, text, rtype, ambient, discipline = target
    desc = ENGINES[engine](text, ambient=ambient, discipline=discipline)
    return [rep for rep, _pd in run(desc, path, "records", rtype,
                                    options).pairs]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_reps_pickle_by_value(gallery_file, engine):
    target, path = gallery_file
    reps = _reps(target, engine, path, ExecOptions())
    assert reps
    for rep in reps:
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep
        assert _shape(back) == _shape(rep)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("options", [ExecOptions(jobs=2),
                                     ExecOptions(checkpoint=37)],
                         ids=["parallel", "durable"])
def test_modes_return_the_serial_reps_and_types(gallery_file, engine,
                                                 options):
    target, path = gallery_file
    want = _reps(target, engine, path, ExecOptions())
    got = _reps(target, engine, path, options)
    assert got == want
    assert [_shape(rep) for rep in got] == [_shape(rep) for rep in want]


@pytest.mark.parametrize("name", [t[0] for t in GALLERY_TARGETS])
def test_fast_path_and_general_parser_build_the_same_types(name):
    _, text, rtype, ambient, discipline = {t[0]: t for t in GALLERY_TARGETS}[name]
    ref = compile_description(text, ambient=ambient, discipline=discipline,
                              fastpath=False)
    data = b"".join(generate_records(ref, rtype, 40, random.Random(7)))
    want = [_shape(rep) for rep, _ in ref.records(data, rtype)]
    for build in (compile_description, compile_generated):
        desc = build(text, ambient=ambient, discipline=discipline)
        assert [_shape(rep) for rep, _ in desc.records(data, rtype)] == want
