"""Tests for delimited formatting (paper Section 5.3.1 / Figure 8).

The compiled formatter (:func:`repro.tools.fmt.formatter`) is checked
differentially against the tree walk, the reference semantics: on every
gallery description, with errors injected, under random options, and on
hand-built reps the parser never produces.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mask, P_CheckAndSet, P_Ignore, compile_description, gallery
from repro.core.values import DateVal, EnumVal, FloatVal
from repro.faults import GALLERY_TARGETS
from repro.plan.lines import MAX_DEPTH
from repro.tools import fmt
from repro.tools.datagen import clf_workload, plan_injector, sirius_workload
from repro.tools.datagen import generate_source as generate_data
from repro.tools.fmt import (FormatSpec, format_records, format_value,
                             formatter)


class TestFigure8:
    def test_clf_formatting_matches_paper(self, clf):
        """Delimiter "|" + date format "%D:%T" over Figure 2's data must
        yield exactly Figure 8's output."""
        lines = list(format_records(clf, gallery.CLF_SAMPLE, "entry_t",
                                    delims=["|"], date_format="%D:%T"))
        assert "\n".join(lines) + "\n" == gallery.CLF_FORMATTED


class TestFormatValue:
    DESC = """
      Punion who_t { Pip ip; Pstring(:' ':) name; };
      Pstruct inner_t { Puint8 x; ','; Puint8 y; };
      Pstruct rec_t {
        who_t who; ' ';
        inner_t pos; ' ';
        Popt Puint32 size;
      };
    """

    @pytest.fixture(scope="class")
    def d(self):
        return compile_description(self.DESC)

    def test_flattening(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        assert format_value(d.node("rec_t"), rep) == "1.2.3.4|7|9|42"

    def test_nested_delimiters_advance(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        text = format_value(d.node("rec_t"), rep, delims=["|", ";"])
        # Nested struct fields use the second delimiter.
        assert text == "1.2.3.4|7;9|42"

    def test_last_delimiter_reused_when_exhausted(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        assert format_value(d.node("rec_t"), rep, delims=["|"]) == "1.2.3.4|7|9|42"

    def test_opt_none_renders_empty(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 ", "rec_t")
        assert format_value(d.node("rec_t"), rep) == "1.2.3.4|7|9|"

    def test_none_text_customisable(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 ", "rec_t")
        assert format_value(d.node("rec_t"), rep,
                            none_text="NONE").endswith("|NONE")

    def test_mask_suppresses_fields(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        mask = Mask(P_CheckAndSet).with_field("pos", Mask(P_Ignore))
        assert format_value(d.node("rec_t"), rep, mask=mask) == "1.2.3.4|42"

    def test_custom_formatter(self, d):
        rep, _ = d.parse(b"1.2.3.4 7,9 42", "rec_t")
        custom = {"inner_t": lambda v: f"({v.x},{v.y})"}
        assert format_value(d.node("rec_t"), rep,
                            custom=custom) == "1.2.3.4|(7,9)|42"

    def test_union_formats_active_branch(self, d):
        rep, _ = d.parse(b"wally 7,9 1", "rec_t")
        assert format_value(d.node("rec_t"), rep).startswith("wally|")


class TestFormatRecords:
    def test_skip_errors(self, clf):
        bad = gallery.CLF_SAMPLE.replace(" 200 30", " 200 -")
        lines = list(format_records(clf, bad, "entry_t", skip_errors=True))
        assert len(lines) == 1

    def test_arrays_flatten(self, sirius):
        body = gallery.SIRIUS_SAMPLE.split("\n", 1)[1]
        lines = list(format_records(sirius, body, "entry_t"))
        assert lines[1].endswith("LOC_CRTE|1001476800|LOC_OS_10|1001649601")
        # Formatted output with '|' equals the raw pipe-separated data here.
        assert lines[1].startswith("9153|9153|1|0|0|0|0|")


# -- the compiled formatter against the walk ----------------------------------


class Fallback(Exception):
    """Raised in place of the walk: the compiled code gave up."""


def _fail(_rep):
    raise Fallback


def compiled_only(node, delims=("|",), date_format=None, none_text=""):
    """The compiled function alone, with the walk fallback replaced by
    :class:`Fallback` so a test can tell which path produced a string."""
    nodes = []
    shape = fmt._shape(node, nodes)
    delims = tuple(delims)[:fmt._max_depth(shape) + 1]
    return fmt._template(shape, delims, date_format, none_text)(nodes, _fail)


def walk(node, rep, **options):
    spec = FormatSpec(**options)
    return fmt._join(node, rep, spec, spec.mask, 0)


def outcome(fn, *args, **kwargs):
    """``fn``'s string, or its exception's type and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except Fallback:
        raise
    except Exception as exc:
        return type(exc).__name__, str(exc)


def check_same(node, reps, **options):
    """Assert the formatter equals the walk on every rep; returns how many
    of them the compiled code formatted without falling back."""
    fn = formatter(node, **options)
    raw = compiled_only(node, options.get("delims") or ("|",),
                        options.get("date_format"),
                        options.get("none_text", ""))
    hits = 0
    for rep in reps:
        want = outcome(walk, node, rep, **options)
        assert outcome(fn, rep) == want, rep
        try:
            got = outcome(raw, rep)
        except Fallback:
            continue
        assert got == want, rep
        hits += 1
    return hits


def _gallery_input(name, desc, rtype):
    rng = random.Random(20050612)
    if name == "clf":
        return clf_workload(200, rng)
    if name == "sirius":
        return sirius_workload(150, rng, syntax_errors=15,
                               sort_violations=2).split(b"\n", 1)[1]
    return generate_data(desc, rtype, 120, rng, plan_injector(desc, rtype, 0.3))


@pytest.mark.parametrize("target", GALLERY_TARGETS, ids=lambda t: t[0])
def test_compiled_matches_walk_on_the_gallery(target):
    name, text, rtype, ambient, discipline = target
    desc = compile_description(text, ambient=ambient, discipline=discipline)
    pairs = list(desc.records(_gallery_input(name, desc, rtype), rtype))
    assert any(pd.nerr for _, pd in pairs), "no error records to exercise"
    reps = [rep for rep, _ in pairs]
    for options in ({}, {"delims": [",", ";", ":"], "date_format": "%D:%T",
                         "none_text": "NULL"}):
        assert check_same(desc.node(rtype), reps, **options) == len(reps)
    # Every declared type, over generated values.
    rng = random.Random(7)
    for tname in desc.type_names:
        try:
            values = [desc.generate(tname, rng) for _ in range(20)]
        except NotImplementedError:
            continue
        assert check_same(desc.node(tname), values,
                          delims=["|", ";"]) == len(values)


DELIM = st.text(alphabet=st.sampled_from(
    list("|;,'\"\\\n\t ") + ["\xe9", "\xff", "\x00", "a"]), max_size=3)


@pytest.fixture(scope="module")
def option_reps():
    clf = gallery.load_clf()
    sirius = gallery.load_sirius()
    body = sirius_workload(40, random.Random(3), syntax_errors=4,
                           sort_violations=1).split(b"\n", 1)[1]
    return [(clf.node("entry_t"),
             [r for r, _ in clf.records(clf_workload(40, random.Random(3)),
                                        "entry_t")]),
            (sirius.node("entry_t"),
             [r for r, _ in sirius.records(body, "entry_t")])]


@settings(max_examples=60, deadline=None)
@given(delims=st.lists(DELIM, max_size=4),
       date_format=st.sampled_from([None, "%D:%T"]),
       none_text=st.sampled_from(["", "NONE", "'\\\n", "\xe9"]))
def test_compiled_matches_walk_under_random_options(option_reps, delims,
                                                    date_format, none_text):
    for node, reps in option_reps:
        hits = check_same(node, reps, delims=delims, date_format=date_format,
                          none_text=none_text)
        assert hits == len(reps)


ODD_DESC = """
  Penum color_t { RED, GREEN };
  Punion who_t { Pip ip; Pstring(:' ':) name; };
  Pstruct inner_t { Puint8 x; ','; Puint8 y; };
  Parray pair_t { Puint8 [2] : Psep(','); };
  Pstruct rec_t {
    who_t who; ' ';
    inner_t pos; ' ';
    Popt Puint32 size; ' ';
    color_t color; ' ';
    Pfloat ratio; ' ';
    pair_t pair;
  };
"""


def _odd_reps():
    ns = SimpleNamespace
    good = dict(who=ns(tag="ip", value="1.2.3.4"), pos=ns(x=7, y=9), size=42,
                color=EnumVal("RED", 0), ratio=FloatVal(2.5, "2.50"),
                pair=[1, 2])
    yield ns(**good)
    for field, value in [
            ("who", ns(tag="zzz", value=1)),     # unknown tag: none_text
            ("who", ns(value=1)),                # no tag: the walk's error
            ("who", None),
            ("who", ns(tag=None, value=None)),
            ("pos", None),                       # None in place of a struct
            ("pos", ns(x=True, y=False)),        # bools
            ("pos", ns(x=FloatVal(1.0, "1"), y=2.0)),
            ("pos", ns(x=DateVal(0, "then"), y=EnumVal("GREEN", 1))),
            ("pos", ns(x="a", y=b"b")),          # bytes: str() of it
            ("pos", ns(x=1, y=DateVal(0, b"raw"))),  # a non-str piece
            ("pos", ns(x=object())),             # a missing attribute
            ("size", None),
            ("size", True),
            ("color", None),
            ("ratio", 3),
            ("pair", None),
            ("pair", []),
            ("pair", 5),                         # not iterable: the walk's error
            ("pair", "ab"),
            ("pair", [None, DateVal(86400, "")])]:
        yield ns(**dict(good, **{field: value}))
    rep = ns(**good)
    del rep.size                                 # missing attribute
    yield rep
    yield None
    yield 12


@pytest.mark.parametrize("options", [
    {}, {"none_text": "-", "date_format": "%D:%T"},
    {"delims": ["", ";;"]}])
def test_compiled_matches_walk_on_odd_reps(options):
    d = compile_description(ODD_DESC)
    node = d.node("rec_t")
    reps = list(_odd_reps())
    assert check_same(node, reps, **options) > len(reps) // 2
    parsed, _ = d.parse(b"fred 1,2 3 GREEN 0.5 4,5", "rec_t")
    assert check_same(node, [parsed], **options) == 1


def test_walk_errors_come_from_the_walk():
    node = compile_description(ODD_DESC).node("rec_t")
    rep = SimpleNamespace(who=None)
    with pytest.raises(AttributeError, match="'NoneType' object has no "
                                             "attribute 'tag'"):
        format_value(node, rep)


# -- which path runs ------------------------------------------------------------


UNIQUE = """
  Pstruct fmt_probe_inner_t { Puint8 fmt_probe_x; ','; Puint8 fmt_probe_y; };
  Pstruct fmt_probe_t {
    fmt_probe_inner_t fmt_probe_pos; ' ';
    Puint32 fmt_probe_n;
  };
"""


def test_custom_formatters_and_field_masks_use_the_walk():
    d = compile_description(UNIQUE)
    node = d.node("fmt_probe_t")
    rep, _ = d.parse(b"7,9 42", "fmt_probe_t")
    before = fmt._template.cache_info().misses
    calls = []

    def custom(v):
        calls.append(v)
        return "C"
    assert format_value(node, rep, custom={"fmt_probe_inner_t": custom}) \
        == "C|42"
    assert len(calls) == 1  # user code runs once
    mask = Mask(P_CheckAndSet).with_field("fmt_probe_n", Mask(P_Ignore))
    assert format_value(node, rep, mask=mask) == "7|9"
    assert format_value(node, rep, mask=Mask(P_Ignore)) == ""
    assert fmt._template.cache_info().misses == before
    assert not getattr(node, "_formatters", None)


def test_nothing_compiles_before_the_first_format():
    before = fmt._template.cache_info().misses
    d = compile_description(UNIQUE.replace("fmt_probe", "fmt_lazy"))
    node = d.node("fmt_lazy_t")
    rep, _ = d.parse(b"7,9 42", "fmt_lazy_t")
    assert fmt._template.cache_info().misses == before
    assert not hasattr(node, "_formatters")
    assert format_value(node, rep) == "7|9|42"
    assert fmt._template.cache_info().misses == before + 1
    # The same tree in another description reuses the template.
    twin = compile_description(UNIQUE.replace("fmt_probe", "fmt_lazy"))
    assert format_value(twin.node("fmt_lazy_t"), rep) == "7|9|42"
    assert fmt._template.cache_info().misses == before + 1


def test_equal_shapes_with_other_field_names():
    a = compile_description("Pstruct p_t { Puint8 x; ','; Puint8 y; };")
    b = compile_description("Pstruct p_t { Puint8 u; ','; Puint8 v; };")
    ra, _ = a.parse(b"1,2", "p_t")
    rb, _ = b.parse(b"3,4", "p_t")
    for _ in range(2):
        assert format_value(a.node("p_t"), ra) == "1|2"
        assert format_value(b.node("p_t"), rb) == "3|4"
    # Each node formats the other's rep through its own field names.
    assert format_value(a.node("p_t"), rb) == "|"


def test_the_cache_stays_bounded():
    d = compile_description(UNIQUE.replace("fmt_probe", "fmt_many"))
    node = d.node("fmt_many_t")
    rep, _ = d.parse(b"7,9 42", "fmt_many_t")
    for i in range(300):
        delims = [f"<{i}>", f"[{i}]"]
        assert format_value(node, rep, delims=delims) == \
            f"[{i}]".join(["7", "9"]).join(["", f"<{i}>42"])
    assert len(node._formatters) <= fmt._NODE_MEMO
    info = fmt._template.cache_info()
    assert info.currsize <= info.maxsize


def test_only_reachable_delimiters_key_the_template():
    d = compile_description(UNIQUE.replace("fmt_probe", "fmt_depth"))
    node = d.node("fmt_depth_t")
    rep, _ = d.parse(b"7,9 42", "fmt_depth_t")
    assert format_value(node, rep, delims=["|", ";"]) == "7;9|42"
    before = fmt._template.cache_info().misses
    for tail in ("a", "b", "c"):
        assert format_value(node, rep, delims=["|", ";", tail]) == "7;9|42"
    assert fmt._template.cache_info().misses == before


def test_deep_trees_hand_subtrees_to_the_walk():
    depth = MAX_DEPTH + 6
    lines = ["Pstruct pair_t { Puint8 x; ':'; Puint8 y; };",
             "Pstruct leaf_t { Puint8 a; ','; pair_t b; };",
             "Punion u0_t { leaf_t n; Pstring(:';':) s; };"]
    for i in range(1, depth):
        lines.append(f"Punion u{i}_t {{ u{i - 1}_t a; Pchar c; }};")
    lines.append(f"Pstruct top_t {{ u{depth - 1}_t v; ';'; Puint8 w; }};")
    d = compile_description("\n".join(lines))
    node = d.node("top_t")
    rng = random.Random(5)
    reps = [d.generate("top_t", rng) for _ in range(30)]
    deep = SimpleNamespace(tag="n", value=SimpleNamespace(
        a=1, b=SimpleNamespace(x=2, y=4)))
    for _ in range(1, depth):  # down every union to the leaf struct
        deep = SimpleNamespace(tag="a", value=deep)
    reps.append(SimpleNamespace(v=deep, w=3))
    delims = ["|", ";", ",", ":"]
    assert format_value(node, reps[-1], delims=delims) == "1;2,4|3"
    assert check_same(node, reps, delims=delims) == len(reps)
    nodes = []
    source = fmt._FormatterSource(("|",)).source(fmt._shape(node, nodes))
    assert "_pieces(N[" in source


@pytest.mark.parametrize("options", [
    {"delims": [1, 2]}, {"delims": ["|", None]}, {"none_text": 0},
    {"date_format": ["%D"]}, {"date_format": 5}])
def test_options_the_source_cannot_hold_take_the_walk(options):
    d = gallery.load_clf()
    node = d.node("entry_t")
    reps = [rep for rep, _ in d.records(gallery.CLF_SAMPLE, "entry_t")]
    before = fmt._template.cache_info().misses
    for rep in reps:
        assert outcome(format_value, node, rep, **options) == \
            outcome(walk, node, rep, **options)
    assert fmt._template.cache_info().misses == before
