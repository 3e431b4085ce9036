"""The parse trace is well formed: positions nest, and only the parse
that was kept leaves events.

Every gallery description is traced over its sample and over generated
records with injected errors (so rejected trials and error exits occur);
the trace must balance, nest by path and by span, name only the taken
union branches, and reach a JSONL sink exactly as it reaches the buffer.
"""

import io
import random
import re

import pytest

from repro import compile_description, gallery, observe
from repro.tools.datagen import ErrorInjector, generate_source

_STEP = re.compile(r"\.?(\w+)|<(\w+)>|\[(\d+)\]")

#: (loader, record type, sample lines of that type)
GALLERY = {
    "clf": (gallery.load_clf, "entry_t", gallery.CLF_SAMPLE.splitlines()),
    "sirius": (gallery.load_sirius, "entry_t",
               gallery.SIRIUS_SAMPLE.splitlines()[1:]),
    "calldetail": (gallery.load_call_detail, "call_t", []),
    "netflow": (gallery.load_netflow, "nf_packet_t", []),
    "regulus": (gallery.load_regulus, "util_t", []),
}


def _traced_records(desc, data, rtype):
    sink = io.StringIO()
    with observe.observed(trace_sink=sink) as obs:
        reps = list(desc.records(data, rtype))
    return reps, obs.tracer, sink.getvalue().splitlines()


def _check_nesting(events):
    """Enter/exit balance and nest, each path extends its parent's by one
    step, and each child's span lies inside its parent's."""
    stack = []  # [path, start, child spans]
    for e in events:
        if e.kind == "record":
            assert not stack, f"record event inside {stack[-1][0]}"
            continue
        if e.kind == "enter":
            parent = stack[-1][0] if stack else ""
            step = e.path[len(parent):]
            assert e.path.startswith(parent) and \
                re.fullmatch(r"<\w+>|\[\d+\]" + (r"|\.\w+" if parent
                                                 else r"|\w+"), step), \
                (parent, e.path)
            stack.append([e.path, e.start, []])
            continue
        path, start, children = stack.pop()
        assert e.path == path and e.start == start and e.end >= start
        for s, t in children:
            assert start <= s <= t <= e.end, (path, (s, t), (start, e.end))
        if stack:
            stack[-1][2].append((e.start, e.end))
    assert not stack


def _check_branches(events, reps):
    """Every branch an event names is the one its union's rep took."""
    for e in events:
        if e.kind == "record" or "<" not in e.path:
            continue
        value = reps[e.record][0]
        for field, branch, index in _STEP.findall(e.path):
            if index:
                value = value[int(index)]
            elif field:
                value = getattr(value, field)
            else:
                assert value.tag == branch, (e.path, value.tag)
                value = value.value


def _pd_at(pd, path):
    """The descriptor at trace position ``path`` below ``pd``, or None
    where it is omitted (a clean position, or a ``Punion``'s branch,
    which is kept only when clean)."""
    for field, _branch, index in _STEP.findall(path):
        if pd is None:
            return None
        if index:
            elts = pd.elts
            pd = elts[int(index)] if int(index) < len(elts) else None
        elif field:
            pd = pd.fields.get(field)
        else:
            pd = pd.branch
    return pd


def _check_outcomes(events, reps):
    """Every exit's outcome is that of the descriptor at its path, and
    every record event's that of its record's descriptor."""
    for e in events:
        if e.kind == "enter":
            continue
        pd = reps[e.record][1]
        if e.kind == "exit":
            pd = _pd_at(pd, e.path)
        want = ("ok", "") if pd is None else observe.outcome_of(pd)
        assert (e.outcome, e.err_code) == want, (e.record, e.path)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_trace_is_well_formed(name):
    load, rtype, sample = GALLERY[name]
    desc = load()
    data = "".join(line + "\n" for line in sample).encode("latin-1")
    data += generate_source(desc, rtype, 40, random.Random(3),
                            ErrorInjector(0.5))
    reps, tracer, sink_lines = _traced_records(desc, data, rtype)
    events = tracer.events
    assert any(pd.nerr for _, pd in reps)
    assert any(e.kind == "exit" and e.outcome != "ok" for e in events)
    assert sum(e.kind == "record" for e in events) == len(reps)
    _check_nesting(events)
    _check_branches(events, reps)
    _check_outcomes(events, reps)
    assert tracer.dropped == 0
    assert [e.to_json() for e in events] == sink_lines


def _paths(events, kind="exit"):
    return [e.path for e in events if e.kind == kind]


def test_taken_branch_encloses_its_fields(sirius):
    # Figure 5: the ramp of this order is `no_ii152272`, the genRamp
    # branch; the branch is entered before its `id` field parses.
    line = gallery.SIRIUS_SAMPLE.splitlines()[1] + "\n"
    with observe.observed(trace=True) as obs:
        sirius.parse(line, "entry_t")
    entered = _paths(obs.tracer.events, "enter")
    assert "header.ramp.id" not in entered
    assert entered.index("header.ramp<genRamp>") < \
        entered.index("header.ramp<genRamp>.id")
    assert "header.ramp<ramp>" not in entered


def test_array_elements_are_positions(sirius):
    line = gallery.SIRIUS_SAMPLE.splitlines()[2] + "\n"
    with observe.observed(trace=True) as obs:
        sirius.parse(line, "entry_t")
    exits = _paths(obs.tracer.events)
    assert [p for p in exits if p.startswith("events[")] == [
        "events[0].state", "events[0].tstamp", "events[0]",
        "events[1].state", "events[1].tstamp", "events[1]"]
    # Element-at-a-time reading traces the same positions.
    with observe.observed(trace=True) as obs:
        list(sirius.array_elements(line.split("|", 13)[-1], "eventSeq"))
    assert _paths(obs.tracer.events) == [
        "[0].state", "[0].tstamp", "[0]", "[1].state", "[1].tstamp", "[1]"]


def test_record_elements_carry_their_record(clf):
    # The elements of a Psource array of records: element [i] opens
    # record i, and both its events say so.
    with observe.observed(trace=True) as obs:
        clf.parse(gallery.CLF_SAMPLE)
    assert [(e.kind, e.path, e.record) for e in obs.tracer.events
            if re.fullmatch(r"\[\d+\]", e.path)] == [
        ("enter", "[0]", 0), ("exit", "[0]", 0),
        ("enter", "[1]", 1), ("exit", "[1]", 1)]


def test_field_constraint_is_inside_its_span(clf):
    # `version` parses, then fails its constraint (chkVersion: LINK
    # needs HTTP/1.1): the field exits with the violation.
    line = gallery.CLF_SAMPLE.splitlines()[0].replace("GET", "LINK")
    with observe.observed(trace=True) as obs:
        _rep, pd = clf.parse(line + "\n", "entry_t")
    version = pd.fields["request"].fields["version"]
    assert version.err_code.name == "USER_CONSTRAINT_VIOLATION"
    assert [(e.outcome, e.err_code) for e in obs.tracer.events
            if e.kind == "exit" and e.path == "request.version"] == [
        ("err", "USER_CONSTRAINT_VIOLATION")]


def test_rejected_branch_leaves_no_events():
    desc = compile_description(
        "Pstruct a_t {Puint32 x; ':'; Puint32 y;};"
        "Pstruct b_t {Puint32 x; ','; Puint32 z;};"
        "Punion u_t {a_t a; b_t b;};")
    sink = io.StringIO()
    with observe.observed(trace_sink=sink) as obs:
        rep, pd = desc.parse("12,34", "u_t")
    assert pd.nerr == 0 and rep.tag == "b"
    assert _paths(obs.tracer.events) == ["<b>.x", "<b>.z", "<b>"]
    # The sink never saw the withdrawn events either.
    assert sink.getvalue().splitlines() == \
        [e.to_json() for e in obs.tracer.events]


def test_absent_option_leaves_no_events():
    desc = compile_description(
        "Pstruct p_t {Puint32 x; ':'; Puint32 y;};"
        "Precord Pstruct r_t {Popt p_t o; ','; Puint32 z;};")
    with observe.observed(trace=True) as obs:
        rep, pd = desc.parse(",34\n", "r_t")
    assert pd.nerr == 0 and rep.o is None
    assert _paths(obs.tracer.events) == ["o", "z"]


def test_switch_case_is_a_position():
    desc = compile_description(
        "Punion s_t(:Puint8 k:) { Pswitch (k) {"
        " Pcase 1: Puint8 a; Pdefault: Pstring(:';':) s; } };"
        "Precord Pstruct r_t { Puint8 k; '|'; s_t(:k:) v; };")
    with observe.observed(trace=True) as obs:
        desc.parse("1|7\n", "r_t")
    assert _paths(obs.tracer.events) == ["k", "v<a>", "v"]
