"""The compiled accumulator adder (paper Section 5.2, Figure 6's
``<type>_acc_add``).

The accumulator counterpart of the plan's ``_fp_<type>``/``_fw_<type>``:
:class:`~repro.tools.accum.Accumulator`'s tree walk, unrolled once per
tree shape into one straight-line function that updates every
``ScalarAccum`` position inline, in walk order, for a clean record.  Each
inlined position is guarded by the value's exact type; any other value
goes to ``ScalarAccum.add`` (a scalar) or to the node's own walk (a
compound), so the generated code only handles the common case and the
reference semantics decide the rest.

The source is written with the plan's line writer and compiled once per
shape by its template step (:mod:`repro.plan.lines`), and cached; an
accumulator binds its own positions into the cached template on its
first add.  The module
is imported then too, so programs that never accumulate do not load it.
"""

from __future__ import annotations

import functools
import keyword
from typing import Dict, List

from ..core.values import DateVal, EnumVal, FloatVal
from ..plan.lines import MAX_DEPTH, Fresh, Lines, template

#: Scalar kind -> (exact-type guard, key expression, numeric?) for the
#: values whose add is inlined; kinds not listed always call
#: ``ScalarAccum.add``.
_INLINE = {
    "int": ("type({v}) is int", "{v}", True),
    "float": ("type({v}) is float or type({v}) is _FloatVal", "{v}", True),
    "date": ("type({v}) is _DateVal and type({v}.epoch) is int",
             "{v}.epoch", True),
    "enum": ("type({v}) is _EnumVal", "{v}", False),
    **{kind: ("type({v}) is str", "{v}", False)
       for kind in ("string", "char", "ip")},
}


def _shape(acc, nodes: List):
    """The template key of ``acc``'s tree, appending its nodes to
    ``nodes`` in the pre-order the adder source numbers them."""
    nodes.append(acc)
    if acc.form == "scalar":
        return ("scalar", acc.self_acc.kind)
    if acc.form == "array":
        return ("array", _shape(acc.elts, nodes))
    return (acc.form, tuple((name, _shape(child, nodes))
                            for name, child in acc.children.items()))


def _size(shape) -> int:
    form, sub = shape
    if form == "scalar":
        return 1
    if form == "array":
        return 1 + _size(sub)
    return 1 + sum(_size(child) for _, child in sub)


class _AdderSource:
    """Emits ``_make(N)``: binds the positions of the node list ``N``
    (see :func:`_shape`) and returns ``add(rep)`` for a clean record.  A
    subtree deeper than ``MAX_DEPTH`` is handed to its node's walk."""

    def __init__(self):
        self.out = Lines(depth=2)
        self.binds: Dict[str, str] = {}
        self.next = 0  # index in N of the node emitted next
        self.var = Fresh("v")

    def bind(self, name: str, attr: str, i: int) -> str:
        self.binds[name] = f"N[{i}].{attr}"
        return name

    def source(self, shape) -> str:
        self.node(shape, "rep")
        return "\n".join(
            ["def _make(N):"]
            + [f"    {name} = {expr}" for name, expr in self.binds.items()]
            + ["    def add(rep):"] + self.out.lines + ["    return add", ""])

    def count(self, slot: str, key: str, numeric: bool) -> None:
        """``ScalarAccum.add(key, None)`` for a key that passed its guard."""
        w = self.out
        w.w(f"{slot}.good += 1")
        if numeric:
            w.w(f"{slot}.total += {key}")
            for attr, op in (("min", "<"), ("max", ">")):
                w.w(f"m = {slot}.{attr}")
                w.w(f"if m is None or {key} {op} m: {slot}.{attr} = {key}")
            w.w(f"m = {slot}.summaries")
            w.w(f"if m is not None: m.add({key})")
        w.w(f"d = {slot}.values")
        with w.block(f"if {key} in d:"):
            w.w(f"d[{key}] += 1")
            w.w(f"{slot}.tracked_count += 1")
        with w.block(f"elif len(d) < {slot}.tracked_limit:"):
            w.w(f"d[{key}] = 1")
            w.w(f"{slot}.tracked_count += 1")

    def walk(self, i: int, var: str) -> None:
        self.out.w(f"{self.bind(f'w{i}', 'walk', i)}({var}, None)")

    def node(self, shape, var: str) -> None:
        w, i = self.out, self.next
        form, sub = shape
        if w.depth > MAX_DEPTH and form != "scalar":
            self.next += _size(shape)
            self.walk(i, var)
            return
        self.next += 1
        s = self.bind(f"s{i}", "self_acc", i)
        if form == "scalar":
            self.scalar(s, sub, var)
        elif form == "struct":
            self.struct(s, i, sub, var)
        elif form == "union":
            tag = f"t{i}"
            w.w(f"{tag} = getattr({var}, 'tag', None)")
            with w.block(f"if type({tag}) is str:"):
                self.count(s, tag, False)
                for n, (name, child) in enumerate(sub):
                    value = self.var()
                    with w.block(f"{'elif' if n else 'if'} {tag} == {name!r}:"):
                        w.w(f"{value} = {var}.value")
                        self.node(child, value)
            with w.block("else:"):
                self.walk(i, var)
        elif form == "opt":
            with w.block(f"if {var} is None:"):
                self.count(s, "'NONE'", False)
            with w.block("else:"):
                self.count(s, "'SOME'", False)
                self.node(sub[0][1], var)
        else:  # array
            self.count(s, "None", False)
            with w.block(f"if {var} is not None:"):
                w.w(f"n = len({var})")
                self.count(self.bind(f"l{i}", "lengths", i), "n", True)
                elt = self.var()
                with w.block(f"for {elt} in {var}:"):
                    self.node(sub, elt)

    def scalar(self, s: str, kind: str, var: str) -> None:
        w = self.out
        if kind not in _INLINE:
            w.w(f"{s}.add({var}, None)")
            return
        guard, key, numeric = _INLINE[kind]
        with w.block(f"if {guard.format(v=var)}:"):
            if key == "{v}":
                key = var
            else:
                w.w(f"k = {key.format(v=var)}")
                key = "k"
            self.count(s, key, numeric)
        with w.block("else:"):
            w.w(f"{s}.add({var}, None)")

    def struct(self, s: str, i: int, fields, var: str) -> None:
        w = self.out
        if not fields:
            self.count(s, "None", False)
            return
        # Fetch every field first: a missing one (``_add_struct`` skips
        # it) sends the whole struct to its walk before anything counted.
        values = [self.var() for _ in fields]
        with w.block("try:"):
            for value, (name, _) in zip(values, fields):
                ref = f"{var}.{name}" if name.isidentifier() \
                    and not keyword.iskeyword(name) \
                    else f"getattr({var}, {name!r})"
                w.w(f"{value} = {ref}")
        with w.block("except AttributeError:"):
            self.walk(i, var)
        with w.block("else:"):
            self.count(s, "None", False)
            for value, (_, child) in zip(values, fields):
                self.node(child, value)


@functools.lru_cache(maxsize=256)
def _adder_template(shape):
    """Compile the adder source for one tree shape; every accumulator of
    that shape, of any description, then binds the cached ``_make``."""
    return template(_AdderSource().source(shape), "<accumulator adder>",
                    {"_DateVal": DateVal, "_EnumVal": EnumVal,
                     "_FloatVal": FloatVal})


def bind_adder(acc):
    """``acc``'s compiled adder: the cached template over its own
    positions (a tree walk and one dict lookup, no compilation)."""
    nodes: List = []
    return _adder_template(_shape(acc, nodes))(nodes)
