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

The source is compiled once per shape and cached; an accumulator binds
its own positions into the cached template on its first add.  The module
is imported then too, so programs that never accumulate do not load it.
"""

from __future__ import annotations

import functools
import keyword
from typing import Dict, List

from ..core.values import DateVal, EnumVal, FloatVal

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

#: Deepest indentation the adder inlines; a subtree below it is handed to
#: its node's walk.  This keeps the source within CPython's limits on
#: nested indentation (100 levels) and loops (20) for any description.
_MAX_DEPTH = 16


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
    (see :func:`_shape`) and returns ``add(rep)`` for a clean record."""

    def __init__(self):
        self.lines: List[str] = []
        self.binds: Dict[str, str] = {}
        self.next = 0  # index in N of the node emitted next
        self.nvars = 0

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def bind(self, name: str, attr: str, i: int) -> str:
        self.binds[name] = f"N[{i}].{attr}"
        return name

    def var(self) -> str:
        self.nvars += 1
        return f"v{self.nvars}"

    def source(self, shape) -> str:
        self.node(shape, "rep", 2)
        return "\n".join(
            ["def _make(N):"]
            + [f"    {name} = {expr}" for name, expr in self.binds.items()]
            + ["    def add(rep):"] + self.lines + ["    return add", ""])

    def count(self, slot: str, key: str, numeric: bool, depth: int) -> None:
        """``ScalarAccum.add(key, None)`` for a key that passed its guard."""
        self.w(depth, f"{slot}.good += 1")
        if numeric:
            self.w(depth, f"{slot}.total += {key}")
            for attr, op in (("min", "<"), ("max", ">")):
                self.w(depth, f"m = {slot}.{attr}")
                self.w(depth, f"if m is None or {key} {op} m: "
                              f"{slot}.{attr} = {key}")
            self.w(depth, f"m = {slot}.summaries")
            self.w(depth, f"if m is not None: m.add({key})")
        self.w(depth, f"d = {slot}.values")
        self.w(depth, f"if {key} in d:")
        self.w(depth + 1, f"d[{key}] += 1")
        self.w(depth + 1, f"{slot}.tracked_count += 1")
        self.w(depth, f"elif len(d) < {slot}.tracked_limit:")
        self.w(depth + 1, f"d[{key}] = 1")
        self.w(depth + 1, f"{slot}.tracked_count += 1")

    def node(self, shape, var: str, depth: int) -> None:
        i = self.next
        form, sub = shape
        if depth > _MAX_DEPTH and form != "scalar":
            self.next += _size(shape)
            self.w(depth, f"{self.bind(f'w{i}', 'walk', i)}({var}, None)")
            return
        self.next += 1
        s = self.bind(f"s{i}", "self_acc", i)
        if form == "scalar":
            self.scalar(s, sub, var, depth)
        elif form == "struct":
            self.struct(s, i, sub, var, depth)
        elif form == "union":
            tag = f"t{i}"
            self.w(depth, f"{tag} = getattr({var}, 'tag', None)")
            self.w(depth, f"if type({tag}) is str:")
            self.count(s, tag, False, depth + 1)
            for n, (name, child) in enumerate(sub):
                value = self.var()
                self.w(depth + 1, f"{'elif' if n else 'if'} {tag} == {name!r}:")
                self.w(depth + 2, f"{value} = {var}.value")
                self.node(child, value, depth + 2)
            self.w(depth, "else:")
            self.w(depth + 1, f"{self.bind(f'w{i}', 'walk', i)}({var}, None)")
        elif form == "opt":
            self.w(depth, f"if {var} is None:")
            self.count(s, "'NONE'", False, depth + 1)
            self.w(depth, "else:")
            self.count(s, "'SOME'", False, depth + 1)
            self.node(sub[0][1], var, depth + 1)
        else:  # array
            self.count(s, "None", False, depth)
            self.w(depth, f"if {var} is not None:")
            self.w(depth + 1, f"n = len({var})")
            self.count(self.bind(f"l{i}", "lengths", i), "n", True, depth + 1)
            elt = self.var()
            self.w(depth + 1, f"for {elt} in {var}:")
            self.node(sub, elt, depth + 2)

    def scalar(self, s: str, kind: str, var: str, depth: int) -> None:
        if kind not in _INLINE:
            self.w(depth, f"{s}.add({var}, None)")
            return
        guard, key, numeric = _INLINE[kind]
        self.w(depth, f"if {guard.format(v=var)}:")
        if key == "{v}":
            key = var
        else:
            self.w(depth + 1, f"k = {key.format(v=var)}")
            key = "k"
        self.count(s, key, numeric, depth + 1)
        self.w(depth, "else:")
        self.w(depth + 1, f"{s}.add({var}, None)")

    def struct(self, s: str, i: int, fields, var: str, depth: int) -> None:
        if not fields:
            self.count(s, "None", False, depth)
            return
        # Fetch every field first: a missing one (``_add_struct`` skips
        # it) sends the whole struct to its walk before anything counted.
        values = [self.var() for _ in fields]
        self.w(depth, "try:")
        for value, (name, _) in zip(values, fields):
            ref = f"{var}.{name}" if name.isidentifier() \
                and not keyword.iskeyword(name) else f"getattr({var}, {name!r})"
            self.w(depth + 1, f"{value} = {ref}")
        self.w(depth, "except AttributeError:")
        self.w(depth + 1, f"{self.bind(f'w{i}', 'walk', i)}({var}, None)")
        self.w(depth, "else:")
        self.count(s, "None", False, depth + 1)
        for value, (_, child) in zip(values, fields):
            self.node(child, value, depth + 1)


@functools.lru_cache(maxsize=256)
def _adder_template(shape):
    """Compile the adder source for one tree shape; every accumulator of
    that shape, of any description, then binds the cached ``_make``."""
    source = _AdderSource().source(shape)
    namespace = {"_DateVal": DateVal, "_EnumVal": EnumVal,
                 "_FloatVal": FloatVal}
    exec(compile(source, "<accumulator adder>", "exec"), namespace)
    return namespace["_make"]


def bind_adder(acc):
    """``acc``'s compiled adder: the cached template over its own
    positions (a tree walk and one dict lookup, no compilation)."""
    nodes: List = []
    return _adder_template(_shape(acc, nodes))(nodes)
