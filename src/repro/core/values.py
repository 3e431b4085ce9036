"""In-memory representations produced by parsing.

The paper maps each PADS type onto a canonical C representation (Section
4): structs to C structs, unions to tagged unions, arrays to length+data,
enums to C enums.  The Python analogues:

* :class:`Rec` — struct values with attribute access and field order, one
  ``__slots__`` class per struct shape (:func:`rec_class`),
* :class:`UnionVal` — tagged union values,
* ``list`` — arrays (``length`` is exposed to constraints by the
  expression evaluator),
* :class:`EnumVal` — a ``str`` subclass carrying the integer code, so
  constraints may compare enum fields against literal names,
* :class:`DateVal` — a parsed date: comparable epoch seconds plus the raw
  text, so writing reproduces the original bytes.
"""

from __future__ import annotations

import datetime as _dt
import threading
import weakref
from typing import Iterator, List, Optional, Tuple


class Rec:
    """A struct value: ordered named fields with attribute access.

    Every struct shape (its tuple of field names, in declaration order)
    has its own ``__slots__`` subclass of this class, made once by
    :func:`rec_class` -- the Python twin of the paper's generated
    representation type.  A value carries no per-instance dict: the
    compiled parsers bind the class when the description is bound and
    fill its slots directly, and field reads are slot lookups.

    ``Rec(**fields)`` returns an instance of the class for those field
    names, so ``Rec(a=1, b=2)`` and a parsed struct with fields ``a, b``
    share a type and compare equal.  Values keep the mapping API
    (``[]``, ``in``, iteration, ``keys``, ``items``, ``==`` across
    shapes); an existing field may be reassigned, but a name that is not
    a field of the struct raises ``AttributeError``, and there is no
    ``__dict__`` (``vars(rep)`` fails; use ``dict(rep.items())``).
    """

    __slots__ = ()
    #: The field names of this shape, in declaration order.
    __rec_fields__: Tuple[str, ...] = ()

    def __new__(cls, **fields):
        return rec_class(tuple(fields))(*fields.values())

    def __reduce__(self):
        # By value: the worker that unpickles rebuilds (or finds) the
        # class for these names, so reps cross parallel and durable
        # workers as the same shape.
        names = self.__rec_fields__
        return _rebuild, (names, tuple(getattr(self, n) for n in names))

    def __getitem__(self, name: str):
        if name in self.__rec_fields__:
            return getattr(self, name)
        raise KeyError(name)

    def __setitem__(self, name: str, value) -> None:
        if name not in self.__rec_fields__:
            raise AttributeError(f"'Rec' object has no field {name!r}")
        setattr(self, name, value)

    def __contains__(self, name: str) -> bool:
        return name in self.__rec_fields__

    def __iter__(self) -> Iterator[str]:
        return iter(self.__rec_fields__)

    def items(self) -> List[Tuple[str, object]]:
        return [(n, getattr(self, n)) for n in self.__rec_fields__]

    def keys(self) -> Tuple[str, ...]:
        return self.__rec_fields__

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            names = self.__rec_fields__
            return ([getattr(self, n) for n in names]
                    == [getattr(other, n) for n in names])
        if isinstance(other, Rec):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Rec({inner})"


#: One class per shape for the whole process, so the ``Rec`` constructor,
#: every description and unpickling agree on it.  Held weakly: the shapes
#: of descriptions no longer in use (a long-running ``padsc serve``
#: compiles whatever its tenants send) are freed with them.
_CLASSES: "weakref.WeakValueDictionary[Tuple[str, ...], type]" = \
    weakref.WeakValueDictionary()
_MAKING = threading.Lock()


def rec_class(names: Tuple[str, ...]) -> type:
    """The :class:`Rec` subclass for struct field names ``names``, made
    on first request and shared by every later one.

    Its constructor takes the field values positionally, in ``names``
    order.  The compiled parsers skip even that call: they allocate with
    ``object.__new__`` and store each slot.
    """
    cls = _CLASSES.get(names)
    if cls is None:
        with _MAKING:
            cls = _CLASSES.get(names)
            if cls is None:
                cls = _CLASSES[names] = _make_class(names)
    return cls


def _make_class(names: Tuple[str, ...]) -> type:
    args = "".join(f", _{i}" for i in range(len(names)))
    stores = "".join(f"    self.{n} = _{i}\n" for i, n in enumerate(names))
    ns = {"_new": object.__new__}
    exec(f"def __new__(cls{args}):\n    self = _new(cls)\n{stores}"
         "    return self\n", ns)
    # A class name of underscores only turns off the private-name
    # mangling of slots such as ``__x``.
    cls = type("_", (Rec,), {"__slots__": names, "__rec_fields__": names,
                             "__new__": ns["__new__"],
                             "__module__": __name__})
    cls.__name__ = cls.__qualname__ = "Rec"
    return cls


def _rebuild(names: Tuple[str, ...], values: tuple) -> Rec:
    """Unpickle one :class:`Rec` (see ``Rec.__reduce__``)."""
    return rec_class(names)(*values)


class UnionVal:
    """A tagged union value: the branch name plus the branch value.

    Attribute access by branch name projects the value (like C's
    ``u.val.branch``); accessing a different branch raises, which surfaces
    as a constraint-evaluation error rather than silently comparing
    garbage.
    """

    __slots__ = ("tag", "value")

    def __init__(self, tag: str, value):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    def __getattr__(self, name: str):
        if name == object.__getattribute__(self, "tag"):
            return object.__getattribute__(self, "value")
        raise AttributeError(
            f"union holds {object.__getattribute__(self, 'tag')!r}, not {name!r}")

    def __setattr__(self, name, value):
        raise AttributeError("union values are immutable; build a new one")

    def __reduce__(self):
        # Default slot-based unpickling would trip the immutability guard;
        # rebuild through the constructor instead (parallel workers ship
        # parsed reps back to the parent by pickle).
        return (UnionVal,
                (object.__getattribute__(self, "tag"),
                 object.__getattribute__(self, "value")))

    def __eq__(self, other) -> bool:
        if isinstance(other, UnionVal):
            return self.tag == other.tag and self.value == other.value
        return NotImplemented

    def __repr__(self) -> str:
        return f"UnionVal({self.tag!r}, {self.value!r})"


class EnumVal(str):
    """An enum value: compares as its literal name, carries the int code."""

    def __new__(cls, name: str, code: int = 0, physical: Optional[str] = None):
        self = super().__new__(cls, name)
        self.code = code
        self.physical = physical if physical is not None else name
        return self

    def __int__(self) -> int:
        return self.code


class FloatVal(float):
    """A parsed float that remembers its physical spelling.

    ``0``, ``0.0`` and ``0e0`` all parse to the same number; keeping the
    raw text lets ``write`` reproduce the input byte-for-byte.  Behaves as
    a plain float everywhere else.
    """

    def __new__(cls, value, raw: str = ""):
        self = super().__new__(cls, value)
        self.raw = raw or repr(float(value))
        return self

    def __repr__(self) -> str:
        return f"FloatVal({float(self)!r}, {self.raw!r})"


class DateVal:
    """A parsed date: epoch seconds (UTC) plus the raw matched text."""

    __slots__ = ("epoch", "raw")

    def __init__(self, epoch: int, raw: str = ""):
        self.epoch = int(epoch)
        self.raw = raw or self.strftime("%Y-%m-%d %H:%M:%S")

    @classmethod
    def from_datetime(cls, dt: _dt.datetime, raw: str = "") -> "DateVal":
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=_dt.timezone.utc)
        return cls(int(dt.timestamp()), raw)

    def datetime(self) -> _dt.datetime:
        return _dt.datetime.fromtimestamp(self.epoch, _dt.timezone.utc)

    def strftime(self, fmt: str) -> str:
        # Expand the C-library shorthands the paper's example uses ("%D:%T").
        fmt = fmt.replace("%D", "%m/%d/%y").replace("%T", "%H:%M:%S")
        return self.datetime().strftime(fmt)

    def _key(self, other):
        if isinstance(other, DateVal):
            return other.epoch
        if isinstance(other, (int, float)):
            return other
        return NotImplemented

    def __eq__(self, other):
        key = self._key(other)
        return NotImplemented if key is NotImplemented else self.epoch == key

    def __lt__(self, other):
        key = self._key(other)
        return NotImplemented if key is NotImplemented else self.epoch < key

    def __le__(self, other):
        key = self._key(other)
        return NotImplemented if key is NotImplemented else self.epoch <= key

    def __gt__(self, other):
        key = self._key(other)
        return NotImplemented if key is NotImplemented else self.epoch > key

    def __ge__(self, other):
        key = self._key(other)
        return NotImplemented if key is NotImplemented else self.epoch >= key

    def __hash__(self):
        return hash(self.epoch)

    def __repr__(self) -> str:
        return f"DateVal({self.epoch}, {self.raw!r})"

    def __str__(self) -> str:
        return self.raw
