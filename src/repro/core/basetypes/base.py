"""Base-type protocol and the user-extensible registry.

A *base type* describes atomic data.  Every base type knows how to

* ``parse`` itself from a :class:`~repro.core.io.Source` (returning a value
  and an :class:`~repro.core.errors.ErrCode`),
* ``write`` a value back in its physical form (used by the paper's
  ``write2io`` functions and the round-trip property tests),
* ``generate`` a random conforming value (supporting the data generator,
  which the paper lists as future work and which we rely on in place of
  AT&T's proprietary data), and
* report a ``default`` value used when a field is unparseable or masked
  out.

The registry maps base-type *names* to factories.  Names carry an explicit
coding prefix (``Pa_``, ``Pb_``, ``Pe_``) or are ambient-coded bare names
(``Puint32``) resolved against the current ambient coding, exactly as the
paper describes.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ErrCode, PadsError
from ..io import Source

AMBIENT_ASCII = "ascii"
AMBIENT_BINARY = "binary"
AMBIENT_EBCDIC = "ebcdic"


class UnknownBaseType(PadsError):
    pass


class BaseType:
    """Protocol for atomic types.  Subclasses override the four hooks.

    A *fixed-width* type declares its byte width in ``static_width`` and
    its converter, :meth:`convert`; the shared :meth:`parse` and every
    compiled path (the static-size analysis, the regex fast path and the
    batch kernel) read those two.  Every other type, user-defined ones
    included, leaves ``static_width`` None and overrides :meth:`parse`.
    """

    #: value category, used by accumulators / XML schema / formatting:
    #: 'int', 'float', 'string', 'char', 'date', 'ip', 'none'
    kind = "string"
    name = "Pbase"
    #: Byte width of a fixed-width type; None for a variable-width one.
    static_width: Optional[int] = None
    #: What the shared parse reports for a read short of ``static_width``
    #: bytes, and for bytes the converter rejects.
    short_code = ErrCode.WIDTH_NOT_AVAILABLE
    invalid_code: ErrCode
    #: Bounds a value must fall within under semantic checking.
    lo: Optional[int] = None
    hi: Optional[int] = None

    def parse(self, src: Source, sem_check: bool) -> Tuple[object, ErrCode]:
        """Parse one value at the cursor.

        On a syntax error the cursor is left where the error was detected
        (usually unmoved) and the returned value is ``self.default()``.
        ``sem_check`` gates semantic validation such as integer range
        checks, mirroring mask-controlled checking.

        This is the parse of every fixed-width type: ``static_width``
        bytes through :meth:`convert`, then the range check.
        """
        width = self.static_width
        if width is None:
            raise NotImplementedError
        start = src.pos
        raw = src.take(width)
        if len(raw) < width:
            src.pos = start
            return self.default(), self.short_code
        value = self.convert(raw)
        if value is None:
            src.pos = start
            return self.default(), self.invalid_code
        if sem_check and self.lo is not None and not self.lo <= value <= self.hi:
            return value, ErrCode.RANGE_ERR
        return value, ErrCode.NO_ERR

    def convert(self, raw: bytes) -> object:
        """A fixed-width type's ``static_width`` raw bytes to its value,
        or None when they spell none."""
        raise NotImplementedError

    def write(self, value: object) -> bytes:
        """Render ``value`` in this type's physical form."""
        raise NotImplementedError

    def default(self) -> object:
        return None

    def generate(self, rng: random.Random) -> object:
        """A random legal value (used by :mod:`repro.tools.datagen`)."""
        raise NotImplementedError(f"{self.name} cannot generate data")

    def xsd_type(self) -> str:
        return {"int": "xs:long", "float": "xs:double", "date": "xs:string",
                "none": "xs:string"}.get(self.kind, "xs:string")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


Factory = Callable[..., BaseType]

_REGISTRY: Dict[str, Tuple[Factory, int, int]] = {}
_AMBIENT_ALIASES: Dict[str, Dict[str, str]] = {
    AMBIENT_ASCII: {},
    AMBIENT_BINARY: {},
    AMBIENT_EBCDIC: {},
}


def register_base_type(name: str, factory: Factory,
                       min_args: int = 0, max_args: Optional[int] = None) -> None:
    """Register a base type under ``name``.

    ``factory(*arg_values)`` must return a :class:`BaseType`.  ``min_args``
    and ``max_args`` bound the number of ``(: ... :)`` parameters accepted
    at use sites (checked by the DSL typechecker).
    """
    if max_args is None:
        max_args = min_args
    _REGISTRY[name] = (factory, min_args, max_args)


def register_ambient_alias(bare: str, coding: str, concrete: str) -> None:
    """Declare that bare name ``bare`` means ``concrete`` under ``coding``."""
    _AMBIENT_ALIASES[coding][bare] = concrete


def is_base_type(name: str) -> bool:
    if name in _REGISTRY:
        return True
    return any(name in aliases for aliases in _AMBIENT_ALIASES.values())


def base_type_names() -> List[str]:
    names = set(_REGISTRY)
    for aliases in _AMBIENT_ALIASES.values():
        names.update(aliases)
    return sorted(names)


def base_type_arity(name: str, ambient: str = AMBIENT_ASCII) -> Tuple[int, int]:
    """(min, max) parameter count for a base-type name."""
    resolved = _AMBIENT_ALIASES.get(ambient, {}).get(name, name)
    if resolved not in _REGISTRY:
        # Fall back to any coding that defines the alias (for arity checks
        # the coding never changes the parameter count).
        for aliases in _AMBIENT_ALIASES.values():
            if name in aliases and aliases[name] in _REGISTRY:
                resolved = aliases[name]
                break
    if resolved not in _REGISTRY:
        raise UnknownBaseType(f"unknown base type {name!r}")
    _, lo, hi = _REGISTRY[resolved]
    return lo, hi


def resolve_base_type(name: str, args: tuple = (), ambient: str = AMBIENT_ASCII) -> BaseType:
    """Instantiate base type ``name`` with evaluated argument values."""
    resolved = _AMBIENT_ALIASES.get(ambient, {}).get(name, name)
    if resolved not in _REGISTRY:
        raise UnknownBaseType(
            f"unknown base type {name!r} (ambient coding: {ambient})")
    factory, lo, hi = _REGISTRY[resolved]
    if not (lo <= len(args) <= hi):
        raise PadsError(
            f"base type {name} takes {lo}"
            + (f"..{hi}" if hi != lo else "")
            + f" parameter(s), got {len(args)}")
    instance = factory(*args)
    instance.name = name if not args else f"{name}(:{', '.join(map(repr, args))}:)"
    return instance
