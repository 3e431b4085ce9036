"""Miscellaneous base types: the void type and counters.

``Pempty`` is the "void" type the paper uses to desugar ``Popt``: it
"always matches but never consumes any input" (Section 3).
"""

from __future__ import annotations

import random

from ..errors import ErrCode
from ..io import Source
from .base import (
    AMBIENT_ASCII,
    AMBIENT_BINARY,
    AMBIENT_EBCDIC,
    BaseType,
    register_ambient_alias,
    register_base_type,
)


class Empty(BaseType):
    """Matches always, consumes nothing, value ``None``."""

    kind = "none"
    static_width = 0  # its own parse: nothing to convert

    def parse(self, src: Source, sem_check: bool):
        return None, ErrCode.NO_ERR

    def write(self, value) -> bytes:
        return b""

    def default(self):
        return None

    def generate(self, rng: random.Random):
        return None


class CountToTerminator(BaseType):
    """``PcountX(:c:)`` — counts occurrences of a byte to end of record,
    consuming nothing.  Useful for data-dependent array sizes."""

    kind = "int"

    def __init__(self, target):
        if isinstance(target, str):
            target = target.encode("latin-1")
        elif isinstance(target, int):
            target = bytes([target])
        self.target = target

    def parse(self, src: Source, sem_check: bool):
        return src.scope_bytes().count(self.target), ErrCode.NO_ERR

    def write(self, value) -> bytes:
        return b""

    def default(self):
        return 0

    def generate(self, rng: random.Random):
        return 0


def _register() -> None:
    register_base_type("Pempty", Empty)
    for ambient in (AMBIENT_ASCII, AMBIENT_BINARY, AMBIENT_EBCDIC):
        register_ambient_alias("Pvoid", ambient, "Pempty")
    register_base_type("PcountX", CountToTerminator, min_args=1)


_register()
