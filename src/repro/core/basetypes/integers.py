"""Integer and floating-point base types.

Covers the paper's integer family in all three codings:

* ASCII variable-width (``Pa_int8`` .. ``Pa_uint64``): optional sign and a
  run of decimal digits, with width checking as a semantic condition
  ("checking that the resulting number fits in the indicated space, i.e.,
  16 bits for Pint16" — Section 3),
* ASCII fixed-width (``Pa_uint16_FW(:3:)`` and friends): exactly N bytes,
* binary (``Pb_*``): fixed-size two's-complement, little-endian by default
  with explicit ``_be`` variants,
* EBCDIC (``Pe_*``): like ASCII but over EBCDIC digit code points,
* floats: ASCII decimal (``Pa_float``) and IEEE binary (``Pb_float`` /
  ``Pb_double``).

Bare ambient names (``Puint32``, ``Pint16_FW``) are registered as aliases
for each ambient coding.
"""

from __future__ import annotations

import random
import struct
from typing import Tuple

from ..errors import ErrCode
from ..io import Source
from ..values import FloatVal
from .base import (
    AMBIENT_ASCII,
    AMBIENT_BINARY,
    AMBIENT_EBCDIC,
    BaseType,
    register_ambient_alias,
    register_base_type,
)

_ASCII_DIGITS = frozenset(b"0123456789")
# EBCDIC (cp037) digits 0-9 are 0xF0-0xF9.
_EBCDIC_DIGITS = frozenset(range(0xF0, 0xFA))
_EBCDIC_MINUS = 0x60
_EBCDIC_PLUS = 0x4E


def int_bounds(width: int, signed: bool) -> Tuple[int, int]:
    if signed:
        half = 1 << (width - 1)
        return -half, half - 1
    return 0, (1 << width) - 1


class AsciiInt(BaseType):
    """Variable-width ASCII decimal integer."""

    kind = "int"

    def __init__(self, width: int, signed: bool):
        self.width = width
        self.signed = signed
        self.lo, self.hi = int_bounds(width, signed)

    def parse(self, src: Source, sem_check: bool):
        start = src.pos
        neg = False
        if self.signed:
            head = src.peek(1)
            if head in (b"-", b"+"):
                src.skip(1)
                neg = head == b"-"
        digits = src.take_span(_ASCII_DIGITS)
        if not digits:
            src.pos = start
            return self.default(), ErrCode.INVALID_INT
        value = int(digits)
        if neg:
            value = -value
        if sem_check and not (self.lo <= value <= self.hi):
            return value, ErrCode.RANGE_ERR
        return value, ErrCode.NO_ERR

    def write(self, value) -> bytes:
        return str(int(value)).encode("ascii")

    def default(self):
        return 0

    def generate(self, rng: random.Random):
        return rng.randint(self.lo, self.hi)


class AsciiIntFW(BaseType):
    """Fixed-width ASCII decimal integer (``Puint16_FW(:3:)``).

    Accepts space- or zero-padding on input; writes zero-padded output.
    """

    kind = "int"
    invalid_code = ErrCode.INVALID_INT

    def __init__(self, width: int, signed: bool, nchars: int):
        if nchars <= 0:
            raise ValueError("fixed width must be positive")
        self.width = width
        self.signed = signed
        self.static_width = int(nchars)
        self.lo, self.hi = int_bounds(width, signed)

    def convert(self, raw: bytes):
        try:
            value = int(raw.decode("ascii", errors="replace").strip(), 10)
        except ValueError:
            return None
        return None if value < 0 and not self.signed else value

    def write(self, value) -> bytes:
        value = int(value)
        body = str(abs(value))
        sign = "-" if value < 0 else ""
        text = sign + body.rjust(self.static_width - len(sign), "0")
        if len(text) > self.static_width:
            raise ValueError(f"{value} does not fit in {self.static_width} characters")
        return text.encode("ascii")

    def default(self):
        return 0

    def generate(self, rng: random.Random):
        digits = self.static_width - (1 if self.signed else 0)
        hi = min(self.hi, 10 ** max(1, digits) - 1)
        lo = max(self.lo, 0 if not self.signed else -(10 ** max(1, digits - 1) - 1))
        return rng.randint(lo, hi)


class BinaryInt(BaseType):
    """Fixed-size two's-complement binary integer."""

    kind = "int"

    def __init__(self, width: int, signed: bool, byteorder: str = "little"):
        self.width = width
        self.signed = signed
        self.byteorder = byteorder
        self.static_width = width // 8
        self.lo, self.hi = int_bounds(width, signed)

    def convert(self, raw: bytes):
        return int.from_bytes(raw, self.byteorder, signed=self.signed)

    def write(self, value) -> bytes:
        return int(value).to_bytes(self.static_width, self.byteorder,
                                   signed=self.signed)

    def default(self):
        return 0

    def generate(self, rng: random.Random):
        return rng.randint(self.lo, self.hi)


class BinaryRaw(BinaryInt):
    """``Pb_raw(:nbytes:)`` — an unsigned big-endian integer over an
    arbitrary number of bytes.  The substrate for ``Pbitfields`` (the
    bit-field construct of the paper's Section 9): the raw word is parsed
    once and individual bit ranges are computed from it."""

    def __init__(self, nbytes):
        if int(nbytes) <= 0:
            raise ValueError("byte count must be positive")
        super().__init__(int(nbytes) * 8, False, "big")


class EbcdicInt(BaseType):
    """Variable-width EBCDIC decimal integer (digit code points 0xF0-0xF9)."""

    kind = "int"

    def __init__(self, width: int, signed: bool):
        self.width = width
        self.signed = signed
        self.lo, self.hi = int_bounds(width, signed)

    def parse(self, src: Source, sem_check: bool):
        start = src.pos
        neg = False
        if self.signed:
            head = src.peek(1)
            if head and head[0] in (_EBCDIC_MINUS, _EBCDIC_PLUS):
                src.skip(1)
                neg = head[0] == _EBCDIC_MINUS
        digits = src.take_span(_EBCDIC_DIGITS)
        if not digits:
            src.pos = start
            return self.default(), ErrCode.INVALID_INT
        value = int(bytes(b - 0xC0 for b in digits))
        if neg:
            value = -value
        if sem_check and not (self.lo <= value <= self.hi):
            return value, ErrCode.RANGE_ERR
        return value, ErrCode.NO_ERR

    def write(self, value) -> bytes:
        return str(int(value)).encode("cp037")

    def default(self):
        return 0

    def generate(self, rng: random.Random):
        return rng.randint(self.lo, self.hi)


class AsciiFloat(BaseType):
    """ASCII decimal floating point: ``-?digits(.digits)?([eE][+-]?digits)?``."""

    kind = "float"

    def parse(self, src: Source, sem_check: bool):
        start = src.pos
        chunk = bytearray()
        if src.peek(1) in (b"-", b"+"):
            chunk += src.take(1)
        intpart = src.take_span(_ASCII_DIGITS)
        chunk += intpart
        if src.peek(1) == b"." :
            dot_mark = src.pos
            src.skip(1)
            frac = src.take_span(_ASCII_DIGITS)
            if frac:
                chunk += b"." + frac
            else:
                src.pos = dot_mark
        if not intpart and b"." not in chunk:
            src.pos = start
            return self.default(), ErrCode.INVALID_FLOAT
        if src.peek(1) in (b"e", b"E"):
            mark = src.pos
            src.skip(1)
            exp_sign = b""
            if src.peek(1) in (b"-", b"+"):
                exp_sign = src.take(1)
            exp = src.take_span(_ASCII_DIGITS)
            if exp:
                chunk += b"e" + exp_sign + exp
            else:
                src.pos = mark
        try:
            text = chunk.decode("ascii")
            return FloatVal(float(chunk), text), ErrCode.NO_ERR
        except ValueError:
            src.pos = start
            return self.default(), ErrCode.INVALID_FLOAT

    def write(self, value) -> bytes:
        if isinstance(value, FloatVal):
            return value.raw.encode("ascii")
        return repr(float(value)).encode("ascii")

    def default(self):
        return 0.0

    def generate(self, rng: random.Random):
        return round(rng.uniform(-1e6, 1e6), 6)


class BinaryFloat(BaseType):
    """IEEE-754 binary float (4 or 8 bytes)."""

    kind = "float"

    def __init__(self, nbytes: int, byteorder: str = "little"):
        self.static_width = nbytes
        self.fmt = ("<" if byteorder == "little" else ">") + ("f" if nbytes == 4 else "d")

    def convert(self, raw: bytes):
        return struct.unpack(self.fmt, raw)[0]

    def write(self, value) -> bytes:
        return struct.pack(self.fmt, float(value))

    def default(self):
        return 0.0

    def generate(self, rng: random.Random):
        return struct.unpack(self.fmt, struct.pack(self.fmt, rng.uniform(-1e9, 1e9)))[0]


def _register_int_family() -> None:
    for width in (8, 16, 32, 64):
        for signed in (False, True):
            tag = ("int" if signed else "uint") + str(width)

            register_base_type(f"Pa_{tag}",
                               (lambda w=width, s=signed: AsciiInt(w, s)))
            register_base_type(f"Pa_{tag}_FW",
                               (lambda n, w=width, s=signed: AsciiIntFW(w, s, n)),
                               min_args=1)
            register_base_type(f"Pb_{tag}",
                               (lambda w=width, s=signed: BinaryInt(w, s)))
            register_base_type(f"Pb_{tag}_be",
                               (lambda w=width, s=signed: BinaryInt(w, s, "big")))
            register_base_type(f"Pe_{tag}",
                               (lambda w=width, s=signed: EbcdicInt(w, s)))

            register_ambient_alias(f"P{tag}", AMBIENT_ASCII, f"Pa_{tag}")
            register_ambient_alias(f"P{tag}", AMBIENT_BINARY, f"Pb_{tag}")
            register_ambient_alias(f"P{tag}", AMBIENT_EBCDIC, f"Pe_{tag}")
            register_ambient_alias(f"P{tag}_FW", AMBIENT_ASCII, f"Pa_{tag}_FW")
            register_ambient_alias(f"P{tag}_FW", AMBIENT_EBCDIC, f"Pa_{tag}_FW")

    register_base_type("Pb_raw", BinaryRaw, min_args=1)

    register_base_type("Pa_float", AsciiFloat)
    register_base_type("Pb_float", lambda: BinaryFloat(4))
    register_base_type("Pb_double", lambda: BinaryFloat(8))
    register_base_type("Pb_float_be", lambda: BinaryFloat(4, "big"))
    register_base_type("Pb_double_be", lambda: BinaryFloat(8, "big"))
    register_ambient_alias("Pfloat", AMBIENT_ASCII, "Pa_float")
    register_ambient_alias("Pfloat", AMBIENT_BINARY, "Pb_float")
    register_ambient_alias("Pdouble", AMBIENT_BINARY, "Pb_double")
    register_ambient_alias("Pdouble", AMBIENT_ASCII, "Pa_float")


_register_int_family()
