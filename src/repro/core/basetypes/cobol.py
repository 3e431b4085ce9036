"""Cobol-legacy base types: packed and zoned decimals.

The Altair feeds in the paper arrive in "various Cobol data formats"
(Figure 1), and Section 5.2 describes a tool translating Cobol copybooks
into PADS descriptions.  The two numeric encodings every copybook needs:

* **packed decimal** (``COMP-3``): two BCD digits per byte with a sign
  nibble (0xC positive, 0xD negative, 0xF unsigned) in the low half of the
  final byte;
* **zoned decimal** (``PIC S9(n) DISPLAY`` in EBCDIC): one digit per byte
  with the sign overpunched onto the final digit's zone nibble.

Both are parameterised by digit count; values with an implied decimal
point scale by ``10**-d`` (the copybook translator passes the scale).
"""

from __future__ import annotations

import random

from ..errors import ErrCode
from .base import BaseType, register_base_type


def _scale(value: int, decimals: int):
    # Int true division is correctly rounded: the float nearest the
    # exact quotient.
    return value / 10 ** decimals if decimals else value


def _unscale(value, decimals: int) -> int:
    if decimals == 0:
        return int(value)
    return round(float(value) * 10 ** decimals)


def packed_value(raw: bytes, digits: int, decimals: int):
    """COMP-3 bytes -> value, or None when invalid: the digits are the
    hex spelling of the bytes less the sign nibble (0xC positive, 0xD
    negative, 0xF unsigned) and, for an even digit count, the unchecked
    leading pad nibble."""
    text = raw.hex()
    sign, body = text[-1], text[-1 - digits:-1]
    if sign not in "cdf" or not body.isdigit():
        return None
    return _scale(-int(body) if sign == "d" else int(body), decimals)


def zoned_value(raw: bytes, decimals: int):
    """Zoned-decimal bytes -> value, or None when invalid: one digit per
    low nibble, every zone 0xF but the last, which may carry the sign
    (0xC positive, 0xD negative)."""
    text = raw.hex()
    zones, body = text[0::2], text[1::2]
    if not body.isdigit() or zones[-1] not in "cdf" or zones[:-1].strip("f"):
        return None
    return _scale(-int(body) if zones[-1] == "d" else int(body), decimals)


class _Decimal(BaseType):
    """A Cobol decimal of ``digits`` digits, ``decimals`` of them after
    the implied decimal point."""

    kind = "int"
    invalid_code = ErrCode.INVALID_BCD

    def __init__(self, digits, decimals=0):
        self.digits = int(digits)
        self.decimals = int(decimals)
        if self.digits <= 0:
            raise ValueError("digit count must be positive")
        if self.decimals:
            self.kind = "float"

    def default(self):
        return 0.0 if self.decimals else 0

    def generate(self, rng: random.Random):
        magnitude = rng.randint(0, 10 ** self.digits - 1)
        if rng.random() < 0.2:
            magnitude = -magnitude
        return _scale(magnitude, self.decimals)


class PackedDecimal(_Decimal):
    """``Pbcd_FW(:digits[, decimals]:)`` — COMP-3 packed decimal."""

    def __init__(self, digits, decimals=0):
        super().__init__(digits, decimals)
        # digits + sign nibble, rounded up to whole bytes.
        self.static_width = (self.digits + 2) // 2

    def convert(self, raw: bytes):
        return packed_value(raw, self.digits, self.decimals)

    def write(self, value) -> bytes:
        magnitude = _unscale(value, self.decimals)
        sign = 0x0C if magnitude >= 0 else 0x0D
        magnitude = abs(magnitude)
        text = str(magnitude).rjust(self.digits, "0")
        if len(text) > self.digits:
            raise ValueError(f"{value} does not fit in {self.digits} BCD digits")
        nibbles = [int(c) for c in text] + [sign]
        if len(nibbles) % 2:
            nibbles.insert(0, 0)
        out = bytearray()
        for i in range(0, len(nibbles), 2):
            out.append((nibbles[i] << 4) | nibbles[i + 1])
        return bytes(out)


class ZonedDecimal(_Decimal):
    """``Pzoned_FW(:digits[, decimals]:)`` — EBCDIC zoned decimal."""

    # EBCDIC overpunch: zone 0xC (positive) / 0xD (negative) on final digit.
    _POS_ZONE = 0xC0
    _NEG_ZONE = 0xD0
    _DIGIT_ZONE = 0xF0

    def __init__(self, digits, decimals=0):
        super().__init__(digits, decimals)
        self.static_width = self.digits

    def convert(self, raw: bytes):
        return zoned_value(raw, self.decimals)

    def write(self, value) -> bytes:
        magnitude = _unscale(value, self.decimals)
        negative = magnitude < 0
        text = str(abs(magnitude)).rjust(self.digits, "0")
        if len(text) > self.digits:
            raise ValueError(f"{value} does not fit in {self.digits} zoned digits")
        out = bytearray(self._DIGIT_ZONE | int(c) for c in text)
        zone = self._NEG_ZONE if negative else self._POS_ZONE
        out[-1] = zone | (out[-1] & 0x0F)
        return bytes(out)


register_base_type("Pbcd_FW", lambda *a: PackedDecimal(*a), min_args=1, max_args=2)
register_base_type("Pzoned_FW", lambda *a: ZonedDecimal(*a), min_args=1, max_args=2)
