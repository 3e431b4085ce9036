"""Runtime support for generated parser modules.

Generated modules (see :mod:`repro.codegen.emitter`) inline their control
flow but share the error-path helpers here, mirroring how the paper's
generated ``.c`` files link against the PADS runtime library.
"""

from __future__ import annotations

from typing import Optional

from .. import observe
from ..core.errors import ErrCode, Pd
from ..core.io import Source
from ..core.limits import (  # noqa: F401 - re-export
    fastpath_applies,
    note_limit,
    record_guard,
)
from ..core.types import MAX_RESYNC_SCAN


def lit_resync(src: Source, pd: Pd, raw: bytes, start: int) -> bool:
    """Recover from a missing literal: scan forward for it within scope.

    Returns True when resynchronised (PARTIAL); False means the literal is
    unreachable and the caller must panic to end-of-record.
    """
    at = src.scan_for(raw, src.scan_cap(MAX_RESYNC_SCAN))
    if at >= 0:
        observe.count("resync.literal")
        pd.record_error(ErrCode.MISSING_LITERAL, src.loc_from(start))
        src.pos = at + len(raw)
        return True
    pd.record_error(ErrCode.MISSING_LITERAL, src.loc_from(start), panic=True)
    src.skip_to_eor()
    return False


def skip_to_literal(src: Source, raw: bytes) -> bool:
    """Field-error recovery: skip garbage up to (and past) ``raw``."""
    at = src.scan_for(raw, src.scan_cap(MAX_RESYNC_SCAN))
    if at >= 0:
        observe.count("resync.field_skip")
        src.pos = at + len(raw)
        return True
    return False


def array_resync(src: Source, sep: Optional[bytes], term: Optional[bytes]) -> bool:
    """Skip junk to the next separator or terminator; False => panic."""
    candidates = []
    cap = src.scan_cap(MAX_RESYNC_SCAN)
    if sep is not None:
        at = src.scan_for(sep, cap)
        if at >= 0:
            candidates.append(at)
    if term is not None:
        at = src.scan_for(term, cap)
        if at >= 0:
            candidates.append(at)
    if candidates:
        observe.count("resync.array")
        src.pos = min(candidates)
        return True
    if src.in_record:
        src.skip_to_eor()
        return True
    return False


def convert_packed(raw: bytes, digits: int, decimals: int):
    """COMP-3 bytes -> value, or None when invalid (fast-path converter)."""
    nibbles = []
    for b in raw:
        nibbles.append(b >> 4)
        nibbles.append(b & 0x0F)
    sign = nibbles[-1]
    body = nibbles[:-1]
    if len(body) > digits:
        body = body[-digits:]
    if sign not in (0x0C, 0x0D, 0x0F) or any(n > 9 for n in body):
        return None
    value = 0
    for n in body:
        value = value * 10 + n
    if sign == 0x0D:
        value = -value
    if decimals:
        from fractions import Fraction
        return float(Fraction(value, 10 ** decimals))
    return value


def convert_zoned(raw: bytes, digits: int, decimals: int):
    """Zoned-decimal bytes -> value, or None when invalid."""
    value = 0
    negative = False
    last = len(raw) - 1
    for i, b in enumerate(raw):
        zone, digit = b & 0xF0, b & 0x0F
        if digit > 9:
            return None
        if zone == 0xF0:
            pass
        elif i == last and zone == 0xC0:
            pass
        elif i == last and zone == 0xD0:
            negative = True
        else:
            return None
        value = value * 10 + digit
    if negative:
        value = -value
    if decimals:
        from fractions import Fraction
        return float(Fraction(value, 10 ** decimals))
    return value
