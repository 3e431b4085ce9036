"""Date and time base types.

``Pdate(:']':)`` in the paper's Figure 4 consumes the CLF timestamp
``15/Oct/1997:18:46:51 -0700`` up to the closing bracket.  The runtime
date parser tries a list of common ad hoc formats (CLF, ISO, US slashed
dates, ctime) and records both the UTC epoch and the raw text, so data
writes back byte-for-byte and formatting can re-render in any output
format (Figure 8 uses ``%D:%T``).
"""

from __future__ import annotations

import datetime as _dt
import random
import re

from ..errors import ErrCode
from ..io import Source
from ..values import DateVal
from .base import (
    AMBIENT_ASCII,
    AMBIENT_BINARY,
    AMBIENT_EBCDIC,
    BaseType,
    register_ambient_alias,
    register_base_type,
)
from .strings import _term_byte

# Formats tried in order.  %z handles the CLF timezone offset.
DATE_FORMATS = (
    "%d/%b/%Y:%H:%M:%S %z",   # CLF: 15/Oct/1997:18:46:51 -0700
    "%Y-%m-%dT%H:%M:%S%z",    # ISO with offset
    "%Y-%m-%dT%H:%M:%S",      # ISO basic
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d",
    "%m/%d/%Y:%H:%M:%S",
    "%m/%d/%Y %H:%M:%S",
    "%m/%d/%Y",
    "%m/%d/%y:%H:%M:%S",
    "%m/%d/%y",
    "%a %b %d %H:%M:%S %Y",   # ctime
    "%d %b %Y %H:%M:%S",
    "%d %b %Y",
    "%H:%M:%S",
)


#: The CLF layout (the first of ``DATE_FORMATS``) in a strict form: ASCII
#: digits, two-digit day, title-case English month, one space before the
#: offset.  What it accepts, ``strptime`` accepts with the same result.
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
_MONTH = {name: i for i, name in enumerate(_MONTHS, 1)}
_CLF_DATE = re.compile(
    r"(0[1-9]|[12][0-9]|3[01])/(%s)/([0-9]{4}):([01][0-9]|2[0-3]):"
    r"([0-5][0-9]):([0-5][0-9]) ([+-])([0-9]{2})([0-5][0-9])" % "|".join(_MONTHS))
#: Per month: its days in a leap year, and the days of a common year
#: before it.
_MONTH_DAYS = (0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_DAYS_BEFORE = (0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
#: The proleptic Gregorian ordinal of 1970-01-01 (1 is 0001-01-01).
_EPOCH_ORDINAL = 719163
#: Two ASCII digits -> their value (a lookup costs less than ``int``).
_TWO = {f"{i:02d}": i for i in range(100)}


def parse_date_value(text: str):
    """``text`` as a :class:`DateVal` (UTC epoch plus the raw text), or
    None when no format fits.

    The strict CLF kernel answers first: the epoch is the day count from
    the civil date plus the time of day, less the offset, by integer
    arithmetic.  Where ``datetime`` would refuse the fields (year 0000, a
    day past its month's end, an offset of 24h or more), and on any other
    miss, the ``DATE_FORMATS`` loop decides.  Like ``strptime`` under
    Python's default ``LC_TIME``, the kernel's month names are English.
    """
    stripped = text.strip()
    if not stripped:
        return None
    m = _CLF_DATE.fullmatch(stripped)
    if m is not None:
        day, month, year, hour, minute, second, sign, oh, om = m.groups()
        y, mo, d = int(year), _MONTH[month], _TWO[day]
        leap = y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)
        if y and d <= _MONTH_DAYS[mo] and (leap or mo != 2 or d < 29) \
                and _TWO[oh] < 24:
            prior = y - 1
            days = (prior * 365 + prior // 4 - prior // 100 + prior // 400
                    + _DAYS_BEFORE[mo] + (mo > 2 and leap) + d
                    - _EPOCH_ORDINAL)
            offset = _TWO[oh] * 3600 + _TWO[om] * 60
            return DateVal(days * 86400 + _TWO[hour] * 3600
                           + _TWO[minute] * 60 + _TWO[second]
                           + (offset if sign == "-" else -offset), text)
    for fmt in DATE_FORMATS:
        try:
            dt = _dt.datetime.strptime(stripped, fmt)
        except ValueError:
            continue
        if fmt == "%H:%M:%S":
            dt = dt.replace(year=1970, month=1, day=1)
        return DateVal.from_datetime(dt, text)
    return None


class AsciiDate(BaseType):
    """``Pdate(:term:)`` — a date string up to the terminator (or EOR)."""

    kind = "date"

    def __init__(self, term=None, encoding: str = "latin-1"):
        self.encoding = encoding
        self.term = _term_byte(term, encoding) if term is not None else None

    def parse(self, src: Source, sem_check: bool):
        start = src.pos
        if self.term is not None:
            body = src.take_until(self.term)
            if body is None:
                body = src.take_rest()
        else:
            body = src.take_rest()
        value = parse_date_value(body.decode(self.encoding))
        if value is None:
            src.pos = start
            return self.default(), ErrCode.INVALID_DATE
        return value, ErrCode.NO_ERR

    def write(self, value) -> bytes:
        if isinstance(value, DateVal):
            return value.raw.encode(self.encoding)
        return str(value).encode(self.encoding)

    def default(self):
        return DateVal(0, "")

    def generate(self, rng: random.Random):
        epoch = rng.randint(0, 2_000_000_000)
        dt = _dt.datetime.fromtimestamp(epoch, _dt.timezone.utc)
        raw = dt.strftime("%d/%b/%Y:%H:%M:%S +0000")
        return DateVal(epoch, raw)


class EpochSeconds(BaseType):
    """``Ptimestamp`` — seconds since the epoch as an ASCII integer,
    exposed as a comparable :class:`DateVal`."""

    kind = "date"

    def parse(self, src: Source, sem_check: bool):
        digits = src.take_span(frozenset(b"0123456789"))
        if not digits:
            return self.default(), ErrCode.INVALID_DATE
        epoch = int(digits)
        return DateVal(epoch, digits.decode("ascii")), ErrCode.NO_ERR

    def write(self, value) -> bytes:
        if isinstance(value, DateVal):
            return str(value.epoch).encode("ascii")
        return str(int(value)).encode("ascii")

    def default(self):
        return DateVal(0, "0")

    def generate(self, rng: random.Random):
        epoch = rng.randint(0, 2_000_000_000)
        return DateVal(epoch, str(epoch))


def _register() -> None:
    register_base_type("Pa_date", lambda *a: AsciiDate(*a), min_args=0, max_args=1)
    register_base_type("Pe_date", lambda *a: AsciiDate(*a, encoding="cp037"),
                       min_args=0, max_args=1)
    register_ambient_alias("Pdate", AMBIENT_ASCII, "Pa_date")
    register_ambient_alias("Pdate", AMBIENT_BINARY, "Pa_date")
    register_ambient_alias("Pdate", AMBIENT_EBCDIC, "Pe_date")
    register_base_type("Ptimestamp", EpochSeconds)


_register()
