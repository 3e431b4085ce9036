"""Character and string base types.

``Pstring(:' ':)`` — "a string terminated by a space" — is the workhorse of
the paper's ASCII descriptions.  This module provides:

* ``Pchar`` / ``Pe_char`` — single characters,
* ``Pstring(:c:)`` — terminated strings (terminator not consumed),
* ``Pstring_FW(:n:)`` — fixed-width strings,
* ``Pstring_ME(:re:)`` — string matching a regex at the cursor,
* ``Pstring_SE(:re:)`` — string up to (not including) a regex match,
* ``Pstring_any`` — the remainder of the current record,
* EBCDIC counterparts where meaningful.
"""

from __future__ import annotations

import random
import re

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

# ``string.ascii_letters + string.digits + "._-/"``, spelled out so
# parsing never loads ``string``.
_GEN_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-/"


def _term_byte(term, encoding: str = "latin-1") -> bytes:
    """Normalise a terminator parameter (char or 1-char string) to a byte."""
    if isinstance(term, bytes):
        return term
    if isinstance(term, str) and len(term) >= 1:
        return term.encode(encoding)
    if isinstance(term, int):
        return bytes([term])
    raise ValueError(f"invalid terminator {term!r}")


class AsciiChar(BaseType):
    """A single character (any byte; decoded latin-1)."""

    kind = "char"
    static_width = 1
    short_code = ErrCode.INVALID_CHAR
    encoding = "latin-1"

    def convert(self, raw: bytes):
        return raw.decode(self.encoding)

    def write(self, value) -> bytes:
        return str(value).encode(self.encoding)

    def default(self):
        return "\0"

    def generate(self, rng: random.Random):
        return rng.choice(_GEN_CHARS)


class EbcdicChar(AsciiChar):
    """A single EBCDIC (cp037) character."""

    encoding = "cp037"


class TerminatedString(BaseType):
    """``Pstring(:term:)`` — bytes up to (not including) the terminator.

    When the terminator does not occur, the string extends to the end of
    the current scope (end-of-record, or end-of-source when no record is
    open), matching the C runtime where strings cannot cross records.
    """

    kind = "string"

    def __init__(self, term, encoding: str = "latin-1"):
        self.encoding = encoding
        self.term = _term_byte(term, encoding)
        self.term_char = self.term.decode(encoding)

    def parse(self, src: Source, sem_check: bool):
        start = src.pos
        body = src.take_until(self.term)
        if body is None:
            body = src.take_rest()
        try:
            return body.decode(self.encoding), ErrCode.NO_ERR
        except UnicodeDecodeError:
            src.pos = start
            return self.default(), ErrCode.INVALID_STRING

    def write(self, value) -> bytes:
        text = str(value)
        if self.term_char in text:
            raise ValueError(
                f"string {text!r} contains its terminator {self.term_char!r}")
        return text.encode(self.encoding)

    def default(self):
        return ""

    def generate(self, rng: random.Random):
        alphabet = _GEN_CHARS.replace(self.term_char, "")
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))


class FixedString(BaseType):
    """``Pstring_FW(:n:)`` — exactly n bytes."""

    kind = "string"
    invalid_code = ErrCode.INVALID_STRING

    def __init__(self, nchars, encoding: str = "latin-1"):
        self.static_width = int(nchars)
        if self.static_width <= 0:
            raise ValueError("fixed width must be positive")
        self.encoding = encoding

    def convert(self, raw: bytes):
        try:
            return raw.decode(self.encoding)
        except UnicodeDecodeError:
            return None

    def write(self, value) -> bytes:
        raw = str(value).encode(self.encoding)
        if len(raw) != self.static_width:
            raise ValueError(f"{value!r} is not exactly {self.static_width} bytes")
        return raw

    def default(self):
        return ""

    def generate(self, rng: random.Random):
        return "".join(rng.choice(_GEN_CHARS) for _ in range(self.static_width))


class RegexMatchString(BaseType):
    """``Pstring_ME(:"re":)`` — the longest regex match at the cursor."""

    kind = "string"

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.compiled = re.compile(pattern.encode("latin-1"))

    def parse(self, src: Source, sem_check: bool):
        scope = src.scope_bytes()
        m = self.compiled.match(scope)
        if m is None or m.end() == 0:
            return self.default(), ErrCode.REGEXP_NO_MATCH
        src.skip(m.end())
        return m.group(0).decode("latin-1"), ErrCode.NO_ERR

    def write(self, value) -> bytes:
        raw = str(value).encode("latin-1")
        if not self.compiled.fullmatch(raw):
            raise ValueError(f"{value!r} does not match /{self.pattern}/")
        return raw

    def default(self):
        return ""

    def generate(self, rng: random.Random):
        # The sampler loads on first use: parsing never needs it.
        from ...util.regexgen import RegexSampleError, sample_regex
        try:
            return sample_regex(self.pattern, rng)
        except RegexSampleError:
            return ""


class RegexTermString(BaseType):
    """``Pstring_SE(:"re":)`` — bytes up to the first regex match."""

    kind = "string"

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.compiled = re.compile(pattern.encode("latin-1"))

    def parse(self, src: Source, sem_check: bool):
        scope = src.scope_bytes()
        m = self.compiled.search(scope)
        if m is None:
            return self.default(), ErrCode.INVALID_STRING
        src.skip(m.start())
        return scope[:m.start()].decode("latin-1"), ErrCode.NO_ERR

    def write(self, value) -> bytes:
        raw = str(value).encode("latin-1")
        if self.compiled.search(raw):
            raise ValueError(f"{value!r} contains its terminating pattern")
        return raw

    def default(self):
        return ""

    def generate(self, rng: random.Random):
        alphabet = "".join(
            c for c in _GEN_CHARS
            if not self.compiled.search(c.encode("latin-1")))
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))


class RestOfRecord(BaseType):
    """``Pstring_any`` — everything to the end of the current scope."""

    kind = "string"

    def parse(self, src: Source, sem_check: bool):
        return src.take_rest().decode("latin-1"), ErrCode.NO_ERR

    def write(self, value) -> bytes:
        return str(value).encode("latin-1")

    def default(self):
        return ""

    def generate(self, rng: random.Random):
        return "".join(rng.choice(_GEN_CHARS) for _ in range(rng.randint(0, 16)))


def _register() -> None:
    register_base_type("Pa_char", AsciiChar)
    register_base_type("Pe_char", EbcdicChar)
    register_base_type("Pb_char", AsciiChar)
    register_ambient_alias("Pchar", AMBIENT_ASCII, "Pa_char")
    register_ambient_alias("Pchar", AMBIENT_BINARY, "Pb_char")
    register_ambient_alias("Pchar", AMBIENT_EBCDIC, "Pe_char")

    register_base_type("Pa_string", lambda term: TerminatedString(term), min_args=1)
    register_base_type("Pe_string", lambda term: TerminatedString(term, "cp037"), min_args=1)
    register_ambient_alias("Pstring", AMBIENT_ASCII, "Pa_string")
    register_ambient_alias("Pstring", AMBIENT_BINARY, "Pa_string")
    register_ambient_alias("Pstring", AMBIENT_EBCDIC, "Pe_string")

    register_base_type("Pa_string_FW", lambda n: FixedString(n), min_args=1)
    register_base_type("Pe_string_FW", lambda n: FixedString(n, "cp037"), min_args=1)
    register_ambient_alias("Pstring_FW", AMBIENT_ASCII, "Pa_string_FW")
    register_ambient_alias("Pstring_FW", AMBIENT_BINARY, "Pa_string_FW")
    register_ambient_alias("Pstring_FW", AMBIENT_EBCDIC, "Pe_string_FW")

    register_base_type("Pstring_ME", RegexMatchString, min_args=1)
    register_base_type("Pstring_SE", RegexTermString, min_args=1)
    register_base_type("Pstring_any", RestOfRecord)

    # Unicode (UTF-8) strings — the character-encoding mechanism the paper
    # lists as future work in Section 9.  Terminators are single
    # characters; multi-byte values decode strictly, with undecodable
    # bytes reported as INVALID_STRING rather than raising.
    register_base_type("Pu_string", lambda term: TerminatedString(term, "utf-8"),
                       min_args=1)
    register_base_type("Pu_string_FW", lambda n: FixedString(n, "utf-8"),
                       min_args=1)


_register()
