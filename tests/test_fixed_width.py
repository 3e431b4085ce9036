"""Fixed-width base types: one byte width and one converter per type.

The general parse (``BaseType.parse`` over ``static_width`` and
``convert``), the member fast function (the anchored-regex compiler) and
the batch kernel must agree on every byte string of the type's width:
the same value, or all three miss.  The Cobol converters are checked
against the digit-by-digit nibble loops they replaced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro import compile_description
from repro.core.basetypes import BaseType, register_base_type
from repro.core.basetypes.cobol import packed_value, zoned_value
from repro.core.errors import ErrCode
from repro.core.io import FixedWidthRecords, Source
from repro.plan.fastpath import compile_member

# -- the reference converters: the nibble loops the hex converters replaced --


def nibble_packed(raw: bytes, digits: int, decimals: int):
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
        return float(Fraction(value, 10 ** decimals))
    return value


def nibble_zoned(raw: bytes, decimals: int):
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
        return float(Fraction(value, 10 ** decimals))
    return value


def same(a, b) -> bool:
    """Equal values of one type (NaN equals NaN)."""
    return type(a) is type(b) and (a == b or (a != a and b != b))


def test_packed_every_two_byte_word():
    """Every sign, pad and digit nibble of a two-byte word, for the odd
    (3) and even (2) digit counts and three scales."""
    for digits, decimals in itertools.product((2, 3), (0, 1, 2)):
        for raw in map(bytes, itertools.product(range(256), repeat=2)):
            assert same(packed_value(raw, digits, decimals),
                        nibble_packed(raw, digits, decimals)), (raw, digits)


def test_zoned_every_two_byte_word():
    """Every zone and digit nibble of one and two bytes, three scales."""
    for decimals in (0, 1, 2):
        for n in (1, 2):
            for raw in map(bytes, itertools.product(range(256), repeat=n)):
                assert same(zoned_value(raw, decimals),
                            nibble_zoned(raw, decimals)), raw


#: Nibbles biased to decimal digits, so long words are often valid.
NIBBLE = st.one_of(st.integers(0, 9), st.integers(0, 15))


def _word(nibbles) -> bytes:
    return bytes(hi << 4 | lo for hi, lo in zip(nibbles[::2], nibbles[1::2]))


@settings(max_examples=400, deadline=None)
@given(digits=st.integers(1, 31), decimals=st.integers(0, 12),
       data=st.data())
def test_packed_matches_nibble_loop(digits, decimals, data):
    n = 2 * ((digits + 2) // 2)  # digits, sign and any pad nibble
    nibbles = data.draw(st.lists(NIBBLE, min_size=n, max_size=n))
    sign = data.draw(st.sampled_from([0x0C, 0x0D, 0x0F, nibbles[-1]]))
    raw = _word(nibbles[:-1] + [sign])
    want = nibble_packed(raw, digits, decimals)
    assert same(packed_value(raw, digits, decimals), want), raw.hex()


@settings(max_examples=400, deadline=None)
@given(digits=st.integers(1, 31), decimals=st.integers(0, 12),
       data=st.data())
def test_zoned_matches_nibble_loop(digits, decimals, data):
    zone = st.sampled_from([0xF, 0xF, 0xF, 0xC, 0xD]) | st.integers(0, 15)
    pairs = data.draw(st.lists(st.tuples(zone, NIBBLE), min_size=digits,
                               max_size=digits))
    raw = bytes(z << 4 | d for z, d in pairs)
    assert same(zoned_value(raw, decimals), nibble_zoned(raw, decimals)), \
        raw.hex()


# -- general parse, member fast function and batch kernel ---------------------

#: ``(type spelling, ambient)`` of every fixed-width base type.
FIXED = [(f"Pb_{s}int{w}{be}", "binary") for s in ("", "u")
         for w in (8, 16, 32, 64) for be in ("", "_be")] + [
    ("Pb_raw(:3:)", "binary"), ("Pb_raw(:8:)", "binary"),
    ("Pb_float", "binary"), ("Pb_double", "binary"),
    ("Pb_float_be", "binary"), ("Pb_double_be", "binary"),
    ("Pa_uint16_FW(:3:)", "ascii"), ("Pa_int8_FW(:4:)", "ascii"),
    ("Pa_int32_FW(:1:)", "ascii"),
    ("Pa_string_FW(:3:)", "ascii"), ("Pe_string_FW(:2:)", "ebcdic"),
    ("Pu_string_FW(:3:)", "ascii"), ("Pstring_FW(:1:)", "ascii"),
    ("Pa_char", "ascii"), ("Pe_char", "ebcdic"), ("Pb_char", "binary"),
    ("Pbcd_FW(:5:)", "ebcdic"), ("Pbcd_FW(:4, 2:)", "ebcdic"),
    ("Pbcd_FW(:1:)", "ebcdic"), ("Pzoned_FW(:3:)", "ebcdic"),
    ("Pzoned_FW(:4, 3:)", "ebcdic"),
]

#: Bytes that spell, or nearly spell, values of the text and decimal types.
INTERESTING = (b"0123456789 +-_x.\t" + bytes(range(0xF0, 0xFA))
               + b"\xc1\xd2\x0c\x1d\x0f\x12\x9f\xff\x80\xe9\xc3")


def _compiled(spelling: str, ambient: str):
    """(base instance, width, member fast function, batch kernel) for a
    one-member record of ``spelling``."""
    probe = compile_description(
        f"Precord Pstruct r_t {{ {spelling} v; }};", ambient=ambient)
    width = probe.plan.decls["r_t"].width
    desc = compile_description(
        f"Precord Pstruct r_t {{ {spelling} v; }};", ambient=ambient,
        discipline=FixedWidthRecords(width))
    plan = desc.plan
    decl = plan.decls["r_t"]
    inst = decl.items[0].type.static
    fragment, verdict = compile_member(plan, decl, decl.items[0])
    assert fragment is not None, verdict
    member = desc.bound.runtime.load(fragment)
    kwidth, kernel = desc.batch_kernel("r_t")
    assert kwidth == width == inst.static_width
    return inst, width, member, kernel


_COMPILED: dict = {}


def compiled(case):
    """:func:`_compiled` of ``case``, built once."""
    if case not in _COMPILED:
        _COMPILED[case] = _compiled(*case)
    return _COMPILED[case]


def assert_three_paths_agree(case, raw: bytes, dosem: bool) -> None:
    inst, width, member, kernel = compiled(case)
    src = Source(raw)
    value, code = inst.parse(src, dosem)
    general = value if code == ErrCode.NO_ERR else None
    assert src.pos == (0 if code not in (ErrCode.NO_ERR, ErrCode.RANGE_ERR)
                       else width)
    hit = member(raw, 0, width, dosem)
    fast = None if hit is None else hit[0]
    if hit is not None:
        assert hit[1] == width
    reps, _miss = kernel(memoryview(raw), 1, width, dosem)
    batch = None if reps[0] is None else reps[0].v
    assert same(fast, general) and same(batch, general), \
        (case, raw, dosem, general, fast, batch)


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(FIXED), dosem=st.booleans(), data=st.data())
def test_three_paths_agree(case, dosem, data):
    width = compiled(case)[1]
    raw = data.draw(st.binary(min_size=width, max_size=width)
                    | st.lists(st.sampled_from(INTERESTING), min_size=width,
                               max_size=width).map(bytes))
    assert_three_paths_agree(case, raw, dosem)


#: Spellings at the edge of each text and decimal type's domain.
EDGES = [
    (("Pa_uint16_FW(:3:)", "ascii"),
     [b"-12", b" -1", b"-0 ", b"+12", b"1_0", b"   ", b" 7 ", b"\t9\n",
      b"1 2", b"\xb2\xb3\xb4"]),
    (("Pa_int8_FW(:4:)", "ascii"),
     [b"-128", b"-129", b" 127", b" 128", b"+000", b"-1_2"]),
    (("Pu_string_FW(:3:)", "ascii"), [b"\xc3\xa9a", b"\xc3a\xa9", b"abc"]),
    (("Pbcd_FW(:4, 2:)", "ebcdic"), [b"\x01\x23\x4c", b"\xf1\x23\x4d",
                                     b"\x01\x23\x4a", b"\x0a\x23\x4f"]),
    (("Pzoned_FW(:4, 3:)", "ebcdic"), [b"\xf1\xf2\xf3\xd4",
                                       b"\xf1\xf2\xc3\xf4",
                                       b"\xf1\xf2\xf3\xfa"]),
]


def test_three_paths_agree_on_domain_edges():
    for case, raws in EDGES:
        for raw in raws:
            for dosem in (False, True):
                assert_three_paths_agree(case, raw, dosem)


def test_short_reads_keep_each_types_code():
    """A read short of the width restores the cursor; a short char is
    still INVALID_CHAR."""
    for spelling, ambient in FIXED:
        inst, width, _member, _kernel = compiled((spelling, ambient))
        src = Source(b"\x00" * (width - 1))
        value, code = inst.parse(src, True)
        want = (ErrCode.INVALID_CHAR if inst.kind == "char"
                else ErrCode.WIDTH_NOT_AVAILABLE)
        assert (code, value, src.pos) == (want, inst.default(), 0), spelling


def test_invalid_codes():
    cases = [("Pbcd_FW(:3:)", "ebcdic", b"\x12\x3a", ErrCode.INVALID_BCD),
             ("Pzoned_FW(:2:)", "ebcdic", b"\xc1\xf2", ErrCode.INVALID_BCD),
             ("Pa_uint16_FW(:3:)", "ascii", b"-12", ErrCode.INVALID_INT),
             ("Pa_uint16_FW(:3:)", "ascii", b"1x2", ErrCode.INVALID_INT),
             ("Pu_string_FW(:2:)", "ascii", b"\xff\xfe",
              ErrCode.INVALID_STRING)]
    for spelling, ambient, raw, want in cases:
        inst = compiled((spelling, ambient))[0]
        src = Source(raw)
        assert inst.parse(src, True) == (inst.default(), want), spelling
        assert src.pos == 0


def test_range_checked_only_under_sem_check():
    inst = compiled(("Pa_int8_FW(:4:)", "ascii"))[0]
    assert inst.parse(Source(b" 300"), True) == (300, ErrCode.RANGE_ERR)
    assert inst.parse(Source(b" 300"), False) == (300, ErrCode.NO_ERR)


# -- user-defined base types -------------------------------------------------


class _Hexword(BaseType):
    """A user type that reads a fixed number of bytes in its own parse."""

    kind = "int"

    def __init__(self, nchars):
        self.nchars = int(nchars)

    def parse(self, src, sem_check):
        raw = src.take(self.nchars)
        try:
            return int(raw, 16), ErrCode.NO_ERR
        except ValueError:
            return 0, ErrCode.INVALID_INT

    def write(self, value):
        return format(int(value), f"0{self.nchars}x").encode()

    def default(self):
        return 0


register_base_type("Pfixedwidth_test_hex", _Hexword, min_args=1)


def test_user_defined_type_stays_variable_width():
    desc = compile_description(
        "Precord Pstruct r_t { Pfixedwidth_test_hex(:4:) v; '|'; };")
    decl = desc.plan.decls["r_t"]
    assert decl.items[0].type.static.static_width is None
    assert decl.width is None
    assert not decl.batch_verdict.eligible
    assert desc.parse(b"00ff|", "r_t")[0].v == 255
