"""Tests for the base-type library."""

import datetime as _dt
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.basetypes import resolve_base_type, base_type_names, is_base_type
from repro.core.basetypes.base import UnknownBaseType, base_type_arity
from repro.core.basetypes.temporal import DATE_FORMATS, parse_date_value
from repro.core.errors import ErrCode
from repro.core.io import NewlineRecords, Source
from repro.core.values import DateVal


def parse(base, data, sem=True):
    src = Source.from_bytes(data)
    value, code = base.parse(src, sem)
    return value, code, src


class TestAsciiIntegers:
    def test_uint_parse(self):
        t = resolve_base_type("Puint32")
        value, code, src = parse(t, b"12345|rest")
        assert (value, code) == (12345, ErrCode.NO_ERR)
        assert src.peek(1) == b"|"

    def test_int_with_sign(self):
        t = resolve_base_type("Pint32")
        assert parse(t, b"-42")[0:2] == (-42, ErrCode.NO_ERR)
        assert parse(t, b"+42")[0:2] == (42, ErrCode.NO_ERR)

    def test_uint_rejects_sign(self):
        t = resolve_base_type("Puint32")
        value, code, src = parse(t, b"-42")
        assert code == ErrCode.INVALID_INT
        assert src.pos == 0

    def test_no_digits_is_error_and_no_movement(self):
        t = resolve_base_type("Puint8")
        value, code, src = parse(t, b"abc")
        assert code == ErrCode.INVALID_INT
        assert src.pos == 0

    def test_range_check_is_semantic(self):
        t = resolve_base_type("Puint8")
        value, code, src = parse(t, b"300", sem=True)
        assert code == ErrCode.RANGE_ERR
        assert value == 300  # value still reported
        value, code, src = parse(t, b"300", sem=False)
        assert code == ErrCode.NO_ERR  # masked off

    def test_signed_range(self):
        t = resolve_base_type("Pint8")
        assert parse(t, b"-128")[1] == ErrCode.NO_ERR
        assert parse(t, b"-129")[1] == ErrCode.RANGE_ERR

    def test_write_roundtrip(self):
        t = resolve_base_type("Pint32")
        assert t.write(-77) == b"-77"
        assert parse(t, t.write(-77))[0] == -77


class TestFixedWidthIntegers:
    def test_parse_exact_width(self):
        t = resolve_base_type("Puint16_FW", (3,))
        value, code, src = parse(t, b"20078")
        assert (value, code) == (200, ErrCode.NO_ERR)
        assert src.pos == 3

    def test_space_padding_accepted(self):
        t = resolve_base_type("Puint16_FW", (4,))
        assert parse(t, b"  42")[0:2] == (42, ErrCode.NO_ERR)

    def test_zero_padded_write(self):
        t = resolve_base_type("Puint16_FW", (3,))
        assert t.write(7) == b"007"

    def test_too_short_input(self):
        t = resolve_base_type("Puint16_FW", (5,))
        value, code, src = parse(t, b"42")
        assert code == ErrCode.WIDTH_NOT_AVAILABLE
        assert src.pos == 0

    def test_value_too_wide_to_write(self):
        t = resolve_base_type("Puint16_FW", (3,))
        with pytest.raises(ValueError):
            t.write(12345)

    def test_garbage_is_invalid(self):
        t = resolve_base_type("Puint16_FW", (3,))
        assert parse(t, b"a42")[1] == ErrCode.INVALID_INT


class TestBinaryIntegers:
    def test_little_endian_default(self):
        t = resolve_base_type("Pb_uint32")
        assert parse(t, (258).to_bytes(4, "little"))[0] == 258

    def test_big_endian_variant(self):
        t = resolve_base_type("Pb_uint32_be")
        assert parse(t, (258).to_bytes(4, "big"))[0] == 258

    def test_signed(self):
        t = resolve_base_type("Pb_int16")
        assert parse(t, (-5).to_bytes(2, "little", signed=True))[0] == -5

    def test_truncated_input(self):
        t = resolve_base_type("Pb_uint64")
        value, code, src = parse(t, b"abc")
        assert code == ErrCode.WIDTH_NOT_AVAILABLE
        assert src.pos == 0

    def test_ambient_binary_alias(self):
        t = resolve_base_type("Puint16", ambient="binary")
        assert parse(t, (99).to_bytes(2, "little"))[0] == 99

    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip(self, n):
        t = resolve_base_type("Pb_uint32")
        assert parse(t, t.write(n))[0] == n


class TestEbcdicIntegers:
    def test_parse(self):
        t = resolve_base_type("Pe_uint32")
        assert parse(t, "1234".encode("cp037"))[0] == 1234

    def test_negative(self):
        t = resolve_base_type("Pe_int32")
        assert parse(t, "-56".encode("cp037"))[0] == -56

    def test_ambient_ebcdic_alias(self):
        t = resolve_base_type("Puint8", ambient="ebcdic")
        assert parse(t, "42".encode("cp037"))[0] == 42


class TestFloats:
    @pytest.mark.parametrize("text,expected", [
        (b"3.25", 3.25), (b"-1.5", -1.5), (b"42", 42.0),
        (b"1e3", 1000.0), (b"2.5E-2", 0.025),
    ])
    def test_ascii_float(self, text, expected):
        t = resolve_base_type("Pfloat")
        assert parse(t, text)[0] == pytest.approx(expected)

    def test_ascii_float_garbage(self):
        t = resolve_base_type("Pfloat")
        value, code, src = parse(t, b"abc")
        assert code == ErrCode.INVALID_FLOAT and src.pos == 0

    def test_trailing_dot_not_consumed(self):
        t = resolve_base_type("Pfloat")
        value, code, src = parse(t, b"3.xyz")
        assert value == 3.0
        assert src.peek(1) == b"."

    def test_binary_float_roundtrip(self):
        t = resolve_base_type("Pb_double")
        assert parse(t, t.write(3.141592653589793))[0] == 3.141592653589793


class TestStrings:
    def test_terminated_string(self):
        t = resolve_base_type("Pstring", (" ",))
        value, code, src = parse(t, b"hello world")
        assert (value, code) == ("hello", ErrCode.NO_ERR)
        assert src.peek(1) == b" "

    def test_missing_terminator_extends_to_end_of_scope(self):
        t = resolve_base_type("Pstring", ("|",))
        value, code, src = parse(t, b"no pipes here")
        assert (value, code) == ("no pipes here", ErrCode.NO_ERR)
        assert src.at_eof()

    def test_empty_string_ok(self):
        t = resolve_base_type("Pstring", ("|",))
        assert parse(t, b"|x")[0] == ""

    def test_write_rejects_embedded_terminator(self):
        t = resolve_base_type("Pstring", ("|",))
        with pytest.raises(ValueError):
            t.write("a|b")

    def test_fixed_width(self):
        t = resolve_base_type("Pstring_FW", (4,))
        assert parse(t, b"abcdef")[0] == "abcd"

    def test_regex_match(self):
        t = resolve_base_type("Pstring_ME", ("[A-Z]+",))
        value, code, src = parse(t, b"ABCdef")
        assert value == "ABC"
        assert src.pos == 3

    def test_regex_no_match(self):
        t = resolve_base_type("Pstring_ME", ("[A-Z]+",))
        assert parse(t, b"abc")[1] == ErrCode.REGEXP_NO_MATCH

    def test_regex_terminated(self):
        t = resolve_base_type("Pstring_SE", (r"\d",))
        value, code, src = parse(t, b"abc123")
        assert value == "abc"
        assert src.pos == 3

    def test_char(self):
        t = resolve_base_type("Pchar")
        assert parse(t, b"-x")[0] == "-"

    def test_ebcdic_string(self):
        t = resolve_base_type("Pstring", ("|",), ambient="ebcdic")
        data = "HELLO|".encode("cp037")
        assert parse(t, data)[0] == "HELLO"

    def test_string_any_stops_at_record_end(self):
        t = resolve_base_type("Pstring_any")
        src = Source.from_bytes(b"first line\nsecond\n", NewlineRecords())
        src.begin_record()
        value, code = t.parse(src, True)
        assert value == "first line"


class TestDates:
    def test_clf_date(self):
        t = resolve_base_type("Pdate", ("]",))
        value, code, src = parse(t, b"15/Oct/1997:18:46:51 -0700]")
        assert code == ErrCode.NO_ERR
        assert isinstance(value, DateVal)
        # 18:46:51 -0700 == 01:46:51 UTC the next day.
        assert value.strftime("%D:%T") == "10/16/97:01:46:51"
        assert src.peek(1) == b"]"

    def test_iso_date(self):
        t = resolve_base_type("Pdate", ("|",))
        value, code, _ = parse(t, b"2002-04-14|")
        assert value == DateVal.from_datetime(
            __import__("datetime").datetime(2002, 4, 14,
                                            tzinfo=__import__("datetime").timezone.utc))

    def test_bad_date(self):
        t = resolve_base_type("Pdate", ("]",))
        value, code, src = parse(t, b"not a date]")
        assert code == ErrCode.INVALID_DATE
        assert src.pos == 0

    def test_write_reproduces_raw_text(self):
        t = resolve_base_type("Pdate", ("]",))
        raw = b"15/Oct/1997:18:46:51 -0700"
        value, _, _ = parse(t, raw + b"]")
        assert t.write(value) == raw

    def test_dateval_comparisons(self):
        a, b = DateVal(100), DateVal(200)
        assert a < b and a <= b and b > a and a != b
        assert a < 150 and b >= 200

    def test_timestamp_type(self):
        t = resolve_base_type("Ptimestamp")
        value, code, _ = parse(t, b"1005022800|")
        assert value.epoch == 1005022800

    # The strict CLF kernel in front of the DATE_FORMATS loop must return
    # exactly what the loop alone returns, for every input: the same UTC
    # epoch, and the text as given for the raw form.

    @staticmethod
    def _strptime_loop(text):
        """``(epoch, raw)`` by the ``DATE_FORMATS`` loop alone: the
        reference the CLF kernel must agree with."""
        stripped = text.strip()
        if not stripped:
            return None
        for fmt in DATE_FORMATS:
            try:
                dt = _dt.datetime.strptime(stripped, fmt)
            except ValueError:
                continue
            if fmt == "%H:%M:%S":
                dt = dt.replace(year=1970, month=1, day=1)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=_dt.timezone.utc)
            return int(dt.timestamp()), text
        return None

    def _assert_agrees(self, text):
        got, want = parse_date_value(text), self._strptime_loop(text)
        if want is None:
            assert got is None
        else:
            assert (got.epoch, got.raw) == want
        return got

    @given(st.datetimes(
        timezones=st.integers(-24 * 60 + 1, 24 * 60 - 1).map(
            lambda m: _dt.timezone(_dt.timedelta(minutes=m)))))
    def test_clf_kernel_matches_strptime(self, when):
        self._assert_agrees(when.strftime("%d/%b/%Y:%H:%M:%S %z"))

    @pytest.mark.parametrize("text, accepted", [
        ("1/Oct/1997:18:46:51 -0700", True),       # one-digit day
        ("15/oct/1997:18:46:51 -0700", True),      # month case
        ("15/OCT/1997:18:46:51 -0700", True),
        ("15/Oct/1997:18:46:51 Z", True),
        ("15/Oct/1997:18:46:51 -07:00", True),
        ("15/Oct/1997:18:46:51  -0700", True),     # two spaces
        ("15/Oct/1997:18:46:51\t-0700", True),
        ("15/Oct/\u0661\u0669\u0669\u0667:18:46:51 -0700", True),  # Arabic-Indic
        ("\u0661\u0665/Oct/1997:18:46:51 -0700", False),
        ("15/Oct/1997:18:46:51 +2400", False),     # offset >= 24h
        ("31/Feb/1997:18:46:51 -0700", False),
        ("29/Feb/1900:18:46:51 -0700", False),     # not a leap year
        ("29/Feb/2000:18:46:51 -0700", True),
        ("01/Jan/0001:00:00:00 +2359", True),      # before 0001-01-01 UTC
        ("15/Oct/0000:18:46:51 -0700", False),
        ("15/Oct/1997:18:46:60 -0700", False),
        ("15/Oct/1997:18:46:51 -0700x", False),    # trailing junk
    ])
    def test_clf_near_misses_fall_back(self, text, accepted):
        assert (self._assert_agrees(text) is not None) == accepted


class TestNetworkTypes:
    def test_ip(self):
        t = resolve_base_type("Pip")
        assert parse(t, b"135.207.23.32 ")[0] == "135.207.23.32"

    def test_ip_octet_range(self):
        t = resolve_base_type("Pip")
        assert parse(t, b"300.1.1.1")[1] == ErrCode.INVALID_IP

    def test_ip_rejects_hostname_continuation(self):
        t = resolve_base_type("Pip")
        value, code, src = parse(t, b"1.2.3.4.example.com")
        assert code == ErrCode.INVALID_IP
        assert src.pos == 0

    def test_hostname(self):
        t = resolve_base_type("Phostname")
        assert parse(t, b"www.research.att.com ")[0] == "www.research.att.com"

    def test_hostname_needs_a_letter(self):
        t = resolve_base_type("Phostname")
        assert parse(t, b"1.2.3.4 ")[1] == ErrCode.INVALID_HOSTNAME

    def test_zip(self):
        t = resolve_base_type("Pzip")
        assert parse(t, b"07988|")[0] == "07988"

    def test_zip_plus4(self):
        t = resolve_base_type("Pzip")
        assert parse(t, b"07988-1234|")[0] == "07988-1234"

    def test_zip_wrong_length(self):
        t = resolve_base_type("Pzip")
        assert parse(t, b"0798|")[1] == ErrCode.INVALID_ZIP

    def test_phone_number(self):
        t = resolve_base_type("Ppn")
        assert parse(t, b"9735551212|")[0] == 9735551212
        assert parse(t, b"0|")[0] == 0

    def test_phone_number_bad_length_is_semantic(self):
        t = resolve_base_type("Ppn")
        assert parse(t, b"12345|", sem=True)[1] == ErrCode.RANGE_ERR
        assert parse(t, b"12345|", sem=False)[1] == ErrCode.NO_ERR


class TestCobolTypes:
    def test_packed_decimal_positive(self):
        t = resolve_base_type("Pbcd_FW", (5,))
        # 12345 packed: digits 1 2 3 4 5 + sign C -> 3 bytes
        assert parse(t, bytes([0x12, 0x34, 0x5C]))[0] == 12345

    def test_packed_decimal_negative(self):
        t = resolve_base_type("Pbcd_FW", (3,))
        assert parse(t, bytes([0x01, 0x2D]))[0] == -12

    def test_packed_decimal_roundtrip(self):
        t = resolve_base_type("Pbcd_FW", (7,))
        for n in (0, 1, 999, -54321, 9999999):
            assert parse(t, t.write(n))[0] == n

    def test_packed_with_decimals(self):
        t = resolve_base_type("Pbcd_FW", (7, 2))
        assert parse(t, t.write(123.45))[0] == pytest.approx(123.45)

    def test_packed_bad_sign_nibble(self):
        t = resolve_base_type("Pbcd_FW", (3,))
        assert parse(t, bytes([0x01, 0x23]))[1] == ErrCode.INVALID_BCD

    def test_zoned_decimal(self):
        t = resolve_base_type("Pzoned_FW", (4,))
        # 1234 zoned: F1 F2 F3 C4
        assert parse(t, bytes([0xF1, 0xF2, 0xF3, 0xC4]))[0] == 1234

    def test_zoned_negative(self):
        t = resolve_base_type("Pzoned_FW", (3,))
        assert parse(t, bytes([0xF0, 0xF4, 0xD2]))[0] == -42

    def test_zoned_roundtrip(self):
        t = resolve_base_type("Pzoned_FW", (6,))
        for n in (0, 7, -123456, 999999):
            assert parse(t, t.write(n))[0] == n


class TestRegistry:
    def test_unknown_type(self):
        with pytest.raises(UnknownBaseType):
            resolve_base_type("Pnosuch")

    def test_is_base_type(self):
        assert is_base_type("Puint32")
        assert is_base_type("Pb_uint32")
        assert not is_base_type("entry_t")

    def test_arity(self):
        assert base_type_arity("Pstring") == (1, 1)
        assert base_type_arity("Puint32") == (0, 0)
        assert base_type_arity("Pdate") == (0, 1)

    def test_wrong_arity_rejected(self):
        from repro.core.errors import PadsError
        with pytest.raises(PadsError):
            resolve_base_type("Puint32", (3,))

    def test_names_listing(self):
        names = base_type_names()
        for expected in ("Puint8", "Pstring", "Pdate", "Pip", "Pbcd_FW"):
            assert expected in names


class TestGeneration:
    @pytest.mark.parametrize("name,args", [
        ("Puint8", ()), ("Pint32", ()), ("Puint16_FW", (3,)),
        ("Pb_uint32", ()), ("Pe_uint16", ()), ("Pstring", ("|",)),
        ("Pstring_FW", (5,)), ("Pip", ()), ("Phostname", ()),
        ("Pzip", ()), ("Pdate", ("]",)), ("Pbcd_FW", (5,)),
        ("Pzoned_FW", (4,)), ("Pfloat", ()),
    ])
    def test_generated_values_reparse(self, name, args):
        rng = random.Random(7)
        t = resolve_base_type(name, args)
        for _ in range(25):
            value = t.generate(rng)
            raw = t.write(value)
            back, code, _ = parse(t, raw)
            assert code == ErrCode.NO_ERR
            if isinstance(value, float):
                assert back == pytest.approx(value)
            else:
                assert back == value
