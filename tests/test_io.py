"""Tests for the Source byte cursor and record disciplines."""

import io
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import compile_description
from repro.core.io import (
    FixedWidthRecords,
    LengthPrefixedRecords,
    NewlineRecords,
    NoRecords,
    RecordDiscipline,
    Source,
    StreamSource,
    plan_file_chunks,
)
from repro.core.limits import ParseLimits
from repro.durable import IndexBuilder

from .test_fastpath import pd_tree


class TestCursorBasics:
    def test_peek_take(self):
        src = Source.from_bytes(b"hello")
        assert src.peek(3) == b"hel"
        assert src.take(2) == b"he"
        assert src.take(10) == b"llo"
        assert src.at_eof()

    def test_match_bytes(self):
        src = Source.from_bytes(b"HTTP/1.0")
        assert src.match_bytes(b"HTTP/")
        assert not src.match_bytes(b"2")
        assert src.peek(1) == b"1"

    def test_take_until(self):
        src = Source.from_bytes(b"abc|def")
        assert src.take_until(b"|") == b"abc"
        assert src.peek(1) == b"|"

    def test_take_until_missing_does_not_move(self):
        src = Source.from_bytes(b"abcdef")
        assert src.take_until(b"|") is None
        assert src.pos == 0

    def test_take_span(self):
        src = Source.from_bytes(b"12345abc")
        digits = frozenset(b"0123456789")
        assert src.take_span(digits) == b"12345"
        assert src.take_span(digits) == b""
        assert src.peek(1) == b"a"

    def test_take_rest(self):
        src = Source.from_bytes(b"xyz")
        src.take(1)
        assert src.take_rest() == b"yz"
        assert src.at_eof()


class TestCheckpoints:
    def test_mark_restore(self):
        src = Source.from_bytes(b"abcdef")
        src.take(2)
        state = src.mark()
        src.take(3)
        src.restore(state)
        assert src.peek(1) == b"c"

    def test_commit(self):
        src = Source.from_bytes(b"abcdef")
        state = src.mark()
        src.take(3)
        src.commit(state)
        assert src.peek(1) == b"d"


class TestNewlineRecords:
    def test_record_scoping(self):
        src = Source.from_bytes(b"one\ntwo\n", NewlineRecords())
        assert src.begin_record()
        assert src.take_rest() == b"one"
        assert src.at_eor()
        src.end_record()
        assert src.begin_record()
        assert src.record_bytes() == b"two"
        src.end_record()
        assert not src.begin_record()

    def test_reads_clamped_to_record(self):
        src = Source.from_bytes(b"ab\ncd\n", NewlineRecords())
        src.begin_record()
        assert src.take(10) == b"ab"

    def test_crlf(self):
        src = Source.from_bytes(b"ab\r\ncd\r\n", NewlineRecords())
        src.begin_record()
        assert src.record_bytes() == b"ab"
        src.end_record()
        src.begin_record()
        assert src.record_bytes() == b"cd"

    def test_final_record_without_newline(self):
        src = Source.from_bytes(b"ab\ncd", NewlineRecords())
        src.begin_record()
        src.end_record()
        assert src.begin_record()
        assert src.record_bytes() == b"cd"
        src.end_record()
        assert not src.begin_record()

    def test_skip_to_eor(self):
        src = Source.from_bytes(b"abcdef\nxy\n", NewlineRecords())
        src.begin_record()
        src.take(2)
        assert src.skip_to_eor() == 4
        assert src.at_eor()

    def test_record_indices(self):
        src = Source.from_bytes(b"a\nb\nc\n", NewlineRecords())
        seen = []
        while src.begin_record():
            seen.append(src.record_idx)
            src.end_record()
        assert seen == [0, 1, 2]


class TestFixedWidthRecords:
    def test_fixed_records(self):
        src = Source.from_bytes(b"AAABBBCCC", FixedWidthRecords(3))
        out = []
        while src.begin_record():
            out.append(src.record_bytes())
            src.end_record()
        assert out == [b"AAA", b"BBB", b"CCC"]

    def test_short_final_record_surfaced(self):
        src = Source.from_bytes(b"AAAB", FixedWidthRecords(3))
        src.begin_record()
        src.end_record()
        assert src.begin_record()
        assert src.record_bytes() == b"B"

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            FixedWidthRecords(0)


class TestLengthPrefixedRecords:
    def test_roundtrip(self):
        disc = LengthPrefixedRecords(prefix=2, byteorder="big")
        payloads = [b"hello", b"", b"worlds"]
        data = b"".join(disc.header(p) + p for p in payloads)
        src = Source.from_bytes(data, disc)
        out = []
        while src.begin_record():
            out.append(src.record_bytes())
            src.end_record()
        assert out == payloads

    def test_inclusive_length(self):
        disc = LengthPrefixedRecords(prefix=4, byteorder="big", inclusive=True)
        payload = b"abc"
        data = disc.header(payload) + payload
        assert data[:4] == (7).to_bytes(4, "big")
        src = Source.from_bytes(data, disc)
        src.begin_record()
        assert src.record_bytes() == payload

    def test_bad_prefix_size(self):
        with pytest.raises(ValueError):
            LengthPrefixedRecords(prefix=3)


class TestNoRecords:
    def test_whole_source_is_one_record(self):
        src = Source.from_bytes(b"all of it", NoRecords())
        assert src.begin_record()
        assert src.record_bytes() == b"all of it"
        src.end_record()
        assert not src.begin_record()


class TestStreaming:
    """The Source must behave identically over a stream as over bytes."""

    def test_stream_matches_bytes(self):
        data = b"".join(f"record {i} with some padding\n".encode() for i in range(5000))
        from_bytes = []
        src = Source.from_bytes(data, NewlineRecords())
        while src.begin_record():
            from_bytes.append(src.record_bytes())
            src.end_record()
        from_stream = []
        src = Source(stream=io.BytesIO(data), discipline=NewlineRecords())
        while src.begin_record():
            from_stream.append(src.record_bytes())
            src.end_record()
        assert from_bytes == from_stream

    def test_buffer_is_trimmed(self):
        data = b"x" * 100 + b"\n"
        src = Source(stream=io.BytesIO(data * 10000), discipline=NewlineRecords())
        max_buf = 0
        while src.begin_record():
            src.end_record()
            max_buf = max(max_buf, len(src._buf))
        # Buffer must stay bounded (far below the ~1MB total).
        assert max_buf < 300_000

    def test_scan_across_chunk_boundary(self):
        # Terminator placed straddling the 64KiB chunk boundary.
        data = b"a" * (1 << 16) + b"|tail\n"
        src = Source(stream=io.BytesIO(data), discipline=NewlineRecords())
        src.begin_record()
        body = src.take_until(b"|")
        assert len(body) == 1 << 16


@given(st.lists(st.binary(max_size=40).filter(lambda b: b"\n" not in b and b"\r" not in b),
                max_size=20))
def test_newline_records_roundtrip(payloads):
    data = b"".join(p + b"\n" for p in payloads)
    src = Source.from_bytes(data, NewlineRecords())
    out = []
    while src.begin_record():
        out.append(src.record_bytes())
        src.end_record()
    assert out == payloads


class TestWindowedSource:
    """Sources opened at an aligned offset (the parallel engine's chunks)."""

    DATA = b"aa\nbbb\ncccc\nddddd\n"

    def test_bytes_window_reports_absolute_offsets(self):
        # Window starting at the 'bbb' record: positions stay absolute.
        src = Source(self.DATA[3:], discipline=NewlineRecords(), start=3)
        assert src.pos == 3
        assert src.begin_record()
        assert src.record_bytes() == b"bbb"

    def test_file_window(self, tmp_path):
        path = tmp_path / "w.dat"
        path.write_bytes(self.DATA)
        src = Source.from_file(str(path), NewlineRecords(), start=3, end=12)
        records = []
        with src:
            while src.begin_record():
                records.append(src.record_bytes())
                src.end_record()
        assert records == [b"bbb", b"cccc"]

    def test_window_end_is_eof(self, tmp_path):
        path = tmp_path / "w.dat"
        path.write_bytes(self.DATA)
        src = Source.from_file(str(path), NewlineRecords(), start=0, end=7)
        with src:
            src.begin_record()
            src.end_record()
            src.begin_record()
            assert src.record_bytes() == b"bbb"
            src.end_record()
            assert not src.begin_record()

    def test_windows_tile_to_whole_stream(self, tmp_path):
        path = tmp_path / "w.dat"
        path.write_bytes(self.DATA)
        whole = []
        with Source.from_file(str(path), NewlineRecords()) as src:
            while src.begin_record():
                whole.append(src.record_bytes())
                src.end_record()
        split = []
        for start, end in ((0, 7), (7, len(self.DATA))):
            with Source.from_file(str(path), NewlineRecords(),
                                  start=start, end=end) as src:
                while src.begin_record():
                    split.append(src.record_bytes())
                    src.end_record()
        assert split == whole


class TestFromStringEncoding:
    def test_latin1_is_byte_transparent(self):
        # Every code point 0-255 maps to the identical byte value.
        text = "".join(chr(i) for i in range(256))
        src = Source.from_string(text)
        assert src.take_rest() == bytes(range(256))

    def test_non_ascii_text(self):
        src = Source.from_string("café\n", NewlineRecords())
        src.begin_record()
        assert src.record_bytes() == b"caf\xe9"


# -- block framing against per-record ``bounds`` framing ----------------------
#
# ``Source.frames`` frames a buffered block at a time through
# ``discipline.frame_block``.  The reference below is the same discipline
# with the bulk method removed, so every record takes the per-record
# ``begin_record`` → ``bounds`` step.  Both must give equal reps and pds
# and leave the cursor in the same state after every record.


class PerRecordNewline(NewlineRecords):
    frame_block = RecordDiscipline.frame_block


class PerRecordFixed(FixedWidthRecords):
    frame_block = RecordDiscipline.frame_block


ROW = "Precord Pstruct row_t { Puint16 n; '|'; Pstring(:'|':) s; };"
CELL = "Precord Pstruct cell_t { Puint8_FW(:1:) d; Pstring_FW(:2:) s; };"
#: ``pair_t`` is not a record, but its members are: the loop's record
#: closes inside the body and the next one opens there, so the cursor
#: leaves the frame and the loop must frame again from it.
PAIRS = ("Precord Pstruct half_t { Puint16 n; };\n"
         "Pstruct pair_t { half_t a; half_t b; };")

_LONG = 1 << 16  # the block cap


def _state(src):
    return (src.pos, src.record_idx, src.in_record, src.rec_start,
            src.rec_end, src.rec_next)


def _run(desc, open_src, rtype, limits, interval):
    src = open_src(desc.discipline)
    if limits is not None:
        src.set_limits(limits)
    builder = src.index_sink = IndexBuilder(interval)
    with src:
        out = [(rep, pd_tree(pd), _state(src))
               for rep, pd in desc.records(src, rtype)]
    return out, (builder.offsets, builder.records, builder.end)


def _walk(discipline, open_src, interval):
    src = open_src(discipline)
    builder = src.index_sink = IndexBuilder(interval)
    with src:
        states = [_state(src) for _ in src.boundaries()]
    return states, (builder.offsets, builder.records, builder.end)


def _assert_same(block_desc, ref_desc, open_src, rtype, limits=None,
                 interval=3):
    got = _run(block_desc, open_src, rtype, limits, interval)
    assert got == _run(ref_desc, open_src, rtype, limits, interval)
    walked = _walk(block_desc.discipline, open_src, interval)
    assert walked == _walk(ref_desc.discipline, open_src, interval)
    return got


def _openers(data, window, tmp_dir):
    """Every way a record loop meets ``data``: slurped bytes, a sliding
    window of ``window`` bytes, and each range ``plan_file_chunks``
    cuts the file into."""
    path = os.path.join(tmp_dir, "frames.dat")
    with open(path, "wb") as handle:
        handle.write(data)
    yield lambda disc: Source.from_bytes(data, disc)
    yield lambda disc: StreamSource(io.BytesIO(data), disc, window=window)
    for start, end in plan_file_chunks(path, NewlineRecords(), 3,
                                       min_chunk=1) or ():
        yield lambda disc, s=start, e=end: Source.from_file(
            path, disc, start=s, end=e)


_line = st.one_of(
    st.text("0123456789|ab\r", max_size=12).map(str.encode),
    st.sampled_from([_LONG - 3, _LONG + 5]).map(lambda n: b"7|" + b"a" * n))
_limits = st.one_of(
    st.none(),
    st.builds(ParseLimits,
              max_record_bytes=st.none() | st.integers(1, 12),
              max_errors=st.none() | st.integers(1, 5),
              deadline=st.sampled_from([None, 1e-9, 1e6])))


@pytest.fixture(scope="module")
def framing_descs():
    return {name: (compile_description(text, discipline=block),
                   compile_description(text, discipline=ref))
            for name, text, block, ref in (
                ("row", ROW, NewlineRecords(), PerRecordNewline()),
                ("pair", PAIRS, NewlineRecords(), PerRecordNewline()),
                ("cell", CELL, FixedWidthRecords(3), PerRecordFixed(3)))}


@pytest.fixture(scope="module")
def frames_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("frames"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_line, max_size=12),
       crlf=st.booleans(), terminated=st.booleans(),
       window=st.sampled_from([1, 3, 7, 64, 1 << 20]),
       limits=_limits, interval=st.integers(1, 4))
def test_block_framing_matches_per_record_bounds(
        framing_descs, frames_dir, lines, crlf, terminated, window, limits,
        interval):
    data = b"".join(ln + (b"\r\n" if crlf else b"\n") for ln in lines)
    if lines and not terminated:
        data = data[:-2 if crlf else -1]
    if len(data) > _LONG:  # a refill per byte of a long line is slow
        window = max(window, 64)
    for name, rtype in (("row", "row_t"), ("pair", "pair_t")):
        block, ref = framing_descs[name]
        for open_src in _openers(data, window, frames_dir):
            _assert_same(block, ref, open_src, rtype, limits, interval)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=40), window=st.sampled_from([1, 2, 5, 64]),
       limits=_limits, interval=st.integers(1, 4))
def test_fixed_width_block_framing_matches_per_record_bounds(
        framing_descs, data, window, limits, interval):
    # Lengths that are not a multiple of the width end in a short record.
    block, ref = framing_descs["cell"]
    for open_src in (lambda disc: Source.from_bytes(data, disc),
                     lambda disc: StreamSource(io.BytesIO(data), disc,
                                               window=window)):
        _assert_same(block, ref, open_src, "cell_t", limits, interval)


def test_records_past_the_block_cap_take_the_bounds_step(framing_descs):
    block, ref = framing_descs["row"]
    data = b"1|a\n" + b"2|" + b"b" * (3 * _LONG) + b"\n3|c\n"
    got = _assert_same(block, ref, lambda disc: Source.from_bytes(data, disc),
                       "row_t")
    assert [rep.n for rep, _pd, _state in got[0]] == [1, 2, 3]
    # A block never copies more than the cap out of a slurped input.
    src = Source.from_bytes(b"ab\n" * _LONG, NewlineRecords())
    assert list(src.discipline.frame_block(src, 0))[-1][2] <= _LONG
    wide = b"x" * (_LONG + 7)
    assert [s[:2] for s in _walk(
        FixedWidthRecords(_LONG + 3), lambda d: Source.from_bytes(wide, d),
        1)[0]] == [(_LONG + 3, 0), (_LONG + 7, 1)]


def test_one_block_frames_every_buffered_record():
    src = Source.from_bytes(b"a\r\nbb\n\nccc", NewlineRecords())
    frames = list(src.discipline.frame_block(src, 0))
    assert frames == [(0, 1, 3, b"a"), (3, 5, 6, b"bb"), (6, 6, 7, b"")]
    assert [s[:2] for s in _walk(NewlineRecords(),
                                 lambda d: Source.from_bytes(
                                     b"a\r\nbb\n\nccc", d), 1)[0]] == [
        (3, 0), (6, 1), (7, 2), (10, 3)]
