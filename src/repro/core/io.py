"""Input abstraction for the PADS runtime.

The paper's runtime reads ad hoc data through SFIO with a pluggable notion
of *record*: ASCII sources are typically newline-terminated, binary sources
fixed-width, and Cobol sources length-prefixed (Section 3, "the notion of a
record varies depending upon the data encoding").  This module provides:

* :class:`RecordDiscipline` and its three standard implementations,
* :class:`Source` — a buffered byte cursor over bytes or a binary stream,
  supporting incremental reads (so multi-gigabyte files need never be fully
  resident), record scoping, checkpoint/restore for union backtracking,
  and bounded scanning used by error recovery.

All reads are clamped to the current record when a record is open, so a
panicking parser can never run past a record boundary.

For the parallel engine (:mod:`repro.parallel`) this module also provides
*chunk planning*: disciplines that can locate a record boundary from an
arbitrary byte offset declare ``chunkable = True`` and implement
``align``, and :func:`plan_chunks` uses that to split an input into
record-aligned byte ranges.  A :class:`Source` can be opened over such a
range (``start``/``end``), in which case it reports absolute offsets but
behaves as if the window were the whole input.  Chunkable disciplines
additionally implement ``cut``, which locates the last record boundary
inside an in-memory buffer — what the streaming feeder uses to carve a
live stream into worker chunks without seeking.

For inputs that cannot be slurped or seeked at all — pipes, sockets,
``tail -f``-style growing files — :class:`StreamSource` parses through a
*sliding window*: bytes are pulled on demand in window-sized refills and
retired as soon as the record that owned them is sealed, so memory stays
O(window + largest record) no matter how large (or endless) the input
is.  See :mod:`repro.stream` for the user-facing entry points.

Text handling note: strings given to the runtime are encoded **latin-1**
everywhere (``Source.from_string``, ``CompiledDescription.open``).
Latin-1 is the byte-transparent choice — every byte value 0-255 maps to
exactly one code point — so parsing, writing and error offsets agree with
the underlying bytes, matching the paper's byte-oriented C runtime.
"""

from __future__ import annotations

import os
from time import monotonic, sleep
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple

from .. import observe
from .errors import ErrCode as _EC
from .errors import Loc
from .limits import ParseLimits, note_limit

_CHUNK = 1 << 16

#: Smallest chunk worth fanning out to a worker process; splits finer than
#: this cost more in process traffic than the parsing they save.
MIN_CHUNK_BYTES = 1 << 16


def transparent_encode(text: str) -> bytes:
    """Encode runtime text back to the bytes it was parsed from.

    Code points 0-255 are literal bytes (the latin-1 convention above);
    code points above 255 can only have come from a ``Pu_string`` UTF-8
    decode, so they re-encode as UTF-8.  Round-trips both byte-string and
    Unicode-string fields in one output stream.
    """
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError:
        return b"".join(
            bytes([o]) if (o := ord(ch)) < 256 else ch.encode("utf-8")
            for ch in text
        )


class RecordDiscipline:
    """Strategy for finding record boundaries.

    ``bounds(src, pos)`` returns ``(content_start, content_end,
    next_start)`` as absolute offsets — where the record's payload begins
    (after any length prefix), where it ends, and where the next record
    starts — or ``None`` when no complete record begins at ``pos`` (at end
    of input).  Implementations may call ``src._ensure``/``src._find`` to
    pull more data from the underlying stream.  ``bounds`` is the one
    definition of a record; ``frame_block``, ``grid`` and ``count`` are
    bulk shortcuts that must agree with it.
    """

    name = "none"

    #: True when record boundaries can be located from an arbitrary byte
    #: offset without replaying the stream from the start — the property
    #: the parallel engine needs to split a file into independent chunks.
    chunkable = False

    def bounds(self, src: "Source", pos: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def frame_block(self, src: "Source", pos: int):
        """Frame, in one pass, the complete records already buffered at
        ``pos``, reading at most ``_CHUNK`` bytes and never refilling.

        Returns an iterator of ``(content_start, content_end, next_start,
        payload)``, one per record and equal to what ``bounds`` would
        give record for record, or ``None`` when no complete record fits
        (the caller then takes one ``bounds`` step).  Leaving records out
        is always correct: only what ``bounds`` would frame identically
        may be framed here.
        """
        return None

    def pitch(self, width: int) -> Optional[int]:
        """The constant distance between record starts when every
        record's payload is ``width`` bytes, or None when the discipline
        gives records no constant pitch (then the record loop has no
        grid block step)."""
        return None

    def grid(self, src: "Source", pos: int, width: int, stride: int) -> int:
        """How many records at ``pos`` are already buffered (at most
        ``_CHUNK`` bytes, never refilling) and laid out as a grid: each
        ``width`` payload bytes at ``stride`` pitch, framed exactly as
        ``bounds`` would frame them.  0 when the record at ``pos`` is
        not (torn, short, or not yet buffered).  Only disciplines with a
        ``pitch`` implement it."""
        return 0

    #: ``count(src)``: how many records are left at ``src``'s cursor,
    #: by arithmetic over the rest of the input (which it consumes), for
    #: disciplines whose records a count need not frame one by one;
    #: None for the rest (``Source.count_rest`` then frames them).
    count = None

    def align(self, handle: BinaryIO, offset: int, size: int,
              origin: int = 0) -> Optional[int]:
        """Absolute offset of the first record boundary at or after
        ``offset`` in the seekable binary ``handle`` of ``size`` bytes.

        ``origin`` is where the record stream begins (non-zero when a
        header precedes the records).  Returns ``None`` when the
        discipline cannot align from an arbitrary offset (``chunkable``
        is False).  ``origin`` and ``size`` are always boundaries.
        """
        return None

    def cut(self, buf: bytes) -> Optional[int]:
        """Length of the longest prefix of ``buf`` ending on a record
        boundary, assuming ``buf`` itself starts on one.

        This is the streaming twin of ``align``: it lets a feeder carve
        worker chunks out of a live, unseekable stream.  Returns 0 when
        no complete record is buffered yet and ``None`` when the
        discipline cannot cut (``chunkable`` is False).
        """
        return None

    def trailer(self, content: bytes) -> bytes:
        """Bytes to append after a record's payload when writing."""
        return b""

    def header(self, content: bytes) -> bytes:
        """Bytes to prepend before a record's payload when writing."""
        return b""

    def frame(self, payload: bytes) -> bytes:
        """A whole written record: header, payload and trailer."""
        return self.header(payload) + payload + self.trailer(payload)

    def framed(self, content):
        """``content(rep) -> payload | None`` (a compiled record writer)
        as a writer of whole records (:meth:`frame`), or None where
        ``content`` declines."""
        frame = self.frame

        def write(rep):
            payload = content(rep)
            return None if payload is None else frame(payload)
        return write


class NewlineRecords(RecordDiscipline):
    """Newline-terminated records (the paper's ASCII default).

    A trailing ``\\r`` before the newline is treated as part of the record
    terminator, so Windows-style data parses identically.
    """

    name = "newline"
    chunkable = True

    def align(self, handle: BinaryIO, offset: int, size: int,
              origin: int = 0) -> Optional[int]:
        if offset <= origin:
            return origin
        if offset >= size:
            return size
        # A boundary is any position immediately after a '\n', so scan for
        # the first newline at or after offset-1.
        handle.seek(offset - 1)
        pos = offset - 1
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                return size
            idx = chunk.find(b"\n")
            if idx >= 0:
                return min(pos + idx + 1, size)
            pos += len(chunk)

    def cut(self, buf: bytes) -> Optional[int]:
        return buf.rfind(b"\n") + 1

    def bounds(self, src: "Source", pos: int):
        if not src._ensure(pos, 1):
            return None
        nl = src._find(b"\n", pos)
        if nl < 0:
            # Final record without trailing newline.
            return pos, src._end(), src._end()
        end = nl
        if end > pos and src._byte_at(end - 1) == 0x0D:
            end -= 1
        return pos, end, nl + 1

    def frame_block(self, src: "Source", pos: int):
        # Everything up to the last newline in the capped block is whole
        # lines; the unterminated tail is left to ``bounds``.
        buf = src._buf
        lo = pos - src._base
        cut = buf.rfind(b"\n", lo, lo + _CHUNK)
        if cut < 0:
            return None
        return _newline_frames(bytes(buf[lo:cut]).split(b"\n"), pos)

    def pitch(self, width: int) -> Optional[int]:
        return width + 1

    def grid(self, src: "Source", pos: int, width: int, stride: int) -> int:
        # A record frames at ``width`` when its newline sits right after
        # ``width`` payload bytes that hold no newline and do not end in
        # the ``\r`` that ``bounds`` would strip.
        buf = src._buf
        lo = pos - src._base
        n = min(len(buf) - lo, _CHUNK) // stride
        if (not n or buf.find(b"\n", lo, lo + stride) != lo + width
                or buf[lo + width - 1] == 0x0D):
            return 0
        hi = lo + n * stride
        # The whole block at once: a newline at every pitch and no other
        # newline or stripped ``\r``.
        if (buf[lo + width:hi:stride] == b"\n" * n
                and buf.count(b"\n", lo, hi) == n
                and 0x0D not in buf[lo + width - 1:hi:stride]):
            return n
        # Torn somewhere: the aligned prefix.
        k, cur = 1, lo + stride
        while k < n:
            nxt = buf.find(b"\n", cur, hi)
            if nxt != cur + width or buf[nxt - 1] == 0x0D:
                break
            cur = nxt + 1
            k += 1
        return k

    def count(self, src: "Source") -> int:
        n, last = 0, 0x0A
        for buf, lo, hi in src._rest():
            if hi > lo:
                n += buf.count(b"\n", lo, hi)
                last = buf[hi - 1]
        return n + (last != 0x0A)  # an unterminated final record

    def trailer(self, content: bytes) -> bytes:
        return b"\n"

    def framed(self, content):
        if (type(self).trailer is not NewlineRecords.trailer
                or type(self).header is not RecordDiscipline.header):
            return super().framed(content)

        def write(rep):
            payload = content(rep)
            return None if payload is None else payload + b"\n"
        return write


def _newline_frames(lines: List[bytes], pos: int):
    for line in lines:
        nxt = pos + len(line) + 1
        if line[-1:] == b"\r":
            yield pos, nxt - 2, nxt, line[:-1]
        else:
            yield pos, nxt - 1, nxt, line
        pos = nxt


class FixedWidthRecords(RecordDiscipline):
    """Fixed-width records (typical for binary sources, paper Figure 1)."""

    name = "fixed"
    chunkable = True

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("record width must be positive")
        self.width = width

    def align(self, handle: BinaryIO, offset: int, size: int,
              origin: int = 0) -> Optional[int]:
        if offset <= origin:
            return origin
        # Round up to the next record multiple (counted from ``origin``);
        # a short final record belongs to the last chunk.
        return min(origin + -(-(offset - origin) // self.width) * self.width,
                   size)

    def cut(self, buf: bytes) -> Optional[int]:
        return len(buf) - len(buf) % self.width

    def bounds(self, src: "Source", pos: int):
        if not src._ensure(pos, 1):
            return None
        have = src._ensure_count(pos, self.width)
        # A short final record is still surfaced; the parser will report
        # RECORD_TOO_SHORT when it runs out of bytes.
        return pos, pos + have, pos + have

    def frame_block(self, src: "Source", pos: int):
        # Whole records only: a short final record is left to ``bounds``.
        w = self.width
        lo = pos - src._base
        size = min(len(src._buf) - lo, _CHUNK) // w * w
        if size <= 0:
            return None
        data = bytes(src._buf[lo:lo + size])
        return ((pos + i, pos + i + w, pos + i + w, data[i:i + w])
                for i in range(0, size, w))

    def pitch(self, width: int) -> Optional[int]:
        return width if width == self.width else None

    def grid(self, src: "Source", pos: int, width: int, stride: int) -> int:
        # Whole records only: a short final record is left to ``bounds``.
        return min(len(src._buf) - (pos - src._base), _CHUNK) // stride

    def count(self, src: "Source") -> int:
        # A short final record is still a record.
        return -(-sum(hi - lo for _buf, lo, hi in src._rest()) // self.width)


class LengthPrefixedRecords(RecordDiscipline):
    """Records that store their payload length first (Cobol convention).

    ``prefix`` is the width of the length field in bytes and ``byteorder``
    its endianness.  ``inclusive`` indicates whether the stored length
    counts the prefix itself.
    """

    name = "length-prefixed"

    def __init__(self, prefix: int = 4, byteorder: str = "big", inclusive: bool = False):
        if prefix not in (1, 2, 4, 8):
            raise ValueError("prefix must be 1, 2, 4 or 8 bytes")
        self.prefix = prefix
        self.byteorder = byteorder
        self.inclusive = inclusive

    def bounds(self, src: "Source", pos: int):
        if not src._ensure(pos, 1):
            return None
        if src._ensure_count(pos, self.prefix) < self.prefix:
            # Garbage tail shorter than a prefix; surface as a short record.
            return pos, src._end(), src._end()
        raw = src._slice(pos, pos + self.prefix)
        length = int.from_bytes(raw, self.byteorder)
        if self.inclusive:
            length = max(0, length - self.prefix)
        start = pos + self.prefix
        have = src._ensure_count(start, length)
        return start, start + have, start + have

    def header(self, content: bytes) -> bytes:
        length = len(content) + (self.prefix if self.inclusive else 0)
        return length.to_bytes(self.prefix, self.byteorder)


class NoRecords(RecordDiscipline):
    """No record structure: the whole source is one record."""

    name = "none"

    def bounds(self, src: "Source", pos: int):
        if not src._ensure(pos, 1):
            return None
        src._read_all()
        return pos, src._end(), src._end()


def discipline_from_spec(spec: str) -> RecordDiscipline:
    """Build a record discipline from its CLI/wire spelling.

    ``newline``, ``none``, ``fixed:<width>``, ``lenprefix:<bytes>`` —
    the spellings ``padsc --records`` and the parse service's
    ``records`` request field share.  Every malformed spec (unknown
    kind, non-numeric or out-of-range parameter) raises
    :class:`PadsError` so callers get a one-line diagnostic, never a
    traceback.
    """
    from .errors import PadsError
    kind = spec.strip()
    try:
        if kind == "newline":
            return NewlineRecords()
        if kind == "none":
            return NoRecords()
        if kind.startswith("fixed:"):
            return FixedWidthRecords(int(kind.split(":", 1)[1]))
        if kind.startswith("lenprefix:"):
            return LengthPrefixedRecords(int(kind.split(":", 1)[1]))
    except ValueError as exc:
        raise PadsError(f"bad record discipline {spec!r}: {exc}") from None
    raise PadsError(f"unknown record discipline {spec!r} "
                    "(use newline, none, fixed:<n>, lenprefix:<n>)")


class Source:
    """A buffered cursor over a byte source with record scoping.

    The cursor works in *absolute* byte offsets.  Data already consumed and
    no longer reachable (behind every checkpoint and the current record) is
    discarded from the internal buffer, which is what lets record-at-a-time
    clients process sources much larger than memory — the multiple-entry-
    point design from Section 4 of the paper.
    """

    def __init__(self, data: bytes | None = None, *, stream: Optional[BinaryIO] = None,
                 discipline: Optional[RecordDiscipline] = None,
                 start: int = 0, end: Optional[int] = None,
                 limits: Optional[ParseLimits] = None):
        if (data is None) == (stream is None):
            raise ValueError("provide exactly one of data or stream")
        self._buf = bytearray(data or b"")
        self._base = 0  # absolute offset of _buf[0]
        self._stream = stream
        self._owns_stream = True
        self._eof = stream is None
        #: How far speculative refills (boundary search, span scanning)
        #: read past the bytes actually requested.  StreamSource lowers
        #: this to its window so buffering stays bounded.
        self._readahead = _CHUNK
        self.pos = 0
        self.discipline: RecordDiscipline = discipline or NewlineRecords()
        # Window bounds: the cursor works in absolute offsets of the whole
        # underlying input, but behaves as if [start, end) were all of it.
        # With ``data``, the given bytes ARE the window and ``start`` is
        # the absolute offset of their first byte.
        self._hard_end = end
        if start:
            if stream is not None:
                stream.seek(start)
            self._base = start
            self.pos = start

        self.in_record = False
        self.record_idx = -1
        self.rec_start = start
        self.rec_end = start
        self.rec_next = start
        self._checkpoints = 0
        #: Optional boundary sampler (``repro.durable.IndexBuilder``)
        #: notified at sealed-byte retirement; one ``is None`` test per
        #: record when unused.
        self.index_sink = None

        # Resource budgets (None = unlimited).  ``total_errors`` is the
        # run-wide data-error count the ``max_errors`` budget draws on;
        # ``_depth`` tracks compound-parser nesting for ``max_depth``.
        self.limits: Optional[ParseLimits] = None
        self._deadline_at: Optional[float] = None
        self.total_errors = 0
        self._depth = 0
        if limits is not None:
            self.set_limits(limits)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, discipline: Optional[RecordDiscipline] = None,
                   *, limits: Optional[ParseLimits] = None) -> "Source":
        return cls(data, discipline=discipline, limits=limits)

    @classmethod
    def from_string(cls, text: str, discipline: Optional[RecordDiscipline] = None,
                    *, limits: Optional[ParseLimits] = None) -> "Source":
        # latin-1: byte-transparent, and consistent with the rest of the
        # runtime (see the module docstring).
        return cls(text.encode("latin-1"), discipline=discipline, limits=limits)

    @classmethod
    def from_stream(cls, stream: BinaryIO,
                    discipline: Optional[RecordDiscipline] = None,
                    **kwargs) -> "StreamSource":
        """Open an unseekable byte stream (pipe, socket file, growing
        file) through a bounded sliding window; see :class:`StreamSource`
        for the keyword options (``window``, ``follow``, ...)."""
        return StreamSource(stream, discipline, **kwargs)

    @classmethod
    def from_file(cls, path: str, discipline: Optional[RecordDiscipline] = None,
                  *, start: int = 0, end: Optional[int] = None,
                  limits: Optional[ParseLimits] = None) -> "Source":
        """Open ``path``, optionally windowed to the byte range
        ``[start, end)``.  ``start`` must be a record boundary (use
        :func:`plan_chunks` to compute aligned ranges); offsets reported
        in locations remain absolute file offsets."""
        return cls(stream=open(path, "rb"), discipline=discipline,
                   start=start, end=end, limits=limits)

    def close(self) -> None:
        if self._stream is not None:
            if self._owns_stream:
                self._stream.close()
            self._stream = None
            self._eof = True

    def __enter__(self) -> "Source":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- low-level buffer management ----------------------------------------

    def _end(self) -> int:
        """Absolute offset one past the last buffered byte."""
        return self._base + len(self._buf)

    def _fill(self, want: int) -> None:
        """Read from the stream until ``want`` absolute bytes exist or EOF.

        Reads never cross the window's ``end``: a windowed source is at
        EOF once the window is exhausted, even mid-file.
        """
        cap = self._hard_end
        if cap is not None and want > cap:
            want = cap
        while not self._eof and self._end() < want:
            n = max(_CHUNK, want - self._end())
            if cap is not None:
                n = min(n, cap - self._end())
                if n <= 0:
                    break
            chunk = self._stream.read(n)
            if not chunk:
                self._eof = True
                break
            self._buf.extend(chunk)

    def _read_all(self) -> None:
        cap = self._hard_end
        while not self._eof:
            n = _CHUNK
            if cap is not None:
                n = min(n, cap - self._end())
                if n <= 0:
                    break
            chunk = self._stream.read(n)
            if not chunk:
                self._eof = True
                break
            self._buf.extend(chunk)

    def _ensure(self, pos: int, n: int) -> bool:
        """True iff at least ``n`` bytes exist starting at absolute ``pos``."""
        self._fill(pos + n)
        return self._end() >= pos + n

    def _ensure_count(self, pos: int, n: int) -> int:
        """Number of bytes (<= n) actually available at ``pos``."""
        self._fill(pos + n)
        return max(0, min(self._end() - pos, n))

    def _byte_at(self, pos: int) -> int:
        return self._buf[pos - self._base]

    def _slice(self, start: int, end: int) -> bytes:
        return bytes(self._buf[start - self._base:end - self._base])

    def _find(self, needle: bytes, start: int, end: Optional[int] = None) -> int:
        """Find ``needle`` at absolute offset >= start, pulling data as needed.

        Returns the absolute offset or -1.  ``end`` (absolute, exclusive)
        bounds the search when given.
        """
        search_from = start
        while True:
            hi = len(self._buf) if end is None else min(len(self._buf), end - self._base)
            idx = self._buf.find(needle, search_from - self._base, hi)
            if idx >= 0:
                return idx + self._base
            if self._eof or (end is not None and self._end() >= end):
                return -1
            # Re-scan the tail that could straddle the chunk boundary.
            search_from = max(start, self._end() - len(needle) + 1)
            before = self._end()
            self._fill(self._end() + self._readahead)
            if self._end() == before:
                return -1

    def _trim(self) -> None:
        """Discard buffered bytes behind the cursor when safe."""
        if self._checkpoints:
            return
        keep_from = min(self.pos, self.rec_start if self.in_record else self.pos)
        drop = keep_from - self._base
        if drop > _CHUNK:
            del self._buf[:drop]
            self._base = keep_from

    #: Retire what a record step (``begin_record``) leaves behind the
    #: cursor; a sliding window retires all of it (:class:`StreamSource`).
    _retire = _trim

    # -- limits --------------------------------------------------------------

    def _limit(self) -> Optional[int]:
        """Absolute offset parsing may not cross (record end), or None."""
        return self.rec_end if self.in_record else None

    def avail(self, n: int) -> int:
        """Bytes available to the parser at the cursor, up to ``n``."""
        limit = self._limit()
        if limit is not None:
            return max(0, min(limit - self.pos, n))
        return self._ensure_count(self.pos, n)

    # -- resource budgets ------------------------------------------------------

    def set_limits(self, limits: Optional[ParseLimits]) -> None:
        """Attach a resource budget; starts the deadline clock now."""
        self.limits = limits
        self._deadline_at = None
        if limits is not None and limits.deadline is not None:
            self._deadline_at = monotonic() + limits.deadline

    def note_errors(self, n: int) -> None:
        """Charge ``n`` data errors against the ``max_errors`` budget."""
        if n:
            self.total_errors += n

    def deadline_expired(self) -> bool:
        return self._deadline_at is not None and monotonic() > self._deadline_at

    def abort_to_eof(self) -> None:
        """Stop the run: close any record scope and move to end of input.

        Used when a run-wide budget (deadline, error count) is exhausted;
        afterwards ``at_eof`` is True so every record loop terminates.
        """
        if self.in_record:
            self.in_record = False
        self._read_all()
        self.pos = self._end()

    def scan_cap(self, default: int) -> int:
        """Effective recovery-scan window: ``max_scan`` clamped under the
        engine's built-in cap ``default``."""
        if self.limits is not None and self.limits.max_scan is not None:
            return min(default, self.limits.max_scan)
        return default

    def push_depth(self, pd) -> bool:
        """Enter one compound-parser level; False when ``max_depth`` would
        be exceeded (the level is NOT entered, and the refusal is recorded
        on ``pd`` as a NEST_LIMIT error)."""
        limits = self.limits
        if (limits is not None and limits.max_depth is not None
                and self._depth >= limits.max_depth):
            note_limit(pd, _EC.NEST_LIMIT, self.here())
            return False
        self._depth += 1
        return True

    def pop_depth(self) -> None:
        self._depth -= 1

    # -- cursor primitives used by base types --------------------------------

    def at_eof(self) -> bool:
        if self.in_record:
            return False
        return not self._ensure(self.pos, 1)

    def at_eor(self) -> bool:
        return self.in_record and self.pos >= self.rec_end

    def at_end(self) -> bool:
        """At end of the current scope (record if open, else whole source)."""
        return self.at_eor() if self.in_record else self.at_eof()

    def peek(self, n: int = 1) -> bytes:
        k = self.avail(n)
        return self._slice(self.pos, self.pos + k)

    def first_byte(self) -> int:
        """The byte at the cursor (or -1), without allocation — the hot
        path for single-character literal matching in generated parsers."""
        pos = self.pos
        if self.in_record:
            if pos >= self.rec_end:
                return -1
        elif not self._ensure(pos, 1):
            return -1
        return self._buf[pos - self._base]

    def take(self, n: int) -> bytes:
        k = self.avail(n)
        out = self._slice(self.pos, self.pos + k)
        self.pos += k
        return out

    def skip(self, n: int) -> int:
        k = self.avail(n)
        self.pos += k
        return k

    def match_bytes(self, lit: bytes) -> bool:
        """Consume ``lit`` at the cursor if present."""
        if self.peek(len(lit)) == lit:
            self.pos += len(lit)
            return True
        return False

    def scan_for(self, lit: bytes, max_scan: Optional[int] = None) -> int:
        """Absolute offset of ``lit`` at/after the cursor within scope, or -1.

        Does not move the cursor.  Used for literal resynchronisation and
        array separator recovery.
        """
        end = self._limit()
        if max_scan is not None:
            cap = self.pos + max_scan
            end = cap if end is None else min(end, cap)
        return self._find(lit, self.pos, end)

    def take_until(self, lit: bytes) -> Optional[bytes]:
        """Consume and return bytes up to (not including) ``lit``.

        Returns None when ``lit`` does not occur in scope; the cursor does
        not move in that case.
        """
        idx = self.scan_for(lit)
        if idx < 0:
            return None
        out = self._slice(self.pos, idx)
        self.pos = idx
        return out

    def take_span(self, allowed: frozenset) -> bytes:
        """Consume the maximal run of bytes whose values are in ``allowed``.

        This is the hot path for ASCII integer and string base types, so it
        works directly on the internal buffer in chunks instead of peeking
        byte by byte.
        """
        start = self.pos
        if self.in_record:  # an open record is wholly buffered
            base, buf = self._base, self._buf
            i, stop = start - base, self.rec_end - base
            while i < stop and buf[i] in allowed:
                i += 1
            self.pos = i + base
            return bytes(buf[start - base:i])
        limit = self._limit()
        while True:
            hi = self._end() if limit is None else min(self._end(), limit)
            i = self.pos - self._base
            buf = self._buf
            stop = hi - self._base
            while i < stop and buf[i] in allowed:
                i += 1
            self.pos = i + self._base
            if self.pos < hi or (limit is not None and self.pos >= limit):
                break
            if self._eof:
                break
            before = self._end()
            self._fill(self._end() + self._readahead)
            if self._end() == before:
                break
        return self._slice(start, self.pos)

    def take_rest(self) -> bytes:
        """Consume everything to the end of the current scope."""
        if self.in_record:
            out = self._slice(self.pos, self.rec_end)
            self.pos = self.rec_end
            return out
        self._read_all()
        out = self._slice(self.pos, self._end())
        self.pos = self._end()
        return out

    def scope_bytes(self) -> bytes:
        """All remaining bytes in scope, without consuming (regex support)."""
        if self.in_record:
            return self._slice(self.pos, self.rec_end)
        self._read_all()
        return self._slice(self.pos, self._end())

    # -- records ---------------------------------------------------------------

    def begin_record(self) -> bool:
        """Open a record at the cursor.  False at end of input.

        Nested calls are not allowed; Precord types at nested positions
        simply parse within the enclosing record (matching the C runtime,
        where the record discipline lives in the IO stack).
        """
        if self.in_record:
            return True
        self._retire()
        b = self.discipline.bounds(self, self.pos)
        if b is None:
            return False
        self.rec_start, self.rec_end, self.rec_next = b
        self.pos = self.rec_start
        self.in_record = True
        self.record_idx += 1
        return True

    def end_record(self) -> None:
        """Close the current record and advance past its trailer."""
        if not self.in_record:
            return
        self.pos = self.rec_next
        self.in_record = False
        sink = self.index_sink
        if sink is not None:
            sink.note(self.record_idx, self.rec_next)

    def frames(self) -> Iterator[Optional[bytes]]:
        """Open each remaining record in turn and yield its payload; the
        caller seals it (``end_record``) before resuming.

        The state at each yield is exactly what ``begin_record`` leaves,
        but records are framed a buffered block at a time
        (``discipline.frame_block``: one pass per block of at most
        ``_CHUNK`` bytes, trimmed once per block).  Whatever no block
        frames — an unterminated final record, one that straddles a
        refill or outgrows the block, every record of a discipline
        without a block framer — takes one ``begin_record`` step, and
        then payload is None (read it with ``record_bytes``).  If the
        caller leaves the cursor anywhere but the sealed record's
        ``rec_next``, the rest of the block is dropped and framing
        starts again at the cursor.
        """
        discipline = self.discipline
        while True:
            self._trim()
            block = None if self.in_record \
                else discipline.frame_block(self, self.pos)
            if block is None:
                if not self.begin_record():
                    return
                yield None
                continue
            for start, end, nxt, payload in block:
                self.rec_start = start
                self.rec_end = end
                self.rec_next = nxt
                self.pos = start
                self.in_record = True
                self.record_idx += 1
                yield payload
                if self.pos != nxt:
                    break

    def grid_frames(self, kernel, width: int, stride: int,
                    dosem: bool) -> Iterator[object]:
        """``frames`` with a grid block step, for a record whose batch
        ``kernel`` parses ``width``-byte payloads at ``stride`` pitch.

        Each block of records already buffered at the cursor that the
        discipline lays out as a grid (``discipline.grid``) is parsed by
        one kernel call; its records are then opened in turn, each with
        the kernel's rep as payload, or None where the kernel missed.
        Any record no block takes (torn, short, or the first one past the
        buffered bytes, whose step refills) is opened by one
        ``begin_record`` step, payload None.  The state at each yield is
        exactly what ``frames`` leaves.  Under an observer the
        ``batch.*`` counters say which records the grid took
        (``records``) and which it did not (``fallback_records``).
        """
        discipline = self.discipline
        while True:
            self._trim()
            pos = self.pos
            k = 0 if self.in_record else discipline.grid(self, pos, width,
                                                         stride)
            if not k:
                if not self.begin_record():
                    return
                observe.count("batch.fallback_records")
                yield None
                continue
            lo = pos - self._base
            reps, _miss = kernel(self._buf[lo:lo + k * stride], k, stride,
                                 dosem)
            meter = observe.CURRENT is not None
            if meter:
                observe.count("batch.batches")
                observe.count("batch.bytes", n=k * stride)
            for rep in reps:
                nxt = pos + stride
                self.rec_start = self.pos = pos
                self.rec_end = pos + width
                self.rec_next = nxt
                self.in_record = True
                self.record_idx += 1
                if meter:
                    # Per record, so a checkpoint taken mid-block holds
                    # exactly the records before it.
                    observe.count("batch.records" if rep is not None
                                  else "batch.fallback_records")
                yield rep
                if self.pos != nxt:
                    break
                pos = nxt

    def boundaries(self) -> Iterator[None]:
        """Seal every remaining record without parsing it, yielding after
        each — index builds, seeks and checkpointed counts."""
        for _ in self.frames():
            self.end_record()
            yield

    def count_rest(self) -> int:
        """Seal every remaining record without parsing it and return how
        many there were — the record-counting floor.  A discipline with
        a ``count`` counts by arithmetic, unless something watches each
        boundary (an index sink, limits, an open record or checkpoint);
        otherwise every record is framed (``boundaries``)."""
        count = self.discipline.count
        if (count is None or self.index_sink is not None
                or self.limits is not None or self.in_record
                or self._checkpoints):
            return sum(1 for _ in self.boundaries())
        n = count(self)
        self.record_idx += n
        self.rec_start = self.rec_end = self.rec_next = self.pos
        return n

    def _rest(self) -> Iterator[Tuple[bytearray, int, int]]:
        """Consume the rest of the input one buffered span at a time:
        yields ``(buffer, lo, hi)`` with the unread bytes at
        ``buffer[lo:hi]``, then retires them and refills."""
        while True:
            yield self._buf, self.pos - self._base, len(self._buf)
            self._base = self.pos = self._end()
            del self._buf[:]
            self._fill(self.pos + self._readahead)
            if self._end() == self.pos:
                return

    def skip_to_eor(self) -> int:
        """Panic recovery: jump to end-of-record.  Returns bytes skipped."""
        if not self.in_record:
            rest = self.take_rest()
            return len(rest)
        skipped = max(0, self.rec_end - self.pos)
        self.pos = self.rec_end
        return skipped

    def record_bytes(self) -> bytes:
        """The full payload of the current record."""
        return self._slice(self.rec_start, self.rec_end)

    # -- checkpoints -------------------------------------------------------------

    def mark(self) -> tuple:
        """Checkpoint the cursor (for Punion backtracking)."""
        self._checkpoints += 1
        return (self.pos, self.in_record, self.record_idx,
                self.rec_start, self.rec_end, self.rec_next)

    def restore(self, state: tuple) -> None:
        (self.pos, self.in_record, self.record_idx,
         self.rec_start, self.rec_end, self.rec_next) = state
        self._checkpoints -= 1

    def commit(self, state: tuple) -> None:
        """Release a checkpoint without rewinding."""
        self._checkpoints -= 1

    # -- locations ------------------------------------------------------------------

    def loc_from(self, start: int) -> Loc:
        return Loc(start, self.pos, self.record_idx)

    def here(self) -> Loc:
        return Loc(self.pos, self.pos, self.record_idx)


# -- streaming ----------------------------------------------------------------

#: Default sliding-window size for streaming sources (1 MiB): large
#: enough that refill overhead vanishes, small enough that a thousand
#: concurrent streams fit in a few GB.
DEFAULT_STREAM_WINDOW = 1 << 20


class StreamSource(Source):
    """A :class:`Source` over an unseekable byte stream with bounded
    buffering — the record-at-a-time entry point the paper promises for
    multi-gigabyte feeds, without ever materializing the input.

    Three behaviours distinguish it from a plain stream-backed
    :class:`Source`:

    * **Sliding window.**  Refills pull at most ``window`` bytes at a
      time (speculative readahead is clamped to the window too), and
      bytes behind the current record are retired eagerly once the
      record is sealed, so peak buffering is O(window + largest record)
      regardless of input size.  The window is a working-set target, not
      a hard cap: one record longer than the window is still parsed
      correctly (and shows up in the high-water mark); combine with
      ``ParseLimits.max_record_bytes`` for a hard bound.  When
      ``limits.max_scan`` is larger than the window, the window is
      widened to it so a maximal error-recovery scan never thrashes.
    * **Tail mode.**  ``follow=True`` turns end-of-stream into a poll:
      the source sleeps ``poll_interval`` seconds and retries — the
      ``tail -f`` discipline for growing files — reporting EOF only
      after ``idle_timeout`` seconds pass with no new data (or never,
      when ``idle_timeout`` is None).
    * **Instrumentation.**  Refills, stalls (polls that found no data)
      and the buffer high-water mark are counted on the instance
      (``refills``/``stalls``/``high_water``) and, when observability is
      enabled, in the ``stream.*`` metrics.

    Record disciplines are refill-transparent: boundary searches rescan
    the straddling tail after every refill, so a record split across any
    refill boundary parses byte-identically to the slurped path (pinned
    by the differential sweep in ``tests/test_stream.py``).
    """

    def __init__(self, stream: BinaryIO,
                 discipline: Optional[RecordDiscipline] = None, *,
                 window: int = DEFAULT_STREAM_WINDOW,
                 follow: bool = False,
                 poll_interval: float = 0.05,
                 idle_timeout: Optional[float] = None,
                 limits: Optional[ParseLimits] = None,
                 owns_stream: bool = False, start: int = 0):
        super().__init__(stream=stream, discipline=discipline, limits=limits,
                         start=start)
        self._owns_stream = owns_stream
        if limits is not None and limits.max_scan:
            window = max(window, limits.max_scan)
        self.window = max(1, window)
        self._refill = max(1, min(self.window, _CHUNK))
        self._readahead = self._refill
        self._trim_at = max(1, self._refill // 2)
        self.follow = follow
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        # ``read1`` (when the stream has it) returns whatever bytes are
        # ready instead of blocking for a full ``n`` — lower latency on
        # pipes and growing files.
        self._read = getattr(stream, "read1", None) or stream.read
        self.refills = 0
        self.stalls = 0
        self.high_water = 0

    # -- instrumentation ---------------------------------------------------

    def _note_refill(self) -> None:
        self.refills += 1
        buffered = len(self._buf)
        if buffered > self.high_water:
            self.high_water = buffered
        obs = observe.CURRENT
        if obs is not None:
            m = obs.metrics
            m.counter("stream.refills").inc()
            m.gauge("stream.bytes_buffered").set(buffered)
            hw = m.gauge("stream.high_water")
            if buffered > hw.value:
                hw.set(buffered)

    def _note_stall(self) -> None:
        self.stalls += 1
        obs = observe.CURRENT
        if obs is not None:
            obs.metrics.counter("stream.stalls").inc()

    # -- sliding-window buffer management ----------------------------------

    def _fill(self, want: int) -> None:
        cap = self._hard_end
        if cap is not None and want > cap:
            want = cap
        idle_since = None
        while not self._eof and self._end() < want:
            n = max(want - self._end(), self._refill)
            if cap is not None:
                n = min(n, cap - self._end())
                if n <= 0:
                    break
            chunk = self._read(n)
            if chunk:
                self._buf.extend(chunk)
                self._note_refill()
                idle_since = None
                continue
            if not self.follow:
                self._eof = True
                break
            # Tail mode: no data *yet*.  Poll until new bytes appear or
            # the idle timeout expires (then: clean EOF).
            self._note_stall()
            now = monotonic()
            if idle_since is None:
                idle_since = now
            elif (self.idle_timeout is not None
                    and now - idle_since >= self.idle_timeout):
                self._eof = True
                break
            sleep(self.poll_interval)

    def _read_all(self) -> None:
        # Route through _fill so follow/stall accounting stays uniform.
        while not self._eof:
            before = self._end()
            self._fill(before + self._refill)
            if self._end() == before:
                break

    def abort_to_eof(self) -> None:
        # Drain the rest of the stream without keeping it: a run ended by
        # its budget still holds only the window.
        self.in_record = False
        while True:
            self.pos = before = self._end()
            self._retire()
            self._fill(before + self._refill)
            if self._end() == before:
                return

    def _trim(self, at_least: Optional[int] = None) -> None:
        if self._checkpoints:
            return
        keep_from = min(self.pos, self.rec_start if self.in_record else self.pos)
        drop = keep_from - self._base
        # Retire eagerly (half a refill instead of a whole chunk): the
        # memmove is amortized and the buffer never holds more than the
        # window plus one refill of already-consumed bytes.
        if drop >= (self._trim_at if at_least is None else at_least):
            del self._buf[:drop]
            self._base = keep_from
            obs = observe.CURRENT
            if obs is not None:
                obs.metrics.gauge("stream.bytes_buffered").set(len(self._buf))

    def _retire(self) -> None:
        # A record step may refill (``bounds``): retiring every consumed
        # byte first keeps a refill's buffer at the unread bytes plus the
        # refill, wherever the last block of records began.
        self._trim(at_least=1)


# -- chunk planning -----------------------------------------------------------


def plan_chunks(handle: BinaryIO, size: int, discipline: RecordDiscipline,
                n_chunks: int, min_chunk: int = MIN_CHUNK_BYTES,
                start: int = 0) -> Optional[List[Tuple[int, int]]]:
    """Split ``[start, size)`` into up to ``n_chunks`` record-aligned ranges.

    ``handle`` is any seekable binary file (a real file or ``BytesIO``);
    it is only used to locate boundaries, and its position afterwards is
    unspecified.  ``start`` lets chunk planning begin after a serially
    parsed prefix (e.g. a header record); it must itself be a record
    boundary.  Returns a list of ``(start, end)`` ranges that exactly
    tile ``[start, size)``, or ``None`` when splitting is not possible or
    not worthwhile (discipline not chunkable, input too small, fewer than
    two resulting chunks) — the caller should then use the serial path.
    """
    if not discipline.chunkable:
        return None
    return tile_chunks(start, size, n_chunks, min_chunk,
                       lambda offset: discipline.align(handle, offset, size,
                                                       origin=start))


def tile_chunks(start: int, size: int, n_chunks: int, min_chunk: int,
                boundary: Callable[[int], Optional[int]]
                ) -> Optional[List[Tuple[int, int]]]:
    """Up to ``n_chunks`` ranges tiling ``[start, size)``, each at least
    ``min_chunk`` bytes before alignment, cut at ``boundary(offset)``:
    the first record boundary at or after ``offset`` (``size`` past the
    last), or None when there is no way to find one.  None when splitting
    is not possible or leaves fewer than two chunks."""
    span = size - start
    if span <= 0 or n_chunks <= 1:
        return None
    n_chunks = min(n_chunks, max(1, span // max(1, min_chunk)))
    if n_chunks <= 1:
        return None
    cuts = [start]
    for i in range(1, n_chunks):
        cut = boundary(start + span * i // n_chunks)
        if cut is None:
            return None
        if cuts[-1] < cut < size:
            cuts.append(cut)
    cuts.append(size)
    if len(cuts) <= 2:
        return None
    return list(zip(cuts, cuts[1:]))


def plan_file_chunks(path: str, discipline: RecordDiscipline, n_chunks: int,
                     min_chunk: int = MIN_CHUNK_BYTES,
                     start: int = 0) -> Optional[List[Tuple[int, int]]]:
    """:func:`plan_chunks` over a file on disk."""
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        return plan_chunks(handle, size, discipline, n_chunks, min_chunk, start)
