"""Error model for the PADS runtime.

The generated C library in the paper returns, for every parse, a *parse
descriptor* (``pd``) mirroring the shape of the parsed type.  Each pd node
records the parse state (normal / partial / panicking), the number of errors
detected in its subtree, the error code of the first detected error, and the
location of that error (paper, Section 4 and Figure 6).

This module defines the Python equivalents: :class:`ErrCode`, :class:`Loc`,
:class:`Pstate` and the :class:`Pd` tree.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class ErrCode(enum.IntEnum):
    """Error codes reported in parse descriptors.

    The numbering groups codes the same way the C runtime does: 0 is
    success, 1xx are system/IO errors, 2xx are syntactic errors, 3xx are
    semantic (user-constraint) errors, and 4xx are structural errors raised
    by compound types.  5xx are resource-limit errors raised when a
    :class:`~repro.core.limits.ParseLimits` budget is exhausted — they are
    *not* syntactic, so they never trigger error-recovery resync.
    """

    NO_ERR = 0

    # System errors (file, buffer, socket).
    IO_ERR = 100
    AT_EOF = 101
    AT_EOR = 102
    RECORD_TOO_SHORT = 103
    BAD_RECORD = 104

    # Syntactic errors.
    MISSING_LITERAL = 200
    INVALID_CHAR = 201
    INVALID_INT = 202
    RANGE_ERR = 203
    INVALID_STRING = 204
    INVALID_DATE = 205
    INVALID_IP = 206
    INVALID_HOSTNAME = 207
    INVALID_ZIP = 208
    INVALID_FLOAT = 209
    INVALID_BCD = 210
    REGEXP_NO_MATCH = 211
    INVALID_ENUM = 212
    WIDTH_NOT_AVAILABLE = 213

    # Semantic errors.
    USER_CONSTRAINT_VIOLATION = 300
    TYPEDEF_CONSTRAINT_VIOLATION = 301
    WHERE_CLAUSE_VIOLATION = 302

    # Structural errors.
    UNION_MATCH_FAILURE = 400
    STRUCT_FIELD_ERR = 401
    ARRAY_ELEM_ERR = 402
    ARRAY_SEP_ERR = 403
    ARRAY_TERM_ERR = 404
    ARRAY_SIZE_ERR = 405
    SWITCH_NO_CASE = 406
    EXTRA_DATA_AT_EOR = 407
    PANIC_SKIPPED = 408

    # Resource-limit errors (ParseLimits budgets).
    LIMIT_EXCEEDED = 500
    RECORD_LIMIT = 501
    ARRAY_LIMIT = 502
    NEST_LIMIT = 503
    DEADLINE_EXCEEDED = 504
    ERROR_BUDGET_EXCEEDED = 505

    # Compared as ints directly: these run on every error path.
    def is_syntactic(self) -> bool:
        return 100 <= self < 300 or 400 <= self < 500

    def is_semantic(self) -> bool:
        return 300 <= self < 400

    def is_limit(self) -> bool:
        return self >= 500


class Pstate(enum.IntFlag):
    """Parse state recorded in a pd node (paper: Normal, Partial, Panicking).

    ``OK`` means the subtree parsed without error.  ``PARTIAL`` means errors
    occurred but the parser resynchronised and continued.  ``PANIC`` means
    the parser lost track of the input and skipped to a synchronisation
    point (typically end-of-record).  ``LIMIT`` means a resource budget
    (:class:`~repro.core.limits.ParseLimits`) was exhausted somewhere in
    the subtree — the data may well be fine, but the parser refused to
    spend more on it.
    """

    OK = 0
    PARTIAL = 1
    PANIC = 2
    LIMIT = 4


#: Every Pstate, by value: an operator on the flag enum costs a
#: microsecond or more, an index into this tuple a tenth of that.
_PSTATES = tuple(Pstate(v) for v in range(8))


class Loc(NamedTuple):
    """A source location: byte offsets plus record/line coordinates.

    ``offset`` and ``end`` are absolute byte offsets into the data source.
    ``record`` is the 0-based index of the record being parsed (or -1 when
    no record discipline is active).  Immutable; a tuple, so building one
    on an error path costs a fraction of a frozen dataclass.
    """

    offset: int = 0
    end: int = 0
    record: int = -1

    def __str__(self) -> str:
        if self.record >= 0:
            return f"record {self.record}, bytes {self.offset}-{self.end}"
        return f"bytes {self.offset}-{self.end}"


class Pd:
    """A parse-descriptor node.

    Mirrors the generated ``_pd`` structs from the paper: every node carries
    ``pstate``, ``nerr`` (number of errors detected in the subtree),
    ``err_code`` (code of the first detected error) and ``loc`` (location of
    that error).  Compound types attach child descriptors:

    * ``fields`` — name -> child pd for Pstruct / switched-union branches,
    * ``elts`` — list of element pds for Parray (plus ``neerr`` and
      ``first_error`` summarising element errors),
    * ``branch`` — the taken branch's pd for Punion / Popt.

    Implementation note: one Pd is allocated per parsed position, so this
    is a ``__slots__`` class with the child containers created lazily.
    """

    __slots__ = ("pstate", "nerr", "err_code", "loc", "_fields", "_elts",
                 "branch", "tag", "neerr", "first_error")

    def __init__(self, _ok=Pstate.OK, _no_err=ErrCode.NO_ERR):
        # The enum defaults ride in as argument defaults: Pd construction is
        # the single hottest allocation in parsing, and this avoids two
        # global lookups per node.
        self.pstate = _ok
        self.nerr = 0
        self.err_code = _no_err
        self.loc: Optional[Loc] = None
        self._fields: Optional[dict] = None
        self._elts: Optional[list] = None
        self.branch: Optional["Pd"] = None
        self.tag: Optional[str] = None
        # Parray summaries (paper's eventSeq_pd carries neerr / firstError).
        self.neerr = 0
        self.first_error = -1

    @property
    def fields(self) -> dict:
        if self._fields is None:
            self._fields = {}
        return self._fields

    @property
    def elts(self) -> list:
        if self._elts is None:
            self._elts = []
        return self._elts

    def __repr__(self) -> str:
        return (f"Pd(pstate={self.pstate!r}, nerr={self.nerr}, "
                f"err_code={self.err_code!r}, loc={self.loc!r}, "
                f"tag={self.tag!r})")

    @property
    def errors(self) -> bool:
        return self.nerr > 0

    def record_error(self, code: ErrCode, loc: Loc, *, panic: bool = False) -> None:
        """Record one error at this node, keeping first-error semantics."""
        if self.nerr == 0:
            self.err_code = code
            self.loc = loc
        self.nerr += 1
        self.pstate = _PSTATES[int(self.pstate) | (2 if panic else 1)]

    def add_state(self, flags: int) -> None:
        """Set the Pstate bits ``flags`` on this node."""
        self.pstate = _PSTATES[int(self.pstate) | int(flags)]

    def absorb(self, child: "Pd") -> None:
        """Fold a child's error summary into this node."""
        if child.nerr:
            if self.nerr == 0:
                self.err_code = child.err_code
                self.loc = child.loc
            self.nerr += child.nerr
            # PARTIAL, plus the child's PANIC and LIMIT bits.
            self.pstate = _PSTATES[int(self.pstate) | 1
                                   | int(child.pstate) & 6]

    def summary(self) -> str:
        """One-line human-readable summary of this descriptor."""
        if not self.nerr:
            return "ok"
        where = f" at {self.loc}" if self.loc is not None else ""
        return f"{self.nerr} error(s), first {self.err_code.name}{where}"

    def iter_errors(self, path: str = "<top>"):
        """Walk the errored portion of this descriptor tree, yielding
        ``(path, err_code, count)`` triples with dotted field paths.

        Child errors are attributed to the child's path; errors a node
        recorded itself (beyond what it absorbed from children) are
        attributed to the node's own path.  Array elements collapse to a
        single ``[]`` path component so the path set stays bounded
        regardless of array sizes — this is the tally path the
        observability layer's per-field error counters are built on.

        The walk touches only errored subtrees (``nerr == 0`` nodes are
        skipped at the parent), so it costs nothing on clean data.
        """
        absorbed = 0
        if self._fields:
            for name, child in self._fields.items():
                if child is not None and child.nerr:
                    absorbed += child.nerr
                    yield from child.iter_errors(f"{path}.{name}")
        if self._elts:
            for child in self._elts:
                if child is not None and child.nerr:
                    absorbed += child.nerr
                    yield from child.iter_errors(f"{path}.[]")
        if self.branch is not None and self.branch.nerr:
            absorbed += self.branch.nerr
            name = self.tag or "<branch>"
            yield from self.branch.iter_errors(f"{path}.{name}")
        own = self.nerr - absorbed
        if own > 0 and self.err_code != ErrCode.NO_ERR:
            yield path, self.err_code, own


class ErrorTally:
    """A mergeable aggregate of parse-descriptor outcomes.

    The reduce side of the parallel engine: each worker folds its chunk's
    parse descriptors into a tally (:meth:`add`), and the parent combines
    the per-chunk tallies (:meth:`merge`).  Folding every pd of a serial
    run into one tally produces the identical result — ``merge`` is the
    homomorphic image of ``add`` — which is what lets the parallel path
    report byte-identical error totals.

    ``first_error`` is the error whose location has the smallest absolute
    byte offset, which is well-defined across chunks because windowed
    sources report absolute offsets.
    """

    __slots__ = ("records", "bad_records", "total_errors", "by_code",
                 "first_error_code", "first_error_loc")

    def __init__(self):
        self.records = 0
        self.bad_records = 0
        self.total_errors = 0
        self.by_code: dict = {}
        self.first_error_code: Optional[ErrCode] = None
        self.first_error_loc: Optional[Loc] = None

    @property
    def good_records(self) -> int:
        return self.records - self.bad_records

    def add(self, pd: "Pd") -> None:
        """Fold one record's parse descriptor into the tally."""
        self.records += 1
        if not pd.nerr:
            return
        self.bad_records += 1
        self.total_errors += pd.nerr
        name = pd.err_code.name
        self.by_code[name] = self.by_code.get(name, 0) + 1
        self._note_first(pd.err_code, pd.loc)

    def _note_first(self, code: ErrCode, loc: Optional[Loc]) -> None:
        if self.first_error_code is None:
            self.first_error_code, self.first_error_loc = code, loc
            return
        if loc is not None and (self.first_error_loc is None
                                or loc.offset < self.first_error_loc.offset):
            self.first_error_code, self.first_error_loc = code, loc

    def merge(self, other: "ErrorTally") -> "ErrorTally":
        """Combine another tally into this one (commutative on every
        field except ``first_error``, which prefers the smaller offset)."""
        self.records += other.records
        self.bad_records += other.bad_records
        self.total_errors += other.total_errors
        for name, count in other.by_code.items():
            self.by_code[name] = self.by_code.get(name, 0) + count
        if other.first_error_code is not None:
            self._note_first(other.first_error_code, other.first_error_loc)
        return self

    def summary(self) -> str:
        if not self.bad_records:
            return f"{self.records} records, all ok"
        parts = ", ".join(f"{name}: {count}" for name, count
                          in sorted(self.by_code.items(), key=lambda kv: -kv[1]))
        where = ""
        if self.first_error_loc is not None:
            where = f", first at {self.first_error_loc}"
        return (f"{self.records} records, {self.bad_records} with errors "
                f"({self.total_errors} total{where}) — {parts}")

    def __repr__(self) -> str:
        return (f"ErrorTally(records={self.records}, "
                f"bad_records={self.bad_records}, "
                f"total_errors={self.total_errors})")


class PadsError(Exception):
    """Base class for exceptions raised by the repro PADS system itself.

    Note that *data* errors never raise — they are reported through parse
    descriptors, as in the paper.  Exceptions are reserved for misuse of the
    API, malformed descriptions, and I/O failures.
    """


class DescriptionError(PadsError):
    """A PADS description is malformed (syntax or type error)."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)
