"""Structured parse tracing: per-position enter/exit events.

The interpreter's structural combinators (:mod:`repro.core.types`) emit
one ``enter`` event when they begin parsing a position and one ``exit``
event when they finish, carrying the byte span consumed, the outcome
(``ok`` / ``err`` / ``panic``) and the first error code.  The positions
are struct data fields (``client``), the taken branch of a union or
``Pswitch`` (``client<ip>``) and array elements (``events[1]``); each is
entered before its children parse, so their events nest inside it.  The
record loop additionally emits ``record`` events.

Union branches, ``Popt`` values and backtracking array elements are
parsed as *trials* the source may rewind.  The tracer is marked with
the source: events of an open trial are held, a rewound trial's events
are withdrawn, and the outermost trial's commit releases the rest to the
buffer and the ``sink`` — so no event of a rejected parse is ever seen.

Events are plain tuples rendered to JSONL on demand, so a trace can be
post-processed with nothing but ``json.loads``.  The buffer is bounded:
once ``max_events`` is reached, further events are counted but dropped
(``dropped`` reports how many), keeping worst-case memory flat on
multi-gigabyte inputs.
"""

from __future__ import annotations

from typing import IO, List, NamedTuple, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "outcome_of"]


def _dumps(obj, **kwargs) -> str:
    """``json.dumps``.  Only trace output needs ``json``, so it loads
    with the first event written and this function then rebinds itself
    to ``json.dumps``."""
    global _dumps
    from json import dumps
    _dumps = dumps
    return dumps(obj, **kwargs)


def outcome_of(pd) -> Tuple[str, str]:
    """The ``(outcome, err_code)`` of an exit or record event for the
    parse descriptor ``pd``."""
    if pd.nerr == 0:
        return "ok", ""
    return ("panic" if int(pd.pstate) & 2 else "err"), pd.err_code.name


class TraceEvent(NamedTuple):
    """One trace record.  ``kind`` is ``enter`` / ``exit`` / ``record``."""

    kind: str
    path: str          # position path, e.g. "header.ramp<genRamp>.id"
    type_name: str     # PADS type name at this position
    start: int         # absolute byte offset where the parse began
    end: int           # absolute byte offset where it finished (enter: == start)
    record: int        # 0-based record index (-1 outside records)
    outcome: str       # "" on enter; "ok" | "err" | "panic" on exit
    err_code: str      # first error code name ("" when clean)

    def to_json(self) -> str:
        return _dumps({
            "kind": self.kind, "path": self.path, "type": self.type_name,
            "start": self.start, "end": self.end, "record": self.record,
            "outcome": self.outcome, "err": self.err_code,
        }, separators=(",", ":"))


class Tracer:
    """Collects :class:`TraceEvent`\\ s with a bounded buffer.

    ``sink`` may be a writable text file object; events are then streamed
    as JSONL as they are released (and still buffered up to
    ``max_events`` for programmatic access).
    """

    __slots__ = ("events", "max_events", "dropped", "sink", "_stack",
                 "_held", "_trials")

    def __init__(self, max_events: int = 100_000,
                 sink: Optional[IO[str]] = None):
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0
        self.sink = sink
        self._stack: List[str] = []          # paths of the open positions
        self._held: List[TraceEvent] = []    # events of the open trials
        self._trials = 0

    # -- event emission ----------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        if self._trials:
            self._held.append(event)
        else:
            self._release(event)

    def _release(self, event: TraceEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
        if self.sink is not None:
            self.sink.write(event.to_json() + "\n")

    def enter(self, step: str, type_name: str, pos: int, record: int) -> None:
        """Begin the position ``step`` inside the innermost open one: a
        field name, a branch ``<name>`` or an element ``[i]``."""
        parent = self._stack[-1] if self._stack else ""
        path = f"{parent}.{step}" if parent and step[0] not in "<[" \
            else parent + step
        self._stack.append(path)
        self._emit(TraceEvent("enter", path, type_name, pos, pos, record,
                              "", ""))

    def exit(self, type_name: str, start: int, end: int, record: int,
             outcome: str, err_code: str = "") -> None:
        """Finish the position opened by the matching :meth:`enter`."""
        path = self._stack.pop() if self._stack else ""
        self._emit(TraceEvent("exit", path, type_name, start, end, record,
                              outcome, err_code))

    def record_event(self, type_name: str, start: int, end: int,
                     record: int, outcome: str, err_code: str = "") -> None:
        """A whole-record event (emitted by the record loop, outside the
        position stack)."""
        self._emit(TraceEvent("record", type_name, type_name, start, end,
                              record, outcome, err_code))

    # -- trials ----------------------------------------------------------------

    def mark(self) -> int:
        """Open a trial (marked with the source); the checkpoint it
        returns is what :meth:`rewind` takes."""
        self._trials += 1
        return len(self._held)

    def rewind(self, mark: int) -> None:
        """Close the trial opened at ``mark``, withdrawing its events."""
        del self._held[mark:]
        self._trials -= 1

    def commit(self) -> None:
        """Close the innermost trial, keeping its events; when it is the
        outermost, release every held event."""
        self._trials -= 1
        if not self._trials:
            held, self._held = self._held, []
            for event in held:
                self._release(event)

    # -- rendering -----------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.events) + \
            ("\n" if self.events else "")

    def __len__(self) -> int:
        return len(self.events)
