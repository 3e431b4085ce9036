"""Structured parse tracing: per-field enter/exit events.

The interpreter's structural combinators (:mod:`repro.core.types`) emit
one ``enter`` event when they begin parsing a named position (a struct
field, an array element, a union's taken branch) and one ``exit`` event
when they finish, carrying the byte span consumed, the outcome
(``ok`` / ``err`` / ``panic``) and the first error code.  The record
loop additionally emits ``record`` events.

Events are plain tuples rendered to JSONL on demand, so a trace can be
post-processed with nothing but ``json.loads``.  The tracer keeps a path
stack (``entry_t.client.ip``-style dotted paths) and bounds its buffer:
once ``max_events`` is reached, further events are counted but dropped
(``dropped`` reports how many), keeping worst-case memory flat on
multi-gigabyte inputs.
"""

from __future__ import annotations

from typing import IO, List, NamedTuple, Optional

__all__ = ["TraceEvent", "Tracer"]


def _dumps(obj, **kwargs) -> str:
    """``json.dumps``.  Only trace output needs ``json``, so it loads
    with the first event written and this function then rebinds itself
    to ``json.dumps``."""
    global _dumps
    from json import dumps
    _dumps = dumps
    return dumps(obj, **kwargs)


class TraceEvent(NamedTuple):
    """One trace record.  ``kind`` is ``enter`` / ``exit`` / ``record``."""

    kind: str
    path: str          # dotted field path, e.g. "entry_t.client.ip"
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
    as JSONL as they happen (and still buffered up to ``max_events`` for
    programmatic access).
    """

    __slots__ = ("events", "max_events", "dropped", "sink", "_stack")

    def __init__(self, max_events: int = 100_000,
                 sink: Optional[IO[str]] = None):
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0
        self.sink = sink
        self._stack: List[str] = []

    # -- event emission ----------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
        if self.sink is not None:
            self.sink.write(event.to_json() + "\n")

    def enter(self, name: str, type_name: str, pos: int, record: int) -> None:
        """Begin a named position; pushes onto the path stack."""
        self._stack.append(name)
        self._emit(TraceEvent("enter", ".".join(self._stack), type_name,
                              pos, pos, record, "", ""))

    def exit(self, type_name: str, start: int, end: int, record: int,
             outcome: str, err_code: str = "") -> None:
        """Finish the position opened by the matching :meth:`enter`."""
        path = ".".join(self._stack)
        self._emit(TraceEvent("exit", path, type_name, start, end, record,
                              outcome, err_code))
        if self._stack:
            self._stack.pop()

    def record_event(self, type_name: str, start: int, end: int,
                     record: int, outcome: str, err_code: str = "") -> None:
        """A whole-record event (emitted by the record loops of both
        engines, outside the field path stack)."""
        self._emit(TraceEvent("record", type_name, type_name, start, end,
                              record, outcome, err_code))

    # -- rendering -----------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.events) + \
            ("\n" if self.events else "")

    def __len__(self) -> int:
        return len(self.events)
