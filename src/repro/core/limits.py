"""Resource limits for the PADS runtime.

The paper's robustness story is that a generated parser "checks all
possible error cases" and reports them through parse descriptors instead
of ceding control to bad data.  That covers *syntactic* hostility; this
module covers *resource* hostility: inputs crafted (or corrupted) so that
an otherwise correct parser scans, allocates, or recurses without bound.

:class:`ParseLimits` is an immutable budget attached to a
:class:`~repro.core.io.Source` (``src.limits``).  The type combinators and the record loop consult the
same cursor-level state, so limit semantics are identical on every
path:

* ``max_record_bytes`` — records longer than this are skipped whole
  (``RECORD_LIMIT``), never parsed.
* ``max_array_elems`` — array parses stop growing at this many elements
  (``ARRAY_LIMIT``).
* ``max_scan`` — caps every error-recovery scan window (literal resync,
  array resync, stuck-field skip) below the engines' built-in cap.
* ``max_depth`` — caps nesting of compound parsers (``NEST_LIMIT``).
  Descriptions are declare-before-use, so this is a defensive bound, not
  a recursion breaker.
* ``deadline`` — wall-clock seconds for the whole run; checked at record
  boundaries (granularity: one record), so a run never *starts* a record
  past its deadline (``DEADLINE_EXCEEDED``).
* ``max_errors`` — total data errors across the run before the parser
  aborts to end-of-input (``ERROR_BUDGET_EXCEEDED``).

Limit hits are data-shaped outcomes, not exceptions: they surface as 5xx
``ErrCode`` values in the pd, set the ``Pstate.LIMIT`` bit, and bump
``limit.*`` observability counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import observe
from .errors import ErrCode, Loc, PadsError, Pd, Pstate

__all__ = ["ParseLimits", "note_limit", "record_guard"]

#: CLI/spec key -> (field name, parser) for ``ParseLimits.parse``.
_SPEC_KEYS = {
    "record-bytes": ("max_record_bytes", int),
    "array": ("max_array_elems", int),
    "scan": ("max_scan", int),
    "depth": ("max_depth", int),
    "deadline": ("deadline", float),
    "errors": ("max_errors", int),
}

#: ErrCode -> observability counter label.
_LABELS = {
    ErrCode.RECORD_LIMIT: "record_bytes",
    ErrCode.ARRAY_LIMIT: "array_elems",
    ErrCode.NEST_LIMIT: "depth",
    ErrCode.DEADLINE_EXCEEDED: "deadline",
    ErrCode.ERROR_BUDGET_EXCEEDED: "errors",
    ErrCode.LIMIT_EXCEEDED: "other",
}


@dataclass(frozen=True)
class ParseLimits:
    """An immutable resource budget.  ``None`` fields are unlimited."""

    max_record_bytes: Optional[int] = None
    max_array_elems: Optional[int] = None
    max_scan: Optional[int] = None
    max_depth: Optional[int] = None
    deadline: Optional[float] = None
    max_errors: Optional[int] = None

    def __post_init__(self):
        for name, low in (("max_record_bytes", 1), ("max_array_elems", 0),
                          ("max_scan", 0), ("max_depth", 1),
                          ("max_errors", 1)):
            v = getattr(self, name)
            if v is not None and v < low:
                raise PadsError(f"limit {name} must be >= {low}, got {v}")
        if self.deadline is not None and self.deadline <= 0:
            raise PadsError("limit deadline must be positive")

    @classmethod
    def parse(cls, spec: str) -> "ParseLimits":
        """Build limits from a ``key=value,key=value`` CLI spec.

        Keys: ``record-bytes``, ``array``, ``scan``, ``depth``,
        ``deadline`` (seconds, float), ``errors``.
        """
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in _SPEC_KEYS:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise PadsError(
                    f"bad --limits entry {part!r} (expected key=value with "
                    f"key one of: {known})")
            field_name, conv = _SPEC_KEYS[key]
            try:
                kwargs[field_name] = conv(value.strip())
            except ValueError:
                raise PadsError(f"bad --limits value for {key!r}: "
                                f"{value.strip()!r}") from None
        return cls(**kwargs)

    @property
    def fastpath_safe(self) -> bool:
        """Whether the plan-compiled record fast path may run.

        The fast fns parse a whole clean record with no element or depth
        accounting, so any limit a *clean* record could trip must disable
        them to keep results identical to the general path.
        Record-length, deadline and error budgets are enforced at the
        record boundary (before the fast path is consulted) and scan caps
        only matter on error paths the fast path never takes.
        """
        return self.max_array_elems is None and self.max_depth is None


def fastpath_applies(mask, limits: Optional[ParseLimits]) -> bool:
    """The fast-or-general test: whether compiled fast functions may stand
    in for the general parse — a uniform mask that materialises values,
    no limit a clean record could trip, no tracer (only the general parse
    emits trace events).  Asked per pass by ``CompiledDescription.records``
    and ``grid``, per call by ``RecordNode.parse`` and the struct members."""
    return bool((mask.bits & 1) and not mask.fields
                and mask.compound_level is None and mask.elts is None
                and (limits is None or limits.fastpath_safe)
                and observe.current_tracer() is None)


def note_limit(pd: Pd, code: ErrCode, loc: Loc) -> None:
    """Record a limit hit on ``pd``: 5xx error, PANIC+LIMIT state, counter."""
    pd.record_error(code, loc, panic=True)
    pd.pstate |= Pstate.LIMIT
    observe.count("limit." + _LABELS.get(code, "other"))


def record_guard(src, pd: Pd) -> bool:
    """Enforce record-boundary limits on an open record.

    Its one caller is the record step (``core.types.record_loop``), right
    after the record opened, with the record's pd.  Returns True when
    parsing may proceed.  On a limit hit it records the 5xx error and
    repositions the cursor — past the offending record for
    ``RECORD_LIMIT``, to end-of-input for the run-terminating budgets —
    and returns False; the caller yields the type's default rep with the
    limit pd.
    """
    limits = src.limits
    if limits is None:
        return True
    if (limits.max_errors is not None
            and src.total_errors >= limits.max_errors):
        note_limit(pd, ErrCode.ERROR_BUDGET_EXCEEDED, src.here())
        src.abort_to_eof()
        return False
    if limits.deadline is not None and src.deadline_expired():
        note_limit(pd, ErrCode.DEADLINE_EXCEEDED, src.here())
        src.abort_to_eof()
        return False
    if (limits.max_record_bytes is not None
            and src.rec_end - src.rec_start > limits.max_record_bytes):
        note_limit(pd, ErrCode.RECORD_LIMIT,
                   Loc(src.rec_start, src.rec_end, src.record_idx))
        src.pos = src.rec_end
        src.end_record()
        return False
    return True
