"""Fault-injection harness: corrupt conforming data, assert never-crash.

The paper's premise is that ad hoc data is dirty — "data sources
frequently contain errors" (Section 2) — and the PADS contract is that
errors surface as parse-descriptor entries, never as crashes.  This
module turns that contract into an executable property.  Given any
description (gallery or user-written) it

1. generates conforming records with the description's own generators
   (:mod:`repro.tools.datagen`),
2. systematically corrupts them — byte garbling, truncation at every
   structural boundary, literal deletion and duplication, separator
   duplication, encoding garbage, raw binary noise — reusing the
   plan-derived mutators so corruption aims at real structure, and
3. parses every corrupted source under a
   :class:`~repro.core.limits.ParseLimits` budget, checking the
   never-crash invariants:

   * **no uncaught exception** — data errors must become pd errors;
   * **no hang** — every ``records()`` iteration must advance the
     cursor (a bounded stall allowance covers legitimate zero-width
     yields), the record count is capped, and a wall-clock deadline
     bounds the sweep;
   * **pd accounting** — ``nerr > 0`` exactly when an error code is set.

:func:`fuzz_description` sweeps one description; :func:`fuzz_gallery`
sweeps every shipped gallery format.  The ``padsc fuzz`` subcommand and
the CI smoke job are thin wrappers over these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import monotonic
from typing import Iterator, List, Optional, Sequence, Tuple

from .core.errors import ErrCode
from .core.io import RecordDiscipline
from .core.limits import ParseLimits
from .tools import datagen

__all__ = [
    "FaultFailure", "FaultReport", "mutation_battery", "boundary_truncations",
    "encoding_garbage", "fuzz_description", "fuzz_gallery", "GALLERY_TARGETS",
    "kill_resume_check", "kill_resume_gallery",
]

#: Consecutive zero-advance ``records()`` iterations tolerated before the
#: run is flagged as hung.  Legitimate parses always advance past at
#: least a record terminator; a small allowance absorbs degenerate
#: zero-width records at end of input.
MAX_STALL = 8

#: Hard cap on records parsed from one corrupted source.  Corruption can
#: split records (extra terminators) but never by orders of magnitude.
MAX_RECORDS_FACTOR = 64

#: Default per-run budget: a deadline so hangs become DEADLINE_EXCEEDED
#: pd errors, and a scan cap so resync never walks unbounded garbage.
DEFAULT_LIMITS = ParseLimits(deadline=10.0, max_scan=4096)


# -- failure reporting --------------------------------------------------------


@dataclass
class FaultFailure:
    """One violated invariant: which description/mutation, what broke,
    and the corrupted input that triggered it (for replay)."""

    description: str
    mutation: str
    kind: str  # 'exception' | 'no-progress' | 'accounting' | 'deadline'
    detail: str
    data: bytes

    def __str__(self) -> str:
        return (f"{self.description}/{self.mutation}: "
                f"{self.kind}: {self.detail}")


@dataclass
class FaultReport:
    """Aggregate result of a fuzz sweep."""

    cases: int = 0    #: corrupted sources run
    records: int = 0  #: records parsed across all runs
    errors: int = 0   #: pd errors observed (proof the corruption bites)
    failures: List[FaultFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "FaultReport") -> "FaultReport":
        self.cases += other.cases
        self.records += other.records
        self.errors += other.errors
        self.failures.extend(other.failures)
        return self

    def summary(self) -> str:
        head = (f"fuzz: {self.cases} runs, {self.records} records parsed, "
                f"{self.errors} pd errors, {len(self.failures)} failures")
        if not self.failures:
            return head
        return "\n".join([head] + [f"  FAIL {f}" for f in self.failures])


# -- mutation battery ---------------------------------------------------------


def encoding_garbage(record: bytes, rng: random.Random) -> bytes:
    """Splice invalid/high-bit bytes into the payload (the paper's
    "corrupted data feed" error class, aimed at the ambient coding)."""
    body, nl = ((record[:-1], record[-1:])
                if record.endswith(b"\n") else (record, b""))
    i = rng.randrange(len(body) + 1) if body else 0
    junk = bytes(rng.choice((0x00, 0x1B, 0x80, 0xC3, 0xFE, 0xFF))
                 for _ in range(rng.randint(1, 3)))
    return body[:i] + junk + body[i:] + nl


def mutation_battery(description, record_type: str) -> List[tuple]:
    """Named ``(label, mutator)`` pairs for ``record_type``.

    The generic quartet always applies; when the analyzed plan exposes
    structure (resync literals, a static width), plan-derived mutators
    are added so corruption lands exactly on the boundaries the
    error-recovery machinery keys on (mirrors
    :func:`repro.tools.datagen.plan_mutators`, but keeps labels)."""
    battery: List[tuple] = [
        ("garble-byte", datagen.garble_byte),
        ("truncate-tail", datagen.truncate_record),
        ("dup-separator", datagen.duplicate_field_separator),
        ("encoding-garbage", encoding_garbage),
    ]
    try:
        from .plan.ir import StructPlan
        decl = description.plan.decl(record_type)
    except Exception:
        return battery
    if isinstance(decl, StructPlan):
        for raw in dict.fromkeys(decl.scan_literals):
            label = raw.decode("latin-1")
            battery.append((f"drop-literal:{label}", datagen.drop_literal(raw)))
            battery.append((f"double-literal:{label}",
                            datagen.double_literal(raw)))
    if decl.width is not None:
        battery.append((f"misalign:{decl.width}",
                        datagen.misalign_fixed_width(decl.width)))
    return battery


def _literals(description, record_type: str) -> List[bytes]:
    try:
        from .plan.ir import StructPlan
        decl = description.plan.decl(record_type)
    except Exception:
        return []
    if isinstance(decl, StructPlan):
        return list(dict.fromkeys(decl.scan_literals))
    return []


def boundary_truncations(record: bytes,
                         literals: Sequence[bytes]) -> Iterator[Tuple[str, bytes]]:
    """Truncate ``record`` at every structural boundary.

    Boundaries are the start and end of every literal occurrence (where
    field parsers hand off to literal matchers), plus the record's
    edges and midpoint — the cuts most likely to strand a parser
    mid-field or mid-literal."""
    cuts = {0, 1, len(record) // 2, max(len(record) - 1, 0)}
    for raw in literals:
        at = record.find(raw)
        while at != -1:
            cuts.add(at)
            cuts.add(at + len(raw))
            at = record.find(raw, at + 1)
    for cut in sorted(c for c in cuts if 0 <= c < len(record)):
        yield f"truncate@{cut}", record[:cut]


def _fault_sources(description, record_type: str, n_records: int,
                   rng: random.Random) -> List[Tuple[str, bytes]]:
    """The corrupted-source corpus for one description."""
    records = list(datagen.generate_records(description, record_type,
                                            n_records, rng))
    clean = b"".join(records)
    sources: List[Tuple[str, bytes]] = [
        ("clean", clean),
        ("empty", b""),
        ("binary-noise", rng.randbytes(256)),
        ("all-terminators", b"\n" * 64),
    ]
    # Truncation at every structural boundary: a lone cut record, and the
    # same cut applied to the stream's final record.
    literals = _literals(description, record_type)
    body = clean[:len(clean) - len(records[-1])] if records else clean
    for label, cut in boundary_truncations(records[0] if records else b"",
                                           literals):
        sources.append((label, cut))
        sources.append((f"final-{label}", body + cut))
    # Every mutator, applied to alternating records so corrupt records sit
    # between clean neighbours (exercises resynchronisation).
    for label, mutate in mutation_battery(description, record_type):
        corrupted = b"".join(mutate(r, rng) if i % 2 == 0 else r
                             for i, r in enumerate(records))
        sources.append((label, corrupted))
    return sources


# -- the never-crash runner ---------------------------------------------------


def _never_crash(description, data: bytes, record_type: str,
                 wall_cap: float) -> Tuple[int, int, Optional[Tuple[str, str]]]:
    """Parse ``data`` record-at-a-time; return ``(records, pd_errors,
    violation)`` where ``violation`` is ``None`` or ``(kind, detail)``."""
    count = errors = stall = 0
    last_pos = -1
    cap = max(64, (data.count(b"\n") + len(data) // 8 + 2) * 2)
    cap = min(cap, MAX_RECORDS_FACTOR * max(1, data.count(b"\n") + 1))
    t0 = monotonic()
    try:
        src = description.open(bytes(data))
        for _rep, pd in description.records(src, record_type):
            count += 1
            errors += pd.nerr
            if (pd.nerr > 0) != (pd.err_code != ErrCode.NO_ERR):
                return count, errors, (
                    "accounting",
                    f"nerr={pd.nerr} but err_code={pd.err_code!r}")
            if src.pos <= last_pos:
                stall += 1
                if stall > MAX_STALL:
                    return count, errors, (
                        "no-progress", f"cursor stuck at byte {src.pos}")
            else:
                stall = 0
            last_pos = src.pos
            if count > cap:
                return count, errors, (
                    "no-progress", f"record cap {cap} exceeded")
            if monotonic() - t0 > wall_cap:
                return count, errors, (
                    "deadline", f"sweep ran past {wall_cap:.1f}s wall cap")
    except Exception as exc:  # noqa: BLE001 - the invariant under test
        return count, errors, ("exception", f"{type(exc).__name__}: {exc}")
    return count, errors, None


# -- entry points -------------------------------------------------------------


def fuzz_description(text: str, record_type: str, *,
                     name: str = "<description>",
                     ambient: str = "ascii",
                     discipline: Optional[RecordDiscipline] = None,
                     n_records: int = 12,
                     seed: int = 0,
                     limits: Optional[ParseLimits] = None,
                     wall_cap: float = 30.0) -> FaultReport:
    """Fuzz one description; never raises for data reasons (a
    description that fails to *compile* still raises — that is a caller
    error, not a data error)."""
    from .core.api import compile_description

    limits = limits if limits is not None else DEFAULT_LIMITS
    rng = random.Random(seed)
    desc = compile_description(text, ambient=ambient, discipline=discipline,
                               limits=limits)
    report = FaultReport()
    for label, data in _fault_sources(desc, record_type, n_records, rng):
        count, errors, violation = _never_crash(desc, data, record_type,
                                                wall_cap)
        report.cases += 1
        report.records += count
        report.errors += errors
        if violation is not None:
            report.failures.append(FaultFailure(
                name, label, violation[0], violation[1], data))
    return report


def _gallery_targets() -> List[tuple]:
    from . import gallery
    from .core.io import FixedWidthRecords, NewlineRecords, NoRecords
    return [
        ("clf", gallery.CLF, "entry_t", "ascii", NewlineRecords()),
        ("sirius", gallery.SIRIUS, "entry_t", "ascii", NewlineRecords()),
        ("calldetail", gallery.CALL_DETAIL, "call_t", "binary",
         FixedWidthRecords(gallery.CALL_DETAIL_WIDTH)),
        ("regulus", gallery.REGULUS, "util_t", "ascii", NewlineRecords()),
        ("netflow", gallery.NETFLOW, "nf_packet_t", "binary", NoRecords()),
    ]


#: ``(name, text, record_type, ambient, discipline)`` per gallery format.
GALLERY_TARGETS = _gallery_targets()


def fuzz_gallery(*, n_records: int = 8, seed: int = 0,
                 limits: Optional[ParseLimits] = None,
                 only: Optional[Sequence[str]] = None) -> FaultReport:
    """Fuzz every shipped gallery description (or the named subset)."""
    report = FaultReport()
    for name, text, record_type, ambient, discipline in GALLERY_TARGETS:
        if only is not None and name not in only:
            continue
        report.merge(fuzz_description(
            text, record_type, name=name, ambient=ambient,
            discipline=discipline, n_records=n_records, seed=seed,
            limits=limits))
    return report


# -- kill-resume: the durable-run differential ---------------------------------


def _durable_child(description, path: str, record_type: str,
                   interval: int) -> None:
    """The forked victim: a checkpointed accumulate over ``path``.

    A fresh session group (``setsid``) lets the parent SIGKILL the whole
    group, so any pool workers die with the run — the same blast radius
    as an OOM kill or host reboot."""
    import os as _os
    _os.setsid()
    from .durable import drive
    from .execute import Fold
    drive(description, path, Fold("accum", record_type), interval=interval)


def kill_resume_check(description, path: str, record_type: str, *,
                      rng: Optional[random.Random] = None,
                      interval: int = 50,
                      timeout: float = 60.0) -> Optional[str]:
    """SIGKILL a checkpointed run at an arbitrary progress point, resume
    it, and compare against an uninterrupted reference.

    Returns ``None`` on success or a failure detail string.  The kill
    lands after the first checkpoint appears plus a random delay, so
    over repeated seeds it samples arbitrary interruption points —
    including "after the run already finished", which must degrade to a
    clean full re-run (the checkpoint is gone by then).
    """
    import multiprocessing
    import os as _os
    import signal
    import time

    from .durable import CHECKPOINT_SUFFIX, INDEX_SUFFIX, drive
    from .execute import Fold

    rng = rng or random.Random(0)
    ckpt = path + CHECKPOINT_SUFFIX
    for stale in (ckpt, path + INDEX_SUFFIX):
        if _os.path.exists(stale):
            _os.unlink(stale)

    # Uninterrupted reference: the same durable loop, no persistence.
    fold = Fold("accum", record_type)
    ref_acc, ref_tally = drive(description, path, fold, checkpoint=None)

    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(target=_durable_child,
                         args=(description, path, record_type, interval))
    victim.start()
    deadline = monotonic() + timeout
    while (not _os.path.exists(ckpt) and victim.is_alive()
           and monotonic() < deadline):
        time.sleep(0.001)
    time.sleep(rng.random() * 0.05)
    if victim.is_alive():
        try:
            _os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # finished between the check and the kill
    victim.join(timeout)
    if victim.is_alive():
        victim.kill()
        victim.join()
        return "victim did not die within the timeout"

    acc, tally = drive(description, path, fold, interval=interval,
                       resume=True)
    if _os.path.exists(ckpt):
        return "checkpoint not cleaned up after completed resume"
    if tally.records != ref_tally.records:
        return (f"resumed record count {tally.records} != "
                f"reference {ref_tally.records}")
    if (tally.bad_records, tally.total_errors, dict(tally.by_code)) != \
            (ref_tally.bad_records, ref_tally.total_errors,
             dict(ref_tally.by_code)):
        return "resumed error accounting diverges from reference"
    if acc.full_report() != ref_acc.full_report():
        return "resumed accumulator report diverges from reference"
    return None


def kill_resume_gallery(*, n_records: int = 2000, seed: int = 0,
                        only: Optional[Sequence[str]] = None) -> FaultReport:
    """The kill-resume differential over every gallery description
    (``padsc fuzz --kill-resume``).  Each format gets a conforming file,
    a SIGKILLed checkpointed run, and a resume that must reproduce the
    uninterrupted report exactly."""
    import os as _os
    import tempfile

    from .core.api import compile_description

    report = FaultReport()
    rng = random.Random(seed)
    for name, text, record_type, ambient, discipline in GALLERY_TARGETS:
        if only is not None and name not in only:
            continue
        desc = compile_description(text, ambient=ambient,
                                   discipline=discipline)
        records = list(datagen.generate_records(desc, record_type,
                                                n_records, rng))
        data = b"".join(records)
        fd, path = tempfile.mkstemp(prefix=f"kill_resume_{name}_")
        try:
            with _os.fdopen(fd, "wb") as handle:
                handle.write(data)
            detail = kill_resume_check(desc, path, record_type, rng=rng)
            report.cases += 1
            report.records += n_records
            if detail is not None:
                report.failures.append(FaultFailure(
                    name, "kill-resume", "divergence", detail, data[:256]))
        finally:
            for leftover in (path, path + ".padsckpt", path + ".padsidx"):
                if _os.path.exists(leftover):
                    _os.unlink(leftover)
    return report
