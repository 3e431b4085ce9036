"""Conforming-data generation with controlled error injection.

The paper's Section 9 ("Generated artifacts") asks for exactly this tool:
"generate random data that conforms to a given specification, or deviates
from it in specified ways, particularly when the real data is proprietary
and cannot be exposed outside of AT&T."  This reproduction depends on it:
AT&T's CLF logs, Sirius feeds and call-detail streams are proprietary, so
every experiment runs over synthetic data generated here, calibrated to
the statistics the paper reports.

Two layers:

* **generic** — :func:`generate_records` drives ``PType.generate`` for any
  description; :class:`ErrorInjector` corrupts a controlled fraction of
  records.
* **calibrated workloads** — fast, hand-rolled generators for the paper's
  sources: :func:`clf_workload` (with the '-' length errors behind the
  6.666%-bad accumulator report of Section 5.2) and
  :func:`sirius_workload` (2.2GB/11.8M-record file statistics of Section
  7: events-per-order min 1 / avg 5.5 / max 156, one timestamp-sort
  violation, 53 syntax errors — all scaled to the requested record count).
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List, Optional, Sequence

# ---------------------------------------------------------------------------
# Generic generation
# ---------------------------------------------------------------------------


def generate_records(description, record_type: str, n: int,
                     rng: Optional[random.Random] = None) -> Iterator[bytes]:
    """Yield ``n`` records of ``record_type`` in physical form.

    Uses the description's own generators, so every record parses cleanly
    under ``P_CheckAndSet`` (a property test pins this).
    """
    rng = rng or random.Random()
    for _ in range(n):
        rep = description.generate(record_type, rng)
        yield description.write(rep, record_type)


def generate_source(description, record_type: str, n: int,
                    rng: Optional[random.Random] = None,
                    injector: Optional["ErrorInjector"] = None) -> bytes:
    """A complete synthetic source: ``n`` records, optionally corrupted."""
    rng = rng or random.Random()
    chunks: List[bytes] = []
    for record in generate_records(description, record_type, n, rng):
        if injector is not None:
            record = injector.maybe_corrupt(record, rng)
        chunks.append(record)
    return b"".join(chunks)


Mutator = Callable[[bytes, random.Random], bytes]


def truncate_record(record: bytes, rng: random.Random) -> bytes:
    """Drop the tail of the record (keeps the record terminator)."""
    body, nl = (record[:-1], record[-1:]) if record.endswith(b"\n") else (record, b"")
    if len(body) < 2:
        return record
    return body[:rng.randint(1, len(body) - 1)] + nl

def garble_byte(record: bytes, rng: random.Random) -> bytes:
    """Overwrite one payload byte with junk."""
    body, nl = (record[:-1], record[-1:]) if record.endswith(b"\n") else (record, b"")
    if not body:
        return record
    i = rng.randrange(len(body))
    return body[:i] + bytes([rng.choice(b"@#$%&?")]) + body[i + 1:] + nl

def duplicate_field_separator(record: bytes, rng: random.Random) -> bytes:
    """Insert a stray separator, shifting every later field."""
    body, nl = (record[:-1], record[-1:]) if record.endswith(b"\n") else (record, b"")
    seps = [i for i, b in enumerate(body) if b in b"|, "]
    if not seps:
        return record
    i = rng.choice(seps)
    return body[:i] + body[i:i + 1] + body[i:] + nl


# -- plan-derived structural mutators ---------------------------------------
#
# The generic mutators above guess at structure (bytes that look like
# separators).  These read the analyzed plan IR instead: the struct's
# resync literal set and the static-width analysis say exactly which
# corruptions exercise the error-recovery machinery.


def drop_literal(raw: bytes) -> Mutator:
    """Remove one occurrence of a required literal (missing-separator
    errors, driving ``lit_resync``)."""
    def mutate(record: bytes, rng: random.Random) -> bytes:
        body, nl = ((record[:-1], record[-1:])
                    if record.endswith(b"\n") else (record, b""))
        hits = []
        start = body.find(raw)
        while start != -1:
            hits.append(start)
            start = body.find(raw, start + 1)
        if not hits:
            return record
        i = rng.choice(hits)
        return body[:i] + body[i + len(raw):] + nl
    return mutate


def double_literal(raw: bytes) -> Mutator:
    """Duplicate one occurrence of a literal (stray-separator errors,
    shifting every later field)."""
    def mutate(record: bytes, rng: random.Random) -> bytes:
        body, nl = ((record[:-1], record[-1:])
                    if record.endswith(b"\n") else (record, b""))
        hits = []
        start = body.find(raw)
        while start != -1:
            hits.append(start)
            start = body.find(raw, start + 1)
        if not hits:
            return record
        i = rng.choice(hits)
        return body[:i] + raw + body[i:] + nl
    return mutate


def misalign_fixed_width(width: int) -> Mutator:
    """Break a statically-sized record's width by one byte (the exact
    corruption the length check of a batch-kernel fast function must
    reject)."""
    def mutate(record: bytes, rng: random.Random) -> bytes:
        body, nl = ((record[:-1], record[-1:])
                    if record.endswith(b"\n") else (record, b""))
        if len(body) < 2:
            return record
        if rng.random() < 0.5:
            return body[:-1] + nl
        i = rng.randrange(len(body))
        return body[:i] + body[i:i + 1] + body[i:] + nl
    return mutate


def plan_mutators(description, record_type: str) -> List[Mutator]:
    """Mutators derived from the analyzed plan of ``record_type``.

    Struct resync literals yield drop/duplicate mutators; a static width
    yields a misalignment mutator.  Falls back to the generic mix when
    the plan offers no structure to aim at.
    """
    from ..plan.ir import StructPlan

    decl = description.plan.decl(record_type)
    mutators: List[Mutator] = []
    if isinstance(decl, StructPlan):
        for raw in dict.fromkeys(decl.scan_literals):
            mutators.append(drop_literal(raw))
            mutators.append(double_literal(raw))
    if decl.width is not None:
        mutators.append(misalign_fixed_width(decl.width))
    if not mutators:
        mutators = [truncate_record, garble_byte, duplicate_field_separator]
    return mutators


def plan_injector(description, record_type: str, rate: float) -> "ErrorInjector":
    """An :class:`ErrorInjector` armed with plan-derived mutators."""
    return ErrorInjector(rate, plan_mutators(description, record_type))


class ErrorInjector:
    """Corrupts a fraction of records with a chosen mix of mutators.

    The defaults model the paper's observed error classes (Figure 1):
    corrupted data feeds (garbled bytes), truncated/missing data, and
    unexpected values (stray separators).
    """

    def __init__(self, rate: float,
                 mutators: Sequence[Mutator] = (truncate_record, garble_byte,
                                                duplicate_field_separator)):
        if not (0.0 <= rate <= 1.0):
            raise ValueError("rate must be within [0, 1]")
        self.rate = rate
        self.mutators = list(mutators)
        self.injected = 0

    def maybe_corrupt(self, record: bytes, rng: random.Random) -> bytes:
        if rng.random() < self.rate:
            self.injected += 1
            return rng.choice(self.mutators)(record, rng)
        return record


# ---------------------------------------------------------------------------
# Calibrated CLF workload (paper Sections 2.1, 5.2)
# ---------------------------------------------------------------------------

_CLF_METHODS = ["GET"] * 88 + ["POST"] * 7 + ["HEAD"] * 4 + ["PUT"]
_CLF_PATHS = ["/tk/p.txt", "/index.html", "/images/logo.gif", "/cgi-bin/form",
              "/scpt/dd@grp.org/confirm", "/download/data.zip", "/news",
              "/research/papers/pads.pdf", "/favicon.ico", "/robots.txt"]
_CLF_HOSTS = ["tj62.aol.com", "www.research.att.com", "crawler.example.net",
              "proxy.bigcorp.com", "dialup-42.isp.org"]
_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
# The paper's report shows a heavy-headed length distribution; these are its
# printed top values.
_CLF_COMMON_LENGTHS = [3082, 170, 43, 9372, 1425, 518, 1082, 1367, 1027, 1277]


def clf_workload(n: int, rng: Optional[random.Random] = None,
                 dash_rate: float = 0.06666) -> bytes:
    """Synthetic CLF web-server log.

    ``dash_rate`` is the fraction of records whose byte-count field holds
    '-' instead of a number — the undocumented behaviour the paper's
    accumulator run surfaced (6.666% bad, Section 5.2).
    """
    rng = rng or random.Random()
    lines: List[str] = []
    for _ in range(n):
        if rng.random() < 0.7:
            client = ".".join(str(rng.randint(1, 254)) for _ in range(4))
        else:
            client = rng.choice(_CLF_HOSTS)
        day = rng.randint(1, 28)
        month = rng.choice(_MONTHS)
        stamp = (f"{day:02d}/{month}/1997:{rng.randint(0, 23):02d}:"
                 f"{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d} -0700")
        meth = rng.choice(_CLF_METHODS)
        uri = rng.choice(_CLF_PATHS)
        version = "1.1" if rng.random() < 0.2 else "1.0"
        code = rng.choices([200, 304, 404, 302, 500],
                           weights=[78, 10, 8, 3, 1])[0]
        if rng.random() < dash_rate:
            length = "-"
        elif rng.random() < 0.4:
            length = str(rng.choice(_CLF_COMMON_LENGTHS))
        else:
            length = str(rng.randint(35, 248591))
        lines.append(f'{client} - - [{stamp}] "{meth} {uri} HTTP/{version}" '
                     f"{code} {length}")
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# Calibrated Sirius workload (paper Sections 2.2 and 7)
# ---------------------------------------------------------------------------

_SIRIUS_STATES = [f"ST{i:03d}" for i in range(400)] + \
    ["LOC_CRTE", "LOC_OS_10", "EDTF_6", "LOC_6", "FRDW1", "APRL1", "DUO"]
_ORDER_TYPES = ["EDTF_6", "LOC_6", "CMB_GA", "DSL_3", "WIREL_2"]
_STREAMS = ["DUO", "UNO", "TRIO"]


def _sirius_event_count(rng: random.Random, avg: float, max_events: int) -> int:
    """Events per order: geometric-ish with the paper's min 1 / avg ~5.5,
    clamped to the paper's max of 156."""
    n = 1 + int(rng.expovariate(1.0 / (avg - 1.0)))
    return min(n, max_events)


def sirius_order_line(rng: random.Random, order_num: int, *,
                      base_time: int = 1_000_000_000,
                      avg_events: float = 5.5,
                      max_events: int = 156) -> str:
    """One provisioning-order record in the Figure 3/5 physical format."""
    def opt_pn() -> str:
        roll = rng.random()
        if roll < 0.25:
            return ""                       # missing representation 1: omitted
        if roll < 0.45:
            return "0"                      # missing representation 2: zero
        return str(rng.randint(2_000_000_000, 9_999_999_999))

    if rng.random() < 0.3:
        ramp = f"no_ii{rng.randint(100000, 999999)}"  # generated identifier
    else:
        ramp = str(rng.randint(100000, 999999))
    zip_code = "" if rng.random() < 0.2 else f"{rng.randint(0, 99999):05d}"

    header = "|".join([
        str(order_num),
        str(order_num),
        str(rng.randint(1, 3)),
        opt_pn(), opt_pn(), opt_pn(), opt_pn(),
        zip_code,
        ramp,
        rng.choice(_ORDER_TYPES),
        str(rng.randint(0, 30)),
        rng.choice(["", "APRL1", "FRDW1"]),
        rng.choice(_STREAMS),
    ])

    n_events = _sirius_event_count(rng, avg_events, max_events)
    t = base_time + rng.randint(0, 50_000_000)
    events = []
    for _ in range(n_events):
        events.append(f"{rng.choice(_SIRIUS_STATES)}|{t}")
        t += rng.randint(0, 500_000)
    return header + "|" + "|".join(events)


def sirius_workload(n_orders: int, rng: Optional[random.Random] = None, *,
                    header_time: int = 1_005_022_800,
                    sort_violations: int = 1,
                    syntax_errors: int = 53,
                    avg_events: float = 5.5,
                    max_events: int = 156) -> bytes:
    """A synthetic Sirius summary file.

    Defaults mirror the statistics of the paper's 2.2GB benchmark file
    (Section 7): one record violating the timestamp sort order and 53
    containing a syntax error.  When ``n_orders`` is small the error
    counts are clipped so errors never dominate.
    """
    rng = rng or random.Random()
    sort_violations = min(sort_violations, n_orders // 10 if n_orders < 100 else sort_violations)
    syntax_errors = min(syntax_errors, n_orders // 10 if n_orders < 530 else syntax_errors)

    lines = [f"0|{header_time}"]
    bad_sort = set(rng.sample(range(n_orders), sort_violations)) if sort_violations else set()
    remaining = sorted(set(range(n_orders)) - bad_sort)
    bad_syntax = set(rng.sample(remaining, min(syntax_errors, len(remaining)))) \
        if syntax_errors else set()

    for i in range(n_orders):
        line = sirius_order_line(rng, 9000 + i, avg_events=avg_events,
                                 max_events=max_events)
        if i in bad_sort:
            line = _swap_last_two_timestamps(line, rng)
        elif i in bad_syntax:
            line = _corrupt_sirius_line(line, rng)
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("ascii")


def _swap_last_two_timestamps(line: str, rng: random.Random) -> str:
    """Force a timestamp sort-order violation in the event sequence."""
    parts = line.split("|")
    if len(parts) < 18:  # header(14) + two events(4)
        parts.extend([rng.choice(_SIRIUS_STATES), "1000000900",
                      rng.choice(_SIRIUS_STATES), "1000000100"])
        return "|".join(parts)
    parts[-1], parts[-3] = parts[-3], parts[-1]
    if parts[-1] == parts[-3]:
        parts[-1] = str(int(parts[-1]) - 7)
        parts[-1], parts[-3] = parts[-3], parts[-1]
    return "|".join(parts)


def _corrupt_sirius_line(line: str, rng: random.Random) -> str:
    """Introduce a syntax error of the kind the paper's vetter catches."""
    choice = rng.randrange(3)
    if choice == 0:
        # Non-numeric order number.
        return "X" + line
    if choice == 1:
        # Record truncated inside the header (too few fields).
        return "|".join(line.split("|")[:5])
    # Garbage in the final timestamp.
    parts = line.split("|")
    parts[-1] = "t" + parts[-1]
    return "|".join(parts)


# ---------------------------------------------------------------------------
# Binary workloads
# ---------------------------------------------------------------------------

def call_detail_workload(n: int, rng: Optional[random.Random] = None) -> bytes:
    """Fixed-width binary call-detail records (24 bytes each)."""
    rng = rng or random.Random()
    out = bytearray()
    t = 1_000_000_000
    for _ in range(n):
        out += rng.randint(2_000_000_000, 9_999_999_999).to_bytes(8, "little")
        out += rng.randint(2_000_000_000, 9_999_999_999).to_bytes(8, "little")
        out += t.to_bytes(4, "little")
        out += rng.randint(0, 7200).to_bytes(2, "little")
        out += rng.randint(0, 4).to_bytes(1, "little")
        out += rng.randint(0, 255).to_bytes(1, "little")
        t += rng.randint(0, 10)
    return bytes(out)
