"""``repro.serve`` — a long-running multi-tenant parse service.

The paper's thesis is that a PADS description is written once and reused
by every tool that touches the data.  The production endpoint of that
idea is a service: the description travels to the server, is compiled
*once*, and then serves parse requests from many concurrent clients —
the same move FuncADL makes for analysis DSLs.  Everything here is
composition of existing library pieces:

* **compile-once** — requests resolve through a content-hash-keyed
  :class:`~repro.core.api.DescriptionCache` whose key covers source
  text, ambient coding, record discipline and fastpath mode (hashing
  only the source would let one tenant's compile poison another's:
  identical source, different discipline, one shared description);
* **tenancy / QoS** — each tenant (the ``X-Tenant`` header) gets a
  :class:`~repro.core.limits.ParseLimits` budget attached per-*source*,
  so one cached description serves every budget; a limit hit fails the
  request with a structured 4xx/5xx body, it never takes the server down;
* **execution** — every request runs through :func:`repro.execute.run`,
  whose planner picks the mode and says whether the record loop parses
  the payload a grid block at a time; each reply reports both; large
  accum/count payloads get ``jobs`` and so the self-healing parallel
  pool (:mod:`repro.parallel`), which persists across requests.  A
  parse runs on the event loop itself only when its work is bounded (a
  body under :data:`INLINE_BODY_BYTES`, an already-compiled
  description whose static work bound is at most
  :data:`INLINE_WORK_PER_BYTE` steps per byte, no pool fan-out);
  everything else, registration included, runs on a thread-pool
  executor, so the loop never compiles, never waits on another thread,
  never parses a large payload and never runs a description whose work
  a parsed value can set;
* **observability** — each request meters into its *own*
  :class:`~repro.observe.MetricsRegistry`, merged into the
  server-lifetime registry on the event loop at request completion (the
  PR-1 reduce path).  Sharing one registry across handlers would
  interleave read-modify-write on counters — the registry is built for
  merge-after-fork, not shared mutation.  ``GET /metrics`` renders the
  server registry in the Prometheus text format.

Wire protocol (all request/response JSON is UTF-8; byte-carrying string
fields use the runtime's latin-1 convention — code point *n* < 256 is
byte *n*; ``format: "text"`` responses are raw bytes rendered through
:func:`~repro.core.io.transparent_encode`):

``POST /v1/descriptions``
    ``{"source": ..., "ambient": "ascii", "records": "newline",``
    ``"fastpath": true}`` —
    compile (through the cache) and pin a description; returns its
    content-hash ``id``.

``POST /v1/parse``
    ``{"id": ...}`` or inline ``{"source": ..., ...}`` plus
    ``{"data": str | "data_b64": base64, "type": record_type,``
    ``"mode": "records"|"accum"|"count", "format": "json"|"text"}``.

``GET /metrics`` — Prometheus text exposition.  ``GET /healthz`` — ok.

Start one with ``padsc serve --port 8080 --limits deadline=5`` or
programmatically via :class:`ServerThread` (tests, benchmarks).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import copy
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Dict, Optional, Tuple

from .core.api import DescriptionCache, description_cache_key
from .core.errors import DescriptionError, ErrorTally, PadsError, Pstate
from .core.io import discipline_from_spec, transparent_encode
from .core.limits import ParseLimits
from .execute import ExecOptions, run
from .observe import MetricsRegistry, SIZE_BUCKETS, to_prometheus
from .tools.fmt import formatter

__all__ = ["ServeConfig", "ParseServer", "ServerThread", "run_server",
           "LIMIT_STATUS"]

#: LIMIT_EXCEEDED family -> HTTP status.  Size-shaped budgets (a record,
#: array or nesting deeper than the tenant's plan allows) are the
#: client's payload being too large (413); an exhausted wall-clock
#: deadline is the service declining work (503); an exhausted error
#: budget is data the tenant's policy refuses to process (422).
LIMIT_STATUS: Dict[str, int] = {
    "RECORD_LIMIT": 413,
    "ARRAY_LIMIT": 413,
    "NEST_LIMIT": 413,
    "DEADLINE_EXCEEDED": 503,
    "ERROR_BUDGET_EXCEEDED": 422,
    "LIMIT_EXCEEDED": 400,
}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Default cap on records echoed back by ``mode: records``.
DEFAULT_MAX_RECORDS = 10_000

#: Parse requests with bodies under this many bytes may run on the event
#: loop (see :meth:`ParseServer._route`).  A parse on the executor hands
#: the loop the GIL only once per switch interval (5 ms), so inline work
#: of one interval costs the loop no more responsiveness than the hop
#: does.  At the slowest in-process rate, the CLF accumulator's ≈4 MB/s,
#: one interval is ≈20 KB of payload; the decoded data is never larger
#: than the body that carries it.
INLINE_BODY_BYTES = 16 << 10

#: ...and only when the description's static work bound
#: (:func:`repro.plan.cost.work_per_byte`) is at most this many steps per
#: byte.  The byte bound above holds for descriptions that cost what the
#: measured one does: CLF scores 85, the other gallery descriptions
#: 12-73.  A description at the cap does at most 100/85 of CLF's
#: per-byte work, ≈5 ms at 16 KiB; one without a bound (a quantifier,
#: loop or regex whose work a parsed value sets) never runs inline.
INLINE_WORK_PER_BYTE = 100


class HttpError(Exception):
    """A structured request failure: status + machine-readable code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


async def _read_line(reader: asyncio.StreamReader, status: int, code: str,
                     what: str) -> bytes:
    """One request-head line; a line over the reader's buffer limit is a
    structured refusal, not an unhandled ``LimitOverrunError``."""
    try:
        return await reader.readline()
    except ValueError:
        raise HttpError(status, code, f"{what} too long") from None


class LimitExceeded(HttpError):
    """A tenant budget was hit mid-request (QoS isolation, not a bug)."""

    def __init__(self, code: str, records_parsed: int):
        super().__init__(LIMIT_STATUS.get(code, 400), "LIMIT_EXCEEDED",
                         f"tenant budget exceeded: {code}")
        self.limit_code = code
        self.records_parsed = records_parsed


@dataclass
class ServeConfig:
    """Everything a server instance needs, CLI-shaped."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral (the bound port is on ParseServer.port)
    #: Worker processes for the parallel engine on large payloads; 1
    #: keeps every request on the in-process engines.
    jobs: int = 1
    #: Payload bytes at and above which accum/count requests fan out to
    #: the parallel pool (when ``jobs > 1`` and the pool is free).
    parallel_threshold: int = 1 << 20
    #: Hard cap on request bodies (decoded JSON included).
    max_body: int = 64 << 20
    #: Compiled-description cache slots.
    cache_size: int = 128
    #: Default ParseLimits for tenants without an explicit budget.
    default_limits: Optional[ParseLimits] = None
    #: Per-tenant budgets: tenant name -> ParseLimits.
    tenant_limits: Dict[str, ParseLimits] = field(default_factory=dict)
    #: Threads executing parse work off the event loop.
    workers: int = 8
    #: Seconds an idle keep-alive connection may sit before close.
    idle_timeout: float = 60.0


class ParseServer:
    """The asyncio service.  One instance owns a description cache, a
    server-lifetime metrics registry and a thread-pool executor; request
    handlers are coroutines that run small parses of compiled
    descriptions in place, push all other blocking work onto the
    executor, and merge per-request metrics on the event loop."""

    def __init__(self, config: Optional[ServeConfig] = None, **kwargs):
        self.config = config or ServeConfig(**kwargs)
        self.cache = DescriptionCache(self.config.cache_size)
        #: Server-lifetime registry.  Only the event-loop thread mutates
        #: it (request registries merge at completion; scrapes snapshot
        #: it), so counter read-modify-writes never interleave.
        self.metrics = MetricsRegistry()
        self._descriptions: Dict[str, tuple] = {}
        self._desc_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="pads-serve")
        #: The parallel pool is one shared resource: the first large
        #: request in takes it, concurrent ones run on the in-process
        #: engines instead of queueing behind it.
        self._parallel_gate = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._active = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise PadsError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections hold parked handler tasks; cancel
        # them so shutdown is clean, not "task was destroyed but it is
        # pending" noise at loop close.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.config.idle_timeout)
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return
                except HttpError as exc:
                    # A request we refuse to even read (oversized body,
                    # malformed request line) still gets a structured
                    # response; the connection closes because the unread
                    # body would desynchronize keep-alive framing.
                    self.metrics.counter("serve.requests", "<refused>",
                                         str(exc.status)).inc()
                    await self._respond(
                        writer, exc.status, "application/json",
                        self._json_body({"error": exc.code,
                                         "message": exc.message}),
                        keep=False)
                    return
                if request is None:
                    return
                method, path, headers, body = request
                keep = headers.get("connection", "keep-alive") != "close"
                t0 = perf_counter()
                self._active += 1
                self.metrics.gauge("serve.active.high_water").set(
                    max(self._active,
                        self.metrics.value("serve.active.high_water")))
                try:
                    status, ctype, payload = await self._dispatch(
                        method, path, headers, body)
                finally:
                    self._active -= 1
                route = path.split("?", 1)[0]
                self.metrics.counter("serve.requests", route,
                                     str(status)).inc()
                self.metrics.histogram("serve.latency", route,
                                       timing=True).observe(
                    perf_counter() - t0)
                await self._respond(writer, status, ctype, payload, keep)
                if not keep:
                    return
        except ConnectionError:
            pass  # the client left before its reply; nothing to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await _read_line(reader, 400, "BAD_REQUEST", "request line")
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise HttpError(400, "BAD_REQUEST", "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            raw = await _read_line(reader, 431, "HEADER_TOO_LARGE",
                                   "header line")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding"):
            raise HttpError(400, "BAD_REQUEST",
                            "chunked request bodies are not supported")
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise HttpError(400, "BAD_REQUEST",
                            f"bad Content-Length {length!r}")
        length = int(length)
        if length > self.config.max_body:
            raise HttpError(413, "REQUEST_TOO_LARGE",
                            f"request body over {self.config.max_body} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _respond(self, writer, status: int, ctype: str, body: bytes,
                       keep: bool) -> None:
        reason = _REASONS.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep else 'close'}\r\n"
                "\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    @staticmethod
    def _json_body(doc: dict) -> bytes:
        # ensure_ascii keeps the wire format pure ASCII: byte-carrying
        # string fields travel as \u00XX escapes, so clients recover the
        # exact bytes with str.encode("latin-1") after json parsing.
        return transparent_encode(json.dumps(doc, sort_keys=True))

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, method: str, path: str, headers: dict,
                        body: bytes) -> Tuple[int, str, bytes]:
        route = path.split("?", 1)[0]
        try:
            if route == "/healthz":
                if method != "GET":
                    raise HttpError(405, "METHOD_NOT_ALLOWED", "GET only")
                return 200, "application/json", self._json_body(
                    {"status": "ok"})
            if route == "/metrics":
                if method != "GET":
                    raise HttpError(405, "METHOD_NOT_ALLOWED", "GET only")
                text = to_prometheus(self.metrics)
                return (200, "text/plain; version=0.0.4; charset=utf-8",
                        transparent_encode(text))
            if route == "/v1/descriptions":
                if method != "POST":
                    raise HttpError(405, "METHOD_NOT_ALLOWED", "POST only")
                return await self._handle_register(headers, body)
            if route == "/v1/parse":
                if method != "POST":
                    raise HttpError(405, "METHOD_NOT_ALLOWED", "POST only")
                return await self._handle_parse(headers, body)
            raise HttpError(404, "NOT_FOUND", f"no route {route!r}")
        except LimitExceeded as exc:
            tenant = headers.get("x-tenant", "default")
            self.metrics.counter("serve.limited", tenant,
                                 exc.limit_code).inc()
            return exc.status, "application/json", self._json_body({
                "error": exc.code, "code": exc.limit_code,
                "tenant": tenant, "records_parsed": exc.records_parsed,
                "message": exc.message})
        except HttpError as exc:
            return exc.status, "application/json", self._json_body(
                {"error": exc.code, "message": exc.message})
        except (DescriptionError, PadsError) as exc:
            return 400, "application/json", self._json_body(
                {"error": "PADS_ERROR", "message": str(exc)})
        except Exception as exc:  # never let a bug tear the server down
            self.metrics.counter("serve.errors.internal").inc()
            return 500, "application/json", self._json_body(
                {"error": "INTERNAL", "message": f"{type(exc).__name__}: "
                                                 f"{exc}"})

    @staticmethod
    def _payload(body: bytes) -> dict:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, "BAD_JSON", f"request body: {exc}")
        if not isinstance(doc, dict):
            raise HttpError(400, "BAD_JSON", "request body must be an object")
        return doc

    # -- description resolution --------------------------------------------

    def _compile_args(self, payload: dict) -> dict:
        """The validated compile inputs of an inline-source request."""
        source = payload.get("source")
        if not isinstance(source, str) or not source:
            raise HttpError(400, "MISSING_SOURCE",
                            "request needs 'source' or a registered 'id'")
        ambient = payload.get("ambient", "ascii")
        if ambient not in ("ascii", "binary", "ebcdic"):
            raise HttpError(400, "BAD_AMBIENT",
                            f"unknown ambient {ambient!r}")
        return dict(text=source, ambient=ambient,
                    discipline=discipline_from_spec(
                        payload.get("records", "newline")),
                    fastpath=bool(payload.get("fastpath", True)))

    def _compile(self, payload: dict):
        """``(description, id, cache_hit)`` from inline compile fields."""
        return self.cache.get_or_compile(filename="<request>",
                                         **self._compile_args(payload))

    def _registered(self, desc_id) -> tuple:
        with self._desc_lock:
            entry = self._descriptions.get(desc_id)
        if entry is None:
            raise HttpError(404, "UNKNOWN_DESCRIPTION",
                            f"no registered description {desc_id!r}")
        return entry[0], desc_id, True

    def _resolve(self, payload: dict):
        """Resolve a request to ``(description, id, cache_hit)`` by
        registered id or by inline source through the compile cache."""
        desc_id = payload.get("id")
        if desc_id is not None:
            return self._registered(desc_id)
        return self._compile(payload)

    async def _handle_register(self, headers: dict,
                               body: bytes) -> Tuple[int, str, bytes]:
        payload = self._payload(body)
        loop = asyncio.get_running_loop()
        registry = MetricsRegistry()
        try:
            desc, key, hit = await loop.run_in_executor(
                self._executor, self._resolved,
                partial(self._compile, payload), registry)
        finally:
            self.metrics.merge(registry)
        with self._desc_lock:
            self._descriptions[key] = (desc, payload.get("records",
                                                         "newline"))
            self.metrics.gauge("serve.descriptions").set(
                len(self._descriptions))
        doc = {"id": key, "cached": hit,
               "source_type": desc.source_type,
               "types": desc.type_names}
        return 200, "application/json", self._json_body(doc)

    @staticmethod
    def _resolved(resolve, registry: MetricsRegistry):
        """``resolve()``, metering the cache hit or the compile."""
        t0 = perf_counter()
        desc, key, hit = resolve()
        if hit:
            registry.counter("serve.cache.hits").inc()
        else:
            registry.counter("serve.cache.misses").inc()
            registry.counter("serve.compile").inc()
            registry.histogram("serve.compile_seconds", timing=True).observe(
                perf_counter() - t0)
            # Size the work bound here, on the executor; _route reads
            # it on the loop.
            desc.work_per_byte
        return desc, key, hit

    # -- parse requests ----------------------------------------------------

    async def _handle_parse(self, headers: dict,
                            body: bytes) -> Tuple[int, str, bytes]:
        payload = self._payload(body)
        tenant = headers.get("x-tenant", "default")
        limits = self.config.tenant_limits.get(tenant,
                                               self.config.default_limits)
        registry = MetricsRegistry()  # this request's private registry
        resolve, inline = self._route(payload, len(body))
        registry.counter("serve.dispatch", "inline" if inline
                         else "executor").inc()
        args = (resolve, payload, tenant, limits, registry, perf_counter())
        try:
            if inline:
                doc, raw, hit = self._execute(*args)
            else:
                loop = asyncio.get_running_loop()
                doc, raw, hit = await loop.run_in_executor(
                    self._executor, self._execute, *args)
        finally:
            # Merge-at-completion, on the event loop: the reduce path the
            # registry algebra is built for.  Failed and limited requests
            # still account their partial work (including the compile
            # they may have triggered before hitting their budget).
            self.metrics.merge(registry)
        self.metrics.counter("serve.tenant.requests", tenant).inc()
        if raw is not None:
            return 200, "text/plain; charset=latin-1", raw
        return 200, "application/json", self._json_body(doc)

    def _route(self, payload: dict, body_bytes: int):
        """The dispatch decision: ``(resolve, inline)``, where
        ``resolve()`` gives the request's ``(description, id, cache_hit)``
        and ``inline`` says it may run on the event loop.

        The loop takes only bounded work: a body under
        :data:`INLINE_BODY_BYTES`, too small for :meth:`_run` to fan out
        to the parallel pool (the data is never larger than its body), a
        description that resolves without a compile or a wait (a
        registered id or a compile-cache hit through the non-blocking
        ``DescriptionCache.get``) and whose static work bound is at most
        :data:`INLINE_WORK_PER_BYTE` steps per byte.  Looking the
        description up here may refuse the request (unknown id, bad
        compile fields) with its structured 4xx before it is dispatched.
        """
        if body_bytes >= INLINE_BODY_BYTES or self._may_fan_out(body_bytes):
            return partial(self._resolve, payload), False
        if payload.get("id") is not None:
            found = self._registered(payload["id"])
        else:
            kwargs = self._compile_args(payload)
            key = description_cache_key(**kwargs)
            desc = self.cache.get(key)
            if desc is None:
                return partial(self.cache.get_or_compile,
                               filename="<request>", **kwargs), False
            found = (desc, key, True)
        work = found[0].work_per_byte
        return (lambda: found), (work is not None
                                 and work <= INLINE_WORK_PER_BYTE)

    def _execute(self, resolve, payload: dict, tenant: str,
                 limits: Optional[ParseLimits],
                 registry: MetricsRegistry, submitted: float):
        """Blocking request execution, taken up at ``perf_counter()`` time
        ``submitted``, on the executor or on the loop (:meth:`_route`).

        Returns ``(json_doc, raw_body_or_None, cache_hit)``; raises
        :class:`LimitExceeded` when the tenant budget is hit.
        """
        registry.histogram("serve.queue_seconds", timing=True).observe(
            perf_counter() - submitted)
        desc, key, hit = self._resolved(resolve, registry)
        data = self._data_bytes(payload)
        mode = payload.get("mode", "records")
        out_format = payload.get("format", "json")
        if mode not in ("records", "accum", "count"):
            raise HttpError(400, "BAD_MODE", f"unknown mode {mode!r}")
        if out_format not in ("json", "text"):
            raise HttpError(400, "BAD_FORMAT",
                            f"unknown format {out_format!r}")
        t0 = perf_counter()
        if mode == "count":
            doc, text = self._run_count(desc, data, limits, registry)
        else:
            type_name = payload.get("type") or desc.source_type
            if not type_name:
                raise HttpError(400, "MISSING_TYPE",
                                "request needs 'type' (no Psource type)")
            if type_name not in desc.type_names:
                raise HttpError(400, "UNKNOWN_TYPE",
                                f"no type named {type_name!r}")
            if mode == "accum":
                doc, text = self._run_accum(desc, data, type_name, payload,
                                            limits, registry)
            else:
                doc, text = self._run_records(desc, data, type_name, payload,
                                              limits, registry)
        registry.counter("bytes.total").inc(len(data))
        registry.histogram("serve.request_bytes",
                           bounds=SIZE_BUCKETS).observe(len(data))
        registry.histogram("serve.parse_seconds", timing=True).observe(
            perf_counter() - t0)
        registry.counter("serve.tenant.bytes", tenant).inc(len(data))
        doc.update({"id": key, "cached": hit, "tenant": tenant,
                    "mode": mode})
        if out_format == "text":
            # Raw bodies carry parsed field bytes; they must round-trip
            # through transparent_encode (utf-8 re-encoding latin-1 field
            # bytes is the PR-5 report-rendering bug all over again).
            return doc, transparent_encode(text), hit
        return doc, None, hit

    @staticmethod
    def _data_bytes(payload: dict) -> bytes:
        if "data_b64" in payload:
            try:
                return base64.b64decode(payload["data_b64"], validate=True)
            except (binascii.Error, TypeError) as exc:
                raise HttpError(400, "BAD_DATA", f"data_b64: {exc}")
        data = payload.get("data")
        if not isinstance(data, str):
            raise HttpError(400, "BAD_DATA",
                            "request needs 'data' (str) or 'data_b64'")
        # The latin-1 convention: JSON code points < 256 are the bytes.
        return transparent_encode(data)

    def _with_limits(self, desc, limits: Optional[ParseLimits]):
        """A shallow twin of a cached description carrying the tenant
        budget, for engines that read ``description.limits``."""
        if limits is None:
            return desc
        twin = copy.copy(desc)
        twin.limits = limits
        return twin

    @staticmethod
    def _check_limit(pd, tally: ErrorTally) -> None:
        if not int(pd.pstate) & int(Pstate.LIMIT):
            return
        code = pd.err_code.name if pd.err_code.value >= 500 else None
        if code is None:
            for _path, err, _n in pd.iter_errors("<record>"):
                if err.value >= 500:
                    code = err.name
                    break
        raise LimitExceeded(code or "LIMIT_EXCEEDED", tally.records)

    @staticmethod
    def _tally_limit(tally: ErrorTally) -> None:
        for name in tally.by_code:
            if name in LIMIT_STATUS:
                raise LimitExceeded(name, tally.records)

    def _fold_tally(self, tally: ErrorTally,
                    registry: MetricsRegistry) -> dict:
        registry.counter("records.total").inc(tally.records)
        registry.counter("records.bad").inc(tally.bad_records)
        registry.counter("errors.total").inc(tally.total_errors)
        for code, n in tally.by_code.items():
            registry.counter("errors.by_code", code).inc(n)
        stats = {"records": tally.records, "bad": tally.bad_records,
                 "errors": tally.total_errors,
                 "by_code": dict(sorted(tally.by_code.items()))}
        if tally.first_error_code is not None:
            stats["first_error"] = {
                "code": tally.first_error_code.name,
                "offset": getattr(tally.first_error_loc, "offset", None)}
        return stats

    # -- the three modes ---------------------------------------------------

    @staticmethod
    def _count_param(payload: dict, name: str, default: int) -> int:
        value = payload.get(name, default)
        if type(value) is not int or value < 0:
            raise HttpError(400, "BAD_PARAM",
                            f"{name!r} must be a non-negative integer, "
                            f"not {value!r}")
        return value

    def _may_fan_out(self, nbytes: int) -> bool:
        """Whether a payload of ``nbytes`` is large enough for the pool."""
        return (self.config.jobs > 1
                and nbytes >= self.config.parallel_threshold)

    def _run(self, desc, data: bytes, op: str, type_name, limits,
             registry, **op_args):
        """One :func:`~repro.execute.run` call with the tenant's budget.

        Serve's only policy is ``jobs``: accum/count payloads at or over
        ``parallel_threshold`` fan out when ``jobs > 1`` and the pool is
        free; a busy pool means the in-process engines, not a queue.
        """
        gated = (op != "records" and self._may_fan_out(len(data))
                 and self._parallel_gate.acquire(blocking=False))
        try:
            result = run(self._with_limits(desc, limits), data, op,
                         type_name, ExecOptions(
                             jobs=self.config.jobs if gated else 1),
                         **op_args)
        finally:
            if gated:
                self._parallel_gate.release()
        if gated:
            registry.counter("serve.parallel_runs").inc()
        return result, {"mode": result.mode, "reason": result.reason}

    def _run_count(self, desc, data: bytes, limits, registry):
        result, engine = self._run(desc, data, "count", None, limits,
                                   registry)
        registry.counter("records.total").inc(result.count)
        return {"count": result.count, "engine": engine}, f"{result.count}\n"

    def _run_accum(self, desc, data: bytes, type_name: str, payload: dict,
                   limits, registry):
        top = self._count_param(payload, "top", 10)
        result, engine = self._run(
            desc, data, "accum", type_name, limits, registry,
            tracked=self._count_param(payload, "tracked", 1000),
            on_record=self._check_limit)
        # Folds that ran in workers report limit hits only in the tally.
        self._tally_limit(result.tally)
        report = result.acc.full_report(top)
        stats = self._fold_tally(result.tally, registry)
        return {"report": report, "count": result.tally.records,
                "stats": stats, "engine": engine}, report

    def _run_records(self, desc, data: bytes, type_name: str, payload: dict,
                     limits, registry):
        max_records = self._count_param(payload, "max_records",
                                        DEFAULT_MAX_RECORDS)
        fmt = formatter(desc.node(type_name),
                        delims=str(payload.get("delims", "|")))
        tally = ErrorTally()
        lines = []
        truncated = False
        result, engine = self._run(desc, data, "records", type_name, limits,
                                   registry)
        for rep, pd in result.pairs:
            tally.add(pd)
            self._check_limit(pd, tally)
            if len(lines) < max_records:
                lines.append(fmt(rep))
            else:
                truncated = True
        stats = self._fold_tally(tally, registry)
        doc = {"records": lines, "count": tally.records, "stats": stats,
               "engine": engine}
        if truncated:
            doc["truncated"] = True
        return doc, "".join(line + "\n" for line in lines)


# -- entry points ---------------------------------------------------------------


def run_server(config: ServeConfig) -> int:
    """Run a server in the foreground until SIGINT/SIGTERM (the
    ``padsc serve`` body).  Returns 0 on clean shutdown."""
    import signal

    async def _main() -> int:
        server = ParseServer(config)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        print(f"padsc serve: listening on "
              f"http://{config.host}:{server.port} "
              f"(jobs={config.jobs}, cache={config.cache_size})",
              flush=True)
        try:
            await stop.wait()
        finally:
            await server.stop()
        return 0

    return asyncio.run(_main())


class ServerThread:
    """A server on a background thread with its own event loop — the
    harness tests and benchmarks drive real sockets through this."""

    def __init__(self, config: Optional[ServeConfig] = None, **kwargs):
        self.server = ParseServer(config, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def metrics(self) -> MetricsRegistry:
        return self.server.metrics

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def start(self) -> "ServerThread":
        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # bind failure -> surface in start()
                self._failure = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(target=_run, name="pads-serve",
                                        daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._failure is not None:
            raise self._failure
        if not self._ready.is_set():
            raise PadsError("server failed to start within 10s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None
