"""The multi-tenant parse service (:mod:`repro.serve`) and the
concurrency fixes that make the library safe to serve from.

Four regression suites ride along with the service tests, one per
bugfix:

* compiled-description cache keying — the key must cover backend,
  ambient, record discipline and fastpath mode, not just source text
  (``TestCacheKeying``);
* registry merge-after-request — sharing one ``MetricsRegistry`` across
  threads loses counts; per-request registries merged at completion are
  exact (``TestRegistryMerge``);
* byte transparency — raw response bodies must round-trip latin-1
  convention bytes through ``transparent_encode``, not re-encode them as
  UTF-8 (``TestByteTransparency``);
* tenant budgets — ``LIMIT_EXCEEDED`` outcomes map to structured
  4xx/5xx responses, never tracebacks (``TestLimits``).

Plus the concurrent-client differential: N simultaneous clients must
produce byte-identical reports and exact metric totals versus N serial
library runs.
"""

import base64
import json
import logging
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.api import (DescriptionCache, compile_cached,
                            compile_description, description_cache_key)
from repro.core.errors import ErrorTally
from repro.core.io import (FixedWidthRecords, discipline_from_spec,
                           transparent_encode)
from repro.core.limits import ParseLimits
from repro.gallery import (CALL_DETAIL, CALL_DETAIL_WIDTH, CLF, CLF_SAMPLE,
                           SIRIUS, SIRIUS_SAMPLE)
from repro.observe import MetricsRegistry, to_prometheus
from repro.serve import LIMIT_STATUS, ServeConfig, ServerThread
from repro.tools.accum import Accumulator
from repro.tools.fmt import format_value

PIPE = """\
Psource Pstruct row_t {
  Pstring(:'|':) name;
  '|';
  Puint32 n;
};
"""

PIPE_DATA = "caf\xe9|1\nna\xefve|2\nplain|3\n"


# -- a tiny HTTP client over urllib ---------------------------------------------


def _request(port, method, path, doc=None, headers=None, raw=False):
    body = None if doc is None else json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method,
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            payload = resp.read()
            status = resp.status
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        status = exc.code
    if raw:
        return status, payload
    return status, json.loads(payload)


def post(port, path, doc, tenant=None, raw=False):
    headers = {"X-Tenant": tenant} if tenant else {}
    return _request(port, "POST", path, doc, headers, raw=raw)


def get(port, path, raw=True):
    return _request(port, "GET", path, raw=raw)


# -- service basics ---------------------------------------------------------------


class TestService:
    def test_health_register_and_modes(self):
        with ServerThread() as st:
            status, doc = get(st.port, "/healthz", raw=False)
            assert (status, doc) == (200, {"status": "ok"})

            status, reg = post(st.port, "/v1/descriptions", {"source": CLF})
            assert status == 200 and not reg["cached"]
            assert reg["source_type"] == "clt_t"
            assert "entry_t" in reg["types"]

            base = {"id": reg["id"], "data": CLF_SAMPLE, "type": "entry_t"}
            status, doc = post(st.port, "/v1/parse",
                               dict(base, mode="count"))
            assert status == 200 and doc["count"] == 2

            status, doc = post(st.port, "/v1/parse",
                               dict(base, mode="records"))
            assert status == 200 and len(doc["records"]) == 2
            assert doc["stats"]["records"] == 2
            assert doc["stats"]["bad"] == 0

            status, doc = post(st.port, "/v1/parse", dict(base, mode="accum"))
            assert status == 200 and "entry_t" not in doc.get("error", "")
            assert doc["count"] == 2 and doc["report"]

    def test_inline_source_and_data_b64(self):
        data64 = base64.b64encode(
            transparent_encode(CLF_SAMPLE)).decode("ascii")
        with ServerThread() as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": CLF, "data_b64": data64,
                                "mode": "count"})
            assert status == 200 and doc["count"] == 2

    def test_structured_errors_not_tracebacks(self):
        with ServerThread() as st:
            cases = [
                ("/v1/parse", {"id": "nope", "data": "x"}, 404,
                 "UNKNOWN_DESCRIPTION"),
                ("/v1/parse", {"data": "x"}, 400, "MISSING_SOURCE"),
                ("/v1/parse", {"source": CLF}, 400, "BAD_DATA"),
                ("/v1/parse", {"source": CLF, "data": "x",
                               "mode": "weird"}, 400, "BAD_MODE"),
                ("/v1/parse", {"source": CLF, "data": "x",
                               "type": "zzz_t"}, 400, "UNKNOWN_TYPE"),
                ("/v1/parse", {"source": CLF, "data": "x",
                               "format": "yaml"}, 400, "BAD_FORMAT"),
                ("/v1/parse", {"source": "Pstruct {", "data": "x"}, 400,
                 "PADS_ERROR"),
                ("/v1/parse", {"source": CLF, "data": "x",
                               "records": "fixed:abc"}, 400, "PADS_ERROR"),
                ("/v1/descriptions", {"source": CLF, "backend": "zig"},
                 400, "BAD_BACKEND"),
                ("/v1/descriptions", {"source": CLF, "backend": "ast"},
                 400, "BAD_BACKEND"),
                ("/v1/descriptions", {"source": CLF, "backend": "auto"},
                 400, "BAD_BACKEND"),
                ("/v1/nope", {}, 404, "NOT_FOUND"),
            ]
            for path, doc, want_status, want_error in cases:
                status, body = post(st.port, path, doc)
                assert status == want_status, (doc, body)
                assert body["error"] == want_error, (doc, body)

    def test_bad_json_and_oversized_body(self):
        with ServerThread(max_body=64) as st:
            status, body = _request(st.port, "POST", "/v1/parse",
                                    headers={})
            # no body at all -> BAD_JSON, not a crash
            assert status == 400 and body["error"] == "BAD_JSON"
            status, body = post(
                st.port, "/v1/parse",
                {"source": CLF, "data": "x" * 200, "mode": "count"})
            assert status == 413 and body["error"] == "REQUEST_TOO_LARGE"

    def test_method_not_allowed(self):
        with ServerThread() as st:
            status, body = post(st.port, "/metrics", {})
            assert status == 405
            status, body = get(st.port, "/v1/parse", raw=False)
            assert status == 405

    def test_text_format_bodies(self):
        with ServerThread() as st:
            status, body = post(st.port, "/v1/parse",
                                {"source": CLF, "data": CLF_SAMPLE,
                                 "mode": "count", "format": "text"},
                                raw=True)
            assert (status, body) == (200, b"2\n")


# -- malformed client input: structured 400s, never a 500 or a dropped socket ----


@pytest.fixture(scope="class")
def server():
    with ServerThread() as st:
        yield st


def _raw_exchange(port, head: bytes) -> bytes:
    """Send ``head`` on a fresh socket and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestRequestValidation:
    @pytest.mark.parametrize("mode,name,value", [
        ("records", "max_records", "x"),
        ("records", "max_records", -1),
        ("records", "max_records", True),
        ("records", "max_records", 2.5),
        ("accum", "top", "x"),
        ("accum", "top", False),
        ("accum", "top", None),
        ("accum", "tracked", [1]),
        ("accum", "tracked", -3),
    ])
    def test_bad_numeric_param_is_400(self, server, mode, name, value):
        status, body = post(server.port, "/v1/parse",
                            {"source": CLF, "data": CLF_SAMPLE,
                             "type": "entry_t", "mode": mode, name: value})
        assert status == 400, body
        assert body["error"] == "BAD_PARAM" and repr(name) in body["message"]

    @pytest.mark.parametrize("mode,name", [
        ("records", "max_records"), ("accum", "top"), ("accum", "tracked")])
    def test_good_numeric_param(self, server, mode, name):
        status, body = post(server.port, "/v1/parse",
                            {"source": CLF, "data": CLF_SAMPLE,
                             "type": "entry_t", "mode": mode, name: 1})
        assert status == 200, body
        if name == "max_records":
            assert len(body["records"]) == 1 and body["truncated"]

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1.5", b"\xb2"])
    def test_bad_content_length_gets_a_400(self, caplog, length):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread() as st:
                reply = _raw_exchange(
                    st.port, b"POST /v1/parse HTTP/1.1\r\nContent-Length: "
                    + length + b"\r\n\r\n")
                status, doc = get(st.port, "/healthz", raw=False)
                assert (status, doc) == (200, {"status": "ok"})
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "BAD_REQUEST"
        assert not [r for r in caplog.records if r.name == "asyncio"]


# -- bugfix 1: cache keying -------------------------------------------------------


class TestCacheKeying:
    """The compiled-description cache key must cover every input that
    changes compilation, not just the source text.  Under source-only
    keying one tenant's ``backend: source`` registration would be served
    to another tenant who asked for the interpreter (cross-tenant cache
    poisoning); each of these asserts fails in that world."""

    def test_key_covers_backend(self):
        d_interp = compile_cached(PIPE)
        d_source = compile_cached(PIPE, backend="source")
        assert d_interp is not d_source
        assert getattr(d_interp, "backend", "interp") == "interp"
        assert getattr(d_source, "backend", None) == "source"
        # and the same request comes back from the cache
        assert compile_cached(PIPE) is d_interp
        assert compile_cached(PIPE, backend="source") is d_source

    def test_key_covers_discipline_ambient_fastpath(self):
        base = description_cache_key(PIPE)
        assert description_cache_key(PIPE) == base
        assert description_cache_key(
            PIPE, discipline=FixedWidthRecords(8)) != base
        assert description_cache_key(PIPE, ambient="binary") != base
        assert description_cache_key(PIPE, fastpath=False) != base
        assert description_cache_key(PIPE, backend="source") != base
        assert description_cache_key(PIPE + " ") != base

    def test_cache_stats_and_eviction(self):
        cache = DescriptionCache(maxsize=2)
        _, k1, hit1 = cache.get_or_compile(PIPE)
        _, _, hit2 = cache.get_or_compile(PIPE)
        assert not hit1 and hit2
        cache.get_or_compile(CLF)
        cache.get_or_compile(SIRIUS)  # evicts PIPE (LRU)
        assert len(cache) == 2
        _, _, hit3 = cache.get_or_compile(PIPE)
        assert not hit3
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 4

    def test_concurrent_first_requests_compile_once(self):
        """Cold-cache stampede: N threads asking for the same key must
        produce exactly one compile (single-flight), not N."""
        cache = DescriptionCache()
        results = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            desc, _key, hit = cache.get_or_compile(SIRIUS)
            results.append((id(desc), hit))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats()["misses"] == 1
        assert len({ident for ident, _hit in results}) == 1
        assert sum(1 for _i, hit in results if not hit) == 1

    def test_serve_registers_distinct_backends(self):
        with ServerThread() as st:
            _, a = post(st.port, "/v1/descriptions", {"source": PIPE})
            _, b = post(st.port, "/v1/descriptions",
                        {"source": PIPE, "backend": "source"})
            assert a["id"] != b["id"]
            assert a["backend"] == "interp" and b["backend"] == "source"
            for reg in (a, b):
                status, doc = post(st.port, "/v1/parse",
                                   {"id": reg["id"], "data": PIPE_DATA,
                                    "mode": "count"})
                assert status == 200 and doc["count"] == 3

    def test_compile_once_across_requests(self):
        """Acceptance: N requests with the same inline source compile
        exactly once, visible in the scrape-able cache metrics."""
        with ServerThread() as st:
            for _ in range(5):
                status, doc = post(st.port, "/v1/parse",
                                   {"source": PIPE, "data": PIPE_DATA,
                                    "mode": "count"})
                assert status == 200 and doc["count"] == 3
            assert st.metrics.value("serve.compile") == 1
            assert st.metrics.value("serve.cache.misses") == 1
            assert st.metrics.value("serve.cache.hits") == 4
            _, text = get(st.port, "/metrics")
            lines = text.decode().splitlines()
            assert "pads_serve_compile_total 1" in lines
            assert "pads_serve_cache_hits_total 4" in lines


# -- bugfix 2: registry merge-after-request ---------------------------------------


class TestRegistryMerge:
    THREADS = 4
    PER_THREAD = 25_000

    def _hammer(self, fn):
        threads = [threading.Thread(target=fn) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_shared_registry_loses_counts(self):
        """The bug this PR's serving path avoids by construction: handler
        threads folding totals into a shared registry in place.  Any
        update of the form ``metric.set(metric.value + n)`` — read, then
        store through a method call — has a preemption point between the
        read and the write, so concurrent handlers overwrite each other
        and updates vanish.  (This is exactly the shape of serve's
        high-water gauge; the fix routes all server-registry mutation
        through the event loop and gives each request its own registry.)
        """
        lost = 0
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent preemption
        try:
            for _attempt in range(3):
                shared = MetricsRegistry()
                gauge = shared.gauge("records.seen")

                def hammer():
                    for _ in range(self.PER_THREAD):
                        gauge.set(gauge.value + 1)

                self._hammer(hammer)
                lost = (self.THREADS * self.PER_THREAD
                        - shared.value("records.seen"))
                if lost:
                    break
        finally:
            sys.setswitchinterval(switch)
        if not lost:
            pytest.skip("interpreter never preempted inside the "
                        "read-modify-write; the race did not fire this run")
        assert lost > 0

    def test_merged_registries_are_exact(self):
        """The fix: per-request registries, merged at completion."""
        server_lifetime = MetricsRegistry()
        merge_lock = threading.Lock()

        def handle_requests():
            request = MetricsRegistry()  # private to this "request"
            for _ in range(self.PER_THREAD):
                request.counter("hits").inc()
            with merge_lock:  # in serve, the event loop serializes this
                server_lifetime.merge(request)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._hammer(handle_requests)
        finally:
            sys.setswitchinterval(switch)
        assert server_lifetime.value("hits") == \
            self.THREADS * self.PER_THREAD

    def test_serve_metric_totals_exact_under_concurrency(self):
        """End to end: concurrent clients' record counts land in the
        server registry without a single lost increment."""
        clients, repeats = 8, 5
        with ServerThread() as st:
            errors = []

            def client():
                try:
                    for _ in range(repeats):
                        status, doc = post(st.port, "/v1/parse",
                                           {"source": CLF,
                                            "data": CLF_SAMPLE,
                                            "mode": "records",
                                            "type": "entry_t"})
                        assert status == 200 and doc["count"] == 2
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=client)
                       for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert st.metrics.value("records.total") == \
                clients * repeats * 2
            total = sum(
                st.metrics.value("serve.requests", "/v1/parse", code)
                for code in ("200", "400", "500"))
            assert total == clients * repeats


# -- bugfix 3: byte transparency --------------------------------------------------


class TestByteTransparency:
    def test_raw_body_round_trips_latin1_bytes(self):
        """A text-format response must carry the parsed bytes verbatim.
        The broken path (``body.encode("utf-8")``) turns byte 0xE9 into
        0xC3 0xA9 — this test fails against it."""
        with ServerThread() as st:
            status, body = post(st.port, "/v1/parse",
                                {"source": PIPE, "data": PIPE_DATA,
                                 "mode": "records", "type": "row_t",
                                 "format": "text"}, raw=True)
            assert status == 200
            assert body == b"caf\xe9|1\nna\xefve|2\nplain|3\n"
            assert b"\xc3\xa9" not in body  # the utf-8 mojibake signature

    def test_json_body_round_trips_via_escapes(self):
        """JSON responses stay pure ASCII on the wire; latin-1 convention
        strings come back code-point-exact."""
        with ServerThread() as st:
            status, raw = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": PIPE_DATA,
                                "mode": "records", "type": "row_t"},
                               raw=True)
            assert status == 200
            assert max(raw) < 0x80  # ASCII-only wire format
            doc = json.loads(raw)
            assert doc["records"][0] == "caf\xe9|1"
            assert transparent_encode(doc["records"][0]) == b"caf\xe9|1"

    def test_accum_report_preserves_bytes(self):
        with ServerThread() as st:
            status, body = post(st.port, "/v1/parse",
                                {"source": PIPE, "data": PIPE_DATA,
                                 "mode": "accum", "type": "row_t",
                                 "format": "text"}, raw=True)
            assert status == 200
            assert b"caf\xe9" in body
            assert b"caf\xc3\xa9" not in body


# -- bugfix 4 (serving side): tenant budgets map to structured responses ----------


class TestLimits:
    def test_record_limit_maps_to_413(self):
        config = ServeConfig(
            tenant_limits={"free": ParseLimits(max_record_bytes=8)})
        data = "a|1\n" + "x" * 64 + "|2\n"
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": data,
                                "mode": "records", "type": "row_t"},
                               tenant="free")
            assert status == 413
            assert doc["error"] == "LIMIT_EXCEEDED"
            assert doc["code"] == "RECORD_LIMIT"
            assert doc["tenant"] == "free"
            assert st.metrics.value("serve.limited", "free",
                                    "RECORD_LIMIT") == 1

    def test_error_budget_maps_to_422(self):
        config = ServeConfig(
            tenant_limits={"strict": ParseLimits(max_errors=1)})
        bad = "no-pipe-here\nok|1\nok|2\n"
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": bad,
                                "mode": "accum", "type": "row_t"},
                               tenant="strict")
            assert status == 422
            assert doc["code"] == "ERROR_BUDGET_EXCEEDED"

    def test_deadline_maps_to_503(self):
        config = ServeConfig(default_limits=ParseLimits(deadline=1e-9))
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": PIPE_DATA,
                                "mode": "records", "type": "row_t"})
            assert status == 503
            assert doc["code"] == "DEADLINE_EXCEEDED"

    def test_tenant_isolation_shares_the_cached_description(self):
        """One tenant's budget failing a request must not evict or taint
        the description other tenants keep using."""
        config = ServeConfig(
            tenant_limits={"free": ParseLimits(max_record_bytes=8)})
        data = "a|1\n" + "x" * 64 + "|2\n"
        with ServerThread(config) as st:
            status, _ = post(st.port, "/v1/parse",
                             {"source": PIPE, "data": data,
                              "mode": "records", "type": "row_t"},
                             tenant="free")
            assert status == 413
            status, doc = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": data,
                                "mode": "records", "type": "row_t"},
                               tenant="gold")
            assert status == 200 and doc["count"] == 2
            # one compile served both tenants
            assert st.metrics.value("serve.compile") == 1

    @pytest.mark.parametrize("mode", ["records", "accum"])
    def test_in_process_request_stops_at_first_limit_hit(self, mode):
        """A limited in-process request aborts at the first limit-hit
        record: the two records after it are never parsed."""
        config = ServeConfig(
            tenant_limits={"free": ParseLimits(max_record_bytes=8)})
        data = "a|1\n" + "x" * 64 + "|2\nb|3\nc|4\n"
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": data,
                                "mode": mode, "type": "row_t"},
                               tenant="free")
            assert status == 413
            assert doc["code"] == "RECORD_LIMIT"
            assert doc["records_parsed"] == 2

    def test_limit_status_map_is_total(self):
        from repro.core.errors import ErrCode
        limit_codes = [c.name for c in ErrCode if 500 <= c.value < 510]
        assert set(limit_codes) == set(LIMIT_STATUS)

    def test_count_mode_applies_limits(self):
        config = ServeConfig(default_limits=ParseLimits(deadline=1e-9))
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": PIPE, "data": PIPE_DATA,
                                "mode": "count"})
            # record counting never opens fields, but the deadline budget
            # still applies at record boundaries
            assert status in (200, 503)


# -- the concurrent-client differential -------------------------------------------


def _serial_reference(source, data, type_name, **compile_kw):
    d = compile_description(source, **compile_kw)
    acc = Accumulator(d.node(type_name), "<top>", 1000)
    tally = ErrorTally()
    for rep, pd in d.records(data, type_name):
        acc.add(rep, pd)
        tally.add(pd)
    return acc.full_report(10), tally


def _call_detail_payload(n=60):
    """Fixed-width call records, every 7th with call_type over its
    ``t <= 4`` constraint so the batch grid hands those to the cursor."""
    import random
    from repro.tools.datagen import call_detail_workload
    raw = bytearray(call_detail_workload(n, random.Random(11)))
    for i in range(0, n, 7):
        raw[i * CALL_DETAIL_WIDTH + 22] = 99
    return bytes(raw)


class TestConcurrentDifferential:
    def test_n_clients_match_n_serial_runs(self):
        calls = _call_detail_payload()
        calls_fields = {"source": CALL_DETAIL, "ambient": "binary",
                        "records": f"fixed:{CALL_DETAIL_WIDTH}"}
        # name -> (compile fields, data, record type, modes, engine mode)
        jobs = {
            "clf": ({"source": CLF}, CLF_SAMPLE.encode("latin-1"),
                    "entry_t", ("accum",), "serial"),
            "sirius": ({"source": SIRIUS}, SIRIUS_SAMPLE.encode("latin-1"),
                       "entry_t", ("accum",), "serial"),
            "calls": (calls_fields, calls, "call_t",
                      ("records", "accum", "count"), "batch"),
        }
        clients_per_job = 4
        references = {}
        for name, (fields, data, rtype, _modes, _mode) in jobs.items():
            compile_kw = {"ambient": fields.get("ambient", "ascii"),
                          "discipline": discipline_from_spec(
                              fields.get("records", "newline"))}
            report, tally = _serial_reference(fields["source"], data, rtype,
                                              **compile_kw)
            desc = compile_description(fields["source"], **compile_kw)
            node = desc.node(rtype)
            references[name] = {
                "report": report, "tally": tally,
                "count": desc.count_records(data),
                "records": [format_value(node, rep)
                            for rep, _pd in desc.records(data, rtype)]}
        results = {}
        errors = []
        with ServerThread() as st:
            def client(name, mode, idx):
                fields, data, rtype, _modes, _mode = jobs[name]
                try:
                    status, doc = post(st.port, "/v1/parse", dict(
                        fields, mode=mode, type=rtype,
                        data_b64=base64.b64encode(data).decode("ascii")))
                    assert status == 200, doc
                    results[(name, mode, idx)] = doc
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(name, mode, i))
                for name, job in jobs.items() for mode in job[3]
                for i in range(clients_per_job)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors

            # byte-identical replies, every client, every description
            want_records = want_errors = 0
            for (name, mode, _idx), doc in results.items():
                ref = references[name]
                assert doc["engine"]["mode"] == jobs[name][4], doc["engine"]
                assert doc["engine"]["reason"]
                assert doc["count"] == ref["count"] == ref["tally"].records
                want_records += ref["count"]
                if mode == "count":
                    continue
                assert doc["stats"]["errors"] == ref["tally"].total_errors
                want_errors += ref["tally"].total_errors
                if mode == "accum":
                    assert doc["report"] == ref["report"]
                else:
                    assert doc["records"] == ref["records"]
            assert references["calls"]["tally"].total_errors > 0

            # and the server's metric totals are the exact serial sums
            assert st.metrics.value("records.total") == want_records
            assert st.metrics.value("errors.total") == want_errors
            # three distinct descriptions -> exactly three compiles
            assert st.metrics.value("serve.compile") == 3


# -- parallel delegation ----------------------------------------------------------


class TestParallelDelegation:
    def test_large_payload_routes_through_the_pool(self):
        data = CLF_SAMPLE * 200
        config = ServeConfig(jobs=2, parallel_threshold=1)
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": CLF, "data": data,
                                "mode": "count"})
            assert status == 200 and doc["count"] == 400
            status, doc = post(st.port, "/v1/parse",
                               {"source": CLF, "data": data,
                                "mode": "accum", "type": "entry_t"})
            assert status == 200 and doc["count"] == 400
            assert st.metrics.value("serve.parallel_runs") >= 1

    def test_parallel_and_serial_accum_agree(self):
        data = CLF_SAMPLE * 50
        serial_report, serial_tally = _serial_reference(CLF, data, "entry_t")
        config = ServeConfig(jobs=2, parallel_threshold=1)
        with ServerThread(config) as st:
            status, doc = post(st.port, "/v1/parse",
                               {"source": CLF, "data": data,
                                "mode": "accum", "type": "entry_t"})
            assert status == 200
            assert doc["report"] == serial_report
            assert doc["count"] == serial_tally.records


# -- /metrics exposition ----------------------------------------------------------


class TestMetricsEndpoint:
    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("records.total").inc(3)
        reg.counter("errors.by_code", "MISSING_LITERAL").inc(2)
        reg.gauge("serve.descriptions").set(1)
        h = reg.histogram("latency", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = to_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE pads_records_total counter" in lines
        assert "pads_records_total 3" in lines
        assert ('pads_errors_by_code_total{l1="MISSING_LITERAL"} 2'
                in lines)
        assert "pads_serve_descriptions 1" in lines
        # cumulative buckets: 1, 2, then +Inf == count
        assert 'pads_latency_bucket{le="0.1"} 1' in lines
        assert 'pads_latency_bucket{le="1.0"} 2' in lines
        assert 'pads_latency_bucket{le="+Inf"} 3' in lines
        assert "pads_latency_count 3" in lines

    def test_scrape_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", "x").inc()
        assert to_prometheus(reg) == to_prometheus(reg)

    def test_queue_and_compile_timers(self):
        """One queue-wait observation per parse request, one compile
        timing per cache miss (registration included), on ``/metrics``."""
        with ServerThread() as st:
            _, reg = post(st.port, "/v1/descriptions", {"source": CLF})
            for doc in ({"id": reg["id"]}, {"source": PIPE},
                        {"source": PIPE}, {"source": CLF}):
                status, _ = post(st.port, "/v1/parse", dict(
                    doc, data=CLF_SAMPLE, mode="count"))
                assert status == 200
            queue = st.metrics.value("serve.queue_seconds")
            compile_ = st.metrics.value("serve.compile_seconds")
            assert queue["count"] == 4
            assert compile_["count"] == st.metrics.value(
                "serve.cache.misses") == 2
            _, text = get(st.port, "/metrics")
            lines = text.decode().splitlines()
            assert "pads_serve_queue_seconds_count 4" in lines
            assert "pads_serve_compile_seconds_count 2" in lines

    def test_live_scrape_has_serve_families(self):
        with ServerThread() as st:
            post(st.port, "/v1/parse", {"source": PIPE, "data": PIPE_DATA,
                                        "mode": "count"})
            _, text = get(st.port, "/metrics")
            text = text.decode()
            for family in ("pads_serve_requests_total",
                           "pads_serve_cache_misses_total",
                           "pads_serve_latency_bucket",
                           "pads_records_total"):
                assert family in text
