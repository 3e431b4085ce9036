"""The serve-mix workload: ``padsc serve`` in a process of its own,
driven from this (client) process over keep-alive HTTP in a closed loop.

Load: ``CONNECTIONS`` client threads, each sending its next request only
after the previous reply arrived (parse-service callers wait for each
reply).  Requests rotate over ``TENANTS``, go by registered id except an
``INLINE_SHARE`` that sends the description source inline (a compile-
cache hit), and carry 16-record CLF text or fixed-width call-detail
binary (as ``data_b64``) in ``count``/``records``/``accum`` mode.  Every
reply is checked against the library's result for the same payload,
computed in this process before any timing starts.
"""

from __future__ import annotations

import base64
import http.client
import json
import random
import re
import select
import signal
import subprocess
import sys
import threading
from time import perf_counter

from common import (CALIBRATION_S, MB, ROOT, NullSpans, Spans, calibrate,
                    child_env, median, p90)

TENANTS = ("alpha", "beta", "gamma")
MODES = ("count", "records", "accum")
CONNECTIONS = 2
RECORDS_PER_PAYLOAD = 16
PAYLOADS = 32            # distinct payloads per description
REQUESTS = 1024          # distinct prebuilt requests, cycled
INLINE_SHARE = 0.1
#: Requests per connection between two ``calibrate()`` samples.
CAL_EVERY = 8
#: The server's defaults for ``records``/``accum`` replies.
DELIMS = ("|",)
TRACKED, TOP = 1000, 10
START_TIMEOUT = 60.0


class ServeError(Exception):
    pass


def descriptions() -> dict:
    """name -> (registration fields, record type)."""
    from repro import gallery
    return {
        "clf": ({"source": gallery.CLF}, "entry_t"),
        "calls": ({"source": gallery.CALL_DETAIL, "ambient": "binary",
                   "records": f"fixed:{gallery.CALL_DETAIL_WIDTH}"},
                  "call_t"),
    }


def make_payloads(seed: int) -> dict:
    from repro import gallery
    from repro.tools.datagen import call_detail_workload, clf_workload
    n = RECORDS_PER_PAYLOAD * PAYLOADS
    lines = clf_workload(n, random.Random(seed)).split(b"\n")[:-1]
    blob = call_detail_workload(n, random.Random(seed))
    width = RECORDS_PER_PAYLOAD * gallery.CALL_DETAIL_WIDTH
    return {
        "clf": [b"".join(line + b"\n" for line in lines[i:i + RECORDS_PER_PAYLOAD])
                for i in range(0, n, RECORDS_PER_PAYLOAD)],
        "calls": [blob[i:i + width] for i in range(0, len(blob), width)],
    }


def library_results(payloads: dict) -> dict:
    """``(description, payload index) -> expected reply fields``, from
    the library on the engine the server uses by default (the
    interpreter).  Record counts are also checked against a count that
    needs no parser: lines for CLF, bytes / record width for call detail."""
    import repro
    from repro import gallery
    from repro.core.io import discipline_from_spec
    from repro.tools.accum import Accumulator
    from repro.tools.fmt import format_value
    expected = {}
    for name, (fields, record_type) in descriptions().items():
        desc = repro.compile_description(
            fields["source"], ambient=fields.get("ambient", "ascii"),
            discipline=discipline_from_spec(fields.get("records", "newline")))
        node = desc.node(record_type)
        for i, data in enumerate(payloads[name]):
            pairs = list(desc.records(data, record_type))
            plain = (data.count(b"\n") if name == "clf"
                     else len(data) // gallery.CALL_DETAIL_WIDTH)
            count = desc.count_records(data)
            if not count == len(pairs) == plain:
                raise ServeError(f"{name} payload {i}: library counts "
                                 f"{count}/{len(pairs)} records, plain "
                                 f"count {plain}")
            acc = Accumulator(node, "<top>", TRACKED)
            for rep, pd in pairs:
                acc.add(rep, pd)
            expected[(name, i)] = {
                "count": count,
                "records": [format_value(node, rep, delims=DELIMS)
                            for rep, _pd in pairs],
                "report": acc.full_report(TOP),
            }
    return expected


def build_requests(seed: int, ids: dict, payloads: dict) -> list:
    """``REQUESTS`` prebuilt ``(kind, key, mode, body, headers, bytes)``."""
    rng = random.Random(seed)
    specs = descriptions()
    requests = []
    for _ in range(REQUESTS):
        name = rng.choice(sorted(specs))
        mode = rng.choice(MODES)
        tenant = rng.choice(TENANTS)
        index = rng.randrange(PAYLOADS)
        fields, record_type = specs[name]
        doc = {"mode": mode, "type": record_type}
        if rng.random() < INLINE_SHARE:
            doc.update(fields)
        else:
            doc["id"] = ids[name]
        data = payloads[name][index]
        if name == "calls":
            doc["data_b64"] = base64.b64encode(data).decode("ascii")
        else:
            doc["data"] = data.decode("latin-1")
        requests.append((f"{name}-{mode}", (name, index), mode,
                         json.dumps(doc).encode(),
                         {"Content-Type": "application/json",
                          "X-Tenant": tenant},
                         len(data)))
    return requests


def reply_ok(body: bytes, expected: dict, mode: str) -> bool:
    try:
        doc = json.loads(body)
    except ValueError:
        return False
    if doc.get("count") != expected["count"]:
        return False
    if mode == "records":
        return doc.get("records") == expected["records"]
    if mode == "accum":
        return doc.get("report") == expected["report"]
    return True


class Server:
    """``padsc serve`` with its default configuration (interpreted
    engine, ``jobs`` 1) on an ephemeral port.  ``setup_s`` runs from
    spawning the process until every description is registered."""

    def __init__(self):
        self._t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.padsc", "serve", "--port",
             "0"], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT)
            line = self.proc.stdout.readline().decode() if ready else ""
            found = re.search(r"http://[^:/]+:(\d+)", line)
            if not found:
                raise ServeError(f"padsc serve did not start: {line!r}")
            self.port = int(found.group(1))
            self.ids = {}
            self.register_s = 0.0
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=START_TIMEOUT)
            try:
                for name, (fields, _type) in descriptions().items():
                    t = perf_counter()
                    conn.request("POST", "/v1/descriptions",
                                 body=json.dumps(fields).encode(),
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    body = resp.read()
                    self.register_s += perf_counter() - t
                    if resp.status != 200:
                        raise ServeError(f"register {name}: {resp.status} "
                                         f"{body[:200]!r}")
                    self.ids[name] = json.loads(body)["id"]
            finally:
                conn.close()
            self.setup_s = perf_counter() - self._t0
        except BaseException:
            self.stop()
            raise

    def scrape(self) -> dict:
        """``GET /metrics`` as ``{"name{labels}": value}``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=START_TIMEOUT)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                values[key] = float(value)
        return values

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM line for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def drive(port: int, requests: list, expected: dict, seconds: float,
          traced: bool = False) -> dict:
    """Closed loop on ``CONNECTIONS`` keep-alive connections for
    ``seconds``; every reply is checked."""
    stop_at = perf_counter() + seconds
    results = [None] * CONNECTIONS

    def client(k: int) -> None:
        tr = Spans() if traced else NullSpans()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        samples, failed, nbytes = [], 0, 0
        cal, paused, sent = [], 0.0, 0
        i = k * len(requests) // CONNECTIONS
        try:
            while perf_counter() < stop_at:
                if sent and sent % CAL_EVERY == 0:
                    t = perf_counter()
                    cal.append(calibrate())
                    paused += perf_counter() - t
                sent += 1
                kind, key, mode, body, headers, size = \
                    requests[i % len(requests)]
                tr.begin("client.request", i)
                i += 1
                tr.begin("serve.rtt")
                t0 = perf_counter()
                try:
                    conn.request("POST", "/v1/parse", body=body,
                                 headers=headers)
                    resp = conn.getresponse()
                    reply, status = resp.read(), resp.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                    reply, status = b"", 0
                rtt = perf_counter() - t0
                tr.end()
                tr.begin("client.check")
                ok = status == 200 and reply_ok(reply, expected[key], mode)
                tr.end()
                tr.end()
                if ok:
                    samples.append((kind, rtt, (sent - 1) // CAL_EVERY))
                    nbytes += size
                else:
                    failed += 1
        finally:
            conn.close()
            results[k] = (samples, failed, nbytes, cal, paused,
                          tr.to_json() if traced else None)

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(CONNECTIONS)]
    t0 = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - t0
    if any(r is None for r in results):
        raise ServeError("a client thread died")
    out = {"samples": [], "failed": 0, "req_s": 0.0, "bytes_s": 0.0,
           "spans": [], "scale": CALIBRATION_S / median(
               [c for r in results for c in r[3]] or [calibrate()])}
    for samples, failed, nbytes, cal, paused, spans in results:
        # Each round trip is scaled to the reference core by the
        # calibration samples taken just before and after its group.
        cal = cal or [calibrate()]
        for kind, rtt, group in samples:
            near = cal[max(group - 1, 0):group + 1] or cal[-1:]
            out["samples"].append(
                (kind, rtt * CALIBRATION_S * len(near) / sum(near)))
        scale = CALIBRATION_S / median(cal)
        busy = elapsed - paused
        out["req_s"] += len(samples) / busy / scale
        out["bytes_s"] += nbytes / busy / scale
        out["failed"] += failed
        if spans is not None:
            out["spans"].append(spans)
    return out


def summary(run: dict) -> dict:
    rtts = [rtt for _kind, rtt in run["samples"]] or [float("nan")]
    return {"req_s": run["req_s"], "mb_s": run["bytes_s"] / MB,
            "p50_ms": median(rtts) * 1e3, "p90_ms": p90(rtts) * 1e3,
            "mean_ms": sum(rtts) / len(rtts) * 1e3,
            "samples": len(run["samples"]),
            "attempted": len(run["samples"]) + run["failed"],
            "failed": run["failed"]}


def compiles_ok(scrape: dict) -> bool:
    """Compile-once: one compile per distinct description, however many
    registrations and inline-source requests arrived."""
    return scrape.get("pads_serve_compile_total") == len(descriptions())


def end_to_end(seed: int, seconds: float, setups: int,
               warmup: float) -> dict:
    """The ``--trace 0`` serve-mix run."""
    payloads = make_payloads(seed)
    expected = library_results(payloads)
    setup_times = []
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            cal = [calibrate() for _ in range(3)]
            server = Server()
            cal += [calibrate() for _ in range(3)]
            setup_times.append(server.setup_s * CALIBRATION_S / median(cal))
        requests = build_requests(seed, server.ids, payloads)
        warm = summary(drive(server.port, requests, expected, warmup))
        s = summary(drive(server.port, requests, expected, seconds))
        compiled_once = compiles_ok(server.scrape())
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    return {"setup_s": median(setup_times), "summary": s, "peak_rss_mb": rss,
            "attempted": warm["attempted"] + s["attempted"] + 1,
            "failed": warm["failed"] + s["failed"] + (not compiled_once)}


def layer_run(seed: int, plain_s: float, traced_s: float,
              warmup: float) -> dict:
    """The serve layer's traced numbers: an untraced phase of ``plain_s``
    (skipped when 0), then a traced one of ``traced_s``, with a
    ``/metrics`` scrape around the traced phase."""
    payloads = make_payloads(seed)
    expected = library_results(payloads)
    server = Server()
    try:
        requests = build_requests(seed, server.ids, payloads)
        phases = [summary(drive(server.port, requests, expected, warmup))]
        plain = None
        if plain_s:
            plain = summary(drive(server.port, requests, expected, plain_s))
            phases.append(plain)
        before = server.scrape()
        run = drive(server.port, requests, expected, traced_s, traced=True)
        after = server.scrape()
    finally:
        server.stop()
    traced = summary(run)
    phases.append(traced)

    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    # Server-side timers, on the same reference-core scale as the RTTs.
    route = '{l1="/v1/parse"}'
    dispatch = (delta(f"pads_serve_latency_sum{route}")
                / delta(f"pads_serve_latency_count{route}") * 1e3
                * run["scale"])
    parse = (delta("pads_serve_parse_seconds_sum")
             / delta("pads_serve_parse_seconds_count") * 1e3 * run["scale"])
    hits = after.get("pads_serve_cache_hits_total", 0.0)
    misses = after.get("pads_serve_cache_misses_total", 0.0)
    m = {}
    for name in sorted(descriptions()):
        for mode in MODES:
            kind = f"{name}-{mode}"
            rtts = [rtt for k, rtt in run["samples"] if k == kind]
            # Every kind is drawn about 1/6 of the time, so a run has
            # hundreds of samples of each.
            m[f"serve.{kind}.rtt_p50_ms"] = (median(rtts) * 1e3 if rtts
                                             else float("nan"))
    m.update({
        "serve.register_ms": server.register_s * 1e3,
        "serve.dispatch_mean_ms": dispatch,
        "serve.parse_mean_ms": parse,
        "serve.wire_mean_ms": traced["mean_ms"] - dispatch,
        "serve.overhead_mean_ms": dispatch - parse,
        "serve.cache_hit_frac": hits / (hits + misses),
        "serve.compiles": after.get("pads_serve_compile_total", 0.0),
    })
    return {"metrics": m, "plain": plain, "traced": traced,
            "attempted": sum(p["attempted"] for p in phases) + 1,
            "failed": sum(p["failed"] for p in phases)
            + (not compiles_ok(after)),
            "spans": run["spans"]}
