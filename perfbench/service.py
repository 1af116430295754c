"""The ``service-mixed`` workload: one server process, one open-loop client.

The server is ``python -m repro serve`` on a fresh cache directory (or, for
the traced run, the same CLI entry point started by ``traced_serve.py``
with spans installed).  The client is a single asyncio process that sends
on a fixed schedule at each offered rate and never has more requests in
flight than the host has cores.  Every request is timed from when it was
due, so a stalled server also delays the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))

#: Offered rates (requests per second), lowest first; each gets an equal
#: share of the run.  No observed traffic backs them: they were picked to
#: sit below saturation on a one-core host, so that no request is refused.
RATES = (5, 10, 20)
#: Request mix: the share of settled reads and duplicate submissions; the
#: rest are fresh submissions.  No observed traffic backs these shares
#: either: duplicates are the largest class so that the median over all
#: requests (``op_p50_ms``) falls inside one class instead of on the
#: boundary between two.  So ``op_p50_ms`` measures the duplicate path;
#: reads and fresh submissions are reported per class, unbounded.
MIX = (("read", 0.25), ("dup", 0.6))
#: p99 latency limit over all classes for ``max_rate_rps``.
LIMIT_MS = 250.0
#: Trace length of every service job.
SERVICE_INSTRUCTIONS = 5000
PRIMED_JOBS = 8
REQUEST_TIMEOUT_S = 60.0


def job_payload(application, trace_seed, core):
    """A dynamic-resizing job of a 2-way selective-sets d-cache.

    The short sense interval and generous miss bound make the controller
    decide a few times, and resize, within a 5k-instruction trace.
    """
    return {
        "trace": {
            "application": application,
            "n_instructions": SERVICE_INSTRUCTIONS,
            "seed": trace_seed,
        },
        "core": core,
        "associativity": 2,
        "d_setup": {
            "organization": "selective-sets",
            "strategy": {"kind": "dynamic", "miss_bound": 128, "sense_interval_accesses": 256},
        },
    }


def payloads(seed, applications, count, offset):
    """``count`` seeded job payloads; the seed travels in ``trace.seed``."""
    rng = random.Random(seed * 7919 + offset)
    cores = ("in-order-blocking", "out-of-order-nonblocking")
    return [
        job_payload(rng.choice(applications), seed * 1_000_003 + offset + index, cores[index % 2])
        for index in range(count)
    ]


class Server:
    """One server process on a fresh cache directory."""

    def __init__(self, root, workdir, spans_path=None):
        """Start the server; with ``spans_path``, the traced server."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        serve_args = [
            "serve", "--port", "0", "--cache-dir", os.path.join(workdir, "cache"),
            "--instructions", str(SERVICE_INSTRUCTIONS),
        ]
        if spans_path is not None:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       root, spans_path] + serve_args
        else:
            command = [sys.executable, "-m", "repro"] + serve_args
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.port = self._banner_port(started)
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _banner_port(self, started):
        while time.perf_counter() - started < 60:
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        return int(line.split()[2].split(":")[1])
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log()}")
            time.sleep(0.002)
        raise RuntimeError("server printed no banner within 60 s")

    def _wait_ready(self):
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            status, _ = self.get("/readyz")
            if status == 200:
                return
            time.sleep(0.002)
        raise RuntimeError("server not ready within 60 s")

    def log(self):
        with open(self.log_path, encoding="utf-8") as handle:
            return handle.read()[-2000:]

    # ------------------------------------------------------------- blocking
    def request(self, method, path, body=None, timeout=REQUEST_TIMEOUT_S):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()
        except OSError:
            return 0, b""

    def get(self, path):
        return self.request("GET", path)

    def metrics(self):
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#"):
                values[parts[0]] = float(parts[1])
        return values

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM, wait for the drain; returns the exit code."""
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._log.close()


def settle(server, body):
    """POST one job and long-poll it to settlement; (handle, status payload)."""
    status, raw = server.request("POST", "/jobs", body)
    if status != 202:
        raise RuntimeError(f"priming POST answered {status}: {raw[:200]!r}")
    handle = json.loads(raw)["handle"]
    while True:
        status, raw = server.get(f"/jobs/{handle}?wait=30")
        state = json.loads(raw)["state"] if status == 200 else "error"
        if state == "done":
            return handle, json.loads(raw)
        if state not in ("queued", "running"):
            raise RuntimeError(f"priming job {handle} settled {state}: {raw[:200]!r}")


# ----------------------------------------------------------------- client
async def _http(port, method, path, body):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = b"" if body is None else body
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode() + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def schedule(seed, seconds, primed, fresh_payloads):
    """The fixed send plan: (due offset s, rate, class, method, path, body)."""
    rng = random.Random(seed)
    plan = []
    phase = seconds / len(RATES)
    fresh = iter(fresh_payloads)
    for index, rate in enumerate(RATES):
        for k in range(int(phase * rate)):
            due = index * phase + k / rate
            draw = rng.random()
            handle, body, _ = primed[rng.randrange(len(primed))]
            if draw < MIX[0][1]:
                plan.append((due, rate, "read", "GET", f"/jobs/{handle}", None))
            elif draw < MIX[0][1] + MIX[1][1]:
                plan.append((due, rate, "dup", "POST", "/jobs", body))
            else:
                plan.append((due, rate, "fresh", "POST", "/jobs", next(fresh)))
    return plan


def fresh_needed(seconds):
    return sum(int(seconds / len(RATES) * rate) for rate in RATES)


async def _drive(port, plan, connections, primed_by_handle, scrape_every):
    """Send every planned request on time; one record per request."""
    slots = asyncio.Semaphore(connections)
    records = []
    depth_max = 0
    start = time.perf_counter() + 0.05

    async def one(index, due, rate, kind, method, path, body):
        async with slots:
            sent = time.perf_counter()
            ok = False
            handle = None
            try:
                status, raw = await asyncio.wait_for(
                    _http(port, method, path, body and json.dumps(body).encode()),
                    REQUEST_TIMEOUT_S,
                )
                if kind == "read":
                    ok = status == 200 and primed_by_handle[path[6:]] == json.loads(raw)
                else:
                    handle = json.loads(raw)["handle"] if status == 202 else None
                    ok = handle is not None
                    if kind == "dup":
                        ok = ok and handle in primed_by_handle
                    while ok and kind == "fresh":
                        status, raw = await asyncio.wait_for(
                            _http(port, "GET", f"/jobs/{handle}?wait=30", None),
                            REQUEST_TIMEOUT_S,
                        )
                        state = json.loads(raw)["state"] if status == 200 else "error"
                        if state == "done":
                            break
                        ok = state in ("queued", "running")
            except (OSError, ValueError, KeyError, asyncio.TimeoutError):
                ok = False
            done = time.perf_counter()
            records.append({
                "index": index, "kind": kind, "rate": rate, "ok": ok, "handle": handle,
                "latency_ms": (done - (start + due)) * 1e3,
                "lag_ms": (sent - (start + due)) * 1e3,
            })

    async def scrape():
        nonlocal depth_max
        while True:
            await asyncio.sleep(scrape_every)
            try:
                status, raw = await _http(port, "GET", "/metrics", None)
            except OSError:
                continue
            for line in raw.decode().splitlines():
                if line.startswith("queue_depth "):
                    depth_max = max(depth_max, int(float(line.split()[1])))

    scraper = asyncio.ensure_future(scrape()) if scrape_every else None
    tasks = []
    for index, entry in enumerate(plan):
        delay = start + entry[0] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, *entry)))
    await asyncio.gather(*tasks)
    if scraper is not None:
        scraper.cancel()
        try:
            await scraper
        except asyncio.CancelledError:
            pass
    return records, depth_max


def drive(port, plan, connections, primed_by_handle, scrape_every=0.0):
    """Send the whole plan; (request records, largest queue depth seen)."""
    return asyncio.run(_drive(port, plan, connections, primed_by_handle, scrape_every))


def percentile(values, share):
    """Nearest-rank percentile of ``values``; ``share`` is in 0..1."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(share * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def summarize(records):
    """Per-class latency quantiles, loadgen lag and ``max_rate_rps``.

    A failed or refused request counts as missing every limit: its latency
    enters the quantiles as infinity.
    """
    def latencies(selected):
        return [r["latency_ms"] if r["ok"] else float("inf") for r in selected]

    out = {}
    for kind, high in (("read", 0.99), ("dup", 0.99), ("fresh", 0.90)):
        values = latencies([r for r in records if r["kind"] == kind])
        out[f"{kind}_p50_ms"] = percentile(values, 0.5)
        out[f"{kind}_p{int(high * 100)}_ms"] = percentile(values, high)
        out[f"{kind}_count"] = len(values)
    out["op_p50_ms"] = percentile(latencies(records), 0.5)
    out["loadgen.lag_p99_ms"] = percentile([r["lag_ms"] for r in records], 0.99)
    out["loadgen.sent"] = len(records)
    max_rate = 0
    per_rate = {}
    for rate in RATES:
        phase = sorted((r for r in records if r["rate"] == rate), key=lambda r: r["index"])
        p99 = percentile(latencies(phase), 0.99)
        tail = phase[len(phase) * 3 // 4:]
        backlog_ms = percentile([r["lag_ms"] for r in tail], 0.5)
        per_rate[str(rate)] = {"p99_ms": p99, "tail_lag_p50_ms": backlog_ms}
        if p99 <= LIMIT_MS and backlog_ms <= LIMIT_MS / 10:
            max_rate = rate
    out["max_rate_rps"] = max_rate
    out["per_rate"] = per_rate
    return out
