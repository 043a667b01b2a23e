"""Serving layers: ``repro-serve serve`` over HTTP, behind spans.

The refresh workload's traced run serves the snapshot its last delta
published (``CURRENT``) with ``repro-serve serve --port 0`` at default
tier flags, run under ``serve_traced.py`` so the httpd, admission and
engine layers carry spans.  The client is one thread running asyncio
with at most two connections: a warm-up, open loops at three fixed
rates (each request timed from its due time), then a closed loop.
Baskets are Zipf-skewed over a pool 4x the engine's 1024-entry result
cache.  Every 200 body must be byte-equal to the in-process
``QueryEngine`` answer on the same snapshot file; anything else is a
failed op.

Serving is not a gated workload of its own: on a shared 2-CPU host its
latencies and throughput swing by more than any bound the benchmark may
set (see ``spec.json``), so its figures are per-layer metrics here.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import json
import random
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import common
import spans

POOL = 4096          # distinct baskets: 4x the engine's 1024-entry result cache
ZIPF_S = 1.0
RATES = (50, 100, 150)   # open-loop q/s
CONNECTIONS = 2
#: p99 limit (ms) a fixed rate must meet to count for ``loadgen.max_rate_qps``.
LATENCY_LIMIT_MS = 50.0
#: A phase whose generator lateness grows by more than this (ms) from its
#: first quarter to its last is a rate the client could not keep.
LATENESS_GROWTH_MS = 5.0
#: Seconds per phase: warm-up, the three rates, the closed loop.
PHASES = (("warm", 0.5), ("rate0", 2.0), ("rate1", 4.0), ("rate2", 2.0), ("closed", 2.0))
DELAY_MS = 6.0
DELAY_REQUESTS = 150


def _basket_pool(rows, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed * 7919 + 1)
    pool: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(pool) < POOL:
        row = rows[rng.randrange(len(rows))]
        size = min(len(row), rng.randint(1, 4))
        basket = tuple(sorted(rng.sample(row, size)))
        if basket not in seen:
            seen.add(basket)
            pool.append(basket)
    return pool


class Server:
    """Traced ``repro-serve serve`` child process; constructed once it listens."""

    def __init__(self, snapshot: Path, trace_dir: Path):
        self.trace_dir = trace_dir
        argv = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"),
                "--trace-dir", str(trace_dir), "--delay-ms", str(DELAY_MS),
                "serve", "--snapshot", str(snapshot), "--port", "0"]
        trace_dir.mkdir(parents=True, exist_ok=True)
        self.errors = trace_dir / "server.stderr"
        with open(self.errors, "w") as stderr:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                         text=True, env=common.child_env())
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} {self.errors.read_text()[-2000:]}")
        self.host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.port = int(port)

    def get(self, path: str) -> str:
        with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=10) as rsp:
            return rsp.read().decode()

    def mark(self, index: int) -> dict:
        """Snapshot the traced server's aggregates (SIGUSR1 + ack file)."""
        self.proc.send_signal(signal.SIGUSR1)
        path = self.trace_dir / f"mark-{index}.json"
        deadline = time.perf_counter() + 5.0
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError(f"traced server did not write {path.name}")
            time.sleep(0.02)
        return json.loads(path.read_text())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One HTTP connection, reopened whenever the server closes it."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None

    async def post(self, payload: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), 10)
        self.writer.write(
            b"POST /query HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload) + payload)
        status_line = await asyncio.wait_for(self.reader.readline(), 30)
        headers = {}
        while True:
            line = await asyncio.wait_for(self.reader.readline(), 30)
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip().lower()
        body = await asyncio.wait_for(
            self.reader.readexactly(int(headers.get("content-length", 0))), 30)
        version, status = status_line.split()[:2]
        connection = headers.get("connection", "")
        if connection == "close" or (version != b"HTTP/1.1" and connection != "keep-alive"):
            await self.close()
        return int(status), body


class LoadGen:
    """Single-threaded load generator over ``CONNECTIONS`` connections."""

    def __init__(self, host: str, port: int, pool, seed: int):
        self.pool = pool
        self.payloads = [json.dumps({"basket": list(b)}).encode() for b in pool]
        self.rng = random.Random(seed * 104729 + 3)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
        total, self.cumulative = 0.0, []
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        self.host, self.port = host, port
        #: (phase, basket index, due, sent, done, status, body sha256)
        self.records: list[tuple] = []

    def draw(self) -> int:
        return min(len(self.pool) - 1,
                   bisect.bisect_right(self.cumulative, self.rng.random() * self.cumulative[-1]))

    async def _one(self, idle: asyncio.Queue, phase: str, index: int, due: float) -> None:
        conn = await idle.get()
        sent = time.perf_counter()
        try:
            status, body = await conn.post(self.payloads[index])
            digest = hashlib.sha256(body).digest()
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            await conn.close()
            status, digest = 0, b""
        finally:
            idle.put_nowait(conn)
        self.records.append((phase, index, due, sent, time.perf_counter(), status, digest))

    async def _open(self, idle, phase: str, rate: float, seconds: float) -> None:
        count = max(1, int(rate * seconds))
        start = time.perf_counter() + 0.01
        tasks = []
        for i in range(count):
            due = start + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            tasks.append(asyncio.create_task(self._one(idle, phase, self.draw(), due)))
        for task in tasks:
            await task

    async def _closed(self, idle, phase: str, seconds: float, indices=None,
                      workers: int = CONNECTIONS) -> None:
        end = time.perf_counter() + seconds
        queue = list(indices) if indices is not None else None

        async def worker():
            while queue if queue is not None else time.perf_counter() < end:
                index = queue.pop(0) if queue is not None else self.draw()
                now = time.perf_counter()
                await self._one(idle, phase, index, now)

        await asyncio.gather(*(worker() for _ in range(workers)))

    async def _drive(self, plan) -> None:
        gc.collect()
        gc.disable()
        idle: asyncio.Queue = asyncio.Queue()
        conns = [Connection(self.host, self.port) for _ in range(CONNECTIONS)]
        for conn in conns:
            idle.put_nowait(conn)
        try:
            for kind, phase, *args in plan:
                if kind == "open":
                    await self._open(idle, phase, *args)
                else:
                    await self._closed(idle, phase, *args)
        finally:
            for conn in conns:
                await conn.close()
            gc.enable()

    def run(self, plan) -> None:
        asyncio.run(self._drive(plan))


def _plan() -> list[tuple]:
    plan = []
    for phase, seconds in PHASES:
        if phase.startswith("rate"):
            plan.append(("open", phase, float(RATES[int(phase[-1])]), seconds))
        else:
            plan.append(("closed", phase, seconds))
    return plan


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _phase_stats(records, phase: str) -> dict:
    rows = sorted((r for r in records if r[0] == phase), key=lambda r: r[2])
    latency = [(r[4] - r[2]) * 1e3 for r in rows]
    lateness = [(r[3] - r[2]) * 1e3 for r in rows]
    quarter = max(1, len(rows) // 4)
    tail, pct = common.tail(latency)
    ok = sum(1 for r in rows if r[5] == 200)
    return {
        "n": len(rows),
        "ok": ok,
        "p50_ms": statistics.median(latency),
        "tail_ms": tail,
        "tail_pct": pct,
        "lateness_p99_ms": common.percentile(lateness, 99),
        "lateness_growth_ms": (statistics.median(lateness[-quarter:])
                               - statistics.median(lateness[:quarter])),
        "qps": ok / (max(r[4] for r in rows) - min(r[3] for r in rows)),
    }


def _check_bodies(snapshot_path: Path, pool, records, result: common.Run) -> None:
    from repro.serve.engine import QueryEngine
    from repro.serve.snapshot import load_snapshot

    snapshot = load_snapshot(snapshot_path)
    engine = QueryEngine(snapshot)
    expected: dict[int, bytes] = {}
    for phase, index, _, _, _, status, digest in records:
        if index not in expected:
            answer = engine.query(pool[index]).to_dict(snapshot)
            body = (json.dumps(answer, sort_keys=True) + "\n").encode()
            expected[index] = hashlib.sha256(body).digest()
        result.op(status == 200 and digest == expected[index],
                  f"{phase} basket {index}: status {status} or body differs from QueryEngine")


def _prometheus(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = values.get(name, 0.0) + float(value)
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _serve_counters(metrics: dict[str, float]) -> dict[str, float]:
    def m(name: str) -> float:
        return metrics.get(f"repro_serve_{name}", 0.0)

    return {
        "admission.batch_size": _ratio(m("batched_queries"), m("batches")),
        "admission.dedup_ratio": _ratio(m("deduped_queries"), m("batched_queries")),
        "engine.candidates_per_query": _ratio(m("candidates"), m("result_cache_misses")),
        "cache.result_hit_ratio": _ratio(m("result_cache_hits"), m("result_lookups")),
        "cache.closure_hit_ratio": _ratio(m("closure_cache_hits"), m("closure_lookups")),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(snapshot: Path, rows, seed: int, trace_dir: Path, result: common.Run) -> dict:
    """Serve ``snapshot`` under load; returns per-layer metrics and checks.

    ``rows`` are the transactions the baskets are drawn from.
    """
    server = Server(snapshot, trace_dir)
    try:
        pool = _basket_pool(rows, seed)
        load = LoadGen(server.host, server.port, pool, seed)
        load.run(_plan())
        counters = _serve_counters(_prometheus(server.get("/metrics")))
        main = server.mark(1)
        # Attribution self-check: the same cached baskets, one connection,
        # before and after the engine layer gets a delay.
        hot = list(range(DELAY_REQUESTS))
        load.run([("closed", "delay-warm", 0.0, hot, 1)])
        before = server.mark(2)
        load.run([("closed", "delay-base", 0.0, hot, 1)])
        baseline = server.mark(3)      # also switches the delay on
        load.run([("closed", "delay-on", 0.0, hot, 1)])
        delayed = server.mark(4)
        _check_bodies(snapshot, pool, load.records, result)
    finally:
        server.stop()

    phases = {phase: _phase_stats(load.records, phase) for phase, _ in PHASES}
    max_rate = 0.0
    for i, rate in enumerate(RATES):
        stats = phases[f"rate{i}"]
        kept = stats["lateness_growth_ms"] <= LATENESS_GROWTH_MS
        if stats["tail_ms"] <= LATENCY_LIMIT_MS and kept and stats["ok"] == stats["n"]:
            max_rate = float(rate)
        result.report(
            f"serve open loop {rate} q/s: n={stats['n']} p50={stats['p50_ms']:.2f} ms "
            f"p{stats['tail_pct']:.1f}={stats['tail_ms']:.2f} ms "
            f"lateness p99={stats['lateness_p99_ms']:.2f} ms "
            f"growth={stats['lateness_growth_ms']:+.2f} ms")
    samples = main["samples"]

    def ms(key: str, pct: float) -> float:
        return common.percentile(samples.get(key, []), pct) / 1e6

    mid, closed = phases["rate1"], phases["closed"]
    metrics = {
        "snapshot.load_s": main["self_ns"].get("snapshot.load", 0) / 1e9,
        "snapshot.bytes": main["counts"].get("snapshot.bytes", 0),
        "httpd.self_ms": ms("httpd", 50),
        "admission.queue_wait_p50_ms": ms("admission.queue_wait", 50),
        "admission.queue_wait_p99_ms": ms("admission.queue_wait", 99),
        "engine.exec_p50_ms": ms("engine", 50),
        "engine.exec_p99_ms": ms("engine", 99),
        "loadgen.lateness_p99_ms": phases[f"rate{len(RATES) - 1}"]["lateness_p99_ms"],
        "loadgen.max_rate_qps": max_rate,
        "serve.qps": closed["qps"],
        "serve.p50_ms": mid["p50_ms"],
        "serve.p99_ms": mid["tail_ms"],
        **counters,
    }
    reconciled = spans.reconciles(main)
    result.check(reconciled, "traced server self times do not sum to the request wall time")
    ok, detail = spans.delay_check([spans.diff(baseline, before)], spans.diff(delayed, baseline),
                                   "engine", DELAY_MS / 1e3)
    result.check(ok, f"injected delay misattributed in serving: {detail}")
    result.report(
        f"serve_qps={closed['qps']:.1f} q/s (closed loop, {CONNECTIONS} connections); "
        f"serve_p50_ms={mid['p50_ms']:.2f} ms serve_p99_ms(p{mid['tail_pct']:.1f})="
        f"{mid['tail_ms']:.2f} ms at {RATES[1]} q/s (n={mid['n']}); serve_max_rate_qps="
        f"{max_rate:.0f} q/s (limit {LATENCY_LIMIT_MS:.0f} ms); all traced; "
        f"reconciled={reconciled}; delay check (engine): {detail}")
    return {"metrics": metrics, "reconciled": reconciled, "delay_ok": ok}
