"""Seeded load generator + latency/throughput benchmark for serving.

``repro-serve loadgen`` replays a deterministic workload against one
snapshot twice — once through the **direct** per-query path, once
through the **batched** path with concurrent client threads — and
builds one bench record (kind ``serving``, see
:mod:`repro.perf.history`; committed as ``benchmarks/BENCH_pr5.json``)
with throughput and p50/p95/p99 latency per phase, mirroring the
``repro-bench`` trajectory files.

Like ``repro-bench``, timing is only evidence while results agree: the
two phases' result transcripts are digest-compared and the run **fails
when they diverge** (``results_identical``).  The transcript itself
(``--results-out``) carries no timing, so it is byte-identical across
``PYTHONHASHSEED`` values — the determinism suite replays it under two
seeds.

The workload is a pure function of its seed: baskets are drawn from a
small pool of leaf-item combinations under a Zipf-like popularity skew
(hot baskets repeat, as real traffic does), which is exactly the regime
micro-batching exploits — co-occurring duplicates inside one batch are
executed once.  Caches are **off** during the timed phases (size 0) so
both paths measure full query execution rather than cache residency;
hit-rate behaviour is covered by the unit suite instead.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from pathlib import Path

from repro.obs.registry import MetricsRegistry
from repro.obs.requests import RequestTracer, reconciles, to_ns
from repro.perf.history import BenchRecord, host_info
from repro.serve.batch import ServeService
from repro.serve.snapshot import RuleSnapshot

#: Per-phase statistics that become record metrics ``{phase}/{name}``.
PHASE_METRICS = ("qps", "p50_ms", "p95_ms", "p99_ms", "wall_seconds")


def generate_workload(
    snapshot: RuleSnapshot,
    queries: int,
    seed: int,
    pool_size: int = 32,
    basket_min: int = 1,
    basket_max: int = 4,
) -> list[tuple[int, ...]]:
    """A deterministic basket stream: Zipf-skewed draws from a pool.

    The pool is sampled from the snapshot's leaf items (falling back to
    all items for flat snapshots); basket ``i`` of the pool is drawn
    with weight ``1 / (i + 1)``.
    """
    rng = random.Random(seed)
    population = list(snapshot.leaves)
    pool: list[tuple[int, ...]] = []
    for _ in range(pool_size):
        size = rng.randint(basket_min, min(basket_max, len(population)))
        pool.append(tuple(sorted(rng.sample(population, size))))
    weights = [1.0 / (position + 1) for position in range(len(pool))]
    return rng.choices(pool, weights=weights, k=queries)


def percentile(latencies: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a latency sample (seconds)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _phase_stats(latencies: list[float], wall: float) -> dict:
    return {
        "queries": len(latencies),
        "wall_seconds": round(wall, 6),
        "qps": round(len(latencies) / wall, 3) if wall > 0 else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 4),
        "p95_ms": round(percentile(latencies, 0.95) * 1e3, 4),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 4),
    }


def _transcript_digest(transcript: list[dict]) -> str:
    blob = "\n".join(
        json.dumps(entry, sort_keys=True, separators=(",", ":"))
        for entry in transcript
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_direct_phase(
    snapshot: RuleSnapshot,
    workload: list[tuple[int, ...]],
    scoring: str,
    top_k: int,
    registry: MetricsRegistry,
    clock=time.perf_counter,
    tracer: RequestTracer | None = None,
) -> tuple[dict, list[dict]]:
    """Unbatched baseline: one blocking engine call per query.

    Request ids are workload positions, so the trace stream is a pure
    function of the workload (plus the clock, which tests fake).
    """
    if tracer is None:
        tracer = RequestTracer(registry=registry, clock=clock, namespace="direct")
    service = ServeService(
        snapshot,
        scoring=scoring,
        top_k=top_k,
        closure_cache_size=0,
        result_cache_size=0,
        workers=0,
        registry=registry,
        clock=clock,
        tracer=tracer,
    )
    latencies: list[float] = []
    transcript: list[dict] = []
    phase_start = clock()
    for position, basket in enumerate(workload):
        started = clock()
        result = service.query_direct(basket, request_id=position)
        latencies.append(clock() - started)
        transcript.append(result.to_dict())
    wall = clock() - phase_start
    service.close()
    return _phase_stats(latencies, wall), transcript


def run_batched_phase(
    snapshot: RuleSnapshot,
    workload: list[tuple[int, ...]],
    scoring: str,
    top_k: int,
    registry: MetricsRegistry,
    clients: int = 4,
    workers: int = 2,
    batch_max: int = 32,
    sink=None,
    clock=time.perf_counter,
    tracer: RequestTracer | None = None,
) -> tuple[dict, list[dict]]:
    """Batched path: ``clients`` threads submit, workers coalesce."""
    if tracer is None:
        tracer = RequestTracer(
            sink=sink, registry=registry, clock=clock, namespace="batched"
        )
    service = ServeService(
        snapshot,
        scoring=scoring,
        top_k=top_k,
        closure_cache_size=0,
        result_cache_size=0,
        batch_max=batch_max,
        workers=workers,
        registry=registry,
        sink=sink,
        clock=clock,
        tracer=tracer,
    )
    latencies: list[float | None] = [None] * len(workload)
    results: list[dict | None] = [None] * len(workload)

    # Each client pipelines a window of submissions before collecting, so
    # queues actually fill and batches coalesce; latency is measured per
    # query from its own submit time to its resolution.
    window = max(1, batch_max // max(1, clients))

    def client(client_id: int) -> None:
        positions = list(range(client_id, len(workload), clients))
        for window_start in range(0, len(positions), window):
            handles: list[tuple[int, float, object]] = []
            for position in positions[window_start : window_start + window]:
                handles.append(
                    (
                        position,
                        clock(),
                        service.submit(workload[position], request_id=position),
                    )
                )
            for position, started, handle in handles:
                result = handle.result()
                latencies[position] = clock() - started
                results[position] = result.to_dict()

    threads = [
        threading.Thread(target=client, args=(client_id,), name=f"client-{client_id}")
        for client_id in range(clients)
    ]
    phase_start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - phase_start
    service.close()
    stats = _phase_stats([value for value in latencies if value is not None], wall)
    stats["batches"] = int(registry.value("serve.batches"))
    stats["deduped_queries"] = int(registry.value("serve.deduped_queries"))
    batched = registry.value("serve.batched_queries")
    stats["mean_batch_size"] = (
        round(batched / stats["batches"], 3) if stats["batches"] else 0.0
    )
    return stats, [entry for entry in results if entry is not None]


def request_records(*tracers: RequestTracer) -> list[dict]:
    """Merge tracers' finished records, sorted by (path, request id)."""
    merged: list[dict] = []
    for tracer in tracers:
        merged.extend(tracer.records)
    merged.sort(key=lambda record: (record["path"], record["id"]))
    return merged


def tracing_summary(phase_walls: list[tuple[RequestTracer, float]]) -> dict:
    """Reconciliation summary over each phase's tracer + wall total.

    ``reconciled`` asserts the exact integer identity
    ``queue_wait + batch_exec + overhead == end_to_end`` for every
    request; ``within_wall`` checks every request interval fits inside
    its phase's loadgen wall time (the reported wall is rounded to
    microseconds, so half a microsecond of quantization slack applies).
    """
    requests = 0
    errors = 0
    reconciled = True
    within_wall = True
    dropped = 0
    for tracer, wall in phase_walls:
        wall_ns = to_ns(wall) + 500
        dropped += tracer.log.dropped
        for record in tracer.records:
            requests += 1
            if record["status"] == "error":
                errors += 1
            if not reconciles(record):
                reconciled = False
            if record["phases"]["end_to_end"] > wall_ns:
                within_wall = False
    return {
        "requests": requests,
        "errors": errors,
        "reconciled": reconciled,
        "within_wall": within_wall,
        "dropped": dropped,
    }


def run_loadgen(
    snapshot: RuleSnapshot,
    queries: int = 200,
    seed: int = 7,
    pool_size: int = 16,
    scoring: str = "confidence",
    top_k: int = 5,
    clients: int = 4,
    workers: int = 2,
    batch_max: int = 32,
    shards: int = 0,
    replication: int = 2,
    rate: float | str = 0.0,
    label: str = "local",
    sink=None,
    clock=time.perf_counter,
    metrics: MetricsRegistry | None = None,
) -> tuple[dict, list[dict], list[dict]]:
    """All phases on one workload; returns (run, transcript, request
    records).

    ``run`` holds the bench ``record`` (kind ``serving``) plus what the
    CLI prints and gates on: per-phase ``phases`` statistics,
    ``results_identical`` (every phase's transcript digest equals the
    direct phase's) and the ``tracing`` summary.  Request records carry
    each query's reconciled span accounting; the CLI **fails the run**
    when any record does not reconcile exactly.  When a ``metrics``
    registry is given, each phase's series are merged into it under
    ``phase=direct`` / ``phase=batched`` / ``phase=sharded`` labels (the
    ``--metrics-out`` export).

    ``shards > 0`` adds the sharded-tier phase
    (:func:`repro.serve.shard.loadgen.run_sharded_phase`): ``rate``
    selects its arrival mode — ``0`` closed-loop lockstep, a positive
    number an open-loop arrival rate in queries/second, and the string
    ``"auto"`` an open loop at half the direct phase's measured
    throughput (fast enough to exercise concurrency, slow enough that
    nothing sheds and the transcripts stay comparable).
    """
    workload = generate_workload(snapshot, queries, seed, pool_size=pool_size)
    direct_registry = MetricsRegistry()
    direct_tracer = RequestTracer(
        sink=sink, registry=direct_registry, clock=clock, namespace="direct"
    )
    direct_stats, direct_transcript = run_direct_phase(
        snapshot,
        workload,
        scoring,
        top_k,
        direct_registry,
        clock=clock,
        tracer=direct_tracer,
    )
    batched_registry = MetricsRegistry()
    batched_tracer = RequestTracer(
        sink=sink, registry=batched_registry, clock=clock, namespace="batched"
    )
    batched_stats, batched_transcript = run_batched_phase(
        snapshot,
        workload,
        scoring,
        top_k,
        batched_registry,
        clients=clients,
        workers=workers,
        batch_max=batch_max,
        sink=sink,
        clock=clock,
        tracer=batched_tracer,
    )
    phase_walls = [
        (direct_tracer, direct_stats["wall_seconds"]),
        (batched_tracer, batched_stats["wall_seconds"]),
    ]
    tracers = [direct_tracer, batched_tracer]
    phases = {"direct": direct_stats, "batched": batched_stats}
    digests = {}
    if shards > 0:
        # Imported here: repro.serve.shard.loadgen borrows this module's
        # phase-stat helpers, so a top-level import would be circular.
        from repro.serve.shard.loadgen import run_sharded_phase

        if rate == "auto":
            rate = direct_stats["qps"] / 2
        sharded_registry = MetricsRegistry()
        sharded_tracer = RequestTracer(
            sink=sink, registry=sharded_registry, clock=clock, namespace="shard"
        )
        sharded_stats, sharded_transcript = run_sharded_phase(
            snapshot,
            workload,
            scoring,
            top_k,
            sharded_registry,
            shards=shards,
            replication=replication,
            rate=float(rate),
            clock=clock,
            tracer=sharded_tracer,
        )
        phases["sharded"] = sharded_stats
        phase_walls.append((sharded_tracer, sharded_stats["wall_seconds"]))
        tracers.append(sharded_tracer)
        digests["sharded"] = _transcript_digest(sharded_transcript)
        if metrics is not None:
            metrics.merge(sharded_registry, phase="sharded")
    if metrics is not None:
        metrics.merge(direct_registry, phase="direct")
        metrics.merge(batched_registry, phase="batched")
    direct_digest = _transcript_digest(direct_transcript)
    digests["direct"] = direct_digest
    digests["batched"] = _transcript_digest(batched_transcript)
    spec = {
        "queries": queries,
        "seed": seed,
        "pool_size": pool_size,
        "scoring": scoring,
        "top_k": top_k,
        "clients": clients,
        "workers": workers,
        "batch_max": batch_max,
        "snapshot_version": snapshot.version,
    }
    if shards > 0:
        spec["shards"] = shards
        spec["replication"] = replication
        spec["rate"] = round(float(rate), 3)
    speedup_qps = (
        round(batched_stats["qps"] / direct_stats["qps"], 3)
        if direct_stats["qps"]
        else 0.0
    )
    record = BenchRecord(
        label=label,
        kind="serving",
        workload=spec,
        host=host_info(),
        metrics={
            **{
                f"{phase}/{name}": stats[name]
                for phase, stats in sorted(phases.items())
                for name in PHASE_METRICS
            },
            "speedup_qps": speedup_qps,
        },
        digests={"transcript": direct_digest},
    )
    run = {
        "record": record,
        "phases": phases,
        "results_identical": all(
            digest == direct_digest for digest in digests.values()
        ),
        "tracing": tracing_summary(phase_walls),
    }
    return run, direct_transcript, request_records(*tracers)


def write_transcript(transcript: list[dict], path: str | Path) -> Path:
    """Write the timing-free result transcript as JSONL (byte-stable)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(entry, sort_keys=True, separators=(",", ":"))
        for entry in transcript
    ]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def write_requests(records: list[dict], path: str | Path) -> Path:
    """Write request records as sorted-key JSONL (``--requests-out``).

    With a fake clock this file is byte-identical across
    ``PYTHONHASHSEED`` values; with the real clock the *shape* (ids,
    paths, statuses, span names) is stable and the timings vary.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    ]
    target.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return target
