"""Request batching, worker pool, and atomic snapshot hot-swap.

:class:`ServeService` is the online front door.  It owns the current
:class:`~repro.serve.engine.QueryEngine` behind a lock and offers two
request paths:

* **direct** (:meth:`ServeService.query_direct`) — one engine call per
  request; the unbatched baseline the load generator benchmarks
  against;
* **batched** (:meth:`ServeService.submit` / :meth:`ServeService.query`)
  — requests land in a queue; worker threads drain up to
  ``batch_max`` of them at a time, group identical ``(basket, top_k,
  scoring)`` keys, execute each distinct query **once**, and fan the
  result out to every requester.  The per-batch engine reference is
  captured under the same lock that admits the batch, so one batch is
  served end-to-end by one snapshot version.

Hot swap (:meth:`ServeService.swap`) atomically replaces the engine —
and with it both LRU caches, which belong to the engine — under live
traffic.  In-flight batches keep the engine they captured; new batches
see the new one.  A query can therefore never observe a *torn* result:
every :class:`~repro.serve.engine.QueryResult` is computed against
exactly one immutable snapshot and carries that snapshot's version
(pinned by ``tests/test_serve_determinism.py``).

Instrumentation: ``serve.*`` counters and histograms land in the shared
:class:`~repro.obs.registry.MetricsRegistry`; when an event sink is
attached, every batch emits one ``serve-batch`` span event listing the
query ids it covered — the coverage is a partition (each query id in
exactly one batch span), which ``tests/test_serve_batch.py`` asserts.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable

from repro.errors import ReproError, ServingError, error_label
from repro.obs.registry import MetricsRegistry
from repro.obs.requests import RequestContext, RequestTracer
from repro.obs.sink import EventSink
from repro.serve.engine import QueryEngine, QueryResult
from repro.serve.snapshot import RuleSnapshot

#: Histogram buckets for batch sizes (requests per drained batch).
BATCH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


class PendingQuery:
    """A submitted query: blocks on :meth:`result` until served.

    Carries its request trace context through the queue — the batching
    worker stamps queue-wait/execution boundaries on it and finishes it
    *before* resolving the waiter, so a released caller always observes
    a closed request record.
    """

    __slots__ = ("query_id", "key", "ctx", "_event", "_result", "_error")

    def __init__(self, query_id: int, key: tuple, ctx: RequestContext | None = None):
        self.query_id = query_id
        self.key = key
        self.ctx = ctx
        self._event = threading.Event()
        self._result: QueryResult | None = None
        self._error: ReproError | None = None

    def resolve(self, result: QueryResult) -> None:
        self._result = result
        self._event.set()

    def fail(self, error: ReproError) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: float | None = None) -> QueryResult:
        if not self._event.wait(timeout):
            raise ServingError(f"query {self.query_id} timed out")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class ServeService:
    """Thread-safe serving front end with micro-batching and hot swap.

    Parameters
    ----------
    snapshot:
        Initial snapshot to serve.
    scoring / top_k / closure_cache_size / result_cache_size:
        Engine construction parameters (also applied to every swapped-in
        engine).
    batch_max:
        Maximum requests coalesced into one batch.
    workers:
        Batch worker threads.  ``0`` starts none — only the direct path
        works, which the load generator uses for the unbatched baseline.
    registry:
        Shared metrics registry (a private one by default).
    sink:
        Optional JSONL event sink receiving ``serve-batch`` /
        ``serve-swap`` span events.
    clock:
        Injectable monotonic clock (``time.perf_counter`` by default;
        tests inject a fake for deterministic span durations).
    tracer:
        Request tracer producing per-request span trees and ``slo.*``
        series.  A private one (sharing the service's registry, sink
        and clock) is built when not provided, so every request is
        traced either way.
    """

    def __init__(
        self,
        snapshot: RuleSnapshot,
        scoring: str = "confidence",
        top_k: int = 5,
        closure_cache_size: int = 1024,
        result_cache_size: int = 1024,
        batch_max: int = 32,
        workers: int = 2,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        clock: Callable[[], float] = time.perf_counter,
        tracer: RequestTracer | None = None,
    ):
        if batch_max < 1:
            raise ServingError(f"batch_max must be >= 1, got {batch_max}")
        if workers < 0:
            raise ServingError(f"workers must be >= 0, got {workers}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink
        self.tracer = (
            tracer
            if tracer is not None
            else RequestTracer(sink=sink, registry=self.registry, clock=clock)
        )
        self.batch_max = batch_max
        self._clock = clock
        self._engine_kwargs = {
            "scoring": scoring,
            "top_k": top_k,
            "closure_cache_size": closure_cache_size,
            "result_cache_size": result_cache_size,
        }
        self._lock = threading.Lock()
        self._queue_ready = threading.Condition(self._lock)
        # Engine internals (LRU caches), the metrics registry and the
        # event sink are single-threaded structures; one execution lock
        # serializes query evaluation so counters reconcile exactly.
        # Workers still pipeline: batch assembly and result fan-out
        # overlap with the next batch's queueing.
        self._exec_lock = threading.Lock()
        self._pending: deque[PendingQuery] = deque()
        self._engine = QueryEngine(
            snapshot, registry=self.registry, **self._engine_kwargs
        )
        self._closed = False
        self._next_query_id = 0
        self._next_batch_id = 0
        self._workers = [
            threading.Thread(
                target=self._drain_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> str:
        with self._lock:
            return self._engine.snapshot.version

    @property
    def engine(self) -> QueryEngine:
        """The current engine (atomically read; treat as immutable)."""
        with self._lock:
            return self._engine

    @property
    def snapshot(self):
        """The current snapshot (the HTTP front end's render source)."""
        with self._lock:
            return self._engine.snapshot

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def swap(self, snapshot: RuleSnapshot) -> str:
        """Atomically serve ``snapshot`` from now on; returns its version.

        In-flight batches finish on the engine they captured; both LRU
        caches are replaced with the engine, so no cached result can
        outlive its snapshot.
        """
        engine = QueryEngine(snapshot, registry=self.registry, **self._engine_kwargs)
        with self._lock:
            if self._closed:
                raise ServingError("cannot swap a closed service")
            previous = self._engine.snapshot.version
            self._engine = engine
        with self._exec_lock:
            self.registry.counter("serve.swaps").inc()
            if self.sink is not None:
                self.sink.emit(
                    "serve-swap", previous=previous, version=snapshot.version
                )
        return snapshot.version

    # ------------------------------------------------------------------
    # Direct (unbatched) path
    # ------------------------------------------------------------------
    def query_direct(
        self,
        basket: Iterable[int],
        top_k: int | None = None,
        scoring: str | None = None,
        request_id: int | None = None,
    ) -> QueryResult:
        """Serve one query immediately on the caller's thread.

        The whole call is one traced request: queue wait is the time to
        acquire the execution lock, batch_exec is the engine call, and
        any failure closes the request as an error span.
        """
        tracer = self.tracer
        with tracer.request("direct", request_id=request_id) as ctx:
            with self._lock:
                if self._closed:
                    raise ServingError("service is closed")
                engine = self._engine
            with self._exec_lock:
                ctx.mark_dequeued()
                self.registry.counter("serve.requests", path="direct").inc()
                exec_begin = tracer.now_ns()
                result = engine.query(
                    basket, top_k=top_k, scoring=scoring, obs=ctx
                )
                ctx.mark_exec(exec_begin, tracer.now_ns())
                tracer.finish_request(ctx, result)
                return result

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def submit(
        self,
        basket: Iterable[int],
        top_k: int | None = None,
        scoring: str | None = None,
        request_id: int | None = None,
        ctx: RequestContext | None = None,
    ) -> PendingQuery:
        """Enqueue one query for batched execution (non-blocking).

        ``ctx`` propagates an already-open trace context (the HTTP
        handler's) into the executor; otherwise a ``batched``-path
        context is opened here.
        """
        canonical = tuple(sorted(set(basket)))
        if ctx is None:
            # repro-analyze: disable=RL010 — the context rides the queue;
            # the draining worker closes it before resolving the waiter,
            # and a rejected submission is failed in the except arm
            # below.
            ctx = self.tracer.begin_request("batched", request_id=request_id)
        try:
            with self._lock:
                if self._closed:
                    raise ServingError("service is closed")
                if not self._workers:
                    raise ServingError(
                        "service was started with workers=0; use query_direct"
                    )
                pending = PendingQuery(
                    self._next_query_id, (canonical, top_k, scoring), ctx=ctx
                )
                self._next_query_id += 1
                self._pending.append(pending)
                self.registry.counter("serve.requests", path="batched").inc()
                self._queue_ready.notify()
        except ReproError as error:
            self.tracer.fail_request(ctx, error_label(error))
            raise
        return pending

    def query(
        self,
        basket: Iterable[int],
        top_k: int | None = None,
        scoring: str | None = None,
        timeout: float | None = 30.0,
        request_id: int | None = None,
        ctx: RequestContext | None = None,
    ) -> QueryResult:
        """Batched query, blocking until the result is available."""
        return self.submit(
            basket, top_k=top_k, scoring=scoring, request_id=request_id, ctx=ctx
        ).result(timeout)

    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            with self._queue_ready:
                while not self._pending and not self._closed:
                    self._queue_ready.wait()
                if not self._pending and self._closed:
                    return
                batch = [
                    self._pending.popleft()
                    for _ in range(min(self.batch_max, len(self._pending)))
                ]
                engine = self._engine
                batch_id = self._next_batch_id
                self._next_batch_id += 1
            self._run_batch(batch_id, batch, engine)

    def _run_batch(
        self, batch_id: int, batch: list[PendingQuery], engine: QueryEngine
    ) -> None:
        started = self._clock()
        tracer = self.tracer
        admitted = tracer.now_ns()
        groups: dict[tuple, list[PendingQuery]] = {}
        for pending in batch:
            if pending.ctx is not None:
                pending.ctx.mark_dequeued(batch_id, at=admitted)
            groups.setdefault(pending.key, []).append(pending)
        with self._exec_lock:
            for key in sorted(groups, key=repr):
                canonical, top_k, scoring = key
                waiting = groups[key]
                # The group's first submitter observes the (single)
                # engine call; the other members adopt its stamps —
                # deduplicated requests share one execution interval.
                leader = waiting[0].ctx
                exec_begin = tracer.now_ns()
                try:
                    result = engine.query(
                        canonical, top_k=top_k, scoring=scoring, obs=leader
                    )
                except ReproError as error:
                    exec_end = tracer.now_ns()
                    kind = error_label(error)
                    for pending in waiting:
                        ctx = pending.ctx
                        if ctx is not None:
                            if ctx is not leader and leader is not None:
                                ctx.adopt_execution(leader)
                            ctx.mark_exec(exec_begin, exec_end)
                            tracer.fail_request(ctx, kind)
                        pending.fail(error)
                    continue
                exec_end = tracer.now_ns()
                for pending in waiting:
                    ctx = pending.ctx
                    if ctx is not None:
                        if ctx is not leader and leader is not None:
                            ctx.adopt_execution(leader)
                        ctx.mark_exec(exec_begin, exec_end)
                        # Finish before resolving: a released waiter must
                        # never race its own unfinished trace record.
                        tracer.finish_request(ctx, result)
                    pending.resolve(result)
            duration = self._clock() - started
            registry = self.registry
            registry.counter("serve.batches").inc()
            registry.counter("serve.batched_queries").inc(len(batch))
            registry.counter("serve.deduped_queries").inc(len(batch) - len(groups))
            registry.histogram("serve.batch_size", buckets=BATCH_BUCKETS).observe(
                len(batch)
            )
            registry.histogram(
                "serve.batch_distinct", buckets=BATCH_BUCKETS
            ).observe(len(groups))
            if self.sink is not None:
                self.sink.emit(
                    "serve-batch",
                    batch=batch_id,
                    queries=[pending.query_id for pending in batch],
                    distinct=len(groups),
                    version=engine.snapshot.version,
                    dur=duration,
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain outstanding requests, then stop the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue_ready.notify_all()
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "ServeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
