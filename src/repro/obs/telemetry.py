"""The :class:`Telemetry` facade: spans + metrics + sink in one attach.

Attach with :meth:`repro.cluster.machine.Cluster.attach_telemetry`; the
telemetry object then plays three roles at once:

* it *is* the cluster's trace hook (duck-compatible with
  :class:`~repro.cluster.trace.SimulationTrace.record`), so the
  network's single ``is None`` hot-path check covers everything —
  detached, the simulator pays nothing;
* it owns the :class:`~repro.obs.registry.MetricsRegistry`, fed at every
  pass boundary from the per-node :class:`~repro.cluster.stats.NodeStats`
  (the registry therefore always reconciles with the counters the
  figures are computed from — a property the tests assert);
* it owns the optional :class:`~repro.obs.sink.EventSink`, receiving
  trace events, span lifecycle and metric snapshots as one stream.

Span charging: the miners open *region* spans (``scan``, ``deliver``,
``count``) around their per-node loops; the telemetry snapshots the
node's counters per region, keeps one baseline per node so nothing is
lost between regions, and prices deltas through the cluster's cost
model.  Counter movements not covered by any region span are attributed
to a ``tail`` span at the pass boundary — accounting is exact by
construction, never best-effort.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.obs.registry import MetricsRegistry
from repro.obs.sink import EventSink
from repro.obs.spans import (
    STAT_FIELDS,
    SpanLog,
    SpanRecord,
    component_times,
    snapshot_delta,
    stats_snapshot,
)

#: NodeStats counter → metric name (``candidates_stored`` is a gauge,
#: handled separately).
STAT_METRICS: tuple[tuple[str, str], ...] = (
    ("io_items", "io.items"),
    ("io_scans", "io.scans"),
    ("extend_items", "extend.items"),
    ("itemsets_generated", "gen.itemsets"),
    ("probes", "probe.count"),
    ("increments", "probe.increments"),
    ("bytes_sent", "net.bytes_sent"),
    ("bytes_received", "net.bytes_received"),
    ("messages_sent", "net.messages_sent"),
    ("messages_received", "net.messages_received"),
    ("fault_crashes", "faults.crashes"),
    ("fault_retries", "faults.retries"),
    ("fault_retry_bytes", "faults.retry_bytes"),
    ("fault_backoff_units", "faults.backoff_units"),
    ("fault_dropped_messages", "faults.dropped_messages"),
    ("fault_dup_messages", "faults.dup_messages"),
    ("fault_dup_bytes", "faults.dup_bytes"),
    ("fault_rescan_items", "faults.rescan_items"),
    ("fault_restored_bytes", "faults.restored_bytes"),
    ("fault_reassigned_candidates", "faults.reassigned_candidates"),
    ("fault_stall_units", "faults.stall_units"),
    ("fault_overflow_fragments", "faults.overflow_fragments"),
)

#: Simulated-seconds histogram buckets: 1 ms … ~4 min, powers of four.
TIME_BUCKETS: tuple[float, ...] = tuple(4.0**exp * 1e-3 for exp in range(10))


class Telemetry:
    """Structured telemetry for one or more mining runs.

    Parameters
    ----------
    registry:
        Metrics registry to feed (a fresh one by default).
    sink:
        Optional JSONL event sink; ``None`` keeps spans/metrics only.
    span_limit:
        Cap on retained closed spans (drops are counted, not silent).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        span_limit: int = 100_000,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink
        self.spans = SpanLog(limit=span_limit)
        self._chained_trace = None
        self._cluster = None
        self._cost = None
        #: Simulated run clock (seconds); advances at pass boundaries.
        self.clock = 0.0
        self._next_span_id = 1
        self._open_stack: list[SpanRecord] = []
        self._pass_k: int | None = None
        self._pass_start = 0.0
        self._last_elapsed: float | None = None
        self._node_clock: list[float] = []
        self._baselines: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, cluster) -> None:
        """Adopt a cluster's cost model and node set (attach-time)."""
        self._cluster = cluster
        self._cost = cluster.config.cost
        self._node_clock = [0.0] * cluster.num_nodes
        self._baselines = [stats_snapshot(node.stats) for node in cluster.nodes]

    def attach_trace(self, trace) -> None:
        """Chain a plain :class:`SimulationTrace`: it keeps receiving
        every event the telemetry sees."""
        self._chained_trace = trace

    # ------------------------------------------------------------------
    # Trace-compatible hot-path hook
    # ------------------------------------------------------------------
    def record(self, kind: str, **detail) -> None:
        """Receive one simulator event (``Cluster``/``Network`` hook)."""
        if self._chained_trace is not None:
            self._chained_trace.record(kind, **detail)
        if kind == "send":
            registry = self.registry
            registry.counter(
                "net.link_bytes", src=detail["src"], dst=detail["dst"]
            ).inc(detail["bytes"])
            registry.histogram("net.message_bytes").observe(detail["bytes"])
        if self.sink is not None:
            self.sink.emit("trace", kind=kind, detail=detail)

    # ------------------------------------------------------------------
    # Run lifecycle (driven by ParallelMiner.mine)
    # ------------------------------------------------------------------
    def begin_run(self, algorithm: str, num_nodes: int) -> None:
        if self.sink is not None:
            self.sink.emit("run-begin", algorithm=algorithm, nodes=num_nodes)
        # repro-analyze: disable=RL007,RL010 — the run span deliberately stays
        # open across the whole mining run; end_run drains the stack (and
        # ParallelMiner.mine always pairs the two calls).
        self.open_span("run", algorithm=algorithm, nodes=num_nodes)

    def end_run(self, run_stats=None) -> None:
        while self._open_stack:
            self.close_span(self._open_stack[-1], end=self.clock)
        if self.sink is not None:
            self.sink.emit("metrics", snapshot=self.registry.snapshot())
            summary = {
                "spans": len(self.spans.spans),
                "spans_dropped": self.spans.dropped,
                "events_dropped": self.sink.dropped,
            }
            if run_stats is not None:
                summary["run"] = run_stats.to_dict()
            self.sink.emit("run-end", **summary)

    # ------------------------------------------------------------------
    # Manual span API (prefer the context managers below; lint rule
    # RL007 flags an open_span without a close_span on all paths)
    # ------------------------------------------------------------------
    def open_span(self, name: str, start: float | None = None, **attrs) -> SpanRecord:
        span = SpanRecord(
            span_id=self._next_span_id,
            parent_id=self._open_stack[-1].span_id if self._open_stack else None,
            name=name,
            start=self.clock if start is None else start,
            end=0.0,
            attrs=attrs,
        )
        self._next_span_id += 1
        self._open_stack.append(span)
        if self.sink is not None:
            self.sink.emit(
                "span-open",
                span=span.span_id,
                parent=span.parent_id,
                name=name,
                t=span.start,
                attrs=attrs,
            )
        return span

    def close_span(
        self,
        span: SpanRecord,
        end: float | None = None,
        delta: dict[str, int] | None = None,
    ) -> SpanRecord:
        if not any(open_span is span for open_span in self._open_stack):
            return span
        # Close abandoned children first (exception paths) so nesting
        # stays well-formed in the sink.
        while self._open_stack[-1] is not span:
            self.close_span(self._open_stack[-1], end=end)
        self._open_stack.pop()
        span.end = max(span.start, span.end if end is None else end)
        if delta:
            span.delta = delta
        self.spans.append(span)
        if self.sink is not None:
            self.sink.emit(
                "span-close",
                span=span.span_id,
                t=span.end,
                dur=span.duration,
                delta=span.delta,
            )
        return span

    def _emit_closed(
        self,
        name: str,
        start: float,
        end: float,
        parent: SpanRecord | None,
        attrs: dict[str, object],
        delta: dict[str, int] | None = None,
    ) -> SpanRecord:
        """One-shot span: opened and closed in a single event."""
        span = SpanRecord(
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=start,
            end=max(start, end),
            attrs=attrs,
            delta=delta or {},
        )
        self._next_span_id += 1
        self.spans.append(span)
        if self.sink is not None:
            self.sink.emit(
                "span",
                span=span.span_id,
                parent=span.parent_id,
                name=name,
                t=span.start,
                dur=span.duration,
                attrs=attrs,
                delta=span.delta,
            )
        return span

    # ------------------------------------------------------------------
    # Structured span API
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """A generic structural span at the current clock (marker-like:
        its duration is whatever its children / pass bookkeeping add)."""
        span = self.open_span(name, **attrs)
        try:
            yield span
        finally:
            self.close_span(span)

    @contextmanager
    def pass_span(self, k: int):
        """One mining pass; closes at ``pass start + elapsed`` as priced
        by ``Cluster.finish_pass`` and advances the run clock."""
        self._pass_k = k
        self._pass_start = self.clock
        self._last_elapsed = None
        span = self.open_span("pass", k=k)
        try:
            yield span
        finally:
            if self._last_elapsed is not None:
                end = self._pass_start + self._last_elapsed
            elif self._node_clock:
                end = self._pass_start + max(self._node_clock)
            else:
                end = self._pass_start
            self.clock = end
            self.close_span(span, end=end)
            self._pass_k = None

    @contextmanager
    def node_span(self, name: str, node, **attrs):
        """One node's work region inside the current pass.

        The node's counters are snapshotted against its per-pass
        baseline; on close the delta is priced through the cost model,
        the node's simulated-time cursor advances, and one derived child
        span per non-zero cost component is emitted.
        """
        node_id = node.node_id
        self._ensure_node(node_id)
        start = self._pass_start + self._node_clock[node_id]
        span = self.open_span(name, start=start, node=node_id, **attrs)
        try:
            yield span
        finally:
            delta = snapshot_delta(self._baselines[node_id], stats_snapshot(node.stats))
            self._baselines[node_id] = stats_snapshot(node.stats)
            self._close_node_span(span, node_id, start, delta)

    def _close_node_span(
        self, span: SpanRecord, node_id: int, start: float, delta: dict[str, int]
    ) -> None:
        components = (
            component_times(delta, self._cost) if self._cost is not None else {}
        )
        duration = sum(components.values())
        end = start + duration
        self._node_clock[node_id] = end - self._pass_start
        self.close_span(span, end=end, delta=delta)
        cursor = start
        k = self._pass_k
        for phase, seconds in components.items():
            if seconds <= 0:
                continue
            attrs: dict[str, object] = {"node": node_id, "region": span.name}
            if k is not None:
                attrs["k"] = k
            # repro-analyze: disable=RA001 — components is a dict literal
            # built in the cost model's canonical phase order (spans.py);
            # the contiguous cursor segments depend on that order, and
            # sorting alphabetically would scramble the timeline.
            self._emit_closed(phase, cursor, cursor + seconds, span, attrs)
            cursor += seconds
            labels = {"phase": phase, "node": node_id}
            if k is not None:
                labels["k"] = k
            self.registry.counter("phase.seconds", **labels).inc(seconds)

    # ------------------------------------------------------------------
    # Pass boundary hooks (driven by Cluster)
    # ------------------------------------------------------------------
    def on_begin_pass(self) -> None:
        """Reset per-pass cursors/baselines (after node counter reset)."""
        if self._cluster is not None:
            self._node_clock = [0.0] * self._cluster.num_nodes
            self._baselines = [
                stats_snapshot(node.stats) for node in self._cluster.nodes
            ]
        if self._pass_k is None:
            self._pass_start = self.clock

    def on_finish_pass(self, pass_stats, reduced_counts: int) -> None:
        """Price the pass into the registry, close the accounting, and
        emit the coordinator's ``reduce`` span."""
        k = pass_stats.k
        registry = self.registry
        parent = self._open_stack[-1] if self._open_stack else None

        # Attribute any counter movement outside region spans.
        if self._cluster is not None:
            for node in self._cluster.nodes:
                self._ensure_node(node.node_id)
                delta = snapshot_delta(
                    self._baselines[node.node_id], stats_snapshot(node.stats)
                )
                if delta:
                    self._baselines[node.node_id] = stats_snapshot(node.stats)
                    start = self._pass_start + self._node_clock[node.node_id]
                    tail = self.open_span("tail", start=start, node=node.node_id, k=k)
                    self._close_node_span(tail, node.node_id, start, delta)

        # Registry: per-node counters, residency gauge, time histogram.
        for node_id, stats in enumerate(pass_stats.nodes):
            for field_name, metric in STAT_METRICS:
                value = getattr(stats, field_name)
                if value:
                    registry.counter(metric, k=k, node=node_id).inc(value)
            registry.gauge("mem.candidates", k=k, node=node_id).set(
                stats.candidates_stored
            )
        for node_time in pass_stats.node_times:
            registry.histogram("pass.node_seconds", buckets=TIME_BUCKETS).observe(
                node_time
            )
        registry.counter("pass.candidates", k=k).inc(pass_stats.num_candidates)
        registry.counter("pass.large", k=k).inc(pass_stats.num_large)
        registry.gauge("pass.elapsed_seconds", k=k).set(pass_stats.elapsed)
        registry.gauge("pass.coordinator_seconds", k=k).set(
            pass_stats.coordinator_time
        )
        registry.counter("run.passes").inc()

        # The coordinator's reduce/broadcast, after the slowest node.
        busy = max(pass_stats.node_times) if pass_stats.node_times else 0.0
        if pass_stats.coordinator_time > 0:
            self._emit_closed(
                "reduce",
                self._pass_start + busy,
                self._pass_start + busy + pass_stats.coordinator_time,
                parent,
                {"k": k, "reduced": reduced_counts},
            )
            registry.counter("phase.seconds", phase="reduce", k=k).inc(
                pass_stats.coordinator_time
            )
        self._last_elapsed = pass_stats.elapsed
        if self._pass_k is None:
            # Uninstrumented caller (no pass_span): advance the clock here.
            self.clock = self._pass_start + pass_stats.elapsed

        if self.sink is not None:
            self.sink.emit(
                "pass",
                k=k,
                candidates=pass_stats.num_candidates,
                large=pass_stats.num_large,
                elapsed=pass_stats.elapsed,
                coordinator=pass_stats.coordinator_time,
                node_seconds=list(pass_stats.node_times),
                duplicated=pass_stats.duplicated_candidates,
                fragments=pass_stats.fragments,
            )

    # ------------------------------------------------------------------
    def _ensure_node(self, node_id: int) -> None:
        while len(self._node_clock) <= node_id:
            self._node_clock.append(0.0)
        while len(self._baselines) <= node_id:
            self._baselines.append((0,) * len(STAT_FIELDS))

    def __repr__(self) -> str:
        return (
            f"Telemetry(spans={len(self.spans.spans)}, "
            f"sink={'attached' if self.sink is not None else 'none'}, "
            f"clock={self.clock:.6f})"
        )


_NULL_CONTEXT = nullcontext()


class NullTelemetry:
    """No-op stand-in so miners can instrument unconditionally."""

    __slots__ = ()

    def begin_run(self, algorithm: str, num_nodes: int) -> None:
        pass

    def end_run(self, run_stats=None) -> None:
        pass

    def span(self, name: str, **attrs):
        return _NULL_CONTEXT

    def pass_span(self, k: int):
        return _NULL_CONTEXT

    def node_span(self, name: str, node, **attrs):
        return _NULL_CONTEXT


NULL_TELEMETRY = NullTelemetry()
