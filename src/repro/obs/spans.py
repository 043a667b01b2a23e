"""Deterministic spans over the simulator's cost-model time.

A span is one interval of *simulated* time: the run, a pass, one node's
work region inside a pass (``scan``, ``deliver``, ``count``…), or a
derived cost component.  The simulator never executes in real time — it
counts work and prices it through :class:`~repro.cluster.cost.CostModel`
— so span durations are charged, not measured: a node-region span
snapshots the node's :class:`~repro.cluster.stats.NodeStats` at open and
close, and its duration is the priced counter delta.

Each closed region emits derived child spans for the paper's phase
taxonomy, computed by pricing the delta per cost component:

* ``scan``   — disk items read (``io_items``);
* ``extend`` — transaction extension / lowest-large rewriting;
* ``probe``  — subset generation, hash probes and count increments;
* ``comm``   — interconnect bytes and message overheads;
* ``faults`` — retransmissions, recovery re-scans, backoff and stall
  time charged by the fault layer (:mod:`repro.faults`); zero — and
  therefore never emitted — when no fault plan is attached;
* ``reduce`` — the coordinator's end-of-pass merge (emitted per pass).

All span ids, timestamps and attribute orders are pure functions of the
mining run, so two runs under different ``PYTHONHASHSEED`` values
produce identical span streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.cluster.stats import NodeStats

#: NodeStats counter names, in declaration order (the delta schema).
STAT_FIELDS: tuple[str, ...] = tuple(spec.name for spec in fields(NodeStats))

#: Phase taxonomy rendered by ``repro-trace`` (legend order).
PHASES: tuple[str, ...] = ("scan", "extend", "probe", "comm", "faults", "reduce")


def stats_snapshot(stats: NodeStats) -> tuple[int, ...]:
    """The counters of one node as a fixed-order tuple."""
    return tuple(getattr(stats, name) for name in STAT_FIELDS)


def snapshot_delta(
    before: tuple[int, ...], after: tuple[int, ...]
) -> dict[str, int]:
    """Non-zero counter movements between two snapshots, schema order."""
    return {
        name: after[position] - before[position]
        for position, name in enumerate(STAT_FIELDS)
        if after[position] != before[position]
    }


def component_times(delta: dict[str, int], cost) -> dict[str, float]:
    """Decompose a counter delta into the phase taxonomy's durations.

    The mapping mirrors ``CostModel.node_time`` term by term, so the
    components of a node's deltas always sum to its priced pass time.
    """
    get = delta.get
    return {
        "scan": get("io_items", 0) * cost.io_item,
        "extend": get("extend_items", 0) * cost.extend_item,
        "probe": (
            get("probes", 0) * cost.probe
            + get("increments", 0) * cost.increment
            + get("itemsets_generated", 0) * cost.generate_itemset
        ),
        "comm": (
            get("bytes_sent", 0) * cost.byte_send
            + get("bytes_received", 0) * cost.byte_recv
            + (get("messages_sent", 0) + get("messages_received", 0)) * cost.message
        ),
        "faults": (
            get("fault_retries", 0) * cost.message
            + get("fault_retry_bytes", 0) * cost.byte_send
            + get("fault_rescan_items", 0) * cost.io_item
            + get("fault_restored_bytes", 0) * cost.byte_recv
            + get("fault_dup_bytes", 0) * cost.byte_recv
            + get("fault_reassigned_candidates", 0) * cost.reduce_candidate
            + get("fault_backoff_units", 0) * cost.fault_backoff_unit
            + get("fault_stall_units", 0) * cost.fault_stall_unit
        ),
    }


@dataclass(eq=False)
class SpanRecord:
    """One closed span of simulated time (identity semantics: two
    distinct spans are never equal, whatever their fields)."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attrs: dict[str, object] = field(default_factory=dict)
    delta: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        rendered = "".join(f" {key}={self.attrs[key]}" for key in sorted(self.attrs))
        return (
            f"<span {self.name} #{self.span_id} "
            f"[{self.start:.6f}..{self.end:.6f}]{rendered}>"
        )


@dataclass
class SpanLog:
    """Bounded in-memory store of closed spans.

    Mirrors :class:`~repro.cluster.trace.SimulationTrace`'s memory
    contract: beyond ``limit`` spans are dropped and only ``dropped``
    keeps growing.
    """

    limit: int = 100_000
    spans: list[SpanRecord] = field(default_factory=list)
    dropped: int = 0

    def append(self, span: SpanRecord) -> None:
        if len(self.spans) < self.limit:
            self.spans.append(span)
        else:
            self.dropped += 1

    def named(self, name: str) -> list[SpanRecord]:
        return [span for span in self.spans if span.name == name]

    def top(self, count: int = 10) -> list[SpanRecord]:
        """The ``count`` longest spans (ties broken by span id)."""
        ranked = sorted(self.spans, key=lambda span: (-span.duration, span.span_id))
        return ranked[:count]
