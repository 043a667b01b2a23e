"""Refresh driver: delta → checkpoint → snapshot → ``CURRENT`` pointer.

The driver owns a refresh **root** directory::

    root/
      log/                    append-only delta log (repro.refresh.log)
      snapshots/snap-NNNNN.jsonl   one snapshot per published delta
      state.json              checkpoint (config + miner counters)
      CURRENT                 pointer to the live snapshot (written last)

:meth:`RefreshDriver.ingest` runs the publish protocol in a strict,
crash-safe order:

1. **append** the delta to the log (delta store durable, log manifest
   replaced atomically);
2. **apply** it to the incremental miner (one pass over the new and
   expiring rows, window scan only for borderline promotions);
3. **checkpoint** the miner to ``state.json`` (atomic replace) —
   from here the delta is accepted;
4. **purge** expired delta files (their counts are checkpointed out);
5. **publish**: compile the window's rules into a versioned
   :mod:`repro.serve` snapshot, write it atomically, then flip the
   ``CURRENT`` pointer — the manifest-last commit.

Every artifact write is atomic, so a crash between any two steps leaves
a prefix of the protocol on disk.  :meth:`RefreshDriver.open` recovers
by replaying log deltas past the checkpoint (their files are still
present — purge runs only after the checkpoint that covers them) and
re-publishing deterministically: the republished snapshot is
byte-identical to what the crashed run would have published, so a
reader of ``CURRENT`` sees either the previous snapshot or the new one,
complete, and nothing else ever.

``refresh.*`` metrics land in the shared registry and ``refresh-*``
events in the event sink, mirroring the serving tier's conventions.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterable
from itertools import chain
from pathlib import Path

from repro.core.cumulate import cumulate
from repro.core.result import MiningResult
from repro.core.rules import generate_rules
from repro.errors import StoreFormatError
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import EventSink
from repro.perf.config import CountingConfig
from repro.refresh.delta import DeltaStats, IncrementalMiner
from repro.refresh.log import DeltaRecord, TransactionLog
from repro.serve.snapshot import (
    RuleSnapshot,
    compile_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.store.atomic import atomic_write_json
from repro.taxonomy.hierarchy import Taxonomy

#: Checkpoint schema tag (the root's ``state.json``).
DRIVER_SCHEMA = "repro.refresh.state/v1"

#: ``CURRENT`` pointer schema tag.
POINTER_SCHEMA = "repro.refresh.current/v1"

STATE_NAME = "state.json"
CURRENT_NAME = "CURRENT"
SNAPSHOT_DIR = "snapshots"

#: Crash-injection stages, in protocol order (see repro.faults.refresh).
STAGES: tuple[str, ...] = (
    "after-append",
    "after-apply",
    "after-checkpoint",
    "before-pointer",
)


def snapshot_name(index: int) -> str:
    """Canonical snapshot file name for delta ``index``."""
    return f"snap-{index:05d}.jsonl"


def window_source(
    log: TransactionLog,
    delta_index: int,
    min_support: float,
    min_confidence: float,
    max_k: int | None,
) -> dict:
    """The snapshot ``source`` record for one published window.

    Shared by the driver's publish step and every batch verifier
    (``repro-refresh run --verify``, the chaos harness): byte equality
    of incremental and batch snapshots requires the header's source to
    be derived from the window alone.
    """
    start, end = log.window_bounds()
    return {
        "refresh_delta": delta_index,
        "txn_start": start,
        "txn_end": end,
        "window_rows": log.window_rows,
        "min_support": min_support,
        "min_confidence": min_confidence,
        "max_k": max_k,
    }


def read_pointer(root: str | Path) -> dict | None:
    """Load the ``CURRENT`` pointer, or ``None`` when nothing published."""
    pointer_path = Path(root) / CURRENT_NAME
    if not pointer_path.exists():
        return None
    try:
        pointer = json.loads(pointer_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreFormatError(
            f"{pointer_path}: pointer is not JSON: {exc}"
        ) from exc
    if pointer.get("schema") != POINTER_SCHEMA:
        raise StoreFormatError(
            f"{pointer_path}: schema {pointer.get('schema')!r} "
            f"(this reader understands {POINTER_SCHEMA!r})"
        )
    return pointer


def current_snapshot(root: str | Path) -> RuleSnapshot | None:
    """Load (and digest-verify) the snapshot ``CURRENT`` points at."""
    pointer = read_pointer(root)
    if pointer is None:
        return None
    return load_snapshot(Path(root) / pointer["snapshot"])


class RefreshDriver:
    """Continuous refresh over one root directory (see module doc)."""

    def __init__(
        self,
        root: Path,
        log: TransactionLog,
        miner: IncrementalMiner,
        min_confidence: float,
        applied_through: int,
        counting: CountingConfig,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        injector: Callable[[str], None] | None = None,
    ):
        self.root = root
        self.log = log
        self.miner = miner
        self.min_confidence = min_confidence
        self.applied_through = applied_through
        self.counting = counting
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink
        self._injector = injector

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        taxonomy: Taxonomy,
        min_support: float,
        min_confidence: float = 0.5,
        max_k: int | None = None,
        window_deltas: int = 8,
        counting: CountingConfig | None = None,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        injector: Callable[[str], None] | None = None,
    ) -> "RefreshDriver":
        """Initialise an empty refresh root (refuses an existing one)."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / STATE_NAME).exists():
            raise StoreFormatError(
                f"{root} already holds refresh state; use RefreshDriver.open"
            )
        counting = counting if counting is not None else CountingConfig()
        log = TransactionLog.create(
            root / "log", taxonomy, window_deltas=window_deltas
        )
        miner = IncrementalMiner(
            taxonomy, min_support, max_k=max_k, counting=counting
        )
        driver = cls(
            root,
            log,
            miner,
            min_confidence,
            applied_through=-1,
            counting=counting,
            registry=registry,
            sink=sink,
            injector=injector,
        )
        driver._checkpoint()
        return driver

    @classmethod
    def open(
        cls,
        root: str | Path,
        counting: CountingConfig | None = None,
        registry: MetricsRegistry | None = None,
        sink: EventSink | None = None,
        injector: Callable[[str], None] | None = None,
    ) -> "RefreshDriver":
        """Open an existing root, recovering any interrupted ingest.

        Recovery replays log deltas past the checkpoint (their rows —
        including the rows they evicted — are still on disk because
        purge only runs after the covering checkpoint), re-checkpoints,
        then re-publishes when ``CURRENT`` trails the applied state.
        All three steps are deterministic, so recovery converges to the
        bytes the interrupted run would have produced.
        """
        root = Path(root)
        state_path = root / STATE_NAME
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StoreFormatError(
                f"{state_path}: not a refresh root: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise StoreFormatError(
                f"{state_path}: checkpoint is not JSON: {exc}"
            ) from exc
        if state.get("schema") != DRIVER_SCHEMA:
            raise StoreFormatError(
                f"{state_path}: schema {state.get('schema')!r} "
                f"(this reader understands {DRIVER_SCHEMA!r})"
            )
        counting = counting if counting is not None else CountingConfig()
        log = TransactionLog.open(root / "log")
        miner = IncrementalMiner.from_payload(
            state["miner"], log.taxonomy, counting=counting
        )
        driver = cls(
            root,
            log,
            miner,
            float(state["min_confidence"]),
            applied_through=int(state["applied_through"]),
            counting=counting,
            registry=registry,
            sink=sink,
            injector=injector,
        )
        driver._recover()
        return driver

    # ------------------------------------------------------------------
    @property
    def taxonomy(self) -> Taxonomy:
        return self.log.taxonomy

    def _crash(self, stage: str) -> None:
        if self._injector is not None:
            self._injector(stage)

    def _emit(self, type_: str, **payload) -> None:
        if self.sink is not None:
            self.sink.emit(type_, **payload)

    def _checkpoint(self) -> None:
        payload = {
            "schema": DRIVER_SCHEMA,
            "applied_through": self.applied_through,
            "min_confidence": self.min_confidence,
            "miner": self.miner.to_payload(),
        }
        # One line, no indent: json.dumps only takes its C encoder when
        # indent is None, and readers parse either layout alike.
        atomic_write_json(self.root / STATE_NAME, payload, indent=None)

    # ------------------------------------------------------------------
    def ingest(self, transactions: Iterable[Iterable[int]]) -> dict:
        """Append one delta, fold it in, and republish (see module doc)."""
        record, evicted = self.log.append(transactions)
        self._emit(
            "refresh-append",
            delta=record.index,
            rows=record.rows,
            evicts=list(record.evicts),
            sha256=record.sha256,
        )
        self._crash("after-append")
        stats = self._apply(record, evicted)
        self._crash("after-apply")
        self.applied_through = record.index
        self._checkpoint()
        self._crash("after-checkpoint")
        self.log.purge()
        published = self._publish(record.index)
        summary = {
            "delta": record.index,
            "rows": record.rows,
            "evicted_rows": stats.rows_evicted,
            "window_rows": self.log.window_rows,
            "promotions": stats.promotions,
            "demotions": stats.demotions,
            "rescanned": stats.rescanned,
            "tracked": stats.tracked,
            "published": published is not None,
            "version": None if published is None else published.version,
        }
        return summary

    def _apply(
        self, record: DeltaRecord, evicted: list[DeltaRecord]
    ) -> DeltaStats:
        added = self.log.rows(record)
        expiring = chain.from_iterable(
            self.log.rows(old) for old in evicted
        )
        stats = self.miner.apply_delta(added, expiring, self.log.iter_window)
        counters = self.registry
        counters.counter("refresh.deltas").inc()
        counters.counter("refresh.rows_added").inc(stats.rows_added)
        counters.counter("refresh.rows_evicted").inc(stats.rows_evicted)
        counters.counter("refresh.promotions").inc(stats.promotions)
        counters.counter("refresh.demotions").inc(stats.demotions)
        counters.counter("refresh.rescanned_candidates").inc(stats.rescanned)
        counters.gauge("refresh.window_rows").set(self.log.window_rows)
        counters.gauge("refresh.tracked_itemsets").set(stats.tracked)
        self._emit(
            "refresh-apply",
            delta=record.index,
            rows_added=stats.rows_added,
            rows_evicted=stats.rows_evicted,
            promotions=stats.promotions,
            demotions=stats.demotions,
            rescanned=stats.rescanned,
            tracked=stats.tracked,
        )
        return stats

    def _publish(self, index: int) -> RuleSnapshot | None:
        """Compile + commit the window snapshot; ``None`` on zero rules.

        A window whose rule set is empty (thresholds filtered everything
        out) publishes nothing and leaves ``CURRENT`` at the previous
        snapshot — deterministic, so recovery re-derives the same skip.
        """
        result = self.miner.result()
        rules = generate_rules(result, self.min_confidence, self.taxonomy)
        if not rules:
            self._emit("refresh-publish-skipped", delta=index, reason="no-rules")
            return None
        snapshot = compile_snapshot(
            rules,
            self.taxonomy,
            result=result,
            source=window_source(
                self.log,
                index,
                self.miner.min_support,
                self.min_confidence,
                self.miner.max_k,
            ),
        )
        relative = f"{SNAPSHOT_DIR}/{snapshot_name(index)}"
        write_snapshot(snapshot, self.root / relative)
        self._crash("before-pointer")
        atomic_write_json(
            self.root / CURRENT_NAME,
            {
                "schema": POINTER_SCHEMA,
                "delta": index,
                "snapshot": relative,
                "version": snapshot.version,
            },
        )
        self.registry.counter("refresh.publishes").inc()
        self.registry.gauge("refresh.rules").set(snapshot.num_rules)
        self._emit(
            "refresh-publish",
            delta=index,
            snapshot=relative,
            version=snapshot.version,
            rules=snapshot.num_rules,
        )
        return snapshot

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        replayed: list[int] = []
        for record in self.log.records():
            if record.index <= self.applied_through:
                continue
            evicted = [self.log.record(index) for index in record.evicts]
            self._apply(record, evicted)
            self.applied_through = record.index
            replayed.append(record.index)
        if replayed:
            self._checkpoint()
        self.log.purge()
        republished = None
        pointer = read_pointer(self.root)
        behind = pointer is None or int(pointer["delta"]) < self.applied_through
        if self.applied_through >= 0 and behind:
            republished = self._publish(self.applied_through)
        if replayed or republished is not None:
            self.registry.counter("refresh.recoveries").inc()
            self._emit(
                "refresh-recover",
                replayed=replayed,
                republished=(
                    None if republished is None else republished.version
                ),
            )

    # ------------------------------------------------------------------
    def current(self) -> RuleSnapshot | None:
        """The live snapshot (digest-verified), or ``None``."""
        return current_snapshot(self.root)

    def status(self) -> dict:
        pointer = read_pointer(self.root)
        start, end = self.log.window_bounds()
        return {
            "applied_through": self.applied_through,
            "deltas": self.log.next_index,
            "window_rows": self.log.window_rows,
            "window_deltas": len(self.log.active()),
            "txn_start": start,
            "txn_end": end,
            "min_support": self.miner.min_support,
            "min_confidence": self.min_confidence,
            "max_k": self.miner.max_k,
            "tracked_itemsets": self.miner.tracked_itemsets,
            "current": pointer,
        }

    # ------------------------------------------------------------------
    # Batch oracles (verification surface)
    # ------------------------------------------------------------------
    def batch_result(self) -> MiningResult:
        """From-scratch batch mine over the active window (the oracle)."""
        from repro.datagen.corpus import TransactionDatabase

        database = TransactionDatabase(self.log.iter_window())
        return cumulate(
            database,
            self.taxonomy,
            self.miner.min_support,
            max_k=self.miner.max_k,
            counting=self.counting,
        )

    def batch_snapshot(self) -> RuleSnapshot | None:
        """Snapshot a batch re-mine would publish for the current window."""
        result = self.batch_result()
        rules = generate_rules(result, self.min_confidence, self.taxonomy)
        if not rules:
            return None
        return compile_snapshot(
            rules,
            self.taxonomy,
            result=result,
            source=window_source(
                self.log,
                self.applied_through,
                self.miner.min_support,
                self.min_confidence,
                self.miner.max_k,
            ),
        )

    # ------------------------------------------------------------------
    def roll_forward(
        self, service, window: int = 16, seed: int = 7, max_probes: int | None = None
    ) -> dict:
        """Publish the current snapshot through a service's rolling rollout.

        Drives :meth:`~repro.serve.shard.service.ShardedService.begin_rollout`
        with seeded probe queries until the controller reaches a terminal
        state — the same shadow-compare digest gate an operator-driven
        ``POST /rollout`` uses.
        """
        snapshot = self.current()
        if snapshot is None:
            raise StoreFormatError(f"{self.root}: nothing published yet")
        controller = service.begin_rollout(snapshot, window=window)
        rng = random.Random(seed)
        leaves = list(snapshot.leaves)
        probes = 0
        budget = max_probes if max_probes is not None else window * 4
        while controller.state == "shadow" and probes < budget:
            size = min(len(leaves), 1 + rng.randrange(3))
            basket = sorted(rng.sample(leaves, size))
            service.query(basket)
            probes += 1
        status = controller.status()
        status["probes"] = probes
        self._emit(
            "refresh-rollout",
            version=snapshot.version,
            state=status["state"],
            probes=probes,
        )
        return status
