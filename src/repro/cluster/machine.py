"""The :class:`Cluster`: nodes + network + pass bookkeeping.

A cluster is built from a transaction database (partitioned evenly over
the nodes' local disks, as in the paper's experiments, or from explicit
per-node partitions for skew ablations).  The parallel algorithms drive
it in bulk-synchronous passes:

1. :meth:`begin_pass` resets every node's counters;
2. the algorithm scans disks, probes tables and exchanges messages
   through :attr:`network`, charging everything to the node stats;
3. :meth:`finish_pass` prices the counters through the cost model and
   appends a :class:`~repro.cluster.stats.PassStats` snapshot.

The coordinator is not a distinguished node — matching the paper, its
reduce/broadcast work is priced separately by the cost model and added
to the pass time.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from collections.abc import Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.disk import TransactionSource
from repro.cluster.invariants import verify_pass_invariants
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.stats import NodeStats, PassStats
from repro.datagen.corpus import TransactionDatabase
from repro.datagen.partition import partition_evenly
from repro.errors import ClusterError
from repro.faults.recovery import FaultController
from repro.store import StoreView, open_store, write_store


def _spill(partitions: Sequence[TransactionDatabase]) -> tuple[str, list[StoreView]]:
    """Write partitions, in node order, to a new temporary store.

    Returns the store's directory and one view per partition over its
    own contiguous row range.
    """
    directory = tempfile.mkdtemp(prefix="repro-spill-")
    try:
        write_store((row for partition in partitions for row in partition), directory)
        store = open_store(directory, verify=False)
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    views = []
    start = 0
    for partition in partitions:
        stop = start + len(partition)
        views.append(store.view(start=start, stop=stop))
        start = stop
    return directory, views


class Cluster:
    """A simulated shared-nothing machine loaded with data.

    When the config selects the ``process`` executor and the partitions
    are plain in-memory databases, they are spilled once to a private
    temporary store (:func:`~repro.store.writer.write_store`, in node
    order) and each node's disk scans a
    :class:`~repro.store.reader.StoreView` over its own rows, as a
    store-backed cluster does.  Worker tasks then carry a path + row
    range handle rather than a pickled partition.  The writer
    normalises rows exactly as the database does, so results and
    statistics are identical either way.  :meth:`close` removes the
    directory; a finalizer removes it if ``close`` is never called.
    """

    def __init__(self, config: ClusterConfig, partitions: Sequence[TransactionSource]):
        if len(partitions) != config.num_nodes:
            raise ClusterError(
                f"{len(partitions)} partitions for {config.num_nodes} nodes"
            )
        self.config = config
        self.trace = None
        #: Optional :class:`repro.obs.telemetry.Telemetry` (duck-typed;
        #: this module never imports ``repro.obs``).
        self.telemetry = None
        self._remove_spill = None
        if (
            getattr(config, "executor", "serial") == "process"
            and partitions
            and all(isinstance(p, TransactionDatabase) for p in partitions)
        ):
            directory, partitions = _spill(partitions)
            self._remove_spill = weakref.finalize(
                self, shutil.rmtree, directory, ignore_errors=True
            )
        self.nodes: list[Node] = [
            Node(node_id, partition, config)
            for node_id, partition in enumerate(partitions)
        ]
        self.network = Network(
            num_nodes=config.num_nodes,
            item_bytes=config.item_bytes,
            header_bytes=config.message_header_bytes,
        )
        #: Optional :class:`repro.faults.recovery.FaultController`,
        #: built when the config carries a fault plan.
        self.faults = (
            FaultController(config.faults, self) if config.faults is not None else None
        )
        self.network.faults = self.faults

    @classmethod
    def from_database(
        cls,
        config: ClusterConfig,
        database: TransactionDatabase,
    ) -> "Cluster":
        """Even horizontal partitioning, the paper's data placement."""
        return cls(config, partition_evenly(database, config.num_nodes))

    @classmethod
    def from_store(cls, config: ClusterConfig, store) -> "Cluster":
        """Load an on-disk :class:`~repro.store.reader.TransactionStore`.

        Each node gets a strided view (``start=node_id,
        step=num_nodes``) — row-for-row the same placement as
        :func:`~repro.datagen.partition.partition_evenly`, so store-
        backed runs produce byte-identical digests to list-backed ones.
        The views are what worker tasks carry: a path + range handle
        that re-opens the mmap inside the worker, no row data pickled.
        """
        views = [
            store.view(start=node_id, step=config.num_nodes)
            for node_id in range(config.num_nodes)
        ]
        return cls(config, views)

    def close(self) -> None:
        """Remove the spill directory, if the partitions were spilled."""
        if self._remove_spill is not None:
            self._remove_spill()

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def num_transactions(self) -> int:
        return sum(len(node.disk) for node in self.nodes)

    def attach_trace(self, trace) -> None:
        """Attach a :class:`~repro.cluster.trace.SimulationTrace`.

        Subsequent sends and pass boundaries are recorded on it.  When a
        telemetry object is (or later gets) attached, the trace keeps
        receiving every event through it — attach order does not matter.
        """
        if self.telemetry is not None:
            self.telemetry.attach_trace(trace)
            return
        self._set_trace_hook(trace)

    def attach_telemetry(self, telemetry) -> None:
        """Attach a :class:`~repro.obs.telemetry.Telemetry`.

        The telemetry becomes the cluster's trace hook (hot paths keep
        their single ``is None`` check), adopts the cost model, and is
        fed per-node statistics at every pass boundary.
        """
        telemetry.bind(self)
        if self.trace is not None and self.trace is not telemetry:
            telemetry.attach_trace(self.trace)
        self.telemetry = telemetry
        self._set_trace_hook(telemetry)

    def _set_trace_hook(self, hook) -> None:
        self.trace = hook
        self.network.trace = hook
        for node in self.nodes:
            node.trace = hook

    # ------------------------------------------------------------------
    # Pass lifecycle
    # ------------------------------------------------------------------
    def begin_pass(self) -> list[NodeStats]:
        """Reset all node counters; returns them in node order."""
        if self.trace is not None:
            self.trace.record("pass-begin")
        self.network.start_pass()
        snapshots = [node.begin_pass() for node in self.nodes]
        if self.telemetry is not None:
            self.telemetry.on_begin_pass()
        # Fault injection runs last so recovery charges land after the
        # telemetry baselines reset — the recovery tax is then priced
        # into the pass's first region span, never lost.
        if self.faults is not None:
            self.faults.on_begin_pass()
        return snapshots

    def finish_pass(
        self,
        k: int,
        num_candidates: int,
        num_large: int,
        reduced_counts: int,
        duplicated_candidates: int = 0,
        fragments: int = 1,
    ) -> PassStats:
        """Price the pass and snapshot its statistics.

        Parameters
        ----------
        k:
            Pass number (itemset size).
        num_candidates:
            ``|Ck|`` cluster-wide.
        num_large:
            ``|Lk|`` found this pass.
        reduced_counts:
            (candidate, node) count pairs the coordinator merged — the
            reduce volume differs per algorithm (NPGM reduces every
            candidate from every node; the partitioned algorithms reduce
            only duplicated candidates plus per-node large sets).
        duplicated_candidates:
            ``|Ck^D|`` for the duplication variants.
        fragments:
            NPGM's ⌈|Ck| / M⌉ scan repetitions.
        """
        if self.network.total_pending() != 0:
            raise ClusterError("finish_pass with undelivered messages")
        if self.config.check_invariants:
            verify_pass_invariants(
                self.network,
                self.nodes,
                self.config.memory_per_node,
                k,
                trace=self.trace,
            )
        cost = self.config.cost
        node_times = [cost.node_time(node.stats) for node in self.nodes]
        coordinator = cost.coordinator_time(
            reduced_counts, num_large * self.config.num_nodes
        )
        pass_stats = PassStats(
            k=k,
            num_candidates=num_candidates,
            num_large=num_large,
            nodes=[node.stats for node in self.nodes],
            node_times=node_times,
            coordinator_time=coordinator,
            elapsed=(max(node_times) if node_times else 0.0) + coordinator,
            duplicated_candidates=duplicated_candidates,
            fragments=fragments,
        )
        if self.faults is not None:
            self.faults.on_finish_pass(pass_stats)
        if self.telemetry is not None:
            self.telemetry.on_finish_pass(pass_stats, reduced_counts)
        if self.trace is not None:
            self.trace.record(
                "pass-end",
                k=k,
                candidates=num_candidates,
                large=num_large,
                elapsed=pass_stats.elapsed,
            )
        return pass_stats

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={self.num_nodes}, "
            f"transactions={self.num_transactions}, "
            f"memory_per_node={self.config.memory_per_node})"
        )
