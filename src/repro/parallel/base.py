"""Shared skeleton of every parallel miner.

All six algorithms share the Apriori pass structure (Section 3):

* **Pass 1** is embarrassingly parallel and identical everywhere: each
  node counts items-plus-ancestors over its local partition and the
  coordinator reduces (the paper's evaluation starts at pass 2, where
  the algorithms diverge).
* **Pass k ≥ 2** differs per algorithm only in candidate placement and
  in what crosses the interconnect; subclasses implement
  :meth:`ParallelMiner._run_pass`.

Candidate generation is performed redundantly on every node from the
broadcast ``L_{k-1}`` (as in the paper); since it is deterministic the
simulator computes it once and charges no communication for it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.cluster.machine import Cluster
from repro.cluster.stats import PassStats, RunStats
from repro.core.candidates import generate_candidates
from repro.core.itemsets import Itemset, minimum_count
from repro.core.result import MiningResult, PassResult
from repro.errors import MiningError
from repro.faults.recovery import RecoveryProfile
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.parallel.allocation import build_root_table
from repro.perf.config import CountingConfig
from repro.perf.executor import execute_per_node
from repro.perf.workers import Pass1Task, apply_stats, pass1_scan
from repro.taxonomy.hierarchy import Taxonomy
from repro.taxonomy.ops import AncestorIndex


@dataclass(frozen=True)
class ParallelRun:
    """Outcome of a parallel mining run: the answer plus the telemetry."""

    result: MiningResult
    stats: RunStats
    telemetry: Telemetry | None = None

    @property
    def algorithm(self) -> str:
        return self.stats.algorithm


class ParallelMiner(ABC):
    """Base class: pass loop, pass-1 counting, result assembly.

    Parameters
    ----------
    cluster:
        The simulated machine, already loaded with partitions.
    taxonomy:
        Classification hierarchy over the items.
    counting:
        :class:`~repro.perf.config.CountingConfig` selecting the
        counting kernels (fast trie vs naive enumeration) and the
        distinct-transaction memoization.  Defaults to
        ``CountingConfig()``.  Never changes results or statistics —
        only wall-clock time.
    """

    name = "abstract"

    #: Declared pass-1 state machine — the shared :meth:`_pass_one`
    #: skeleton never touches the network.  Checked statically by
    #: ``repro-analyze`` (protocol conformance pass) and at runtime by
    #: :mod:`repro.cluster.invariants`.
    pass1_protocol: tuple[str, ...] = ("begin_pass", "finish_pass")

    def __init__(
        self,
        cluster: Cluster,
        taxonomy: Taxonomy,
        counting: CountingConfig | None = None,
    ):
        self.cluster = cluster
        self.taxonomy = taxonomy
        self.counting = counting if counting is not None else CountingConfig()
        self.root_of = build_root_table(taxonomy)
        self._full_index = AncestorIndex(taxonomy)
        # Per-run state, populated by mine().
        self._item_counts: dict[int, int] = {}
        self._large_items: set[int] = set()

    @property
    def obs(self):
        """The cluster's telemetry, or a shared no-op stand-in.

        Miners instrument unconditionally through this handle; with no
        telemetry attached every span call is a reusable null context.
        """
        telemetry = self.cluster.telemetry
        return telemetry if telemetry is not None else NULL_TELEMETRY

    def fault_profile(self) -> RecoveryProfile:
        """What this algorithm's placement loses when a node dies.

        Subclasses override to describe their candidate placement; the
        :class:`~repro.faults.recovery.FaultController` prices crash
        recovery from it (see ``docs/fault_tolerance.md``).
        """
        return RecoveryProfile(
            placement="partitioned",
            description="full candidate partition reassigned to the standby",
        )

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def mine(self, min_support: float, max_k: int | None = None) -> ParallelRun:
        """Run the full pass loop and return result + statistics.

        Parameters
        ----------
        min_support:
            Fractional minimum support in (0, 1].
        max_k:
            Optional cap on itemset size.  The paper's evaluation
            reports pass 2 (``max_k=2``); without a cap the loop runs
            until no large itemsets remain.
        """
        num_transactions = self.cluster.num_transactions
        if num_transactions == 0:
            raise MiningError("cannot mine an empty cluster")
        threshold = minimum_count(min_support, num_transactions)

        result = MiningResult(
            min_support=min_support, num_transactions=num_transactions
        )
        run = RunStats(algorithm=self.name, num_nodes=self.cluster.num_nodes)
        obs = self.obs
        faults = self.cluster.faults
        if faults is not None:
            faults.bind_miner(self)
        obs.begin_run(self.name, self.cluster.num_nodes)

        with obs.pass_span(1):
            large_1, pass1_stats = self._pass_one(threshold)
        result.passes.append(
            PassResult(k=1, num_candidates=pass1_stats.num_candidates, large=large_1)
        )
        run.passes.append(pass1_stats)
        if faults is not None:
            faults.checkpoint_pass(1, large_1)
        self._large_items = {itemset[0] for itemset in large_1}
        self._after_pass_one()

        previous: dict[Itemset, int] = large_1
        k = 2
        while previous and (max_k is None or k <= max_k):
            candidates = generate_candidates(sorted(previous), k, self.taxonomy)
            if not candidates:
                break
            with obs.pass_span(k):
                large_k, pass_stats = self._run_pass(k, candidates, threshold)
            result.passes.append(
                PassResult(k=k, num_candidates=len(candidates), large=large_k)
            )
            run.passes.append(pass_stats)
            if faults is not None:
                faults.checkpoint_pass(k, large_k)
            previous = large_k
            k += 1

        obs.end_run(run)
        return ParallelRun(
            result=result, stats=run, telemetry=self.cluster.telemetry
        )

    # ------------------------------------------------------------------
    # Pass 1 (shared by every algorithm)
    # ------------------------------------------------------------------
    def _pass_one(self, threshold: int) -> tuple[dict[Itemset, int], PassStats]:
        """Local item+ancestor counting with a coordinator reduce."""
        self.cluster.begin_pass()
        obs = self.obs
        counting = self.counting
        tasks = [
            Pass1Task(disk=node.disk, index=self._full_index, counting=counting)
            for node in self.cluster.nodes
        ]
        results = execute_per_node(self.cluster.config, pass1_scan, tasks)
        if self.cluster.faults is not None:
            # The replay oracle: a crashed node's standby re-scans its
            # partition and must reproduce exactly these counts.
            self.cluster.faults.record_pass1([scan.counts for scan in results])
        total: dict[int, int] = {}
        reduced = 0
        for node, scan in zip(self.cluster.nodes, results):
            with obs.node_span("scan", node):
                apply_stats(node.stats, scan.stats)
                local = scan.counts
                # Pass-1 counters are chargeable like NPGM's candidates:
                # they can always be fragmented across repeated scans, so
                # at most one budget's worth is resident at a time.
                budget = self.cluster.config.memory_per_node
                node.charge_candidates(
                    len(local) if budget is None else min(len(local), budget)
                )
                reduced += len(local)
                for item, count in sorted(local.items()):
                    total[item] = total.get(item, 0) + count

        self._item_counts = total
        large_1 = {
            (item,): count for item, count in sorted(total.items()) if count >= threshold
        }
        pass_stats = self.cluster.finish_pass(
            k=1,
            num_candidates=len(total),
            num_large=len(large_1),
            reduced_counts=reduced,
        )
        return large_1, pass_stats

    def _after_pass_one(self) -> None:
        """Hook for per-run precomputation that needs ``L1`` (optional)."""

    # ------------------------------------------------------------------
    # Pass k >= 2 (algorithm-specific)
    # ------------------------------------------------------------------
    @abstractmethod
    def _run_pass(
        self,
        k: int,
        candidates: list[Itemset],
        threshold: int,
    ) -> tuple[dict[Itemset, int], PassStats]:
        """Count one pass; return the large k-itemsets and the pass stats."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.cluster.num_nodes})"
