"""H-HPGM — Hierarchical Hash Partitioned mining (§3.3).

The paper's key idea: partition candidates by the hash of their **root
itemset**.  A candidate and every one of its ancestor candidates share
the same root combination, so they land on the same node — counting a
k-itemset "and all its ancestor candidates" (Figure 5, lines 12/16) is
then entirely local.  On the wire, only the transaction's *lowest
large* items travel (3 items instead of HPGM's 18 in the running
example), once per destination node.

Per pass:

1. rewrite each local transaction to its lowest-large form t′
   (Figure 5, line 8);
2. find the root combinations t′ can realise, keep those that own at
   least one (non-duplicated) candidate, and send each owning node the
   fragment t″ of items in that combination's trees (lines 9–14);
3. the owner generates k-itemsets from t″ and counts each together with
   its ancestor candidates, once per transaction (lines 12/16);
4. per-node large determination, small coordinator reduce (lines 19–22).

The duplication variants (TGD/PGD/FGD) subclass this and override
:meth:`HHPGM._select_duplicates`; duplicated candidates are removed
from the partitions, counted locally on every node against the full t′
(Figures 7/9/11, line 8.1), and reduced at the coordinator.
"""

from __future__ import annotations

from repro.cluster.stats import PassStats
from repro.core.candidates import candidate_item_universe
from repro.core.counting import build_closure_table
from repro.core.itemsets import Itemset
from repro.faults.recovery import RecoveryProfile
from repro.parallel.allocation import (
    partition_candidates_by_root,
    root_key,
)
from repro.parallel.base import ParallelMiner
from repro.perf.executor import execute_per_node
from repro.perf.workers import HHPGMScanTask, apply_stats, hhpgm_scan
from repro.taxonomy.ops import closest_large_ancestors


class HHPGM(ParallelMiner):
    """Root-itemset hash partitioning; no duplication."""

    name = "H-HPGM"

    #: Scan phase routes transaction fragments (sends), receive phase
    #: drains and counts; all sends precede all drains within a pass.
    pass_protocol: tuple[str, ...] = ("begin_pass", "send*", "drain*", "finish_pass")

    def fault_profile(self) -> RecoveryProfile:
        return RecoveryProfile(
            placement="root-hash",
            description="a lost node loses whole candidate subtrees "
            "(all candidates sharing its root combinations); the full "
            "root partition is reassigned",
        )

    def _after_pass_one(self) -> None:
        # Lowest-large rewrite table (Figure 5, line 8); L1 is fixed for
        # the whole run, so the table is too.
        self._replacement = closest_large_ancestors(self.taxonomy, self._large_items)

    def _select_duplicates(
        self,
        k: int,
        candidates: list[Itemset],
        owner_of: dict[Itemset, int],
        partition_sizes: list[int],
        chains: dict[int, tuple[int, ...]],
    ) -> set[Itemset]:
        """Hook for the skew-handling subclasses; plain H-HPGM copies nothing."""
        return set()

    def _copies_all(self, candidates: list[Itemset]) -> bool:
        """Will :meth:`_select_duplicates` select all of ``candidates``?

        Then no candidate stays in a partition, and the pass skips the
        root-key placement that the selection would not read.
        """
        return False

    def _run_pass(
        self,
        k: int,
        candidates: list[Itemset],
        threshold: int,
    ) -> tuple[dict[Itemset, int], PassStats]:
        cluster = self.cluster
        num_nodes = cluster.num_nodes
        network = cluster.network
        node_stats = cluster.begin_pass()
        root_of = self.root_of

        universe = candidate_item_universe(candidates)
        chains = build_closure_table(self._full_index, self._large_items, universe)
        if self._copies_all(candidates):
            partitions, owners = [[] for _ in range(num_nodes)], {}
        else:
            partitions, owners = partition_candidates_by_root(
                candidates, root_of, num_nodes
            )
        owner_of = {
            candidate: node
            for node, partition in enumerate(partitions)
            for candidate in partition
        }

        duplicated = self._select_duplicates(
            k,
            candidates,
            owner_of,
            [len(partition) for partition in partitions],
            chains,
        )
        if duplicated:
            partitions = [
                [c for c in partition if c not in duplicated]
                for partition in partitions
            ]
            active_keys = {
                root_key(candidate, root_of)
                for partition in partitions
                for candidate in partition
            }
        else:
            # Without duplication every owned key keeps its candidates,
            # so the owner map's keys ARE the active keys.
            active_keys = set(owners)

        # An item needs shipping to a node only when some candidate still
        # RESIDENT there can use it as a witness — i.e. the item's
        # ancestor chain meets that partition's item universe.  Items
        # whose hot candidates were all duplicated are counted locally
        # and stop travelling ("support counting for frequent candidates
        # can be locally processed, which further reduces the
        # communication overhead", §5).  Every node derives this filter
        # from the broadcast L_{k-1}, so no coordination is needed.
        useful_for: list[set[int]] = []
        for partition in partitions:
            partition_universe = candidate_item_universe(partition)
            useful_for.append(
                {
                    item
                    for item in self._large_items
                    if not partition_universe.isdisjoint(chains.get(item, (item,)))
                }
            )

        # Every pass-k counter index is built once, here: one per
        # partition (it also absorbs the receive phase) and one for the
        # duplicated set, in candidate order (which is sorted: the
        # candidates come sorted from apriori-gen, and the ancestor
        # filter keeps their order).  Each node's scan counts into
        # zeroed replicas of them and hands back tallies, so the per-node
        # work is the counting itself; the index build and the fold are
        # paid once per pass.
        counting = self.counting
        part_counters = [
            counting.root_keyed_counter(partition, k, chains, root_of)
            for partition in partitions
        ]
        dup_counter = None
        if duplicated:
            copied = (
                candidates
                if len(duplicated) == len(candidates)
                else [c for c in candidates if c in duplicated]
            )
            dup_counter = counting.root_keyed_counter(copied, k, chains, root_of)
        for node, partition in zip(cluster.nodes, partitions):
            node.charge_candidates(len(partition) + len(duplicated))

        # Scan phase: rewrite, count duplicates locally, route fragments.
        # Each node's scan is a pure worker; local-fragment hits come
        # back as a counter tally, remote fragments as an ordered send
        # list replayed here so traces and receive charges match a
        # serial run.
        tasks = [
            HHPGMScanTask(
                disk=node.disk,
                replacement=self._replacement,
                root_of=root_of,
                owners=owners,
                active_keys=frozenset(active_keys),
                useful_for=tuple(frozenset(useful) for useful in useful_for),
                partition=part_counters[node.node_id],
                duplicated=dup_counter,
                k=k,
                me=node.node_id,
                dedup=counting.dedup,
            )
            for node in cluster.nodes
        ]
        results = execute_per_node(cluster.config, hhpgm_scan, tasks)
        for node, scan in zip(cluster.nodes, results):
            with self.obs.node_span("scan", node):
                me = node.node_id
                stats = node.stats
                apply_stats(stats, scan.stats)
                part_counters[me].absorb(scan.local)
                for dest, fragment in scan.sends:
                    network.send(me, dest, fragment, stats, node_stats[dest])

        # Receive phase: count each node's routed fragments against its
        # partition, as one batch.
        for node in cluster.nodes:
            with self.obs.node_span("deliver", node):
                part_counters[node.node_id].add_transactions(
                    network.drain(node.node_id)
                )

        # Fold counter telemetry into the node stats.  A node's share of
        # the duplicated-set counting is its own tally's.
        for node, scan in zip(cluster.nodes, results):
            with self.obs.node_span("count", node):
                stats = node.stats
                counter = part_counters[node.node_id]
                stats.probes += counter.probes
                stats.itemsets_generated += counter.generated
                stats.increments += counter.hits
                if scan.duplicated is not None:
                    stats.probes += scan.duplicated.probes
                    stats.itemsets_generated += scan.duplicated.generated
                    stats.increments += scan.duplicated.hits

        # Large determination: local for partitions; the duplicated set
        # is reduced at the coordinator — every node's tally absorbed
        # into the one index, folded once.
        large: dict[Itemset, int] = {}
        reduced = 0
        for counter in part_counters:
            local_large = {
                itemset: count
                for itemset, count in sorted(counter.counts.items())
                if count >= threshold
            }
            reduced += len(local_large)
            large.update(local_large)
        if dup_counter is not None:
            for scan in results:
                dup_counter.absorb(scan.duplicated)
            reduced += len(duplicated) * num_nodes
            large.update(
                {
                    itemset: count
                    for itemset, count in sorted(dup_counter.counts.items())
                    if count >= threshold
                }
            )

        pass_stats = cluster.finish_pass(
            k=k,
            num_candidates=len(candidates),
            num_large=len(large),
            reduced_counts=reduced,
            duplicated_candidates=len(duplicated),
        )
        return large, pass_stats
