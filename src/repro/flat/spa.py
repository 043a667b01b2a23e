"""SPA — Simply-Partitioned Apriori ([SK96]; Data-Distribution style).

Candidates are split round-robin over the nodes (exploiting aggregate
memory, no hash agreement needed), but since any node may own any
itemset of any transaction, every node must see every transaction:
each local transaction is broadcast to all other nodes.  The broadcast
is the cost the hash-based algorithms eliminate — SPA exists here as
that baseline.
"""

from __future__ import annotations

from repro.cluster.stats import PassStats
from repro.core.counting import SupportCounter
from repro.core.itemsets import Itemset
from repro.flat.base import FlatParallelMiner


class SPA(FlatParallelMiner):
    """Round-robin candidate split with full transaction broadcast."""

    name = "SPA"

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

        partitions: list[list[Itemset]] = [
            candidates[n::num_nodes] for n in range(num_nodes)
        ]
        counters = [SupportCounter(partition, k) for partition in partitions]
        for node, partition in zip(cluster.nodes, partitions):
            node.charge_candidates(len(partition))

        # Scan: count locally, broadcast the raw transaction.
        for node in cluster.nodes:
            me = node.node_id
            stats = node.stats
            counter = counters[me]
            for transaction in node.disk.scan(stats):
                counter.add_transaction(transaction)
                if len(transaction) < k:
                    continue
                for dest in range(num_nodes):
                    if dest != me:
                        network.send(
                            me, dest, transaction, stats, node_stats[dest]
                        )

        # Receive: count the broadcast transactions.
        for node in cluster.nodes:
            counter = counters[node.node_id]
            for payload in network.drain(node.node_id):
                counter.add_transaction(payload)

        large: dict[Itemset, int] = {}
        reduced = 0
        for node, counter in zip(cluster.nodes, counters):
            stats = node.stats
            stats.probes += counter.probes
            stats.itemsets_generated += counter.generated
            stats.increments += sum(counter.counts.values())
            local_large = {
                itemset: count
                for itemset, count in counter.counts.items()
                if count >= threshold
            }
            reduced += len(local_large)
            large.update(local_large)

        pass_stats = cluster.finish_pass(
            k=k,
            num_candidates=len(candidates),
            num_large=len(large),
            reduced_counts=reduced,
        )
        return large, pass_stats
