"""NPA — Non-Partitioned Apriori ([SK96]; Count-Distribution style).

Candidates replicated on every node; each node counts its local
partition; the coordinator reduces all counts.  When the candidates
exceed one node's memory they are fragmented and the partition is
re-scanned per fragment — NPGM's behaviour, minus the hierarchy.
"""

from __future__ import annotations

import math

from repro.cluster.stats import PassStats
from repro.core.counting import SupportCounter
from repro.core.itemsets import Itemset
from repro.flat.base import FlatParallelMiner


class NPA(FlatParallelMiner):
    """Replicated candidates, local counting, fragmenting re-scans."""

    name = "NPA"

    def _run_pass(
        self,
        k: int,
        candidates: list[Itemset],
        threshold: int,
    ) -> tuple[dict[Itemset, int], PassStats]:
        cluster = self.cluster
        cluster.begin_pass()
        memory = cluster.config.memory_per_node
        fragments = (
            1 if memory is None else max(1, math.ceil(len(candidates) / memory))
        )

        total: dict[Itemset, int] = {}
        for node in cluster.nodes:
            stats = node.stats
            counter = SupportCounter(candidates, k)
            for transaction in node.disk.scan(stats):
                counter.add_transaction(transaction)
            stats.io_items *= fragments
            stats.io_scans = fragments
            stats.itemsets_generated = counter.generated * fragments
            stats.probes = counter.probes * fragments
            stats.increments = sum(counter.counts.values())
            node.charge_candidates(
                len(candidates) if memory is None else min(len(candidates), memory)
            )
            for itemset, count in counter.counts.items():
                if count:
                    total[itemset] = total.get(itemset, 0) + count

        large = {
            itemset: count for itemset, count in total.items() if count >= threshold
        }
        pass_stats = cluster.finish_pass(
            k=k,
            num_candidates=len(candidates),
            num_large=len(large),
            reduced_counts=len(candidates) * cluster.num_nodes,
            fragments=fragments,
        )
        return large, pass_stats
