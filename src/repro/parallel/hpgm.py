"""HPGM — Hash Partitioned Generalized association rule Mining (§3.2).

Candidates are hash-partitioned over the nodes (like HPA for flat
rules), which exploits the aggregate memory — but the hierarchy is
ignored.  During the scan each node extends its transactions with every
candidate-referenced ancestor, enumerates **all** k-itemsets of the
extended transaction, and ships each one to the node owning its hash —
ancestor combinations included.  That per-itemset shipping is the
communication the paper's Table 6 shows to be two orders of magnitude
above H-HPGM's.

One message is sent per (transaction, destination) carrying that
destination's k-itemsets back to back (``len(payload) / k`` itemsets);
the receiver probes its hash table once per itemset.
"""

from __future__ import annotations

from repro.cluster.stats import PassStats
from repro.core.candidates import candidate_item_universe
from repro.core.itemsets import Itemset
from repro.faults.recovery import RecoveryProfile
from repro.parallel.allocation import (
    pair_owner_matrix,
    partition_candidates_by_itemset,
)
from repro.parallel.base import ParallelMiner
from repro.perf.executor import execute_per_node
from repro.perf.kernels import PairMaskFolder
from repro.perf.workers import HPGMScanTask, apply_stats, hpgm_scan
from repro.taxonomy.ops import AncestorIndex

class HPGM(ParallelMiner):
    """Hierarchy-oblivious hash partitioning of the candidates."""

    name = "HPGM"

    #: Scan phase ships hashed k-itemsets (sends), receive phase drains
    #: and probes; all sends precede all drains within a pass.
    pass_protocol: tuple[str, ...] = ("begin_pass", "send*", "drain*", "finish_pass")

    def fault_profile(self) -> RecoveryProfile:
        return RecoveryProfile(
            placement="itemset-hash",
            description="the dead node's hash partition — unrelated "
            "candidates scattered by itemset hash — is reassigned in full",
        )

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

        universe = candidate_item_universe(candidates)
        index = AncestorIndex(self.taxonomy, keep=universe)
        # Placement is the same pure function everywhere, so the pair
        # owner matrix is computed once per pass and shared by the
        # partitioner and every node's scan worker.
        pair_owners = (
            pair_owner_matrix(universe, num_nodes)
            if self.counting.fast and k == 2
            else None
        )
        partitions = partition_candidates_by_itemset(
            candidates, num_nodes, pair_owners
        )
        counts: list[dict[Itemset, int]] = [
            dict.fromkeys(partition, 0) for partition in partitions
        ]
        for node, partition in zip(cluster.nodes, partitions):
            node.charge_candidates(len(partition))

        # Scan phase: extend, enumerate k-itemsets, route by hash.  Each
        # node's scan is a pure worker; sends are replayed here in node
        # order so traces and receive charges match a serial run.
        tasks = [
            HPGMScanTask(
                disk=node.disk,
                index=index,
                universe=frozenset(universe),
                owned=frozenset(partitions[node.node_id]),
                k=k,
                me=node.node_id,
                num_nodes=num_nodes,
                counting=self.counting,
                pair_owners=pair_owners,
            )
            for node in cluster.nodes
        ]
        results = execute_per_node(cluster.config, hpgm_scan, tasks)
        for node, scan in zip(cluster.nodes, results):
            with self.obs.node_span("scan", node):
                me = node.node_id
                stats = node.stats
                apply_stats(stats, scan.stats)
                my_counts = counts[me]
                for subset, hits in sorted(scan.hits.items()):
                    my_counts[subset] += hits
                for dest, payload in scan.sends:
                    network.send(me, dest, payload, stats, node_stats[dest])

        # Receive phase: probe the local table for each shipped itemset.
        # Payloads repeat heavily (one per (transaction, destination)),
        # so the probe outcome per distinct payload is memoized — per
        # node, since hits depend on the receiver's candidate partition.
        for node in cluster.nodes:
            with self.obs.node_span("probe", node):
                me = node.node_id
                stats = node.stats
                my_counts = counts[me]
                # Fast k == 2 probing works on whole-batch bitmasks: a
                # batch is all pairs of one relevant set routed here, so
                # any owned pair whose items both appear in the batch is
                # in the batch — one mask per payload replaces the
                # per-pair membership tests, and the count fold is
                # deferred (see PairMaskFolder).
                folder = (
                    PairMaskFolder(my_counts)
                    if self.counting.fast and k == 2 and my_counts
                    else None
                )
                receive_memo: dict[tuple[int, ...], tuple] | None = (
                    {} if self.counting.dedup else None
                )
                for payload in network.drain(me):
                    entry = (
                        receive_memo.get(payload)
                        if receive_memo is not None
                        else None
                    )
                    if folder is not None:
                        if entry is None:
                            bit_of = folder.bit_of
                            mask = 0
                            for item in payload:
                                bit = bit_of.get(item)
                                if bit:
                                    mask |= bit
                            entry = (len(payload) // 2, mask)
                            if receive_memo is not None:
                                receive_memo[payload] = entry
                        probes, mask = entry
                        stats.probes += probes
                        if mask:
                            folder.add_mask(mask)
                        continue
                    if entry is None:
                        hit_subsets = []
                        for start in range(0, len(payload), k):
                            subset = payload[start : start + k]
                            if subset in my_counts:
                                hit_subsets.append(subset)
                        entry = ((len(payload) + k - 1) // k, tuple(hit_subsets))
                        if receive_memo is not None:
                            receive_memo[payload] = entry
                    probes, hit_subsets = entry
                    stats.probes += probes
                    stats.increments += len(hit_subsets)
                    for subset in hit_subsets:
                        my_counts[subset] += 1
                if folder is not None:
                    # The fold returns exactly the increments the naive
                    # per-batch probe loop would have accumulated.
                    stats.increments += folder.fold()

        large: dict[Itemset, int] = {}
        reduced = 0
        for per_node in counts:
            local_large = {
                itemset: count
                for itemset, count in sorted(per_node.items())
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
