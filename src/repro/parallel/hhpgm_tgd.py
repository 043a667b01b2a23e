"""H-HPGM-TGD — Tree Grain Duplicate (§3.4.1).

Duplicates candidates in the unit of a whole root-itemset tree: the
most frequent root combinations (by the supports of their root items,
as in Example 3) are copied — with *all* their descendant candidates —
to every node, as long as each node can still hold its partition plus
the duplicated set.  The grain is coarse: whole trees are large, so at
small minimum support (little free memory) nothing fits and TGD
degenerates to plain H-HPGM — exactly the behaviour Figure 14 shows.
"""

from __future__ import annotations

from repro.core.itemsets import Itemset
from repro.faults.recovery import RecoveryProfile
from repro.parallel.duplication import everything_fits, select_tree_grain
from repro.parallel.hhpgm import HHPGM


class HHPGMTreeGrain(HHPGM):
    """H-HPGM with whole-tree duplication."""

    name = "H-HPGM-TGD"

    #: Same wire protocol as H-HPGM — duplication only changes *what*
    #: is counted locally, never the pass structure.
    pass_protocol: tuple[str, ...] = ("begin_pass", "send*", "drain*", "finish_pass")

    def fault_profile(self) -> RecoveryProfile:
        return RecoveryProfile(
            placement="root-hash+tree-dup",
            replicates_duplicates=True,
            description="duplicated trees are restored from any "
            "survivor; only the non-duplicated root partition is "
            "reassigned",
        )

    def _copies_all(self, candidates: list[Itemset]) -> bool:
        return everything_fits(candidates, self.cluster.config.memory_per_node)

    def _select_duplicates(
        self,
        k: int,
        candidates: list[Itemset],
        owner_of: dict[Itemset, int],
        partition_sizes: list[int],
        chains: dict[int, tuple[int, ...]],
    ) -> set[Itemset]:
        with self.obs.span("duplicate-select", grain="tree", k=k):
            return select_tree_grain(
                candidates=candidates,
                root_of=self.root_of,
                owner_of=owner_of,
                item_counts=self._item_counts,
                partition_sizes=partition_sizes,
                memory=self.cluster.config.memory_per_node,
            )
