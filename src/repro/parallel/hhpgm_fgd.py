"""H-HPGM-FGD — Fine Grain Duplicate (§3.4.3).

The finest grain: candidates of *any* level are ranked by frequency and
the hottest ones are copied together with their ancestor candidates
(Example 5 copies ``{4,8} {4,6} {6,8}`` and their ancestors).  Only
genuinely frequent itemsets are duplicated — no whole trees, no
leaf-driven guesses — so the free space turns into load balance most
effectively; the paper finds FGD the best performer across the whole
minimum-support range (Figures 14–16).
"""

from __future__ import annotations

from repro.core.itemsets import Itemset
from repro.faults.recovery import RecoveryProfile
from repro.parallel.duplication import everything_fits, select_fine_grain
from repro.parallel.hhpgm import HHPGM


class HHPGMFineGrain(HHPGM):
    """H-HPGM with any-level frequent-itemset duplication."""

    name = "H-HPGM-FGD"

    #: Same wire protocol as H-HPGM — duplication only changes *what*
    #: is counted locally, never the pass structure.
    pass_protocol: tuple[str, ...] = ("begin_pass", "send*", "drain*", "finish_pass")

    def fault_profile(self) -> RecoveryProfile:
        return RecoveryProfile(
            placement="root-hash+fine-dup",
            replicates_duplicates=True,
            description="duplicated hot itemsets are restored from any "
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
        with self.obs.span("duplicate-select", grain="fine", k=k):
            return select_fine_grain(
                candidates=candidates,
                owner_of=owner_of,
                item_counts=self._item_counts,
                chains=chains,
                partition_sizes=partition_sizes,
                memory=self.cluster.config.memory_per_node,
            )
