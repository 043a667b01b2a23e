"""Duplicate-set selection for the skew-handling variants (§3.4).

When ``|Ck|`` is smaller than the machine's aggregate memory, the
H-HPGM partitions leave free slots on every node.  The three variants
fill that free space with the most frequently occurring candidates —
copied to *all* nodes so their counting needs no communication — at
three grains:

* **Tree grain (TGD)** — whole root-itemset trees: all candidates whose
  root combination matches the chosen root k-itemset.
* **Path grain (PGD)** — a frequent *lowest-level* candidate plus all
  of its ancestor candidates.
* **Fine grain (FGD)** — a frequent candidate of *any* level plus its
  ancestor candidates.

Selection is greedy in descending frequency (scored by the pass-1 item
supports, which is the information the paper sorts on in Examples 3–5),
constrained so every node can still hold its partition share plus the
whole duplicated set: ``max_n |Ck^n| + |Ck^D| <= M``.  Groups that no
longer fit are skipped and smaller ones keep being tried — "so that the
memory space is used fully".
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Mapping

from repro.core.itemsets import Itemset
from repro.parallel.allocation import ancestor_closure, group_by_root_key
from repro.taxonomy.hierarchy import Taxonomy


class GreedyPacker:
    """Tracks partition sizes and the duplicated-set size during selection.

    Parameters
    ----------
    partition_sizes:
        ``|Ck^n|`` per node before any duplication.
    memory:
        Per-node slot budget; ``None`` means unbounded (every group
        fits).
    """

    def __init__(self, partition_sizes: list[int], memory: int | None):
        self._sizes = list(partition_sizes)
        self._memory = memory
        # Upper bound on max(self._sizes).  Sizes only shrink, so it
        # stays a bound after every accept; a failed check rescans the
        # nodes and tightens it to the exact largest partition.
        self._peak_bound = max(self._sizes, default=0)
        self.duplicated: set[Itemset] = set()

    def try_add(self, members: list[tuple[Itemset, int]]) -> bool:
        """Duplicate a group of (candidate, owner) pairs if it fits.

        Members already duplicated are ignored; the group is accepted
        atomically (the paper copies a whole tree / path / closure, not
        a prefix of one).  The group fits when the largest partition
        after removing it, plus the grown duplicated set, is within the
        budget; the running bound decides that without a scan whenever
        it can.
        """
        fresh = [(c, owner) for c, owner in members if c not in self.duplicated]
        if not fresh:
            return False
        memory = self._memory
        if memory is not None:
            new_dup = len(self.duplicated) + len(fresh)
            if self._peak_bound + new_dup > memory:
                removed: Counter[int] = Counter(owner for _, owner in fresh)
                sizes = self._sizes
                peak = max(
                    size - removed.get(node, 0) for node, size in enumerate(sizes)
                )
                # Nodes outside the group keep their size, so the exact
                # largest partition is the larger of the peak and the
                # group's owners before removal.
                self._peak_bound = max(peak, max(sizes[node] for node in removed))
                if peak + new_dup > memory:
                    return False
        for candidate, owner in fresh:
            self.duplicated.add(candidate)
            self._sizes[owner] -= 1
        return True


def everything_fits(candidates: Collection[Itemset], memory: int | None) -> bool:
    """Would the greedy packer accept every group of ``candidates``?

    Yes when all of ``Ck`` fits in ``M``.  A node's remaining partition
    holds only candidates not yet duplicated, so after any group the
    largest partition plus the duplicated set is at most ``|Ck|``.  TGD
    and FGD groups cover every candidate, so their selection is then
    all of ``Ck``.
    """
    return memory is None or len(candidates) <= memory


def _itemset_score(itemset: Itemset, item_counts: Mapping[int, int]) -> int:
    """Frequency score: sum of the members' pass-1 supports.

    The sum favours itemsets built from overall-popular items, which is
    both what the paper's Examples 3–5 sort on and — measured on the
    scaled workloads — what best drains the hot node: duplicating many
    candidates that *share* the hot items empties the hot keys' item
    universes, whereas a min-based upper-bound score scatters the picks
    across keys and leaves the hot keys populated.
    """
    return sum(item_counts.get(item, 0) for item in itemset)


def lowest_large_items(large_items: Collection[int], taxonomy: Taxonomy) -> set[int]:
    """Large items closest to the bottom: those with no large descendant."""
    covered: set[int] = set()
    for item in large_items:
        if item in taxonomy:
            covered.update(taxonomy.ancestors(item))
    return {item for item in large_items if item not in covered}


def select_tree_grain(
    candidates: list[Itemset],
    root_of: Mapping[int, int],
    owner_of: Mapping[Itemset, int],
    item_counts: Mapping[int, int],
    partition_sizes: list[int],
    memory: int | None,
) -> set[Itemset]:
    """TGD: duplicate whole root-itemset trees, most frequent roots first."""
    if everything_fits(candidates, memory):
        return set(candidates)
    groups = group_by_root_key(candidates, root_of)
    ordered = sorted(
        groups,
        key=lambda key: (-_itemset_score(key, item_counts), key),
    )
    packer = GreedyPacker(partition_sizes, memory)
    for key in ordered:
        packer.try_add([(c, owner_of[c]) for c in groups[key]])
    return packer.duplicated


def select_path_grain(
    candidates: list[Itemset],
    owner_of: Mapping[Itemset, int],
    item_counts: Mapping[int, int],
    chains: Mapping[int, tuple[int, ...]],
    lowest_items: Collection[int],
    partition_sizes: list[int],
    memory: int | None,
) -> set[Itemset]:
    """PGD: duplicate frequent lowest-level candidates plus their ancestors."""
    candidate_set = set(candidates)
    lowest = set(lowest_items)
    eligible = [c for c in candidates if all(item in lowest for item in c)]
    eligible.sort(key=lambda c: (-_itemset_score(c, item_counts), c))
    packer = GreedyPacker(partition_sizes, memory)
    for candidate in eligible:
        group = [(candidate, owner_of[candidate])] + [
            (ancestor, owner_of[ancestor])
            for ancestor in sorted(ancestor_closure(candidate, candidate_set, chains))
        ]
        packer.try_add(group)
    return packer.duplicated


def select_fine_grain(
    candidates: list[Itemset],
    owner_of: Mapping[Itemset, int],
    item_counts: Mapping[int, int],
    chains: Mapping[int, tuple[int, ...]],
    partition_sizes: list[int],
    memory: int | None,
) -> set[Itemset]:
    """FGD: duplicate frequent candidates of any level plus their ancestors."""
    if everything_fits(candidates, memory):
        return set(candidates)
    candidate_set = set(candidates)
    ordered = sorted(candidates, key=lambda c: (-_itemset_score(c, item_counts), c))
    packer = GreedyPacker(partition_sizes, memory)
    for candidate in ordered:
        group = [(candidate, owner_of[candidate])] + [
            (ancestor, owner_of[ancestor])
            for ancestor in sorted(ancestor_closure(candidate, candidate_set, chains))
        ]
        packer.try_add(group)
    return packer.duplicated
