"""Candidate generation: ``apriori-gen`` plus the hierarchy-aware filters.

``apriori-gen`` [RR94] builds candidate k-itemsets from the large
(k-1)-itemsets in two steps:

* **Join** — pairs of large (k-1)-itemsets sharing their first k-2 items
  are merged.
* **Prune** — any candidate with a (k-1)-subset that is not large is
  discarded.

Cumulate [SA95] adds two hierarchy-specific steps used by every
algorithm in the paper:

* at pass 2, drop candidates pairing an item with its own ancestor
  (their support equals the descendant's — pure redundancy);
* each pass, compute the set of ancestors still referenced by any
  candidate, so transaction extension can skip the rest ("delete any
  ancestors in T that are not present in the candidates").
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from itertools import chain, combinations

from repro.core.itemsets import Itemset
from repro.errors import MiningError
from repro.taxonomy.hierarchy import Taxonomy


def apriori_gen(large_prev: Collection[Itemset], k: int) -> list[Itemset]:
    """Generate candidate k-itemsets from the large (k-1)-itemsets.

    Parameters
    ----------
    large_prev:
        The large (k-1)-itemsets (canonical sorted tuples).
    k:
        Target itemset size (>= 2).

    Returns
    -------
    Sorted list of candidate k-itemsets after the join and subset-prune
    steps.  At k == 2 every 1-itemset shares the empty prefix and a pair
    has no subset left to prune, so the candidates are the sorted pairs
    of the large items.
    """
    if k < 2:
        raise MiningError(f"apriori_gen needs k >= 2, got {k}")
    large_set = set(large_prev)
    ordered = sorted(large_set)
    for itemset in ordered:
        if len(itemset) != k - 1:
            raise MiningError(
                f"expected ({k - 1})-itemsets, got {itemset!r}"
            )
    if k == 2:
        return list(combinations([itemset[0] for itemset in ordered], 2))

    # Join: group by (k-2)-prefix; merge every ordered pair within a group.
    by_prefix: dict[Itemset, list[int]] = {}
    for itemset in ordered:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])

    candidates: list[Itemset] = []
    for prefix, tails in sorted(by_prefix.items()):
        for a, b in combinations(tails, 2):
            candidate = prefix + (a, b)
            if _all_subsets_large(candidate, large_set, k):
                candidates.append(candidate)
    candidates.sort()
    return candidates


def _all_subsets_large(candidate: Itemset, large_set: set[Itemset], k: int) -> bool:
    """Prune step: every (k-1)-subset of the candidate must be large.

    The two subsets obtained by dropping one of the last two items are
    the join operands themselves, so only the remaining k-2 subsets are
    checked.
    """
    for drop in range(k - 2):
        subset = candidate[:drop] + candidate[drop + 1 :]
        if subset not in large_set:
            return False
    return True


def filter_ancestor_pairs(
    candidates: Collection[Itemset],
    taxonomy: Taxonomy,
) -> list[Itemset]:
    """Drop candidates containing both an item and one of its ancestors.

    Cumulate applies this at pass 2 only: for k > 2 the prune step
    already removes such candidates because their 2-subsets were never
    large candidates.  The (item, ancestor) pairs among the candidates'
    items are collected once, as sorted pairs, and a candidate is
    dropped when one of its item pairs is among them — what
    :func:`~repro.core.itemsets.has_ancestor_pair` decides per
    candidate.
    """
    universe = candidate_item_universe(candidates)
    related = {
        (item, ancestor) if item < ancestor else (ancestor, item)
        for item in universe
        if item in taxonomy
        for ancestor in taxonomy.ancestors(item)
        if ancestor in universe
    }
    return [
        c
        for c in candidates
        if (c not in related if len(c) == 2 else related.isdisjoint(combinations(c, 2)))
    ]


def generate_candidates(
    large_prev: Collection[Itemset],
    k: int,
    taxonomy: Taxonomy | None = None,
) -> list[Itemset]:
    """Full per-pass candidate generation as every algorithm runs it.

    ``apriori-gen`` join + prune, then (pass 2, with a taxonomy) the
    ancestor-pair filter.
    """
    candidates = apriori_gen(large_prev, k)
    if k == 2 and taxonomy is not None:
        candidates = filter_ancestor_pairs(candidates, taxonomy)
    return candidates


def candidate_item_universe(candidates: Iterable[Itemset]) -> set[int]:
    """Every item referenced by at least one candidate."""
    return set(chain.from_iterable(candidates))


def referenced_ancestors(
    candidates: Iterable[Itemset],
    taxonomy: Taxonomy,
) -> set[int]:
    """Interior items that transaction extension must still add.

    Implements "delete any ancestors in T that are not present in any of
    the candidates": only candidate-referenced items can ever complete a
    candidate, so they are the only ancestors worth adding to a
    transaction.
    """
    return {
        item
        for item in candidate_item_universe(candidates)
        if item in taxonomy and not taxonomy.is_leaf(item)
    }
