"""Unit tests for repro.core.candidates."""

import random
from itertools import combinations

import pytest

from repro.core.candidates import (
    apriori_gen,
    candidate_item_universe,
    filter_ancestor_pairs,
    generate_candidates,
    referenced_ancestors,
)
from repro.core.itemsets import has_ancestor_pair
from repro.errors import MiningError


class TestAprioriGen:
    def test_classic_join(self):
        large = [(1,), (2,), (3,)]
        assert apriori_gen(large, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_prune_removes_unsupported_subsets(self):
        # {1,2},{1,3} join to {1,2,3}, but {2,3} is not large -> pruned.
        large = [(1, 2), (1, 3)]
        assert apriori_gen(large, 3) == []

    def test_three_itemset_generation(self):
        large = [(1, 2), (1, 3), (2, 3)]
        assert apriori_gen(large, 3) == [(1, 2, 3)]

    def test_four_itemsets(self):
        large = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert apriori_gen(large, 4) == [(1, 2, 3, 4)]

    def test_four_itemsets_pruned(self):
        # Missing (2,3,4): the join result (1,2,3,4) must be pruned.
        large = [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
        assert apriori_gen(large, 4) == []

    def test_empty_input(self):
        assert apriori_gen([], 2) == []

    def test_invalid_k(self):
        with pytest.raises(MiningError):
            apriori_gen([(1,)], 1)

    def test_wrong_itemset_size_rejected(self):
        with pytest.raises(MiningError):
            apriori_gen([(1, 2)], 2)

    def test_output_sorted_and_unique(self):
        large = [(i,) for i in range(10)]
        out = apriori_gen(large, 2)
        assert out == sorted(set(out))
        assert len(out) == 45


class TestAncestorFilter:
    def test_pairs_with_ancestors_removed(self, paper_taxonomy):
        candidates = [(4, 10), (1, 10), (9, 10), (10, 15)]
        kept = filter_ancestor_pairs(candidates, paper_taxonomy)
        assert kept == [(9, 10), (10, 15)]

    def test_generate_candidates_applies_filter_at_k2(self, paper_taxonomy):
        large = [(1,), (4,), (10,), (15,)]
        candidates = generate_candidates(large, 2, paper_taxonomy)
        assert (1, 4) not in candidates
        assert (4, 10) not in candidates
        assert (1, 10) not in candidates
        assert (10, 15) in candidates
        assert (1, 15) in candidates

    def test_no_taxonomy_keeps_all(self):
        large = [(1,), (2,)]
        assert generate_candidates(large, 2, None) == [(1, 2)]

    def test_k3_not_filtered_explicitly(self, paper_taxonomy):
        # For k > 2 the subset prune handles ancestor pairs; the
        # explicit filter only applies at pass 2.
        large = [(9, 10), (9, 11), (10, 11)]
        assert generate_candidates(large, 3, paper_taxonomy) == [(9, 10, 11)]


def join_and_prune(large_prev, k):
    """The textbook apriori-gen: join on (k-2)-prefixes, prune by subsets."""
    large_set = set(large_prev)
    by_prefix = {}
    for itemset in sorted(large_set):
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    candidates = []
    for prefix, tails in sorted(by_prefix.items()):
        for a, b in combinations(tails, 2):
            candidate = prefix + (a, b)
            if all(
                candidate[:drop] + candidate[drop + 1 :] in large_set
                for drop in range(k)
            ):
                candidates.append(candidate)
    return sorted(candidates)


class TestAgainstTheJoinPath:
    """C2 straight from the L1 pairs, and the pair-set ancestor filter,
    equal the join path and a per-candidate ``has_ancestor_pair``."""

    # 40-42 are not in the paper taxonomy.
    POOL = tuple(range(1, 16)) + (40, 41, 42)

    @pytest.mark.parametrize("seed", range(10))
    def test_pass_two(self, paper_taxonomy, seed):
        rng = random.Random(300 + seed)
        large = [(item,) for item in rng.sample(self.POOL, rng.randint(0, 12))]
        rng.shuffle(large)
        joined = join_and_prune(large, 2)
        assert apriori_gen(large, 2) == joined
        expected = [c for c in joined if not has_ancestor_pair(c, paper_taxonomy)]
        assert filter_ancestor_pairs(joined, paper_taxonomy) == expected
        assert generate_candidates(large, 2, paper_taxonomy) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_pass_three(self, paper_taxonomy, seed):
        rng = random.Random(400 + seed)
        pairs = sorted(
            {tuple(sorted(rng.sample(self.POOL, 2))) for _ in range(rng.randint(3, 40))}
        )
        candidates = apriori_gen(pairs, 3)
        assert candidates == join_and_prune(pairs, 3)
        expected = [c for c in candidates if not has_ancestor_pair(c, paper_taxonomy)]
        assert filter_ancestor_pairs(candidates, paper_taxonomy) == expected

    def test_filter_drops_at_both_k(self, paper_taxonomy):
        candidates = [(1, 10), (9, 40), (4, 9, 15)]
        assert filter_ancestor_pairs(candidates, paper_taxonomy) == [(9, 40)]


class TestUniverseHelpers:
    def test_candidate_item_universe(self):
        assert candidate_item_universe([(1, 2), (2, 3)]) == {1, 2, 3}

    def test_referenced_ancestors(self, paper_taxonomy):
        # 4 and 6 are interior; 10 and 15 are leaves; 99 is unknown.
        ancestors = referenced_ancestors([(4, 15), (6, 10), (10, 99)], paper_taxonomy)
        assert ancestors == {4, 6}
