"""Unit tests for repro.core.counting."""

import random
from collections import Counter

import pytest

from repro.core.counting import (
    AncestorClosureCounter,
    SupportCounter,
    build_closure_table,
    count_items,
    feasible_sorted_multisets,
)
from repro.errors import MiningError
from repro.taxonomy.ops import AncestorIndex

from tests.conftest import PAPER_LARGE_ITEMS


class TestCountItems:
    def test_items_and_ancestors(self, paper_taxonomy):
        index = AncestorIndex(paper_taxonomy)
        counts = count_items([(10, 12)], index)
        # 10 -> {10, 4, 1}; 12 -> {12, 5, 1}; 1 deduplicated.
        assert counts == {10: 1, 4: 1, 1: 1, 12: 1, 5: 1}

    def test_accumulates_over_transactions(self, paper_taxonomy):
        index = AncestorIndex(paper_taxonomy)
        counts = count_items([(10,), (9,)], index)
        assert counts[4] == 2
        assert counts[1] == 2
        assert counts[10] == 1


class TestSupportCounter:
    def test_dict_strategy(self):
        counter = SupportCounter([(1, 2), (2, 3)], k=2)
        hits = counter.add_transaction((1, 2, 3))
        assert hits == 2
        assert counter.counts == {(1, 2): 1, (2, 3): 1}

    def test_hashtree_strategy_matches_dict(self):
        candidates = [(1, 2), (2, 3), (4, 5), (1, 5)]
        transactions = [(1, 2, 3), (1, 4, 5), (2,), ()]
        dict_counter = SupportCounter(candidates, 2, strategy="dict")
        tree_counter = SupportCounter(candidates, 2, strategy="hashtree")
        for t in transactions:
            dict_counter.add_transaction(t)
            tree_counter.add_transaction(t)
        assert dict_counter.counts == tree_counter.counts

    def test_irrelevant_items_filtered(self):
        counter = SupportCounter([(1, 2)], k=2)
        counter.add_transaction((1, 2, 50, 60, 70))
        # Only items 1 and 2 are candidate-relevant: one subset probed.
        assert counter.probes == 1
        assert counter.counts[(1, 2)] == 1

    def test_probe_and_generated_counters(self):
        counter = SupportCounter([(1, 2), (1, 3), (2, 3)], k=2)
        counter.add_transaction((1, 2, 3))
        assert counter.generated == 3
        assert counter.probes == 3

    def test_short_transaction(self):
        counter = SupportCounter([(1, 2)], k=2)
        assert counter.add_transaction((1,)) == 0

    @pytest.mark.parametrize(
        "bad",
        [{"k": 0}, {"k": 2, "strategy": "quantum"}, {"k": 2, "strategy": "auto"}],
    )
    def test_invalid_construction(self, bad):
        kwargs = {"candidates": [], "k": 2, **bad}
        with pytest.raises(MiningError):
            SupportCounter(kwargs.pop("candidates"), **kwargs)


class TestAncestorClosureCounter:
    def _chains(self, paper_taxonomy, candidates):
        index = AncestorIndex(paper_taxonomy)
        universe = {item for c in candidates for item in c}
        return build_closure_table(index, PAPER_LARGE_ITEMS, universe)

    def test_example2_counting(self, paper_taxonomy):
        # Example 2: fragment {5, 6, 10} at node 0 counts {5, 6} and
        # {6, 10} and their ancestor candidates {1, 2} {1, 6} {2, 5}
        # {2, 10} {4, 6}.
        candidates = [(5, 6), (6, 10), (1, 2), (1, 6), (2, 5), (2, 10), (4, 6)]
        counter = AncestorClosureCounter(
            candidates, 2, self._chains(paper_taxonomy, candidates)
        )
        hits = counter.add_transaction((5, 6, 10))
        assert hits == 7
        assert all(count == 1 for count in counter.counts.values())

    def test_candidate_counted_once_per_transaction(self, paper_taxonomy):
        # Items 9 and 10 share ancestor 4; candidate {4, 15} must be
        # incremented once for a transaction holding both.
        candidates = [(4, 15)]
        counter = AncestorClosureCounter(
            candidates, 2, self._chains(paper_taxonomy, candidates)
        )
        counter.add_transaction((9, 10, 15))
        assert counter.counts[(4, 15)] == 1

    def test_ancestor_pair_candidates_never_hit(self, paper_taxonomy):
        # {4, 10} pairs an item with its ancestor; Cumulate never counts
        # such candidates and the closure kernel must not either (the
        # extension contains both, but the candidate was excluded
        # upstream — here we verify a hit happens ONLY via the table).
        candidates = [(9, 10)]
        counter = AncestorClosureCounter(
            candidates, 2, self._chains(paper_taxonomy, candidates)
        )
        counter.add_transaction((9, 10))
        assert counter.counts[(9, 10)] == 1

    def test_empty_candidates_short_circuit(self, paper_taxonomy):
        counter = AncestorClosureCounter([], 2, {})
        assert counter.add_transaction((1, 2, 3)) == 0
        assert counter.probes == 0

    def test_short_fragment(self, paper_taxonomy):
        candidates = [(5, 6)]
        counter = AncestorClosureCounter(
            candidates, 2, self._chains(paper_taxonomy, candidates)
        )
        assert counter.add_transaction((5,)) == 0

    def test_universe_filter_bounds_work(self, paper_taxonomy):
        # A counter owning a single candidate must not enumerate
        # subsets of unrelated items.
        candidates = [(7, 8)]
        counter = AncestorClosureCounter(
            candidates, 2, self._chains(paper_taxonomy, candidates)
        )
        counter.add_transaction((5, 6, 9, 10, 15))
        assert counter.probes == 0

    def test_invalid_k(self):
        with pytest.raises(MiningError):
            AncestorClosureCounter([], 0, {})


class TestBuildClosureTable:
    def test_chains_filtered_to_universe(self, paper_taxonomy):
        index = AncestorIndex(paper_taxonomy)
        table = build_closure_table(index, [10], {4, 10})
        assert table[10] == (10, 4)  # root 1 not in universe -> dropped

    def test_item_always_anchored(self, paper_taxonomy):
        index = AncestorIndex(paper_taxonomy)
        table = build_closure_table(index, [10], {1})
        assert table[10] == (10, 1)


def _reference_feasible_sorted_multisets(available: Counter, k: int):
    """The pre-optimization implementation: O(k) ``prefix.count(value)``
    rescan on every extension attempt.  Kept verbatim as the oracle for
    the incremental-usage rewrite."""
    values = sorted(available)
    found = []

    def extend(prefix, start):
        if len(prefix) == k:
            found.append(tuple(prefix))
            return
        for index in range(start, len(values)):
            value = values[index]
            if prefix.count(value) < available[value]:
                prefix.append(value)
                extend(prefix, index)
                prefix.pop()

    extend([], 0)
    return found


class TestFeasibleSortedMultisets:
    def test_basic_multiset_enumeration(self):
        available = Counter({1: 2, 2: 1})
        assert feasible_sorted_multisets(available, 2) == [(1, 1), (1, 2)]

    def test_matches_reference_on_random_counters(self):
        rng = random.Random(42)
        for trial in range(60):
            size = rng.randint(0, 6)
            available = Counter(
                {rng.randint(1, 8): rng.randint(1, 3) for _ in range(size)}
            )
            for k in (1, 2, 3, 4):
                assert feasible_sorted_multisets(available, k) == (
                    _reference_feasible_sorted_multisets(available, k)
                ), (dict(available), k, trial)

    def test_empty_and_oversized(self):
        assert feasible_sorted_multisets(Counter(), 2) == []
        assert feasible_sorted_multisets(Counter({1: 1}), 3) == []
