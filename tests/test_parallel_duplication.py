"""Unit tests for repro.parallel.duplication."""

import random
from collections import Counter

import pytest

from repro.parallel.allocation import build_root_table
from repro.parallel import duplication
from repro.parallel.duplication import (
    GreedyPacker,
    lowest_large_items,
    select_fine_grain,
    select_path_grain,
    select_tree_grain,
)

from tests.conftest import PAPER_LARGE_ITEMS


class TestGreedyPacker:
    def test_fits_within_budget(self):
        packer = GreedyPacker([5, 5], memory=8)
        assert packer.try_add([((1, 2), 0), ((3, 4), 0)])
        # sizes become [3, 5]; dup = 2; peak 5 + 2 <= 8.
        assert packer.duplicated == {(1, 2), (3, 4)}

    def test_rejects_overflow(self):
        packer = GreedyPacker([5, 5], memory=6)
        # dup 2 + peak 5 (node 1 untouched) = 7 > 6.
        assert not packer.try_add([((1, 2), 0), ((3, 4), 0)])
        assert packer.duplicated == set()

    def test_skip_then_accept_smaller(self):
        packer = GreedyPacker([5, 5], memory=7)
        assert not packer.try_add([((1, 2), 0), ((3, 4), 0), ((5, 6), 0)])
        assert packer.try_add([((1, 2), 0), ((3, 4), 0)])

    def test_already_duplicated_members_free(self):
        packer = GreedyPacker([4, 4], memory=6)
        assert packer.try_add([((1, 2), 0)])
        assert packer.try_add([((1, 2), 0), ((3, 4), 1)])
        assert packer.duplicated == {(1, 2), (3, 4)}

    def test_fully_duplicated_group_is_noop(self):
        packer = GreedyPacker([4], memory=10)
        assert packer.try_add([((1, 2), 0)])
        assert not packer.try_add([((1, 2), 0)])

    def test_unbounded_memory_accepts_everything(self):
        packer = GreedyPacker([10**6], memory=None)
        assert packer.try_add([((i, i + 1), 0) for i in range(100)])
        assert len(packer.duplicated) == 100


class TestLowestLargeItems:
    def test_paper_example(self, paper_taxonomy):
        # Examples 4: the "lowest" large items are the large items with
        # no large descendant: {5, 7, 8, 9, 10, 15}.
        lowest = lowest_large_items(PAPER_LARGE_ITEMS, paper_taxonomy)
        assert lowest == {5, 7, 8, 9, 10, 15}

    def test_interior_with_only_small_descendants_is_lowest(self, paper_taxonomy):
        # 5's children (12, 13) are small here -> 5 is lowest.
        lowest = lowest_large_items({1, 5}, paper_taxonomy)
        assert lowest == {5}

    def test_unknown_items_kept(self, paper_taxonomy):
        assert lowest_large_items({99}, paper_taxonomy) == {99}


def _setup(paper_taxonomy):
    """Shared fixture data mirroring Examples 3-5, on a 2-node cluster.

    Root-key ownership: (1,1) and (1,2) on node 0 (10 candidates),
    (1,3) and (3,3) on node 1 (7 candidates).
    """
    root_of = build_root_table(paper_taxonomy)
    key_13 = [(8, 10), (1, 3), (1, 8), (3, 4), (3, 10), (4, 8)]
    key_11 = [(4, 5), (5, 10), (9, 10)]
    key_33 = [(7, 8)]
    key_12 = [(5, 6), (6, 10), (1, 2), (1, 6), (2, 5), (2, 10), (4, 6)]
    candidates = key_13 + key_11 + key_33 + key_12
    owner_of = {c: 0 for c in key_11 + key_12}
    owner_of.update({c: 1 for c in key_13 + key_33})
    partition_sizes = [len(key_11) + len(key_12), len(key_13) + len(key_33)]
    chains = {
        item: (item,) + paper_taxonomy.ancestors(item)
        for item in paper_taxonomy.items
    }
    # Support counts: tree 1 items hottest, like Example 3's Sup(1) order.
    item_counts = {
        1: 100, 4: 60, 5: 40, 9: 20, 10: 35,
        3: 90, 7: 25, 8: 45,
        2: 50, 6: 30, 15: 15,
    }
    return root_of, candidates, owner_of, partition_sizes, chains, item_counts


class TestTreeGrain:
    def test_hottest_tree_first(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        duplicated = select_tree_grain(
            candidates, root_of, owner_of, counts, sizes, memory=12
        )
        # Key scores: (1,1)=200, (1,3)=190, (3,3)=180, (1,2)=150.
        # M=12: (1,1) fits (peak 7+3=10); (1,3) would peak 7+9=16, skip;
        # (3,3) fits (peak 7+4=11); (1,2) would peak 6+11=17, skip.
        assert duplicated == {(4, 5), (5, 10), (9, 10), (7, 8)}

    def test_no_free_memory_duplicates_nothing(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        # Memory below the smaller partition: no tree can ever fit.
        duplicated = select_tree_grain(
            candidates, root_of, owner_of, counts, sizes, memory=7
        )
        assert duplicated == set()

    def test_unbounded_memory_duplicates_everything(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        duplicated = select_tree_grain(
            candidates, root_of, owner_of, counts, sizes, memory=None
        )
        assert duplicated == set(candidates)


class TestPathGrain:
    def test_leaf_itemset_and_ancestors(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        duplicated = select_path_grain(
            candidates, owner_of, counts, chains, lowest_items={8, 10},
            partition_sizes=sizes, memory=30,
        )
        # Example 4: the hottest lowest-level candidate {8, 10} is copied
        # with its full ancestor closure.
        assert duplicated == {(8, 10), (1, 3), (1, 8), (3, 4), (3, 10), (4, 8)}

    def test_eligibility_restricted_to_lowest_items(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        duplicated = select_path_grain(
            candidates, owner_of, counts, chains, lowest_items={7, 8},
            partition_sizes=sizes, memory=30,
        )
        assert duplicated == {(7, 8)}

    def test_paper_lowest_items_rank_8_10_first(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        lowest = lowest_large_items(PAPER_LARGE_ITEMS, paper_taxonomy)
        # {8,10} (score 80) outranks {5,10} (75), {7,8} (70), {9,10}
        # (55); with room for its whole closure it must be selected.
        duplicated = select_path_grain(
            candidates, owner_of, counts, chains, lowest,
            partition_sizes=sizes, memory=16,
        )
        assert {(8, 10), (1, 3), (1, 8), (3, 4), (3, 10), (4, 8)} <= duplicated

    def test_skipped_big_group_does_not_block_smaller(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        lowest = lowest_large_items(PAPER_LARGE_ITEMS, paper_taxonomy)
        # M=14 cannot hold the {8,10} closure (peak 16) but smaller
        # later groups still get duplicated — "use the memory fully".
        duplicated = select_path_grain(
            candidates, owner_of, counts, chains, lowest,
            partition_sizes=sizes, memory=14,
        )
        assert (8, 10) not in duplicated
        assert {(5, 10), (4, 5)} <= duplicated


class TestFineGrain:
    def test_any_level_candidates(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        duplicated = select_fine_grain(
            candidates, owner_of, counts, chains, sizes, memory=30
        )
        # Highest-scoring candidate overall is {1, 3} (score 190), an
        # interior itemset PGD could never pick directly.
        assert (1, 3) in duplicated

    def test_closure_travels_with_candidate(self, paper_taxonomy):
        root_of, candidates, owner_of, sizes, chains, counts = _setup(paper_taxonomy)
        duplicated = select_fine_grain(
            candidates, owner_of, counts, chains, sizes, memory=30
        )
        if (8, 10) in duplicated:
            assert {(1, 3), (1, 8), (3, 4), (3, 10), (4, 8)} <= duplicated


def _scan_all_nodes_try_add(sizes, duplicated, memory, members):
    """Reference packer step: rescans every node on every group."""
    fresh = [(c, owner) for c, owner in members if c not in duplicated]
    if not fresh:
        return False
    if memory is not None:
        removed = Counter(owner for _, owner in fresh)
        new_dup = len(duplicated) + len(fresh)
        peak = max(size - removed.get(node, 0) for node, size in enumerate(sizes))
        if peak + new_dup > memory:
            return False
    for candidate, owner in fresh:
        duplicated.add(candidate)
        sizes[owner] -= 1
    return True


def _random_packing(rng):
    """Random owners, overlapping groups and a memory around the fit edge."""
    nodes = rng.randint(1, 8)
    candidates = [(i, 1000 + i) for i in range(rng.randint(1, 80))]
    owner_of = {c: rng.randrange(nodes) for c in candidates}
    sizes = [0] * nodes
    for owner in owner_of.values():
        sizes[owner] += 1
    groups = []
    for _ in range(rng.randint(0, 120)):
        members = rng.sample(candidates, rng.randint(1, min(6, len(candidates))))
        groups.append([(c, owner_of[c]) for c in members])
    edge = max(sizes) + len(candidates)
    memory = rng.choice([None, rng.randint(0, edge), rng.randint(max(sizes), edge)])
    return sizes, groups, memory


class TestGreedyPackerRunningBound:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_decisions_as_full_scan(self, seed):
        rng = random.Random(seed)
        sizes, groups, memory = _random_packing(rng)
        packer = GreedyPacker(sizes, memory)
        reference_sizes, reference_dup = list(sizes), set()
        decisions = [packer.try_add(group) for group in groups]
        expected = [
            _scan_all_nodes_try_add(reference_sizes, reference_dup, memory, group)
            for group in groups
        ]
        assert decisions == expected
        assert packer.duplicated == reference_dup


def _paper_candidates(rng, paper_taxonomy, nodes):
    items = sorted(paper_taxonomy.items)
    pairs = {tuple(sorted(rng.sample(items, 2))) for _ in range(rng.randint(1, 40))}
    candidates = sorted(pairs)
    owner_of = {c: rng.randrange(nodes) for c in candidates}
    sizes = [0] * nodes
    for owner in owner_of.values():
        sizes[owner] += 1
    chains = {
        item: (item,) + paper_taxonomy.ancestors(item) for item in paper_taxonomy.items
    }
    counts = {item: rng.randint(1, 100) for item in items}
    return candidates, owner_of, sizes, chains, counts


class TestAllFitShortcut:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_greedy_at_and_around_the_edge(
        self, paper_taxonomy, monkeypatch, seed
    ):
        rng = random.Random(seed)
        candidates, owner_of, sizes, chains, counts = _paper_candidates(
            rng, paper_taxonomy, nodes=rng.randint(1, 5)
        )
        root_of = build_root_table(paper_taxonomy)

        def select_both():
            return (
                select_fine_grain(candidates, owner_of, counts, chains, sizes, memory),
                select_tree_grain(candidates, root_of, owner_of, counts, sizes, memory),
            )

        edge = len(candidates)
        for memory in (None, edge, edge + 3, edge - 1, max(sizes)):
            fine, tree = select_both()
            with monkeypatch.context() as patch:
                patch.setattr(duplication, "everything_fits", lambda *args: False)
                assert (fine, tree) == select_both()
            if memory is None or memory >= edge:
                assert fine == tree == set(candidates)
