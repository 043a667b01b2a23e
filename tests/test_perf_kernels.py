"""Equivalence of the fast trie kernels with the naive reference kernels.

The probe-preservation contract (``docs/performance.md``): for every
input sequence, a fast counter must report exactly the same ``counts``,
``probes``, ``generated`` and per-call return values as its naive
counterpart.  The suite drives all three counter classes with seeded
random candidate sets and transactions for k ∈ {2, 3, 4}, with and
without memoization, plus dedup-weighting runs on corpora with heavy
transaction repetition.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.counting import (
    AncestorClosureCounter,
    RootKeyedClosureCounter,
    SupportCounter,
    build_closure_table,
)
from repro.errors import MiningError
from repro.parallel.allocation import build_root_table
from repro.perf import kernels
from repro.perf.kernels import (
    CandidateTrie,
    FastAncestorClosureCounter,
    FastRootKeyedClosureCounter,
    FastSupportCounter,
    vertical_support_counts,
)
from repro.perf.preprocess import ExtensionCache, RewriteCache, dedup_with_weights
from repro.taxonomy.builder import taxonomy_from_parents
from repro.taxonomy.ops import AncestorIndex

from tests.conftest import PAPER_LARGE_ITEMS

ITEMS = tuple(range(1, 16))  # the paper taxonomy's item ids


def random_candidates(rng: random.Random, k: int, count: int) -> list[tuple[int, ...]]:
    pool = {tuple(sorted(rng.sample(ITEMS, k))) for _ in range(count)}
    return sorted(pool)


def random_transactions(
    rng: random.Random, count: int, items: tuple[int, ...] = ITEMS
) -> list[tuple[int, ...]]:
    out = []
    for _ in range(count):
        size = rng.randint(0, min(8, len(items)))
        out.append(tuple(sorted(rng.sample(items, size))))
    # Heavy repetition, like a synthetic corpus.
    out.extend(rng.choices(out, k=count))
    rng.shuffle(out)
    return out


def assert_equivalent(naive, fast, transactions) -> None:
    for transaction in transactions:
        assert naive.add_transaction(transaction) == fast.add_transaction(
            transaction
        ), transaction
    assert fast.counts == naive.counts
    assert fast.probes == naive.probes
    assert fast.generated == naive.generated


class TestCandidateTrie:
    def test_contained_exact(self):
        trie = CandidateTrie([(1, 2), (2, 3), (1, 4), (3, 9)], 2)
        assert sorted(trie.contained((1, 2, 3))) == [(1, 2), (2, 3)]
        assert trie.contained((1,)) == []
        assert trie.contained(()) == []
        assert sorted(trie.contained(tuple(range(1, 10)))) == [
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 9),
        ]

    def test_each_candidate_once(self):
        candidates = [(1, 2, 3), (1, 2, 5), (2, 3, 5)]
        trie = CandidateTrie(candidates, 3)
        hits = trie.contained((1, 2, 3, 5))
        assert sorted(hits) == candidates
        assert len(hits) == len(set(hits))

    def test_rejects_wrong_arity(self):
        with pytest.raises(MiningError):
            CandidateTrie([(1, 2, 3)], 2)
        with pytest.raises(MiningError):
            CandidateTrie([], 0)


class TestFastSupportCounter:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equivalent_to_naive_dict(self, k, memoize, seed):
        rng = random.Random(1000 * k + seed)
        candidates = random_candidates(rng, k, 25)
        naive = SupportCounter(candidates, k, strategy="dict")
        fast = FastSupportCounter(candidates, k, memoize=memoize)
        assert_equivalent(naive, fast, random_transactions(rng, 60))

    def test_empty_candidates(self):
        fast = FastSupportCounter([], 2)
        assert fast.add_transaction((1, 2, 3)) == 0
        assert fast.probes == 0 and fast.generated == 0

    def test_weight_scales_counts_and_metrics(self):
        reference = FastSupportCounter([(1, 2), (2, 3)], 2)
        weighted = FastSupportCounter([(1, 2), (2, 3)], 2)
        for _ in range(5):
            reference.add_transaction((1, 2, 3))
        weighted.add_transaction((1, 2, 3), weight=5)
        assert weighted.counts == reference.counts
        assert weighted.probes == reference.probes
        assert weighted.generated == reference.generated


class TestFastClosureCounters:
    def _setup(self, paper_taxonomy, rng, k, count):
        candidates = random_candidates(rng, k, count)
        universe = {item for c in candidates for item in c}
        index = AncestorIndex(paper_taxonomy)
        chains = build_closure_table(index, PAPER_LARGE_ITEMS, universe)
        return candidates, chains

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_ancestor_closure_equivalent(self, paper_taxonomy, k, memoize, seed):
        rng = random.Random(2000 * k + seed)
        candidates, chains = self._setup(paper_taxonomy, rng, k, 20)
        naive = AncestorClosureCounter(candidates, k, chains)
        fast = FastAncestorClosureCounter(candidates, k, chains, memoize=memoize)
        fragments = random_transactions(rng, 60, tuple(sorted(PAPER_LARGE_ITEMS)))
        assert_equivalent(naive, fast, fragments)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_root_keyed_equivalent(self, paper_taxonomy, k, memoize, seed):
        rng = random.Random(3000 * k + seed)
        candidates, chains = self._setup(paper_taxonomy, rng, k, 20)
        root_of = build_root_table(paper_taxonomy)
        naive = RootKeyedClosureCounter(candidates, k, chains, root_of)
        fast = FastRootKeyedClosureCounter(
            candidates, k, chains, root_of, memoize=memoize
        )
        fragments = random_transactions(rng, 60, tuple(sorted(PAPER_LARGE_ITEMS)))
        assert_equivalent(naive, fast, fragments)

    def test_root_keyed_empty_fragment_groups(self, paper_taxonomy):
        # A fragment whose items all filter out must not move metrics.
        candidates = [(9, 10)]
        chains = build_closure_table(
            AncestorIndex(paper_taxonomy), PAPER_LARGE_ITEMS, {9, 10}
        )
        root_of = build_root_table(paper_taxonomy)
        fast = FastRootKeyedClosureCounter(candidates, 2, chains, root_of)
        assert fast.add_transaction((7, 8)) == 0
        assert fast.probes == 0


class TestReplicaContract:
    """Per-node replicas absorbed into one index equal one counter fed
    every fragment — the contract H-HPGM's coordinator reduce relies on."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "kernel,numpy_fold", [("naive", None), ("fast", True), ("fast", False)]
    )
    def test_absorbed_tallies_equal_one_counter(
        self, paper_taxonomy, monkeypatch, k, kernel, numpy_fold
    ):
        if numpy_fold is False:
            monkeypatch.setattr(kernels, "_np", None)
        elif numpy_fold and kernels._np is None:
            pytest.skip("numpy not installed")
        rng = random.Random(4000 + k)
        candidates = random_candidates(rng, k, 30)
        universe = {item for c in candidates for item in c}
        chains = build_closure_table(
            AncestorIndex(paper_taxonomy), PAPER_LARGE_ITEMS, universe
        )
        root_of = build_root_table(paper_taxonomy)
        cls = {"naive": RootKeyedClosureCounter, "fast": FastRootKeyedClosureCounter}[
            kernel
        ]
        fragments = random_transactions(rng, 200, tuple(sorted(PAPER_LARGE_ITEMS)))

        single = cls(candidates, k, chains, root_of)
        for fragment in fragments:
            single.add_transaction(fragment)

        index = cls(candidates, k, chains, root_of)
        tallies = []
        for node in range(4):
            # Odd nodes count behind a pickle round trip, as under the
            # process executor.
            source = pickle.loads(pickle.dumps(index)) if node % 2 else index
            replica = source.replica()
            for fragment in fragments[node::4]:
                replica.add_transaction(fragment)
            tallies.append(replica.tally())
        assert (index.probes, index.generated, index.hits) == (0, 0, 0)
        for tally in tallies:
            index.absorb(tally)
        if numpy_fold and k == 2:
            assert len(index._pending) >= 16  # the numpy fold path runs
        assert index.counts == single.counts
        assert (index.probes, index.generated, index.hits) == (
            single.probes,
            single.generated,
            single.hits,
        )
        assert index.hits == sum(single.counts.values())

    @pytest.mark.parametrize(
        "cls", [RootKeyedClosureCounter, FastRootKeyedClosureCounter]
    )
    def test_pickle_keeps_the_tally(self, paper_taxonomy, cls):
        candidates = [(5, 6), (6, 10), (1, 2), (4, 6)]
        chains = build_closure_table(
            AncestorIndex(paper_taxonomy), PAPER_LARGE_ITEMS, {1, 2, 4, 5, 6, 10}
        )
        counter = cls(candidates, 2, chains, build_root_table(paper_taxonomy))
        counter.add_transaction((5, 6, 10))
        restored = pickle.loads(pickle.dumps(counter))
        assert restored.tally() == counter.tally()
        assert restored.counts == counter.counts


class TestVerticalSupportCounts:
    """The refresh maintainer's row-bitset kernel counts exactly what the
    naive counter counts over candidate-filtered ancestor extensions."""

    @staticmethod
    def naive_counts(rows, candidates, k, taxonomy):
        universe = {item for candidate in candidates for item in candidate}
        index = AncestorIndex(taxonomy, keep=universe)
        counter = SupportCounter(candidates, k, strategy="dict")
        for row in rows:
            counter.add_transaction(index.extend(row))
        return counter.counts

    @staticmethod
    def random_taxonomy(rng: random.Random, size: int):
        """A forest over items 1..size; each non-root's parent is earlier."""
        roots = rng.randint(1, 4)
        return taxonomy_from_parents(
            {
                item: None if item <= roots else rng.randint(1, item - 1)
                for item in range(1, size + 1)
            }
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalent_to_naive_over_extended_rows(self, k, seed):
        rng = random.Random(5000 * k + seed)
        size = rng.randint(6, 40)
        taxonomy = self.random_taxonomy(rng, size)
        outside = (size + 1, size + 2, size + 3)  # not in the taxonomy
        never = size + 9  # in candidates, in no row
        pool = tuple(range(1, size + 1)) + outside
        rows = [
            tuple(rng.sample(pool, rng.randint(0, min(9, len(pool)))))
            for _ in range(rng.randint(1, 300))
        ]
        rows += rng.choices(rows, k=len(rows)) + [(), ()]
        rng.shuffle(rows)
        candidates = sorted(
            {tuple(sorted(rng.sample(pool + (never,), k))) for _ in range(60)}
        )
        expected = self.naive_counts(rows, candidates, k, taxonomy)
        one_shot = (row for row in rows)
        assert vertical_support_counts(one_shot, candidates, k, taxonomy) == expected
        assert any(expected.values())

    def test_ancestors_outside_items_and_no_rows(self, paper_taxonomy):
        # 10 extends to its grandparent 4; 98 and 99 are not in the taxonomy.
        candidates = [(4, 15), (7, 99), (98, 99)]
        counts = vertical_support_counts(
            [(10, 12), (15,)], candidates, 2, paper_taxonomy
        )
        assert counts == {(4, 15): 0, (7, 99): 0, (98, 99): 0}
        counts = vertical_support_counts(
            [(10, 15), (7, 99), (98,), (12, 15, 10)], candidates, 2, paper_taxonomy
        )
        assert counts == {(4, 15): 2, (7, 99): 1, (98, 99): 0}
        assert vertical_support_counts(iter(()), candidates, 2, paper_taxonomy) == {
            candidate: 0 for candidate in candidates
        }


class TestDedupWeighting:
    """Counting each distinct transaction once at its multiplicity must
    equal counting every occurrence (the dedup pipeline's contract)."""

    def test_weights_first_occurrence_order(self):
        corpus = [(1, 2), (3, 4), (1, 2), (1, 2), (5,)]
        assert dedup_with_weights(corpus) == [((1, 2), 3), ((3, 4), 1), ((5,), 1)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_weighted_run_equals_per_occurrence_run(self, paper_taxonomy, k):
        rng = random.Random(77 + k)
        candidates = random_candidates(rng, k, 25)
        corpus = random_transactions(rng, 50)  # heavy repetition baked in
        per_occurrence = SupportCounter(candidates, k, strategy="dict")
        for transaction in corpus:
            per_occurrence.add_transaction(transaction)
        weighted = FastSupportCounter(candidates, k)
        for transaction, weight in dedup_with_weights(corpus):
            weighted.add_transaction(transaction, weight=weight)
        assert weighted.counts == per_occurrence.counts
        assert weighted.probes == per_occurrence.probes
        assert weighted.generated == per_occurrence.generated


class TestPreprocessCaches:
    def test_extension_cache_transparent(self, paper_taxonomy):
        index = AncestorIndex(paper_taxonomy)
        cache = ExtensionCache(index)
        for transaction in [(10, 12), (9,), (10, 12), ()]:
            assert cache.extend(transaction) == index.extend(transaction)

    def test_rewrite_cache_transparent(self, paper_taxonomy):
        from repro.taxonomy.ops import closest_large_ancestors, replace_with_closest_large

        table = closest_large_ancestors(paper_taxonomy, PAPER_LARGE_ITEMS)
        cache = RewriteCache(table)
        for transaction in [(10, 12, 14), (11, 13), (10, 12, 14)]:
            assert cache.rewrite(transaction) == replace_with_closest_large(
                transaction, table
            )
