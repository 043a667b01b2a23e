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
from dataclasses import fields

import pytest

from repro.cluster.disk import LocalDisk
from repro.core.counting import (
    AncestorClosureCounter,
    RootKeyedClosureCounter,
    SupportCounter,
    build_closure_table,
)
from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.parallel.allocation import build_root_table
from repro.perf import kernels
from repro.perf.config import CountingConfig
from repro.perf.kernels import (
    CandidateTrie,
    FastAncestorClosureCounter,
    FastRootKeyedClosureCounter,
    FastSupportCounter,
    vertical_support_counts,
)
from repro.perf.preprocess import ExtensionCache, RewriteCache, dedup_with_weights
from repro.perf.workers import Pass1Task, pass1_scan
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


class TestBatchMetering:
    """One ``add_transactions`` batch reports exactly what per-fragment
    counting reports: the k == 2 metrics read off the batch's
    co-occurrence product (numpy) or per mask (pure Python) equal the
    per-fragment calls and the naive per-key enumeration."""

    @staticmethod
    def _counters(paper_taxonomy, rng, k):
        candidates = random_candidates(rng, k, 30)
        universe = {item for c in candidates for item in c}
        chains = build_closure_table(
            AncestorIndex(paper_taxonomy), PAPER_LARGE_ITEMS, universe
        )
        root_of = build_root_table(paper_taxonomy)
        return (
            lambda: FastRootKeyedClosureCounter(candidates, k, chains, root_of),
            lambda: RootKeyedClosureCounter(candidates, k, chains, root_of),
        )

    @staticmethod
    def _fragments(rng):
        fragments = random_transactions(rng, 120, tuple(sorted(PAPER_LARGE_ITEMS)))
        # Too short to count, and filtering to an empty mask.
        return fragments + [(), (5,), (98, 99), (3, 98)]

    @staticmethod
    def _figures(counter, total):
        return (
            total,
            counter.counts,
            counter.probes,
            counter.generated,
            counter.hits,
        )

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("weight", [1, 3])
    @pytest.mark.parametrize("numpy_path", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_equals_per_fragment_and_naive(
        self, paper_taxonomy, monkeypatch, k, weight, numpy_path, seed
    ):
        if not numpy_path:
            monkeypatch.setattr(kernels, "_np", None)
        elif kernels._np is None:
            pytest.skip("numpy not installed")
        else:
            # Small product blocks, so the metering and the fold both
            # sum over several of them.
            monkeypatch.setattr(kernels, "_PRODUCT_ROWS", 7)
        rng = random.Random(6000 * k + seed)
        fast, naive = self._counters(paper_taxonomy, rng, k)
        fragments = self._fragments(rng)

        batched = fast()
        total = batched.add_transactions(fragments, weight)
        if k == 2 and numpy_path:
            # One bit-row matrix: the increments wait as one vector.
            assert batched._vector is not None and not batched._pending
        elif k == 2:
            # Every distinct mask meters in one call and waits to fold.
            assert len(batched._pending) >= 16
        per_fragment = fast()
        per_total = sum(
            per_fragment.add_transaction(fragment, weight) * weight
            for fragment in fragments
        )
        reference = naive()
        naive_total = reference.add_transactions(fragments, weight)
        expected = self._figures(reference, naive_total)
        assert self._figures(per_fragment, per_total) == expected
        assert self._figures(batched, total) == expected
        assert total == sum(reference.counts.values()) > 0

    @pytest.mark.parametrize("numpy_path", [True, False])
    def test_weight_past_float32_exactness(
        self, paper_taxonomy, monkeypatch, numpy_path
    ):
        # An odd weight of 2**24 + 1 makes every entry of the product
        # inexact in float32; the float64 product must be taken instead.
        if not numpy_path:
            monkeypatch.setattr(kernels, "_np", None)
        elif kernels._np is None:
            pytest.skip("numpy not installed")
        rng = random.Random(6100)
        fast, _ = self._counters(paper_taxonomy, rng, 2)
        fragments = self._fragments(rng)
        weight = (1 << 24) + 1
        heavy, single = fast(), fast()
        total = heavy.add_transactions(fragments, weight)
        single_total = single.add_transactions(fragments)
        assert total == single_total * weight
        assert heavy.counts == {c: n * weight for c, n in single.counts.items()}
        assert (heavy.probes, heavy.generated, heavy.hits) == (
            single.probes * weight,
            single.generated * weight,
            single.hits * weight,
        )

    def test_empty_and_unmatched_batches(self, paper_taxonomy):
        fast, naive = self._counters(paper_taxonomy, random.Random(6200), 2)
        counter = fast()
        assert counter.add_transactions([]) == 0
        assert counter.add_transactions([(), (5,), (98, 99)]) == 0
        assert (counter.probes, counter.generated, counter.hits) == (0, 0, 0)
        assert not counter._pending and counter._vector is None
        assert naive().add_transactions([(98, 99)]) == 0


class TestPassOneScan:
    """Pass 1 by row bitsets (fast kernel) counts and charges exactly
    what the row-by-row ancestor extension does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_vertical_equals_row_loop(self, paper_taxonomy, seed):
        rng = random.Random(7000 + seed)
        pool = ITEMS + (40, 41)  # 40 and 41 are not in the taxonomy
        rows = [
            tuple(sorted(rng.sample(pool, rng.randint(0, 7))))
            for _ in range(rng.randint(1, 400))
        ]
        rows += rng.choices(rows, k=len(rows)) + [(), ()]
        rng.shuffle(rows)
        index = AncestorIndex(paper_taxonomy)
        outcomes = []
        for counting in (
            CountingConfig(),
            CountingConfig.naive(),
            CountingConfig(kernel="naive", dedup=True),
        ):
            disk = LocalDisk(TransactionDatabase(rows))
            result = pass1_scan(Pass1Task(disk=disk, index=index, counting=counting))
            stats = {
                spec.name: getattr(result.stats, spec.name)
                for spec in fields(result.stats)
            }
            outcomes.append((result.counts, stats))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        counts, stats = outcomes[0]
        assert counts[40] + counts[41] > 0 and stats["probes"] > 0


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
            # The replicas' vectors are summed; no mask is left to fold.
            assert index._vector is not None and not index._pending
        assert index.counts == single.counts
        assert (index.probes, index.generated, index.hits) == (
            single.probes,
            single.generated,
            single.hits,
        )
        assert index.hits == sum(single.counts.values())

    @pytest.mark.parametrize("numpy_path", [True, False])
    @pytest.mark.parametrize("weight", [1, 3, (1 << 31) // 100, (1 << 31) // 25])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_vector_tallies_equal_one_counter_and_naive(
        self, paper_taxonomy, monkeypatch, numpy_path, weight, seed
    ):
        if not numpy_path:
            monkeypatch.setattr(kernels, "_np", None)
        elif kernels._np is None:
            pytest.skip("numpy not installed")
        else:
            monkeypatch.setattr(kernels, "_PRODUCT_ROWS", 16)
        rng = random.Random(4100 + seed)
        candidates = sorted(set(random_candidates(rng, 2, 30)) | {(1, 2)})
        universe = {item for c in candidates for item in c}
        chains = build_closure_table(
            AncestorIndex(paper_taxonomy), PAPER_LARGE_ITEMS, universe
        )
        root_of = build_root_table(paper_taxonomy)
        fragments = random_transactions(rng, 120, tuple(sorted(PAPER_LARGE_ITEMS)))
        # 120 rows that hit (1, 2) through their ancestors: at weight
        # 2**31 // 100 each node's batch (under 100 rows) fits int32 and
        # the summed count of (1, 2) does not; at 2**31 // 25 each
        # node's batch needs int64.  (98, 99) is outside the taxonomy
        # and the candidates: an all-zero row.
        fragments += [(9, 15)] * 120 + [(98, 99), (3, 98)]
        rng.shuffle(fragments)
        batches = [fragments[node::4] for node in range(4)]

        single = FastRootKeyedClosureCounter(candidates, 2, chains, root_of)
        single_total = sum(single.add_transactions(b, weight) for b in batches)

        index = FastRootKeyedClosureCounter(candidates, 2, chains, root_of)
        replica_totals = []
        for node, batch in enumerate(batches):
            source = pickle.loads(pickle.dumps(index)) if node % 2 else index
            replica = source.replica()
            replica_totals.append(replica.add_transactions(batch, weight))
            tally = replica.tally()
            if numpy_path:
                assert tally.vector is not None and not tally.pending
                rows = sum(len(fragment) >= 2 for fragment in batch)
                wide = rows * weight >= 1 << 31
                assert wide == (weight == (1 << 31) // 25)
                assert tally.vector.dtype == (
                    kernels._np.int64 if wide else kernels._np.int32
                )
                assert sum(tally.vector.tolist()) == tally.hits
            else:
                assert tally.vector is None and tally.pending
            index.absorb(pickle.loads(pickle.dumps(tally)))

        # The naive counter loops per occurrence: run it at weight 1.
        naive = RootKeyedClosureCounter(candidates, 2, chains, root_of)
        naive_total = naive.add_transactions(fragments)
        expected = (
            {c: n * weight for c, n in naive.counts.items()},
            naive.probes * weight,
            naive.generated * weight,
            naive.hits * weight,
        )
        for counter in (single, index):
            assert (
                counter.counts, counter.probes, counter.generated, counter.hits
            ) == expected
        assert single_total == sum(replica_totals) == naive_total * weight > 0
        assert (index.counts[(1, 2)] >= 1 << 31) == (weight > 3)

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
