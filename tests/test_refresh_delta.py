"""Incremental maintainer: exact equivalence with batch Cumulate.

The central property (the tentpole's correctness anchor): after **any**
sequence of deltas — including empty deltas and window-evicting ones —
the incremental miner's result equals a from-scratch batch
:func:`~repro.core.cumulate.cumulate` over the same window, itemset for
itemset, count for count.
"""

from __future__ import annotations

import pytest

from repro.core.cumulate import cumulate
from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.perf.config import CountingConfig
from repro.refresh.delta import IncrementalMiner
from repro.taxonomy.builder import taxonomy_from_parents

from tests.conftest import PAPER_PARENTS
from tests.datasets import DRIFT_MIN_SUPPORT, drifting_sequence, window_callable


def _assert_batch_equal(miner, window_rows, taxonomy, min_support, max_k=None):
    batch = cumulate(
        TransactionDatabase(window_rows), taxonomy, min_support, max_k=max_k
    )
    incremental = miner.result()
    assert incremental == batch
    # Equality above compares large itemsets; also pin the per-pass
    # candidate counts (the structure the snapshot header digests).
    assert [p.k for p in incremental.passes] == [p.k for p in batch.passes]
    assert [p.num_candidates for p in incremental.passes] == [
        p.num_candidates for p in batch.passes
    ]


class TestDeltaSweep:
    """Sweep delta sizes × seeds over a sliding window.

    ``counting`` picks the kernel that counts band updates and rescans;
    :class:`TestDeltaSweepNaive` runs every case again through the
    naive reference kernel.
    """

    counting = CountingConfig()

    @pytest.mark.parametrize("window_deltas", [2, 3])
    @pytest.mark.parametrize("sizes", [
        [60, 0, 25, 40],            # includes an empty delta
        [80, 10, 10, 10, 10],       # steady trickle, evicts under window 2/3
        [30, 90, 5],                # delta larger than base
    ])
    def test_incremental_equals_batch(self, small_dataset, window_deltas, sizes):
        taxonomy = small_dataset.taxonomy
        rows = list(small_dataset.database)
        min_support = 0.08
        miner = IncrementalMiner(taxonomy, min_support, counting=self.counting)

        window: list[list[tuple[int, ...]]] = []
        offset = 0
        for size in sizes:
            added = rows[offset : offset + size]
            offset += size
            window.append(list(added))
            evicted: list[tuple[int, ...]] = []
            while len(window) > window_deltas:
                evicted.extend(window.pop(0))
            flat = [row for delta in window for row in delta]
            miner.apply_delta(added, evicted, window_callable(flat))
            _assert_batch_equal(miner, flat, taxonomy, min_support)

    def test_empty_delta_changes_nothing(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        rows = list(small_dataset.database)[:100]
        miner = IncrementalMiner(taxonomy, 0.08, counting=self.counting)
        miner.apply_delta(rows, [], window_callable(rows))
        before = miner.result()
        stats = miner.apply_delta([], [], window_callable(rows))
        assert stats.rows_added == 0 and stats.rows_evicted == 0
        assert stats.promotions == 0 and stats.demotions == 0
        assert miner.result() == before

    def test_full_eviction_then_refill(self, paper_taxonomy):
        rows_a = [(10, 12, 14), (9, 15), (7, 10), (8, 10, 12)]
        rows_b = [(13, 14), (7, 8, 15), (10, 14, 15), (9, 12, 13)]
        miner = IncrementalMiner(paper_taxonomy, 0.3, counting=self.counting)
        miner.apply_delta(rows_a, [], window_callable(rows_a))
        miner.apply_delta(rows_b, rows_a, window_callable(rows_b))
        _assert_batch_equal(miner, rows_b, paper_taxonomy, 0.3)

    def test_max_k_truncation_matches_batch(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        rows = list(small_dataset.database)[:150]
        miner = IncrementalMiner(taxonomy, 0.06, max_k=2, counting=self.counting)
        miner.apply_delta(rows[:100], [], window_callable(rows[:100]))
        miner.apply_delta(rows[100:], [], window_callable(rows))
        _assert_batch_equal(miner, rows, taxonomy, 0.06, max_k=2)

    def test_drifting_deltas_move_the_border(self, small_dataset):
        """Rows drift between two pattern pools and the window evicts,
        so every delta after the base promotes *and* demotes itemsets
        (band updates and rescans both count); the result still equals
        a batch mine after each delta."""
        sequence = drifting_sequence(small_dataset, self.counting)
        for index, (miner, stats, flat) in enumerate(sequence):
            if index:
                assert stats.promotions > 0 and stats.demotions > 0, stats
                assert stats.rescanned > 0
            _assert_batch_equal(
                miner, flat, small_dataset.taxonomy, DRIFT_MIN_SUPPORT
            )


class TestDeltaSweepNaive(TestDeltaSweep):
    """The whole sweep through the naive reference kernel."""

    counting = CountingConfig.naive()


class TestStateAndErrors:
    def test_result_requires_rows(self, paper_taxonomy):
        miner = IncrementalMiner(paper_taxonomy, 0.2)
        with pytest.raises(MiningError, match="empty window"):
            miner.result()

    def test_min_support_validated(self, paper_taxonomy):
        with pytest.raises(MiningError, match="min_support"):
            IncrementalMiner(paper_taxonomy, 0.0)

    def test_mismatched_eviction_detected(self, paper_taxonomy):
        miner = IncrementalMiner(paper_taxonomy, 0.2)
        rows = [(10, 12), (9,)]
        miner.apply_delta(rows, [], window_callable(rows))
        with pytest.raises(MiningError, match="negative"):
            miner.apply_delta([], rows + [(7,), (8,), (13,)], window_callable([]))

    def test_checkpoint_round_trip_continues_exactly(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        rows = list(small_dataset.database)
        first, second = rows[:120], rows[120:200]
        straight = IncrementalMiner(taxonomy, 0.08)
        straight.apply_delta(first, [], window_callable(first))

        restored = IncrementalMiner.from_payload(
            straight.to_payload(), taxonomy
        )
        assert restored.result() == straight.result()

        window = first + second
        straight.apply_delta(second, [], window_callable(window))
        restored.apply_delta(second, [], window_callable(window))
        assert restored.result() == straight.result()
        assert restored.to_payload() == straight.to_payload()

    def test_payload_schema_guard(self, paper_taxonomy):
        with pytest.raises(MiningError, match="checkpoint"):
            IncrementalMiner.from_payload({"schema": "nope"}, paper_taxonomy)

    def test_rescan_only_on_promotion_boundary(self, small_dataset):
        """Steady state: a delta that promotes nothing scans only itself."""
        taxonomy = taxonomy_from_parents(PAPER_PARENTS)
        rows = [(10, 12, 14), (9, 15), (10, 12), (10, 12, 15)] * 10
        miner = IncrementalMiner(taxonomy, 0.2)
        miner.apply_delta(rows, [], window_callable(rows))
        # Re-adding the same distribution shifts no support ratios, so
        # the band already knows every candidate of the fixpoint.
        stats = miner.apply_delta(rows, [], window_callable(rows + rows))
        assert stats.rescanned == 0
