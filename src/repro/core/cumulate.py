"""Cumulate [SA95]: sequential mining of generalized association rules.

This is the algorithm every parallel method in the paper parallelizes,
with all three of its optimizations:

1. pass-2 candidates pairing an item with its ancestor are deleted;
2. ancestors not referenced by any candidate are pruned from the
   hierarchy before transactions are extended;
3. each transaction is extended with (the surviving) ancestors exactly
   once per pass.

The implementation is the reference for correctness: the test suite
checks it against the brute-force oracle, and checks every parallel
algorithm against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.candidates import candidate_item_universe, generate_candidates
from repro.core.counting import SupportCounter, count_items
from repro.core.itemsets import Itemset, minimum_count
from repro.core.result import MiningResult, PassResult
from repro.errors import MiningError
from repro.datagen.corpus import TransactionDatabase
from repro.taxonomy.hierarchy import Taxonomy
from repro.taxonomy.ops import AncestorIndex

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.perf.config import CountingConfig


def cumulate(
    database: "TransactionDatabase",
    taxonomy: Taxonomy,
    min_support: float,
    strategy: str = "dict",
    max_k: int | None = None,
    counting: "CountingConfig | None" = None,
) -> MiningResult:
    """Find all large generalized itemsets of ``database``.

    Parameters
    ----------
    database:
        The transaction source: an in-memory
        :class:`~repro.datagen.corpus.TransactionDatabase` or an opened
        :class:`~repro.store.reader.TransactionStore` (both are scanned
        identically; a store is mined out-of-core).
    taxonomy:
        Classification hierarchy over the items.
    min_support:
        Fractional minimum support in (0, 1].
    strategy:
        Counting strategy passed to
        :class:`~repro.core.counting.SupportCounter`: ``"dict"`` or
        ``"hashtree"`` (ignored when ``counting`` is given).
    max_k:
        Optional cap on the itemset size (useful for pass-2-only
        experiments, which is what the paper's evaluation measures).
    counting:
        Optional :class:`~repro.perf.config.CountingConfig`: route
        counting through the fast trie kernels with distinct-transaction
        deduplication.  Results are identical either way.

    Returns
    -------
    MiningResult
        Per-pass large itemsets with raw support counts.
    """
    num_transactions = len(database)
    if num_transactions == 0:
        raise MiningError("cannot mine an empty database")
    threshold = minimum_count(min_support, num_transactions)
    result = MiningResult(min_support=min_support, num_transactions=num_transactions)

    # Pass 1: count every item together with all of its ancestors.
    full_index = AncestorIndex(taxonomy)
    item_counts = count_items(database, full_index)
    large_1 = {
        (item,): count for item, count in sorted(item_counts.items()) if count >= threshold
    }
    result.passes.append(
        PassResult(k=1, num_candidates=len(item_counts), large=large_1)
    )

    # Dedup once for the whole run: the distinct-transaction weights are
    # pass-independent (dedup precedes extension and filtering).
    weighted = None
    if counting is not None and counting.fast and counting.dedup:
        from repro.perf.preprocess import dedup_with_weights

        weighted = dedup_with_weights(database)

    previous: dict[Itemset, int] = large_1
    k = 2
    while previous and (max_k is None or k <= max_k):
        candidates = generate_candidates(sorted(previous), k, taxonomy)
        if not candidates:
            break
        # Optimization 2: extend transactions only with ancestors that
        # some candidate still references.
        universe = candidate_item_universe(candidates)
        index = AncestorIndex(taxonomy, keep=universe)
        if counting is not None:
            counter = counting.support_counter(candidates, k)
        else:
            counter = SupportCounter(candidates, k, strategy=strategy)
        if weighted is not None:
            for transaction, weight in weighted:
                counter.add_transaction(index.extend(transaction), weight=weight)
        else:
            for transaction in database:
                counter.add_transaction(index.extend(transaction))
        large_k = {
            itemset: count
            for itemset, count in sorted(counter.counts.items())
            if count >= threshold
        }
        result.passes.append(
            PassResult(k=k, num_candidates=len(candidates), large=large_k)
        )
        previous = large_k
        k += 1

    return result
