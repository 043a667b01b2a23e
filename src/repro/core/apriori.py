"""Flat (non-hierarchical) Apriori [RR94].

Included both as the classic substrate Cumulate extends and as an
independently useful miner: on a taxonomy-free workload, Cumulate with
an empty hierarchy and Apriori must agree (a test asserts this).
"""

from __future__ import annotations

from repro.core.candidates import apriori_gen
from repro.core.counting import SupportCounter
from repro.core.itemsets import Itemset, minimum_count
from repro.core.result import MiningResult, PassResult
from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError


def apriori(
    database: TransactionDatabase,
    min_support: float,
    strategy: str = "dict",
    max_k: int | None = None,
) -> MiningResult:
    """Find all large itemsets of a flat transaction database.

    Parameters mirror :func:`~repro.core.cumulate.cumulate`, minus the
    taxonomy.
    """
    num_transactions = len(database)
    if num_transactions == 0:
        raise MiningError("cannot mine an empty database")
    threshold = minimum_count(min_support, num_transactions)
    result = MiningResult(min_support=min_support, num_transactions=num_transactions)

    item_counts: dict[int, int] = {}
    for transaction in database:
        for item in transaction:
            item_counts[item] = item_counts.get(item, 0) + 1
    large_1 = {
        (item,): count for item, count in sorted(item_counts.items()) if count >= threshold
    }
    result.passes.append(
        PassResult(k=1, num_candidates=len(item_counts), large=large_1)
    )

    previous: dict[Itemset, int] = large_1
    k = 2
    while previous and (max_k is None or k <= max_k):
        candidates = apriori_gen(sorted(previous), k)
        if not candidates:
            break
        counter = SupportCounter(candidates, k, strategy=strategy)
        for transaction in database:
            counter.add_transaction(transaction)
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
