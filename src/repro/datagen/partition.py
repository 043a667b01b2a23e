"""Horizontal partitioning of the transaction database over node disks.

The paper spreads transactions evenly over the local disks of all nodes
("The transaction data is evenly spread over the local disks of all the
nodes").  :func:`partition_evenly` reproduces that.  For the placement-
skew ablation, :func:`partition_weighted` distributes transactions
proportionally to arbitrary node weights instead.

Note this is *placement* skew (how many transactions each node reads);
the *data* skew the paper's load-balancing section targets — frequency
skew among itemsets — comes from the generator's exponential pattern
weights and is present regardless of placement.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.datagen.corpus import TransactionDatabase
from repro.errors import DataGenerationError


def partition_evenly(
    database: TransactionDatabase, num_nodes: int
) -> list[TransactionDatabase]:
    """Round-robin the transactions over ``num_nodes`` local databases.

    Round-robin (rather than contiguous splitting) decorrelates node
    assignment from generation order, matching an even bulk load: node
    ``i`` gets ``rows[i::num_nodes]``.  The source's rows are already
    normalised, so each bucket keeps them as they are.
    """
    if num_nodes <= 0:
        raise DataGenerationError(f"num_nodes must be positive, got {num_nodes}")
    rows = database.transactions
    return [
        TransactionDatabase._from_normalised(rows[node::num_nodes])
        for node in range(num_nodes)
    ]


def partition_weighted(
    database: TransactionDatabase,
    weights: Sequence[float],
) -> list[TransactionDatabase]:
    """Distribute transactions proportionally to per-node ``weights``.

    Uses largest-remainder apportionment so the bucket sizes always sum
    to ``len(database)`` and are within one transaction of the exact
    proportional share.
    """
    if not weights:
        raise DataGenerationError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise DataGenerationError("weights must be non-negative")
    total = float(sum(weights))
    if total <= 0:
        raise DataGenerationError("weights must sum to a positive value")

    n = len(database)
    shares = [w / total * n for w in weights]
    counts = [int(share) for share in shares]
    remainders = sorted(
        range(len(weights)), key=lambda i: shares[i] - counts[i], reverse=True
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1

    parts: list[TransactionDatabase] = []
    cursor = 0
    for count in counts:
        parts.append(database.slice(cursor, cursor + count))
        cursor += count
    return parts
