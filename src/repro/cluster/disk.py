"""Per-node local disk with read accounting.

Each node owns a horizontal partition of the transaction data on its
"local disk".  :meth:`LocalDisk.scan` iterates the partition and
charges the read volume to a :class:`~repro.cluster.stats.NodeStats`,
so NPGM's fragment loop — which re-reads the partition once per
candidate fragment — shows up as real I/O in the cost model.

The partition can be any :class:`TransactionSource`: an in-memory
:class:`~repro.datagen.corpus.TransactionDatabase` or a
:class:`~repro.store.reader.StoreView` over a columnar store (strided
over a dataset's store, or a node's contiguous rows of the temporary
store a process-executor cluster spills in-memory partitions to).  Both
yield the same sorted tuples, so the miners (and their digests) cannot
tell them apart; a view additionally pickles as a tiny handle, which is
what makes the process backend zero-copy per pass.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Protocol, runtime_checkable

from repro.cluster.stats import NodeStats
from repro.datagen.corpus import Transaction


@runtime_checkable
class TransactionSource(Protocol):
    """Anything a :class:`LocalDisk` can scan.

    Implementations: :class:`~repro.datagen.corpus.TransactionDatabase`
    and :class:`~repro.store.reader.TransactionStore` /
    :class:`~repro.store.reader.StoreView`.  Iteration must yield sorted,
    deduplicated item tuples — the normalisation every implementation
    applies at construction/write time.
    """

    def __len__(self) -> int: ...

    def total_items(self) -> int: ...

    def __iter__(self) -> Iterator[Transaction]: ...


class LocalDisk:
    """One node's transaction partition.

    Parameters
    ----------
    partition:
        The transactions resident on this disk (any
        :class:`TransactionSource`).
    """

    __slots__ = ("_partition",)

    def __init__(self, partition: TransactionSource):
        self._partition = partition

    def __len__(self) -> int:
        return len(self._partition)

    @property
    def partition(self) -> TransactionSource:
        return self._partition

    @property
    def stored_items(self) -> int:
        """Total items resident on this disk (one scan's read volume)."""
        return self._partition.total_items()

    def scan(self, stats: NodeStats | None = None) -> Iterator[Transaction]:
        """Iterate the partition, charging the read to ``stats``.

        The scan is charged up front (``io_scans`` and the full
        ``io_items`` volume) because every algorithm in the paper reads
        partitions in full sequential scans.
        """
        if stats is not None:
            stats.io_scans += 1
            stats.io_items += self.stored_items
        return iter(self._partition)
