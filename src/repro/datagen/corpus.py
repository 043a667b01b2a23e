"""The :class:`TransactionDatabase` container.

A thin, immutable wrapper around a list of transactions (sorted tuples of
item ids) that carries the metadata every experiment needs — how many
transactions there are, which items occur, and basic size statistics.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import DataGenerationError

Transaction = tuple[int, ...]


class TransactionDatabase:
    """Immutable ordered collection of transactions.

    Parameters
    ----------
    transactions:
        Iterable of item collections; each is normalised to a sorted,
        deduplicated tuple.  Empty transactions are kept (they can occur
        after corruption) — they simply support nothing.
    """

    __slots__ = ("_transactions",)

    def __init__(self, transactions: Iterable[Iterable[int]]):
        self._transactions: tuple[Transaction, ...] = tuple(
            tuple(sorted(set(t))) for t in transactions
        )

    @classmethod
    def _from_normalised(
        cls, transactions: tuple[Transaction, ...]
    ) -> "TransactionDatabase":
        """Wrap rows that are already sorted, deduplicated tuples.

        For rows taken from another database (a slice or a stride of
        its rows), which are normalised already; skips re-sorting.
        """
        database = object.__new__(cls)
        database._transactions = transactions
        return database

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return self._transactions == other._transactions

    def __hash__(self) -> int:
        return hash(self._transactions)

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The underlying tuple of sorted transactions."""
        return self._transactions

    def item_universe(self) -> set[int]:
        """Every item id occurring in at least one transaction."""
        universe: set[int] = set()
        for transaction in self._transactions:
            universe.update(transaction)
        return universe

    def total_items(self) -> int:
        """Sum of transaction lengths (the database's raw volume)."""
        return sum(len(t) for t in self._transactions)

    def average_size(self) -> float:
        """Mean transaction length; 0.0 for an empty database."""
        if not self._transactions:
            return 0.0
        return self.total_items() / len(self._transactions)

    def slice(self, start: int, stop: int) -> "TransactionDatabase":
        """A new database over ``transactions[start:stop]``."""
        return TransactionDatabase._from_normalised(self._transactions[start:stop])

    def split(self, num_parts: int) -> list["TransactionDatabase"]:
        """Split into ``num_parts`` contiguous, near-equal databases.

        The first ``len(self) % num_parts`` parts receive one extra
        transaction, mirroring an even round of disk writes.
        """
        if num_parts <= 0:
            raise DataGenerationError(f"num_parts must be positive, got {num_parts}")
        base, extra = divmod(len(self._transactions), num_parts)
        parts: list[TransactionDatabase] = []
        cursor = 0
        for index in range(num_parts):
            size = base + (1 if index < extra else 0)
            parts.append(self.slice(cursor, cursor + size))
            cursor += size
        return parts

    @classmethod
    def from_sequence(cls, transactions: Sequence[Iterable[int]]) -> "TransactionDatabase":
        """Alias constructor; mirrors other containers in the library."""
        return cls(transactions)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n={len(self._transactions)}, "
            f"avg_size={self.average_size():.2f})"
        )
