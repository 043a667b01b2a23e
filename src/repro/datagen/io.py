"""The text transaction format.

One transaction per line, space-separated item ids: human readable and
interoperable with the classic FIMI repository layout.  It round-trips
through :class:`TransactionDatabase`.  The repo's one binary format is
the columnar store (:func:`repro.store.write_store` /
:func:`repro.store.open_store`), which streams and is scanned through
mmap; anything larger than memory should use it.
"""

from __future__ import annotations

from pathlib import Path

from repro.datagen.corpus import TransactionDatabase
from repro.errors import TransactionFormatError


def save_transactions_text(database: TransactionDatabase, path: str | Path) -> None:
    """Write one space-separated transaction per line."""
    path = Path(path)
    with path.open("w", encoding="ascii") as handle:
        for transaction in database:
            handle.write(" ".join(str(item) for item in transaction))
            handle.write("\n")


def load_transactions_text(path: str | Path) -> TransactionDatabase:
    """Read the text format written by :func:`save_transactions_text`.

    Blank lines are empty transactions; anything non-numeric raises
    :class:`~repro.errors.TransactionFormatError` with the line number.
    """
    path = Path(path)
    transactions: list[tuple[int, ...]] = []
    with path.open("r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                transactions.append(())
                continue
            try:
                transactions.append(tuple(int(token) for token in line.split()))
            except ValueError as exc:
                raise TransactionFormatError(
                    f"{path}:{line_number}: non-integer item id"
                ) from exc
    return TransactionDatabase(transactions)
