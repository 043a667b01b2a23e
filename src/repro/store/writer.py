"""Streaming writer for the columnar transaction store.

:class:`StoreWriter` consumes transactions one at a time and never holds
more than one segment's worth of rows in memory: when the buffered
segment reaches ``segment_rows`` it is packed (offsets column + item
column), hashed and flushed to disk, and the buffer resets.  This is the
out-of-core half of the datagen path — a 3.2M-transaction dataset
streams through a few tens of megabytes of writer state.

Rows are normalised exactly like
:class:`~repro.datagen.corpus.TransactionDatabase` normalises them
(sorted, deduplicated), so a store written from an iterator is
row-for-row identical to the in-memory database built from the same
iterator — the property every store/list equivalence test leans on.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import StoreFormatError
from repro.store.atomic import atomic_write_json
from repro.store.format import (
    ITEM_WIDTH,
    MANIFEST_NAME,
    MAX_ITEM,
    OFFSET_WIDTH,
    STORE_SCHEMA,
    pack_header,
    require_little_endian,
    segment_digest,
    segment_name,
)

#: Default rows per segment: ~64k rows of average size 10 pack into a
#: few megabytes — large enough for sequential-scan locality, small
#: enough that the writer's buffer stays tiny.
DEFAULT_SEGMENT_ROWS = 65_536


class StoreWriter:
    """Append transactions to a store directory, one segment at a time.

    Use as a context manager (or call :meth:`close`); the manifest is
    only written on close, so a crashed writer leaves no store behind —
    readers refuse a directory without ``store.json``.

    Parameters
    ----------
    path:
        Store directory (created if missing; must not already hold a
        manifest).
    segment_rows:
        Rows per segment — the writer's peak buffered row count.
    meta:
        Optional JSON-serialisable provenance (generator parameters,
        seed, dataset name) recorded verbatim in the manifest.
    """

    def __init__(
        self,
        path: str | Path,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        meta: dict | None = None,
    ):
        require_little_endian()
        if segment_rows <= 0:
            raise StoreFormatError(
                f"segment_rows must be positive, got {segment_rows}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise StoreFormatError(
                f"{self.path} already holds a store manifest; refusing to overwrite"
            )
        self.segment_rows = segment_rows
        self.meta = meta
        self._offsets = array("Q", [0])
        self._items = array("I")
        self._segments: list[dict] = []
        self._rows = 0
        self._total_items = 0
        self._closed = False

    # ------------------------------------------------------------------
    def append(self, transaction: Iterable[int]) -> None:
        """Add one transaction (normalised to a sorted, deduplicated row)."""
        if self._closed:
            raise StoreFormatError("append on a closed StoreWriter")
        row = sorted(set(transaction))
        if row and (row[0] < 0 or row[-1] > MAX_ITEM):
            raise StoreFormatError(
                f"item ids must be in [0, {MAX_ITEM}], got {row[0]}..{row[-1]}"
            )
        self._items.extend(row)
        self._offsets.append(len(self._items))
        self._rows += 1
        self._total_items += len(row)
        if len(self._offsets) - 1 >= self.segment_rows:
            self._flush_segment()

    def extend(self, transactions: Iterable[Iterable[int]]) -> None:
        """Append every transaction of an iterable (streaming)."""
        for transaction in transactions:
            self.append(transaction)

    # ------------------------------------------------------------------
    def _flush_segment(self) -> None:
        rows = len(self._offsets) - 1
        if rows == 0:
            return
        assert self._offsets.itemsize == OFFSET_WIDTH
        assert self._items.itemsize == ITEM_WIDTH
        name = segment_name(len(self._segments))
        payload = (
            pack_header(rows, len(self._items))
            + self._offsets.tobytes()
            + self._items.tobytes()
        )
        (self.path / name).write_bytes(payload)
        self._segments.append(
            {
                "file": name,
                "rows": rows,
                "items": len(self._items),
                "sha256": segment_digest(payload),
            }
        )
        self._offsets = array("Q", [0])
        self._items = array("I")

    def close(self) -> Path:
        """Flush the tail segment and write the manifest; returns its path."""
        if self._closed:
            return self.path / MANIFEST_NAME
        self._flush_segment()
        manifest = {
            "schema": STORE_SCHEMA,
            "rows": self._rows,
            "items": self._total_items,
            "segment_rows": self.segment_rows,
            "item_dtype": "uint32",
            "offset_dtype": "uint64",
            "segments": self._segments,
        }
        if self.meta is not None:
            manifest["meta"] = self.meta
        # Manifest-last commit: the segments are already durable, and the
        # atomic replace makes the directory a store in one step — a
        # reader never sees a manifest describing half-written segments.
        manifest_path = atomic_write_json(self.path / MANIFEST_NAME, manifest)
        self._closed = True
        return manifest_path

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


def write_store(
    transactions: Iterator[Iterable[int]] | Iterable[Iterable[int]],
    path: str | Path,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    meta: dict | None = None,
) -> Path:
    """Stream an iterable of transactions into a new store directory.

    Returns the manifest path.  The iterable is consumed exactly once
    and never materialised.
    """
    with StoreWriter(path, segment_rows=segment_rows, meta=meta) as writer:
        writer.extend(transactions)
    return writer.close()
