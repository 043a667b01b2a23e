"""Shared-memory arena: zero-pickle partitions for in-memory runs.

When a run's dataset is already in memory (a
:class:`~repro.datagen.corpus.TransactionDatabase` or store views), the
process-pool backend used to pickle every partition into every worker
task — BENCH_pr3 measured that overhead eating the entire parallel
speedup.  :class:`SharedArena` packs all partitions once into a single
:class:`multiprocessing.shared_memory.SharedMemory` block using the same
CSR columns as the on-disk store, and hands workers a
:class:`ShmView` — a handle that pickles as ``(block name, node index)``
and re-attaches to the block on first use.  Workers scan the shared
pages directly; nothing row-shaped ever crosses the pickle boundary.

Block layout (all little-endian)::

    u64                 num_nodes
    u64[3 * num_nodes]  directory: (byte offset, rows, items) per node
    per node, 8-byte aligned:
        u64[rows + 1]   CSR offsets
        u32[items]      item ids (padded to 8 bytes)

Lifecycle: the creating process owns the block and must call
:meth:`SharedArena.destroy` (the cluster does this from ``close()`` and
a finalizer).  Two CPython sharp edges shape the worker side:

* Attached ``SharedMemory`` objects re-register with the resource
  tracker on Python ≤ 3.12.  The executor's pool context prefers
  *fork*, where parent and children share one tracker and its cache is
  a set — the child's re-registration is a no-op and the creator's
  single ``unlink`` balances the books.  Explicitly unregistering after
  attach (the usual 3.11 workaround for *spawn* pools) would erase the
  creator's registration here, so it is deliberately not done.
* ``SharedMemory.close()`` raises ``BufferError`` while any cast
  memoryview into the block is alive, and ``__del__`` runs in GC order.
  :meth:`ShmView.__iter__` therefore scopes its column casts to the
  scan and releases them in a ``finally`` — after a scan completes, no
  exported pointers remain anywhere.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Iterable, Iterator
from multiprocessing import shared_memory

from repro.errors import StoreFormatError
from repro.store.format import ITEM_WIDTH, MAX_ITEM, OFFSET_WIDTH, require_little_endian

Row = tuple[int, ...]

_U64 = struct.Struct("<Q")


def _pad8(size: int) -> int:
    return (size + 7) & ~7


class SharedArena:
    """All of a cluster's partitions packed into one shared block."""

    def __init__(self, block: shared_memory.SharedMemory, directory: list[tuple[int, int, int]]):
        self._block = block
        self._directory = directory
        self._destroyed = False

    @classmethod
    def from_partitions(
        cls, partitions: Iterable[Iterable[Row]]
    ) -> "SharedArena":
        """Pack partitions (one per node) into a new shared block.

        Each partition is materialised into CSR columns once here — the
        one unavoidable copy — and never pickled again.
        """
        require_little_endian()
        columns: list[tuple[array, array]] = []
        for partition in partitions:
            offsets = array("Q", [0])
            items = array("I")
            for row in partition:
                if row and (row[0] < 0 or row[-1] > MAX_ITEM):
                    raise StoreFormatError(
                        f"item ids must be in [0, {MAX_ITEM}], got {row[0]}..{row[-1]}"
                    )
                items.extend(row)
                offsets.append(len(items))
            columns.append((offsets, items))
        num_nodes = len(columns)
        directory_size = 8 + 24 * num_nodes
        cursor = _pad8(directory_size)
        directory: list[tuple[int, int, int]] = []
        for offsets, items in columns:
            rows = len(offsets) - 1
            directory.append((cursor, rows, len(items)))
            cursor += _pad8(OFFSET_WIDTH * (rows + 1) + ITEM_WIDTH * len(items))
        block = shared_memory.SharedMemory(create=True, size=max(cursor, 1))
        buffer = block.buf
        _U64.pack_into(buffer, 0, num_nodes)
        position = 8
        for entry in directory:
            for value in entry:
                _U64.pack_into(buffer, position, value)
                position += 8
        for (offset, rows, _items), (offsets, items) in zip(directory, columns):
            offsets_bytes = offsets.tobytes()
            buffer[offset : offset + len(offsets_bytes)] = offsets_bytes
            items_start = offset + len(offsets_bytes)
            items_bytes = items.tobytes()
            buffer[items_start : items_start + len(items_bytes)] = items_bytes
        return cls(block, directory)

    @property
    def name(self) -> str:
        return self._block.name

    @property
    def num_nodes(self) -> int:
        return len(self._directory)

    def view(self, node_index: int) -> "ShmView":
        """The picklable per-node handle over this arena."""
        if not 0 <= node_index < len(self._directory):
            raise StoreFormatError(
                f"node index {node_index} out of range [0, {len(self._directory)})"
            )
        offset, rows, items = self._directory[node_index]
        return ShmView(self.name, node_index, offset, rows, items, block=self._block)

    def destroy(self) -> None:
        """Close and unlink the block (creator side; idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        try:
            self._block.close()
        except BufferError:  # pragma: no cover - a scan generator leaked
            # An abandoned scan still holds casts; the unlink below is
            # what reclaims the segment either way.
            pass
        try:
            self._block.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


def _shm_view_from_handle(
    name: str, node_index: int, offset: int, rows: int, items: int
) -> "ShmView":
    """Re-attach a view in a worker (pickle target of ShmView)."""
    return ShmView(name, node_index, offset, rows, items, block=None)


class ShmView:
    """One node's partition inside a :class:`SharedArena` block.

    Satisfies the same partition protocol as
    :class:`~repro.store.reader.StoreView` (``__len__``,
    ``total_items``, iteration yielding sorted tuples) and pickles as a
    five-integer handle — attachment happens lazily on first scan.
    """

    __slots__ = ("name", "node_index", "offset", "rows", "items", "_block", "_owns_block")

    def __init__(
        self,
        name: str,
        node_index: int,
        offset: int,
        rows: int,
        items: int,
        block: shared_memory.SharedMemory | None = None,
    ):
        self.name = name
        self.node_index = node_index
        self.offset = offset
        self.rows = rows
        self.items = items
        self._block = block
        self._owns_block = block is None

    def _ensure_block(self) -> shared_memory.SharedMemory:
        if self._block is None:
            try:
                self._block = shared_memory.SharedMemory(name=self.name, create=False)
            except FileNotFoundError as exc:
                raise StoreFormatError(
                    f"shared arena {self.name!r} is gone (creator exited?)"
                ) from exc
        return self._block

    def __len__(self) -> int:
        return self.rows

    def total_items(self) -> int:
        return self.items

    def __iter__(self) -> Iterator[Row]:
        buffer = self._ensure_block().buf
        split = self.offset + OFFSET_WIDTH * (self.rows + 1)
        offsets = buffer[self.offset : split].cast("Q")
        item_column = buffer[split : split + ITEM_WIDTH * self.items].cast("I")
        try:
            for index in range(self.rows):
                begin = offsets[index]
                yield tuple(item_column[begin : offsets[index + 1]])
        finally:
            # Release the casts eagerly so the block can close without
            # "exported pointers exist" at interpreter shutdown.
            offsets.release()
            item_column.release()

    def close(self) -> None:
        """Release a worker-side attachment (never unlinks)."""
        if self._block is not None and self._owns_block:
            self._block.close()
            self._block = None

    def __reduce__(self):
        return (
            _shm_view_from_handle,
            (self.name, self.node_index, self.offset, self.rows, self.items),
        )

    def __repr__(self) -> str:
        return (
            f"ShmView(name={self.name!r}, node={self.node_index}, "
            f"rows={self.rows}, items={self.items})"
        )
