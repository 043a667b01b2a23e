"""mmap reader over a columnar transaction store.

:class:`TransactionStore` opens a store directory, validates every
segment digest, and serves rows as the same sorted integer tuples a
:class:`~repro.datagen.corpus.TransactionDatabase` yields — so every
scan loop in the miners runs unchanged over either source.  Segments
are mapped lazily and shared with the OS page cache: a scan touches the
mapped pages directly (``memoryview.cast`` over the mmap), and the only
per-row allocation is the tuple the kernel is about to consume.

:class:`StoreView` is the zero-pickle handle the cluster hands to
process-pool workers: it serialises as ``(path, start, stop, step)``
plus a cached item total — a few dozen bytes regardless of partition
size — and re-opens the mmap on first use in the worker.  A strided
view (``step = num_nodes``) reproduces the round-robin placement of
:func:`~repro.datagen.partition.partition_evenly` exactly, which is
what keeps store-backed runs byte-identical to list-backed ones.
"""

from __future__ import annotations

import json
import mmap
from bisect import bisect_right
from collections.abc import Iterator
from pathlib import Path

from repro.errors import StoreFormatError
from repro.store.format import (
    HEADER_SIZE,
    MANIFEST_NAME,
    OFFSET_WIDTH,
    STORE_SCHEMA,
    require_little_endian,
    segment_digest,
    segment_size,
    unpack_header,
)

Row = tuple[int, ...]


class _Segment:
    """One mapped segment: lazy mmap + cast column views."""

    __slots__ = ("path", "rows", "items", "sha256", "row_start", "_offsets", "_items")

    def __init__(self, path: Path, rows: int, items: int, sha256: str, row_start: int):
        self.path = path
        self.rows = rows
        self.items = items
        self.sha256 = sha256
        self.row_start = row_start
        self._offsets: memoryview | None = None
        self._items: memoryview | None = None

    def _map(self) -> None:
        try:
            with self.path.open("rb") as handle:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise StoreFormatError(f"{self.path}: cannot map segment: {exc}") from exc
        view = memoryview(buffer)
        rows, items = unpack_header(view[:HEADER_SIZE], str(self.path))
        if rows != self.rows or items != self.items:
            raise StoreFormatError(
                f"{self.path}: header says {rows} rows/{items} items, "
                f"manifest says {self.rows}/{self.items}"
            )
        expected = segment_size(rows, items)
        if len(view) != expected:
            raise StoreFormatError(
                f"{self.path}: {len(view)} bytes on disk, format needs {expected}"
            )
        split = HEADER_SIZE + OFFSET_WIDTH * (rows + 1)
        self._offsets = view[HEADER_SIZE:split].cast("Q")
        self._items = view[split:].cast("I")

    @property
    def offsets(self) -> memoryview:
        if self._offsets is None:
            self._map()
        return self._offsets  # type: ignore[return-value]

    @property
    def item_column(self) -> memoryview:
        if self._items is None:
            self._map()
        return self._items  # type: ignore[return-value]

    def verify(self) -> None:
        """Hash the whole file and compare against the manifest digest."""
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise StoreFormatError(f"{self.path}: cannot read segment: {exc}") from exc
        if len(data) != segment_size(self.rows, self.items):
            raise StoreFormatError(
                f"{self.path}: {len(data)} bytes on disk, format needs "
                f"{segment_size(self.rows, self.items)}"
            )
        digest = segment_digest(data)
        if digest != self.sha256:
            raise StoreFormatError(
                f"{self.path}: segment digest mismatch — manifest records "
                f"{self.sha256[:12]}…, bytes on disk hash to {digest[:12]}…"
            )

    def row(self, local_index: int) -> Row:
        offsets = self.offsets
        start = offsets[local_index]
        return tuple(self.item_column[start : offsets[local_index + 1]])


class TransactionStore:
    """A read-only columnar transaction store (see :mod:`repro.store`).

    Satisfies the partition protocol the cluster's
    :class:`~repro.cluster.disk.LocalDisk` scans (``__len__``,
    ``total_items``, iteration yielding sorted tuples), so a store —
    or a :class:`StoreView` slice of one — can stand in anywhere a
    :class:`~repro.datagen.corpus.TransactionDatabase` is scanned.
    """

    def __init__(self, path: str | Path, verify: bool = True):
        require_little_endian()
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StoreFormatError(f"{manifest_path}: not a store: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StoreFormatError(f"{manifest_path}: manifest is not JSON: {exc}") from exc
        if manifest.get("schema") != STORE_SCHEMA:
            raise StoreFormatError(
                f"{manifest_path}: schema {manifest.get('schema')!r} "
                f"(this reader understands {STORE_SCHEMA!r})"
            )
        self.meta: dict = manifest.get("meta", {})
        self._rows = int(manifest["rows"])
        self._total_items = int(manifest["items"])
        self._segments: list[_Segment] = []
        self._row_starts: list[int] = []
        row_start = 0
        for entry in manifest.get("segments", []):
            segment = _Segment(
                path=self.path / entry["file"],
                rows=int(entry["rows"]),
                items=int(entry["items"]),
                sha256=entry["sha256"],
                row_start=row_start,
            )
            self._segments.append(segment)
            self._row_starts.append(row_start)
            row_start += segment.rows
        if row_start != self._rows:
            raise StoreFormatError(
                f"{manifest_path}: segments hold {row_start} rows, "
                f"manifest says {self._rows}"
            )
        if sum(segment.items for segment in self._segments) != self._total_items:
            raise StoreFormatError(
                f"{manifest_path}: segment item counts disagree with the manifest"
            )
        if verify:
            self.verify()

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Re-hash every segment against its manifest digest."""
        for segment in self._segments:
            segment.verify()

    def __len__(self) -> int:
        return self._rows

    def total_items(self) -> int:
        """Sum of row lengths (the store's raw scan volume)."""
        return self._total_items

    def average_size(self) -> float:
        return self._total_items / self._rows if self._rows else 0.0

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def store_bytes(self) -> int:
        """Total on-disk size of all segment files."""
        return sum(
            segment_size(segment.rows, segment.items) for segment in self._segments
        )

    # ------------------------------------------------------------------
    def row(self, index: int) -> Row:
        if not 0 <= index < self._rows:
            raise IndexError(f"row {index} out of range [0, {self._rows})")
        segment_index = bisect_right(self._row_starts, index) - 1
        segment = self._segments[segment_index]
        return segment.row(index - segment.row_start)

    def __getitem__(self, index: int) -> Row:
        return self.row(index)

    def iter_rows(
        self, start: int = 0, stop: int | None = None, step: int = 1
    ) -> Iterator[Row]:
        """Yield rows ``start, start+step, …`` below ``stop`` (segment-local
        reads, so a stride-per-node scan still walks each segment once)."""
        if step <= 0:
            raise StoreFormatError(f"step must be positive, got {step}")
        stop = self._rows if stop is None else min(stop, self._rows)
        for segment in self._segments:
            seg_lo, seg_hi = segment.row_start, segment.row_start + segment.rows
            if seg_hi <= start or seg_lo >= stop:
                continue
            first = max(start, seg_lo)
            misaligned = (first - start) % step
            if misaligned:
                first += step - misaligned
            offsets = segment.offsets
            items = segment.item_column
            for index in range(first - seg_lo, min(stop, seg_hi) - seg_lo, step):
                begin = offsets[index]
                yield tuple(items[begin : offsets[index + 1]])

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def view_items(self, start: int, stop: int | None, step: int) -> int:
        """Total item count of the rows a view covers (offset reads only)."""
        if step <= 0:
            raise StoreFormatError(f"step must be positive, got {step}")
        stop = self._rows if stop is None else min(stop, self._rows)
        if step == 1:
            total = 0
            for segment in self._segments:
                seg_lo, seg_hi = segment.row_start, segment.row_start + segment.rows
                lo, hi = max(start, seg_lo), min(stop, seg_hi)
                if lo >= hi:
                    continue
                offsets = segment.offsets
                total += offsets[hi - seg_lo] - offsets[lo - seg_lo]
            return total
        total = 0
        for segment in self._segments:
            seg_lo, seg_hi = segment.row_start, segment.row_start + segment.rows
            if seg_hi <= start or seg_lo >= stop:
                continue
            first = max(start, seg_lo)
            misaligned = (first - start) % step
            if misaligned:
                first += step - misaligned
            offsets = segment.offsets
            for index in range(first - seg_lo, min(stop, seg_hi) - seg_lo, step):
                total += offsets[index + 1] - offsets[index]
        return total

    def item_universe(self) -> set[int]:
        """Every distinct item id (full column scan)."""
        universe: set[int] = set()
        for segment in self._segments:
            universe.update(segment.item_column)
        return universe

    def view(
        self, start: int = 0, stop: int | None = None, step: int = 1
    ) -> "StoreView":
        """A picklable handle over rows ``start, start+step, … < stop``."""
        return StoreView(self, start, stop, step)

    def to_list(self) -> list[Row]:
        """Materialise every row as a Python list — **test helper only**.

        Defeats the whole point of the store for real workloads; lint
        rule RL011 flags calls outside the test tree.
        """
        return list(self.iter_rows())

    def __repr__(self) -> str:
        return (
            f"TransactionStore(path={str(self.path)!r}, rows={self._rows}, "
            f"segments={len(self._segments)})"
        )


def open_store(path: str | Path, verify: bool = True) -> TransactionStore:
    """Open a store directory, verifying segment digests by default."""
    return TransactionStore(path, verify=verify)


def _view_from_handle(
    path: str, start: int, stop: int | None, step: int, total_items: int | None
) -> "StoreView":
    """Rebuild a view in a worker process (pickle target of StoreView).

    Digests were verified when the parent opened the store; re-opening
    per worker skips the hash pass and just maps the columns.
    """
    view = StoreView(TransactionStore(path, verify=False), start, stop, step)
    view._total_items = total_items
    return view


class StoreView:
    """A row-range slice of a store, shipped to workers by handle."""

    __slots__ = ("_store", "start", "stop", "step", "_total_items")

    def __init__(
        self, store: TransactionStore, start: int, stop: int | None, step: int
    ):
        if step <= 0:
            raise StoreFormatError(f"step must be positive, got {step}")
        if start < 0:
            raise StoreFormatError(f"start must be >= 0, got {start}")
        self._store = store
        self.start = start
        self.stop = len(store) if stop is None else min(stop, len(store))
        self.step = step
        self._total_items: int | None = None

    @property
    def store(self) -> TransactionStore:
        return self._store

    def __len__(self) -> int:
        return len(range(self.start, self.stop, self.step))

    def total_items(self) -> int:
        if self._total_items is None:
            self._total_items = self._store.view_items(
                self.start, self.stop, self.step
            )
        return self._total_items

    def __iter__(self) -> Iterator[Row]:
        return self._store.iter_rows(self.start, self.stop, self.step)

    def to_list(self) -> list[Row]:
        """Materialise the view — **test helper only** (RL011 applies)."""
        return list(self)

    def __reduce__(self):
        return (
            _view_from_handle,
            (str(self._store.path), self.start, self.stop, self.step, self._total_items),
        )

    def __repr__(self) -> str:
        return (
            f"StoreView({str(self._store.path)!r}, start={self.start}, "
            f"stop={self.stop}, step={self.step})"
        )
