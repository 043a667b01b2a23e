"""Out-of-core columnar transaction store (`repro.store/v1`).

The store is how this repo escapes list-of-tuples datasets: a directory
of struct-packed CSR segments (``docs/store.md``) written by a streaming
path that never materialises the dataset, read back through mmap with
zero per-row decoding, and shipped to process-pool workers as tiny
handles instead of pickled rows.  In-memory datasets reach process
workers the same way: the cluster spills their partitions into a
temporary store (:class:`~repro.cluster.machine.Cluster`).

Public API
----------
- :class:`StoreWriter` / :func:`write_store` — streaming segment writer.
- :class:`TransactionStore` / :func:`open_store` — digest-verified mmap
  reader; :meth:`TransactionStore.view` slices it into picklable
  per-node :class:`StoreView` handles.
- :mod:`repro.store.format` — header/manifest constants and validators.
"""

from repro.store.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    STORE_SCHEMA,
    TAXONOMY_NAME,
)
from repro.store.reader import StoreView, TransactionStore, open_store
from repro.store.writer import DEFAULT_SEGMENT_ROWS, StoreWriter, write_store

__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "STORE_SCHEMA",
    "TAXONOMY_NAME",
    "StoreView",
    "StoreWriter",
    "TransactionStore",
    "open_store",
    "write_store",
]
