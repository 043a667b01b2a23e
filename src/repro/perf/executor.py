"""Per-node execution backend: serial or multi-process.

The simulated cluster's scan phases are embarrassingly parallel across
nodes: each node's work is a pure function of its partition and the
broadcast pass inputs.  ``execute_per_node`` maps a picklable worker
over the per-node tasks either inline (``executor="serial"``) or on a
``ProcessPoolExecutor`` (``executor="process"``), returning results in
**node order** regardless of completion order — the deterministic merge
that keeps multi-core runs byte-identical to serial ones.

Workers never touch shared simulator state: they return per-node
statistics, counts and outgoing messages, and the miner *replays* those
against the real ``NodeStats`` / ``Network`` objects in node order, so
traces, telemetry spans and invariant checks observe exactly the
sequence a serial run produces.

Task payload size is what makes or breaks the process backend
(BENCH_pr3 measured pickled partitions eating the whole speedup).  A
task's ``disk`` therefore wraps a :class:`~repro.store.reader.StoreView`:
a path + row range handle, re-opened via mmap in the worker.  Store-
backed clusters hand out views over the dataset's store; a process
cluster built from in-memory partitions first spills them to a
temporary store (:class:`~repro.cluster.machine.Cluster`).  Nothing
row-shaped crosses the pickle boundary in either direction; see
:mod:`repro.store`.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

from repro.errors import ClusterError

Task = TypeVar("Task")
Result = TypeVar("Result")

EXECUTORS = ("serial", "process")


def effective_workers(workers: int | None) -> int:
    """The worker-process count a ``process`` backend will use."""
    if workers is not None:
        return max(1, workers)
    return os.cpu_count() or 1


def _pool_context():
    """Prefer fork (cheap, inherits ``sys.path``); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def execute_per_node(
    config,
    worker: Callable[[Task], Result],
    tasks: Sequence[Task],
) -> list[Result]:
    """Run ``worker`` over per-node ``tasks``; results in task order.

    Parameters
    ----------
    config:
        A :class:`~repro.cluster.config.ClusterConfig` (read for
        ``executor`` and ``workers``).
    worker:
        Module-level function (picklable for the process backend).
    tasks:
        One picklable task per node, node order.
    """
    executor = getattr(config, "executor", "serial")
    if executor not in EXECUTORS:
        raise ClusterError(
            f"unknown executor {executor!r}; known: {', '.join(EXECUTORS)}"
        )
    workers = effective_workers(getattr(config, "workers", None))
    if executor == "process" and workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            mp_context=_pool_context(),
        ) as pool:
            return list(pool.map(worker, tasks))
    return [worker(task) for task in tasks]
