"""Datasets and delta sequences shared by several test modules.

Plain module-level definitions, no fixtures, so subprocess scripts (the
hash-seed checks) can build exactly what the in-process tests build.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.datagen.generator import generate_patterns, iter_transactions
from repro.datagen.params import GeneratorParams
from repro.perf.config import CountingConfig
from repro.refresh.delta import IncrementalMiner

#: Parameters of the ``small_dataset`` fixture.
SMALL_DATASET_PARAMS = GeneratorParams(
    num_transactions=400,
    num_items=150,
    num_roots=6,
    fanout=3.0,
    num_patterns=50,
    avg_transaction_size=6.0,
    avg_pattern_size=3.0,
    seed=7,
)

#: Support threshold of :func:`drifting_sequence`.
DRIFT_MIN_SUPPORT = 0.15


def window_callable(window_rows):
    """The ``window`` argument of ``IncrementalMiner.apply_delta``."""
    return lambda: iter(list(window_rows))


def drifting_sequence(dataset, counting: CountingConfig):
    """Seven 60-row deltas drifting between two pattern pools, in a
    two-delta window that evicts; yields ``(miner, stats, window_rows)``
    after each delta.  Every delta after the base promotes and demotes."""
    params, taxonomy = dataset.params, dataset.taxonomy
    pools = (
        dataset.patterns,
        generate_patterns(params, taxonomy, random.Random(8)),
    )

    def draw(pool, seed):
        sized = replace(params, num_transactions=60)
        return iter(iter_transactions(sized, taxonomy, pool, random.Random(seed)))

    window_deltas = 2
    miner = IncrementalMiner(taxonomy, DRIFT_MIN_SUPPORT, counting=counting)
    window: list[list[tuple[int, ...]]] = []
    for index in range(7):
        share_b = (0.0, 0.5, 1.0, 0.5)[index % 4]
        mix = random.Random(index)
        from_a, from_b = draw(pools[0], 100 + index), draw(pools[1], 200 + index)
        added = [
            next(from_b) if mix.random() < share_b else next(from_a)
            for _ in range(60)
        ]
        window.append(added)
        evicted = window.pop(0) if len(window) > window_deltas else []
        flat = [row for delta in window for row in delta]
        stats = miner.apply_delta(added, evicted, window_callable(flat))
        yield miner, stats, flat
