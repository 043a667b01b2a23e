"""Quest-style synthetic transaction generator with a taxonomy.

Reimplements the generation procedure of Agrawal & Srikant (VLDB '94)
extended for classification hierarchies (VLDB '95), which the paper uses
verbatim ("The generation procedure is based on the method described in
[SA95]"):

1. Build the classification hierarchy (roots / fanout from the params).
2. Draw a pool of *maximal potentially large itemsets* ("patterns").
   Pattern sizes are Poisson around ``avg_pattern_size``; a fraction of
   each pattern's items (exponential around the correlation level) is
   inherited from the previous pattern; the rest are fresh draws from the
   taxonomy's leaves (or, with ``interior_item_prob``, interior items).
   Each pattern carries an exponentially distributed weight (optionally
   raised to a power to crank skew) and a corruption level drawn from a
   clipped normal.
3. Fill each transaction (Poisson size) by repeatedly picking a pattern
   by weight, corrupting it (dropping items while a uniform draw stays
   below the corruption level) and appending what fits; an over-long
   pattern is still appended in half of the cases, per the original
   recipe.

The entire dataset is a deterministic function of
:class:`~repro.datagen.params.GeneratorParams` (including its seed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.datagen.corpus import Transaction, TransactionDatabase
from repro.datagen.params import GeneratorParams
from repro.taxonomy.generate import generate_taxonomy
from repro.taxonomy.hierarchy import Taxonomy


@dataclass(frozen=True)
class Pattern:
    """One maximal potentially large itemset of the generator pool."""

    items: tuple[int, ...]
    weight: float
    corruption: float


@dataclass(frozen=True)
class SyntheticDataset:
    """A generated dataset: hierarchy, transactions, and provenance."""

    params: GeneratorParams
    taxonomy: Taxonomy
    database: TransactionDatabase
    patterns: tuple[Pattern, ...]

    @property
    def name(self) -> str:
        return f"R{self.params.num_roots}F{self.params.fanout:g}"


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's Poisson sampler; adequate for the small means used here."""
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _draw_pattern_items(
    rng: random.Random,
    size: int,
    previous: tuple[int, ...],
    leaves: tuple[int, ...],
    interior: tuple[int, ...],
    correlation: float,
    interior_item_prob: float,
) -> tuple[int, ...]:
    """Draw one pattern: part inherited from ``previous``, part fresh."""
    chosen: set[int] = set()
    if previous:
        fraction = min(1.0, rng.expovariate(1.0 / correlation) if correlation > 0 else 0.0)
        inherit = min(len(previous), round(fraction * size))
        if inherit:
            chosen.update(rng.sample(previous, inherit))
    while len(chosen) < size:
        if interior and rng.random() < interior_item_prob:
            chosen.add(rng.choice(interior))
        else:
            chosen.add(rng.choice(leaves))
    return tuple(sorted(chosen))


def generate_patterns(
    params: GeneratorParams,
    taxonomy: Taxonomy,
    rng: random.Random,
) -> tuple[Pattern, ...]:
    """Draw the potentially-large-itemset pool (step 2 of the recipe)."""
    leaves = taxonomy.leaves
    interior = tuple(i for i in sorted(taxonomy.items) if not taxonomy.is_leaf(i))
    patterns: list[Pattern] = []
    previous: tuple[int, ...] = ()
    weights: list[float] = []
    for _ in range(params.num_patterns):
        size = max(1, _poisson(rng, params.avg_pattern_size))
        size = min(size, len(leaves))
        items = _draw_pattern_items(
            rng,
            size,
            previous,
            leaves,
            interior,
            params.correlation,
            params.interior_item_prob,
        )
        corruption = min(
            1.0,
            max(0.0, rng.gauss(params.corruption_mean, params.corruption_sigma)),
        )
        weight = rng.expovariate(1.0) ** params.pattern_weight_exponent
        weights.append(weight)
        patterns.append(Pattern(items=items, weight=weight, corruption=corruption))
        previous = items
    total = sum(weights)
    if total > 0:
        patterns = [
            Pattern(items=p.items, weight=p.weight / total, corruption=p.corruption)
            for p in patterns
        ]
    return tuple(patterns)


def _cumulative_weights(patterns: tuple[Pattern, ...]) -> list[float]:
    cumulative: list[float] = []
    running = 0.0
    for pattern in patterns:
        running += pattern.weight
        cumulative.append(running)
    return cumulative


def iter_transactions(
    params: GeneratorParams,
    taxonomy: Taxonomy,
    patterns: tuple[Pattern, ...] | None = None,
    rng: random.Random | None = None,
) -> Iterator[Transaction]:
    """Stream ``params.num_transactions`` transactions, one at a time.

    This is the out-of-core generation path: it draws from exactly the
    same RNG sequence as :func:`generate_transactions` (which is now a
    thin materialising wrapper), so streaming a dataset into a
    :class:`~repro.store.writer.StoreWriter` yields row-for-row the
    database an in-memory run would mine — without ever holding more
    than one transaction.
    """
    rng = rng if rng is not None else random.Random(params.seed)
    if patterns is None:
        patterns = generate_patterns(params, taxonomy, rng)
    cumulative = _cumulative_weights(patterns)
    top = cumulative[-1]

    for _ in range(params.num_transactions):
        target = max(1, _poisson(rng, params.avg_transaction_size))
        contents: set[int] = set()
        while len(contents) < target:
            pattern = patterns[bisect_right(cumulative, rng.random() * top)]
            kept = list(pattern.items)
            while kept and rng.random() < pattern.corruption:
                kept.pop(rng.randrange(len(kept)))
            if not kept:
                continue
            if len(contents) + len(kept) > target and contents:
                # Over-long pattern: append anyway half the time, else
                # finish the transaction (original Quest behaviour).
                if rng.random() < 0.5:
                    contents.update(kept)
                break
            contents.update(kept)
        yield tuple(sorted(contents))


def generate_transactions(
    params: GeneratorParams,
    taxonomy: Taxonomy,
    patterns: tuple[Pattern, ...] | None = None,
    rng: random.Random | None = None,
) -> TransactionDatabase:
    """Fill ``params.num_transactions`` transactions from the pattern pool.

    Separated from :func:`generate_dataset` so tests and ablations can
    reuse one taxonomy/pattern pool across several transaction draws.
    Materialises the whole database; for datasets that should never
    live in memory use :func:`iter_transactions` /
    :func:`generate_dataset_to_store` instead.
    """
    return TransactionDatabase(iter_transactions(params, taxonomy, patterns, rng))


def generate_dataset(params: GeneratorParams) -> SyntheticDataset:
    """Generate the full dataset described by ``params``.

    Returns taxonomy, transactions and the pattern pool; everything is a
    pure function of ``params``.
    """
    rng = random.Random(params.seed)
    taxonomy = generate_taxonomy(
        num_items=params.num_items,
        num_roots=params.num_roots,
        fanout=params.fanout,
        seed=rng.randrange(2**31),
    )
    patterns = generate_patterns(params, taxonomy, rng)
    database = generate_transactions(params, taxonomy, patterns, rng)
    return SyntheticDataset(
        params=params, taxonomy=taxonomy, database=database, patterns=patterns
    )


def generate_dataset_to_store(
    params: GeneratorParams,
    path: str | Path,
    segment_rows: int | None = None,
) -> Path:
    """Generate a dataset straight into a columnar store directory.

    The transactions stream from :func:`iter_transactions` into the
    segment writer — peak memory is one segment's columns, independent
    of ``params.num_transactions`` — and the taxonomy is saved next to
    the manifest (``taxonomy.txt``), so the store directory is a
    self-contained mining input for ``repro-mine mine --store`` /
    ``repro-bench --store``.  Returns the manifest path.

    The store holds exactly the rows :func:`generate_dataset` would
    produce for the same ``params`` (same RNG stream, same
    normalisation) — digests of store-backed runs match in-memory runs
    byte for byte.
    """
    from repro.store.format import TAXONOMY_NAME
    from repro.store.writer import DEFAULT_SEGMENT_ROWS, StoreWriter
    from repro.taxonomy.io import save_taxonomy

    rng = random.Random(params.seed)
    taxonomy = generate_taxonomy(
        num_items=params.num_items,
        num_roots=params.num_roots,
        fanout=params.fanout,
        seed=rng.randrange(2**31),
    )
    patterns = generate_patterns(params, taxonomy, rng)
    meta = {
        "generator": "repro.datagen",
        "params": {
            "num_transactions": params.num_transactions,
            "num_items": params.num_items,
            "num_patterns": params.num_patterns,
            "num_roots": params.num_roots,
            "fanout": params.fanout,
            "seed": params.seed,
        },
    }
    with StoreWriter(
        path,
        segment_rows=segment_rows if segment_rows is not None else DEFAULT_SEGMENT_ROWS,
        meta=meta,
    ) as writer:
        writer.extend(iter_transactions(params, taxonomy, patterns, rng))
        save_taxonomy(taxonomy, writer.path / TAXONOMY_NAME)
    return writer.close()
