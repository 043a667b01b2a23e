"""Shared fixtures.

``paper_taxonomy`` reconstructs the classification hierarchy used by the
paper's running examples (Figures 4/6/8, Examples 1–5):

* roots 1, 2, 3;
* 1 → {4, 5}, 4 → {9, 10, 11}, 5 → {12, 13};
* 2 → {6}, 6 → {14, 15};
* 3 → {7, 8}.

Every ancestor relation the examples rely on holds here: ancestors(10)
= (4, 1), ancestors(12) = (5, 1), ancestors(14) = (6, 2), ancestors(8)
= (3,), and with the examples' large items {1..10, 15} the transaction
{10, 12, 14} rewrites to exactly {5, 6, 10} as in Example 2.
"""

from __future__ import annotations

import pytest

from repro.datagen.corpus import TransactionDatabase
from repro.datagen.generator import generate_dataset
from repro.datagen.params import GeneratorParams
from repro.taxonomy.builder import taxonomy_from_parents
from repro.taxonomy.hierarchy import Taxonomy

from tests.datasets import SMALL_DATASET_PARAMS

PAPER_PARENTS: dict[int, int | None] = {
    1: None,
    2: None,
    3: None,
    4: 1,
    5: 1,
    6: 2,
    7: 3,
    8: 3,
    9: 4,
    10: 4,
    11: 4,
    12: 5,
    13: 5,
    14: 6,
    15: 6,
}

#: The large items of the paper's Examples 1-5.
PAPER_LARGE_ITEMS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15})


@pytest.fixture(scope="session")
def paper_taxonomy() -> Taxonomy:
    return taxonomy_from_parents(PAPER_PARENTS)


@pytest.fixture(scope="session")
def small_dataset():
    """A small but non-trivial synthetic dataset (shared; do not mutate)."""
    return generate_dataset(SMALL_DATASET_PARAMS)


@pytest.fixture(scope="session")
def skewed_dataset():
    """A dataset with cranked pattern-frequency skew (shared)."""
    params = GeneratorParams(
        num_transactions=600,
        num_items=200,
        num_roots=8,
        fanout=3.0,
        num_patterns=60,
        avg_transaction_size=6.0,
        avg_pattern_size=3.0,
        pattern_weight_exponent=2.0,
        seed=13,
    )
    return generate_dataset(params)


@pytest.fixture(scope="session")
def serve_snapshot():
    """A compiled rule snapshot over the paper taxonomy (shared, immutable)."""
    from repro.core.cumulate import cumulate
    from repro.core.rules import generate_rules
    from repro.serve.snapshot import compile_snapshot
    from repro.taxonomy.builder import taxonomy_from_parents

    taxonomy = taxonomy_from_parents(PAPER_PARENTS)
    database = TransactionDatabase(
        [
            (10, 12, 14),
            (9, 15),
            (7, 10),
            (8, 10, 12),
            (13, 14),
            (7, 8, 15),
            (10, 14, 15),
            (9, 12, 13),
        ]
    )
    result = cumulate(database, taxonomy, min_support=0.2)
    rules = generate_rules(result, 0.5, taxonomy)
    return compile_snapshot(
        rules, taxonomy, result=result, source={"fixture": "serve_snapshot"}
    )


@pytest.fixture
def tiny_database() -> TransactionDatabase:
    """Six hand-written transactions over the paper taxonomy's leaves."""
    return TransactionDatabase(
        [
            (10, 12, 14),
            (9, 15),
            (7, 10),
            (8, 10, 12),
            (13, 14),
            (7, 8, 15),
        ]
    )
