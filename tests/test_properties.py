"""Property-based tests (hypothesis) on the core data structures.

Strategy helpers build random forests and random transaction databases;
the properties pin the library's central invariants:

* taxonomy structure (ancestor chains, root consistency, acyclicity);
* Cumulate against the brute-force containment oracle;
* every parallel algorithm against Cumulate;
* transaction I/O round-trips;
* apriori-gen's completeness/soundness at the itemset level.
"""

from __future__ import annotations

import random as stdlib_random

from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig
from repro.core.candidates import apriori_gen
from repro.core.cumulate import cumulate
from repro.core.itemsets import (
    has_ancestor_pair,
    itemset_support,
    minimum_count,
)
from repro.datagen.corpus import TransactionDatabase
from repro.datagen.io import load_transactions_text, save_transactions_text
from repro.parallel.registry import ALGORITHMS, mine_parallel
from repro.store import open_store, write_store
from repro.taxonomy.hierarchy import Taxonomy


@st.composite
def taxonomies(draw, max_items: int = 30) -> Taxonomy:
    """Random forest: each item's parent is a smaller id (or none)."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    parents: dict[int, int | None] = {0: None}
    for item in range(1, n):
        is_root = draw(st.booleans()) and draw(st.booleans())
        parents[item] = None if is_root else draw(
            st.integers(min_value=0, max_value=item - 1)
        )
    return Taxonomy(parents)


@st.composite
def taxonomy_and_database(draw):
    taxonomy = draw(taxonomies())
    items = sorted(taxonomy.items)
    transactions = draw(
        st.lists(
            st.lists(st.sampled_from(items), min_size=0, max_size=6),
            min_size=1,
            max_size=25,
        )
    )
    return taxonomy, TransactionDatabase(transactions)


class TestTaxonomyProperties:
    @given(taxonomies())
    def test_ancestor_chain_is_parent_walk(self, taxonomy):
        for item in taxonomy.items:
            chain = taxonomy.ancestors(item)
            cursor = taxonomy.parent(item)
            walked = []
            while cursor is not None:
                walked.append(cursor)
                cursor = taxonomy.parent(cursor)
            assert list(chain) == walked

    @given(taxonomies())
    def test_root_is_last_ancestor(self, taxonomy):
        for item in taxonomy.items:
            chain = taxonomy.ancestors(item)
            expected_root = chain[-1] if chain else item
            assert taxonomy.root_of(item) == expected_root

    @given(taxonomies())
    def test_depth_equals_chain_length(self, taxonomy):
        for item in taxonomy.items:
            assert taxonomy.depth(item) == len(taxonomy.ancestors(item))

    @given(taxonomies())
    def test_children_inverse_of_parent(self, taxonomy):
        for item in taxonomy.items:
            for child in taxonomy.children(item):
                assert taxonomy.parent(child) == item

    @given(taxonomies())
    def test_tree_sizes_partition_universe(self, taxonomy):
        assert sum(taxonomy.tree_sizes().values()) == len(taxonomy)


class TestMiningProperties:
    @settings(max_examples=30, deadline=None)
    @given(taxonomy_and_database(), st.floats(min_value=0.1, max_value=0.9))
    def test_cumulate_matches_oracle(self, data, min_support):
        taxonomy, database = data
        result = cumulate(database, taxonomy, min_support, max_k=3)
        threshold = minimum_count(min_support, len(database))
        universe = set()
        for transaction in database:
            for item in transaction:
                universe.add(item)
                universe.update(taxonomy.ancestors(item))
        # Soundness + exact counts.
        for itemset, count in result.large_itemsets().items():
            assert itemset_support(database, itemset, taxonomy) == count
            assert count >= threshold
        # Completeness at k = 1 and k = 2.
        from itertools import combinations

        for k in (1, 2):
            for itemset in combinations(sorted(universe), k):
                if has_ancestor_pair(itemset, taxonomy):
                    continue
                support = itemset_support(database, itemset, taxonomy)
                if support >= threshold:
                    assert itemset in result.large_itemsets(k)

    @settings(max_examples=15, deadline=None)
    @given(
        taxonomy_and_database(),
        st.sampled_from(sorted(ALGORITHMS)),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([None, 10, 100]),
    )
    def test_parallel_equals_sequential(self, data, algorithm, num_nodes, memory):
        taxonomy, database = data
        expected = cumulate(database, taxonomy, 0.25, max_k=3)
        run = mine_parallel(
            database,
            taxonomy,
            0.25,
            algorithm=algorithm,
            config=ClusterConfig(num_nodes=num_nodes, memory_per_node=memory),
            max_k=3,
        )
        assert run.result == expected


class TestAprioriGenProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
            ).map(lambda p: tuple(sorted(set(p)))).filter(lambda t: len(t) == 2),
            max_size=30,
        )
    )
    def test_soundness_and_completeness(self, large_pairs):
        candidates = apriori_gen(large_pairs, 3)
        large_set = set(large_pairs)
        # Soundness: every 2-subset of a candidate is large.
        from itertools import combinations

        for candidate in candidates:
            assert len(candidate) == 3
            for pair in combinations(candidate, 2):
                assert pair in large_set
        # Completeness: every triple whose 2-subsets are all large is
        # generated.
        items = sorted({i for pair in large_pairs for i in pair})
        for triple in combinations(items, 3):
            if all(p in large_set for p in combinations(triple, 2)):
                assert triple in candidates


@st.composite
def sequences_strategy(draw):
    """Random canonical sequences: 1-4 elements of 1-3 small item ids."""
    return tuple(
        tuple(sorted(set(element)))
        for element in draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=15),
                    min_size=1,
                    max_size=3,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )


class TestSequenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(sequences_strategy())
    def test_wire_roundtrip(self, sequence):
        from repro.sequences.parallel import decode_sequence, encode_sequence

        assert decode_sequence(encode_sequence(sequence)) == sequence

    @settings(max_examples=40, deadline=None)
    @given(sequences_strategy(), st.integers(min_value=1, max_value=3))
    def test_k_subsequences_are_contained(self, data_sequence, k):
        from repro.sequences.gsp import k_subsequences
        from repro.sequences.model import sequence_contains, sequence_length

        for subsequence in k_subsequences(data_sequence, k):
            assert sequence_length(subsequence) == k
            assert sequence_contains(data_sequence, subsequence)

    @settings(max_examples=40, deadline=None)
    @given(sequences_strategy(), sequences_strategy())
    def test_containment_iff_subsequence_enumerated(self, data_sequence, pattern):
        from repro.sequences.gsp import k_subsequences
        from repro.sequences.model import sequence_contains, sequence_length

        k = sequence_length(pattern)
        enumerated = pattern in k_subsequences(data_sequence, k)
        assert enumerated == sequence_contains(data_sequence, pattern)


class TestIoProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        transactions=st.lists(
            st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=8),
            max_size=20,
        )
    )
    def test_roundtrip_both_formats(self, tmp_path_factory, transactions):
        """Text and the columnar store; the store writer is handed the
        raw, unnormalised rows and must normalise them as the database
        does (the in-memory process spill relies on it)."""
        database = TransactionDatabase(transactions)
        directory = tmp_path_factory.mktemp("io")
        token = stdlib_random.randrange(10**9)
        text_path = directory / f"{token}.txt"
        store_path = directory / f"{token}-store"
        save_transactions_text(database, text_path)
        write_store(transactions, store_path)
        assert load_transactions_text(text_path) == database
        assert TransactionDatabase(open_store(store_path)) == database
