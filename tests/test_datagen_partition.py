"""Unit tests for repro.datagen.partition."""

import random

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.datagen.corpus import TransactionDatabase
from repro.datagen.partition import partition_evenly, partition_weighted
from repro.errors import DataGenerationError
from repro.store import open_store, write_store


@pytest.fixture
def database():
    return TransactionDatabase([(i,) for i in range(20)])


class TestPartitionEvenly:
    def test_sizes(self, database):
        parts = partition_evenly(database, 3)
        assert sorted(len(p) for p in parts) == [6, 7, 7]

    def test_round_robin_assignment(self, database):
        parts = partition_evenly(database, 4)
        assert list(parts[0]) == [(0,), (4,), (8,), (12,), (16,)]

    def test_nothing_lost(self, database):
        parts = partition_evenly(database, 7)
        merged = sorted(t for p in parts for t in p)
        assert merged == sorted(database)

    def test_single_node(self, database):
        parts = partition_evenly(database, 1)
        assert parts[0] == database

    def test_more_nodes_than_transactions(self):
        parts = partition_evenly(TransactionDatabase([(1,)]), 4)
        assert [len(p) for p in parts] == [1, 0, 0, 0]

    def test_invalid_nodes(self, database):
        with pytest.raises(DataGenerationError):
            partition_evenly(database, 0)

    @pytest.mark.parametrize("nodes", [1, 3, 8, 40])
    def test_equals_round_robin_and_store_placement(self, tmp_path, nodes):
        rng = random.Random(nodes)
        # Unsorted rows with repeated items, normalised by the database.
        database = TransactionDatabase(
            [rng.choices(range(50), k=rng.randint(0, 9)) for _ in range(200)]
        )
        parts = partition_evenly(database, nodes)
        buckets = [[] for _ in range(nodes)]
        for index, row in enumerate(database):
            buckets[index % nodes].append(row)
        assert parts == [TransactionDatabase(bucket) for bucket in buckets]
        assert all(type(row) is tuple for part in parts for row in part)

        write_store(database, tmp_path / "rows")
        store = open_store(tmp_path / "rows")
        cluster = Cluster.from_store(ClusterConfig(num_nodes=nodes), store)
        try:
            assert [list(node.disk.scan()) for node in cluster.nodes] == [
                list(part) for part in parts
            ]
        finally:
            cluster.close()


class TestPartitionWeighted:
    def test_proportional(self, database):
        parts = partition_weighted(database, [3, 1])
        assert [len(p) for p in parts] == [15, 5]

    def test_sizes_sum(self, database):
        parts = partition_weighted(database, [0.3, 0.5, 0.7])
        assert sum(len(p) for p in parts) == len(database)

    def test_zero_weight_gets_nothing(self, database):
        parts = partition_weighted(database, [1, 0])
        assert [len(p) for p in parts] == [20, 0]

    def test_largest_remainder_within_one(self, database):
        parts = partition_weighted(database, [1, 1, 1])
        exact = len(database) / 3
        assert all(abs(len(p) - exact) <= 1 for p in parts)

    @pytest.mark.parametrize("weights", [[], [-1, 2], [0, 0]])
    def test_invalid_weights(self, database, weights):
        with pytest.raises(DataGenerationError):
            partition_weighted(database, weights)
