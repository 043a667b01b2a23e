"""Unit tests for repro.cluster.disk, node and machine."""

import gc

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.disk import LocalDisk
from repro.cluster.machine import Cluster
from repro.cluster.node import Node
from repro.cluster.stats import NodeStats
from repro.datagen.corpus import TransactionDatabase
from repro.datagen.partition import partition_evenly
from repro.errors import ClusterError, MemoryBudgetError


@pytest.fixture
def database():
    return TransactionDatabase([(1, 2), (3,), (4, 5, 6), (7,)])


class TestLocalDisk:
    def test_scan_accounts_io(self, database):
        disk = LocalDisk(database)
        stats = NodeStats()
        transactions = list(disk.scan(stats))
        assert transactions == list(database)
        assert stats.io_scans == 1
        assert stats.io_items == database.total_items()

    def test_repeated_scans_accumulate(self, database):
        disk = LocalDisk(database)
        stats = NodeStats()
        list(disk.scan(stats))
        list(disk.scan(stats))
        assert stats.io_scans == 2
        assert stats.io_items == 2 * database.total_items()

    def test_scan_without_stats(self, database):
        assert len(list(LocalDisk(database).scan())) == len(database)


class TestNode:
    def test_charge_candidates_records(self, database):
        node = Node(0, database, ClusterConfig(num_nodes=1, memory_per_node=10))
        node.charge_candidates(4)
        assert node.stats.candidates_stored == 4
        assert node.free_slots == 6

    def test_strict_memory_raises(self, database):
        config = ClusterConfig(num_nodes=1, memory_per_node=3, strict_memory=True)
        node = Node(0, database, config)
        with pytest.raises(MemoryBudgetError):
            node.charge_candidates(4)

    def test_lenient_memory_records_overflow(self, database):
        config = ClusterConfig(num_nodes=1, memory_per_node=3)
        node = Node(0, database, config)
        node.charge_candidates(10)
        assert node.stats.candidates_stored == 10
        assert node.free_slots == 0

    def test_unbounded_memory(self, database):
        node = Node(0, database, ClusterConfig(num_nodes=1, memory_per_node=None))
        node.charge_candidates(10**9)
        assert node.free_slots is None

    def test_begin_pass_resets(self, database):
        node = Node(0, database, ClusterConfig(num_nodes=1))
        node.stats.probes = 5
        node.begin_pass()
        assert node.stats.probes == 0


class TestCluster:
    def test_from_database_partitions_evenly(self, database):
        cluster = Cluster.from_database(ClusterConfig(num_nodes=2), database)
        assert cluster.num_transactions == len(database)
        assert [len(node.disk) for node in cluster.nodes] == [2, 2]

    def test_partition_count_mismatch(self, database):
        with pytest.raises(ClusterError):
            Cluster(ClusterConfig(num_nodes=3), [database])

    def test_finish_pass_prices_and_snapshots(self, database):
        cluster = Cluster.from_database(ClusterConfig(num_nodes=2), database)
        cluster.begin_pass()
        cluster.nodes[0].stats.probes = 1000
        pass_stats = cluster.finish_pass(
            k=2, num_candidates=10, num_large=4, reduced_counts=20
        )
        assert pass_stats.k == 2
        assert len(pass_stats.node_times) == 2
        assert pass_stats.node_times[0] > pass_stats.node_times[1]
        assert pass_stats.elapsed >= max(pass_stats.node_times)
        assert pass_stats.coordinator_time > 0

    def test_finish_pass_rejects_undelivered_messages(self, database):
        cluster = Cluster.from_database(ClusterConfig(num_nodes=2), database)
        cluster.begin_pass()
        cluster.network.send(0, 1, (1,))
        with pytest.raises(ClusterError):
            cluster.finish_pass(k=2, num_candidates=1, num_large=0, reduced_counts=0)

    def test_elapsed_is_max_not_sum(self, database):
        cluster = Cluster.from_database(ClusterConfig(num_nodes=2), database)
        cluster.begin_pass()
        cluster.nodes[0].stats.probes = 500
        cluster.nodes[1].stats.probes = 500
        stats = cluster.finish_pass(
            k=2, num_candidates=0, num_large=0, reduced_counts=0
        )
        cost = cluster.config.cost
        assert stats.elapsed == pytest.approx(500 * cost.probe)

    def test_pass_stats_aggregates(self, database):
        cluster = Cluster.from_database(ClusterConfig(num_nodes=2), database)
        cluster.begin_pass()
        cluster.nodes[0].stats.bytes_received = 100
        cluster.nodes[1].stats.bytes_received = 300
        stats = cluster.finish_pass(
            k=2, num_candidates=0, num_large=0, reduced_counts=0
        )
        assert stats.total_bytes_received == 400
        assert stats.avg_bytes_received == 200
        assert stats.probe_distribution() == [0, 0]


class TestSpill:
    """Process clusters over in-memory partitions scan a temporary store."""

    @staticmethod
    def spill_directory(cluster):
        return cluster.nodes[0].disk.partition.store.path

    def process_cluster(self, database):
        config = ClusterConfig(num_nodes=2, executor="process", workers=2)
        return Cluster.from_database(config, database)

    def test_nodes_scan_their_own_rows(self, database):
        cluster = self.process_cluster(database)
        try:
            for node, partition in zip(
                cluster.nodes, partition_evenly(database, 2)
            ):
                assert list(node.disk.scan()) == list(partition)
                assert node.disk.stored_items == partition.total_items()
        finally:
            cluster.close()

    def test_serial_cluster_does_not_spill(self, database):
        cluster = Cluster.from_database(ClusterConfig(num_nodes=2), database)
        assert all(
            isinstance(node.disk.partition, TransactionDatabase)
            for node in cluster.nodes
        )

    def test_close_removes_the_directory(self, database):
        cluster = self.process_cluster(database)
        directory = self.spill_directory(cluster)
        assert directory.is_dir()
        assert directory.name.startswith("repro-spill-")
        cluster.close()
        assert not directory.exists()
        cluster.close()  # idempotent

    def test_unclosed_cluster_is_cleaned_up_when_collected(self, database):
        cluster = self.process_cluster(database)
        directory = self.spill_directory(cluster)
        assert directory.is_dir()
        del cluster
        gc.collect()
        assert not directory.exists()
