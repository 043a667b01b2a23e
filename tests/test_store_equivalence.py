"""Store-backed mining is byte-identical to in-memory mining.

The store's contract is not "approximately the same itemsets" — it is
that swapping ``TransactionDatabase`` for mmap store views (over a
dataset's store, or over the temporary store an in-memory process
cluster spills to) changes **nothing observable**: the same passes, the
same supports, the same per-node counters, the same
:func:`~repro.perf.bench.run_digest`.  These tests pin that contract
for Cumulate and every parallel miner, on both executors.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.core.cumulate import cumulate
from repro.datagen.corpus import TransactionDatabase
from repro.datagen.generator import generate_dataset, generate_dataset_to_store
from repro.datagen.params import GeneratorParams
from repro.datagen.partition import partition_weighted
from repro.parallel.registry import ALGORITHMS, make_miner, mine_parallel
from repro.perf.bench import run_digest
from repro.perf.config import CountingConfig
from repro.store import StoreView, open_store

PARAMS = GeneratorParams(
    num_transactions=250,
    avg_transaction_size=6.0,
    avg_pattern_size=3.0,
    num_patterns=40,
    num_items=300,
    num_roots=10,
    fanout=3.0,
    seed=1998,
)
MIN_SUPPORT = 0.1
MAX_K = 2


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(PARAMS)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "s"
    generate_dataset_to_store(PARAMS, path, segment_rows=64)
    return path


def result_fingerprint(result) -> list:
    return [
        (
            pass_result.k,
            pass_result.num_candidates,
            sorted((tuple(i), c) for i, c in pass_result.large.items()),
        )
        for pass_result in result.passes
    ]


class TestCumulate:
    def test_store_equals_database(self, dataset, store_dir):
        in_memory = cumulate(
            dataset.database, dataset.taxonomy, MIN_SUPPORT, max_k=MAX_K
        )
        on_store = cumulate(
            open_store(store_dir), dataset.taxonomy, MIN_SUPPORT, max_k=MAX_K
        )
        assert result_fingerprint(on_store) == result_fingerprint(in_memory)

    def test_store_equals_database_under_both_kernels(self, dataset, store_dir):
        for counting in (CountingConfig(), CountingConfig.naive()):
            in_memory = cumulate(
                dataset.database,
                dataset.taxonomy,
                MIN_SUPPORT,
                max_k=MAX_K,
                counting=counting,
            )
            on_store = cumulate(
                open_store(store_dir),
                dataset.taxonomy,
                MIN_SUPPORT,
                max_k=MAX_K,
                counting=counting,
            )
            assert result_fingerprint(on_store) == result_fingerprint(in_memory)


def mine_store(store_dir, taxonomy, algorithm, config):
    """Mine ``store_dir`` on a cluster built from its store views."""
    cluster = Cluster.from_store(config, open_store(store_dir))
    try:
        miner = make_miner(algorithm, cluster, taxonomy)
        return miner.mine(MIN_SUPPORT, max_k=MAX_K)
    finally:
        cluster.close()


class TestParallelMiners:
    """Every algorithm: store-backed digest == in-memory digest."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_store_digest_matches_database(self, algorithm, dataset, store_dir):
        config = ClusterConfig(num_nodes=4, memory_per_node=60_000)
        baseline = mine_parallel(
            dataset.database,
            dataset.taxonomy,
            MIN_SUPPORT,
            algorithm=algorithm,
            config=config,
            max_k=MAX_K,
        )
        stored = mine_store(store_dir, dataset.taxonomy, algorithm, config)
        assert run_digest(stored) == run_digest(baseline)


class TestProcessExecutor:
    """The zero-copy handles under fork: views over a dataset's store,
    and over the temporary store a process cluster spills in-memory
    partitions to."""

    def test_store_process_matches_serial_list(self, dataset, store_dir):
        config_serial = ClusterConfig(num_nodes=4, memory_per_node=60_000)
        config_process = ClusterConfig(
            num_nodes=4, memory_per_node=60_000, executor="process", workers=2
        )
        baseline = mine_parallel(
            dataset.database,
            dataset.taxonomy,
            MIN_SUPPORT,
            algorithm="H-HPGM",
            config=config_serial,
            max_k=MAX_K,
        )
        stored = mine_store(store_dir, dataset.taxonomy, "H-HPGM", config_process)
        assert run_digest(stored) == run_digest(baseline)

    @pytest.mark.parametrize("algorithm", ["HPGM", "NPGM"])
    def test_spill_process_matches_serial(self, algorithm, dataset):
        config_serial = ClusterConfig(num_nodes=4, memory_per_node=60_000)
        config_process = ClusterConfig(
            num_nodes=4, memory_per_node=60_000, executor="process", workers=2
        )
        baseline = mine_parallel(
            dataset.database,
            dataset.taxonomy,
            MIN_SUPPORT,
            algorithm=algorithm,
            config=config_serial,
            max_k=MAX_K,
        )
        # In-memory partitions + process executor spill to a temporary
        # store (see Cluster.__init__).
        spilled = mine_parallel(
            dataset.database,
            dataset.taxonomy,
            MIN_SUPPORT,
            algorithm=algorithm,
            config=config_process,
            max_k=MAX_K,
        )
        assert run_digest(spilled) == run_digest(baseline)

    @pytest.mark.parametrize(
        "weights",
        [(5.0, 1.0, 3.0, 1.0), (1.0, 0.0, 2.0, 0.0)],
        ids=["uneven", "empty-nodes"],
    )
    def test_weighted_spill_matches_serial(self, weights, dataset):
        partitions = partition_weighted(dataset.database, weights)
        digests = []
        for executor in ("serial", "process"):
            config = ClusterConfig(
                num_nodes=4, memory_per_node=60_000, executor=executor, workers=2
            )
            cluster = Cluster(config, partitions)
            try:
                run = make_miner("H-HPGM", cluster, dataset.taxonomy).mine(
                    MIN_SUPPORT, max_k=MAX_K
                )
            finally:
                cluster.close()
            digests.append(run_digest(run))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("rows", [50, 5_000])
    def test_spilled_disks_pickle_as_small_handles(self, rows):
        database = TransactionDatabase(
            tuple(range(index % 97, index % 97 + 8)) for index in range(rows)
        )
        config = ClusterConfig(num_nodes=4, executor="process", workers=2)
        cluster = Cluster.from_database(config, database)
        try:
            for node in cluster.nodes:
                assert isinstance(node.disk.partition, StoreView)
                assert len(pickle.dumps(node.disk)) < 400
        finally:
            cluster.close()
