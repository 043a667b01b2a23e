"""End-to-end equivalence: counting config and executor never change
what a miner produces.

For every one of the six algorithms, a fast-kernel run and a
process-pool run must match the naive serial reference bit for bit:
same large itemsets with the same supports, and the same ``RunStats``
JSON (every per-node counter — probes, generated, increments, bytes,
messages).  A separate case pins the observability sink: the JSONL
event stream of a process-pool run equals the serial one byte for byte.
"""

from __future__ import annotations

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.core.cumulate import cumulate
from repro.obs import EventSink, Telemetry
from repro.parallel.registry import ALGORITHMS, make_miner
from repro.perf.config import CountingConfig
from repro.perf.executor import execute_per_node
from repro.errors import ClusterError
from repro.refresh.delta import IncrementalMiner
from repro.refresh.driver import RefreshDriver

MINSUP = 0.02
MAX_K = 3


def run_one(
    dataset,
    algorithm: str,
    counting: CountingConfig,
    executor: str = "serial",
    workers: int | None = None,
    sink: EventSink | None = None,
):
    config = ClusterConfig(
        num_nodes=4,
        memory_per_node=None,
        check_invariants=True,
        executor=executor,
        workers=workers,
    )
    cluster = Cluster.from_database(config, dataset.database)
    if sink is not None:
        cluster.attach_telemetry(Telemetry(sink=sink))
    miner = make_miner(algorithm, cluster, dataset.taxonomy, counting=counting)
    return miner.mine(MINSUP, max_k=MAX_K)


def passes_of(run):
    return [(p.k, p.num_candidates, p.large) for p in run.result.passes]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestKernelAndExecutorEquivalence:
    def test_fast_equals_naive(self, small_dataset, algorithm):
        naive = run_one(small_dataset, algorithm, CountingConfig.naive())
        fast = run_one(small_dataset, algorithm, CountingConfig())
        assert passes_of(fast) == passes_of(naive)
        assert fast.stats.to_json() == naive.stats.to_json()

    def test_process_equals_serial(self, small_dataset, algorithm):
        serial = run_one(small_dataset, algorithm, CountingConfig())
        pooled = run_one(
            small_dataset,
            algorithm,
            CountingConfig(),
            executor="process",
            workers=2,
        )
        assert passes_of(pooled) == passes_of(serial)
        assert pooled.stats.to_json() == serial.stats.to_json()


class TestObservabilityEquivalence:
    def test_sink_bytes_identical_across_executors(self, small_dataset):
        serial_sink, pooled_sink = EventSink(), EventSink()
        run_one(small_dataset, "H-HPGM", CountingConfig(), sink=serial_sink)
        run_one(
            small_dataset,
            "H-HPGM",
            CountingConfig(),
            executor="process",
            workers=2,
            sink=pooled_sink,
        )
        assert pooled_sink.lines == serial_sink.lines


class TestMatchesCumulate:
    def test_fast_parallel_equals_fast_cumulate(self, small_dataset):
        sequential = cumulate(
            small_dataset.database,
            small_dataset.taxonomy,
            MINSUP,
            max_k=MAX_K,
            counting=CountingConfig(),
        )
        run = run_one(small_dataset, "H-HPGM-FGD", CountingConfig())
        assert [p.large for p in run.result.passes] == [
            p.large for p in sequential.passes
        ]


class TestDefaultCounting:
    def test_environment_does_not_choose_counting(
        self, monkeypatch, tmp_path, small_dataset
    ):
        """Callers that omit ``counting`` get ``CountingConfig()``: the
        environment never picks the kernel, the dedup or the store."""
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        monkeypatch.setenv("REPRO_DEDUP", "0")
        monkeypatch.setenv("REPRO_STORE", "/nonexistent")
        cluster = Cluster.from_database(
            ClusterConfig(num_nodes=2), small_dataset.database
        )
        taxonomy = small_dataset.taxonomy
        miner = make_miner("H-HPGM", cluster, taxonomy)
        incremental = IncrementalMiner(taxonomy, MINSUP)
        driver = RefreshDriver.create(tmp_path / "refresh", taxonomy, MINSUP)
        assert miner.counting == CountingConfig()
        assert incremental.counting == CountingConfig()
        assert driver.counting == CountingConfig()


class TestExecutorBackend:
    def test_serial_and_single_worker_inline(self):
        config = ClusterConfig(num_nodes=2, executor="process", workers=1)
        # workers=1 short-circuits to the inline path (no pool spawned).
        assert execute_per_node(config, _double, [1, 2, 3]) == [2, 4, 6]
        config = ClusterConfig(num_nodes=2)
        assert execute_per_node(config, _double, [5]) == [10]

    def test_process_pool_preserves_task_order(self):
        config = ClusterConfig(num_nodes=4, executor="process", workers=2)
        assert execute_per_node(config, _double, list(range(8))) == [
            2 * n for n in range(8)
        ]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ClusterError):
            ClusterConfig(num_nodes=2, executor="threads")
        with pytest.raises(ClusterError):
            ClusterConfig(num_nodes=2, workers=0)


def _double(n: int) -> int:
    return 2 * n


class TestPairOwnerMatrix:
    def test_matrix_matches_itemset_owner(self):
        """The vectorized FNV replay must agree with the scalar hash."""
        pytest.importorskip("numpy", exc_type=ImportError)
        import random

        from repro.parallel.allocation import itemset_owner, pair_owner_matrix

        rng = random.Random(1998)
        universe = sorted(rng.sample(range(1, 10_000), 200))
        for num_nodes in (2, 8, 13):
            index_of, owners = pair_owner_matrix(universe, num_nodes)
            for _ in range(2_000):
                pair = tuple(sorted(rng.sample(universe, 2)))
                assert owners[index_of[pair[0]], index_of[pair[1]]] == itemset_owner(
                    pair, num_nodes
                )

    def test_empty_universe(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.parallel.allocation import pair_owner_matrix

        index_of, owners = pair_owner_matrix((), 4)
        assert index_of == {} and owners.shape == (0, 0)
