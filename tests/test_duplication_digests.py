"""Pinned run digests for the three duplication variants.

The equivalence suites compare paths with each other (naive vs fast,
serial vs process), and they run at ``memory_per_node=None``, where
every duplication group fits.  The naive and fast kernels share the
H-HPGM miner path, so a bookkeeping error in that path — in how
per-node tallies are absorbed, folded or charged — would move both
sides alike and pass every comparison.  These digests are absolute:
:func:`~repro.perf.bench.run_digest` covers the large itemsets with
their supports and every per-node counter of every pass, so any
change to a simulated number fails here.

Two memory settings per variant: unbounded (TGD and FGD copy all of
``Ck``, PGD its lowest-level closures), and a bound under which the
greedy packer rejects some groups in passes 2 and 3, so resident
partitions, routing and the duplicated set all carry work at once.
The unbounded TGD and FGD mines also pin their event sink.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.obs import EventSink, Telemetry
from repro.parallel import hhpgm, hhpgm_fgd, hhpgm_tgd
from repro.parallel.registry import make_miner
from repro.perf.bench import run_digest
from repro.perf.config import CountingConfig

MIN_SUPPORT = 0.05
MAX_K = 3
#: Per-node budget under which every variant duplicates part of C2/C3.
PARTIAL_MEMORY = 2500

GOLDEN = {
    ("H-HPGM-TGD", None): (
        "954278fa043fbf6887bd798863a7c5fda4e43d091eea31b598b123fd255042b6"
    ),
    ("H-HPGM-PGD", None): (
        "de211e911244732ff112351ea0f3ec41442d82556574b214b5d70b8beb06faf6"
    ),
    ("H-HPGM-FGD", None): (
        "177775e9b0ed5e9758f61feb44aa2d7e1cf09529668b48bdcb13e2027c2f162c"
    ),
    ("H-HPGM-TGD", PARTIAL_MEMORY): (
        "a127dfcdaf0e35f061ff7f6d4eb6ae811c92c7178d3cf5d5e5da0410e985c200"
    ),
    ("H-HPGM-PGD", PARTIAL_MEMORY): (
        "cc3d7726ebc2be0c3bc96279a46d35eccc0caf63bada4c6f3bdd526ce61f755a"
    ),
    ("H-HPGM-FGD", PARTIAL_MEMORY): (
        "0aa9edb760f0f13d84175625754a0bef71288996d3826e43c34fabf9e55d0066"
    ),
}

LEGS = {
    "naive-serial": (CountingConfig.naive(), "serial"),
    "fast-serial": (CountingConfig(), "serial"),
    "fast-process": (CountingConfig(), "process"),
}


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize(
    "algorithm,memory", list(GOLDEN), ids=[f"{a}-M{m}" for a, m in GOLDEN]
)
def test_run_digest_pinned(small_dataset, algorithm, memory, leg):
    counting, executor = LEGS[leg]
    config = ClusterConfig(
        num_nodes=4,
        memory_per_node=memory,
        executor=executor,
        workers=2 if executor == "process" else None,
    )
    cluster = Cluster.from_database(config, small_dataset.database)
    miner = make_miner(algorithm, cluster, small_dataset.taxonomy, counting=counting)
    run = miner.mine(MIN_SUPPORT, max_k=MAX_K)
    if memory is not None:
        for pass_stats in run.stats.passes[1:]:
            assert 0 < pass_stats.duplicated_candidates < pass_stats.num_candidates
    assert run_digest(run) == GOLDEN[(algorithm, memory)]


#: sha256 of the event sink of an unbounded mine, where the selection
#: is all of ``Ck`` in every pass.
SINK_GOLDEN = {
    "H-HPGM-TGD": "26758924050f1209284033383e153665c6d31f5af994e44bfffb7f88d4ec1a57",
    "H-HPGM-FGD": "b91f7d4e4c4fd2615f96c513af72ce9f848faf8fec8e8b8336993c50be1937c5",
}

SELECTORS = {
    "H-HPGM-TGD": (hhpgm_tgd, "select_tree_grain"),
    "H-HPGM-FGD": (hhpgm_fgd, "select_fine_grain"),
}


@pytest.mark.parametrize("kernel", ["fast", "naive"])
@pytest.mark.parametrize("algorithm", sorted(SINK_GOLDEN))
def test_all_fit_selection_keeps_its_span_and_sink(
    small_dataset, monkeypatch, algorithm, kernel
):
    """When all of ``Ck`` fits, the pass places no candidate by root key,
    yet the selector still runs inside its ``duplicate-select`` span and
    the sink is byte-identical."""
    module, name = SELECTORS[algorithm]
    selector = getattr(module, name)
    selected = []

    def select(*args, **kwargs):
        chosen = selector(*args, **kwargs)
        selected.append(len(chosen))
        return chosen

    def placement(*args, **kwargs):
        raise AssertionError("an all-fit pass placed candidates by root key")

    monkeypatch.setattr(module, name, select)
    monkeypatch.setattr(hhpgm, "partition_candidates_by_root", placement)
    cluster = Cluster.from_database(
        ClusterConfig(num_nodes=4, memory_per_node=None), small_dataset.database
    )
    sink = EventSink()
    cluster.attach_telemetry(Telemetry(sink=sink))
    counting = CountingConfig.naive() if kernel == "naive" else CountingConfig()
    miner = make_miner(algorithm, cluster, small_dataset.taxonomy, counting=counting)
    run = miner.mine(MIN_SUPPORT, max_k=MAX_K)
    events = [json.loads(line) for line in sink.lines]
    opened = [
        event["attrs"]["k"]
        for event in events
        if event["type"] == "span-open" and event["name"] == "duplicate-select"
    ]
    assert opened == [2, 3]
    assert selected == [
        p.num_candidates for p in run.stats.passes[1:]
    ] == [p.duplicated_candidates for p in run.stats.passes[1:]]
    digest = hashlib.sha256("\n".join(sink.lines).encode()).hexdigest()
    assert digest == SINK_GOLDEN[algorithm]
