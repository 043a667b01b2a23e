"""Determinism regression: the same mining run, replayed under
different ``PYTHONHASHSEED`` values, must be byte-identical.

This is the end-to-end check behind lint rule RL001: if any dict/set
hash order leaked into candidate allocation, message routing, or result
assembly, the two subprocess transcripts below would diverge.  Each
subprocess mines NPGM, HPGM, H-HPGM and H-HPGM-FGD on a seeded synthetic
corpus with tracing, telemetry and runtime invariants on, then prints a JSON
transcript of itemsets, trace events, per-node message counts, the
full JSONL observability sink and the Prometheus metrics export —
so the byte-determinism contract of ``repro.obs`` is enforced here
too, not just documented.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

MINING_SCRIPT = """
import json
import sys

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.trace import SimulationTrace
from repro.datagen.generator import generate_dataset
from repro.datagen.params import GeneratorParams
from repro.obs import EventSink, Telemetry
from repro.parallel import make_miner
from repro.perf.config import CountingConfig

params = GeneratorParams(
    num_transactions=160,
    avg_transaction_size=5.0,
    avg_pattern_size=2.5,
    num_patterns=40,
    num_items=120,
    num_roots=6,
    fanout=3.0,
    seed=7,
)
dataset = generate_dataset(params)

transcript = {}
# The naive and process legs re-run H-HPGM and H-HPGM-FGD with the
# reference kernels and on the process-pool executor: each must be
# byte-identical to its fast/serial leg, trace and sink included.  FGD
# duplicates every candidate here, so its legs cover the per-node
# tallies absorbed into one duplicated-set counter and folded once.
legs = (
    ("NPGM", "fast", "serial"),
    ("HPGM", "fast", "serial"),
    ("H-HPGM", "fast", "serial"),
    ("H-HPGM/naive", "naive", "serial"),
    ("H-HPGM/process", "fast", "process"),
    ("H-HPGM-FGD", "fast", "serial"),
    ("H-HPGM-FGD/naive", "naive", "serial"),
    ("H-HPGM-FGD/process", "fast", "process"),
)
for name, kernel, executor in legs:
    config = ClusterConfig(
        num_nodes=4,
        memory_per_node=None,
        check_invariants=True,
        executor=executor,
        workers=2 if executor == "process" else None,
    )
    cluster = Cluster.from_database(config, dataset.database)
    trace = SimulationTrace()
    sink = EventSink()
    telemetry = Telemetry(sink=sink)
    cluster.attach_telemetry(telemetry)
    cluster.attach_trace(trace)
    counting = CountingConfig.naive() if kernel == "naive" else CountingConfig()
    miner = make_miner(name.split("/")[0], cluster, dataset.taxonomy, counting=counting)
    run = miner.mine(0.08, max_k=3)
    transcript[name] = {
        "itemsets": [
            [list(itemset), count]
            for itemset, count in run.result.large_itemsets().items()
        ],
        "trace": [str(event) for event in trace.events],
        "messages_per_node": [
            [stats.messages_sent, stats.messages_received]
            for passed in run.stats.passes
            for stats in passed.nodes
        ],
        "sink": sink.lines,
        "prometheus": telemetry.registry.to_prometheus(),
        "run_stats_json": run.stats.to_json(),
    }

json.dump(transcript, sys.stdout, sort_keys=False)
"""


def run_mining(hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", MINING_SCRIPT],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
        },
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
class TestHashSeedIndependence:
    def test_transcripts_identical_across_hash_seeds(self):
        first = run_mining("1")
        second = run_mining("2")
        assert first == second, "mining transcript depends on PYTHONHASHSEED"

        transcript = json.loads(first)
        assert set(transcript) == {
            "NPGM",
            "HPGM",
            "H-HPGM",
            "H-HPGM/naive",
            "H-HPGM/process",
            "H-HPGM-FGD",
            "H-HPGM-FGD/naive",
            "H-HPGM-FGD/process",
        }
        # Kernel and executor choices are invisible in every observable
        # byte: traces, sink JSONL, Prometheus text, stats JSON.
        for name in ("H-HPGM", "H-HPGM-FGD"):
            assert transcript[name] == transcript[f"{name}/naive"]
            assert transcript[name] == transcript[f"{name}/process"]
        # FGD really counted a duplicated set (pass 2 at least).
        fgd_passes = json.loads(transcript["H-HPGM-FGD"]["run_stats_json"])["passes"]
        assert fgd_passes[1]["duplicated_candidates"] > 0
        for name, record in transcript.items():
            assert record["itemsets"], f"{name} found no itemsets"
            assert any("[pass-end]" in line for line in record["trace"])
        # NPGM reduces through the coordinator (no point-to-point
        # messages); the partitioned algorithms must actually exchange.
        for name in ("HPGM", "H-HPGM"):
            record = transcript[name]
            assert any("[send]" in line for line in record["trace"]), (
                f"{name} trace recorded no sends"
            )
            assert sum(sent for sent, _ in record["messages_per_node"]) > 0
        # The observability stream rode along in both subprocesses (the
        # byte-equality above therefore covers sink + Prometheus text).
        for name, record in transcript.items():
            assert record["sink"][0].startswith('{"schema":"repro.obs"'), name
            assert any('"type":"run-end"' in line for line in record["sink"])
            assert "# TYPE repro_probe_count counter" in record["prometheus"]
            assert '"schema": "repro.stats/v1"' in record["run_stats_json"]

    def test_algorithms_agree_on_itemsets(self):
        transcript = json.loads(run_mining("3"))
        canonical = {
            name: sorted(map(tuple, (tuple(i) for i, _ in r["itemsets"])))
            for name, r in transcript.items()
        }
        assert canonical["NPGM"] == canonical["HPGM"] == canonical["H-HPGM"]
        assert canonical["H-HPGM"] == canonical["H-HPGM-FGD"]
        for name, record in canonical.items():
            assert record == canonical[name.split("/")[0]], name
