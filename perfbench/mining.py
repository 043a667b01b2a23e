"""Mining workload: ``mine-skew``.

Each mine runs in a fresh child interpreter (``mining.py --child``), so
the child's ``ru_maxrss`` is that mine's own high-water mark.  The timed
span is cluster build + ``make_miner(...).mine()`` + ``close()``.  The
parent checks every mine against one sequential ``cumulate`` of the same
rows and requires the run digest to repeat across mines.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import common
import spans

WORKLOADS = {
    "mine-skew": {
        "rows": 8000,
        "nodes": 16,
        "min_support": 0.04,
        "max_k": 2,
        "algorithm": "H-HPGM-FGD",
        "executor": "serial",
        "delay_layer": "kernel.fold",
    },
}

MEMORY_PER_NODE = 60_000
#: Total delay injected into one layer by the attribution self-check.
INJECTED_S = 3.0


def large_digest(passes) -> str:
    """SHA-256 of every pass's large itemsets with their counts."""
    payload = [
        sorted((list(itemset), count) for itemset, count in p.large.items())
        for p in passes
        if p.large
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# Child: one mine
# ----------------------------------------------------------------------
def child(spec: dict) -> dict:
    common.require_source()
    from repro.cluster.config import ClusterConfig
    from repro.cluster.machine import Cluster
    from repro.datagen.corpus import TransactionDatabase
    from repro.parallel.registry import ALGORITHMS, make_miner
    from repro.perf.bench import run_digest
    from repro.perf.config import CountingConfig

    params = common.r30f5_params(spec["rows"])
    taxonomy, patterns = common.population(params)
    database = TransactionDatabase(
        common.sample_rows(params, taxonomy, patterns, spec["seed"], spec["rows"])
    )
    config = ClusterConfig(
        num_nodes=spec["nodes"],
        memory_per_node=MEMORY_PER_NODE,
        executor=spec["executor"],
    )
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(rss=True, keep=spans.MINING_SPANS)
        spans.install_mining(tracer, ALGORITHMS[spec["algorithm"]])
        tracer.delays = {k: float(v) for k, v in spec.get("delays", {}).items()}

    started = time.perf_counter_ns()
    root = tracer.enter("mine.op") if tracer else None
    cluster = Cluster.from_database(config, database)
    try:
        miner = make_miner(spec["algorithm"], cluster, taxonomy, counting=CountingConfig())
        run = miner.mine(spec["min_support"], max_k=spec["max_k"])
    finally:
        cluster.close()
    if tracer:
        tracer.exit(root)
    wall_ns = time.perf_counter_ns() - started
    if tracer:
        tracer.write(Path(spec["trace_out"]))
    return {
        "wall_ns": wall_ns,
        "run_digest": run_digest(run),
        "large_digest": large_digest(run.result.passes),
        "candidates": [p.num_candidates for p in run.result.passes],
        "rss_mb": common.maxrss_mb(),
        "trace": tracer.snapshot() if tracer else None,
    }


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def _prepare(cfg: dict, seed: int):
    """Generate the mining input: ``(taxonomy, rows)``."""
    params = common.r30f5_params(cfg["rows"])
    taxonomy, patterns = common.population(params)
    return taxonomy, common.sample_rows(params, taxonomy, patterns, seed, cfg["rows"])


def _reference(cfg: dict, taxonomy, rows) -> str:
    from repro.core.cumulate import cumulate
    from repro.datagen.corpus import TransactionDatabase

    result = cumulate(TransactionDatabase(rows), taxonomy, cfg["min_support"], max_k=cfg["max_k"])
    return large_digest(result.passes)


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics of one traced mine."""
    s = {k: v / 1e9 for k, v in snap["self_ns"].items()}
    calls, counts = snap["calls"], snap["counts"]
    cache_calls = calls.get("preprocess.cache_extend", 0)
    metrics = {
        "store.scan_s": s.get("store.scan", 0.0),
        "store.rows": counts.get("store.rows", 0),
        "preprocess.extend_s": (s.get("preprocess.index_extend", 0.0)
                                + s.get("preprocess.cache_extend", 0.0)),
        "preprocess.rewrite_s": s.get("preprocess.rewrite", 0.0),
        "preprocess.cache_hit_ratio": (
            1.0 - calls.get("preprocess.index_extend", 0) / cache_calls if cache_calls else 0.0
        ),
        "candidates.gen_s": s.get("candidates.gen", 0.0),
        "candidates.count": counts.get("candidates.count", 0),
        "duplication.select_s": s.get("duplication.select", 0.0),
        "duplication.copied": counts.get("duplication.copied", 0),
        "allocation.partition_s": s.get("allocation.partition", 0.0),
        "kernel.build_s": s.get("kernel.build", 0.0),
        "kernel.count_s": s.get("kernel.count", 0.0),
        "kernel.count_calls": calls.get("kernel.count", 0),
        "kernel.fold_s": s.get("kernel.fold", 0.0),
        "executor.wall_s": snap["incl_ns"].get("executor", 0) / 1e9,
        "executor.task_bytes": counts.get("executor.task_bytes", 0),
        "executor.result_bytes": counts.get("executor.result_bytes", 0),
        "network.send_s": s.get("network.send", 0.0),
        "network.drain_s": s.get("network.drain", 0.0),
        "network.messages": counts.get("network.messages", 0),
        "cluster.pass1_s": counts.get("cluster.pass1_ns", 0) / 1e9,
        "cluster.pass2_s": counts.get("cluster.pass2_ns", 0) / 1e9,
        "parallel.self_s": s.get("parallel", 0.0),
        "trace.wall_s": snap["root_ns"] / 1e9,
        "trace.unattributed_s": s.get("mine.op", 0.0),
        "trace.measure_s": s.get("trace.measure", 0.0),
    }
    for layer, kb in snap["rss_kb"].items():
        group = "rss_growth_mb." + ("cluster" if layer == "mine.op" else layer.split(".")[0])
        metrics[group] = metrics.get(group, 0.0) + kb / 1024.0
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, result: common.Run) -> None:
    cfg = WORKLOADS[workload]
    # Set-up is all data generation.  It is repeated once after every mine
    # as well, so that its median spans the whole run.
    (taxonomy, rows), took = common.timed(_prepare, cfg, seed)
    setup = [took]
    reference = _reference(cfg, taxonomy, rows)
    base = {key: cfg[key] for key in ("rows", "nodes", "min_support", "max_k", "algorithm",
                                      "executor")}
    base.update(seed=seed, workload=workload)

    walls, traced_walls, rss, layer_runs, snaps = [], [], [], [], []
    digests = set()
    deadline = time.perf_counter() + seconds
    while True:
        plain = common.run_child("mining.py", {**base, "trace": False})
        outputs = [plain]
        walls.append(plain["wall_ns"] / 1e9)
        if trace:
            trace_out = common.TRACES / f"{workload}-seed{seed}-mine{len(walls)}.jsonl"
            traced = common.run_child("mining.py",
                                      {**base, "trace": True, "trace_out": str(trace_out)})
            outputs.append(traced)
            traced_walls.append(traced["wall_ns"] / 1e9)
            snaps.append(traced["trace"])
            layer_runs.append(layer_metrics(traced["trace"]))
        for out in outputs:
            rss.append(out["rss_mb"])
            _check(out, reference, digests, result)
        setup.append(common.timed(_prepare, cfg, seed)[1])
        if time.perf_counter() >= deadline:
            break

    tx_per_s = cfg["rows"] * len(walls) / sum(walls)
    p50 = statistics.median(walls)
    tail, tail_pct = common.tail(walls)
    setup_s = statistics.median(setup)
    peak = statistics.median(rss)
    result.metric("setup_s", setup_s)
    result.metric("peak_rss_mb", peak)
    result.metric("throughput_per_s", tx_per_s)
    result.metric("p50_ms", p50 * 1e3)
    result.metric("tail_ms", tail * 1e3)
    result.report(
        f"mine_tx_per_s={tx_per_s:.1f} tx/s ({len(walls)} mines of {cfg['rows']} rows "
        f"over their summed wall time); mine wall p50={p50 * 1e3:.1f} ms, "
        f"p{tail_pct:.0f}={tail * 1e3:.1f} ms; setup_s={setup_s:.3f} s (median of "
        f"{len(setup)}); peak_rss_mb={peak:.1f} MB; candidates={plain['candidates']}"
    )
    if trace:
        _traced_metrics(cfg, base, result, walls, traced_walls, snaps, layer_runs, setup_s,
                        reference, digests)


def _check(out: dict, reference: str, digests: set, result: common.Run) -> None:
    """One mine is correct when it equals cumulate and repeats the run digest."""
    digests.add(out["run_digest"])
    result.op(out["large_digest"] == reference and len(digests) == 1,
              "a mine's large itemsets or run digest differ from the reference")


def _traced_metrics(cfg, base, result, walls, traced_walls, snaps, layer_runs, setup_s,
                    reference, digests) -> None:
    names = set().union(*layer_runs)
    metrics = {name: statistics.median(run.get(name, 0.0) for run in layer_runs)
               for name in names}
    metrics["datagen.s"] = setup_s
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    metrics["trace.overhead_ratio"] = overhead
    reconciled = all(spans.reconciles(snap) for snap in snaps)
    result.check(reconciled, "traced self times do not sum to the traced wall time")

    # Attribution self-check: delay one layer, expect its self time to
    # grow by the injected amount and no other layer's to follow.
    layer = cfg["delay_layer"]
    calls = max(1, snaps[-1]["calls"].get(layer, 0))
    per_call = INJECTED_S / calls
    trace_out = common.TRACES / f"{base['workload']}-seed{base['seed']}-delayed.jsonl"
    delayed = common.run_child("mining.py", {**base, "trace": True, "trace_out": str(trace_out),
                                             "delays": {layer: per_call}})
    _check(delayed, reference, digests, result)
    ok, detail = spans.delay_check(snaps, delayed["trace"], layer, per_call)
    result.check(ok, f"injected delay misattributed: {detail}")
    metrics["trace.reconciled"] = 1.0 if reconciled else 0.0
    metrics["trace.delay_attributed"] = 1.0 if ok else 0.0
    result.report(f"traced: overhead={overhead:+.1%} over {len(traced_walls)} traced mines; "
                  f"reconciled={reconciled}; delay check ({layer}): {detail}")
    for name, value in metrics.items():
        result.metric(name, value)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(child(json.loads(sys.stdin.read()))))
    else:
        print("usage: mining.py --child < spec.json", file=sys.stderr)
        sys.exit(2)
