"""``repro-bench`` — wall-clock benchmark trajectory for the miners.

Where the cost model measures *simulated* seconds, this harness
measures *host* seconds: how long the simulator itself takes to run a
table6-style workload under each counting/executor configuration.  It
pits three configurations against each other on identical inputs:

* ``naive-serial`` — reference enumeration kernels, inline execution
  (the pre-optimization baseline);
* ``fast-serial`` — trie kernels + distinct-transaction dedup, inline;
* ``fast-process`` — the same kernels on the process-pool executor.

Every run's mining result and :class:`~repro.cluster.stats.RunStats`
are hashed; the harness **fails (exit 1) if any configuration disagrees
with the naive baseline** — the wall-clock trajectory is only valid
evidence while the metric-preservation contract holds.  CI runs
``repro-bench --quick`` on every push for exactly this reason.

Each run writes one bench record (``BENCH_<label>.json``, kind
``mining``) and appends it to ``HISTORY.jsonl`` next to it; successive
PRs commit refreshed records, so the repository history *is* the
performance trajectory.  ``repro-bench compare BENCH_x.json --history
benchmarks/HISTORY.jsonl`` checks a fresh record against that
trajectory, flagging per-kernel/per-algorithm regressions beyond a
noise band (see :mod:`repro.perf.history` and ``docs/performance.md``).

Two further verbs share the entry point: ``repro-bench compare``
(trajectory watchdog, above) and ``repro-bench scale``
(:mod:`repro.perf.scale`) — per-core scaling curves with peak-RSS
evidence over a columnar store, each point measured in a child process.
Pass ``--store DIR`` to run the main matrix over a store directory
(mmap views instead of pickled partitions).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.datagen.generator import generate_dataset
from repro.experiments import common
from repro.parallel.registry import make_miner
from repro.perf.config import CountingConfig
from repro.perf.executor import effective_workers
from repro.perf.history import (
    BenchRecord,
    compare_against_history,
    host_info,
    render_comparison,
    write_record,
)

#: (name, kernel, dedup, executor) — ``naive-serial`` must stay first:
#: it is the digest baseline the other configurations are checked against.
CONFIGURATIONS: tuple[tuple[str, str, bool, str], ...] = (
    ("naive-serial", "naive", False, "serial"),
    ("fast-serial", "fast", True, "serial"),
    ("fast-process", "fast", True, "process"),
)


def run_digest(run) -> str:
    """SHA-256 over the mining result and the full run statistics.

    Two runs with equal digests produced identical large itemsets with
    identical supports *and* identical per-node counters — the strong
    form of the probe-preservation contract.
    """
    payload = {
        "passes": [
            {
                "k": pass_result.k,
                "num_candidates": pass_result.num_candidates,
                "large": sorted(
                    (list(itemset), count)
                    for itemset, count in pass_result.large.items()
                ),
            }
            for pass_result in run.result.passes
        ],
        "stats": run.stats.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def bench_one(
    dataset,
    algorithm: str,
    num_nodes: int,
    min_support: float,
    kernel: str,
    dedup: bool,
    executor: str,
    workers: int | None,
    max_k: int | None,
    store=None,
    taxonomy=None,
) -> tuple[float, str]:
    """One timed mining run; returns ``(wall_seconds, run_digest)``.

    ``store`` (an opened :class:`~repro.store.reader.TransactionStore`)
    replaces ``dataset.database`` as the scanned partitions; pass
    ``taxonomy`` alongside it when ``dataset`` is None (store-only
    benchmarks read the taxonomy from the store directory).
    """
    config = ClusterConfig(
        num_nodes=num_nodes,
        memory_per_node=common.DEFAULT_MEMORY_PER_NODE,
        executor=executor,
        workers=workers,
    )
    if store is not None:
        cluster = Cluster.from_store(config, store)
    else:
        cluster = Cluster.from_database(config, dataset.database)
    miner = make_miner(
        algorithm,
        cluster,
        taxonomy if taxonomy is not None else dataset.taxonomy,
        counting=CountingConfig(kernel=kernel, dedup=dedup),
    )
    started = time.perf_counter()
    try:
        run = miner.mine(min_support, max_k=max_k)
    finally:
        cluster.close()
    return round(time.perf_counter() - started, 6), run_digest(run)


def _add_speedups(metrics: dict[str, float], key: str, walls: dict[str, float]) -> None:
    """``{key}/{configuration}/speedup``: naive-serial wall over each other's."""
    base = walls.get("naive-serial")
    if not base:
        return
    ratios = {
        name: round(base / wall, 3)
        for name, wall in sorted(walls.items())
        if name != "naive-serial" and wall > 0
    }
    for name, ratio in ratios.items():
        metrics[f"{key}/{name}/speedup"] = ratio
    rendered = ", ".join(f"{name} {ratio:g}x" for name, ratio in ratios.items())
    print(f"{key}: {rendered}", file=sys.stderr)


def run_benchmark(
    label: str,
    quick: bool = False,
    workers: int | None = None,
    transactions: int | None = None,
    min_support: float | None = None,
    dataset_name: str = "R30F5",
    node_counts: tuple[int, ...] | None = None,
    algorithms: tuple[str, ...] = ("HPGM", "H-HPGM"),
    max_k: int | None = 2,
    store_path: str | Path | None = None,
) -> tuple[BenchRecord, bool]:
    """Run the full configuration matrix; returns ``(record, identical)``.

    ``identical`` is False when any configuration's digest differs from
    the naive baseline of its (algorithm, nodes) cell.  ``quick``
    shrinks the workload (one node count, fewer transactions) for CI
    smoke runs; the full matrix mirrors the table6 sweep.
    ``store_path`` switches every configuration to a store-backed
    cluster (mmap views instead of pickled partitions); the taxonomy is
    read from the store directory and ``transactions`` is taken from
    the manifest.
    """
    if node_counts is None:
        node_counts = (8,) if quick else (8, 12, 16)
    if min_support is None:
        min_support = common.SKEW_POINT_MINSUP

    dataset = None
    store = None
    taxonomy = None
    if store_path is not None:
        from repro.store import TAXONOMY_NAME, open_store
        from repro.taxonomy.io import load_taxonomy

        store = open_store(store_path)
        taxonomy = load_taxonomy(Path(store_path) / TAXONOMY_NAME)
        transactions = len(store)
    else:
        if transactions is None:
            transactions = 2_000 if quick else common.DEFAULT_NUM_TRANSACTIONS
        dataset = generate_dataset(
            common.experiment_params(dataset_name, transactions)
        )

    host = host_info()
    pool_size = effective_workers(workers)
    # A process pool wider than the host's core count cannot show a
    # real speedup — flag those runs so the trajectory is honest.
    underprovisioned = pool_size > host["cpus"]
    print(
        f"host: {host['cpus']} cpu(s); fast-process pool={pool_size}"
        + (
            " — UNDERPROVISIONED (pool wider than the host; process "
            "speedups are not meaningful here)"
            if underprovisioned
            else ""
        ),
        file=sys.stderr,
    )

    metrics: dict[str, float] = {}
    digests: dict[str, str] = {}
    totals: dict[str, float] = {}
    identical = True
    for algorithm in algorithms:
        for num_nodes in node_counts:
            stem = f"{algorithm}/{num_nodes}"
            walls: dict[str, float] = {}
            for name, kernel, dedup, executor in CONFIGURATIONS:
                wall, digest = bench_one(
                    dataset,
                    algorithm,
                    num_nodes,
                    min_support,
                    kernel,
                    dedup,
                    executor,
                    workers,
                    max_k,
                    store=store,
                    taxonomy=taxonomy,
                )
                # naive-serial runs first: it is the digest baseline.
                matches = digest == digests.get(f"{stem}/naive-serial", digest)
                identical = identical and matches
                walls[name] = wall
                totals[name] = totals.get(name, 0.0) + wall
                metrics[f"{stem}/{name}/wall_seconds"] = wall
                digests[f"{stem}/{name}"] = digest
                flagged = underprovisioned and executor == "process"
                print(
                    f"{algorithm:>10} nodes={num_nodes:<2} {name:<13} "
                    f"{wall:9.3f}s  {'ok' if matches else 'RESULT MISMATCH'}"
                    f"{'  [underprovisioned]' if flagged else ''}",
                    file=sys.stderr,
                )
            _add_speedups(metrics, stem, walls)
    # Aggregate row: total naive wall over total configuration wall
    # across the whole matrix — the headline trajectory number.
    _add_speedups(metrics, "overall", totals)

    record = BenchRecord(
        label=label,
        kind="mining",
        workload={
            "dataset": dataset_name,
            "transactions": transactions,
            "min_support": min_support,
            "max_k": max_k,
            "node_counts": list(node_counts),
            "algorithms": list(algorithms),
            "memory_per_node": common.DEFAULT_MEMORY_PER_NODE,
            "quick": quick,
            # Store-backed runs scan mmap views instead of pickled
            # partitions — a distinct workload for trajectory purposes.
            "store": store_path is not None,
        },
        host=host,
        metrics=metrics,
        digests=digests,
    )
    return record, identical


def main_compare(argv: list[str]) -> int:
    """``repro-bench compare`` — watchdog over the bench trajectory."""
    parser = argparse.ArgumentParser(
        prog="repro-bench compare",
        description="Compare a bench record against HISTORY.jsonl and "
        "fail on regressions beyond the noise band",
    )
    parser.add_argument("report", help="BENCH_*.json record to evaluate")
    parser.add_argument(
        "--history",
        default="benchmarks/HISTORY.jsonl",
        help="history stream to compare against (default: benchmarks/HISTORY.jsonl)",
    )
    parser.add_argument(
        "--noise-band",
        type=float,
        default=1.5,
        help="worst tolerated ratio in the bad direction before a metric "
        "counts as regressed (default: 1.5)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON on stdout"
    )
    args = parser.parse_args(argv)

    comparison = compare_against_history(
        args.history, args.report, noise_band=args.noise_band
    )
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # The benchmark CLI predates subcommands and must keep accepting
    # bare flags (``repro-bench --quick``); dispatch the verbs by hand.
    if arguments and arguments[0] == "compare":
        return main_compare(arguments[1:])
    if arguments and arguments[0] == "scale":
        from repro.perf.scale import main_scale

        return main_scale(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Wall-clock benchmark of the mining kernels and executors",
    )
    parser.add_argument(
        "--label", default="local", help="written into BENCH_<label>.json"
    )
    parser.add_argument(
        "--out",
        default="benchmarks",
        help="output directory for BENCH_<label>.json and HISTORY.jsonl "
        "(default: benchmarks/)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (one node count, 2k transactions)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the fast-process configuration "
        "(default: one per CPU)",
    )
    parser.add_argument("--transactions", type=int, default=None)
    parser.add_argument("--min-support", type=float, default=None)
    parser.add_argument("--dataset", default="R30F5")
    parser.add_argument(
        "--store",
        default=None,
        help="benchmark over a columnar store directory (written by "
        "repro-mine generate --store-out) instead of an in-memory dataset",
    )
    args = parser.parse_args(arguments)

    record, identical = run_benchmark(
        label=args.label,
        quick=args.quick,
        workers=args.workers,
        transactions=args.transactions,
        min_support=args.min_support,
        dataset_name=args.dataset,
        store_path=args.store,
    )
    path = write_record(record, args.out)
    print(f"wrote {path} and appended it to HISTORY.jsonl", file=sys.stderr)
    if not identical:
        print("FAIL: configurations disagree with the naive baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
