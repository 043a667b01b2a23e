"""``repro-bench scale`` — per-core scaling curves with peak-RSS evidence.

The main ``repro-bench`` matrix answers "is fast-process faster than
fast-serial on *this* host?".  This harness answers the two questions a
reviewer asks next:

* **How does the process backend scale with cores?**  One store-backed
  ``fast-process`` run per worker count (default ``1, 2, 4, …, N`` up
  to the host's cpu count), plus a ``fast-serial`` reference, all over
  the *same* store directory.  Digests must agree across every point.
* **Does the store actually bound memory?**  Every point is executed in
  a fresh **child process** so ``getrusage(RUSAGE_SELF).ru_maxrss`` is
  that run's own high-water mark, not the parent's accumulated one.  A
  process point also reads ``RUSAGE_CHILDREN`` after the mine, when its
  pool has been joined: the largest pool worker's high-water mark.  An
  optional *materialized baseline* pulls the whole store into an
  in-memory :class:`~repro.datagen.corpus.TransactionDatabase` first —
  the cost the store exists to avoid — so the report shows
  ``peak_rss_bytes`` of mmap-backed scans next to the materialized
  figure on identical rows.

Points where the pool is wider than the host's core count are marked
``underprovisioned: true`` (same contract as the main matrix): their
wall-clock is recorded but is not evidence of scaling.

Each run writes one bench record (kind ``scale``; see
:mod:`repro.perf.history`) as ``BENCH_<label>.json`` and appends it to
``HISTORY.jsonl``, so the scaling trajectory is watched by
``repro-bench compare`` too.  Its metrics are wall clock, speedup and
``peak_rss_bytes`` per configuration, plus ``peak_rss_worker_bytes``
per process point that ran a pool; underprovisioned points keep only
their RSS — their timing is not comparable across hosts.

Child protocol: ``python -m repro.perf.scale --child`` reads one JSON
spec on stdin, runs one configuration, and prints one JSON result on
stdout.  Everything row-shaped stays inside the child; the parent only
ever sees digests and counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.perf.history import BenchRecord, host_info, write_record


class ScaleBenchError(ReproError):
    """A scaling-curve child run failed or disagreed on results."""


def peak_rss_bytes(who: int = resource.RUSAGE_SELF) -> int:
    """This process's resident high-water mark, in bytes.

    With ``who=resource.RUSAGE_CHILDREN`` it is the largest terminated,
    waited-for child's instead.  ``ru_maxrss`` is KiB on Linux and
    bytes on macOS — one of the few places the two disagree on units.
    """
    peak = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - non-Linux CI
        return peak
    return peak * 1024


def default_worker_curve(cpus: int) -> tuple[int, ...]:
    """The ``1, 2, 4, …`` doubling curve, always ending at ``cpus``."""
    curve = [1]
    while curve[-1] * 2 < cpus:
        curve.append(curve[-1] * 2)
    if cpus > 1:
        curve.append(cpus)
    return tuple(curve)


# ----------------------------------------------------------------------
# Child side: one configuration, one process, one JSON line
# ----------------------------------------------------------------------
def run_child(spec: dict) -> dict:
    """Execute one spec in *this* process; called in the child."""
    from repro.cluster.config import ClusterConfig
    from repro.cluster.machine import Cluster
    from repro.datagen.corpus import TransactionDatabase
    from repro.parallel.registry import make_miner
    from repro.perf.bench import run_digest
    from repro.perf.config import CountingConfig
    from repro.store import TAXONOMY_NAME, open_store
    from repro.taxonomy.io import load_taxonomy

    store = open_store(spec["store"], verify=bool(spec.get("verify", False)))
    taxonomy = load_taxonomy(Path(spec["store"]) / TAXONOMY_NAME)
    config = ClusterConfig(
        num_nodes=spec["nodes"],
        memory_per_node=spec["memory_per_node"],
        executor=spec["executor"],
        workers=spec.get("workers"),
    )
    if spec.get("materialize"):
        # The RSS baseline: decode every row into tuples up front, the
        # exact allocation pattern the store replaces with mmap views.
        # repro-analyze: disable=RL011 — this IS the materialized baseline
        # the rule exists to prevent; the RSS delta is the evidence.
        rows = store.to_list()
        cluster = Cluster.from_database(config, TransactionDatabase(rows))
    else:
        cluster = Cluster.from_store(config, store)
    started = time.perf_counter()
    try:
        miner = make_miner(
            spec["algorithm"],
            cluster,
            taxonomy,
            counting=CountingConfig(
                kernel=spec["kernel"], dedup=spec["dedup"]
            ),
        )
        run = miner.mine(spec["min_support"], max_k=spec.get("max_k"))
    finally:
        cluster.close()
    wall = time.perf_counter() - started
    result = {
        "wall_seconds": round(wall, 6),
        "digest": run_digest(run),
        "peak_rss_bytes": peak_rss_bytes(),
        "rows": len(store),
    }
    # The mine's pools have been joined, so their workers are waited-
    # for children.  One worker runs inline and leaves no figure.
    workers_peak = peak_rss_bytes(resource.RUSAGE_CHILDREN)
    if spec["executor"] == "process" and workers_peak > 0:
        result["peak_rss_worker_bytes"] = workers_peak
    return result


def _child_main() -> int:
    spec = json.loads(sys.stdin.read())
    print(json.dumps(run_child(spec), sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# Parent side: spawn children, assemble the curve
# ----------------------------------------------------------------------
def _spawn(spec: dict) -> dict:
    """Run one spec in a fresh interpreter; returns its result dict."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else os.pathsep.join([package_root, existing])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.perf.scale", "--child"],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
    )
    if completed.returncode != 0:
        raise ScaleBenchError(
            f"scale child failed (exit {completed.returncode}): "
            f"{completed.stderr.strip() or completed.stdout.strip()}"
        )
    try:
        return json.loads(completed.stdout)
    except json.JSONDecodeError:
        raise ScaleBenchError(
            f"scale child emitted non-JSON: {completed.stdout!r}"
        ) from None


def run_scale(
    store_path: str | Path,
    algorithm: str = "HPGM",
    num_nodes: int = 8,
    min_support: float = 0.01,
    max_k: int | None = 2,
    memory_per_node: int | None = None,
    worker_counts: tuple[int, ...] | None = None,
    materialized_baseline: bool = True,
    label: str = "scale",
) -> tuple[BenchRecord, bool]:
    """Measure the full curve; returns ``(record, identical)``.

    ``identical`` is False when any point's digest differs from the
    serial run's.
    """
    from repro.experiments import common

    host = host_info()
    cpus = host["cpus"]
    if worker_counts is None:
        worker_counts = default_worker_curve(cpus)
    if memory_per_node is None:
        memory_per_node = common.DEFAULT_MEMORY_PER_NODE
    base_spec = {
        "store": str(store_path),
        "algorithm": algorithm,
        "nodes": num_nodes,
        "min_support": min_support,
        "max_k": max_k,
        "memory_per_node": memory_per_node,
        "kernel": "fast",
        "dedup": True,
    }
    print(
        f"host: {cpus} cpu(s); curve workers={list(worker_counts)}",
        file=sys.stderr,
    )
    metrics: dict[str, float] = {}
    digests: dict[str, str] = {}

    def measure(configuration: str, spec: dict, timed: bool = True) -> dict:
        result = _spawn(spec)
        if timed:
            metrics[f"{configuration}/wall_seconds"] = result["wall_seconds"]
        metrics[f"{configuration}/peak_rss_bytes"] = result["peak_rss_bytes"]
        if "peak_rss_worker_bytes" in result:
            metrics[f"{configuration}/peak_rss_worker_bytes"] = result[
                "peak_rss_worker_bytes"
            ]
        digests[configuration] = result["digest"]
        return result

    serial = measure(
        "fast-serial", {**base_spec, "executor": "serial", "verify": True}
    )
    print(
        f"{'fast-serial':<16} {serial['wall_seconds']:9.3f}s  "
        f"rss={serial['peak_rss_bytes'] / 1e6:.1f}MB",
        file=sys.stderr,
    )

    identical = True
    for workers in worker_counts:
        configuration = f"fast-process/w{workers}"
        underprovisioned = workers > cpus
        result = measure(
            configuration,
            {**base_spec, "executor": "process", "workers": workers},
            timed=not underprovisioned,
        )
        speedup = (
            round(serial["wall_seconds"] / result["wall_seconds"], 3)
            if result["wall_seconds"] > 0
            else 0.0
        )
        if not underprovisioned:
            metrics[f"{configuration}/speedup"] = speedup
        matches = result["digest"] == serial["digest"]
        identical = identical and matches
        print(
            f"{'fast-process':<12} w={workers:<3} "
            f"{result['wall_seconds']:9.3f}s  "
            f"x{speedup:<6} "
            f"rss={result['peak_rss_bytes'] / 1e6:.1f}MB  "
            f"worker={result.get('peak_rss_worker_bytes', 0) / 1e6:.1f}MB  "
            f"{'ok' if matches else 'RESULT MISMATCH'}"
            f"{'  [underprovisioned]' if underprovisioned else ''}",
            file=sys.stderr,
        )

    if materialized_baseline:
        materialized = measure(
            "materialized-serial",
            {**base_spec, "executor": "serial", "materialize": True},
        )
        matches = materialized["digest"] == serial["digest"]
        identical = identical and matches
        print(
            f"{'materialized':<16} {materialized['wall_seconds']:9.3f}s  "
            f"rss={materialized['peak_rss_bytes'] / 1e6:.1f}MB  "
            f"({'ok' if matches else 'RESULT MISMATCH'})",
            file=sys.stderr,
        )

    record = BenchRecord(
        label=label,
        kind="scale",
        workload={
            "rows": serial["rows"],
            "algorithm": algorithm,
            "nodes": num_nodes,
            "min_support": min_support,
            "max_k": max_k,
            "memory_per_node": memory_per_node,
        },
        host=host,
        metrics=metrics,
        digests=digests,
    )
    return record, identical


def main_scale(argv: list[str]) -> int:
    """``repro-bench scale`` entry point."""
    if argv and argv[0] == "--child":
        return _child_main()
    parser = argparse.ArgumentParser(
        prog="repro-bench scale",
        description="Per-core scaling curve over a columnar store, with "
        "per-run peak RSS measured in child processes",
    )
    parser.add_argument(
        "--store",
        required=True,
        help="store directory (repro-mine generate --store-out) to mine",
    )
    parser.add_argument("--algorithm", default="HPGM")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--min-support", type=float, default=0.01)
    parser.add_argument("--max-k", type=int, default=2)
    parser.add_argument(
        "--workers-list",
        default=None,
        help="comma-separated worker counts (default: 1,2,4,... up to cpus)",
    )
    parser.add_argument(
        "--no-materialized-baseline",
        action="store_true",
        help="skip the in-memory materialization RSS baseline",
    )
    parser.add_argument("--label", default="scale")
    parser.add_argument(
        "--out",
        default="benchmarks",
        help="output directory for BENCH_<label>.json and HISTORY.jsonl "
        "(default: benchmarks/)",
    )
    args = parser.parse_args(argv)

    worker_counts = None
    if args.workers_list:
        worker_counts = tuple(
            int(token) for token in args.workers_list.split(",") if token
        )
    record, identical = run_scale(
        args.store,
        algorithm=args.algorithm,
        num_nodes=args.nodes,
        min_support=args.min_support,
        max_k=args.max_k,
        worker_counts=worker_counts,
        materialized_baseline=not args.no_materialized_baseline,
        label=args.label,
    )
    path = write_record(record, args.out)
    print(f"wrote {path} and appended it to HISTORY.jsonl", file=sys.stderr)
    if not identical:
        print("FAIL: curve points disagree with the serial digest", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main_scale(sys.argv[1:]))
