"""``repro-refresh`` — command-line front end of the refresh tier.

Four subcommands:

* ``init`` — create an empty refresh root (log + checkpoint), taking
  the taxonomy from a file or from a synthetic dataset preset;
* ``apply`` — ingest one delta of transactions (text format, as written
  by ``repro-mine generate``) and republish the window snapshot;
* ``status`` — print the root's state (window bounds, tracked
  itemsets, the ``CURRENT`` pointer) as JSON;
* ``run`` — end-to-end exercise: synthesize a dataset, ingest a base
  delta plus ``--deltas`` follow-ups, optionally verifying each
  published snapshot byte-for-byte against a from-scratch batch mine
  (``--verify``), timing refresh vs re-mine into a bench record
  (``--bench``: ``BENCH_<label>.json`` plus a ``HISTORY.jsonl`` line in
  ``--out``), and probing the final
  snapshot through the traced serving path so ``repro-slo check`` can
  gate the publish pipeline (``--requests-out``).

Failures map to the repo-wide exit codes (``repro.errors``); a
``--verify`` divergence exits 3 (mining error — the incremental result
is wrong by definition).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from repro.datagen import generate_dataset, load_transactions_text, preset
from repro.errors import MiningError, ReproError, error_label, exit_code_for
from repro.obs.registry import MetricsRegistry
from repro.obs.requests import RequestTracer
from repro.obs.sink import EventSink
from repro.perf.history import BenchRecord, host_info, write_record
from repro.refresh.driver import RefreshDriver
from repro.serve.loadgen import (
    generate_workload,
    run_direct_phase,
    write_requests,
)
from repro.taxonomy.io import load_taxonomy


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-refresh",
        description="Incremental mining over an append-only transaction log",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="create an empty refresh root")
    init.add_argument("--root", required=True)
    init.add_argument(
        "--taxonomy",
        default=None,
        help="taxonomy file (as written by `repro-mine generate`); "
        "mutually exclusive with --dataset",
    )
    init.add_argument(
        "--dataset",
        default=None,
        help="preset name (R30F5 | R30F3 | R30F10) to take the taxonomy from",
    )
    init.add_argument("--scale", type=float, default=0.01)
    init.add_argument("--seed", type=int, default=1998)
    init.add_argument("--min-support", type=float, default=0.15)
    init.add_argument("--min-confidence", type=float, default=0.6)
    init.add_argument("--max-k", type=int, default=None)
    init.add_argument("--window-deltas", type=int, default=8)

    apply_ = sub.add_parser("apply", help="ingest one delta and republish")
    apply_.add_argument("--root", required=True)
    apply_.add_argument(
        "--transactions",
        required=True,
        help="transactions text file (one space-separated row per line)",
    )
    apply_.add_argument(
        "--events", default=None, help="append refresh events to this JSONL file"
    )

    status = sub.add_parser("status", help="print the root's state as JSON")
    status.add_argument("--root", required=True)

    run = sub.add_parser(
        "run", help="end-to-end: base + N deltas, verify/bench/probe"
    )
    run.add_argument("--root", required=True)
    run.add_argument("--dataset", default="R30F5")
    run.add_argument("--scale", type=float, default=0.01)
    run.add_argument("--seed", type=int, default=1998)
    run.add_argument("--base-rows", type=int, default=2000)
    run.add_argument("--deltas", type=int, default=3)
    run.add_argument("--delta-rows", type=int, default=200)
    run.add_argument("--min-support", type=float, default=0.15)
    run.add_argument("--min-confidence", type=float, default=0.6)
    run.add_argument("--max-k", type=int, default=None)
    run.add_argument("--window-deltas", type=int, default=8)
    run.add_argument(
        "--verify",
        action="store_true",
        help="after every delta, batch-mine the window from scratch and "
        "require the published snapshot to match byte-for-byte",
    )
    run.add_argument(
        "--bench",
        action="store_true",
        help="time each delta refresh against a full batch re-mine and "
        "write BENCH_<label>.json, appending it to HISTORY.jsonl in --out",
    )
    run.add_argument("--label", default="pr10")
    run.add_argument("--out", default="benchmarks")
    run.add_argument(
        "--probes",
        type=int,
        default=0,
        help="after the last delta, run this many traced probe queries "
        "against the published snapshot",
    )
    run.add_argument(
        "--requests-out",
        default=None,
        help="write probe request records (JSONL) for `repro-slo check`",
    )
    run.add_argument(
        "--events", default=None, help="write refresh events to this JSONL file"
    )
    return parser


def _taxonomy_for_init(args) -> "Taxonomy":
    if (args.taxonomy is None) == (args.dataset is None):
        raise MiningError("init needs exactly one of --taxonomy / --dataset")
    if args.taxonomy is not None:
        return load_taxonomy(args.taxonomy)
    params = preset(args.dataset, scale=args.scale, seed=args.seed)
    return generate_dataset(params).taxonomy


def _cmd_init(args) -> int:
    taxonomy = _taxonomy_for_init(args)
    driver = RefreshDriver.create(
        args.root,
        taxonomy,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        max_k=args.max_k,
        window_deltas=args.window_deltas,
    )
    print(json.dumps(driver.status(), indent=2))
    return 0


def _cmd_apply(args) -> int:
    sink = EventSink(args.events) if args.events else None
    driver = RefreshDriver.open(args.root, sink=sink)
    database = load_transactions_text(args.transactions)
    summary = driver.ingest(database)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_status(args) -> int:
    driver = RefreshDriver.open(args.root)
    print(json.dumps(driver.status(), indent=2))
    return 0


def _verify_against_batch(driver: RefreshDriver, delta_index: int) -> None:
    batch = driver.batch_snapshot()
    current = driver.current()
    if batch is None and current is None:
        return
    if (batch is None) != (current is None):
        raise MiningError(
            f"delta {delta_index}: incremental and batch disagree on "
            f"whether the window publishes at all "
            f"(incremental={'yes' if current else 'no'}, "
            f"batch={'yes' if batch else 'no'})"
        )
    if batch.to_jsonl() != current.to_jsonl():
        raise MiningError(
            f"delta {delta_index}: published snapshot diverges from the "
            f"batch oracle (incremental {current.version[:12]}… vs "
            f"batch {batch.version[:12]}…)"
        )


def _speedup(batch_seconds: float, refresh_seconds: float) -> float:
    return round(batch_seconds / refresh_seconds, 3) if refresh_seconds > 0 else 0.0


def _cmd_run(args) -> int:
    sink = EventSink(args.events) if args.events else None
    registry = MetricsRegistry()

    params = preset(args.dataset, scale=args.scale, seed=args.seed)
    dataset = generate_dataset(params)
    rows = list(dataset.database)
    need = args.base_rows + args.deltas * args.delta_rows
    if len(rows) < need:
        raise MiningError(
            f"dataset yields {len(rows)} rows but the run needs {need}; "
            "raise --scale or shrink the deltas"
        )

    driver = RefreshDriver.create(
        args.root,
        dataset.taxonomy,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        max_k=args.max_k,
        window_deltas=args.window_deltas,
        registry=registry,
        sink=sink,
    )

    batches = [rows[: args.base_rows]]
    offset = args.base_rows
    for _ in range(args.deltas):
        batches.append(rows[offset : offset + args.delta_rows])
        offset += args.delta_rows

    # Bench metrics per delta; the aggregate speedup leaves out the
    # bootstrap delta whenever there are follow-ups.
    metrics: dict[str, float] = {}
    total_refresh = total_batch = 0.0
    for position, batch_rows in enumerate(batches):
        started = time.perf_counter()
        summary = driver.ingest(batch_rows)
        refresh_seconds = round(time.perf_counter() - started, 6)
        line = (
            f"delta {summary['delta']}: {summary['rows']} rows in, "
            f"window {summary['window_rows']}, "
            f"{summary['promotions']}+/{summary['demotions']}- itemsets, "
            f"refresh {refresh_seconds:.3f}s"
        )
        if args.bench:
            started = time.perf_counter()
            driver.batch_result()
            batch_seconds = round(time.perf_counter() - started, 6)
            stem = f"delta{summary['delta']}"
            metrics[f"{stem}/refresh_seconds"] = refresh_seconds
            metrics[f"{stem}/batch_seconds"] = batch_seconds
            speedup = _speedup(batch_seconds, refresh_seconds)
            if speedup:
                metrics[f"{stem}/speedup"] = speedup
            if position > 0 or len(batches) == 1:
                total_refresh += refresh_seconds
                total_batch += batch_seconds
            line += f", batch {batch_seconds:.3f}s"
        if args.verify:
            _verify_against_batch(driver, summary["delta"])
            line += ", verified"
        print(line, file=sys.stderr)

    final = driver.current()
    if args.probes > 0 and final is not None:
        tracer = RequestTracer(
            sink=sink, registry=registry, namespace="refresh-probe"
        )
        workload = generate_workload(
            final, queries=args.probes, seed=args.seed
        )
        stats, _ = run_direct_phase(
            final,
            workload,
            scoring="confidence",
            top_k=5,
            registry=registry,
            tracer=tracer,
        )
        print(
            f"probes: {stats['queries']} queries, p99 {stats['p99_ms']:.3f}ms",
            file=sys.stderr,
        )
        if args.requests_out:
            write_requests(tracer.records, args.requests_out)

    status = driver.status()
    print(json.dumps(status, indent=2))

    if args.bench:
        speedup = _speedup(total_batch, total_refresh)
        if speedup:
            metrics["speedup"] = speedup
        record = BenchRecord(
            label=args.label,
            kind="refresh",
            workload={
                "dataset": args.dataset,
                "scale": args.scale,
                "seed": args.seed,
                "base_rows": args.base_rows,
                "deltas": args.deltas,
                "delta_rows": args.delta_rows,
                "window_deltas": args.window_deltas,
                "min_support": args.min_support,
                "min_confidence": args.min_confidence,
                "max_k": args.max_k,
            },
            host=host_info(),
            metrics=metrics,
            digests={} if final is None else {"final_snapshot": final.version},
        )
        path = write_record(record, args.out)
        print(f"wrote {path} and appended it to HISTORY.jsonl", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "init":
            return _cmd_init(args)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "status":
            return _cmd_status(args)
        return _cmd_run(args)
    except ReproError as error:
        print(f"repro-refresh: {error_label(error)}: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    raise SystemExit(main())
