"""``repro-serve`` — command-line front end of the serving layer.

Four subcommands close the offline→online loop:

* ``build`` — compile a snapshot, either by mining a preset dataset
  end-to-end or from a rules file exported with
  ``repro-mine mine --rules-out``;
* ``query`` — run one basket against a snapshot and print the result;
* ``loadgen`` — replay a seeded workload through the direct and the
  batched path and write a ``BENCH_<label>.json`` bench record (plus an
  optional timing-free result transcript for determinism checks);
* ``serve`` — expose a snapshot over stdlib HTTP/JSON.

Failures map to the repo-wide exit codes (``repro.errors``): an empty
rule set exits 15, a malformed snapshot 16, any other serving error 14.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

from repro.core.cumulate import cumulate
from repro.core.rules import generate_rules, interesting_rules
from repro.errors import ReproError, error_label, exit_code_for
from repro.experiments import common
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import EventSink
from repro.perf.history import write_record
from repro.serve.batch import ServeService
from repro.serve.engine import SCORINGS
from repro.serve.loadgen import run_loadgen, write_requests, write_transcript
from repro.serve.rules_io import read_rules_jsonl
from repro.serve.snapshot import compile_snapshot, load_snapshot, write_snapshot
from repro.taxonomy.io import load_taxonomy


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online serving of mined generalized association rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="compile a rule snapshot")
    build.add_argument(
        "--rules",
        default=None,
        help="rules JSONL exported by `repro-mine mine --rules-out` "
        "(skips mining; pair with --taxonomy)",
    )
    build.add_argument(
        "--taxonomy",
        default=None,
        help="taxonomy file (as written by `repro-mine generate`) for "
        "--rules builds; omit for a flat snapshot",
    )
    build.add_argument("--dataset", default="R30F5", help="R30F5 | R30F3 | R30F10")
    build.add_argument("--transactions", type=int, default=None)
    build.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    build.add_argument("--min-support", type=float, default=0.02)
    build.add_argument("--min-confidence", type=float, default=0.6)
    build.add_argument(
        "--min-interest",
        type=float,
        default=None,
        help="keep only R-interesting rules at this ratio before compiling",
    )
    build.add_argument("--max-k", type=int, default=None)
    build.add_argument("--out", required=True, help="snapshot output path")

    query = sub.add_parser("query", help="run one basket against a snapshot")
    query.add_argument("--snapshot", required=True)
    query.add_argument(
        "--basket", required=True, help="comma-separated item ids, e.g. 3,17,42"
    )
    query.add_argument("--top-k", type=int, default=5)
    query.add_argument("--scoring", choices=SCORINGS, default="confidence")

    load = sub.add_parser(
        "loadgen", help="benchmark direct vs batched serving on one workload"
    )
    load.add_argument("--snapshot", required=True)
    load.add_argument("--queries", type=int, default=200)
    load.add_argument("--seed", type=int, default=7)
    load.add_argument("--pool-size", type=int, default=16)
    load.add_argument("--scoring", choices=SCORINGS, default="confidence")
    load.add_argument("--top-k", type=int, default=5)
    load.add_argument("--clients", type=int, default=4)
    load.add_argument("--workers", type=int, default=2)
    load.add_argument("--batch-max", type=int, default=32)
    load.add_argument(
        "--shards",
        type=int,
        default=0,
        help="also run the sharded-tier phase over this many partitions "
        "(0 disables it)",
    )
    load.add_argument(
        "--replication", type=int, default=2, help="replicas per partition"
    )
    load.add_argument(
        "--rate",
        type=_parse_rate,
        default=0.0,
        help="sharded-phase arrival mode: 0 = closed-loop lockstep, "
        "N>0 = open loop at N queries/s, 'auto' = open loop at half "
        "the direct phase's throughput",
    )
    load.add_argument("--label", default="pr5")
    load.add_argument(
        "--out",
        default="benchmarks",
        help="directory for BENCH_<label>.json and HISTORY.jsonl",
    )
    load.add_argument(
        "--results-out",
        default=None,
        help="write the timing-free result transcript (JSONL) here",
    )
    load.add_argument(
        "--trace-out",
        default=None,
        help="write serve-batch + per-request trace events (JSONL) here",
    )
    load.add_argument(
        "--metrics-out",
        default=None,
        help="write merged serve/slo metrics (Prometheus text) here, "
        "phases labelled phase=direct / phase=batched",
    )
    load.add_argument(
        "--requests-out",
        default=None,
        help="write per-request trace records (JSONL, sorted by "
        "path + request id) here — the repro-slo / repro-trace input",
    )

    serve = sub.add_parser("serve", help="expose a snapshot over HTTP/JSON")
    serve.add_argument("--snapshot", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8098, help="0 binds an ephemeral port"
    )
    serve.add_argument("--scoring", choices=SCORINGS, default="confidence")
    serve.add_argument("--top-k", type=int, default=5)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--batch-max", type=int, default=32)
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve through the sharded tier over this many partitions "
        "(0 = the micro-batched tier)",
    )
    serve.add_argument(
        "--replication", type=int, default=2, help="replicas per partition"
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        help="write request trace events (JSONL) here, flushed on drain",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write final metrics (Prometheus text) here on drain",
    )

    return parser


def _parse_rate(spec: str):
    if spec == "auto":
        return "auto"
    try:
        rate = float(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--rate must be a number or 'auto', got {spec!r}"
        ) from None
    if rate < 0:
        raise argparse.ArgumentTypeError(f"--rate must be >= 0, got {rate}")
    return rate


def _parse_basket(spec: str) -> list[int]:
    try:
        return [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as error:
        raise SystemExit(f"repro-serve: bad --basket {spec!r}: {error}") from None


def _cmd_build(args: argparse.Namespace) -> int:
    if args.rules:
        rules, interests = read_rules_jsonl(args.rules)
        taxonomy = load_taxonomy(args.taxonomy) if args.taxonomy else None
        source = {"rules_file": str(args.rules)}
        snapshot = compile_snapshot(
            rules, taxonomy, interests=interests, source=source
        )
    else:
        dataset = common.experiment_dataset(
            args.dataset, args.transactions, args.seed
        )
        result = cumulate(
            dataset.database,
            dataset.taxonomy,
            args.min_support,
            max_k=args.max_k,
        )
        rules = generate_rules(result, args.min_confidence, dataset.taxonomy)
        if args.min_interest is not None:
            rules = interesting_rules(
                rules, result, dataset.taxonomy, args.min_interest
            )
        source = {
            "dataset": args.dataset,
            "seed": args.seed,
            "min_support": args.min_support,
            "min_confidence": args.min_confidence,
        }
        if args.min_interest is not None:
            source["min_interest"] = args.min_interest
        snapshot = compile_snapshot(
            rules, dataset.taxonomy, result=result, source=source
        )
    path = write_snapshot(snapshot, args.out)
    print(
        f"wrote snapshot {snapshot.version[:12]} "
        f"({snapshot.num_rules} rules, {len(snapshot.closures)} items) to {path}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    snapshot = load_snapshot(args.snapshot)
    service = ServeService(
        snapshot, scoring=args.scoring, top_k=args.top_k, workers=0
    )
    result = service.query_direct(_parse_basket(args.basket))
    service.close()
    print(json.dumps(result.to_dict(snapshot), indent=2, sort_keys=True))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    snapshot = load_snapshot(args.snapshot)
    sink = EventSink(path=args.trace_out) if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    run, transcript, requests = run_loadgen(
        snapshot,
        queries=args.queries,
        seed=args.seed,
        pool_size=args.pool_size,
        scoring=args.scoring,
        top_k=args.top_k,
        clients=args.clients,
        workers=args.workers,
        batch_max=args.batch_max,
        shards=args.shards,
        replication=args.replication,
        rate=args.rate,
        label=args.label,
        sink=sink,
        metrics=metrics,
    )
    if sink is not None:
        sink.close()
    if metrics is not None:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(metrics.to_prometheus(), encoding="utf-8")
        print(f"metrics written to {metrics_path}")
    record = run["record"]
    path = write_record(record, args.out)
    if args.results_out:
        write_transcript(transcript, args.results_out)
        print(f"transcript written to {args.results_out}")
    if args.requests_out:
        write_requests(requests, args.requests_out)
        print(f"request traces written to {args.requests_out}")
    direct = run["phases"]["direct"]
    batched = run["phases"]["batched"]
    print(
        f"direct:  {direct['qps']:9.1f} qps  "
        f"p50={direct['p50_ms']:.3f}ms p95={direct['p95_ms']:.3f}ms "
        f"p99={direct['p99_ms']:.3f}ms"
    )
    print(
        f"batched: {batched['qps']:9.1f} qps  "
        f"p50={batched['p50_ms']:.3f}ms p95={batched['p95_ms']:.3f}ms "
        f"p99={batched['p99_ms']:.3f}ms  "
        f"(mean batch {batched['mean_batch_size']}, "
        f"{batched['deduped_queries']} deduped)"
    )
    sharded = run["phases"].get("sharded")
    if sharded is not None:
        print(
            f"sharded: {sharded['qps']:9.1f} qps  "
            f"p50={sharded['p50_ms']:.3f}ms p95={sharded['p95_ms']:.3f}ms "
            f"p99={sharded['p99_ms']:.3f}ms  "
            f"({sharded['shards']}x{sharded['replication']} shards, "
            f"rate={sharded['rate']}, shed={sharded['shed']}, "
            f"hedges={sharded['hedges']}, degraded={sharded['degraded']})"
        )
    tracing = run["tracing"]
    print(
        f"tracing: {tracing['requests']} requests, "
        f"{tracing['errors']} errors, reconciled: {tracing['reconciled']}, "
        f"within wall: {tracing['within_wall']}"
    )
    print(
        f"speedup {record.metrics['speedup_qps']}x, results identical: "
        f"{run['results_identical']}; record written to {path} and "
        "appended to HISTORY.jsonl"
    )
    ok = run["results_identical"] and tracing["reconciled"]
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.httpd import make_server

    snapshot = load_snapshot(args.snapshot)
    sink = EventSink(path=args.trace_out) if args.trace_out else None
    registry = MetricsRegistry()
    if args.shards > 0:
        from repro.serve.shard.service import ShardedService

        service = ShardedService(
            snapshot,
            shards=args.shards,
            replication=args.replication,
            scoring=args.scoring,
            top_k=args.top_k,
            registry=registry,
            sink=sink,
        )
        tier = f"sharded {args.shards}x{args.replication}"
    else:
        service = ServeService(
            snapshot,
            scoring=args.scoring,
            top_k=args.top_k,
            workers=max(1, args.workers),
            batch_max=args.batch_max,
            registry=registry,
            sink=sink,
        )
        tier = f"batched x{max(1, args.workers)}"
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"serving snapshot {snapshot.version[:12]} "
        f"({snapshot.num_rules} rules, {tier}) on http://{host}:{port}",
        flush=True,
    )

    # Graceful drain on SIGTERM/SIGINT: stop accepting, serve what is
    # already queued, flush metrics/traces, exit 0.  server.shutdown()
    # blocks until serve_forever() returns, so it must run off the
    # serving thread — calling it from the signal handler directly
    # would deadlock.
    def _drain(signum, frame) -> None:
        threading.Thread(
            target=server.shutdown, name=f"drain-{signum}", daemon=True
        ).start()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _drain),
        signal.SIGINT: signal.signal(signal.SIGINT, _drain),
    }
    try:
        server.serve_forever()
    finally:
        for signum in sorted(previous, key=int):
            signal.signal(signum, previous[signum])
        server.server_close()
        service.close()
        if sink is not None:
            sink.close()
            print(f"traces flushed to {args.trace_out}")
        if args.metrics_out:
            metrics_path = Path(args.metrics_out)
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
            metrics_path.write_text(registry.to_prometheus(), encoding="utf-8")
            print(f"metrics flushed to {metrics_path}")
    print("drained; exiting 0", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        return _cmd_serve(args)
    except ReproError as error:
        print(f"repro-serve: {error_label(error)}: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
