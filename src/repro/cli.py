"""``repro-mine`` — command-line front end.

Three subcommands:

* ``generate`` — write a scaled synthetic dataset (transactions + the
  taxonomy's parent relation) to disk.
* ``mine`` — mine generalized association rules from a preset dataset
  or a transaction file, sequentially (Cumulate) or on the simulated
  cluster with any of the six parallel algorithms.
* ``experiment`` — run one of the paper's tables/figures.

Examples
--------
::

    repro-mine mine --dataset R30F5 --min-support 0.02 --algorithm H-HPGM-FGD
    repro-mine generate --dataset R30F3 --transactions 5000 --out /tmp/r30f3
    repro-mine experiment table6
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.core.cumulate import cumulate
from repro.perf.config import CountingConfig
from repro.core.rules import generate_rules, interesting_rules, rule_interest
from repro.core.io import save_result
from repro.datagen.io import save_transactions_text
from repro.errors import ReproError, StoreFormatError, error_label, exit_code_for
from repro.taxonomy.io import save_taxonomy
from repro.experiments import common
from repro.experiments import fig13, fig14, fig15, fig16, table6
from repro.parallel.registry import ALGORITHMS, make_miner

_EXPERIMENTS = {
    "table6": table6,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Parallel generalized association rule mining (SIGMOD '98 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    gen.add_argument("--dataset", default="R30F5", help="R30F5 | R30F3 | R30F10")
    gen.add_argument("--transactions", type=int, default=None)
    gen.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    gen.add_argument(
        "--out",
        default=None,
        help="output prefix (writes <out>.txt and <out>.taxonomy); "
        "materialises the dataset in memory",
    )
    gen.add_argument(
        "--store-out",
        default=None,
        help="write a columnar store directory instead (streaming: the "
        "dataset is never materialised; taxonomy is saved inside)",
    )
    gen.add_argument(
        "--segment-rows",
        type=int,
        default=None,
        help="rows per store segment (with --store-out)",
    )

    mine = sub.add_parser("mine", help="mine generalized association rules")
    mine.add_argument("--dataset", default="R30F5", help="R30F5 | R30F3 | R30F10")
    mine.add_argument("--transactions", type=int, default=None)
    mine.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    mine.add_argument(
        "--store",
        default=None,
        help="mine a columnar store directory (from `generate --store-out`) "
        "instead of generating a dataset; scans it out-of-core",
    )
    mine.add_argument(
        "--taxonomy",
        default=None,
        help="taxonomy file for --store (defaults to the taxonomy.txt "
        "saved inside the store directory)",
    )
    mine.add_argument("--min-support", type=float, default=0.02)
    mine.add_argument("--min-confidence", type=float, default=0.6)
    mine.add_argument(
        "--algorithm",
        default="cumulate",
        help="cumulate (sequential) or one of: " + ", ".join(ALGORITHMS),
    )
    mine.add_argument("--nodes", type=int, default=common.DEFAULT_NUM_NODES)
    mine.add_argument("--memory", type=int, default=common.DEFAULT_MEMORY_PER_NODE)
    mine.add_argument(
        "--strict-memory",
        action="store_true",
        help="fail (exit 4) when a node overflows its candidate budget "
        "instead of fragmenting",
    )
    mine.add_argument("--max-k", type=int, default=None)
    mine.add_argument(
        "--workers",
        type=int,
        default=1,
        help="host processes for the per-node scans (>1 selects the "
        "process executor; results are identical either way)",
    )
    mine.add_argument(
        "--kernel",
        choices=("fast", "naive"),
        default="fast",
        help="counting kernels: fast (candidate trie + dedup) or naive "
        "(reference enumeration); identical results and statistics",
    )
    mine.add_argument("--rules", type=int, default=10, help="rules to print (0 = none)")
    mine.add_argument(
        "--rules-out",
        default=None,
        help="export the generated rules as JSONL for `repro-serve build "
        "--rules` (exit 15 when no rule clears the thresholds)",
    )
    mine.add_argument(
        "--min-interest",
        type=float,
        default=None,
        help="keep only R-interesting rules at this ratio before "
        "printing/exporting",
    )
    mine.add_argument(
        "--save-result", default=None, help="write the mining result as JSON"
    )
    mine.add_argument(
        "--trace-out",
        default=None,
        help="write the observability event stream (JSONL) to this path "
        "(parallel algorithms only; inspect with repro-trace)",
    )
    mine.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics registry in Prometheus text format",
    )

    exp = sub.add_parser("experiment", help="run one of the paper's experiments")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))

    seq = sub.add_parser(
        "sequences", help="mine generalized sequential patterns (GSP / [SK98])"
    )
    seq.add_argument("--customers", type=int, default=400)
    seq.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    seq.add_argument("--min-support", type=float, default=0.05)
    seq.add_argument(
        "--algorithm",
        default="gsp",
        help="gsp (sequential) or one of: NPSPM, SPSPM, HPSPM",
    )
    seq.add_argument("--nodes", type=int, default=8)
    seq.add_argument("--max-k", type=int, default=2)
    seq.add_argument("--patterns", type=int, default=10, help="patterns to print")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.out is None and args.store_out is None:
        print("repro-mine: generate needs --out and/or --store-out", file=sys.stderr)
        return 2
    if args.store_out is not None:
        from repro.datagen.generator import generate_dataset_to_store
        from repro.store import open_store

        params = common.experiment_params(args.dataset, args.transactions, args.seed)
        manifest = generate_dataset_to_store(
            params, args.store_out, segment_rows=args.segment_rows
        )
        store = open_store(args.store_out, verify=False)
        print(
            f"wrote {len(store)} transactions "
            f"({store.num_segments} segments, {store.store_bytes()} bytes) "
            f"to {manifest.parent}"
        )
    if args.out is not None:
        dataset = common.experiment_dataset(args.dataset, args.transactions, args.seed)
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        transactions_path = prefix.with_suffix(".txt")
        taxonomy_path = prefix.with_suffix(".taxonomy")
        save_transactions_text(dataset.database, transactions_path)
        save_taxonomy(dataset.taxonomy, taxonomy_path)
        print(f"wrote {len(dataset.database)} transactions to {transactions_path}")
        print(f"wrote {len(dataset.taxonomy)} taxonomy entries to {taxonomy_path}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    store = None
    if args.store is not None:
        from repro.store import TAXONOMY_NAME, open_store
        from repro.taxonomy.io import load_taxonomy

        store = open_store(args.store)
        taxonomy_path = (
            Path(args.taxonomy)
            if args.taxonomy is not None
            else Path(args.store) / TAXONOMY_NAME
        )
        if not taxonomy_path.exists():
            raise StoreFormatError(
                f"{taxonomy_path}: no taxonomy found for store {args.store} "
                "(pass --taxonomy)"
            )
        database = store
        taxonomy = load_taxonomy(taxonomy_path)
        dataset_label = str(args.store)
    else:
        dataset = common.experiment_dataset(args.dataset, args.transactions, args.seed)
        database, taxonomy = dataset.database, dataset.taxonomy
        dataset_label = args.dataset
    counting = CountingConfig(kernel=args.kernel, dedup=args.kernel == "fast")
    if args.algorithm.lower() == "cumulate":
        result = cumulate(
            database,
            taxonomy,
            args.min_support,
            max_k=args.max_k,
            counting=counting,
        )
        print(result)
    else:
        config = ClusterConfig(
            num_nodes=args.nodes,
            memory_per_node=args.memory,
            strict_memory=args.strict_memory,
            executor="process" if args.workers > 1 else "serial",
            workers=args.workers,
        )
        if store is not None:
            cluster = Cluster.from_store(config, store)
        else:
            cluster = Cluster.from_database(config, database)
        telemetry = None
        if args.trace_out or args.metrics_out:
            from repro.obs import EventSink, Telemetry

            sink = EventSink(path=args.trace_out) if args.trace_out else None
            telemetry = Telemetry(sink=sink)
            cluster.attach_telemetry(telemetry)
        miner = make_miner(args.algorithm, cluster, taxonomy, counting=counting)
        try:
            run = miner.mine(args.min_support, max_k=args.max_k)
        finally:
            cluster.close()
        if telemetry is not None:
            if telemetry.sink is not None:
                telemetry.sink.close()
                print(f"trace written to {args.trace_out}")
            if args.metrics_out:
                Path(args.metrics_out).write_text(
                    telemetry.registry.to_prometheus(), encoding="utf-8"
                )
                print(f"metrics written to {args.metrics_out}")
        result = run.result
        print(result)
        for pass_stats in run.stats.passes:
            print(
                f"  pass {pass_stats.k}: |C|={pass_stats.num_candidates} "
                f"|L|={pass_stats.num_large} elapsed={pass_stats.elapsed:.3f}s "
                f"recv={pass_stats.total_bytes_received}B "
                f"dup={pass_stats.duplicated_candidates} "
                f"fragments={pass_stats.fragments}"
            )
    if args.rules or args.rules_out:
        rules = generate_rules(result, args.min_confidence, taxonomy)
        if args.min_interest is not None:
            rules = interesting_rules(
                rules, result, taxonomy, args.min_interest
            )
        print(f"{len(rules)} rules at confidence >= {args.min_confidence}:")
        for rule in rules[: args.rules]:
            print(f"  {rule}")
        if args.rules_out:
            from repro.serve.rules_io import write_rules_jsonl

            supports = result.large_itemsets()
            by_key = {(rule.antecedent, rule.consequent): rule for rule in rules}
            interests = [
                rule_interest(rule, by_key, supports, taxonomy)
                for rule in rules
            ]
            source = {
                "dataset": dataset_label,
                "seed": args.seed,
                "algorithm": args.algorithm,
                "min_support": args.min_support,
                "min_confidence": args.min_confidence,
            }
            write_rules_jsonl(rules, args.rules_out, interests, source)
            print(f"{len(rules)} rules exported to {args.rules_out}")
    if args.save_result:
        save_result(result, args.save_result)
        print(f"result written to {args.save_result}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    _EXPERIMENTS[args.name].main()
    return 0


def _cmd_sequences(args: argparse.Namespace) -> int:
    from repro.sequences import (
        SequenceGeneratorParams,
        generate_sequence_dataset,
        gsp,
        mine_sequences_parallel,
    )

    dataset = generate_sequence_dataset(
        SequenceGeneratorParams(num_customers=args.customers, seed=args.seed)
    )
    if args.algorithm.lower() == "gsp":
        result = gsp(
            dataset.database, dataset.taxonomy, args.min_support, max_k=args.max_k
        )
        print(result)
    else:
        run = mine_sequences_parallel(
            dataset.database,
            dataset.taxonomy,
            args.min_support,
            algorithm=args.algorithm,
            config=ClusterConfig(num_nodes=args.nodes),
            max_k=args.max_k,
        )
        result = run.result
        print(result)
        for pass_stats in run.stats.passes:
            print(
                f"  pass {pass_stats.k}: |C|={pass_stats.num_candidates} "
                f"|L|={pass_stats.num_large} elapsed={pass_stats.elapsed:.3f}s "
                f"recv={pass_stats.total_bytes_received}B"
            )
    if args.patterns:
        top = sorted(
            (
                (sequence, count)
                for sequence, count in result.large_sequences(args.max_k).items()
            ),
            key=lambda kv: -kv[1],
        )[: args.patterns]
        print(f"top {len(top)} {args.max_k}-sequences:")
        for sequence, count in top:
            rendered = " -> ".join(
                "{" + ",".join(map(str, element)) + "}" for element in sequence
            )
            print(f"  {rendered}: {count}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "sequences":
            return _cmd_sequences(args)
        return _cmd_experiment(args)
    except ReproError as error:
        # One line per failure class, with a distinct exit code so
        # scripts can branch on what went wrong without parsing text.
        print(f"repro-mine: {error_label(error)}: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
