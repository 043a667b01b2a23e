"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload mine-skew --seed 1 --seconds 20 --trace 0

Runs one named workload whose inputs are drawn from ``--seed``, measures
for ``--seconds``, checks every output and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the same workload also runs with benchmark-side spans
around each layer and the metrics are the per-layer ones (see
``spans.py``); the traced refresh run also serves the snapshot it
published (``serving.py``).  ``BENCHMARK.json`` is the one list of
metric names and units.  ``spec.json`` beside this file records each
workload's input sizes, the layer -> metric -> workload map and the
serve latency limit.  Exit status is 0 when the run completed (correct
or not) and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("mine-skew", "refresh")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()

    result = common.Run(args.workload, args.seed)
    if args.workload.startswith("mine-"):
        import mining as workload
    else:
        import refreshing as workload
    workload.run(args.workload, args.seed, args.seconds, bool(args.trace), result)

    if args.trace:
        result.metric("error_rate", result.failed / max(1, result.attempted))
        idle = [name for name, _ in result.catalogue["per_layer"] if name not in result.metrics]
        for name in idle:
            result.metric(name, 0.0)
        result.report(f"layers without work on this workload, reported as 0: {' '.join(idle)}")
    result.report(f"ops attempted={result.attempted} failed={result.failed} "
                  f"error_rate={result.failed / max(1, result.attempted):.4f} ratio")
    result.emit("per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
