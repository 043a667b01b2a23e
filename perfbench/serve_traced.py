"""``repro-serve`` with benchmark-side spans around its layers.

    python3 perfbench/serve_traced.py --trace-dir DIR --delay-ms 3 serve --snapshot S --port 0

Installs the serving wrappers of ``spans.install_serve`` and then runs
the unmodified ``repro.serve.cli.main`` with the remaining arguments.
Each SIGUSR1 writes the aggregates so far to ``DIR/mark-<n>.json``; the
third one also turns on the injected delay in the engine layer (the
attribution self-check).  On exit the spans go to ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import common


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[argv.index("--trace-dir") + 1])
    delay_s = float(argv[argv.index("--delay-ms") + 1]) / 1e3
    rest = argv[argv.index("--delay-ms") + 2:]
    common.require_source()
    import spans
    from repro.serve import cli

    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(keep=("httpd", "admission", "engine"), sampled=("httpd", "engine"))
    spans.install_serve(tracer)
    marks = []

    def mark(signum, frame) -> None:
        marks.append(tracer.snapshot())
        if len(marks) == 3:
            tracer.delays = {"engine": delay_s}
        path = trace_dir / f"mark-{len(marks)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(marks[-1]))
        tmp.replace(path)

    signal.signal(signal.SIGUSR1, mark)
    try:
        return cli.main(rest)
    finally:
        tracer.write(trace_dir / "spans.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
