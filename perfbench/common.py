"""Shared pieces of the benchmark: inputs, statistics, processes, results.

Every workload draws its inputs from two seeds.  The *population* (the
taxonomy and the pattern pool, i.e. what the data is like) comes from a
fixed structural seed per workload, so that runs with different
``--seed`` values mine comparable data; ``--seed`` draws the *sample*
(the transaction rows, the basket stream, the delta mix).  The same
``--seed`` always gives the same inputs.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space inside the repository (listed in ``.gitignore``).
WORK = ROOT / ".perfbench"
#: Where traced runs write their spans (kept after the run).
TRACES = WORK / "traces"

#: Structural seed of every workload's population (taxonomy + patterns).
POPULATION_SEED = 1998

#: A child interpreter (one mine) that runs longer than this has hung.
CHILD_TIMEOUT_S = 150.0


#: One core per process: the workload's executor setting alone decides how
#: many cores a mine uses (at most the host's 2), so the BLAS library under
#: numpy may not start threads of its own.  Set before numpy is imported.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def require_source() -> None:
    """Put ``src/`` on the import path, or stop with exit code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(SINGLE_THREADED)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else os.pathsep.join([str(SRC), existing])
    return env


def work_dir(name: str) -> Path:
    """A fresh working directory for one run (removed by :func:`cleanup`)."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def r30f5_params(rows: int, shape: str = "experiment"):
    """R30F5 generator parameters at benchmark scale.

    ``experiment`` is the experiment harness's Table-6 shape (1 500
    items, 300 patterns, squared pattern weights, which keep the skew
    of the full-size data); ``preset`` is the Table-5 preset scaled to
    1 200 items and 400 patterns with plain weights (the refresh shape,
    whose k >= 3 passes stay small).
    """
    from repro.datagen.params import GeneratorParams

    if shape == "experiment":
        return GeneratorParams(
            num_transactions=rows,
            num_patterns=300,
            num_items=1500,
            num_roots=30,
            fanout=5.0,
            pattern_weight_exponent=2.0,
            seed=POPULATION_SEED,
        )
    return GeneratorParams(
        num_transactions=rows,
        num_patterns=400,
        num_items=1200,
        num_roots=30,
        fanout=5.0,
        seed=POPULATION_SEED,
    )


def population(params, pool_seed: int = POPULATION_SEED):
    """(taxonomy, pattern pool) of ``params``; ``pool_seed`` picks the pool."""
    from repro.datagen.generator import generate_patterns
    from repro.taxonomy.generate import generate_taxonomy

    rng = random.Random(params.seed)
    taxonomy = generate_taxonomy(
        num_items=params.num_items,
        num_roots=params.num_roots,
        fanout=params.fanout,
        seed=rng.randrange(2**31),
    )
    if pool_seed != params.seed:
        rng = random.Random(pool_seed)
    return taxonomy, generate_patterns(params, taxonomy, rng)


def sample_rows(params, taxonomy, patterns, seed: int, rows: int) -> list[tuple[int, ...]]:
    """``rows`` transactions drawn from ``patterns`` with the sample seed."""
    from repro.datagen.generator import iter_transactions

    sized = replace(params, num_transactions=rows)
    return list(iter_transactions(sized, taxonomy, patterns, random.Random(seed)))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, or p75.

    Returns ``(value, percentile)``: the order statistic of rank
    ``max(n - 10, ceil(3n / 4))`` (p99 at 1 000 samples, p90 at 100,
    p75 at 40).  Below 40 samples no percentile from p75 up has ten
    samples beyond it, and p75 is returned: the maximum of a dozen mines
    measures a shared host's worst stall more than the program.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = max(n - 10, -(-3 * n // 4))
    return float(ordered[rank - 1]), 100.0 * rank / n


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-pct * len(ordered) // 100))))
    return float(ordered[rank - 1])


def maxrss_mb() -> float:
    """This process's high-water RSS in MB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def hwm_mb() -> float:
    """Peak RSS (``VmHWM``) of this process since start or the last :func:`reset_hwm`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_hwm() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as control:
        control.write("5")


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(script: str, spec: dict) -> dict:
    """Run ``perfbench/<script> --child`` on one JSON spec; parse its JSON."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), "--child"],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{script} child exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def catalogue() -> dict[str, list[tuple[str, str]]]:
    """``BENCHMARK.json``'s metrics: ``{"end_to_end"|"per_layer": [(name, unit), ...]}``.

    ``BENCHMARK.json`` is the one list of metric names and units;
    ``spec.json``'s layer map must name exactly its per-layer metrics.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {kind: [(m["name"], m["unit"]) for m in bench[kind]]
               for kind in ("end_to_end", "per_layer")}
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    mapped = sorted(name for layer in spec["layers"] for name in layer["metrics"])
    if mapped != sorted(name for name, _ in metrics["per_layer"]):
        raise RuntimeError("spec.json's layer map does not name exactly the per-layer "
                           "metrics of BENCHMARK.json")
    return metrics


class Run:
    """Operation tally, report lines and metrics of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.catalogue = catalogue()
        self.units = {name: unit for kind in self.catalogue.values() for name, unit in kind}

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)

    def check(self, ok: bool, why: str) -> None:
        """A run-level output check; failing it fails the run."""
        if not ok:
            self.failures.append(why)

    def metric(self, name: str, value: float) -> None:
        """Record ``name`` (a metric of ``BENCHMARK.json``) with its unit from there."""
        if name not in self.units:
            raise KeyError(f"{name} is not a metric of BENCHMARK.json")
        self.metrics[name] = {"value": float(value), "unit": self.units[name]}

    def report(self, line: str) -> None:
        print(f"[{self.workload} seed={self.seed}] {line}", flush=True)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0

    def emit(self, kind: str) -> None:
        """Print the result line with exactly the ``kind`` metrics of the catalogue."""
        for why in self.failures:
            print(f"FAILED: {why}", file=sys.stderr)
        names = [name for name, _ in self.catalogue[kind]]
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": max(1, self.attempted),
                    "failed": self.failed,
                    "metrics": {name: self.metrics[name] for name in names},
                },
                sort_keys=True,
            ),
            flush=True,
        )
