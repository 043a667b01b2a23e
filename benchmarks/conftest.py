"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's tables/figures at the
scaled setup documented in ``repro/experiments/common.py`` and prints
the same rows the paper reports (run pytest with ``-s`` to see them
live; they are also written to ``benchmarks/results/``).

Environment knobs:

* ``REPRO_TX`` / ``REPRO_NODES`` / ``REPRO_MEMORY`` — scale overrides
  (see ``repro.experiments.common``).
* ``REPRO_BENCH_FULL=1`` — run Figures 13/14 on all three datasets
  instead of R30F5 only.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"

BENCH_FULL = os.environ.get("REPRO_BENCH_FULL") == "1"
BENCH_DATASETS = ("R30F5", "R30F3", "R30F10") if BENCH_FULL else ("R30F5",)


@pytest.fixture
def record_result():
    """Print an experiment's table and persist it under results/."""

    def record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return record


@pytest.fixture
def record_json():
    """Persist an experiment's machine-readable result under results/.

    Experiment results expose ``to_json()`` (sorted keys, embedded
    ``RunStats.to_dict()`` records), so two runs at the same scale can
    be diffed byte-for-byte — ``results/table6.json`` is the committed
    reference at the default scale.
    """

    def record(name: str, json_text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(
            json_text + ("" if json_text.endswith("\n") else "\n"),
            encoding="utf-8",
        )

    return record
