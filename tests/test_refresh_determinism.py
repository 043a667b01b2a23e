"""Byte-stability of the refresh pipeline across hash seeds.

The determinism clause: the published snapshot must be byte-identical
across interpreter runs with different ``PYTHONHASHSEED`` values —
nothing in the log, miner, or snapshot compiler may leak set/dict
iteration order into the artifacts.  The drifting sequence of
``tests/test_refresh_delta.py``, in which every delta promotes and
demotes, must also report identical per-delta results under both
kernels.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _run_sequence(root: Path, hash_seed: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.refresh.cli",
            "run",
            "--root", str(root),
            "--dataset", "R30F5",
            "--scale", "0.005",
            "--base-rows", "400",
            "--deltas", "3",
            "--delta-rows", "100",
            "--window-deltas", "2",
            "--min-support", "0.15",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
        },
    )


def _published(root: Path) -> tuple[str, str]:
    pointer = json.loads((root / "CURRENT").read_text())
    body = (root / pointer["snapshot"]).read_text()
    return pointer["version"], body


class TestHashSeedIndependence:
    def test_snapshot_bytes_stable_across_hash_seeds(self, tmp_path):
        outputs = {}
        for hash_seed in ("1", "2"):
            root = tmp_path / f"seed-{hash_seed}"
            proc = _run_sequence(root, hash_seed)
            assert proc.returncode == 0, proc.stderr
            outputs[hash_seed] = _published(root)

        version_one, body_one = outputs["1"]
        version_two, body_two = outputs["2"]
        assert version_one == version_two
        assert body_one == body_two

    def test_log_manifest_and_state_stable(self, tmp_path):
        """Every durable artifact — not just the snapshot — is
        byte-stable: log manifest, delta stores, and the checkpoint."""
        trees = {}
        for hash_seed in ("1", "2"):
            root = tmp_path / f"seed-{hash_seed}"
            proc = _run_sequence(root, hash_seed)
            assert proc.returncode == 0, proc.stderr
            tree = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(root))] = path.read_bytes()
            trees[hash_seed] = tree

        assert sorted(trees["1"]) == sorted(trees["2"])
        for name, blob in trees["1"].items():
            assert trees["2"][name] == blob, f"{name} differs across hash seeds"


#: Prints one JSON line per delta of the drifting sequence: the delta's
#: stats and the miner's full state after it.
_DRIFT_SCRIPT = """
import json, sys
from repro.datagen.generator import generate_dataset
from repro.perf.config import CountingConfig
from tests.datasets import SMALL_DATASET_PARAMS, drifting_sequence

counting = {"fast": CountingConfig(), "naive": CountingConfig.naive()}[sys.argv[1]]
for miner, stats, _ in drifting_sequence(generate_dataset(SMALL_DATASET_PARAMS), counting):
    print(json.dumps({"stats": stats.to_json(), "state": miner.to_payload()}))
"""


class TestDriftingSequenceAcrossHashSeeds:
    @pytest.mark.parametrize("kernel", ["fast", "naive"])
    def test_per_delta_results_identical(self, kernel):
        outputs = {}
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _DRIFT_SCRIPT, kernel],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env={
                    "PYTHONPATH": os.pathsep.join([str(SRC), str(REPO_ROOT)]),
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
            )
            assert proc.returncode == 0, proc.stderr
            outputs[hash_seed] = proc.stdout
        deltas = [json.loads(line) for line in outputs["1"].splitlines()]
        assert len(deltas) == 7
        assert all(delta["stats"]["promotions"] > 0 for delta in deltas[1:])
        assert outputs["1"] == outputs["2"]
