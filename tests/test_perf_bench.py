"""Smoke tests for the ``repro-bench`` trajectory harness.

A tiny in-process run of the full configuration matrix must produce a
``mining`` bench record whose configurations all match the naive
baseline digest, and the CLI must write ``BENCH_<label>.json`` plus a
``HISTORY.jsonl`` line and exit 0 on agreement.
"""

from __future__ import annotations

import os

import pytest

from repro.perf import bench, scale
from repro.perf.history import SCHEMA, load_history, load_record

TINY = dict(
    quick=True,
    workers=2,
    transactions=300,
    min_support=0.02,
    node_counts=(4,),
    algorithms=("H-HPGM",),
)


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    from repro.datagen.generator import generate_dataset_to_store
    from repro.experiments import common

    path = tmp_path_factory.mktemp("bench-store") / "s"
    generate_dataset_to_store(
        common.experiment_params("R30F5", 300), path, segment_rows=128
    )
    return path


CONFIGURATION_NAMES = [name for name, *_ in bench.CONFIGURATIONS]


class TestRunBenchmark:
    def test_report_shape_and_agreement(self):
        record, identical = bench.run_benchmark("unit", **TINY)
        assert record.kind == "mining"
        assert record.label == "unit"
        assert identical is True
        assert CONFIGURATION_NAMES[0] == "naive-serial"

        stems = [f"H-HPGM/4/{name}" for name in CONFIGURATION_NAMES]
        assert sorted(record.digests) == sorted(stems)
        assert len(set(record.digests.values())) == 1
        for stem in stems:
            assert record.metrics[f"{stem}/wall_seconds"] > 0

        speedups = {
            name: value
            for name, value in record.metrics.items()
            if name.endswith("/speedup")
        }
        assert set(speedups) == {
            f"{key}/{name}/speedup"
            for key in ("H-HPGM/4", "overall")
            for name in ("fast-serial", "fast-process")
        }
        assert all(value > 0 for value in speedups.values())
        assert record.host["cpus"] >= 1

    def test_digest_is_deterministic(self):
        first, _ = bench.run_benchmark("a", **TINY)
        second, _ = bench.run_benchmark("b", **TINY)
        assert first.digests == second.digests

    def test_underprovisioned_flag_tracks_host_cpus(self, monkeypatch, capsys):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        record, _ = bench.run_benchmark("flag", **TINY)  # workers=2 > 1 cpu
        runs = [
            line for line in capsys.readouterr().err.splitlines() if "nodes=" in line
        ]
        assert len(runs) == len(CONFIGURATION_NAMES)
        for line in runs:
            assert ("[underprovisioned]" in line) is ("fast-process" in line)
        assert record.host["cpus"] == 1

    def test_cpus_printed_prominently(self, capsys):
        bench.run_benchmark("banner", **TINY)
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("host: ")
        assert "cpu(s)" in err


class TestStoreBacked:
    def test_store_matrix_matches_itself_and_the_dataset(self, tiny_store):
        on_store, identical = bench.run_benchmark("st", **TINY, store_path=tiny_store)
        assert identical is True
        assert on_store.workload["store"] is True
        assert on_store.workload["transactions"] == 300

        in_memory, _ = bench.run_benchmark("mem", **TINY)
        assert in_memory.workload["store"] is False
        # Same rows, same taxonomy — the store changes nothing observable.
        assert on_store.digests == in_memory.digests

    def test_store_and_memory_are_distinct_workloads(self, tiny_store):
        on_store, _ = bench.run_benchmark("st", **TINY, store_path=tiny_store)
        in_memory, _ = bench.run_benchmark("mem", **TINY)
        assert on_store.workload_key != in_memory.workload_key


class TestScale:
    def test_default_worker_curve(self):
        assert scale.default_worker_curve(1) == (1,)
        assert scale.default_worker_curve(2) == (1, 2)
        assert scale.default_worker_curve(4) == (1, 2, 4)
        assert scale.default_worker_curve(6) == (1, 2, 4, 6)
        assert scale.default_worker_curve(8) == (1, 2, 4, 8)

    def test_run_child_serial_and_materialized_agree(self, tiny_store):
        spec = dict(
            store=str(tiny_store),
            algorithm="H-HPGM",
            nodes=4,
            min_support=0.02,
            max_k=2,
            memory_per_node=60_000,
            kernel="fast",
            dedup=True,
            executor="serial",
        )
        streamed = scale.run_child(spec)
        materialized = scale.run_child({**spec, "materialize": True})
        assert streamed["rows"] == 300
        assert streamed["peak_rss_bytes"] > 0
        assert streamed["digest"] == materialized["digest"]

    def test_main_scale_writes_report_and_history(self, tiny_store, tmp_path, capsys):
        code = scale.main_scale(
            [
                "--store",
                str(tiny_store),
                "--algorithm",
                "H-HPGM",
                "--nodes",
                "4",
                "--min-support",
                "0.02",
                "--workers-list",
                "1,2",
                "--label",
                "unit",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        record = load_record(tmp_path / "BENCH_unit.json")
        assert record.kind == "scale"
        assert record.workload["rows"] == 300
        configurations = (
            "fast-serial",
            "fast-process/w1",
            "fast-process/w2",
            "materialized-serial",
        )
        assert sorted(record.digests) == sorted(configurations)
        assert len(set(record.digests.values())) == 1
        for configuration in configurations:
            assert record.metrics[f"{configuration}/peak_rss_bytes"] > 0
        # w2 keeps its timing only where the host has two cores.
        for configuration in ("fast-serial", "fast-process/w1", "materialized-serial"):
            assert f"{configuration}/wall_seconds" in record.metrics
        assert "fast-process/w1/speedup" in record.metrics
        # Only a point that ran a pool has workers to measure; w1 runs
        # its scans inline.
        assert record.metrics["fast-process/w2/peak_rss_worker_bytes"] > 0
        assert "fast-process/w1/peak_rss_worker_bytes" not in record.metrics
        assert "fast-serial/peak_rss_worker_bytes" not in record.metrics

        assert load_history(tmp_path / "HISTORY.jsonl") == [record]


class TestCli:
    def test_main_writes_report(self, tmp_path, capsys):
        code = bench.main(
            [
                "--quick",
                "--label",
                "smoke",
                "--out",
                str(tmp_path),
                "--workers",
                "2",
                "--transactions",
                "300",
                "--min-support",
                "0.02",
            ]
        )
        assert code == 0
        written = load_record(tmp_path / "BENCH_smoke.json")
        assert written.to_json()["schema"] == SCHEMA
        for algorithm in written.workload["algorithms"]:
            cell = {
                digest
                for stem, digest in written.digests.items()
                if stem.startswith(f"{algorithm}/")
            }
            assert len(cell) == 1, algorithm
        assert load_history(tmp_path / "HISTORY.jsonl") == [written]
        err = capsys.readouterr().err
        assert "speedup" in err.lower() or "ok" in err


class TestExitChecks:
    """A result that disagrees exits 1; the record is still written."""

    def test_matrix_digest_mismatch_exits_one(self, tmp_path, monkeypatch, capsys):
        def diverging(dataset, algorithm, num_nodes, min_support, kernel, *rest, **kw):
            return 0.5, f"digest-{kernel}"

        monkeypatch.setattr(bench, "bench_one", diverging)
        code = bench.main(
            ["--quick", "--transactions", "300", "--label", "bad", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "RESULT MISMATCH" in err and "FAIL" in err
        assert load_record(tmp_path / "BENCH_bad.json").kind == "mining"

    def test_scale_mismatch_exits_one_and_drops_underprovisioned_timing(
        self, tmp_path, monkeypatch, capsys
    ):
        def fake_spawn(spec):
            # No child runs: the materialized point disagrees with serial.
            digest = "materialized" if spec.get("materialize") else "streamed"
            return {"wall_seconds": 2.0, "peak_rss_bytes": 7, "rows": 10, "digest": digest}

        monkeypatch.setattr(scale, "_spawn", fake_spawn)
        wide = (os.cpu_count() or 1) + 1
        code = scale.main_scale(
            [
                "--store", str(tmp_path),
                "--workers-list", f"1,{wide}",
                "--label", "bad",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err
        record = load_record(tmp_path / "BENCH_bad.json")
        assert record.metrics["fast-process/w1/speedup"] == 1.0
        assert record.metrics[f"fast-process/w{wide}/peak_rss_bytes"] == 7
        assert f"fast-process/w{wide}/wall_seconds" not in record.metrics
        assert f"fast-process/w{wide}/speedup" not in record.metrics
