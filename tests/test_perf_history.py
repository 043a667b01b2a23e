"""Bench records and the trajectory watchdog: the ``repro.bench/v2``
record, the committed ``BENCH_*.json`` files and ``HISTORY.jsonl``,
and regression detection — including the mandated artificially-injected
2× slowdown."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.perf.bench import main as bench_main
from repro.perf.history import (
    SCHEMA,
    BenchHistoryError,
    BenchRecord,
    append_history,
    compare_against_history,
    compare_records,
    latest_matching,
    load_history,
    load_record,
    metric_direction,
    write_record,
)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

MINING = BenchRecord(
    label="t1",
    kind="mining",
    workload={"dataset": "R30F5", "transactions": 2000, "max_k": 2},
    host={"python": "3.12.0", "machine": "x86_64", "cpus": 2},
    metrics={
        "HPGM/8/naive-serial/wall_seconds": 10.0,
        "HPGM/8/fast-serial/wall_seconds": 2.857,
        "HPGM/8/fast-serial/speedup": 3.5,
    },
    digests={"HPGM/8/naive-serial": "aaa", "HPGM/8/fast-serial": "aaa"},
)

SERVING = BenchRecord(
    label="s1",
    kind="serving",
    workload={"queries": 200, "seed": 7, "snapshot_version": "deadbeef"},
    metrics={
        "direct/qps": 5000.0,
        "direct/wall_seconds": 0.04,
        "direct/p99_ms": 0.4,
        "batched/qps": 8000.0,
        "batched/wall_seconds": 0.025,
        "batched/p99_ms": 5.0,
        "speedup_qps": 1.6,
    },
    digests={"transcript": "bbb"},
)


def _scaled(record: BenchRecord, suffix: str, factor: float) -> BenchRecord:
    """A copy of ``record`` with every ``*suffix`` metric times ``factor``."""
    moved = copy.deepcopy(record)
    for name in moved.metrics:
        if name.endswith(suffix):
            moved.metrics[name] *= factor
    return moved


class TestLoader:
    def test_mining_report_normalizes(self):
        record = load_record(BENCHMARKS / "BENCH_pr8.json")
        assert record.kind == "mining"
        assert record.metrics["HPGM/8/naive-serial/wall_seconds"] > 0
        assert record.metrics["H-HPGM/8/fast-serial/speedup"] > 0
        assert record.metrics["overall/fast-process/speedup"] > 0
        assert set(record.digests) == {
            f"{algorithm}/8/{name}"
            for algorithm in ("HPGM", "H-HPGM")
            for name in ("naive-serial", "fast-serial", "fast-process")
        }

    def test_serving_report_normalizes(self):
        record = load_record(BENCHMARKS / "BENCH_pr5.json")
        assert record.kind == "serving"
        assert record.metrics["batched/qps"] > 0
        assert record.metrics["speedup_qps"] > 0
        assert set(record.digests) == {"transcript"}
        assert "snapshot_version" in record.workload

    def test_workload_key_tracks_workload_not_results(self):
        moved = _scaled(MINING, "wall_seconds", 9.9)
        assert moved.workload_key == MINING.workload_key
        other = copy.deepcopy(MINING)
        other.workload["transactions"] = 4000
        assert other.workload_key != MINING.workload_key
        assert MINING.workload_key.startswith("mining-")

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(BenchHistoryError, match="not a bench record"):
            BenchRecord.from_json({"schema": "repro.bench/v1"})
        payload = dict(MINING.to_json(), kind="table6")
        with pytest.raises(BenchHistoryError, match="unknown record kind"):
            BenchRecord.from_json(payload)
        broken = tmp_path / "BENCH_broken.json"
        broken.write_text("{broken")
        with pytest.raises(BenchHistoryError, match="not JSON"):
            load_record(broken)

    def test_committed_bench_files_all_load(self):
        kinds = set()
        for path in sorted(BENCHMARKS.glob("BENCH_*.json")):
            record = load_record(path)
            assert record.metrics, f"{path.name} produced no metrics"
            assert path.name == f"BENCH_{record.label}.json"
            kinds.add(record.kind)
        assert kinds == {"mining", "scale", "serving", "refresh"}
        assert not list(BENCHMARKS.glob("SCALE_*.json"))

    def test_committed_history_matches_bench_files(self):
        history = load_history(BENCHMARKS / "HISTORY.jsonl")
        assert len(history) == 10
        lines = (BENCHMARKS / "HISTORY.jsonl").read_text().splitlines()
        for path in sorted(BENCHMARKS.glob("BENCH_*.json")):
            compact = json.dumps(
                json.loads(path.read_text()), sort_keys=True, separators=(",", ":")
            )
            assert compact in lines, f"{path.name} is not a history line"


class TestHistoryFile:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        append_history(path, MINING)
        append_history(path, SERVING)
        loaded = load_history(path)
        assert loaded == [MINING, SERVING]

    def test_history_records_carry_no_timestamps(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        append_history(path, MINING)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "schema", "label", "kind", "workload", "host", "metrics", "digests",
        }
        assert payload["schema"] == SCHEMA

    def test_write_record_writes_file_and_history_line(self, tmp_path):
        path = write_record(MINING, tmp_path)
        assert path == tmp_path / "BENCH_t1.json"
        assert load_record(path) == MINING
        assert json.loads(path.read_text()) == MINING.to_json()
        write_record(SERVING, tmp_path)
        assert load_history(tmp_path / "HISTORY.jsonl") == [MINING, SERVING]

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(BenchHistoryError, match="line 1"):
            load_history(path)

    def test_latest_matching_prefers_most_recent(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        append_history(path, BenchRecord(**{**vars(MINING), "label": "old"}))
        append_history(path, BenchRecord(**{**vars(MINING), "label": "new"}))
        assert latest_matching(load_history(path), MINING).label == "new"


class TestDirections:
    def test_metric_directions(self):
        assert metric_direction("HPGM/8/fast-serial/wall_seconds") == "lower"
        assert metric_direction("direct/p99_ms") == "lower"
        assert metric_direction("direct/qps") == "higher"
        assert metric_direction("overall/fast-serial/speedup") == "higher"
        assert metric_direction("comm_ratio/8/ratio") == "higher"
        assert metric_direction("total_probes") is None


class TestWatchdog:
    def test_unmodified_rerun_passes(self):
        comparison = compare_records(MINING, copy.deepcopy(MINING))
        assert comparison["ok"] is True
        assert comparison["regressions"] == []
        assert all(d["ratio"] == 1.0 for d in comparison["deltas"])

    def test_injected_2x_slowdown_flagged(self):
        comparison = compare_records(MINING, _scaled(MINING, "wall_seconds", 2))
        assert comparison["ok"] is False
        regressed = {d["metric"] for d in comparison["regressions"]}
        assert "HPGM/8/naive-serial/wall_seconds" in regressed
        assert "HPGM/8/fast-serial/wall_seconds" in regressed

    def test_slowdown_within_noise_band_tolerated(self):
        assert compare_records(MINING, _scaled(MINING, "wall_seconds", 1.3))["ok"]

    def test_throughput_drop_flagged_for_higher_better(self):
        slowed = copy.deepcopy(SERVING)
        slowed.metrics["batched/qps"] /= 2
        comparison = compare_records(SERVING, slowed)
        assert any(
            d["metric"] == "batched/qps" for d in comparison["regressions"]
        )

    def test_metric_dropping_to_zero_flagged(self):
        baseline = BenchRecord(
            label="base",
            kind="serving",
            workload={"queries": 200},
            metrics={"direct/qps": 3000.0, "speedup_qps": 0.9, "direct/p99_ms": 0.8},
        )
        collapsed = BenchRecord(
            label="zero",
            kind="serving",
            workload={"queries": 200},
            metrics={"direct/qps": 0.0, "speedup_qps": 0.0, "direct/p99_ms": 0.8},
        )
        comparison = compare_records(baseline, collapsed)
        assert comparison["ok"] is False
        assert {d["metric"] for d in comparison["regressions"]} == {
            "direct/qps",
            "speedup_qps",
        }
        assert len(comparison["deltas"]) == 3
        # A lower-is-better metric at 0 is an improvement, not a regression.
        faster = copy.deepcopy(baseline)
        faster.metrics["direct/p99_ms"] = 0.0
        assert compare_records(baseline, faster)["ok"] is True
        # A zero baseline has no ratio: only p99 is compared back.
        reverse = compare_records(collapsed, baseline)
        assert [d["metric"] for d in reverse["deltas"]] == ["direct/p99_ms"]

    def test_digest_drift_is_always_a_regression(self):
        drifted = copy.deepcopy(MINING)
        drifted.digests = {name: "ccc" for name in drifted.digests}
        comparison = compare_records(MINING, drifted)
        assert comparison["ok"] is False
        assert comparison["digest_drift"]
        assert comparison["regressions"] == []  # timings did not move

    def test_workload_mismatch_refused(self):
        with pytest.raises(BenchHistoryError, match="workload mismatch"):
            compare_records(MINING, SERVING)

    def test_bad_noise_band_rejected(self):
        with pytest.raises(BenchHistoryError, match="noise band"):
            compare_records(MINING, MINING, noise_band=0.5)

    def test_new_workload_has_no_baseline(self, tmp_path):
        candidate = tmp_path / "out" / "BENCH_t1.json"
        write_record(MINING, candidate.parent)
        comparison = compare_against_history(
            tmp_path / "HISTORY.jsonl", candidate
        )
        assert comparison["ok"] is True
        assert comparison["baseline_label"] is None


class TestCompareCli:
    def _setup(self, tmp_path):
        history = tmp_path / "HISTORY.jsonl"
        append_history(history, MINING)
        return history

    def _candidate(self, tmp_path, record: BenchRecord) -> Path:
        return write_record(record, tmp_path / "candidate")

    def test_clean_rerun_exits_zero(self, tmp_path, capsys):
        history = self._setup(tmp_path)
        candidate = self._candidate(tmp_path, MINING)
        code = bench_main(
            ["compare", str(candidate), "--history", str(history)]
        )
        assert code == 0
        assert "trajectory: ok" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        history = self._setup(tmp_path)
        candidate = self._candidate(tmp_path, _scaled(MINING, "wall_seconds", 2))
        code = bench_main(
            ["compare", str(candidate), "--history", str(history)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "trajectory: REGRESSED" in out

    def test_json_output(self, tmp_path, capsys):
        history = self._setup(tmp_path)
        candidate = self._candidate(tmp_path, MINING)
        code = bench_main(
            ["compare", str(candidate), "--history", str(history), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["deltas"]

    def test_wider_noise_band_tolerates_slowdown(self, tmp_path, capsys):
        history = self._setup(tmp_path)
        candidate = self._candidate(tmp_path, _scaled(MINING, "wall_seconds", 2))
        code = bench_main(
            [
                "compare",
                str(candidate),
                "--history",
                str(history),
                "--noise-band",
                "3.0",
            ]
        )
        assert code == 0
        capsys.readouterr()
