"""The ``repro-refresh`` CLI: init/apply/status plumbing and the
end-to-end ``run`` driver (verify + bench + probes)."""

from __future__ import annotations

import json

import pytest

from repro.datagen import generate_dataset, preset
from repro.datagen.io import save_transactions_text
from repro.perf.history import load_history, load_record
from repro.refresh.cli import main
from repro.refresh.driver import RefreshDriver

SCALE = "0.005"


def _init(tmp_path, *extra):
    root = tmp_path / "root"
    code = main(
        [
            "init",
            "--root", str(root),
            "--dataset", "R30F5",
            "--scale", SCALE,
            "--min-support", "0.15",
            "--window-deltas", "2",
            *extra,
        ]
    )
    return code, root


class TestInitApplyStatus:
    def test_init_then_status(self, tmp_path, capsys):
        code, root = _init(tmp_path)
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["applied_through"] == -1
        assert status["min_support"] == 0.15
        assert (root / "state.json").exists()

        assert main(["status", "--root", str(root)]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["applied_through"] == -1

    def test_double_init_is_store_error(self, tmp_path, capsys):
        _init(tmp_path)
        capsys.readouterr()
        code, _ = _init(tmp_path)
        assert code == 18
        assert "already holds" in capsys.readouterr().err

    def test_init_needs_exactly_one_source(self, tmp_path, capsys):
        code = main(
            ["init", "--root", str(tmp_path / "r")]
        )
        assert code == 3
        assert "exactly one" in capsys.readouterr().err

    def test_status_on_missing_root(self, tmp_path, capsys):
        code = main(["status", "--root", str(tmp_path / "nowhere")])
        assert code == 18

    def test_apply_ingests_transactions_file(self, tmp_path, capsys):
        code, root = _init(tmp_path)
        assert code == 0
        capsys.readouterr()

        dataset = generate_dataset(preset("R30F5", scale=float(SCALE), seed=1998))
        rows = list(dataset.database)[:300]
        txn_path = tmp_path / "delta.txt"
        save_transactions_text(type(dataset.database)(rows), txn_path)

        events = tmp_path / "events.jsonl"
        code = main(
            [
                "apply",
                "--root", str(root),
                "--transactions", str(txn_path),
                "--events", str(events),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["delta"] == 0
        assert summary["rows"] == 300
        assert summary["published"] in (True, False)
        types = [
            json.loads(line)["type"]
            for line in events.read_text().splitlines()
        ]
        assert "refresh-append" in types and "refresh-apply" in types


class TestRun:
    def test_run_end_to_end(self, tmp_path, capsys):
        root = tmp_path / "root"
        out = tmp_path / "bench"
        requests = tmp_path / "requests.jsonl"
        code = main(
            [
                "run",
                "--root", str(root),
                "--dataset", "R30F5",
                "--scale", SCALE,
                "--base-rows", "400",
                "--deltas", "3",
                "--delta-rows", "100",
                "--window-deltas", "2",
                "--min-support", "0.15",
                "--verify",
                "--bench",
                "--label", "clitest",
                "--out", str(out),
                "--probes", "10",
                "--requests-out", str(requests),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        status = json.loads(captured.out)
        assert status["applied_through"] == 3
        # Window of 2 over base + 3 deltas: the window evicted twice.
        assert status["window_deltas"] == 2
        # Base + 3 deltas, each verified against a batch mine.
        assert captured.err.count(", verified") == 4

        record = load_record(out / "BENCH_clitest.json")
        assert record.kind == "refresh"
        for index in range(4):
            for name in ("refresh_seconds", "batch_seconds", "speedup"):
                assert f"delta{index}/{name}" in record.metrics
        assert record.metrics["speedup"] > 0
        assert record.digests == {"final_snapshot": status["current"]["version"]}
        assert load_history(out / "HISTORY.jsonl") == [record]

        lines = requests.read_text().splitlines()
        assert len(lines) >= 10

    def test_verify_divergence_exits_3(self, tmp_path, monkeypatch, capsys):
        # The batch oracle publishes nothing while the refresh publishes.
        monkeypatch.setattr(RefreshDriver, "batch_snapshot", lambda self: None)
        out = tmp_path / "bench"
        code = main(
            [
                "run",
                "--root", str(tmp_path / "root"),
                "--dataset", "R30F5",
                "--scale", SCALE,
                "--base-rows", "400",
                "--deltas", "1",
                "--delta-rows", "100",
                "--min-support", "0.15",
                "--verify",
                "--bench",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "disagree" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refuses_undersized_dataset(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--root", str(tmp_path / "root"),
                "--dataset", "R30F5",
                "--scale", SCALE,
                "--base-rows", "1000000",
            ]
        )
        assert code == 3
        assert "rows" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])
