"""``repro-serve`` CLI and the ``repro-mine --rules-out`` export path."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as mine_main
from repro.perf.history import load_history, load_record
from repro.serve import loadgen
from repro.serve.cli import main as serve_main
from repro.serve.rules_io import read_rules_jsonl
from repro.serve.snapshot import load_snapshot, write_snapshot

MINE_ARGS = [
    "--dataset",
    "R30F5",
    "--transactions",
    "250",
    "--min-support",
    "0.05",
    "--max-k",
    "2",
]


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "snap.jsonl"
    code = serve_main(
        ["build", *MINE_ARGS, "--min-confidence", "0.6", "--out", str(path)]
    )
    assert code == 0
    return path


class TestBuild:
    def test_build_from_mining(self, snapshot_path):
        snapshot = load_snapshot(snapshot_path)
        assert snapshot.num_rules > 0
        assert snapshot.source["dataset"] == "R30F5"

    def test_build_is_reproducible(self, snapshot_path, tmp_path):
        again = tmp_path / "again.jsonl"
        assert (
            serve_main(
                [
                    "build",
                    *MINE_ARGS,
                    "--min-confidence",
                    "0.6",
                    "--out",
                    str(again),
                ]
            )
            == 0
        )
        assert again.read_bytes() == snapshot_path.read_bytes()

    def test_build_from_rules_file(self, tmp_path):
        rules_path = tmp_path / "rules.jsonl"
        code = mine_main(
            [
                "mine",
                *MINE_ARGS,
                "--min-confidence",
                "0.6",
                "--rules",
                "0",
                "--rules-out",
                str(rules_path),
            ]
        )
        assert code == 0
        rules, interests = read_rules_jsonl(rules_path)
        assert rules and len(interests) == len(rules)

        out = tmp_path / "snap.jsonl"
        code = serve_main(
            ["build", "--rules", str(rules_path), "--out", str(out)]
        )
        assert code == 0
        assert load_snapshot(out).num_rules == len(rules)

    def test_empty_rule_set_exits_15(self, capsys):
        # min-support 0.95 leaves no large itemsets, hence no rules.
        code = mine_main(
            [
                "mine",
                "--dataset",
                "R30F5",
                "--transactions",
                "250",
                "--min-support",
                "0.95",
                "--max-k",
                "2",
                "--rules",
                "0",
                "--rules-out",
                "/tmp/unused_rules.jsonl",
            ]
        )
        assert code == 15
        assert "empty rule set" in capsys.readouterr().err

    def test_corrupt_snapshot_exits_16(self, snapshot_path, tmp_path, capsys):
        corrupted = tmp_path / "corrupt.jsonl"
        text = snapshot_path.read_text()
        corrupted.write_text(text.replace('"conf":', '"conf": 0.0, "x":', 1))
        code = serve_main(
            ["query", "--snapshot", str(corrupted), "--basket", "1"]
        )
        assert code == 16


class TestQuery:
    def test_query_prints_result_json(self, snapshot_path, capsys):
        snapshot = load_snapshot(snapshot_path)
        basket = ",".join(str(i) for i in snapshot.leaves[:2])
        code = serve_main(
            [
                "query",
                "--snapshot",
                str(snapshot_path),
                "--basket",
                basket,
                "--top-k",
                "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == snapshot.version
        assert len(payload["recommendations"]) <= 3

    def test_empty_basket_maps_to_serving_exit(self, snapshot_path, capsys):
        code = serve_main(
            ["query", "--snapshot", str(snapshot_path), "--basket", ","]
        )
        assert code == 14
        assert "serving error" in capsys.readouterr().err


class TestLoadgen:
    def test_loadgen_writes_bench_and_transcript(
        self, snapshot_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "bench"
        transcript = tmp_path / "results.jsonl"
        code = serve_main(
            [
                "loadgen",
                "--snapshot",
                str(snapshot_path),
                "--queries",
                "60",
                "--seed",
                "5",
                "--label",
                "test",
                "--out",
                str(out_dir),
                "--results-out",
                str(transcript),
            ]
        )
        assert code == 0
        record = load_record(out_dir / "BENCH_test.json")
        assert record.kind == "serving"
        assert record.workload["queries"] == 60
        assert set(record.digests) == {"transcript"}
        for phase in ("direct", "batched"):
            metrics = {
                name: record.metrics[f"{phase}/{name}"]
                for name in ("qps", "p50_ms", "p95_ms", "p99_ms")
            }
            assert metrics["qps"] > 0
            assert metrics["p50_ms"] <= metrics["p95_ms"] <= metrics["p99_ms"]
        assert "results identical: True" in capsys.readouterr().out
        assert load_history(out_dir / "HISTORY.jsonl") == [record]
        lines = transcript.read_text().splitlines()
        assert len(lines) == 60
        snapshot = load_snapshot(snapshot_path)
        for line in lines:
            assert json.loads(line)["version"] == snapshot.version

    def _loadgen(self, snapshot_path, tmp_path):
        return serve_main(
            [
                "loadgen",
                "--snapshot", str(snapshot_path),
                "--queries", "20",
                "--label", "bad",
                "--out", str(tmp_path),
            ]
        )

    def test_transcript_divergence_exits_one(
        self, snapshot_path, tmp_path, monkeypatch, capsys
    ):
        original = loadgen.run_batched_phase

        def diverging(*args, **kwargs):
            stats, transcript = original(*args, **kwargs)
            return stats, transcript[1:]

        monkeypatch.setattr(loadgen, "run_batched_phase", diverging)
        assert self._loadgen(snapshot_path, tmp_path) == 1
        assert "results identical: False" in capsys.readouterr().out

    def test_unreconciled_request_exits_one(
        self, snapshot_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(loadgen, "reconciles", lambda record: False)
        assert self._loadgen(snapshot_path, tmp_path) == 1
        assert "reconciled: False" in capsys.readouterr().out

    def test_transcript_is_seed_stable(self, snapshot_path, tmp_path):
        outs = []
        for attempt in ("a", "b"):
            transcript = tmp_path / f"results_{attempt}.jsonl"
            code = serve_main(
                [
                    "loadgen",
                    "--snapshot",
                    str(snapshot_path),
                    "--queries",
                    "40",
                    "--seed",
                    "9",
                    "--label",
                    f"t{attempt}",
                    "--out",
                    str(tmp_path / attempt),
                    "--results-out",
                    str(transcript),
                ]
            )
            assert code == 0
            outs.append(transcript.read_bytes())
        assert outs[0] == outs[1]
