"""Tests for the repro-mine command-line interface."""

import pytest

from repro import cli
from repro.experiments import common


@pytest.fixture(autouse=True)
def tiny_scale():
    original = common.DEFAULT_NUM_TRANSACTIONS
    common.DEFAULT_NUM_TRANSACTIONS = 400
    common._cached_dataset.cache_clear()
    yield
    common.DEFAULT_NUM_TRANSACTIONS = original
    common._cached_dataset.cache_clear()


class TestGenerate:
    def test_writes_transactions_and_taxonomy(self, tmp_path, capsys):
        out = tmp_path / "data" / "r30f5"
        code = cli.main(
            ["generate", "--dataset", "R30F5", "--transactions", "50",
             "--out", str(out)]
        )
        assert code == 0
        transactions = (out.with_suffix(".txt")).read_text().strip().splitlines()
        assert len(transactions) == 50
        taxonomy_lines = (out.with_suffix(".taxonomy")).read_text().splitlines()
        assert len(taxonomy_lines) == 1500
        roots = [line for line in taxonomy_lines if line.endswith(" -1")]
        assert len(roots) == 30
        assert "wrote 50 transactions" in capsys.readouterr().out


class TestMine:
    def test_sequential_cumulate(self, capsys):
        code = cli.main(
            ["mine", "--algorithm", "cumulate", "--min-support", "0.1",
             "--max-k", "2", "--rules", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MiningResult" in out
        assert "rules at confidence" in out

    def test_parallel_algorithm(self, capsys):
        code = cli.main(
            ["mine", "--algorithm", "H-HPGM-FGD", "--min-support", "0.1",
             "--max-k", "2", "--nodes", "4", "--rules", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass 2" in out
        assert "dup=" in out

    def test_save_result_roundtrip(self, tmp_path, capsys):
        from repro.core.io import load_result

        out = tmp_path / "r.json"
        code = cli.main(
            ["mine", "--algorithm", "cumulate", "--min-support", "0.15",
             "--max-k", "2", "--rules", "0", "--save-result", str(out)]
        )
        assert code == 0
        loaded = load_result(out)
        assert loaded.total_large > 0

    def test_unknown_algorithm_fails(self, capsys):
        code = cli.main(["mine", "--algorithm", "bogus", "--max-k", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro-mine: mining error: ")
        assert "bogus" in err
        assert err.count("\n") == 1


class TestErrorExitCodes:
    """``repro.errors`` maps to one-line messages + distinct exit codes."""

    def test_memory_budget_error_exits_4(self, capsys):
        # strict_memory with a 1-slot budget overflows immediately.
        code = cli.main(
            ["mine", "--algorithm", "HPGM", "--min-support", "0.1",
             "--max-k", "2", "--nodes", "2", "--memory", "1",
             "--strict-memory"]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("repro-mine: memory budget error: ")
        assert err.count("\n") == 1

    def test_exit_codes_are_distinct_per_error_family(self):
        from repro import errors

        codes = [code for _, code in errors._EXIT_CODES]
        assert len(codes) == len(set(codes))
        assert 0 not in codes and 1 not in codes and 2 not in codes

    def test_exit_code_most_specific_wins(self):
        from repro import errors

        assert errors.exit_code_for(errors.MemoryBudgetError("x")) == 4
        assert errors.exit_code_for(errors.FaultError("x")) == 7
        assert errors.exit_code_for(errors.SendRetryExhaustedError("x")) == 7
        assert errors.exit_code_for(errors.MiningError("x")) == 3
        assert errors.exit_code_for(errors.ClusterError("x")) == 8
        assert errors.exit_code_for(errors.ReproError("x")) == 13

    def test_error_label_is_readable(self):
        from repro import errors

        assert errors.error_label(errors.MemoryBudgetError("x")) == (
            "memory budget error"
        )
        assert errors.error_label(errors.SendRetryExhaustedError("x")) == (
            "send retry exhausted error"
        )


class TestExperimentCommand:
    def test_table6_runs(self, capsys, monkeypatch):
        from repro.experiments import table6

        monkeypatch.setattr(
            table6, "run",
            lambda **kw: table6.Table6Result(dataset="R30F5", min_support=0.01, rows=()),
        )
        code = cli.main(["experiment", "table6"])
        assert code == 0
        assert "Table 6" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "fig99"])


class TestSequences:
    def test_sequential_gsp(self, capsys):
        code = cli.main(
            ["sequences", "--customers", "60", "--min-support", "0.2",
             "--algorithm", "gsp", "--patterns", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SequenceMiningResult" in out
        assert "2-sequences" in out

    def test_parallel_hpspm(self, capsys):
        code = cli.main(
            ["sequences", "--customers", "60", "--min-support", "0.2",
             "--algorithm", "HPSPM", "--nodes", "3", "--patterns", "0"]
        )
        assert code == 0
        assert "pass 2" in capsys.readouterr().out


class TestStoreCli:
    def test_generate_store_out(self, tmp_path, capsys):
        from repro.store import open_store

        out = tmp_path / "store"
        code = cli.main(
            ["generate", "--dataset", "R30F5", "--transactions", "80",
             "--store-out", str(out), "--segment-rows", "32"]
        )
        assert code == 0
        assert "wrote 80 transactions" in capsys.readouterr().out
        store = open_store(out)
        assert len(store) == 80
        assert store.num_segments == 3
        assert (out / "taxonomy.txt").exists()

    def test_mine_parallel_from_store(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert cli.main(
            ["generate", "--transactions", "200", "--store-out", str(out)]
        ) == 0
        capsys.readouterr()
        code = cli.main(
            ["mine", "--store", str(out), "--algorithm", "H-HPGM-FGD",
             "--min-support", "0.1", "--max-k", "2", "--rules", "0"]
        )
        assert code == 0
        assert "pass 2" in capsys.readouterr().out

    def test_mine_cumulate_from_store(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert cli.main(
            ["generate", "--transactions", "200", "--store-out", str(out)]
        ) == 0
        capsys.readouterr()
        code = cli.main(
            ["mine", "--store", str(out), "--algorithm", "cumulate",
             "--min-support", "0.1", "--max-k", "2", "--rules", "0"]
        )
        assert code == 0
        assert "MiningResult" in capsys.readouterr().out

    def test_store_without_taxonomy_exits_18(self, tmp_path, capsys):
        from repro.store import write_store

        out = tmp_path / "bare"
        write_store([(1, 2), (2, 3)], out)
        code = cli.main(
            ["mine", "--store", str(out), "--min-support", "0.5"]
        )
        assert code == 18
        assert "taxonomy" in capsys.readouterr().err.lower()

    def test_corrupt_store_exits_18(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert cli.main(
            ["generate", "--transactions", "50", "--store-out", str(out)]
        ) == 0
        capsys.readouterr()
        segment = out / "seg-00000.bin"
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF
        segment.write_bytes(bytes(data))
        code = cli.main(
            ["mine", "--store", str(out), "--min-support", "0.5"]
        )
        assert code == 18
        assert "digest mismatch" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_generate_requires_out(self, capsys):
        assert cli.main(["generate"]) == 2
        assert "--out and/or --store-out" in capsys.readouterr().err
