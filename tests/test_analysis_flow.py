"""The ``repro.analysis.flow`` whole-program analyzer: fixture packages,
protocol specs, pool-safety, baselines, CLI contract, and the self-check
that the shipped tree is clean.

Fixture *packages* under ``tests/fixtures/flow/`` are analyzed one
scenario directory at a time (the analyzer is whole-program, so a
scenario is a mini-project); violation lines carry ``# expect: RAxxx``
tags and the tests assert exact (file, rule, line) agreement with the
whole-program rules.  What the per-module rules find in the same
scenarios is pinned separately
(:meth:`TestFixturePackages.test_per_module_findings`).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.flow import FLOW_RULES, RULES, analyze_paths
from repro.analysis.flow.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.flow.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    main as analyze_main,
)
from repro.analysis.flow.protocol import Event, conforms, parse_spec
from repro.parallel.registry import ALGORITHMS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)")

SCENARIOS = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())

#: The whole-program rule ids, for ``select=``.
RA_IDS = {rule["id"] for rule in FLOW_RULES}


def expected_findings(scenario: Path) -> set[tuple[str, str, int]]:
    """(file, rule, line) triples declared by a scenario's tags."""
    expected: set[tuple[str, str, int]] = set()
    for path in sorted(scenario.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _EXPECT.search(line)
            if match:
                for rule in match.group(1).split(","):
                    expected.add((path.name, rule.strip(), lineno))
    return expected


class TestFixturePackages:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_findings_match_expectations(self, scenario):
        directory = FIXTURES / scenario
        result = analyze_paths([directory], select=RA_IDS)
        actual = {
            (Path(f.path).name, f.rule, f.line) for f in result.findings
        }
        assert actual == expected_findings(directory)

    def test_per_module_findings(self):
        """With every rule on, the scenarios also trip two per-module
        rules: the worker's module-level dict is an unbounded cache, and
        both taint emitters send without a drain in the same module."""
        extra = set()
        for scenario in SCENARIOS:
            own = expected_findings(FIXTURES / scenario)
            extra |= {
                (Path(f.path).name, f.rule, f.line)
                for f in analyze_paths([FIXTURES / scenario]).findings
                if (Path(f.path).name, f.rule, f.line) not in own
            }
        assert extra == {
            ("pool_bad_workers.py", "RL009", 3),
            ("emit_mod.py", "RL006", 14),
            ("emit_ok.py", "RL006", 10),
        }

    def test_bad_scenarios_have_clean_twins(self):
        bad = {s for s in SCENARIOS if s.endswith("_bad")}
        assert bad, "no *_bad scenarios found"
        for scenario in bad:
            twin = scenario.replace("_bad", "_clean")
            assert twin in SCENARIOS, f"{scenario} has no clean twin"
            assert not expected_findings(FIXTURES / twin)

    def test_taint_crosses_the_call_boundary(self):
        """The RA001 fixture only builds a set in the *helper* module."""
        emitter = (FIXTURES / "taint_bad" / "emit_mod.py").read_text()
        assert "set(" not in emitter and "set()" not in emitter

    def test_pool_bad_rejects_unpicklable_and_impure_workers(self):
        result = analyze_paths([FIXTURES / "pool_bad"], select=RA_IDS)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["RA002", "RA002", "RA003"]
        assert result.boundaries_checked == 3

    def test_protocol_bad_flags_missing_and_violated_specs(self):
        result = analyze_paths([FIXTURES / "protocol_bad"])
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["RA004", "RA005"]
        violation = next(f for f in result.findings if f.rule == "RA005")
        # The message shows both sequences so the diff is actionable.
        assert "extracted sequence" in violation.message
        assert "begin_pass send* drain* finish_pass" in violation.message


class TestProtocolSpecs:
    def test_parse_and_conformance(self):
        spec = parse_spec(("begin_pass", "send*", "drain*", "finish_pass"))
        ok = [
            Event("begin_pass", "1", 1),
            Event("send", "*", 2),
            Event("drain", "*", 3),
            Event("finish_pass", "1", 4),
        ]
        assert conforms(ok, spec)
        # A drain that can precede a send is a violation even when the
        # zero-iteration expansion would conform.
        bad = [
            Event("begin_pass", "1", 1),
            Event("drain", "*", 2),
            Event("send", "*", 3),
            Event("finish_pass", "1", 4),
        ]
        assert not conforms(bad, spec)

    def test_unknown_token_rejected(self):
        assert parse_spec(("begin_pass", "shout", "finish_pass")) is None

    def test_select_and_ignore(self):
        directory = FIXTURES / "pool_bad"
        only = analyze_paths([directory], select={"RA002"})
        assert {f.rule for f in only.findings} == {"RA002"}
        without = analyze_paths([directory], ignore={"RA002"})
        assert {f.rule for f in without.findings} == {"RA003", "RL009"}


class TestSelfCheck:
    """The acceptance gate: the shipped tree analyzes clean."""

    def test_src_tree_is_clean(self):
        result = analyze_paths([SRC / "repro"])
        assert result.clean, "\n".join(f.render() for f in result.findings)
        assert result.files_checked > 100

    def test_all_six_miners_are_protocol_checked(self):
        result = analyze_paths([SRC / "repro"])
        assert len(result.miners_checked) == len(ALGORITHMS) == 6
        assert result.miners_checked == sorted(
            cls.__name__ for cls in ALGORITHMS.values()
        )

    def test_every_pool_boundary_is_proved(self):
        """One executor call site per scan worker family."""
        result = analyze_paths([SRC / "repro"])
        assert result.boundaries_checked >= 4

    def test_suppression_budget(self):
        """Inline suppressions of whole-program rules in src/ stay rare
        and justified (at most 2)."""
        justified = 0
        analysis_pkg = SRC / "repro" / "analysis"
        for path in SRC.rglob("*.py"):
            if analysis_pkg in path.parents:
                continue
            for line in path.read_text().splitlines():
                if "repro-analyze: disable" in line and re.search(r"RA\d{3}", line):
                    justified += 1
                    assert "—" in line or "because" in line.lower(), (
                        f"unjustified suppression in {path}: {line.strip()}"
                    )
        assert justified <= 2


class TestSuppressions:
    def test_repro_analyze_marker_suppresses(self, tmp_path):
        source = (
            "def noisy(network, stats, items):\n"
            "    bag = set(items)\n"
            "    payload = []\n"
            "    for item in bag:\n"
            "        payload.append(item)\n"
            "    # repro-analyze: disable=RA001 — fixture\n"
            "    network.send(0, 1, tuple(payload), stats, stats)\n"
        )
        path = tmp_path / "suppressed_mod.py"
        path.write_text(source)
        result = analyze_paths([path], select={"RA001"})
        assert result.clean
        assert result.suppressed == 1

    def test_lint_marker_does_not_suppress_analyzer(self, tmp_path):
        """The retired ``# repro-lint:`` marker suppresses nothing."""
        source = (
            "def noisy(network, stats, items):\n"
            "    bag = set(items)\n"
            "    payload = []\n"
            "    for item in bag:\n"
            "        payload.append(item)\n"
            "    # repro-lint: disable=RA001\n"
            "    network.send(0, 1, tuple(payload), stats, stats)\n"
        )
        path = tmp_path / "wrong_marker_mod.py"
        path.write_text(source)
        result = analyze_paths([path], select={"RA001"})
        assert [f.rule for f in result.findings] == ["RA001"]


class TestSyntaxErrors:
    def test_unparsable_file_reports_ra000(self, tmp_path):
        path = tmp_path / "broken_mod.py"
        path.write_text("def broken(:\n")
        result = analyze_paths([path])
        assert [f.rule for f in result.findings] == ["RA000"]


class TestBaseline:
    def test_roundtrip_and_stale_detection(self, tmp_path):
        result = analyze_paths([FIXTURES / "pool_bad"])
        assert result.findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, result.findings)

        baseline = load_baseline(baseline_path)
        kept, baselined, stale = apply_baseline(result.findings, baseline)
        assert kept == [] and baselined == len(result.findings) and stale == []

        # Drop one real finding: its baseline entry goes stale.
        kept, baselined, stale = apply_baseline(result.findings[1:], baseline)
        assert kept == [] and baselined == len(result.findings) - 1
        assert len(stale) == 1

    def test_baseline_matches_by_content_not_line(self, tmp_path):
        result = analyze_paths([FIXTURES / "pool_bad"])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, result.findings)
        payload = json.loads(baseline_path.read_text())
        assert payload["version"] == 1
        for entry in payload["findings"]:
            assert set(entry) == {"path", "rule", "message"}

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(BaselineError):
            load_baseline(path)


class TestCli:
    def test_exit_codes(self, capsys):
        assert analyze_main([str(FIXTURES / "pool_clean")]) == EXIT_CLEAN
        assert analyze_main([str(FIXTURES / "pool_bad")]) == EXIT_FINDINGS
        capsys.readouterr()

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        code = analyze_main([str(FIXTURES / "pool_bad"), "--select", "RZ999"])
        assert code == EXIT_USAGE
        assert "RZ999" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert analyze_main(["no/such/dir"]) == EXIT_USAGE
        capsys.readouterr()

    def test_select_filters_findings(self, capsys):
        code = analyze_main(
            [str(FIXTURES / "pool_bad"), "--select", "RA003", "--format", "json"]
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"RA003"}

    def test_json_summary_shape(self, capsys):
        code = analyze_main([str(SRC / "repro"), "--format", "json"])
        assert code == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["findings"] == 0
        assert summary["miners_checked"] and summary["boundaries_checked"] >= 4

    def test_baseline_gate(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = analyze_main(
            [str(FIXTURES / "pool_bad"), "--write-baseline", str(baseline)]
        )
        assert code == EXIT_CLEAN
        code = analyze_main(
            [str(FIXTURES / "pool_bad"), "--baseline", str(baseline)]
        )
        assert code == EXIT_CLEAN
        capsys.readouterr()

    def test_malformed_baseline_is_a_usage_error(self, tmp_path, capsys):
        baseline = tmp_path / "garbage.json"
        baseline.write_text("[1, 2, 3]")
        code = analyze_main(
            [str(FIXTURES / "pool_bad"), "--baseline", str(baseline)]
        )
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule["id"] in out

    def test_rule_catalog_is_complete(self):
        """One catalogue: RA000–RA005, then every per-module rule."""
        assert [rule["id"] for rule in RULES] == [
            f"RA00{i}" for i in range(6)
        ] + [rule.rule_id for rule in ALL_RULES]

    def test_docs_table_follows_the_catalogue(self):
        doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
        rows = re.findall(r"^\| (R[AL]\d{3}) \|", doc, flags=re.MULTILINE)
        assert rows == [rule["id"] for rule in RULES]


class TestSarifOutput:
    def test_sarif_is_valid_and_carries_findings(self, capsys):
        code = analyze_main([str(FIXTURES / "pool_bad"), "--format", "sarif"])
        assert code == EXIT_FINDINGS
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        assert [rule["id"] for rule in run["tool"]["driver"]["rules"]] == [
            rule["id"] for rule in RULES
        ]
        assert len(run["results"]) == 4  # RA002 twice, RA003, RL009
        for item in run["results"]:
            location = item["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert location["region"]["startLine"] >= 1


class TestDeterminism:
    """Analyzer output must be byte-identical across hash seeds."""

    @staticmethod
    def _run(seed: str, fmt: str, target: Path) -> bytes:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.flow.cli", str(target),
             "--format", fmt],
            capture_output=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode in (EXIT_CLEAN, EXIT_FINDINGS), proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("fmt", ["json", "sarif"])
    def test_fixture_findings_identical_across_seeds(self, fmt):
        first = self._run("1", fmt, FIXTURES)
        second = self._run("2", fmt, FIXTURES)
        assert first == second
        assert first  # non-empty: the fixture tree has findings to order

    def test_src_tree_report_identical_across_seeds(self):
        first = self._run("1", "json", SRC / "repro")
        second = self._run("2", "json", SRC / "repro")
        assert first == second
