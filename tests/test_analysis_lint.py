"""The per-module rules (RL001–RL013) as ``repro-analyze`` runs them:
rule fixtures, suppressions, CLI, and the self-check that the shipped
tree is clean.

Each fixture under ``tests/fixtures/lint/`` tags its violation lines
with ``# expect: RLxxx`` trailing comments; the tests assert that the
per-module rules fire on exactly those (rule, line) pairs — no misses,
no extras.  What the whole-program rules find in the same fixtures is
pinned separately (:meth:`TestRuleFixtures.test_whole_program_findings`).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, rule_catalog
from repro.analysis.context import infer_module_name
from repro.analysis.engine import Suppressions
from repro.analysis.flow import RULES, analyze_paths
from repro.analysis.flow.cli import main as analyze_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)")

#: The per-module rule ids, for ``select=``.
RL_IDS = {rule.rule_id for rule in ALL_RULES}


def expected_findings(path: Path) -> set[tuple[str, int]]:
    """(rule, line) pairs declared by a fixture's ``# expect:`` tags."""
    expected: set[tuple[str, int]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            for rule in match.group(1).split(","):
                expected.add((rule.strip(), lineno))
    return expected


def findings(path: Path, **filters):
    return analyze_paths([path], **filters).findings


FIXTURE_FILES = sorted(FIXTURES.glob("rl*.py"))


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "fixture", FIXTURE_FILES, ids=[p.stem for p in FIXTURE_FILES]
    )
    def test_fixture_findings_match_expectations(self, fixture):
        expected = expected_findings(fixture)
        assert expected, f"{fixture.name} declares no `# expect:` tags"
        actual = {(f.rule, f.line) for f in findings(fixture, select=RL_IDS)}
        assert actual == expected

    def test_whole_program_findings(self):
        """With every rule on, only RL001's send-in-loop case is also an
        RA001 finding: RA001 proves none of RL001's other three cases."""
        extra = set()
        for fixture in FIXTURE_FILES:
            own = expected_findings(fixture)
            extra |= {
                (fixture.name, f.rule, f.line)
                for f in findings(fixture)
                if (f.rule, f.line) not in own
            }
        assert extra == {("rl001_unordered_iteration.py", "RA001", 11)}

    def test_every_rule_has_a_fixture(self):
        covered = {fixture.stem[:5].upper() for fixture in FIXTURE_FILES}
        assert covered == RL_IDS

    def test_findings_carry_file_and_position(self):
        found = findings(FIXTURES / "rl004_mutable_default.py")
        assert found
        for finding in found:
            assert finding.path.endswith("rl004_mutable_default.py")
            assert finding.line > 0 and finding.column > 0
            assert finding.rule == "RL004"


class TestSuppressions:
    def test_suppressed_fixture_is_clean(self):
        assert findings(FIXTURES / "suppressed.py") == []

    def test_suppressed_findings_are_counted(self):
        assert analyze_paths([FIXTURES / "suppressed.py"]).suppressed == 3

    def test_unsuppressed_twin_fires(self, tmp_path):
        source = (FIXTURES / "suppressed.py").read_text()
        stripped = tmp_path / "suppressed.py"
        stripped.write_text(
            re.sub(r"#\s*repro-analyze:\s*disable[^\n]*", "", source)
        )
        assert {f.rule for f in findings(stripped)} == {"RL001", "RL002", "RL003"}

    def test_parse_forms(self):
        supp = Suppressions.parse(
            [
                "x = 1  # repro-analyze: disable=RL001",
                "# repro-analyze: disable=RL002, RA001 — justification",
                "# continued justification",
                "y = 2",
                "# repro-analyze: disable-file=RL005",
            ]
        )
        assert supp.by_line[1] == {"RL001"}
        assert supp.by_line[4] == {"RL002", "RA001"}
        assert supp.whole_file == {"RL005"}


class TestEngine:
    def test_syntax_error_becomes_ra000(self, tmp_path):
        """An unparsable file is one RA000 finding, and the per-module
        rules still run over the files that parse."""
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "defaults.py").write_text("def f(x=[]):\n    return x\n")
        found = findings(tmp_path)
        assert [(Path(f.path).name, f.rule) for f in found] == [
            ("broken.py", "RA000"),
            ("defaults.py", "RL004"),
        ]
        # Selecting rules never hides the file no rule could read.
        assert [f.rule for f in findings(tmp_path, select={"RL001"})] == ["RA000"]

    def test_files_sharing_a_module_name_are_all_checked(self, tmp_path):
        """Outside the package tree a module name is the file stem, so two
        ``tool.py`` collide in the symbol table; both are still checked."""
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
            source = tmp_path / directory / "tool.py"
            source.write_text("def f(x=[]):\n    return x\n")
        assert [f.rule for f in findings(tmp_path)] == ["RL004", "RL004"]

    def test_module_name_inference(self):
        assert (
            infer_module_name(Path("src/repro/parallel/hhpgm.py"))
            == "repro.parallel.hhpgm"
        )
        assert infer_module_name(Path("src/repro/cluster/__init__.py")) == (
            "repro.cluster"
        )
        assert infer_module_name(Path("elsewhere/tool.py")) == "tool"

    def test_select_and_ignore(self):
        fixture = FIXTURES / "rl002_wall_clock.py"
        assert {f.rule for f in findings(fixture, select={"RL002"})} == {"RL002"}
        assert analyze_paths([fixture], ignore={"RL002"}).clean

    def test_rule_catalog_is_complete(self):
        catalog = rule_catalog()
        assert sorted(catalog) == [f"RL00{i}" for i in range(1, 10)] + [
            "RL010",
            "RL011",
            "RL012",
            "RL013",
        ]
        for rule in catalog.values():
            assert rule.summary


class TestSelfCheck:
    """The acceptance gate: the shipped tree is clean under the per-module rules."""

    def test_src_tree_is_clean(self):
        result = analyze_paths([SRC], select=RL_IDS)
        assert result.clean, "\n".join(f.render() for f in result.findings)
        assert result.files_checked > 50

    def test_suppression_budget(self):
        """At most 4 inline suppressions of per-module rules, each justified.

        The analyzer's own package is excluded: its docstrings document
        the suppression syntax without being suppressions.  (The fourth
        slot is the deliberate RL011 materialized-RSS baseline in
        ``repro.perf.scale``.)
        """
        analysis_pkg = SRC / "repro" / "analysis"
        justified = 0
        for path in SRC.rglob("*.py"):
            if analysis_pkg in path.parents:
                continue
            for line in path.read_text().splitlines():
                if "repro-analyze: disable" in line and re.search(r"RL\d{3}", line):
                    justified += 1
                    assert "—" in line or "because" in line.lower(), (
                        f"unjustified suppression in {path}: {line.strip()}"
                    )
        assert justified <= 4


class TestCli:
    def test_text_output_and_exit_code(self, capsys):
        code = analyze_main([str(FIXTURES / "rl005_broad_except.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL005" in out and "rl005_broad_except.py" in out
        assert re.search(r"rl005_broad_except\.py:\d+:\d+: RL005 ", out)

    def test_json_output(self, capsys):
        code = analyze_main(
            [str(FIXTURES / "rl003_float_equality.py"), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["summary"]["findings"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert finding["rule"] == "RL003"
            assert finding["line"] > 0

    def test_sarif_output(self, capsys):
        """One SARIF driver carries both rule families."""
        code = analyze_main(
            [str(FIXTURES / "rl003_float_equality.py"), "--format", "sarif"]
        )
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        assert [rule["id"] for rule in run["tool"]["driver"]["rules"]] == [
            rule["id"] for rule in RULES
        ]
        assert RL_IDS < {rule["id"] for rule in RULES}
        assert run["results"]
        for item in run["results"]:
            assert item["ruleId"] == "RL003"

    def test_clean_run_exits_zero(self, capsys):
        code = analyze_main([str(FIXTURES / "suppressed.py")])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert analyze_main([str(FIXTURES), "--select", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert analyze_main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_console_entry_point_runs(self):
        """`python -m repro.analysis.flow.cli` works as the script target."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.flow.cli", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "RL001" in proc.stdout and "RA001" in proc.stdout
