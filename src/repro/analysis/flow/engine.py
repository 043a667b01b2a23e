"""Analyzer orchestration: build the project, run the passes, filter.

``analyze_paths`` is the workhorse shared by the CLI and the tests: it
expands the given roots into a sorted file list, builds the Pass A
:class:`~repro.analysis.flow.symbols.Project`, runs the three
whole-program checking passes and then the per-module rules of
:mod:`repro.analysis.rules` over each parsed module (all filtered by
``--select``/``--ignore``), and applies inline suppressions (marker
``# repro-analyze:`` — see :mod:`repro.analysis.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.engine import Suppressions, iter_python_files
from repro.analysis.findings import Finding
from repro.analysis.flow.poolsafety import analyze_pool_safety
from repro.analysis.flow.protocol import analyze_protocol
from repro.analysis.flow.symbols import Project
from repro.analysis.flow.taint import analyze_taint
from repro.analysis.rules import ALL_RULES

#: The whole-program rules, in id order.
FLOW_RULES: list[dict] = [
    {
        "id": "RA000",
        "name": "syntax-error",
        "summary": "file does not parse (reported, never crashes the run)",
    },
    {
        "id": "RA001",
        "name": "determinism-taint",
        "summary": "unordered-origin value reaches an emission sink "
        "(send payload, trace/event record, digest, serialized bytes, "
        "NodeStats), tracked across function boundaries",
    },
    {
        "id": "RA002",
        "name": "pool-unpicklable",
        "summary": "callable crossing the process-pool boundary is not a "
        "module-level function (or raw executor use outside "
        "repro.perf.executor)",
    },
    {
        "id": "RA003",
        "name": "pool-impure",
        "summary": "pool worker (or a helper it reaches) touches "
        "module-level mutable state instead of its arguments",
    },
    {
        "id": "RA004",
        "name": "protocol-spec",
        "summary": "miner lacks a declared pass_protocol state machine "
        "(or the declaration is not a literal token tuple)",
    },
    {
        "id": "RA005",
        "name": "protocol-violation",
        "summary": "extracted begin_pass/send/drain/finish_pass sequence "
        "does not conform to the miner's declared state machine",
    },
]


#: The one rule catalogue, in id order: the whole-program rules, then
#: the per-module rules.  The CLI (``--list-rules``, ``--select`` and
#: ``--ignore``), the SARIF driver and the docs table all read it.
RULES: list[dict] = FLOW_RULES + [
    {"id": rule.rule_id, "name": rule.name, "summary": rule.summary}
    for rule in ALL_RULES
]


@dataclass
class AnalysisResult:
    """Outcome of one whole-program analysis."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Paper-algorithm classes validated by the protocol pass.
    miners_checked: list[str] = field(default_factory=list)
    #: Executor-boundary call sites seen by the pool-safety pass.
    boundaries_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _enabled(rule_id: str, select: set[str] | None, ignore: set[str] | None) -> bool:
    if select is not None and rule_id not in select:
        return False
    if ignore is not None and rule_id in ignore:
        return False
    return True


def analyze_paths(
    paths: list[Path],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    display_root: Path | None = None,
) -> AnalysisResult:
    """Analyze files and directories; the CLI's workhorse.

    Parameters
    ----------
    paths:
        Files or directories; expanded, sorted and de-duplicated.
    select / ignore:
        Rule-id filters (already validated by the caller).
    display_root:
        When given, finding paths are rendered relative to it (the CLI
        passes the current directory so output is location-independent).
    """
    files = iter_python_files(paths)
    display_paths: dict[Path, str] = {}
    if display_root is not None:
        for file_path in files:
            try:
                display_paths[file_path] = str(
                    file_path.resolve().relative_to(display_root.resolve())
                )
            except ValueError:
                display_paths[file_path] = str(file_path)

    project = Project.build(files, display_paths=display_paths)
    result = AnalysisResult(files_checked=len(files))

    raw: list[Finding] = []
    # No rule can read a file that does not parse, so ``select`` never
    # hides RA000: a selective run is not clean over an unread file.
    if ignore is None or "RA000" not in ignore:
        for shown in sorted(project.parse_errors):
            error = project.parse_errors[shown]
            raw.append(
                Finding(
                    path=shown,
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                    rule="RA000",
                    message=f"file does not parse: {error.msg}",
                )
            )

    if _enabled("RA001", select, ignore):
        raw.extend(analyze_taint(project))

    if _enabled("RA002", select, ignore) or _enabled("RA003", select, ignore):
        pool_findings, boundaries = analyze_pool_safety(project)
        raw.extend(
            f for f in pool_findings if _enabled(f.rule, select, ignore)
        )
        result.boundaries_checked = boundaries

    if _enabled("RA004", select, ignore) or _enabled("RA005", select, ignore):
        protocol_findings, miners = analyze_protocol(project)
        raw.extend(
            f for f in protocol_findings if _enabled(f.rule, select, ignore)
        )
        result.miners_checked = miners

    # Per-module rules, over the contexts Pass A already parsed.
    module_rules = [
        rule for rule in ALL_RULES if _enabled(rule.rule_id, select, ignore)
    ]
    for shown in sorted(project.contexts):
        for rule in module_rules:
            raw.extend(rule.check(project.contexts[shown]))

    suppressions = {
        shown: Suppressions.parse(ctx.lines)
        for shown, ctx in project.contexts.items()
    }
    kept: list[Finding] = []
    for finding in raw:
        supp = suppressions.get(finding.path)
        if supp is not None and not supp.allows(finding):
            result.suppressed += 1
        else:
            kept.append(finding)
    result.findings = sorted(set(kept))
    return result
