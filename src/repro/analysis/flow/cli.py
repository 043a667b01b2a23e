"""``repro-analyze`` — the repository's static analyzer CLI.

Runs the whole-program rules (RA000–RA005) and the per-module rules
(RL001–RL013) in one pass over one parse of each file.

Usage::

    repro-analyze src/repro                       # human-readable report
    repro-analyze src/ --format json              # machine-readable (CI)
    repro-analyze src/ --format sarif             # GitHub code scanning
    repro-analyze src/ --select RA001,RL001       # only some rules
    repro-analyze src/ --baseline analysis-baseline.json
    repro-analyze src/ --write-baseline analysis-baseline.json
    repro-analyze --list-rules                    # rule catalogue

Exit codes: **0** clean (or all findings baselined), **1** new
findings, **2** bad invocation (unknown rule id, missing path,
malformed baseline) — distinct from "findings present" so CI can tell
a broken gate from a failing one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.flow.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.flow.engine import RULES, AnalysisResult, analyze_paths
from repro.analysis.sarif import render_sarif

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "static analysis: determinism taint, process-pool safety and "
            "miner protocol conformance across modules, plus per-module "
            "determinism and invariant rules"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run exclusively (e.g. RA001,RL006)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="reviewed baseline; matching findings do not fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _parse_rule_list(raw: str | None, known: set[str]) -> set[str] | None:
    if raw is None:
        return None
    rules = {piece.strip() for piece in raw.split(",") if piece.strip()}
    unknown = rules - known
    if unknown:
        raise SystemExit(
            f"repro-analyze: unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return rules


def _render_text(
    result: AnalysisResult, baselined: int, stale: list[tuple[str, str, str]]
) -> str:
    lines = [finding.render() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    summary = (
        f"{len(result.findings)} {noun} in {result.files_checked} files "
        f"({result.suppressed} suppressed, {baselined} baselined); "
        f"{len(result.miners_checked)} miners, "
        f"{result.boundaries_checked} pool boundaries checked"
    )
    lines.append(summary)
    for path, rule, message in stale:
        lines.append(
            f"stale baseline entry: {path}: {rule} {message} (no longer occurs)"
        )
    return "\n".join(lines)


def _render_json(
    result: AnalysisResult, baselined: int, stale: list[tuple[str, str, str]]
) -> str:
    return json.dumps(
        {
            "version": 1,
            "findings": [finding.to_json() for finding in result.findings],
            "summary": {
                "baselined": baselined,
                "boundaries_checked": result.boundaries_checked,
                "files_checked": result.files_checked,
                "findings": len(result.findings),
                "miners_checked": result.miners_checked,
                "stale_baseline_entries": [
                    {"path": path, "rule": rule, "message": message}
                    for path, rule, message in stale
                ],
                "suppressed": result.suppressed,
            },
        },
        indent=2,
        sort_keys=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule['id']}  {rule['name']:<22} {rule['summary']}")
        return EXIT_CLEAN

    known = {rule["id"] for rule in RULES}
    try:
        select = _parse_rule_list(args.select, known)
        ignore = _parse_rule_list(args.ignore, known)
    except SystemExit as error:
        print(error, file=sys.stderr)
        return EXIT_USAGE

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-analyze: no such path: {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    result = analyze_paths(
        paths, select=select, ignore=ignore, display_root=Path.cwd()
    )

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), result.findings)
        print(
            f"repro-analyze: wrote {len(result.findings)} baseline entries "
            f"to {args.write_baseline}"
        )
        return EXIT_CLEAN

    baselined = 0
    stale: list[tuple[str, str, str]] = []
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except BaselineError as error:
            print(f"repro-analyze: {error}", file=sys.stderr)
            return EXIT_USAGE
        result.findings, baselined, stale = apply_baseline(
            result.findings, baseline
        )

    if args.format == "json":
        output = _render_json(result, baselined, stale)
    elif args.format == "sarif":
        output = render_sarif(result.findings, "repro-analyze", RULES)
    else:
        output = _render_text(result, baselined, stale)
    print(output)
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
