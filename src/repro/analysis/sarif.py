"""SARIF 2.1.0 serialization for ``repro-analyze``.

Output is canonical: findings pre-sorted by the caller's
``Finding`` ordering, keys sorted, URIs repo-relative where possible —
``json.dumps`` of the result is byte-stable across runs and hash seeds.
"""

from __future__ import annotations

import json
from pathlib import PurePath

from repro.analysis.findings import Finding

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"


def _uri(path: str) -> str:
    """Forward-slash, relative-looking URI for one finding path."""
    pure = PurePath(path)
    text = pure.as_posix()
    return text.lstrip("/") if pure.is_absolute() else text


def to_sarif(
    findings: list[Finding],
    tool_name: str,
    rules: list[dict],
    information_uri: str = "https://github.com/repro/repro",
) -> dict:
    """Build a SARIF log dict.

    Parameters
    ----------
    findings:
        Already-sorted findings.
    tool_name:
        The driver name (``repro-analyze``).
    rules:
        Rule metadata dicts with ``id``, ``name`` and ``summary`` keys,
        in rule-id order.
    """
    driver_rules = [
        {
            "id": rule["id"],
            "name": rule["name"],
            "shortDescription": {"text": rule["summary"]},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _uri(finding.path)},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": information_uri,
                        "rules": driver_rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: list[Finding],
    tool_name: str,
    rules: list[dict],
) -> str:
    """Canonical SARIF text (sorted keys, 2-space indent, no trailing ws)."""
    return json.dumps(
        to_sarif(findings, tool_name, rules), indent=2, sort_keys=True
    )
