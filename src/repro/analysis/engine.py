"""Analyzer plumbing: file discovery and suppression comments.

Suppression syntax (see ``docs/static_analysis.md``), one marker for
every rule:

* ``some_code()  # repro-analyze: disable=RL001`` — suppresses the
  listed rule(s) on that line; a justification after the rule list is
  encouraged and ignored by the parser.
* a comment-only line ``# repro-analyze: disable=RA001 — why``
  suppresses the listed rules on the *next* code line (for statements
  too long to carry the comment).
* ``# repro-analyze: disable-file=RL003`` anywhere in the first 20
  lines suppresses the rule for the whole file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding

_DISABLE = re.compile(
    r"#\s*repro-analyze:\s*disable(?P<file>-file)?\s*=\s*"
    r"(?P<rules>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
)


@dataclass
class Suppressions:
    """Parsed suppression comments of one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, lines: list[str]) -> "Suppressions":
        supp = cls()
        for lineno, text in enumerate(lines, start=1):
            match = _DISABLE.search(text)
            if not match:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            if match.group("file"):
                if lineno <= 20:
                    supp.whole_file |= rules
                continue
            target = lineno
            if text.lstrip().startswith("#"):
                # Comment-only line: applies to the next code line, so a
                # justification may span several comment lines.
                target = lineno + 1
                while target <= len(lines) and (
                    not lines[target - 1].strip()
                    or lines[target - 1].lstrip().startswith("#")
                ):
                    target += 1
            supp.by_line.setdefault(target, set()).update(rules)
        return supp

    def allows(self, finding: Finding) -> bool:
        """True when the finding survives (is NOT suppressed)."""
        if finding.rule in self.whole_file:
            return False
        return finding.rule not in self.by_line.get(finding.line, set())


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)
