"""Rule interface: every rule inspects one :class:`ModuleContext`."""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding


class Rule(ABC):
    """One per-module rule.

    Attributes
    ----------
    rule_id:
        Stable identifier (``RL001`` … ``RL013``) used in output,
        ``--select``/``--ignore`` and suppression comments.
    name:
        Short kebab-case name for ``--list-rules``.
    summary:
        One-line description of what the rule enforces.
    """

    rule_id: str = ""
    name: str = "abstract"
    summary: str = ""

    @abstractmethod
    def check(self, ctx: ModuleContext) -> list[Finding]:
        """All violations of this rule in one file."""

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )
