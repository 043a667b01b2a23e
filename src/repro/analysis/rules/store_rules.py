"""RL011 — whole-store materialization.

:mod:`repro.store` exists so datasets larger than memory can be mined
from mmap-backed segments; one careless ``list(store)`` or
``store.to_list()`` silently re-creates the full in-memory database the
format was built to avoid, and nothing fails until the first dataset
that does not fit.  The contract is that production code *scans* stores
(iteration, :meth:`~repro.store.reader.TransactionStore.view`,
:class:`~repro.cluster.machine.Cluster.from_store`) and never
materializes them whole.

Flagged:

* ``anything.to_list()`` — ``to_list`` is the store family's explicit
  materialization escape hatch (:class:`TransactionStore`,
  :class:`StoreView`), documented as a test helper;
* ``list(...)`` / ``tuple(...)`` over a store-named operand (``store``,
  ``my_store``, ``self.store`` …) or directly over an
  ``open_store(...)`` / ``TransactionStore(...)`` call.

Test modules are exempt — equivalence tests compare store scans against
materialized rows by design — and deliberate baselines (e.g. the
``repro-bench scale`` RSS comparison) carry a justified inline
suppression.
"""

from __future__ import annotations

import ast

from repro.analysis.context import ModuleContext, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

#: Constructors/openers whose result is a store, whoever names it.
_STORE_PRODUCERS = frozenset({"open_store", "TransactionStore"})

#: Builtins that materialize their iterable argument in full.
_MATERIALIZERS = frozenset({"list", "tuple"})


def _names_a_store(node: ast.expr) -> bool:
    """Does this operand *read* as a store? (name-based heuristic)."""
    name = dotted_name(node)
    if name is not None:
        return "store" in name.rsplit(".", 1)[-1].lower()
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        return (
            callee is not None
            and callee.rsplit(".", 1)[-1] in _STORE_PRODUCERS
        )
    return False


def _is_test_module(module: str) -> bool:
    last = module.rsplit(".", 1)[-1]
    return (
        module.startswith("tests")
        or last.startswith("test_")
        or last == "conftest"
    )


class StoreMaterializeRule(Rule):
    """RL011 — never materialize a whole transaction store in memory.

    Flags ``.to_list()`` calls and ``list()``/``tuple()`` over
    store-shaped operands outside test modules.  Scan the store instead
    (iterate it, take a ``view``, or build a cluster with
    ``Cluster.from_store``).
    """

    rule_id = "RL011"
    name = "store-materialize"
    summary = (
        "transaction stores are scanned, not materialized "
        "(no .to_list()/list(store) outside tests)"
    )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        if _is_test_module(ctx.module):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(ctx, node)
            if finding is not None:
                findings.append(finding)
        findings.sort(key=lambda finding: (finding.line, finding.column))
        return findings

    # ------------------------------------------------------------------
    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Finding | None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "to_list"
            and not node.args
            and not node.keywords
        ):
            return self.finding(
                ctx,
                node,
                ".to_list() materializes the whole store; iterate it or "
                "take a .view() instead",
            )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _MATERIALIZERS
            and len(node.args) == 1
            and not node.keywords
            and _names_a_store(node.args[0])
        ):
            return self.finding(
                ctx,
                node,
                f"{node.func.id}() over a transaction store pulls every "
                "row into memory; scan the store instead",
            )
        return None
