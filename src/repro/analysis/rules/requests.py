"""RL010 — request-span close discipline on the serving path.

Request traces (:mod:`repro.obs.requests`) power the serve tier's SLO
accounting: a :class:`RequestContext` opened with ``begin_request`` (or
a raw ``open_span``) that never reaches ``finish_request`` /
``fail_request`` silently drops a request from the latency histograms
and the error-rate denominator — the SLO report lies.  The safe idioms
are the ``tracer.request()`` context manager and ``try``/``finally``.

Scoped to modules under ``repro.serve`` and ``repro.obs`` (the request
path); elsewhere RL007 already covers the telemetry span stack.  A
begin call is accepted when one of these demonstrably closes it:

* the call sits in a ``with`` item (a context manager owns the close);
* a later statement in the same (or an enclosing) suite closes
  unconditionally — a top-level ``finish_request``/``fail_request``/
  ``close_span``-family call, or a ``try`` whose ``finally`` closes;
* the call sits inside a ``try`` body whose ``finally`` closes.

Anything else — a close only in an ``except`` arm, only behind an
``if``, or in no local path at all — is flagged.  Hand-off designs
(e.g. a context that rides the batching queue to a worker that closes
it) are legitimate but must carry a ``# repro-analyze: disable=RL010``
justification.
"""

from __future__ import annotations

import ast

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

#: Only the request path is in scope; the mining telemetry has RL007.
REQUEST_PACKAGES: tuple[str, ...] = ("repro.serve", "repro.obs")

#: Calls that open a request trace / span.
_BEGIN_NAMES = frozenset({"begin_request", "open_span"})

_NEW_SCOPE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return ""


def _is_begin(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _call_name(node) in _BEGIN_NAMES


def _is_closer(node: ast.AST) -> bool:
    """``finish_request`` / ``fail_request`` / ``close_span`` family —
    helpers count (``_close_node_span``, ``_finish_abandoned_request``)."""
    if not isinstance(node, ast.Call):
        return False
    name = _call_name(node).lower()
    verb = "finish" in name or "fail" in name or "close" in name
    noun = "request" in name or "span" in name
    return verb and noun


def _expression_nodes(stmt: ast.stmt):
    """The statement's own expression subtree: child statements (their
    suites are separate levels) and nested functions are not descended."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, *_NEW_SCOPE)):
                continue
            stack.append(child)


def _with_guarded(stmt: ast.stmt) -> set[int]:
    """ids of nodes under a ``with`` item expression of ``stmt``."""
    guarded: set[int] = set()
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            for node in ast.walk(item.context_expr):
                guarded.add(id(node))
    return guarded


def _closes_in_finally(try_stmt: ast.Try) -> bool:
    return any(
        _is_closer(node)
        for stmt in try_stmt.finalbody
        for node in ast.walk(stmt)
    )


def _statement_closes(stmt: ast.stmt) -> bool:
    """Does this sibling unconditionally close?  Either a closer in its
    own expression subtree, or a ``try`` whose ``finally`` closes."""
    if isinstance(stmt, ast.Try) and _closes_in_finally(stmt):
        return True
    return any(_is_closer(node) for node in _expression_nodes(stmt))


class RequestSpanRule(Rule):
    """RL010 — request spans must close via context manager or finally."""

    rule_id = "RL010"
    name = "request-span-close"
    summary = (
        "begin_request/open_span on the serve path must close via a "
        "context manager, a finally, or an unconditional follow-up close"
    )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        if not ctx.in_packages(REQUEST_PACKAGES):
            return []
        findings: list[Finding] = []
        self._visit_suite(ctx, ctx.tree.body, [], findings)
        return findings

    def _visit_suite(
        self,
        ctx: ModuleContext,
        suite: list[ast.stmt],
        ancestors: list[tuple[list[ast.stmt], int, str]],
        findings: list[Finding],
    ) -> None:
        """``ancestors`` is the path here, outermost first: each entry
        ``(suite, index, role)`` names a statement and the field of it
        (``body``/``orelse``/``finalbody``/``handler``) the next level
        occupies."""
        for index, stmt in enumerate(suite):
            guarded = _with_guarded(stmt)
            for node in _expression_nodes(stmt):
                if _is_begin(node) and id(node) not in guarded:
                    levels = ancestors + [(suite, index, "")]
                    if not _protected(levels):
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"{_call_name(node)} on the request path "
                                "without a guaranteed close: use the "
                                "request()/span() context managers or close "
                                "in a finally",
                            )
                        )
            if isinstance(stmt, _NEW_SCOPE[:2]):
                # New scope: close obligations cannot bubble past it.
                self._visit_suite(ctx, stmt.body, [], findings)
                continue
            for role in ("body", "orelse", "finalbody"):
                child_suite = getattr(stmt, role, None)
                if child_suite:
                    self._visit_suite(
                        ctx,
                        child_suite,
                        ancestors + [(suite, index, role)],
                        findings,
                    )
            for handler in getattr(stmt, "handlers", []) or []:
                self._visit_suite(
                    ctx,
                    handler.body,
                    ancestors + [(suite, index, "handler")],
                    findings,
                )


def _protected(levels: list[tuple[list[ast.stmt], int, str]]) -> bool:
    """Walk outward from the begin call's statement: a later sibling
    that unconditionally closes (at any enclosing level) or an enclosing
    ``try`` *body* whose ``finally`` closes protects the call."""
    for suite, index, role in reversed(levels):
        if any(_statement_closes(sibling) for sibling in suite[index + 1 :]):
            return True
        owner = suite[index]
        if (
            role == "body"
            and isinstance(owner, ast.Try)
            and _closes_in_finally(owner)
        ):
            return True
    return False
