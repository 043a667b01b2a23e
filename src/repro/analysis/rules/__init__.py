"""Rule registry.

``ALL_RULES`` lists one instance of every per-module rule, in rule-id
order; the analyzer and its rule catalogue consume the registry, never
the classes directly, so new rules only need to be added here.
"""

from __future__ import annotations

from repro.analysis.rules.async_rules import UntimedAwaitRule
from repro.analysis.rules.base import Rule
from repro.analysis.rules.caches import UnboundedCacheRule
from repro.analysis.rules.determinism import (
    FloatEqualityRule,
    UnorderedIterationRule,
    WallClockRule,
)
from repro.analysis.rules.hygiene import BroadExceptRule, MutableDefaultRule
from repro.analysis.rules.protocol import SimulatorProtocolRule
from repro.analysis.rules.publish_rules import TornPublishRule
from repro.analysis.rules.requests import RequestSpanRule
from repro.analysis.rules.retry import UnboundedRetryRule
from repro.analysis.rules.spans import SpanDisciplineRule
from repro.analysis.rules.store_rules import StoreMaterializeRule

ALL_RULES: tuple[Rule, ...] = (
    UnorderedIterationRule(),
    WallClockRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    BroadExceptRule(),
    SimulatorProtocolRule(),
    SpanDisciplineRule(),
    UnboundedRetryRule(),
    UnboundedCacheRule(),
    RequestSpanRule(),
    StoreMaterializeRule(),
    UntimedAwaitRule(),
    TornPublishRule(),
)


def rule_catalog() -> dict[str, Rule]:
    """Rule id → rule instance."""
    return {rule.rule_id: rule for rule in ALL_RULES}


__all__ = ["ALL_RULES", "Rule", "rule_catalog"]
