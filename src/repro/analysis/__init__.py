"""Static analysis for the reproduction's correctness invariants.

The test suite can only spot-check the two claims everything rests on —
all six parallel algorithms return itemsets identical to sequential
Cumulate, and the shared-nothing simulator is bit-for-bit deterministic
run-to-run.  This package enforces the *coding* invariants behind those
claims at review time with one stdlib-``ast`` analyzer,
``repro-analyze``:

* :mod:`repro.analysis.flow` — the analyzer: a project-wide symbol
  table, the whole-program passes (RA000–RA005), the orchestration and
  the console entry point;
* :mod:`repro.analysis.rules` — the per-module rules (RL001–RL013),
  run over each module the analyzer parsed;
* :mod:`repro.analysis.engine` — file discovery and suppression
  comments.

The analyzer's static view is cross-checked at runtime by
:mod:`repro.cluster.invariants`, which validates message conservation
and candidate-memory accounting at every pass boundary when enabled.

See ``docs/static_analysis.md`` for the rule catalogue and the
suppression syntax.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES, rule_catalog

__all__ = [
    "ALL_RULES",
    "Finding",
    "rule_catalog",
]
