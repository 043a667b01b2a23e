"""Whole-program flow analysis and the ``repro-analyze`` entry point.

Besides running the per-module rules of :mod:`repro.analysis.rules`
over every parsed module, this package analyses the project as a unit:

* **Pass A** (:mod:`.symbols`) builds a project-wide symbol table and
  call graph;
* **Pass B** (:mod:`.taint`) is a flow-sensitive determinism taint
  analysis — unordered-origin values tracked across function
  boundaries to emission sinks;
* **Pass C** (:mod:`.poolsafety`) proves every callable crossing the
  ``ProcessPoolExecutor`` boundary picklable and free of shared-state
  access;
* **Pass D** (:mod:`.protocol`) checks each miner's extracted
  ``begin_pass``/``send``/``drain``/``finish_pass`` call sequence
  against its declared state machine.

Findings reuse :class:`repro.analysis.findings.Finding` and the
suppression machinery (marker ``# repro-analyze:``); output formats are
text, JSON and SARIF (:mod:`repro.analysis.sarif`).
"""

from __future__ import annotations

from repro.analysis.flow.engine import (
    FLOW_RULES,
    RULES,
    AnalysisResult,
    analyze_paths,
)
from repro.analysis.flow.symbols import Project

__all__ = [
    "FLOW_RULES",
    "RULES",
    "AnalysisResult",
    "Project",
    "analyze_paths",
]
