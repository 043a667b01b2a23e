"""repro.serve — online serving of mined generalized rules.

The offline pipeline (mine → ``generate_rules`` → ``interesting_rules``)
ends in data structures; this package turns them into a service:

* :mod:`repro.serve.snapshot` — compile rules + taxonomy into an
  immutable, versioned, byte-stable snapshot with precomputed
  ancestor-closure keys, an antecedent inverted index, and antecedent
  bitmasks (no per-query taxonomy walks);
* :mod:`repro.serve.engine` — basket → matching rules + ranked
  consequent recommendations, with bounded LRU caches and a strict
  determinism contract;
* :mod:`repro.serve.batch` — micro-batching worker pool and atomic
  snapshot hot-swap under live traffic;
* :mod:`repro.serve.loadgen` — seeded workload replay and the
  direct-vs-batched benchmark record;
* :mod:`repro.serve.httpd` / :mod:`repro.serve.cli` — the stdlib HTTP
  endpoint and the ``repro-serve`` command.

See ``docs/serving.md`` for the end-to-end walkthrough.
"""

from repro.serve.batch import PendingQuery, ServeService
from repro.serve.cache import BoundedLRUCache
from repro.serve.engine import (
    SCORINGS,
    MatchedRule,
    QueryEngine,
    QueryResult,
    Recommendation,
)
from repro.serve.loadgen import generate_workload, run_loadgen
from repro.serve.rules_io import (
    read_rules_jsonl,
    rules_to_jsonl,
    write_rules_jsonl,
)
from repro.serve.snapshot import (
    RuleSnapshot,
    ServedRule,
    compile_snapshot,
    load_snapshot,
    parse_snapshot,
    write_snapshot,
)

__all__ = [
    "SCORINGS",
    "BoundedLRUCache",
    "MatchedRule",
    "PendingQuery",
    "QueryEngine",
    "QueryResult",
    "Recommendation",
    "RuleSnapshot",
    "ServeService",
    "ServedRule",
    "compile_snapshot",
    "generate_workload",
    "load_snapshot",
    "parse_snapshot",
    "read_rules_jsonl",
    "rules_to_jsonl",
    "run_loadgen",
    "write_rules_jsonl",
    "write_snapshot",
]
