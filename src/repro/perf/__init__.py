"""Performance layer: metric-preserving fast kernels and multi-core execution.

The paper's contribution is *speed*; this package makes the
reproduction fast without changing anything the reproduction measures:

* :mod:`repro.perf.config` — :class:`CountingConfig`, the switch
  between the naive reference kernels and the fast ones (plus
  transaction deduplication), threaded through Cumulate and all six
  parallel miners.
* :mod:`repro.perf.kernels` — prefix-indexed candidate-trie counters
  that report **exactly** the probe/generated/count metrics of the
  naive kernels (the probe-preservation contract: probes are semantic —
  they feed Figure 15 and the cost model — so the fast kernels compute
  them in closed form while doing candidate-driven work).
* :mod:`repro.perf.preprocess` — distinct-transaction deduplication
  with multiplicity weights and memoized ancestor extension.
* :mod:`repro.perf.executor` — per-node execution backend: serial or a
  ``ProcessPoolExecutor`` over the simulated nodes with deterministic
  node-order merge (selected by ``ClusterConfig.executor``).
* :mod:`repro.perf.bench` — the ``repro-bench`` wall-clock trajectory
  harness; :mod:`repro.perf.history` — the one bench record format
  (``BENCH_<label>.json`` + ``HISTORY.jsonl``) every harness writes,
  and the ``repro-bench compare`` watchdog over it.

See ``docs/performance.md`` for the designs and the contract.
"""

from repro.perf.config import CountingConfig
from repro.perf.executor import execute_per_node
from repro.perf.kernels import (
    CandidateTrie,
    FastAncestorClosureCounter,
    FastRootKeyedClosureCounter,
    FastSupportCounter,
)
from repro.perf.preprocess import ExtensionCache, dedup_with_weights

__all__ = [
    "CandidateTrie",
    "CountingConfig",
    "ExtensionCache",
    "FastAncestorClosureCounter",
    "FastRootKeyedClosureCounter",
    "FastSupportCounter",
    "dedup_with_weights",
    "execute_per_node",
]
