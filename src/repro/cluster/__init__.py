"""Shared-nothing cluster simulator — the repo's IBM SP-2 substitute.

The paper runs on a 16-node IBM SP-2 (POWER2 CPUs, 256 MB RAM and a
2 GB local disk per node, HPS interconnect).  This subpackage builds the
equivalent substrate as a deterministic simulator:

* :class:`~repro.cluster.config.ClusterConfig` — node count, per-node
  candidate memory budget, wire/record sizes, cost coefficients.
* :class:`~repro.cluster.disk.LocalDisk` — each node's transaction
  partition with read-volume and scan-count accounting.
* :class:`~repro.cluster.network.Network` — point-to-point mailboxes
  with exact per-node byte/message accounting (what Table 6 reports).
* :class:`~repro.cluster.node.Node` — per-node counters and memory
  checks.
* :class:`~repro.cluster.machine.Cluster` — wires the above together
  and aggregates per-pass statistics.
* :mod:`~repro.cluster.invariants` — optional pass-boundary runtime
  checks (message conservation, stats/network cross-checks, memory
  bound); the dynamic counterpart of the ``repro-analyze`` static rules.
* :class:`~repro.cluster.cost.CostModel` — converts counted work (I/O
  items, hash probes, bytes moved) into a simulated wall-clock time per
  pass: the bulk-synchronous maximum over nodes plus the coordinator's
  reduce/broadcast.  Only the *constants* are SP-2-flavoured; every
  relative result (who wins, crossovers, skew, speedup shape) follows
  from the counted quantities alone.

Why simulate instead of mpi4py: the paper's conclusions are about
relative communication volume and load balance.  A Python MPI port
would drown those signals in interpreter overhead; counting them
exactly and pricing them with a cost model preserves the phenomena the
paper measures (see DESIGN.md §2).
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.cost import CostModel
from repro.cluster.disk import LocalDisk
from repro.cluster.invariants import verify_pass_invariants
from repro.cluster.machine import Cluster
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.stats import NodeStats, PassStats, RunStats
from repro.cluster.trace import SimulationTrace, TraceEvent

__all__ = [
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "LocalDisk",
    "Network",
    "Node",
    "NodeStats",
    "PassStats",
    "RunStats",
    "SimulationTrace",
    "TraceEvent",
    "verify_pass_invariants",
]
