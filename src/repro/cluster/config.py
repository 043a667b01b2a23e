"""Cluster configuration.

Memory is budgeted in *candidate slots* rather than raw bytes: the unit
of allocation in every algorithm is one candidate itemset (itemset +
support counter + hash-table bookkeeping), so a slot budget states the
paper's constraint — "the size of the candidate itemsets is larger than
the size of local memory of a single node but smaller than the sum of
the memory space of all the nodes" — directly.  ``candidate_bytes``
converts slots to bytes for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.cost import CostModel
from repro.errors import ClusterError
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated shared-nothing machine.

    Attributes
    ----------
    num_nodes:
        Number of nodes (the paper uses 4–16).
    memory_per_node:
        Candidate slots available per node.  ``None`` means unbounded —
        useful for correctness tests where memory pressure is noise.
    candidate_bytes:
        Bytes per stored candidate (for byte-denominated reporting).
    item_bytes:
        Wire size of one item id.
    message_header_bytes:
        Fixed bytes per message on the wire.
    count_bytes:
        Wire size of one support counter (reduce phase).
    cost:
        The :class:`~repro.cluster.cost.CostModel` pricing counted work.
    strict_memory:
        When True, a candidate partition that exceeds a node's budget
        raises :class:`~repro.errors.MemoryBudgetError`; when False (the
        default) the overflow is recorded in the pass statistics, which
        matches the paper's reading (placement skew degrades, it does
        not abort).
    check_invariants:
        When True, every ``finish_pass`` runs the runtime invariant
        checker (:mod:`repro.cluster.invariants`): message conservation,
        statistics/network cross-checks, and the candidate-memory bound.
        Off by default — the skew experiments deliberately record
        memory overflow.
    executor:
        How per-node scan work is executed on the *host*: ``"serial"``
        (inline, the default) or ``"process"`` (a process pool mapping
        simulated nodes onto host cores).  Purely a wall-clock choice —
        results, statistics and telemetry are byte-identical (see
        :mod:`repro.perf.executor`).
    workers:
        Host processes for the ``process`` executor; ``None`` means one
        per available CPU.  Ignored by the serial executor.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  When set, the
        cluster builds a :class:`~repro.faults.recovery.FaultController`
        that injects the plan's seeded crashes, stalls and message
        faults and charges all recovery work to the ``fault_*``
        counters.  ``None`` (the default) leaves the simulator's
        behaviour — results, statistics, traces and sinks —
        byte-identical to a machine without a fault layer.
    """

    num_nodes: int = 16
    memory_per_node: int | None = 4096
    candidate_bytes: int = 32
    item_bytes: int = 4
    message_header_bytes: int = 8
    count_bytes: int = 8
    cost: CostModel = field(default_factory=CostModel)
    strict_memory: bool = False
    check_invariants: bool = False
    executor: str = "serial"
    workers: int | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ClusterError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.memory_per_node is not None and self.memory_per_node <= 0:
            raise ClusterError("memory_per_node must be positive or None")
        for name in ("candidate_bytes", "item_bytes", "message_header_bytes", "count_bytes"):
            if getattr(self, name) <= 0:
                raise ClusterError(f"{name} must be positive")
        if self.executor not in ("serial", "process"):
            raise ClusterError(
                f"unknown executor {self.executor!r}; known: serial, process"
            )
        if self.workers is not None and self.workers <= 0:
            raise ClusterError("workers must be positive or None")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ClusterError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )

    @property
    def total_memory(self) -> int | None:
        """Aggregate candidate capacity of the machine (None if unbounded)."""
        if self.memory_per_node is None:
            return None
        return self.memory_per_node * self.num_nodes

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Same machine with a different node count (speedup sweeps)."""
        return replace(self, num_nodes=num_nodes)

    def with_memory(self, memory_per_node: int | None) -> "ClusterConfig":
        """Same machine with a different per-node memory budget."""
        return replace(self, memory_per_node=memory_per_node)

    @classmethod
    def sp2_like(
        cls,
        num_nodes: int = 16,
        memory_per_node: int | None = 4096,
    ) -> "ClusterConfig":
        """A 16-node SP-2-flavoured preset (defaults of the experiments)."""
        return cls(num_nodes=num_nodes, memory_per_node=memory_per_node)
