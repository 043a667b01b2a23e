"""Runtime invariants of the shared-nothing simulator.

The static pass (:mod:`repro.analysis`, rule RL006) checks the
*protocol shape* at review time; this module checks the *accounting* at
run time.  When enabled, :meth:`repro.cluster.machine.Cluster.finish_pass`
verifies at every pass boundary:

* **message conservation** — every payload enqueued by
  ``Network.send`` was removed by exactly one ``Network.drain`` before
  the pass ended (no lost or double-drained messages);
* **statistics honesty** — the per-node ``messages_sent`` /
  ``messages_received`` / byte counters, which every reported number is
  derived from, sum to the network's own ground-truth tallies (catches
  an algorithm forgetting to pass ``stats`` into ``send``);
* **memory bound** — no node's ``candidates_stored`` exceeds
  ``memory_per_node``.

Enable via ``ClusterConfig(check_invariants=True)``.  Leave off for
the skew experiments that deliberately record candidate-memory
overflow (the paper's non-strict reading).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.errors import InvariantViolationError


def verify_pass_invariants(
    network: Network,
    nodes: Iterable[Node],
    memory_per_node: int | None,
    k: int,
    trace=None,
) -> None:
    """Raise :class:`InvariantViolationError` on any accounting breach.

    Called by ``Cluster.finish_pass`` after the undelivered-message
    check, so mailboxes are known to be empty; what remains is to prove
    the tallies agree.  When a trace/telemetry hook is given, the
    verdict is recorded as an ``invariants`` event (and thereby lands in
    an attached observability sink) before any failure is raised.
    """
    node_list = list(nodes)
    failures: list[str] = []

    if network.pass_sends != network.pass_drained:
        failures.append(
            f"message conservation: {network.pass_sends} sends but "
            f"{network.pass_drained} drained payloads"
        )

    stats_sent = sum(node.stats.messages_sent for node in node_list)
    stats_received = sum(node.stats.messages_received for node in node_list)
    if stats_sent != network.pass_sends:
        failures.append(
            f"stats cross-check: nodes recorded {stats_sent} messages_sent, "
            f"network performed {network.pass_sends} sends"
        )
    if stats_received != network.pass_sends:
        failures.append(
            f"stats cross-check: nodes recorded {stats_received} "
            f"messages_received, network performed {network.pass_sends} sends"
        )

    stats_bytes_sent = sum(node.stats.bytes_sent for node in node_list)
    stats_bytes_received = sum(node.stats.bytes_received for node in node_list)
    if stats_bytes_sent != network.pass_send_bytes:
        failures.append(
            f"stats cross-check: nodes recorded {stats_bytes_sent} bytes_sent, "
            f"network carried {network.pass_send_bytes} bytes"
        )
    if stats_bytes_received != network.pass_send_bytes:
        failures.append(
            f"stats cross-check: nodes recorded {stats_bytes_received} "
            f"bytes_received, network carried {network.pass_send_bytes} bytes"
        )

    if memory_per_node is not None:
        for node in node_list:
            if node.stats.candidates_stored > memory_per_node:
                failures.append(
                    f"memory bound: node {node.node_id} holds "
                    f"{node.stats.candidates_stored} candidates over the "
                    f"{memory_per_node}-slot budget"
                )

    if trace is not None:
        trace.record("invariants", k=k, ok=not failures, failures=len(failures))
    if failures:
        detail = "; ".join(failures)
        raise InvariantViolationError(f"pass {k} invariant violation: {detail}")
