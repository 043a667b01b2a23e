"""Optional event tracing for the cluster simulator.

Attach a :class:`SimulationTrace` to a cluster to record a structured
event stream — message sends, pass boundaries — alongside the counter
summaries.  Useful for debugging routing decisions ("which node sent
what to whom for this transaction batch?") and for the network tests.

Tracing is off unless attached; the hot paths pay one ``is None`` check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One simulator event.

    ``kind`` is a short tag (``"send"``, ``"pass-begin"``,
    ``"pass-end"``); ``detail`` carries the kind-specific payload.
    """

    kind: str
    detail: dict

    def __str__(self) -> str:
        # repro-analyze: disable=RL001 — ``detail`` holds record() kwargs, whose
        # order is the event's schema order (fixed per call site), not hash
        # order; sorting would scramble the documented trace format.
        rendered = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.kind}] {rendered}"


@dataclass
class SimulationTrace:
    """Append-only event log with small query helpers.

    ``limit`` bounds memory: beyond it, events are dropped and only the
    per-kind counters keep growing.  The drop is never silent — the
    exact number of lost events is kept in :attr:`dropped` and surfaced
    by :meth:`__str__` (``truncated`` remains as the boolean view).
    """

    limit: int = 100_000
    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    _counts: Counter = field(default_factory=Counter)

    def record(self, kind: str, **detail) -> None:
        self._counts[kind] += 1
        if len(self.events) < self.limit:
            self.events.append(TraceEvent(kind=kind, detail=detail))
        else:
            self.dropped += 1

    @property
    def truncated(self) -> bool:
        """True when at least one event fell beyond ``limit``."""
        return self.dropped > 0

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def count(self, kind: str) -> int:
        """Total events of a kind (including dropped ones)."""
        return self._counts[kind]

    def kinds(self) -> dict[str, int]:
        return dict(self._counts)

    @property
    def total(self) -> int:
        """Total events ever recorded (stored plus dropped)."""
        return len(self.events) + self.dropped

    def __str__(self) -> str:
        rendered = " ".join(
            f"{kind}={self._counts[kind]}" for kind in sorted(self._counts)
        )
        suffix = f" dropped={self.dropped}" if self.dropped else ""
        return f"SimulationTrace({self.total} events: {rendered}{suffix})"

    def clear(self) -> None:
        self.events.clear()
        self._counts.clear()
        self.dropped = 0
