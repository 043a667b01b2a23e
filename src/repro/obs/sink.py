"""JSONL event sink — one replayable stream for the whole run.

The sink unifies the three telemetry sources into a single append-only
stream of JSON lines:

* simulator trace events (``type="trace"``: sends, drains, pass
  boundaries, invariant checks) — the same events a
  :class:`~repro.cluster.trace.SimulationTrace` stores;
* span lifecycle (``type="span-open"`` / ``"span-close"`` for
  structural spans, ``type="span"`` for derived one-shot spans);
* run framing and metric snapshots (``type="run-begin"`` /
  ``"run-end"`` / ``"metrics"``).

Schema v1 (``{"schema": "repro.obs", "v": 1}`` meta line first): every
event carries a monotonically increasing ``seq`` and is serialized with
sorted keys, so the byte stream is deterministic under any
``PYTHONHASHSEED``.  Memory is bounded: file-backed sinks stream every
line straight to disk; in-memory sinks keep at most ``limit`` lines and
count the overflow in :attr:`EventSink.dropped` (the drop is itself
reported in the ``run-end`` event, never silent).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.errors import ObservabilityError

SCHEMA_NAME = "repro.obs"
SCHEMA_VERSION = 1


def _serialize(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class EventSink:
    """Append-only JSONL event stream (file-backed or in-memory).

    Parameters
    ----------
    path:
        When given, every line is written straight to this file and no
        event is retained in memory.  When ``None``, lines accumulate in
        :attr:`lines` up to ``limit``.
    limit:
        In-memory line cap; beyond it events are dropped and counted.
    """

    def __init__(self, path: str | Path | None = None, limit: int = 200_000):
        if limit <= 0:
            raise ObservabilityError(f"sink limit must be positive, got {limit}")
        self.path = Path(path) if path is not None else None
        self.limit = limit
        self.lines: list[str] = []
        self.dropped = 0
        self.emitted = 0
        self._seq = 0
        self._handle = None
        # Serving emits from worker and HTTP handler threads; one lock
        # keeps seq assignment and the line append/write atomic.
        self._emit_lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        self.emit("meta", schema=SCHEMA_NAME, v=SCHEMA_VERSION)

    # ------------------------------------------------------------------
    def emit(self, type_: str, **payload) -> None:
        """Append one event; ``seq`` and ``type`` are reserved keys."""
        if "seq" in payload or "type" in payload:
            raise ObservabilityError("'seq' and 'type' are reserved event keys")
        with self._emit_lock:
            record = {"seq": self._seq, "type": type_}
            record.update(payload)
            self._seq += 1
            self.emitted += 1
            line = _serialize(record)
            if self._handle is not None:
                self._handle.write(line + "\n")
            elif len(self.lines) < self.limit:
                self.lines.append(line)
            else:
                self.dropped += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_events(lines) -> list[dict]:
    """Parse an iterable of JSONL lines, validating the v1 schema."""
    events: list[dict] = []
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            event = json.loads(text)
        except json.JSONDecodeError as error:
            raise ObservabilityError(f"sink line {number} is not JSON: {error}") from None
        if not isinstance(event, dict) or "type" not in event:
            raise ObservabilityError(f"sink line {number} is not an event object")
        events.append(event)
    if not events:
        raise ObservabilityError("empty sink stream")
    meta = events[0]
    if meta.get("type") != "meta" or meta.get("schema") != SCHEMA_NAME:
        raise ObservabilityError(
            "sink stream does not start with a repro.obs meta line"
        )
    if meta.get("v") != SCHEMA_VERSION:
        raise ObservabilityError(
            f"unsupported sink schema version {meta.get('v')!r} "
            f"(this reader understands v{SCHEMA_VERSION})"
        )
    return events


def read_events(path: str | Path) -> list[dict]:
    """Load and validate a sink file."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_events(text.splitlines())
