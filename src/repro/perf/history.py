"""Bench records: the one format every harness writes, plus the watchdog.

Four harnesses measure host time — ``repro-bench`` (mining wall clock
over the kernel × executor matrix), ``repro-bench scale`` (per-core
curves with peak RSS), ``repro-serve loadgen`` (serving throughput and
latency) and ``repro-refresh run --bench`` (per-delta refresh against a
batch re-mine).  Each builds one :class:`BenchRecord` (schema
``repro.bench/v2``) and hands it to :func:`write_record`:

* ``kind`` — ``mining``, ``scale``, ``serving`` or ``refresh``;
* ``workload`` — everything that defines the run; the **workload key**
  is a hash of ``kind`` + ``workload``, computed, never stored, so only
  like runs are ever compared;
* ``host`` — ``python``, ``machine`` and ``cpus`` of the measuring host;
* ``metrics`` — metric name → number;
* ``digests`` — result digests that must never drift.

``BENCH_<label>.json`` is the record (indented, sorted keys), and
``HISTORY.jsonl`` next to it gains the same record as one compact line.
The committed ``benchmarks/HISTORY.jsonl`` is the cross-run trajectory.

``repro-bench compare`` evaluates a fresh record against the most
recent history line with the same workload key: per-metric ratios with
direction inferred from the metric name (``*_seconds``/``*_ms``/
``*_bytes`` lower-is-better; ``*qps``/``*speedup*``/``*ratio*``
higher-is-better), flagged as regressions when they move beyond a
configurable **noise band** (default 1.5×).  Digest drift is always an
error — a faster run that mines different itemsets is not an
optimization.

Records carry no timestamps: history order is file order, and the git
log of ``HISTORY.jsonl`` is the provenance trail (the repo-wide
wall-clock rule RL002 applies here too).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError

#: Version tag of every bench record.
SCHEMA = "repro.bench/v2"

#: The harness families a record can come from.
KINDS = ("mining", "scale", "serving", "refresh")

#: Metric-name suffixes that are lower-is-better.
_LOWER_BETTER = ("_seconds", "_ms", "_bytes")

#: Metric-name markers that are higher-is-better.
_HIGHER_BETTER = ("qps", "speedup", "ratio")


class BenchHistoryError(ReproError):
    """Malformed bench record or history stream."""


def workload_key(kind: str, workload: dict) -> str:
    """Stable key over everything that defines a workload."""
    blob = json.dumps(workload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(f"{kind}:{blob}".encode("utf-8")).hexdigest()
    return f"{kind}-{digest[:12]}"


def host_info() -> dict:
    """The measuring host: read speedups and RSS against ``cpus``."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


@dataclass
class BenchRecord:
    """One benchmark run, as written to ``BENCH_*.json`` and history."""

    label: str
    kind: str
    workload: dict
    host: dict = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def workload_key(self) -> str:
        return workload_key(self.kind, self.workload)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "label": self.label,
            "kind": self.kind,
            "workload": self.workload,
            "host": self.host,
            "metrics": self.metrics,
            "digests": self.digests,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BenchRecord":
        if payload.get("schema") != SCHEMA:
            raise BenchHistoryError(
                f"not a bench record (expected schema {SCHEMA!r}, "
                f"got {payload.get('schema')!r})"
            )
        if payload.get("kind") not in KINDS:
            raise BenchHistoryError(
                f"unknown record kind {payload.get('kind')!r}; "
                f"known: {', '.join(KINDS)}"
            )
        return cls(
            label=payload["label"],
            kind=payload["kind"],
            workload=dict(payload["workload"]),
            host=dict(payload.get("host", {})),
            metrics=dict(payload.get("metrics", {})),
            digests=dict(payload.get("digests", {})),
        )


def _compact(record: BenchRecord) -> str:
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))


def write_record(record: BenchRecord, out_dir: str | Path) -> Path:
    """Write ``BENCH_<label>.json`` and append to ``HISTORY.jsonl``.

    Both land in ``out_dir`` (created when missing); returns the path
    of the ``BENCH`` file.
    """
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{record.label}.json"
    path.write_text(
        json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    append_history(target / "HISTORY.jsonl", record)
    return path


def load_record(path: str | Path) -> BenchRecord:
    """Read one ``BENCH_*.json`` record."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise BenchHistoryError(f"{path}: not JSON: {error}") from None
    return BenchRecord.from_json(payload)


# ----------------------------------------------------------------------
# History file
# ----------------------------------------------------------------------
def load_history(path: str | Path) -> list[BenchRecord]:
    """All records of one ``HISTORY.jsonl``, in file (= append) order."""
    path = Path(path)
    if not path.exists():
        return []
    records: list[BenchRecord] = []
    for number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        text = raw.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise BenchHistoryError(
                f"{path} line {number} is not JSON: {error}"
            ) from None
        records.append(BenchRecord.from_json(payload))
    return records


def append_history(path: str | Path, record: BenchRecord) -> Path:
    """Append one record (creates the file and parents when missing)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(_compact(record) + "\n")
    return path


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def metric_direction(name: str) -> str | None:
    """``lower`` / ``higher`` is better, or None for uncompared metrics."""
    lowered = name.lower()
    if any(marker in lowered for marker in _HIGHER_BETTER):
        return "higher"
    if lowered.endswith(_LOWER_BETTER):
        return "lower"
    return None


def compare_records(
    baseline: BenchRecord, candidate: BenchRecord, noise_band: float = 1.5
) -> dict:
    """Per-metric deltas of ``candidate`` against ``baseline``.

    ``noise_band`` is the worst tolerated ratio in the bad direction: a
    lower-is-better metric regresses when ``candidate / baseline``
    exceeds it; a higher-is-better metric regresses when the ratio
    falls below ``1 / noise_band`` — so a throughput or speedup that
    collapses to 0 is a regression.  Only a baseline of 0 or less
    leaves a metric uncompared (no ratio exists).  Digest mismatches
    are always regressions.
    """
    if noise_band < 1.0:
        raise BenchHistoryError(f"noise band must be >= 1.0, got {noise_band}")
    if baseline.workload_key != candidate.workload_key:
        raise BenchHistoryError(
            f"workload mismatch: baseline {baseline.workload_key} vs "
            f"candidate {candidate.workload_key} — refusing to compare "
            "different workloads"
        )
    deltas: list[dict] = []
    for name in sorted(set(baseline.metrics) & set(candidate.metrics)):
        direction = metric_direction(name)
        if direction is None:
            continue
        base_value = baseline.metrics[name]
        cand_value = candidate.metrics[name]
        if base_value <= 0:
            continue
        ratio = cand_value / base_value
        if direction == "lower":
            regressed = ratio > noise_band
        else:
            regressed = ratio < 1.0 / noise_band
        deltas.append(
            {
                "metric": name,
                "baseline": base_value,
                "candidate": cand_value,
                "ratio": round(ratio, 4),
                "direction": direction,
                "regressed": regressed,
            }
        )
    digest_drift = sorted(
        name
        for name in set(baseline.digests) & set(candidate.digests)
        if baseline.digests[name] != candidate.digests[name]
    )
    regressions = [delta for delta in deltas if delta["regressed"]]
    return {
        "baseline_label": baseline.label,
        "candidate_label": candidate.label,
        "workload_key": baseline.workload_key,
        "noise_band": noise_band,
        "deltas": deltas,
        "regressions": regressions,
        "digest_drift": digest_drift,
        "ok": not regressions and not digest_drift,
    }


def latest_matching(
    history: list[BenchRecord], candidate: BenchRecord
) -> BenchRecord | None:
    """Most recently appended record comparable to ``candidate``."""
    for record in reversed(history):
        if (
            record.kind == candidate.kind
            and record.workload_key == candidate.workload_key
        ):
            return record
    return None


def compare_against_history(
    history_path: str | Path,
    candidate_path: str | Path,
    noise_band: float = 1.5,
) -> dict:
    """The ``repro-bench compare`` core: candidate vs its history line.

    When the history holds no record for the candidate's workload the
    comparison is a no-op (``ok`` with ``baseline_label`` None) — a new
    workload has no trajectory yet, which is not a regression.
    """
    candidate = load_record(candidate_path)
    history = load_history(history_path)
    baseline = latest_matching(history, candidate)
    if baseline is None:
        return {
            "baseline_label": None,
            "candidate_label": candidate.label,
            "workload_key": candidate.workload_key,
            "noise_band": noise_band,
            "deltas": [],
            "regressions": [],
            "digest_drift": [],
            "ok": True,
            "note": "no comparable baseline in history (new workload)",
        }
    return compare_records(baseline, candidate, noise_band=noise_band)


def render_comparison(report: dict) -> str:
    """Human rendering of one comparison."""
    lines: list[str] = []
    if report["baseline_label"] is None:
        lines.append(
            f"{report['candidate_label']}: {report.get('note', 'no baseline')}"
        )
        return "\n".join(lines)
    lines.append(
        f"comparing {report['candidate_label']} against "
        f"{report['baseline_label']} (workload {report['workload_key']}, "
        f"noise band {report['noise_band']}x)"
    )
    for delta in report["deltas"]:
        arrow = "better" if (
            (delta["direction"] == "lower") == (delta["ratio"] < 1.0)
        ) and delta["ratio"] != 1.0 else "worse" if delta["ratio"] != 1.0 else "same"
        flag = "  REGRESSION" if delta["regressed"] else ""
        lines.append(
            f"  {delta['metric']}: {delta['baseline']:g} -> "
            f"{delta['candidate']:g} ({delta['ratio']:.3f}x, {arrow}){flag}"
        )
    for name in report["digest_drift"]:
        lines.append(f"  {name}: DIGEST DRIFT — results changed between runs")
    lines.append("trajectory: ok" if report["ok"] else "trajectory: REGRESSED")
    return "\n".join(lines)
