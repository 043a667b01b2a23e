"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The registry is the aggregated half of the telemetry layer (spans are
the timeline half).  Every series is identified by a metric name plus a
sorted label set — ``net.bytes_received{k="2", node="3"}`` — so the
experiment harness can read exactly the quantity a figure plots instead
of reaching into raw ``NodeStats`` counters.

Determinism contract: all iteration is over sorted keys and both
exporters emit series in sorted (name, labels) order, so the rendered
output is byte-identical regardless of ``PYTHONHASHSEED`` or the order
in which series were first touched.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from repro.errors import ObservabilityError

_NAME = re.compile(r"^[a-z][a-z0-9_.]*$")
_LABEL = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default histogram buckets (powers of four): wide enough for byte
#: sizes and probe counts without per-metric tuning.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0**exp for exp in range(1, 11))

LabelSet = tuple[tuple[str, str], ...]
SeriesKey = tuple[str, LabelSet]


def _format_number(value: float) -> str:
    """Render a sample value: integers bare, floats via ``repr``."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_set(labels: dict[str, object]) -> LabelSet:
    for key in labels:
        if not _LABEL.match(key):
            raise ObservabilityError(f"invalid label name {key!r}")
    return tuple((key, str(labels[key])) for key in sorted(labels))


def _check_name(name: str) -> str:
    if not _NAME.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonically increasing sample (work totals, byte totals)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time sample (residency, last pass's elapsed time)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (message sizes, per-node pass times).

    ``buckets`` are cumulative upper bounds; one implicit ``+Inf``
    bucket catches the tail.  Bounds are fixed at first registration so
    every export of the same metric is shape-compatible.
    """

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError("histogram buckets must be sorted and unique")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total: float = 0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[position] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Cumulative per-bucket counts, ``+Inf`` last (Prometheus shape)."""
        out: list[int] = []
        running = 0
        for bucket_count in self.counts:
            running += bucket_count
            out.append(running)
        return out


class MetricsRegistry:
    """Get-or-create registry of labelled metric series.

    One registry spans one mining run (or one experiment); counters
    accumulate across passes, with the pass number carried as a ``k``
    label where per-pass resolution matters.
    """

    def __init__(self) -> None:
        self._counters: dict[SeriesKey, Counter] = {}
        self._gauges: dict[SeriesKey, Gauge] = {}
        self._histograms: dict[SeriesKey, Histogram] = {}
        self._histogram_buckets: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # Series access
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (_check_name(name), _label_set(labels))
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter()
        return series

    def gauge(self, name: str, **labels) -> Gauge:
        key = (_check_name(name), _label_set(labels))
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge()
        return series

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None, **labels
    ) -> Histogram:
        key = (_check_name(name), _label_set(labels))
        series = self._histograms.get(key)
        if series is None:
            bounds = self._histogram_buckets.setdefault(
                name, tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            )
            series = self._histograms[key] = Histogram(bounds)
        return series

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> float:
        """Current value of one counter/gauge series (0 when absent)."""
        key = (name, _label_set(labels))
        series = self._counters.get(key) or self._gauges.get(key)
        return 0 if series is None else series.value

    def total(self, name: str, **labels) -> float:
        """Sum of all counter/gauge series of ``name`` whose labels
        include every given ``labels`` item (empty = sum everything)."""
        match = set(_label_set(labels))
        running: float = 0
        for store in (self._counters, self._gauges):
            for (series_name, label_set), series in sorted(store.items()):
                if series_name == name and match <= set(label_set):
                    running += series.value
        return running

    def series(self, name: str) -> list[tuple[dict[str, str], float]]:
        """All counter/gauge series of ``name`` as (labels, value) rows."""
        rows = []
        for store in (self._counters, self._gauges):
            for (series_name, label_set), series in sorted(store.items()):
                if series_name == name:
                    rows.append((dict(label_set), series.value))
        return rows

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry", **labels) -> None:
        """Fold another registry's series into this one.

        Each merged series keeps its own labels plus the given extras
        (extras win on collision) — the load generator merges its two
        per-phase registries into one export under ``phase=direct`` /
        ``phase=batched`` labels.
        """
        extra = _label_set(labels)
        for (name, label_set), series in sorted(other._counters.items()):
            merged = {**dict(label_set), **dict(extra)}
            self.counter(name, **merged).inc(series.value)
        for (name, label_set), series in sorted(other._gauges.items()):
            merged = {**dict(label_set), **dict(extra)}
            self.gauge(name, **merged).set(series.value)
        for (name, label_set), series in sorted(other._histograms.items()):
            merged = {**dict(label_set), **dict(extra)}
            target = self.histogram(name, buckets=series.buckets, **merged)
            if target.buckets != series.buckets:
                raise ObservabilityError(
                    f"histogram {name!r} bucket mismatch during merge"
                )
            for position, bucket_count in enumerate(series.counts):
                target.counts[position] += bucket_count
            target.total += series.total
            target.count += series.count

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready snapshot with deterministic ordering."""
        counters = [
            {"name": name, "labels": dict(labels), "value": series.value}
            for (name, labels), series in sorted(self._counters.items())
        ]
        gauges = [
            {"name": name, "labels": dict(labels), "value": series.value}
            for (name, labels), series in sorted(self._gauges.items())
        ]
        histograms = [
            {
                "name": name,
                "labels": dict(labels),
                "buckets": list(series.buckets),
                "counts": list(series.counts),
                "sum": series.total,
                "count": series.count,
            }
            for (name, labels), series in sorted(self._histograms.items())
        ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (metric names ``repro_``-prefixed,
        dots mapped to underscores), series in sorted order."""
        lines: list[str] = []
        self._render_simple(lines, self._counters, "counter")
        self._render_simple(lines, self._gauges, "gauge")
        self._render_histograms(lines)
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    @staticmethod
    def _prom_name(name: str) -> str:
        return "repro_" + name.replace(".", "_")

    @staticmethod
    def _prom_labels(labels: LabelSet, extra: tuple[tuple[str, str], ...] = ()) -> str:
        items = list(labels) + list(extra)
        if not items:
            return ""
        rendered = ",".join(
            '{}="{}"'.format(key, value.replace("\\", "\\\\").replace('"', '\\"'))
            for key, value in items
        )
        return "{" + rendered + "}"

    def _render_simple(
        self,
        lines: list[str],
        store: dict[SeriesKey, Counter] | dict[SeriesKey, Gauge],
        kind: str,
    ) -> None:
        last_name = None
        for (name, labels), series in sorted(store.items()):
            prom = self._prom_name(name)
            if name != last_name:
                lines.append(f"# TYPE {prom} {kind}")
                last_name = name
            lines.append(
                f"{prom}{self._prom_labels(labels)} {_format_number(series.value)}"
            )

    def _render_histograms(self, lines: list[str]) -> None:
        last_name = None
        for (name, labels), series in sorted(self._histograms.items()):
            prom = self._prom_name(name)
            if name != last_name:
                lines.append(f"# TYPE {prom} histogram")
                last_name = name
            cumulative = series.cumulative()
            bounds = [_format_number(bound) for bound in series.buckets] + ["+Inf"]
            for bound, running in zip(bounds, cumulative):
                rendered = self._prom_labels(labels, (("le", bound),))
                lines.append(f"{prom}_bucket{rendered} {running}")
            plain = self._prom_labels(labels)
            lines.append(f"{prom}_sum{plain} {_format_number(series.total)}")
            lines.append(f"{prom}_count{plain} {series.count}")
