"""The unified metrics registry.

Before this module existed the system's accounting was split across three
disjoint objects — :class:`~repro.net.transport.TrafficStats` on each
transport, :class:`~repro.core.system.SystemCounters` on the system, and
:class:`~repro.metrics.latency.LatencyCollector` in the experiments — each
with its own fields, reset semantics and rendering.  The registry gives
them one home: named counters, gauges and histograms (optionally labeled,
Prometheus-style) that every layer writes into and one export surface
reads out of — a JSON/JSONL dump for tooling and a fixed-width text report
for the CLI.

The legacy objects remain as typed facades: their scalar fields are
properties over registry counters (see :class:`RegistryBackedCounters`),
so ``stats.messages += 1`` and ``registry.counter("net.messages").get()``
are the same number by construction.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "TimeSeriesMetric",
    "MetricsRegistry",
    "RegistryBackedCounters",
    "LabeledCounterDict",
    "registry_field",
    "write_jsonl",
]

#: Label sets are keyed by their sorted (name, value) pairs so the same
#: labels always address the same series regardless of keyword order.
LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class _Metric:
    """Common shape of one named metric family."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def snapshot(self) -> dict[str, Any]:
        """JSON-able description of this metric's current state."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every recorded series."""
        raise NotImplementedError


def _series_list(values: dict[LabelKey, Any]) -> list[dict[str, Any]]:
    return [
        {"labels": {k: v for k, v in key}, "value": value}
        for key, value in sorted(values.items(), key=lambda kv: repr(kv[0]))
    ]


class Counter(_Metric):
    """A monotonically *usable* numeric series per label set.

    ``inc`` is the ordinary path; ``set`` exists so facade objects can keep
    supporting ``stats.field = 0`` resets and ``stats.field += n``
    read-modify-write updates without the registry fighting them.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, Any] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` to the series selected by ``labels``."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def set(self, value: float, **labels: Any) -> None:
        """Overwrite the series selected by ``labels``."""
        self._values[_label_key(labels)] = value

    def get(self, **labels: Any) -> float:
        """Current value of one series (0 when never touched)."""
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values()) if self._values else 0

    def items(self) -> Iterator[tuple[dict[str, Any], Any]]:
        """(labels, value) pairs for every series."""
        for key, value in self._values.items():
            yield ({k: v for k, v in key}, value)

    def clear(self) -> None:
        self._values.clear()

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": _series_list(self._values),
        }


class Gauge(Counter):
    """A value that goes up and down (current load, queue depth, clock)."""

    kind = "gauge"


class HistogramMetric(_Metric):
    """Bucketed sample distribution per label set.

    Buckets follow the registry's shared edge convention: ``counts[i]``
    counts samples in ``(edges[i-1], edges[i]]`` with the first bucket
    open below and a final overflow bucket above ``edges[-1]``.  Count,
    sum and max are tracked exactly, so means are exact and percentiles
    are bucket-resolution approximations.
    """

    kind = "histogram"

    #: 1-2-5 ladder over five decades; suits millisecond latencies.
    DEFAULT_EDGES: tuple[float, ...] = tuple(
        base * 10**exp for exp in range(5) for base in (1.0, 2.0, 5.0)
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        edges: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help)
        self.edges: tuple[float, ...] = (
            tuple(edges) if edges is not None else self.DEFAULT_EDGES
        )
        if list(self.edges) != sorted(self.edges):
            raise ValueError("histogram edges must be ascending")
        self._series: dict[LabelKey, dict[str, Any]] = {}

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float, **labels: Any) -> None:
        """Record one sample into the series selected by ``labels``."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = {
                "counts": [0] * (len(self.edges) + 1),
                "count": 0,
                "sum": 0.0,
                "max": 0.0,
            }
            self._series[key] = series
        series["counts"][self._bucket_index(value)] += 1
        series["count"] += 1
        series["sum"] += value
        series["max"] = max(series["max"], value)

    def count(self, **labels: Any) -> int:
        """Samples recorded into one series."""
        series = self._series.get(_label_key(labels))
        return series["count"] if series is not None else 0

    def sum(self, **labels: Any) -> float:
        """Sum of samples recorded into one series."""
        series = self._series.get(_label_key(labels))
        return series["sum"] if series is not None else 0.0

    def mean(self, **labels: Any) -> float:
        """Exact mean of one series (0.0 when empty)."""
        series = self._series.get(_label_key(labels))
        if series is None or series["count"] == 0:
            return 0.0
        return series["sum"] / series["count"]

    def items(self) -> Iterator[tuple[dict[str, Any], dict[str, Any]]]:
        """(labels, series-state) pairs for every series."""
        for key, series in self._series.items():
            yield ({k: v for k, v in key}, series)

    def clear(self) -> None:
        self._series.clear()

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "edges": list(self.edges),
            "series": [
                {
                    "labels": {k: v for k, v in key},
                    "count": series["count"],
                    "sum": series["sum"],
                    "max": series["max"],
                    "counts": list(series["counts"]),
                }
                for key, series in sorted(
                    self._series.items(), key=lambda kv: repr(kv[0])
                )
            ],
        }


class TimeSeriesMetric(_Metric):
    """Fixed-capacity ring buffer of ``(t, value)`` samples per label set.

    This is what the health sampler writes: one series per node per gauge,
    appended at every sampling tick.  Capacity bounds memory no matter how
    long a simulation runs — once full, the oldest sample falls off the
    front.  Timestamps are whatever clock the writer uses (virtual ms for
    the event-driven path, cumulative wire ms for the synchronous one);
    appends are expected in non-decreasing time order but not enforced, so
    a misbehaving sampler shows up in the data instead of crashing the run.
    """

    kind = "timeseries"

    DEFAULT_CAPACITY = 512

    def __init__(
        self, name: str, help: str = "", capacity: int | None = None
    ) -> None:
        super().__init__(name, help)
        self.capacity = capacity if capacity is not None else self.DEFAULT_CAPACITY
        if self.capacity < 1:
            raise ValueError("time series capacity must be positive")
        self._series: dict[LabelKey, deque[tuple[float, float]]] = {}

    def append(self, t: float, value: float, **labels: Any) -> None:
        """Record one ``(t, value)`` sample into the selected series."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = deque(maxlen=self.capacity)
            self._series[key] = series
        series.append((float(t), float(value)))

    def points(self, **labels: Any) -> list[tuple[float, float]]:
        """All retained samples of one series, oldest first."""
        series = self._series.get(_label_key(labels))
        return list(series) if series is not None else []

    def last(self, **labels: Any) -> tuple[float, float] | None:
        """The most recent sample of one series, or None when empty."""
        series = self._series.get(_label_key(labels))
        return series[-1] if series else None

    def values(self, **labels: Any) -> list[float]:
        """Just the sample values of one series, oldest first."""
        return [v for _, v in self.points(**labels)]

    def items(self) -> Iterator[tuple[dict[str, Any], list[tuple[float, float]]]]:
        """(labels, points) pairs for every series."""
        for key, series in self._series.items():
            yield ({k: v for k, v in key}, list(series))

    def __len__(self) -> int:
        return len(self._series)

    def clear(self) -> None:
        self._series.clear()

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "capacity": self.capacity,
            "series": [
                {
                    "labels": {k: v for k, v in key},
                    "points": [[t, v] for t, v in series],
                }
                for key, series in sorted(
                    self._series.items(), key=lambda kv: repr(kv[0])
                )
            ],
        }


class MetricsRegistry:
    """All metric families of one system, addressable by name.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, which is how independent
    components (the transport, the system counters, a latency collector)
    end up sharing one export surface.  Asking for an existing name with a
    different kind is an error — silent kind drift would corrupt exports.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- construction --------------------------------------------------

    def _get_or_create(
        self, name: str, cls: type[_Metric], help: str, **options: Any
    ) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **options)
        elif metric.kind != cls.kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter named ``name``."""
        metric = self._get_or_create(name, Counter, help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge named ``name``."""
        metric = self._get_or_create(name, Gauge, help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, help: str = "", edges: Sequence[float] | None = None
    ) -> HistogramMetric:
        """Get or create the histogram named ``name``."""
        metric = self._get_or_create(name, HistogramMetric, help, edges=edges)
        assert isinstance(metric, HistogramMetric)
        return metric

    def timeseries(
        self, name: str, help: str = "", capacity: int | None = None
    ) -> TimeSeriesMetric:
        """Get or create the ring-buffer time series named ``name``."""
        metric = self._get_or_create(
            name, TimeSeriesMetric, help, capacity=capacity
        )
        assert isinstance(metric, TimeSeriesMetric)
        return metric

    # -- access --------------------------------------------------------

    def get(self, name: str) -> _Metric | None:
        """The metric named ``name``, if registered."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric (families stay registered)."""
        for metric in self._metrics.values():
            metric.clear()

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every metric's current state as one JSON-able document."""
        return {
            "metrics": [
                self._metrics[name].snapshot() for name in sorted(self._metrics)
            ]
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent, default=str)

    def to_jsonl(self) -> str:
        """One JSON document per metric family, newline-delimited."""
        return "\n".join(
            json.dumps(self._metrics[name].snapshot(), default=str)
            for name in sorted(self._metrics)
        )

    def report(self, title: str = "Metrics") -> str:
        """Fixed-width text rendering of every non-empty metric."""
        from repro.metrics.report import format_table, sparkline

        scalar_rows: list[list[object]] = []
        labeled_rows: list[list[object]] = []
        histogram_rows: list[list[object]] = []
        series_rows: list[list[object]] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, TimeSeriesMetric):
                for labels, points in sorted(
                    metric.items(), key=lambda kv: repr(kv[0])
                ):
                    values = [v for _, v in points]
                    series_rows.append(
                        [
                            _series_name(name, labels),
                            len(points),
                            _format_value(values[-1]) if values else "-",
                            sparkline(values),
                        ]
                    )
            elif isinstance(metric, HistogramMetric):
                for labels, series in sorted(
                    metric.items(), key=lambda kv: repr(kv[0])
                ):
                    mean = series["sum"] / series["count"] if series["count"] else 0.0
                    histogram_rows.append(
                        [
                            _series_name(name, labels),
                            series["count"],
                            f"{mean:.1f}",
                            f"{series['max']:.1f}",
                        ]
                    )
            elif isinstance(metric, Counter):
                for labels, value in sorted(
                    metric.items(), key=lambda kv: repr(kv[0])
                ):
                    row = [_series_name(name, labels), _format_value(value)]
                    (labeled_rows if labels else scalar_rows).append(row)
        sections: list[str] = []
        if scalar_rows:
            sections.append(
                format_table(["metric", "value"], scalar_rows, title=title)
            )
        if labeled_rows:
            sections.append(
                format_table(["series", "value"], labeled_rows, title="Labeled series")
            )
        if histogram_rows:
            sections.append(
                format_table(
                    ["histogram", "n", "mean", "max"],
                    histogram_rows,
                    title="Histograms",
                )
            )
        if series_rows:
            sections.append(
                format_table(
                    ["series", "n", "last", "trend"],
                    series_rows,
                    title="Time series",
                )
            )
        if not sections:
            return f"{title}\n(no metrics recorded)"
        return "\n\n".join(sections)


def _series_name(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# ----------------------------------------------------------------------
# Facade support: legacy counter objects served from a registry
# ----------------------------------------------------------------------


class LabeledCounterDict(dict):
    """A dict facade over one labeled counter series.

    The legacy stats objects expose per-key tallies as plain dicts
    (``stats.by_kind["match-request"] += 1``); this subclass keeps that
    call surface — including equality with ordinary dicts and
    ``defaultdict(int)``-style zero-on-missing reads — while writing every
    update through to the registry counter, one label set per key.
    """

    def __init__(self, counter: Counter, label: str) -> None:
        super().__init__()
        self._counter = counter
        self._label = label

    def __missing__(self, key: Any) -> int:
        return 0

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self._counter.set(value, **{self._label: key})

    def __delitem__(self, key: Any) -> None:
        super().__delitem__(key)
        self._counter.set(0, **{self._label: key})

    def clear(self) -> None:
        for key in list(self):
            self._counter.set(0, **{self._label: key})
        super().clear()


def registry_field(field_name: str) -> property:
    """A property whose storage is a registry counter.

    Classes deriving from :class:`RegistryBackedCounters` declare their
    scalar fields with this: reads and writes (``+=`` included) go to the
    counter the instance bound at construction, so the legacy attribute
    API and the registry can never disagree.
    """

    def getter(self: "RegistryBackedCounters") -> Any:
        return self._scalars[field_name].get()

    def setter(self: "RegistryBackedCounters", value: Any) -> None:
        self._scalars[field_name].set(value)

    return property(getter, setter, doc=f"registry-backed field {field_name!r}")


class RegistryBackedCounters:
    """Base for stats facades whose fields live in a :class:`MetricsRegistry`.

    Subclasses set ``SCALAR_FIELDS`` (attribute names declared with
    :func:`registry_field`) and call :meth:`_bind` with a registry and a
    namespace; each field becomes the counter ``<namespace>.<field>``.
    When no registry is passed the facade creates a private one, so
    standalone construction (tests, ad-hoc scripts) keeps working.
    """

    SCALAR_FIELDS: tuple[str, ...] = ()

    def _bind(self, registry: MetricsRegistry | None, namespace: str) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.namespace = namespace
        self._scalars: dict[str, Counter] = {
            field: self.registry.counter(f"{namespace}.{field}")
            for field in self.SCALAR_FIELDS
        }

    def _labeled(self, name: str, label: str) -> LabeledCounterDict:
        return LabeledCounterDict(
            self.registry.counter(f"{self.namespace}.{name}"), label
        )

    def scalar_values(self) -> dict[str, Any]:
        """Every scalar field's current value (for reports and tests)."""
        return {field: self._scalars[field].get() for field in self.SCALAR_FIELDS}


def write_jsonl(path: str, documents: Iterable[dict[str, Any]]) -> int:
    """Write one JSON document per line; returns the number written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for document in documents:
            handle.write(json.dumps(document, default=str))
            handle.write("\n")
            written += 1
    return written
