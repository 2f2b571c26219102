"""Shared pieces of the benchmark: configuration, input checks, statistics.

Every workload runs the paper's configuration: ``k = 20`` hash functions
in each of ``l = 5`` groups, approximate min-wise permutations, SHA-1
rehash placement and the value domain ``[0, 1000]``.  The program's own
seed stays fixed; the workload seed only shapes the generated inputs.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from typing import Any, Callable

import numpy as np

from pace import Pace

from repro.core.config import SystemConfig
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange

#: The seed reserved for confirming a claimed gain; do not tune on it.
HOLDOUT_SEED = 2_003_117

#: The program's own seed (LSH functions, origin draws of the simulator).
PROGRAM_SEED = 2003

DOMAIN = Domain("value", 0, 1000)

#: Set-ups made per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Queries per window of a wall-time ``latency_p99_ms``
#: (see :func:`windowed_percentile`).
TAIL_WINDOW = 100


def paper_config(n_peers: int, replicas: int = 1) -> SystemConfig:
    """The paper's configuration at ``n_peers`` peers."""
    return SystemConfig(
        n_peers=n_peers,
        family="approx-min-wise",
        l=5,
        k=20,
        domain=DOMAIN,
        placement="rehash",
        replicas=replicas,
        seed=PROGRAM_SEED,
    )


class Metrics:
    """Named metrics with units, sample counts and, for timings scaled to
    the reference speed, the raw wall-clock value."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str, int | None, float | None]] = {}

    def add(
        self,
        name: str,
        value: float,
        unit: str,
        samples: int | None = None,
        raw: float | None = None,
    ) -> None:
        self.values[name] = (float(value), unit, samples, raw)


class Checks:
    """Output checks of one run; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def timed_setups(
    build: Callable[[], Any],
    repeats: int,
    elasticity: float,
    release: Callable[[Any], None] | None = None,
) -> tuple[list[float], list[float], Any]:
    """Build ``repeats`` times; returns the durations scaled with
    ``elasticity`` (see :class:`pace.Pace`), the raw durations and the
    last build.

    Each earlier build is released (``release``, then garbage collection)
    before the next starts, so peak memory holds one system, not several.
    """
    pace = Pace(elasticity)
    scaled: list[float] = []
    raw: list[float] = []
    built = None
    try:
        for _ in range(repeats):
            if built is not None and release is not None:
                release(built)
            built = None
            gc.collect()
            pace.sample()
            started = time.perf_counter()
            built = build()
            ended = time.perf_counter()
            pace.sample()
            scaled.append(pace.scale(started, ended))
            raw.append(ended - started)
    except BaseException:
        if built is not None and release is not None:
            release(built)
        raise
    return scaled, raw, built


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def windowed_percentile(values: list[float], q: float) -> float:
    """Interquartile mean over consecutive windows of :data:`TAIL_WINDOW`
    values of each window's ``q``-th percentile; a short last window joins
    the one before.

    On a shared host a single burst of the host's own work lands in the
    tail of the whole run and moves its p99 by itself.  Per window, the
    burst moves one window's p99, which the trimmed mean drops; averaging
    the middle half keeps less sampling noise than the median would.
    """
    edges = list(range(0, len(values), TAIL_WINDOW))
    if len(edges) > 1 and len(values) - edges[-1] < TAIL_WINDOW:
        edges.pop()
    edges.append(len(values))
    tails = sorted(percentile(values[a:b], q) for a, b in zip(edges, edges[1:]))
    quarter = len(tails) // 4
    return float(np.mean(tails[quarter:len(tails) - quarter]))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def jaccard(a: IntRange, b: IntRange) -> float:
    """|a ∩ b| / |a ∪ b| for inclusive integer ranges, computed here."""
    inter = max(0, min(a.end, b.end) - max(a.start, b.start) + 1)
    union = (a.end - a.start + 1) + (b.end - b.start + 1) - inter
    return inter / union


def containment(query: IntRange, match: IntRange) -> float:
    """|query ∩ match| / |query|: the recall of ``match`` for ``query``."""
    inter = max(0, min(query.end, match.end) - max(query.start, match.start) + 1)
    return inter / (query.end - query.start + 1)


def check_answer(checks: Checks, index: int, query: IntRange, result: Any) -> float:
    """Recompute one answer's similarity and recall; returns the recall."""
    matched = result.matched
    if matched is None:
        checks.expect(
            result.similarity == 0.0 and result.recall == 0.0 and not result.exact,
            f"query {index} {query}: nothing matched but similarity/recall/exact "
            f"= {result.similarity}/{result.recall}/{result.exact}",
        )
        return 0.0
    similarity = jaccard(query, matched.range)
    recall = containment(query, matched.range)
    checks.expect(
        math.isclose(similarity, result.similarity, abs_tol=1e-12),
        f"query {index} {query}: similarity {result.similarity} != {similarity} "
        f"for {matched}",
    )
    checks.expect(
        math.isclose(recall, result.recall, abs_tol=1e-12),
        f"query {index} {query}: recall {result.recall} != {recall} for {matched}",
    )
    checks.expect(
        result.exact == (matched.range == query),
        f"query {index} {query}: exact={result.exact} for {matched}",
    )
    return recall


def query_digest(result: Any) -> tuple:
    """The behaviour of one query: match, exact, stored, overlay hops."""
    matched = result.matched
    return (
        None if matched is None else (matched.relation, matched.attribute,
                                      matched.range.start, matched.range.end),
        bool(result.exact),
        bool(result.stored),
        int(result.overlay_hops),
    )


def counter_values(registry: Any) -> dict[str, Any]:
    """Every counter and gauge series of a metrics registry snapshot."""
    values = {}
    for family in registry.snapshot()["metrics"]:
        if family["kind"] not in ("counter", "gauge"):
            continue
        for series in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            values[f"{family['name']}{{{labels}}}"] = series["value"]
    return values


def compare_runs(
    checks: Checks,
    untraced: list[tuple],
    traced: list[tuple],
    untraced_counters: dict[str, Any],
    traced_counters: dict[str, Any],
) -> None:
    """Tracing must not change behaviour: same digests, same counters."""
    if untraced != traced:
        first = next(
            (i for i, (a, b) in enumerate(zip(untraced, traced)) if a != b),
            min(len(untraced), len(traced)),
        )
        checks.fail(
            f"traced run diverged from the untraced run at query {first} "
            f"({len(untraced)} vs {len(traced)} queries)"
        )
    if untraced_counters != traced_counters:
        differing = sorted(
            key
            for key in set(untraced_counters) | set(traced_counters)
            if untraced_counters.get(key) != traced_counters.get(key)
        )
        checks.fail(
            f"traced run changed {len(differing)} counter(s), e.g. {differing[:3]}"
        )
