"""Scale wall-clock timings to a reference CPU speed.

On a shared host the speed of one core drifts by a quarter or more within
a minute, and a pure-Python program slows down with it.  The benchmark
therefore probes the speed of the moment between slices of measured work:
a fixed, pure-Python task whose CPU time at the reference speed is
:data:`REFERENCE_S`.  Each slice of work is divided by the median
slowness of the probes within a few seconds of it (slowness = probe time
/ reference time), raised to the workload's elasticity, so a timing
reads as if the host had run at the reference speed throughout.
The raw wall-clock figures are printed beside the scaled ones.

Probes run outside the measured slices; their own time is never counted.
"""

from __future__ import annotations

import bisect
import time

#: CPU time of one probe at the reference speed (about the median on a
#: 2-core x86-64 container with Python 3.11).
REFERENCE_S = 0.0021

#: Probe repetitions per sample; their mean counts.
REPEATS = 5

#: Half-width of the window of probes whose median scales a timing.
WINDOW_S = 2.5


class _Accumulator:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


_TABLE = dict.fromkeys(range(256), 0)
_ACCUMULATOR = _Accumulator()


def _probe_once() -> float:
    """One fixed slice of interpreter work; returns the CPU time it took.

    CPU time, not wall time, so that other processes of the measured
    program holding the core do not count as slowness.  It allocates no
    container objects, so the garbage collector and the size of the
    measured program's heap do not change its duration either.
    """
    table = _TABLE
    accumulator = _ACCUMULATOR
    started = time.thread_time()
    for i in range(6000):
        key = i & 255
        value = (i * 2654435761) & 0xFFFF
        table[key] = (table[key] + value) & 0xFFFFFF
        accumulator.add(value)
    return time.thread_time() - started


class Pace:
    """Probe samples of one run and the scaling they imply."""

    def __init__(self, elasticity: float) -> None:
        #: How much the measured work slows when the probe slows: a
        #: timing is divided by the probe's slowness to this power.
        self.elasticity = elasticity
        #: (probe start, probe end, slowness), in time order.
        self.samples: list[tuple[float, float, float]] = []
        #: CPU seconds the probes used, to leave out of CPU measurements.
        self.cpu_s = 0.0

    def sample(self) -> float:
        """Probe now; returns the slowness (1.0 at the reference speed)."""
        started = time.perf_counter()
        total = sum(_probe_once() for _ in range(REPEATS))
        self.cpu_s += total
        slowness = total / REPEATS / REFERENCE_S
        self.samples.append((started, time.perf_counter(), slowness))
        return slowness

    def slowness_at(self, t: float) -> float:
        """Median slowness of the probes within :data:`WINDOW_S` of ``t``.

        A single probe is noisy (an interrupt or a cold cache can land in
        it), while the host's speed drifts over tens of seconds; the
        median over a few seconds keeps the drift and drops the noise.
        """
        starts = [sample[0] for sample in self.samples]
        low = bisect.bisect_left(starts, t - WINDOW_S)
        high = bisect.bisect_right(starts, t + WINDOW_S)
        near = sorted(sample[2] for sample in self.samples[low:high])
        if not near:
            nearest = min(self.samples, key=lambda sample: abs(sample[0] - t))
            return nearest[2]
        mid = len(near) // 2
        return near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2

    def scale(self, began: float, ended: float) -> float:
        """A duration, scaled to the reference speed."""
        return (ended - began) / self.slowness_at((began + ended) / 2) ** self.elasticity

    def scaled_span(self, began: float, ended: float) -> float:
        """The time from ``began`` to ``ended`` at the reference speed,
        with probes that ran in between left out."""
        edges = [began]
        for start, end, _ in self.samples:
            if began < start and end < ended:
                edges += [start, end]
        edges.append(ended)
        return sum(
            self.scale(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)
        )

    def slice_rate(self, slices: list[tuple[int, float, float]]) -> float:
        """Median over slices of (queries, began, ended) of the scaled rate.

        A slice hit by a burst the probes missed then moves the median
        by one rank, not the result by its whole cost.
        """
        rates = sorted(n / self.scale(a, b) for n, a, b in slices)
        mid = len(rates) // 2
        return rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2

    def raw_span(self, began: float, ended: float) -> float:
        """Wall time from ``began`` to ``ended`` minus the probes in it."""
        probes = sum(
            end - start
            for start, end, _ in self.samples
            if began < start and end < ended
        )
        return ended - began - probes
