"""In-memory span tracer that wraps layer boundaries from outside the program.

The traced run patches public functions of the ``repro`` package (class
methods and module-level functions) with thin wrappers.  A synchronous
wrapper records one span: name, start, end, parent span and query index.
Spans nest on a stack, so a span's self time is its duration minus the
time its child spans cover.  Coroutines (the wire RPC) record their awaited
duration as a span outside the stack, because other tasks run while they
wait.  Counting wrappers only bump a counter.

Everything is kept in memory and written out once, after the run.
:meth:`Tracer.uninstall` restores every original, so the untraced code is
the unmodified program.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from typing import Any, Callable

__all__ = ["Tracer"]


class Tracer:
    """Span and call-count recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: One tuple per span: (name id, start ns, end ns, parent span
        #: index or -1, query index or -1, self ns).
        self.spans: list[Any] = []
        #: Open synchronous spans: [span index, ns covered by children].
        self._stack: list[list[int]] = []
        #: Index of the query being issued; -1 while an event loop or
        #: the simulator runs callbacks that no single query owns.
        self.query_index = -1
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
        reentrant: bool = True,
    ) -> Callable:
        """Wrap a synchronous callable so each call records a span.

        ``on_result`` sees each return value (for useful-outcome ratios).
        With ``reentrant=False`` only the outermost call of a recursive
        function is recorded.
        """
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if not reentrant:
                active[0] = True
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (
                    name_id, start, end, parent, self.query_index,
                    duration - frame[1],
                )
                active[0] = False
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def async_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a coroutine function; the span is its awaited duration."""
        name_id = self._name_id(name)
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            query = self.query_index
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                spans[index] = (name_id, start, end, -1, query, end - start)

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap a callable so each call bumps ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, own)

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, summed self ns)."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for record in self.spans:
            if record is None:
                continue
            calls[record[0]] += 1
            self_ns[record[0]] += record[5]
        return {
            name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)
        }

    def durations_ns(self, name: str) -> list[int]:
        """Wall durations of every span called ``name``."""
        name_id = self._name_ids.get(name)
        return [
            record[2] - record[1]
            for record in self.spans
            if record is not None and record[0] == name_id
        ]

    def write(self, path: str) -> int:
        """Write the spans as gzipped JSON lines; returns spans written.

        The first line names the fields and lists span names by id; each
        further line is one span as an array.
        """
        written = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({
                "fields": ["name", "start_ns", "end_ns", "parent", "query", "self_ns"],
                "names": self.names,
            }) + "\n")
            for record in self.spans:
                if record is None:
                    continue
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
                written += 1
        return written
