"""In-memory span tracer for the benchmark's traced runs.

The program under test carries no spans of its own, so the traced run
records them from the benchmark's side, around calls into each layer's
public functions.  Two kinds of timing share one stack:

* a *span* (:meth:`Tracer.span`) is one coarse step — a day shard, a
  stage of it, a merge — kept in memory with its name, start, end,
  parent and shard id, and written out when the run ends;
* a *timer* (:meth:`Tracer.timed`, installed by :func:`patch_method`
  and :func:`patch_module_functions`) wraps a function called once per
  record or per query; each call adds to a per-name total instead of
  keeping a span, so a 40k-record shard does not hold 200k span objects.

Every entry on the stack accumulates the time its children cover, so a
span's or timer's *self time* is its duration minus that coverage.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans, per-name call timers and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.self_totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Each stack frame is [covered_seconds, span_index or None].
        self._stack: list[list] = [[0.0, None]]

    @contextmanager
    def span(self, name: str, shard: str | None = None):
        parent = self._stack[-1][1]
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "shard": shard, "self": None}
        self.spans.append(record)
        frame = [0.0, index]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = end = time.perf_counter()
            duration = end - record["start"]
            record["self"] = duration - frame[0]
            self._stack[-1][0] += duration
            self.totals[name] += duration
            self.self_totals[name] += record["self"]
            self.calls[name] += 1

    def timed(self, name: str, func, *args, **kwargs):
        """Call *func* under the per-name timer *name*."""
        frame = [0.0, self._stack[-1][1]]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._stack[-1][0] += duration
            self.totals[name] += duration
            self.self_totals[name] += duration - frame[0]
            self.calls[name] += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def covered_seconds(self) -> float:
        """Wall time covered by top-level spans and timers: the sum of
        every self time, since children never overlap their siblings."""
        return self._stack[0][0]

    def span_durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def export(self, origin: float) -> list[dict]:
        """The spans with times relative to *origin*, for writing out."""
        return [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]


@contextmanager
def patch_method(owner, attribute: str, tracer: Tracer, name: str,
                 observe=None):
    """Time every call of ``owner.attribute`` under *name*.

    *observe*, when given, is called as ``observe(result, *args)`` after
    each call — how the traced run counts cache hits and distinct
    policy keys without touching the program.  The original attribute
    is restored on exit.
    """
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = tracer.timed(name, original, *args, **kwargs)
        if observe is not None:
            observe(result, *args)
        return result

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def patch_module_functions(module, tracer: Tracer, name: str):
    """Time every public function defined in *module* under *name*.

    Calls made through the module attribute — ``overview.top_domains``
    from the report orchestrator, or module-internal calls — all pass
    the wrapper, and nested calls nest on the tracer's stack.
    """
    originals = {
        attr: value
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }

    def wrap(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.timed(name, func, *args, **kwargs)
        return wrapper

    for attr, func in originals.items():
        setattr(module, attr, wrap(func))
    try:
        yield
    finally:
        for attr, func in originals.items():
            setattr(module, attr, func)
