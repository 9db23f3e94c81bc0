"""In-memory span recorder for the traced run; standard library only.

A span records name, start, end, the span that was open when it began
(its parent) and the run it belongs to. Spans stay in memory until the
benchmark ends. Self time is a span's duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Percentiles tried for the tail figure, highest first.
_TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and plain counters; single-threaded use."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs = attrs
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def traced(self, fn, name: str, describe=None):
        """Wrap fn in a span; describe(args, kwargs, result) -> attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = None
                if describe is not None and result is not None:
                    attrs = describe(args, kwargs, result)
                self.close(index, attrs)

        return wrapper

    def counted(self, fn, name: str):
        """Wrap fn so that each call bumps a counter; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[float, float, float, int]:
    """(p50, ptail, tail percentile, sample count).

    The tail percentile is the highest one in the ladder with at least
    TAIL_MIN_BEYOND samples above its rank; below 2 * TAIL_MIN_BEYOND + 1
    samples none qualifies and the tail falls back to the median.
    """
    if not values:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    p50 = percentile(ordered, 50.0)
    for pct in _TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p50, ordered[rank - 1], pct, n
    return p50, p50, 50.0, n
