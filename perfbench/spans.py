"""In-memory spans recorded by wrappers installed from outside the program,
plus the statistics the benchmark reports.

A span is (name, start, end, parent). Spans nest on one thread, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict


class Tracer:
    """Records nested spans around wrapped callables and restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(math.nan)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span called
        ``name`` (no span when ``name`` is None) and passes the result to
        ``on_result``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                idx = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that did not come back."""
        broken = []
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patched.clear()
        return broken

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        return self_times(self.durations(), self.parents)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
        return dict(out)

    def starts_of(self, name: str) -> list[float]:
        return [s for n, s in zip(self.names, self.starts) if n == name]


def self_times(durations: list[float], parents: list[int]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = list(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[idx]
    return own


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (percentile, value), where value is the sample with exactly
    ``beyond`` samples ranked after it, or None when there are too few
    samples for such a percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - 1 - beyond]
