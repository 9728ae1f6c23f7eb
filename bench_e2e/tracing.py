"""Benchmark-side tracing: spans around each layer's public ``score``.

The library is not modified.  :class:`SpanLog` replaces a layer
object's ``score`` (an instance attribute shadowing the method) with a
timer that records ``(depth, name, start, end, docs)``.  Engine calls
are serialized (the async front-end runs them on one executor thread,
the synchronous workloads have one caller), so a span's parent is the
span one level up whose interval contains it; :func:`nest` rebuilds
that tree and :func:`bench_e2e.stats.self_times` turns it into self
times.  :func:`incomplete_calls` checks that every engine call reached
the kernel through every wrapped layer.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Callable

from bench_e2e.load import clock
from bench_e2e.stats import self_times

from repro.obs.requests import RequestRecorder


def _rows(args) -> int:
    first = args[0] if args else ()
    return len(first) if hasattr(first, "__len__") else 0


def _coalesced_rows(args) -> int:
    return sum(len(x) for x in args[0]) if args else 0


class SpanLog:
    """Layer spans recorded from outside the library."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object, bool]] = []
        self.recording = False

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        depth: int,
        *,
        coalesced: bool = False,
        after: Callable[[object], None] | None = None,
    ) -> None:
        """Time every call of ``obj.<attr>`` as a ``name`` span."""
        original = getattr(obj, attr)
        count = _coalesced_rows if coalesced else _rows
        spans, lock = self.spans, self._lock

        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                with lock:
                    spans.append((depth, name, start, end, count(args)))
                if after is not None:
                    after(obj)

        own = attr in getattr(obj, "__dict__", {})
        object.__setattr__(obj, attr, traced)
        self._restore.append((obj, attr, original, own))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back."""
        for obj, attr, original, own in reversed(self._restore):
            if own:
                object.__setattr__(obj, attr, original)
            else:
                object.__delattr__(obj, attr)
        self._restore.clear()

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()


def nest(spans) -> tuple[list[tuple], int]:
    """Give each span the containing span one level up as its parent.

    Spans of one level never overlap (engine calls are serialized), so
    the candidate parent is the last one that started before the child.
    Returns ``(tree, orphans)``: ``tree`` holds ``(id, parent, name,
    start, end)`` tuples for :func:`bench_e2e.stats.self_times`, and
    ``orphans`` counts spans below depth 0 that no parent contains
    (they are dropped, which breaks the tiling check).
    """
    levels: dict[int, list[tuple[float, float, int]]] = {}
    for sid, (depth, _name, start, end, _docs) in enumerate(spans):
        levels.setdefault(depth, []).append((start, end, sid))
    for level in levels.values():
        level.sort()
    starts = {d: [s for s, _e, _i in level] for d, level in levels.items()}
    tree = []
    orphans = 0
    for sid, (depth, name, start, end, _docs) in enumerate(spans):
        parent = None
        if depth > 0:
            level = levels.get(depth - 1, [])
            k = bisect.bisect_right(starts.get(depth - 1, []), start) - 1
            if k >= 0 and level[k][1] >= end:
                parent = level[k][2]
            else:
                orphans += 1
                continue
        tree.append((sid, parent, name, start, end))
    return tree, orphans


def incomplete_calls(spans, deepest: int) -> int:
    """Depth-0 spans that do not contain a span at every depth from 1
    to ``deepest``."""
    levels: dict[int, list[tuple[float, float]]] = {}
    for depth, _name, start, end, _docs in spans:
        levels.setdefault(depth, []).append((start, end))
    for level in levels.values():
        level.sort()
    broken = 0
    for start, end in levels.get(0, []):
        for depth in range(1, deepest + 1):
            level = levels.get(depth, [])
            k = bisect.bisect_left(level, (start, float("-inf")))
            if k == len(level) or level[k][1] > end:
                broken += 1
                break
    return broken


def layer_self_times(spans) -> tuple[dict[str, float], float, int]:
    """Self seconds per span name, root wall seconds, and orphans."""
    tree, orphans = nest(spans)
    roots = sum(end - start for _s, parent, _n, start, end in tree if parent is None)
    return self_times(tree), roots, orphans


class StageTotals(RequestRecorder):
    """A :class:`RequestRecorder` that also sums every request's
    stage durations, so per-stage means cover all requests rather
    than the flight recorder's bounded sample."""

    def __init__(self) -> None:
        super().__init__(enabled=True)
        self.totals: dict[str, float] = {}
        self.requests = 0

    def finish(self, ctx, *, status, now_s, slo_us=None, slo_miss=False):
        super().finish(
            ctx, status=status, now_s=now_s, slo_us=slo_us, slo_miss=slo_miss
        )
        if status != "ok":
            return
        self.requests += 1
        for stage in ctx.stages:
            self.totals[stage.name] = (
                self.totals.get(stage.name, 0.0) + stage.duration_us
            )

    def mean_us(self, stage: str) -> float:
        return self.totals.get(stage, 0.0) / self.requests if self.requests else 0.0
