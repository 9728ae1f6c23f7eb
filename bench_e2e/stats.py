"""Pure helpers: span self times from nested intervals."""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple]) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` holds ``(span_id, parent_id, name, start, end)`` tuples;
    a span's self time is its duration minus the part of its interval
    its direct children cover (children running in parallel threads
    overlap, so their union is subtracted, not their sum).
    """
    children: dict[object, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        own = (end - start) - covered(children.get(sid, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals

