"""One spec-driven table for every metric-series report.

Each subsystem module declares a :class:`ReportSpec` and reads its
series back with :func:`build_report`; ``docs/observability.md``
("Reports") describes the fold and lists every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.utils.tables import format_table

NAN = float("nan")


@dataclass(frozen=True)
class Column:
    """One column: ``value(slot)``, rendered under ``header`` with ``fmt``
    (a format spec or a callable).  A ``None`` header keeps the column
    out of the rendering; NaN renders as ``-``."""

    name: str
    header: str | None
    value: Callable[[dict], Any]
    fmt: str | Callable[[Any], str] = ""

    def cell(self, value: Any) -> str:
        if isinstance(value, float) and math.isnan(value):
            return "-"
        if callable(self.fmt):
            return self.fmt(value)
        return format(value, self.fmt)


@dataclass(frozen=True)
class TableSpec:
    """The series a table reads (a name prefix, or a tuple of exact
    names), the labels keying its rows and its columns.

    A ``None`` title keeps the table out of the rendering; a key-less
    table has one row, the report's :attr:`~Report.totals`.  ``parse``
    converts a key label's value (rows sort on the result).
    """

    title: str | None
    series: str | tuple[str, ...]
    keys: tuple[str, ...]
    columns: tuple[Column, ...]
    parse: Mapping[str, Callable[[str], Any]] = field(default_factory=dict)

    def reads(self, name: str) -> bool:
        if isinstance(self.series, str):
            return name.startswith(self.series)
        return name in self.series


@dataclass(frozen=True)
class ReportSpec:
    """Named tables, the empty-registry line and an optional footer
    (``footer(report)``; an empty string omits it)."""

    tables: Mapping[str, TableSpec]
    empty: str
    footer: Callable[[Report], str] | None = None


@dataclass(frozen=True)
class Table:
    """One table's rows, in key order."""

    spec: TableSpec
    rows: tuple[dict, ...]

    def row(self, *key: Any) -> dict | None:
        """The row whose key label values equal ``key``, else ``None``."""
        for row in self.rows:
            if tuple(row[k] for k in self.spec.keys) == key:
                return row
        return None

    def render(self) -> str:
        keys = self.spec.keys
        shown = [c for c in self.spec.columns if c.header is not None]
        return format_table(
            [*keys, *(c.header for c in shown)],
            (
                [*(str(row[k]) for k in keys)]
                + [c.cell(row[c.name]) for c in shown]
                for row in self.rows
            ),
            title=self.spec.title,
        )


@dataclass(frozen=True)
class Report:
    """Every table of a spec; ``rows`` and ``row`` read the first one.
    ``recorded`` says whether the registry held any series they read."""

    spec: ReportSpec
    tables: dict[str, Table]
    recorded: bool

    @property
    def rows(self) -> tuple[dict, ...]:
        return next(iter(self.tables.values())).rows

    def row(self, *key: Any) -> dict | None:
        return next(iter(self.tables.values())).row(*key)

    @property
    def totals(self) -> dict:
        """The row of the key-less table (empty without one)."""
        for table in self.tables.values():
            if not table.spec.keys:
                return table.rows[0]
        return {}

    def render(self) -> str:
        if not self.recorded:
            return self.spec.empty
        parts = [
            t.render()
            for t in self.tables.values()
            if t.spec.title is not None and t.rows
        ]
        footer = self.spec.footer(self) if self.spec.footer else ""
        if footer:
            parts.append(parts.pop() + "\n" + footer if parts else footer)
        return "\n\n".join(parts)


def build_report(
    spec: ReportSpec, registry: MetricsRegistry | None = None
) -> Report:
    """Fold the registry's series into ``spec``'s tables.

    Per key, counters are summed over the other labels (and kept split
    per other label under ``(name, label)``), gauges keep their value
    and histograms give their snapshot.  Each column's value is stored
    back into the slot, so a ratio reads the columns before it.
    """
    registry = registry or get_registry()
    slots: dict[str, dict[tuple, dict]] = {
        name: {} if t.keys else {(): {}} for name, t in spec.tables.items()
    }
    recorded = False
    for (name, label_pairs), metric in registry.items():
        labels = dict(label_pairs)
        for table_name, table in spec.tables.items():
            if not table.reads(name):
                continue
            try:
                key = tuple(
                    table.parse.get(k, str)(labels[k]) for k in table.keys
                )
            except (KeyError, ValueError):
                continue
            slot = slots[table_name].setdefault(key, {})
            if metric.kind == "counter":
                slot[name] = slot.get(name, 0.0) + metric.value
                for label, part in labels.items():
                    if label not in table.keys:
                        split = slot.setdefault((name, label), {})
                        split[part] = split.get(part, 0.0) + metric.value
            elif metric.kind == "gauge":
                slot[name] = metric.value
            else:
                slot[name] = metric.snapshot()
            recorded = True
    tables = {}
    for table_name, table in spec.tables.items():
        rows = []
        for key, slot in sorted(slots[table_name].items()):
            row = dict(zip(table.keys, key))
            for column in table.columns:
                row[column.name] = slot[column.name] = column.value(slot)
            rows.append(row)
        tables[table_name] = Table(table, tuple(rows))
    return Report(spec, tables, recorded)


def count(series: str) -> Callable[[dict], int]:
    """A counter's total as an int (0 when unrecorded)."""
    return lambda slot: int(slot.get(series, 0))


def value(series: str, default: float = NAN) -> Callable[[dict], float]:
    """A gauge's (or counter's) value, ``default`` when unrecorded."""
    return lambda slot: slot.get(series, default)


def stat(series: str, name: str) -> Callable[[dict], float]:
    """One field of a histogram's snapshot (NaN when unrecorded)."""
    return lambda slot: slot.get(series, {}).get(name, NAN)


def ratio(
    num: str, den: str | tuple[str, ...], empty: float = NAN
) -> Callable[[dict], float]:
    """Column ``num`` over column ``den`` (or the sum of several),
    ``empty`` when that is 0."""
    dens = (den,) if isinstance(den, str) else den

    def _ratio(slot: dict) -> float:
        total = sum(slot[d] for d in dens)
        return slot[num] / total if total else empty

    return _ratio
