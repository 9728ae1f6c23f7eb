"""Self-checking observability smoke run (``make obs-smoke``).

Runs the three-model probe with tracing enabled, renders every
exporter, and *asserts* the output is well-formed: the JSON document
parses and carries spans plus metric series, the Prometheus text obeys
the exposition grammar, and the drift report covers the QuickScorer and
compiled-network backends.  Exits non-zero on any violation, so CI can
gate on ``python -m repro.obs.smoke``.
"""

from __future__ import annotations

import json
import re
import sys

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?[0-9].*|[+-]Inf)$"
)

REQUIRED_BACKENDS = ("quickscorer", "compiled-network")


def check_json(text: str) -> None:
    doc = json.loads(text)
    assert "trace" in doc and "metrics" in doc, "snapshot missing sections"
    assert doc["trace"], "no spans recorded with tracing enabled"
    assert doc["metrics"]["series"], "no metric series recorded"
    for root in doc["trace"]:
        assert root["finished"], f"unfinished root span {root['name']!r}"


def check_prometheus(text: str) -> None:
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"


def main() -> int:
    from repro import obs
    from repro.obs.probe import run_probe

    obs.set_tracer(obs.Tracer(enabled=True))
    obs.set_registry(obs.MetricsRegistry())

    with obs.span("obs.smoke"):
        run_probe(n_queries=12, docs_per_query=10)

    check_json(obs.render_json())
    check_prometheus(obs.render_prometheus())

    report = obs.drift_report()
    for backend in REQUIRED_BACKENDS:
        row = report.row(backend)
        assert row is not None and row.requests > 0, (
            f"no drift series for backend {backend!r}"
        )
    print(report.render())
    print("obs-smoke: exporters well-formed, drift series complete")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
