"""End-to-end and per-layer serving benchmark (``BENCHMARK.json``).

``python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds seeded inputs, drives them through the public serving API and
prints one JSON result line.  See ``bench_e2e/README.md``.
"""
