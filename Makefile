# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test test-fast verify bench-test smoke bench examples report clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x

# Tier-1 gate: the full suite plus a bytecode compile of the library.
verify: bench-test
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(PYTHON) -m compileall -q src

# End-to-end benchmark's own tests (~35 s): a library rename that breaks
# the hooks bench_e2e wraps fails here, before a benchmark run.
bench-test:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q bench_e2e

# Seconds-fast sanity check: build + price one scorer of every backend.
smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_runtime_smoke.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/latency_budget_design.py
	$(PYTHON) examples/matmul_anatomy.py
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/forest_tuning.py
	$(PYTHON) examples/scoring_service.py
	$(PYTHON) examples/resilient_service.py
	$(PYTHON) examples/parallel_scoring.py

report:
	$(PYTHON) examples/experiment_report.py experiment_report.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
