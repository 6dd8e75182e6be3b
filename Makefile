# Convenience targets for the repro toolkit.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-batched bench-sampling sampling-gate perfbench-selftest chaos examples experiments lint typecheck check clean

install:
	pip install -e .[dev]

test:
	$(PYTHON) -m pytest tests/

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# The CI smoke subset: reduced traces through the sweep engine, then the
# regression gate against benchmarks/expected/. Mirrors the `benchmarks`
# CI job (see .github/workflows/ci.yml and docs/sweeps.md).
bench-smoke:
	REPRO_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_fig2_mpki.py benchmarks/bench_fig3_speedup.py \
		--benchmark-only -q
	REPRO_SMOKE=1 $(PYTHON) benchmarks/check_regression.py

# The batched-engine smoke mirror of bench-smoke: prove the batched
# multi-cell engine bit-identical to the reference, append a throughput
# entry to BENCH_sweep.json, and gate it against the last entry
# (see docs/performance.md and .github/workflows/ci.yml).
bench-batched:
	PYTHONPATH=src $(PYTHON) -m repro verify-fastpath --engine batched \
		--accesses 6000
	REPRO_SMOKE=1 PYTHONPATH=src $(PYTHON) benchmarks/record_trajectory.py
	REPRO_SMOKE=1 $(PYTHON) benchmarks/check_regression.py --trajectory

# The sampling mirror of bench-batched: measure sampled-vs-full error
# on the smoke suites, append an entry to BENCH_sampling.json, and gate
# it against the committed error budget (see docs/sampling.md and the
# `sampling-gate` CI job). Recording is guarded: use
# `record_sampling.py --force` directly when re-baselining from a
# dirty tree.
bench-sampling:
	REPRO_SMOKE=1 PYTHONPATH=src $(PYTHON) benchmarks/record_sampling.py
	REPRO_SMOKE=1 $(PYTHON) benchmarks/check_regression.py --sampling

# Self-tests of the repository benchmark (perfbench/, see its README):
# each workload at toy size, plain and traced, in subprocesses (~1-2
# min). Outside tier-1's testpaths; the `perfbench-selftest` CI job runs
# this target.
perfbench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

# Deterministic fault injection, both generations: classic worker-level
# faults (crash/hang/corruption/truncation), then the chaos v2 failure
# domains — whole-process SIGKILL + journal resume, disk-full cache
# degradation, and a memory-bomb cell against the RSS watchdog. Every
# scenario must recover bit-identically (see docs/resilience.md).
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 7 --jobs 2 --cell-timeout 10
	PYTHONPATH=src $(PYTHON) -m repro chaos --scenario v2 --seed 7

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/policy_shootout.py
	$(PYTHON) examples/opt_headroom.py
	$(PYTHON) examples/graph_cache_study.py
	$(PYTHON) examples/complexity_vs_benefit.py

experiments:
	$(PYTHON) -m repro experiment table1
	$(PYTHON) -m repro experiment e11

# Whole-program static analyzer (always available, baseline-gated, same
# strictness as the CI `lint` job) + ruff (if installed).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --strict
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping style checks (CI runs them)"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping type checks (CI runs them)"; \
	fi

# Gate-only half of bench-sampling: validate the committed
# BENCH_sampling.json against the error budget without re-measuring
# (seconds, no simulation — safe for every `make check`).
sampling-gate:
	$(PYTHON) benchmarks/check_regression.py --sampling

# Everything CI gates on short of the test matrix: repro lint --strict,
# ruff and mypy (the latter two when installed), plus the sampling
# error-budget gate over the checked-in trajectory.
check: lint typecheck sampling-gate

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
