# Development entry points.  The suite is wall-clock guarded twice: every test
# runs under a per-test timeout (pytest-timeout when installed, the SIGALRM
# shim in conftest.py otherwise), and the tier-1 target wraps the whole run in
# a hard `timeout` so a hang fails the build instead of wedging it.

PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}
TIER1_WALL_CLOCK ?= 300

.PHONY: test tier1 test-slow test-differential test-chaos test-chaos-disk analyze typecheck bench-engine bench-parallel bench-compile bench-structure bench-vector bench-lifted bench-resilience bench-store bench-lineage bench-data bench-paper bench

# Static invariant checker (see README "Static invariants"): AST/call-graph
# rules gating the kernel contracts. Fails on any finding.
analyze:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis --strict src/repro

# mypy wiring lives in pyproject.toml; strict for the analyzer, the engine,
# the artifact store, and the lifted tier, permissive elsewhere. Requires
# mypy on PATH (CI installs it).
typecheck:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m mypy src/repro/analysis src/repro/engine src/repro/probability/lifted src/repro/store

test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q

tier1:
	timeout $(TIER1_WALL_CLOCK) env PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

test-slow:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q --runslow

test-differential:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q --runslow tests/test_differential.py tests/test_structure_oracle.py

# Fault-injection suite: seeded worker kills, stragglers, allocation failures,
# and shared-memory sabotage against the parallel engine (marker: chaos).
test-chaos:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q -m chaos tests/test_faults.py

# Disk fault-injection suite: torn writes, bit flips, ENOSPC, and lock steals
# against the persistent artifact store (marker: chaos).
test-chaos-disk:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q -m chaos tests/test_store_faults.py

bench-engine:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_engine.py

bench-parallel:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_parallel.py

bench-compile:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_compile.py

bench-structure:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_structure.py

bench-vector:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_vector.py

bench-lifted:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_lifted.py

bench-resilience:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_resilience.py

bench-store:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_store.py

bench-lineage:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_lineage.py

bench-data:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_data.py

# The paper's Table 2 rows and theorems (benchmarks/bench_e*.py, bench_a*.py)
# as tests, each timed call run once.
bench-paper:
	timeout 120 env PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q benchmarks/bench_e*.py benchmarks/bench_a*.py --benchmark-disable

bench:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q benchmarks
