# Convenience entry points; all targets assume the repo root as cwd.
# CI (.github/workflows/ci.yml) runs exactly these targets, so a green
# `make lint test perf-smoke` locally is a green pipeline.

PY ?= python

.PHONY: test lint checks perf-smoke bench

# Tier-1 verification: the full unit/integration suite.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# Static checks: ruff when installed (the CI path, via
# requirements-dev.txt), a stdlib AST fallback (syntax + unused imports)
# in hermetic environments without it — then the project-native
# repro.checks passes (determinism, transport-boundary, lifecycle,
# hot-path, stats-registry), all from the one lint.py entry point.
lint:
	$(PY) tools/lint.py src tests benchmarks tools

# The repro.checks driver alone (what the dedicated CI step runs, with
# a JSON report artifact).
checks:
	PYTHONPATH=src $(PY) -m repro.checks

# Reproducible engine-performance smoke: EXP-8 (chase/homomorphism/rewriting
# throughput), EXP-12 (incremental vs naive trigger enumeration), EXP-13
# (batched delta closure vs naive, gated on exact matcher work), EXP-14
# (persistent delta-fed workers vs the inline engine), EXP-15 (delta-driven restricted
# satisfaction + sharded restricted firing vs the interleaved reference),
# EXP-16 (worker-resident satisfaction for mixed restricted rounds) and
# EXP-17 (goal-directed answer() serving vs full saturation), with GC
# disabled during timing so numbers are comparable across runs.  Tables
# land in benchmarks/results/.  The budget check then gates the freshly
# written BENCH_exp14.json pipe bytes against
# benchmarks/transport_budget.json — transport bytes are deterministic,
# so exceeding a budget is a real protocol regression.
# The telemetry check then asserts every BENCH_*.json embeds a
# schema-versioned metrics-registry snapshot (benchmarks/conftest.emit_json
# stamps it) and that the perf-smoke artifact set is complete.
perf-smoke:
	PYTHONPATH=src $(PY) -m pytest \
	    benchmarks/bench_exp8_performance.py \
	    benchmarks/bench_exp12_incremental.py \
	    benchmarks/bench_exp13_closure.py \
	    benchmarks/bench_exp14_persistent.py \
	    benchmarks/bench_exp15_restricted.py \
	    benchmarks/bench_exp16_mixed.py \
	    benchmarks/bench_exp17_serving.py \
	    -q --benchmark-disable-gc
	$(PY) tools/check_transport_budget.py
	$(PY) tools/check_bench_telemetry.py

# The full experiment battery (slow).
bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks -q --benchmark-disable-gc
