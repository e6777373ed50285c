# Convenience targets; see README.md for details.

# Where bench-smoke writes its pytest-benchmark snapshot.  CI overrides
# this (BENCH_JSON=BENCH_fresh.json) so a fresh run never clobbers the
# committed BENCH_micro.json baseline it is gated against.
BENCH_JSON ?= BENCH_micro.json
PYTHON ?= python

.PHONY: install lint test bench bench-smoke bench-check claims perfbench-smoke trace-smoke ts-smoke serve-smoke live-obs-smoke spans-smoke charts examples report csv all clean

install:
	$(PYTHON) setup.py develop

# Ruff is a dev-only dependency (CI installs it); skip gracefully where
# it is not available so `make all` works in minimal containers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

test:
	PYTHONPATH=src pytest tests/

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Quick throughput record: microbenchmarks only (FAST_EVENTS traces),
# with the results -- including events/sec in extra_info -- written to
# a BENCH_*.json snapshot for before/after comparisons.
bench-smoke:
	PYTHONPATH=src pytest benchmarks/test_bench_micro.py --benchmark-only \
		--benchmark-disable-gc --benchmark-json=$(BENCH_JSON) -q

# Perf-regression gate: fresh bench-smoke vs. the committed baseline.
# The replay fast-path benches run with observability off and are held
# to the strict 5% bar: dormant tracing instrumentation must be free.
bench-check:
	$(MAKE) bench-smoke BENCH_JSON=BENCH_fresh.json
	$(PYTHON) scripts/check_bench.py --baseline BENCH_micro.json \
		--fresh BENCH_fresh.json \
		--strict test_system_replay_throughput \
		--strict test_aggregating_replay_fast_throughput \
		--strict test_columnar_kernel_v2_replay_throughput \
		--strict test_array_lru_throughput \
		--strict test_columnar_scan_pure_int_throughput

# The paper's claims: the qualitative assertions of Figures 3-8, the
# headline numbers, the ablations and the extensions, with timing off.
claims:
	PYTHONPATH=src pytest benchmarks/test_bench_fig3.py benchmarks/test_bench_fig4.py \
		benchmarks/test_bench_fig5.py benchmarks/test_bench_fig7.py \
		benchmarks/test_bench_fig8.py benchmarks/test_bench_headline.py \
		benchmarks/test_bench_ablation.py benchmarks/test_bench_extensions.py \
		--benchmark-disable

# The benchmark's correctness checks: one short traced perfbench run per
# workload (CI runs one workload per job via PERFBENCH_WORKLOADS).  Each
# run must exit 0 and end on a line with "correct": true and "failed": 0.
# No timing is gated.
PERFBENCH_WORKLOADS ?= replay-hit replay-miss sweep-fig3 serve-mixed
PERFBENCH_CHECK = import json, sys; r = json.loads(sys.stdin.read()); \
	sys.exit(r["correct"] is not True or r["failed"] != 0)
perfbench-smoke:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		echo "== perfbench $$workload"; \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 2 --trace 1) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c '$(PERFBENCH_CHECK)' \
			|| { echo "perfbench $$workload: not correct or failed > 0"; exit 1; }; \
	done

# Tracing smoke: record a real traced replay, then validate the JSONL
# export against the repro.trace/1 schema and its own meta accounting.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro explain --workload server \
		--events 4000 --cache-size 150 --out trace_smoke.jsonl
	PYTHONPATH=src $(PYTHON) scripts/check_trace.py trace_smoke.jsonl

# Time-series smoke: record a windowed replay, then validate the JSONL
# export (repro.ts/1 schema, monotone windows, Prometheus text parses)
# and confirm the drift scanner runs end-to-end on the same series.
ts-smoke:
	PYTHONPATH=src $(PYTHON) -m repro metrics --workload server \
		--events 6000 --window 500 --ts-out ts_smoke.jsonl
	PYTHONPATH=src $(PYTHON) scripts/check_timeseries.py ts_smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro drift ts_smoke.jsonl --history 4

# Serve/slam smoke: start the daemon on the CI scenario, slam it from
# worker processes, and assert the served hit-ratio matches an
# in-process replay of the daemon's own journal (exactly, in practice;
# 1% is the acceptance bound), then SIGTERM and expect a clean exit.
serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/check_serve.py scenarios/smoke.json \
		--events 5000 --workers 2

# Live-observability smoke: daemon with access log + event-count
# telemetry windows; stream /stats?since= during a slam and assert the
# windowed counters converge to the lifetime counters, drift --url is
# clean on the steady phase, then exits 2 on an injected workload shift
# (uniform-random opens over a wide namespace), access log is valid
# JSONL with monotonic ids, SIGTERM exits cleanly.
live-obs-smoke:
	PYTHONPATH=src $(PYTHON) scripts/check_live_obs.py scenarios/smoke.json \
		--events 6000 --workers 2

# Request-tracing smoke: traced slam against a traced daemon, then
# assert every client span pairs with a server span of the same trace
# id, the cache.fetch annotations reconcile exactly with /stats, and
# the `repro spans` merger emits a valid multi-process Chrome trace.
spans-smoke:
	PYTHONPATH=src $(PYTHON) scripts/check_spans.py scenarios/smoke.json \
		--events 4000 --workers 2

charts:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

report:
	PYTHONPATH=src $(PYTHON) -m repro report --events 60000 --out results/report.md

csv:
	PYTHONPATH=src $(PYTHON) scripts/export_csv.py

all: lint test bench examples

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	rm -f BENCH_fresh.json trace_smoke.jsonl ts_smoke.jsonl
	find . -name __pycache__ -type d -exec rm -rf {} +
