PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check claims \
	bench bench-smoke bench-pairs obs-demo monitor-demo chaos-smoke \
	bottlenecks-demo counters-demo

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.lint src/repro

check: lint test

# The paper-claim suite (EXPERIMENTS.md findings); REPRO_WORKERS=N runs
# its sweeps on N worker processes.  It rewrites benchmarks/reports/.
claims:
	$(PYTHON) -m pytest -p no:benchmark -q benchmarks/

bench:
	$(PYTHON) perfbench/run.py --out perfbench_full.json

# Exits non-zero on any failed check: every workload's seed-1 output
# digest is pinned in perfbench/run.py.
bench-smoke:
	$(PYTHON) perfbench/run.py --smoke --out perfbench_smoke.json

# Alternating full-run pairs of BASE and this checkout, judged metric by
# metric (tools/bench_pairs.py); not run in CI.
BASE ?= HEAD
PAIRS ?= 10
bench-pairs:
	$(PYTHON) tools/bench_pairs.py $(BASE) --pairs $(PAIRS)

chaos-smoke:
	$(PYTHON) -m repro chaos --plan kill-and-partition \
		--alerts-out chaos_alerts.json --report-out chaos_report.json

obs-demo:
	$(PYTHON) -m repro obs --trace-out obs_demo.trace.json

monitor-demo:
	$(PYTHON) -m repro monitor --experiment fig2 \
		--timeline-out monitor_fig2.trace.json \
		--alerts-out monitor_fig2.alerts.json

# Exits non-zero unless the offline report and the online BOTTLENECK
# alert both attribute the perturbed node (ccn007).  --metrics prints the
# obs snapshot on stderr, with the peak RSS at the end of each phase
# (bottleneck.maxrss_mb.{run,harvest,report}).
bottlenecks-demo:
	$(PYTHON) -m repro analyze bottlenecks --experiment fig2 \
		--report-out bottleneck_fig2.json --metrics

# Exits non-zero unless the cache thrasher is flagged by the counter
# dimension (COUNTER_OUTLIER) while every time-rate detector stays
# silent — the §6 PMU-extension acceptance gate.
counters-demo:
	$(PYTHON) -m repro analyze counters --report-out counters_fig2.json
