# Development entry points.  The environment this repo was built in has
# no `wheel` package, hence the setup.py fallback; on normal machines
# `pip install -e .[test]` works directly.

.PHONY: install test test-fast test-slow bench bench-engine bench-diff \
    verify verify-deep harness-quick harness-full runs-report blame \
    watch postmortem examples clean

# window size for runs-report (make runs-report N=25)
N ?= 10

install:
	pip install -e .[test] || python setup.py develop

test:
	pytest tests/

# the CI shards (marker registry in pyproject): fast unit/differential
# tests vs the multi-minute end-to-end bit-identity guards
test-fast:
	pytest tests/ -m "not slow"

test-slow:
	pytest tests/ -m slow

bench:
	pytest benchmarks/ --benchmark-only

# schedule-exploration checker for the queue family (docs/verification.md)
verify:
	python -m repro.verify --quick --out counterexamples

verify-deep:
	python -m repro.verify --deep --keep-going --out counterexamples

bench-engine:
	python tools/bench_engine.py --quick --out BENCH_engine.json

# fresh quick bench diffed against the committed baseline (exit 1 on regression)
bench-diff:
	python tools/bench_engine.py --quick --no-ledger --out bench_now.json
	python tools/bench_diff.py BENCH_engine.json bench_now.json

# last N ledger runs with a verdict vs each run's predecessor
runs-report:
	python -m repro.harness runs report -n $(N)

# stall attribution + causal what-if for a quick BFS run (docs/blame.md)
blame:
	python -m repro.harness blame bfs --quick --out results/blame

# live dashboard over a runlog (make watch RUN=results/run.jsonl)
RUN ?= results/run.jsonl
watch:
	python -m repro.harness watch $(RUN)

# render the newest post-mortem bundle from a failed --flight run
postmortem:
	python -m repro.harness postmortem show

harness-quick:
	python -m repro.harness all --quick --out results-quick/

harness-full:
	python -m repro.harness all --out results/

examples:
	python examples/quickstart.py
	python examples/roadmap_routing.py
	python examples/social_reach.py
	python examples/nqueens_tasks.py
	python examples/taskdag_pipeline.py
	python examples/queue_profiling.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	    benchmarks/reports results-quick
	find . -name __pycache__ -type d -exec rm -rf {} +
