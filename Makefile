# Convenience targets for the FTA reproduction.

.PHONY: install test verify trace serve chaos bench-figures bench-paper examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Run FGT+IEGT under the runtime invariant checkers (repro/verify/), then
# the verification test suite itself.
verify:
	python -m repro verify --experiment fig3 --seed 0
	pytest tests/verify tests/properties/test_metamorphic.py

# Trace the FGT hot loop into trace.jsonl and print the summary table.
trace:
	python -m repro trace --algo fgt --scale ci --seed 0 --output trace.jsonl

# Run the online dispatch service on a generated gMission-like city.
# Ctrl-C drains the in-flight round and dumps final metrics.
serve:
	python -m repro serve --algorithm fgt --epsilon 0.8 --seed 0

# The fault-tolerance suite: seeded chaos against the dispatch engine,
# journal crash recovery (including a real SIGKILL round trip), circuit
# breakers, and the fault-plan harness (docs/fault_tolerance.md).
chaos:
	pytest tests/service/test_chaos.py tests/service/test_recovery.py \
	    tests/service/test_journal.py tests/service/test_faults.py \
	    tests/service/test_breaker.py

# The paper-figure benchmark suite (pytest-benchmark over the experiments).
bench-figures:
	pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_BENCH_SCALE=paper pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do echo "=== $$f ==="; python $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
