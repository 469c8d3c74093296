"""Engine-level tracing: complete span trees, determinism, fairness gauges."""

import pytest

from repro.games.fgt import FGTSolver
from repro.obs import build_span_trees
from repro.obs.metrics import METRICS, reset_metrics
from repro.obs.tracer import SAMPLE_ENV_VAR, MemoryTracer, start_trace
from repro.service.engine import DispatchEngine
from repro.service.faults import FaultPlan

from tests.service.conftest import gm_world, make_world


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield
    reset_metrics()


def _engine(trace=False, **kwargs):
    return DispatchEngine(
        make_world(),
        FGTSolver(epsilon=0.8),
        epsilon=0.8,
        seed=7,
        trace=trace,
        **kwargs,
    )


def _fingerprint(result):
    return (
        {c: dict(per) for c, per in result.assignments.items()},
        dict(result.payoffs),
        result.payoff_difference,
    )


class TestSpanTreeCompleteness:
    def test_legacy_round_is_one_rooted_tree(self):
        tracer = MemoryTracer()
        engine = _engine(trace=tracer)
        engine.dispatch()
        forest = build_span_trees(
            [self._parse(r) for r in tracer.records]
        )
        assert forest.orphans == []
        [trace_id] = forest.roots
        roots = forest.roots[trace_id]
        round_roots = [
            n for n in roots if n.record.kind == "service.round"
        ]
        assert len(round_roots) == 1

    def test_fault_tolerant_parallel_round_has_no_orphans(self):
        # The deadline thread must not break causality: every center span
        # and rung span reconnects to its round across the thread hop.
        tracer = MemoryTracer()
        engine = _engine(trace=tracer, solve_deadline_s=30.0)
        engine.dispatch()
        forest = build_span_trees([self._parse(r) for r in tracer.records])
        assert forest.orphans == []
        [trace_id] = forest.roots
        [root] = [
            n
            for n in forest.roots[trace_id]
            if n.record.kind == "service.round"
        ]
        centers = [
            c for c in root.children if c.record.kind == "service.center_solve"
        ]
        assert {c.record.fields["center"] for c in centers} == {"A", "B"}
        for center in centers:
            rungs = [
                r for r in center.children if r.record.kind == "service.rung"
            ]
            assert rungs, "each center solve must show its ladder rungs"
            assert rungs[0].record.fields["rung"] == "primary"

    def test_chaos_round_spans_record_failed_attempts(self):
        tracer = MemoryTracer()
        engine = _engine(
            trace=tracer,
            solve_deadline_s=30.0,
            faults=FaultPlan.from_spec("seed=3,error_rate=1.0,max_round=1"),
        )
        engine.dispatch()
        rungs = [r for r in tracer.records if r["kind"] == "service.rung"]
        assert any("error" in r for r in rungs), (
            "injected faults must surface as error-annotated rung spans"
        )
        forest = build_span_trees([self._parse(r) for r in tracer.records])
        assert forest.orphans == []

    def test_ambient_context_adopts_external_trace(self):
        # An HTTP request's start_trace must become the round's ancestor
        # instead of the engine minting its own trace id.
        tracer = MemoryTracer()
        engine = _engine(trace=tracer)
        with start_trace("09" * 8):
            engine.dispatch()
        rounds = [r for r in tracer.records if r["kind"] == "service.round"]
        assert rounds and all(r["trace"] == "09" * 8 for r in rounds)

    @staticmethod
    def _parse(record):
        import json

        from repro.obs.reader import parse_record

        return parse_record(json.dumps(record))


class TestTracingDeterminism:
    """Tracing is observation: assignments must be bit-identical with it."""

    @pytest.mark.parametrize(
        "seed, world",
        [pytest.param(seed, make_world, id=str(seed)) for seed in (0, 1, 7, 23)]
        + [pytest.param(0, lambda: gm_world(60, 14, 30), id="smoke-0")],
    )
    def test_seed_sweep_trace_on_off_identical(self, seed, world, monkeypatch):
        def run(trace):
            engine = DispatchEngine(
                world(),
                FGTSolver(epsilon=0.8),
                epsilon=0.8,
                seed=seed,
                trace=trace,
            )
            return _fingerprint(engine.dispatch())

        disabled = run(False)
        monkeypatch.setenv(SAMPLE_ENV_VAR, "1")
        traced = MemoryTracer()
        assert run(traced) == disabled
        assert traced.records
        # Sample rate 0: a live tracer whose every trace is head-sampled
        # away, so span context is carried but nothing is recorded.
        monkeypatch.setenv(SAMPLE_ENV_VAR, "0")
        sampled_out = MemoryTracer()
        assert run(sampled_out) == disabled
        assert not sampled_out.records

    def test_fault_tolerant_path_is_trace_invariant(self):
        def run(trace):
            engine = _engine(trace=trace, solve_deadline_s=30.0)
            return _fingerprint(engine.dispatch())

        assert run(False) == run(MemoryTracer())


class TestFairnessGauges:
    def test_round_gini_and_jain_gauges_set(self):
        engine = _engine()
        result = engine.dispatch()
        assert result.payoffs, "seeded world must assign at least one worker"
        snap = METRICS.snapshot()
        assert 0.0 <= snap["fairness.round_gini"] <= 1.0
        assert 0.0 < snap["fairness.round_jain"] <= 1.0
        assert snap["fairness.worker_payoff.count"] == len(result.payoffs)

    def test_payoff_histogram_accumulates_across_rounds(self):
        engine = _engine()
        first = engine.dispatch()
        engine.state.add_tasks(
            [
                {"task_id": "late1", "dp_id": "a1", "expiry": 5.0},
                {"task_id": "late2", "dp_id": "b1", "expiry": 5.0},
            ]
        )
        second = engine.dispatch(advance_hours=0.1)
        expected = len(first.payoffs) + len(second.payoffs)
        assert METRICS.snapshot()["fairness.worker_payoff.count"] == expected

    def test_empty_round_leaves_gauges_untouched(self):
        engine = DispatchEngine(
            make_world(with_tasks=False),
            FGTSolver(epsilon=0.8),
            epsilon=0.8,
            seed=7,
        )
        engine.dispatch()
        snap = METRICS.snapshot()
        assert "fairness.round_gini" not in snap
