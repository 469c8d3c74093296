"""Tests for repro.service.engine (micro-batch dispatch rounds).

Includes the subsystem's two acceptance criteria: a service round over a
frozen snapshot is bit-identical to an offline ``run_algorithms`` FGT solve
of that snapshot, and warm-cache rounds under churn are bit-identical to
cold-cache rounds while unchanged centers produce cache hits.
"""

import pytest

from repro.baselines.gta import GTASolver
from repro.core.exceptions import InvariantViolation
from repro.experiments.runner import AlgorithmSpec, run_algorithms
from repro.games.fgt import FGTSolver
from repro.parallel import solve_instance
from repro.service.engine import DispatchEngine

from tests.conftest import make_worker
from tests.service.conftest import make_world, task


def _engine(seed=11, **kwargs):
    kwargs.setdefault("epsilon", 0.8)
    return DispatchEngine(
        make_world(), FGTSolver(epsilon=kwargs["epsilon"]), seed=seed, **kwargs
    )


class TestOfflineFidelity:
    """Acceptance: service rounds replay exactly as offline solves."""

    def test_round_matches_run_algorithms_bit_for_bit(self):
        engine = _engine(seed=11)
        snapshot = engine.state.snapshot()
        offline = run_algorithms(
            snapshot.instance(),
            [AlgorithmSpec("FGT", lambda eps: FGTSolver(epsilon=eps))],
            epsilon=0.8,
            seed=engine.round_seed(0),
        )[0]
        result = engine.dispatch()
        assert result.payoff_difference == offline.payoff_difference  # Eq. 2
        assert result.average_payoff == offline.average_payoff
        assert sorted(result.payoffs.values()) == sorted(offline.payoffs)

    @pytest.mark.parametrize(
        "solve_deadline_s", [None, 60.0], ids=["inline", "deadline"]
    )
    def test_round_routes_match_solve_instance(self, solve_deadline_s):
        # Every committed round replays offline, not just the first: fresh
        # workers and tasks arrive before rounds 1 and 2 (the clock stays
        # put), so each round solves against the previous commits.
        engine = _engine(seed=11, solve_deadline_s=solve_deadline_s)
        for i in range(3):
            if i:
                engine.state.add_workers(
                    [
                        make_worker(f"wa-{i}", 0.0, 0.2, max_dp=2, center_id="A"),
                        make_worker(f"wb-{i}", 10.0, 0.2, max_dp=2, center_id="B"),
                    ]
                )
                engine.state.add_tasks(
                    [task(f"ta-{i}", "a2", 1.3), task(f"tb-{i}", "b1", 1.3)]
                )
            snapshot = engine.state.snapshot()
            solution = solve_instance(
                snapshot.instance(),
                FGTSolver(epsilon=0.8),
                epsilon=0.8,
                seed=engine.round_seed(i),
                seed_stream="FGT",  # the engine passes solver.name
            )
            result = engine.dispatch()
            assert result.committed and result.round_index == i
            assert result.assigned_tasks > 0
            assert set(result.center_ids) == set(solution.assignments)
            for center_id, assignment in solution.assignments.items():
                assert result.assignments[center_id] == dict(
                    assignment.as_mapping()
                )
            assert result.payoff_difference == solution.payoff_difference
            assert result.average_payoff == solution.average_payoff

    def test_round_seed_is_reproducible(self):
        assert _engine(seed=3).round_seed(5) == _engine(seed=3).round_seed(5)
        assert _engine(seed=3).round_seed(5) != _engine(seed=4).round_seed(5)
        assert _engine(seed=3).round_seed(5) != _engine(seed=3).round_seed(6)

    def test_identical_engines_dispatch_identically(self):
        a = _engine(seed=7).dispatch()
        b = _engine(seed=7).dispatch()
        assert a.payoffs == b.payoffs
        assert a.assignments == b.assignments
        assert a.payoff_difference == b.payoff_difference


class TestWarmCache:
    """Acceptance: churn + warm cache stays bit-identical to cold cache."""

    @staticmethod
    def _drive(engine, cold=False):
        """Preview, churn one center, preview again, then commit."""
        results = []
        for churn in (None, [task("extra", "a1", 1.3)], None):
            if churn:
                engine.state.add_tasks(churn)
            if cold:
                engine.cache.clear()
            results.append(engine.dispatch(commit=False))
        results.append(engine.dispatch())
        return results

    def test_hits_on_unchanged_centers_results_identical(self):
        warm = _engine(seed=5)
        warm_rounds = self._drive(warm)
        cold = _engine(seed=5)
        cold_rounds = self._drive(cold, cold=True)

        # Round 1: only A churned, so B must be served from cache.
        assert warm_rounds[1].cache_hits == 1
        assert warm_rounds[1].cache_misses == 1
        # Rounds 2-3: nothing changed since round 1 -> all hits.
        assert warm_rounds[2].cache_hits == 2 and warm_rounds[2].cache_misses == 0
        assert warm_rounds[3].cache_hits == 2 and warm_rounds[3].cache_misses == 0
        assert cold_rounds[1].cache_hits == 0  # the control really is cold

        for w, c in zip(warm_rounds, cold_rounds):
            assert w.payoffs == c.payoffs
            assert w.assignments == c.assignments
            assert w.payoff_difference == c.payoff_difference
        assert warm.state.worker_stats() == cold.state.worker_stats()
        assert warm.state.pending_task_count == cold.state.pending_task_count

    def test_clock_advance_invalidates(self):
        engine = _engine(seed=5)
        engine.dispatch(commit=False)
        moved = engine.dispatch(advance_hours=0.05, commit=False)
        assert moved.cache_misses == 2 and moved.cache_hits == 0


class TestDispatchRounds:
    def test_commit_consumes_tasks_and_busies_workers(self):
        engine = _engine(seed=0)
        result = engine.dispatch()
        assert result.committed
        assert result.assigned_tasks > 0
        assert engine.state.pending_task_count == 6 - result.assigned_tasks
        assert result.available_workers < 3

    def test_dry_run_leaves_world_untouched(self):
        engine = _engine(seed=0)
        version = engine.state.version
        result = engine.dispatch(commit=False)
        assert not result.committed and result.assigned_tasks == 0
        assert engine.state.version == version
        assert engine.state.pending_task_count == 6
        assert engine.last_committed is None

    def test_expiry_and_advance_are_applied(self):
        engine = _engine(seed=0)
        engine.state.add_tasks([task("doomed", "a1", 0.3)])
        result = engine.dispatch(advance_hours=0.5, commit=False)
        assert result.now == 0.5
        assert result.expired_tasks == 1

    def test_empty_world_round(self):
        engine = DispatchEngine(
            make_world(with_tasks=False), GTASolver(), seed=0
        )
        result = engine.dispatch()
        assert result.center_ids == ()
        assert result.assigned_tasks == 0
        assert result.payoff_difference == 0.0
        assert result.payoffs == {}

    def test_verify_checks_every_center(self):
        engine = _engine(seed=2, verify=True)
        result = engine.dispatch()
        assert result.verified_centers == len(result.center_ids) > 0

    @pytest.mark.parametrize("solve_deadline_s", [None, 60.0])
    def test_verify_checks_catalog_membership(self, monkeypatch, solve_deadline_s):
        # verify=True must check every accepted route against the catalog
        # the attempt solved with, with or without a solve deadline.
        import repro.service.engine as engine_module

        calls = []
        real = engine_module.verify_assignment

        def spy(assignment, **kwargs):
            calls.append(kwargs)
            return real(assignment, **kwargs)

        monkeypatch.setattr(engine_module, "verify_assignment", spy)
        engine = _engine(seed=2, verify=True, solve_deadline_s=solve_deadline_s)
        result = engine.dispatch()
        assert result.verified_centers == len(result.center_ids) == len(calls) > 0
        assert all(call.get("catalog") is not None for call in calls)

    def test_unverified_rounds_count_no_verified_centers(self):
        result = _engine(seed=2).dispatch()
        assert result.center_ids and result.verified_centers == 0

    def test_failing_round_propagates_not_swallowed(self):
        # The engine surfaces round failures (the API layer maps them to
        # HTTP 500); nothing may be committed from a failed round.
        engine = _engine(seed=2)
        engine.state.commit = lambda snapshot, assignments: (_ for _ in ()).throw(
            InvariantViolation("test.sabotage", "boom")
        )
        with pytest.raises(InvariantViolation):
            engine.dispatch()
        assert engine.last_committed is None

    def test_history_is_bounded_and_ordered(self):
        engine = DispatchEngine(
            make_world(with_tasks=False), GTASolver(), seed=0, history_limit=2
        )
        for _ in range(4):
            engine.dispatch(commit=False)
        history = engine.history
        assert [r.round_index for r in history] == [2, 3]
        assert engine.rounds_dispatched == 4

    def test_round_result_as_dict_is_json_shaped(self):
        result = _engine(seed=0).dispatch()
        payload = result.as_dict()
        assert payload["round"] == 0
        assert payload["committed"] is True
        assert set(payload["cache"]) == {"hits", "misses"}
        assert isinstance(payload["assignments"], dict)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="solve_deadline_s"):
            DispatchEngine(make_world(), GTASolver(), solve_deadline_s=0.0)
        with pytest.raises(ValueError, match="history_limit"):
            DispatchEngine(make_world(), GTASolver(), history_limit=0)

    def test_drain_returns_when_idle(self):
        _engine(seed=0).drain()  # must not deadlock


class TestEquityColdStartGate:
    """All-equal ledger baselines must not feed the amplified game.

    With equal baselines the effective-payoff differences reduce to the
    per-round ones, so the amplified IAU (beta' > 1) carries no
    cross-round signal — and on payoff-dispersed worlds its all-null
    Nash equilibrium swallows the whole fleet (every worker's guilt
    exceeds its surplus once the others idle).  The engine therefore
    solves those rounds with plain per-round IAU.
    """

    def _gm_world(self):
        from repro.datasets.gmission import GMissionConfig, generate_gmission_like
        from repro.service.state import WorldState

        instance = generate_gmission_like(
            GMissionConfig(n_tasks=30, n_workers=6, n_delivery_points=12),
            seed=0,
        )
        state = WorldState(instance.centers, travel=instance.travel)
        state.add_workers(instance.workers)
        state.add_tasks(
            [
                {
                    "task_id": t.task_id,
                    "dp_id": t.delivery_point_id,
                    "expiry": t.expiry,
                    "reward": t.reward,
                }
                for c in instance.centers
                for t in c.tasks
            ]
        )
        return state

    def test_cold_start_round_matches_plain_engine(self):
        plain = DispatchEngine(
            make_world(), FGTSolver(epsilon=0.8), epsilon=0.8, seed=5
        )
        world = make_world()
        world.enable_equity()
        equity = DispatchEngine(
            world, FGTSolver(epsilon=0.8), epsilon=0.8, seed=5, equity_mode=True
        )
        assert equity.dispatch().payoffs == plain.dispatch().payoffs

    def test_cold_start_does_not_collapse_dispersed_world(self):
        # Regression: without the gate this exact world dispatches zero
        # tasks forever (all-zero rounds keep the ledger all-equal).
        state = self._gm_world()
        state.enable_equity()
        engine = DispatchEngine(
            state, FGTSolver(epsilon=0.8), epsilon=0.8, seed=0, equity_mode=True
        )
        first = engine.dispatch(advance_hours=0.1)
        assert first.assigned_tasks > 0

    def test_all_idle_history_keeps_the_gate_closed(self):
        world = make_world(with_tasks=False)
        world.enable_equity()
        equity = DispatchEngine(
            world, FGTSolver(epsilon=0.8), epsilon=0.8, seed=5, equity_mode=True
        )
        for _ in range(3):
            assert equity.dispatch().assigned_tasks == 0
        # Three recorded all-idle rounds leave baselines equal (all 0.0);
        # the first round with real work must still assign like a plain
        # engine rather than deadlock in the amplified null equilibrium.
        plain_world = make_world(with_tasks=False)
        plain = DispatchEngine(
            plain_world, FGTSolver(epsilon=0.8), epsilon=0.8, seed=5
        )
        for _ in range(3):
            plain.dispatch()
        from tests.service.conftest import seed_tasks

        world.add_tasks(seed_tasks())
        plain_world.add_tasks(seed_tasks())
        assert equity.dispatch().payoffs == plain.dispatch().payoffs
