"""Service-level bit-identity of delta-maintained catalogs under churn.

The engine defaults to serving catalog-cache misses from an incrementally
refreshed :class:`~repro.vdps.delta.DeltaCatalog`.  These tests drive a
delta engine and a rebuild-per-miss control engine through identical churn
sequences and assert every round is bit-identical — payoffs, routes,
Equation 2 ``P_dif`` — including across a write-ahead-journal crash-recover
cycle (the recovered engine rebuilds its catalogs, then refreshes them by
surgery), and under injected chaos on the fault-tolerant ladder.
"""

import shutil

from repro.games.fgt import FGTSolver
from repro.obs.metrics import METRICS
from repro.service.engine import DispatchEngine
from repro.service.faults import FaultPlan
from repro.service.journal import WorldJournal
from repro.service.state import WorldState

from tests.service.conftest import make_world, task


def _engine(seed=11, **kwargs):
    kwargs.setdefault("epsilon", 0.8)
    return DispatchEngine(
        make_world(), FGTSolver(epsilon=kwargs["epsilon"]), seed=seed, **kwargs
    )


def _churn_and_dispatch(engine):
    """A fixed churn script; returns the per-round comparable outcomes.

    Intermediate rounds use ``commit=False`` (planning mode) so every
    round re-solves the full worker set; each add touches one delivery
    point of a center, which keeps the churn under the delta catalog's
    ``rebuild_fraction`` and exercises the surgery path rather than the
    rebuild fallback.  The last round commits, so worker stats move too.
    """
    rounds = []
    rounds.append(engine.dispatch(commit=False))
    engine.state.add_tasks([task("extra1", "a1", 1.3)])
    rounds.append(engine.dispatch(commit=False))
    engine.state.add_tasks([task("extra2", "b2", 1.1)])
    rounds.append(engine.dispatch(commit=False))
    engine.state.add_tasks([task("extra3", "a3", 0.9)])
    rounds.append(engine.dispatch())
    return [
        (r.payoffs, r.assignments, r.payoff_difference, r.average_payoff)
        for r in rounds
    ]


class TestDeltaBitIdentity:
    def test_delta_engine_matches_rebuild_engine(self):
        before = METRICS.counter("catalog.delta_applies").value
        warm = _engine(seed=5)  # delta mode is the default
        warm_rounds = _churn_and_dispatch(warm)
        cold = _engine(seed=5, delta_catalog=False)
        cold_rounds = _churn_and_dispatch(cold)
        assert warm_rounds == cold_rounds
        assert warm.state.worker_stats() == cold.state.worker_stats()
        # The warm engine really served churned rounds by delta surgery.
        assert METRICS.counter("catalog.delta_applies").value > before

    def test_fault_tolerant_chaos_run_matches_rebuild_engine(self):
        """PR-5 chaos harness on top of delta catalogs: injected solver
        errors force retries (which invalidate delta state) and the ladder
        still produces exactly the rebuild engine's commits."""
        plan = "seed=3,error_rate=0.3"
        warm = _engine(
            seed=7, faults=FaultPlan.from_spec(plan), backoff_base_s=0.0
        )
        warm_rounds = _churn_and_dispatch(warm)
        cold = _engine(
            seed=7,
            faults=FaultPlan.from_spec(plan),
            backoff_base_s=0.0,
            delta_catalog=False,
        )
        cold_rounds = _churn_and_dispatch(cold)
        assert warm_rounds == cold_rounds


#: The catalog work counters every build path must report alike.
_WORK_COUNTERS = (
    "cvdps.states_expanded",
    "cvdps.candidates_tried",
    "cvdps.deadline_rejections",
    "catalog.strategies_built",
)


def _clock_loop_counts(delta):
    """Work counters of one clock-advancing loop, plus the catalog paths."""
    # No pruning, so the DP chains points; the short-lived task at a2
    # makes some chains miss its deadline.
    engine = _engine(seed=3, delta_catalog=delta, epsilon=None)
    before = METRICS.snapshot()
    for i in range(6):
        now = engine.state.now
        engine.state.add_tasks(
            [task(f"c{i}a", "a2", now + 0.5), task(f"c{i}b", "b1", now + 1.1)]
        )
        engine.dispatch(advance_hours=0.05, commit=False)
    moved = METRICS.delta(before)
    counts = {name: moved.get(name, 0) for name in _WORK_COUNTERS}
    paths = {
        name: moved.get(name, 0)
        for name in ("catalog.delta_fallbacks", "catalog.delta_applies")
    }
    return counts, paths


class TestWorkCounters:
    def test_clock_loop_counts_match_with_and_without_delta(self):
        """A moving clock sends every delta refresh to the rebuild
        fallback, which must count the same DP and strategy work as the
        plain rebuild-per-miss engine."""
        delta_counts, delta_paths = _clock_loop_counts(delta=True)
        plain_counts, _ = _clock_loop_counts(delta=False)
        assert delta_paths["catalog.delta_fallbacks"] > 0
        assert delta_paths["catalog.delta_applies"] == 0
        assert all(delta_counts[name] > 0 for name in _WORK_COUNTERS), delta_counts
        assert delta_counts == plain_counts


class TestCrashRecover:
    def _journaled_engine(self, journal_path, seed=5):
        state = make_world(with_tasks=False)
        state.attach_journal(WorldJournal(journal_path))
        state.add_tasks(
            [
                task("ta1", "a1", 1.2),
                task("ta2", "a2", 1.0),
                task("tb1", "b1", 1.2),
            ]
        )
        return DispatchEngine(
            state, FGTSolver(epsilon=0.8), epsilon=0.8, seed=seed
        )

    def test_recovered_engine_matches_cold_control(self, tmp_path):
        journal = tmp_path / "world.jsonl"

        # Phase 1: run and churn.  Planning-mode rounds leave workers
        # free, so the recovered world still has solvable sub-problems
        # after the journal replay.
        first = self._journaled_engine(journal)
        first.dispatch(commit=False)
        first.state.add_tasks([task("late", "a3", 1.4)])
        first.dispatch(commit=False)

        # Phase 2: "crash" — recover the world from the journal twice over
        # (two identical copies), once per arm.
        control_journal = tmp_path / "world-control.jsonl"
        shutil.copy(journal, control_journal)

        recovered = DispatchEngine(
            WorldState.recover(journal),
            FGTSolver(epsilon=0.8),
            epsilon=0.8,
            seed=99,
        )
        control = DispatchEngine(
            WorldState.recover(control_journal),
            FGTSolver(epsilon=0.8),
            epsilon=0.8,
            seed=99,
            delta_catalog=False,
        )
        assert recovered.state.fingerprint() == control.state.fingerprint()

        applies_before = METRICS.counter("catalog.delta_applies").value
        outcomes = []
        for engine in (recovered, control):
            engine.state.add_tasks([task("post_crash", "b2", 1.2)])
            rounds = [engine.dispatch(commit=False)]
            engine.state.add_tasks([task("post_crash_a", "a1", 1.3)])
            rounds.append(engine.dispatch())
            outcomes.append(
                [
                    (r.payoffs, r.assignments, r.payoff_difference)
                    for r in rounds
                ]
            )
        assert outcomes[0] == outcomes[1]
        # The recovered engine's second round refreshed by surgery.
        assert METRICS.counter("catalog.delta_applies").value > applies_before
