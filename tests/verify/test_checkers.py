"""Fault injection: every checker must catch its deliberately broken input.

The acceptance test of the verification subsystem itself — each test
fabricates an output that violates exactly one paper invariant (skipping
``Assignment``'s own constructor validation with ``validate=False``) and
asserts the matching checker raises :class:`InvariantViolation`.
"""

from __future__ import annotations

import pytest

from repro.core.assignment import Assignment, WorkerAssignment
from repro.core.exceptions import InvariantViolation
from repro.core.fairness import InequityAversion
from repro.core.instance import SubProblem
from repro.core.routing import Route
from repro.games.base import GameState
from repro.vdps.catalog import build_catalog
from repro.verify import (
    check_capacity,
    check_catalog_membership,
    check_deadlines,
    check_disjointness,
    check_payoffs,
    verify_assignment,
)
from repro.verify.stats import reset_verification_stats, verification_stats
from repro.verify.verifier import (
    EvolutionaryGameVerifier,
    NullVerifier,
    PotentialGameVerifier,
    set_verification,
    verification_enabled,
)
from tests.conftest import make_center, make_dp, make_worker, unit_speed_travel


@pytest.fixture
def sub() -> SubProblem:
    """Two close delivery points, two co-located workers, unit speed."""
    center = make_center(
        [
            make_dp("a", 1.0, 0.0, n_tasks=2, expiry=10.0),
            make_dp("b", 2.0, 0.0, n_tasks=1, expiry=10.0),
        ]
    )
    workers = (
        make_worker("w1", 0.0, 0.0, max_dp=2),
        make_worker("w2", 0.0, 0.0, max_dp=2),
    )
    return SubProblem(center, workers, unit_speed_travel())


def _top_strategy(catalog, worker_id):
    return catalog.strategies(worker_id)[0]


def test_valid_assignment_passes_every_checker(sub):
    catalog = build_catalog(sub)
    state = GameState(catalog)
    state.set_strategy("w1", _top_strategy(catalog, "w1"))
    verify_assignment(state.to_assignment(), sub=sub, catalog=catalog)


def test_duplicated_delivery_point_trips_disjointness(sub):
    catalog = build_catalog(sub)
    route = _top_strategy(catalog, "w1").route
    pairs = [
        WorkerAssignment(sub.workers[0], route),
        WorkerAssignment(sub.workers[1], route),
    ]
    broken = Assignment(pairs, validate=False)
    with pytest.raises(InvariantViolation) as exc:
        check_disjointness(broken)
    assert exc.value.invariant == "assignment.disjointness"


def test_duplicated_worker_trips_disjointness(sub):
    pairs = [
        WorkerAssignment(sub.workers[0], None),
        WorkerAssignment(sub.workers[0], None),
    ]
    with pytest.raises(InvariantViolation):
        check_disjointness(Assignment(pairs, validate=False))


def test_capacity_overflow_is_caught(sub):
    catalog = build_catalog(sub)
    two_point = next(
        s for s in catalog.strategies("w1") if s.size == 2
    )
    narrow = make_worker("w1", 0.0, 0.0, max_dp=1)
    broken = Assignment(
        [WorkerAssignment(narrow, two_point.route)], validate=False
    )
    with pytest.raises(InvariantViolation) as exc:
        check_capacity(broken)
    assert exc.value.invariant == "assignment.capacity"


def test_tampered_arrival_times_are_caught(sub):
    catalog = build_catalog(sub)
    route = _top_strategy(catalog, "w1").route
    shifted = Route(
        route.sequence, tuple(t + 0.5 for t in route.arrival_times)
    )
    broken = Assignment(
        [WorkerAssignment(sub.workers[0], shifted)], validate=False
    )
    with pytest.raises(InvariantViolation) as exc:
        check_deadlines(broken, sub)
    assert exc.value.invariant == "assignment.arrival-times"


def test_missed_deadline_is_caught():
    # The recurrence-correct arrival at the far point (t = 5) misses its
    # expiry of 1 hour, so the deadline checker must object even though
    # the recorded times agree with Definition 5.
    center = make_center([make_dp("far", 5.0, 0.0, n_tasks=1, expiry=1.0)])
    worker = make_worker("w1", 0.0, 0.0)
    sub = SubProblem(center, (worker,), unit_speed_travel())
    route = Route(center.delivery_points, (5.0,))
    broken = Assignment([WorkerAssignment(worker, route)], validate=False)
    with pytest.raises(InvariantViolation) as exc:
        check_deadlines(broken, sub)
    assert exc.value.invariant == "assignment.deadlines"


def test_route_outside_catalog_is_caught(sub):
    # epsilon = 0.5 km prunes the 1 km hop between "a" and "b", so the
    # two-point set {a, b} exists only in the unpruned catalog.
    pruned = build_catalog(sub, epsilon=0.5)
    full = build_catalog(sub)
    serving_ab = next(
        s for s in full.strategies("w1") if s.point_ids == frozenset({"a", "b"})
    )
    assert not any(
        s.point_ids == serving_ab.point_ids for s in pruned.strategies("w1")
    )
    broken = Assignment(
        [WorkerAssignment(sub.workers[0], serving_ab.route)], validate=False
    )
    with pytest.raises(InvariantViolation) as exc:
        check_catalog_membership(broken, pruned)
    assert exc.value.invariant == "assignment.catalog-membership"


def test_foreign_point_set_is_caught_without_materialising(sub):
    # A route through a delivery point the catalog has never seen: its
    # point is unknown to the index, so the set is no member.  The check
    # reads masks only and builds no strategy object.
    from repro.obs.metrics import METRICS

    catalog = build_catalog(sub)
    ghost = make_dp("ghost", 5, 5)
    foreign = Assignment(
        [WorkerAssignment(sub.workers[0], Route((ghost,), (7.1,)))], validate=False
    )
    materialised = METRICS.counter("catalog.strategies_materialised")
    before = materialised.value
    with pytest.raises(InvariantViolation) as exc:
        check_catalog_membership(foreign, catalog)
    assert exc.value.invariant == "assignment.catalog-membership"
    assert "valid VDPSs" in str(exc.value)
    assert materialised.value == before


def test_nonpositive_completion_time_is_caught(sub):
    catalog = build_catalog(sub)
    route = _top_strategy(catalog, "w1").route
    degenerate = Route(route.sequence, tuple(0.0 for _ in route.arrival_times))
    broken = Assignment(
        [WorkerAssignment(sub.workers[0], degenerate)], validate=False
    )
    with pytest.raises(InvariantViolation) as exc:
        check_payoffs(broken)
    assert exc.value.invariant == "assignment.payoff"


def test_fabricated_payoff_difference_is_caught(sub):
    catalog = build_catalog(sub)
    state = GameState(catalog)
    state.set_strategy("w1", _top_strategy(catalog, "w1"))
    assignment = state.to_assignment()
    with pytest.raises(InvariantViolation) as exc:
        check_payoffs(assignment, reported_payoff_difference=-1.0)
    assert exc.value.invariant == "assignment.payoff-difference"


def test_buggy_solver_skipping_disjointness_filter_is_caught(sub):
    """ISSUE acceptance: a no-conflict-filter greedy trips the checkers."""

    class BuggyGreedy:
        name = "BUGGY"

        def solve(self, sub, catalog=None, seed=None):
            # Deliberate bug: every worker takes its top strategy without
            # checking what others already claimed.
            pairs = [
                WorkerAssignment(w, catalog.strategies(w.worker_id)[0].route)
                for w in sub.workers
            ]
            return Assignment(pairs, validate=False)

    catalog = build_catalog(sub)
    assignment = BuggyGreedy().solve(sub, catalog=catalog)
    with pytest.raises(InvariantViolation) as exc:
        verify_assignment(assignment, sub=sub, catalog=catalog, solver="BUGGY")
    assert exc.value.invariant == "assignment.disjointness"
    assert exc.value.solver == "BUGGY"


# --- trace-level verifiers --------------------------------------------------


def test_fgt_non_improving_switch_is_caught():
    verifier = PotentialGameVerifier(InequityAversion(0.5, 0.5))
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_switch("w1", 1, before=1.0, after=1.0)
    assert exc.value.invariant == "fgt.switch-improving"
    assert exc.value.worker_id == "w1"


def test_fgt_potential_decrease_is_caught():
    # alpha = beta = 0.2 gives Phi(1, 0) = 0.6 > Phi(0, 0) = 0, so the
    # second round's from-scratch recomputation shows a decrease.
    verifier = PotentialGameVerifier(InequityAversion(0.2, 0.2))
    verifier.on_round(1, [1.0, 0.0], None, switches=1)
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_round(2, [0.0, 0.0], None, switches=1)
    assert exc.value.invariant == "fgt.potential-monotone"


def test_fgt_misreported_potential_is_caught():
    verifier = PotentialGameVerifier(InequityAversion(0.2, 0.2))
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_round(1, [1.0, 0.0], 123.0, switches=1)
    assert exc.value.invariant == "fgt.potential-recompute"


def test_fgt_false_convergence_claim_is_caught(sub):
    # All-null play with non-empty catalogs is not a Nash equilibrium:
    # any worker strictly gains by taking a strategy.
    catalog = build_catalog(sub)
    state = GameState(catalog)
    verifier = PotentialGameVerifier(InequityAversion(0.2, 0.2))
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_final(state, state.to_assignment(), sub=sub, converged=True)
    assert exc.value.invariant == "fgt.pure-nash"


def test_iegt_replicator_sign_violation_is_caught():
    verifier = EvolutionaryGameVerifier()
    # Above-average worker must not evolve (Eq. 11 derivative >= 0).
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_switch("w2", 3, before=(2.0, 1.0), after=3.0)
    assert exc.value.invariant == "iegt.replicator-sign"


def test_iegt_non_improving_switch_is_caught():
    verifier = EvolutionaryGameVerifier()
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_switch("w2", 3, before=(0.5, 1.0), after=0.4)
    assert exc.value.invariant == "iegt.switch-improving"


def test_iegt_false_equilibrium_claim_is_caught(sub):
    # w1 holds the best strategy; w2 plays null yet still has available
    # strategies, so the improved-equilibrium condition (Def. 10) fails.
    catalog = build_catalog(sub)
    state = GameState(catalog)
    state.set_strategy("w1", next(
        s for s in catalog.strategies("w1") if s.point_ids == frozenset({"a"})
    ))
    assert state.available_strategies("w2")
    verifier = EvolutionaryGameVerifier()
    with pytest.raises(InvariantViolation) as exc:
        verifier.on_final(state, state.to_assignment(), sub=sub, converged=True)
    assert exc.value.invariant == "iegt.iess"
    assert exc.value.worker_id == "w2"


# --- enablement plumbing ----------------------------------------------------


def test_verification_enabled_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    assert not verification_enabled()
    assert verification_enabled(True)
    monkeypatch.setenv("REPRO_VERIFY", "1")
    assert verification_enabled()
    monkeypatch.setenv("REPRO_VERIFY", "0")
    assert not verification_enabled()
    set_verification(True)
    try:
        assert verification_enabled()
    finally:
        set_verification(None)


def test_null_verifier_hooks_are_noops(sub):
    verifier = NullVerifier()
    verifier.on_solve_start(None)
    verifier.on_switch("w1", 1, 0.0, -1.0)
    verifier.on_round(1, [0.0], -5.0, 0)
    verifier.on_final(None, None)


def test_stats_count_executed_checks(sub):
    reset_verification_stats()
    catalog = build_catalog(sub)
    state = GameState(catalog)
    verify_assignment(state.to_assignment(), sub=sub, catalog=catalog)
    stats = verification_stats()
    assert stats.counts["assignment.disjointness"] == 1
    assert stats.counts["assignment.verified"] == 1
    assert stats.total >= 5
    assert "assignment.deadlines" in stats.format()
    reset_verification_stats()
    assert verification_stats().total == 0
