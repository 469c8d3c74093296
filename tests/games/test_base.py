"""Tests for repro.games.base (GameState, random initialisation)."""

import numpy as np
import pytest

from repro.core.instance import SubProblem
from repro.games.base import GameState, random_initial_state
from repro.oracle import claimed_points
from repro.vdps.catalog import NULL_STRATEGY, build_catalog

from tests.conftest import (
    claimed_words,
    make_center,
    make_dp,
    make_worker,
    unit_speed_travel,
)


@pytest.fixture
def sub():
    center = make_center(
        [
            make_dp("a", 1, 0, n_tasks=2),
            make_dp("b", 2, 0, n_tasks=1),
            make_dp("c", 3, 0, n_tasks=3),
        ]
    )
    workers = (make_worker("w1", 0, 0), make_worker("w2", 0, 0))
    return SubProblem(center, workers, unit_speed_travel())


@pytest.fixture
def catalog(sub):
    return build_catalog(sub)


class TestGameState:
    def test_initially_all_null(self, catalog):
        state = GameState(catalog)
        assert all(
            state.strategy_of(w.worker_id) is NULL_STRATEGY for w in catalog.workers
        )
        assert np.all(state.payoffs() == 0.0)

    def test_set_strategy_updates_claims(self, catalog):
        state = GameState(catalog)
        strategy = catalog.strategies("w1")[0]
        state.set_strategy("w1", strategy)
        assert state.strategy_of("w1") is strategy
        assert claimed_points(state, "w2") == set(strategy.point_ids)
        assert claimed_points(state, "w1") == set()
        index = catalog.index
        assert np.array_equal(
            claimed_words(state, "w2"), index.mask_of(strategy.point_ids)
        )
        assert not claimed_words(state, "w1").any()

    def test_conflicting_strategy_rejected(self, catalog):
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        state.set_strategy("w1", s_a)
        strategies = catalog.strategies("w2")
        pos = next(i for i, s in enumerate(strategies) if s.point_ids == {"a"})
        # Both call forms: the mask packed from the strategy's points, and
        # the one read from the index row at ``position``.
        for position in (None, pos):
            with pytest.raises(ValueError, match="already claimed"):
                state.set_strategy("w2", strategies[pos], position)
            assert state.strategy_of("w2") is NULL_STRATEGY
            assert np.array_equal(
                claimed_words(state, "w2"), catalog.index.mask_of({"a"})
            )

    def test_switching_releases_old_claims(self, catalog):
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        s_b = next(s for s in catalog.strategies("w1") if s.point_ids == {"b"})
        state.set_strategy("w1", s_a)
        state.set_strategy("w1", s_b)
        s_a2 = next(s for s in catalog.strategies("w2") if s.point_ids == {"a"})
        state.set_strategy("w2", s_a2)  # must not raise: "a" was released

    def test_available_strategies_respect_claims(self, catalog):
        state = GameState(catalog)
        s_ab = next(
            s for s in catalog.strategies("w1") if s.point_ids == {"a", "b"}
        )
        state.set_strategy("w1", s_ab)
        available = state.available_strategies("w2")
        assert all(not (s.point_ids & {"a", "b"}) for s in available)
        # w1's own availability ignores its own claims.
        assert any(s.point_ids == {"a"} for s in state.available_strategies("w1"))

    def test_joint_strategy_key(self, catalog):
        state = GameState(catalog)
        key0 = state.joint_strategy_key()
        state.set_strategy("w1", catalog.strategies("w1")[0])
        assert state.joint_strategy_key() != key0

    def test_to_assignment_valid(self, catalog):
        state = GameState(catalog)
        state.set_strategy("w1", catalog.strategies("w1")[0])
        assignment = state.to_assignment()
        assert len(assignment) == 2
        assert assignment.busy_worker_count == 1


class TestRandomInitialState:
    def test_single_point_strategies(self, catalog):
        state = random_initial_state(catalog, seed=5)
        for worker in catalog.workers:
            strategy = state.strategy_of(worker.worker_id)
            assert strategy.size <= 1

    def test_deterministic_in_seed(self, catalog):
        a = random_initial_state(catalog, seed=9).joint_strategy_key()
        b = random_initial_state(catalog, seed=9).joint_strategy_key()
        assert a == b

    def test_varies_with_seed(self, catalog):
        keys = {
            random_initial_state(catalog, seed=s).joint_strategy_key()
            for s in range(12)
        }
        assert len(keys) > 1

    def test_disjointness_maintained(self, catalog):
        state = random_initial_state(catalog, seed=2)
        state.to_assignment()  # validation inside must not raise

    def test_worker_without_strategies_stays_null(self):
        center = make_center([make_dp("a", 1, 0, expiry=9.0)])
        # Far worker: offset 20 invalidates everything.
        workers = (make_worker("near", 0, 0), make_worker("far", -20, 0))
        sub = SubProblem(center, workers, unit_speed_travel())
        catalog = build_catalog(sub)
        state = random_initial_state(catalog, seed=0)
        assert state.strategy_of("far").is_null
        assert not state.strategy_of("near").is_null
