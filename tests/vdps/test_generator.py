"""Tests for repro.vdps.generator (Algorithm 1)."""

import numpy as np
import pytest

from repro.geo.travel import TravelModel
from repro.oracle import brute_force_best_route, generate_cvdps_reference
from repro.vdps.generator import generate_cvdps

from tests.conftest import make_center, make_dp, unit_speed_travel


def _random_center(n_points, seed, side=6.0, expiry_low=2.0, expiry_high=8.0):
    rng = np.random.default_rng(seed)
    dps = [
        make_dp(
            f"p{i}",
            float(rng.uniform(0, side)),
            float(rng.uniform(0, side)),
            n_tasks=int(rng.integers(1, 4)),
            expiry=float(rng.uniform(expiry_low, expiry_high)),
        )
        for i in range(n_points)
    ]
    return make_center(dps, x=side / 2, y=side / 2)


@pytest.fixture
def travel():
    return unit_speed_travel()


class TestBasics:
    def test_empty_center(self, travel):
        assert generate_cvdps(make_center([]), travel) == []

    def test_single_reachable_point(self, travel):
        center = make_center([make_dp("a", 1, 0, expiry=2.0)])
        entries = generate_cvdps(center, travel)
        assert len(entries) == 1
        assert entries[0].point_ids == frozenset({"a"})
        assert entries[0].route.completion_time == pytest.approx(1.0)

    def test_unreachable_point_excluded(self, travel):
        center = make_center([make_dp("far", 10, 0, expiry=1.0)])
        assert generate_cvdps(center, travel) == []

    def test_max_size_zero(self, travel):
        center = make_center([make_dp("a", 1, 0)])
        assert generate_cvdps(center, travel, max_size=0) == []

    def test_max_size_caps_subsets(self, travel):
        center = make_center(
            [make_dp("a", 1, 0), make_dp("b", 2, 0), make_dp("c", 3, 0)]
        )
        entries = generate_cvdps(center, travel, max_size=2)
        assert max(e.size for e in entries) == 2
        # All 3 singletons and all 3 pairs are feasible on this line.
        assert len(entries) == 6

    def test_line_instance_full_enumeration(self, travel, line_center):
        entries = generate_cvdps(line_center, travel)
        # All 7 non-empty subsets of {a, b, c} are feasible (expiry 10).
        assert len(entries) == 7
        triple = next(e for e in entries if e.size == 3)
        # Optimal order on a line is monotone: completion 3.0.
        assert triple.route.completion_time == pytest.approx(3.0)
        assert [dp.dp_id for dp in triple.route.sequence] == ["a", "b", "c"]

    def test_entry_reward_totals(self, travel, line_center):
        entries = generate_cvdps(line_center, travel)
        triple = next(e for e in entries if e.size == 3)
        assert triple.total_reward == pytest.approx(6.0)  # 2 + 1 + 3 tasks


class TestRouteOptimality:
    @pytest.mark.parametrize("seed", range(5))
    def test_recorded_sequence_is_minimal_time(self, travel, seed):
        center = _random_center(5, seed)
        for entry in generate_cvdps(center, travel):
            oracle = brute_force_best_route(
                center.location, list(entry.route.sequence), travel
            )
            assert oracle is not None
            assert entry.route.completion_time == pytest.approx(
                oracle.completion_time
            )

    def test_deadlines_respected_along_route(self, travel):
        center = _random_center(6, seed=11, expiry_low=1.0, expiry_high=4.0)
        for entry in generate_cvdps(center, travel):
            assert entry.route.is_valid_with_offset(0.0)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("epsilon", [None, 2.0, 3.5])
    def test_fast_equals_reference(self, travel, seed, epsilon):
        center = _random_center(6, seed, expiry_low=1.5, expiry_high=6.0)
        fast = generate_cvdps(center, travel, epsilon=epsilon)
        slow = generate_cvdps_reference(center, travel, epsilon=epsilon)
        assert [e.point_ids for e in fast] == [e.point_ids for e in slow]
        for f, s in zip(fast, slow):
            assert f.route.completion_time == pytest.approx(s.route.completion_time)

    @pytest.mark.parametrize("seed", range(3))
    def test_fast_equals_reference_with_cap(self, travel, seed):
        center = _random_center(7, seed)
        fast = generate_cvdps(center, travel, max_size=2)
        slow = generate_cvdps_reference(center, travel, max_size=2)
        assert [e.point_ids for e in fast] == [e.point_ids for e in slow]


class TestPruningSemantics:
    def test_epsilon_monotone(self, travel):
        center = _random_center(7, seed=3)
        small = {e.point_ids for e in generate_cvdps(center, travel, epsilon=1.0)}
        large = {e.point_ids for e in generate_cvdps(center, travel, epsilon=3.0)}
        unpruned = {e.point_ids for e in generate_cvdps(center, travel)}
        assert small <= large <= unpruned

    def test_singletons_unaffected_by_pruning(self, travel):
        center = _random_center(8, seed=4)
        pruned = {
            e.point_ids
            for e in generate_cvdps(center, travel, epsilon=0.0)
            if e.size == 1
        }
        unpruned = {
            e.point_ids for e in generate_cvdps(center, travel) if e.size == 1
        }
        assert pruned == unpruned

    def test_large_epsilon_equals_unpruned(self, travel):
        center = _random_center(6, seed=5)
        pruned = generate_cvdps(center, travel, epsilon=1000.0)
        unpruned = generate_cvdps(center, travel)
        assert [e.point_ids for e in pruned] == [e.point_ids for e in unpruned]

    def test_chain_constraint_blocks_far_pairs(self, travel):
        # a and b are 5 apart; with epsilon=2 the pair {a, b} cannot chain.
        center = make_center([make_dp("a", 1, 0), make_dp("b", 6, 0)])
        entries = generate_cvdps(center, travel, epsilon=2.0)
        assert {e.point_ids for e in entries} == {
            frozenset({"a"}),
            frozenset({"b"}),
        }


class TestDeterminism:
    def test_output_order_deterministic(self, travel):
        center = _random_center(6, seed=8)
        a = generate_cvdps(center, travel, epsilon=2.5)
        b = generate_cvdps(center, travel, epsilon=2.5)
        assert [e.point_ids for e in a] == [e.point_ids for e in b]
        assert [tuple(dp.dp_id for dp in e.route.sequence) for e in a] == [
            tuple(dp.dp_id for dp in e.route.sequence) for e in b
        ]
