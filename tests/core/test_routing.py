"""Tests for repro.core.routing (Definition 5, VDPS sequencing)."""

import numpy as np
import pytest

from repro.core.routing import Route, arrival_times, best_route, route_is_valid
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.oracle import brute_force_best_route

from tests.conftest import make_dp, unit_speed_travel


@pytest.fixture
def travel():
    return unit_speed_travel()


ORIGIN = Point(0.0, 0.0)


class TestArrivalTimes:
    def test_recurrence_on_a_line(self, travel):
        seq = [make_dp("a", 1, 0), make_dp("b", 3, 0), make_dp("c", 6, 0)]
        assert arrival_times(ORIGIN, seq, travel) == pytest.approx([1.0, 3.0, 6.0])

    def test_start_offset_shifts_uniformly(self, travel):
        seq = [make_dp("a", 1, 0), make_dp("b", 2, 0)]
        base = arrival_times(ORIGIN, seq, travel)
        shifted = arrival_times(ORIGIN, seq, travel, start_offset=2.5)
        assert np.allclose(np.array(shifted) - np.array(base), 2.5)

    def test_empty_sequence(self, travel):
        assert arrival_times(ORIGIN, [], travel) == []

    def test_speed_scales_times(self):
        fast = TravelModel(speed_kmh=2.0)
        seq = [make_dp("a", 4, 0)]
        assert arrival_times(ORIGIN, seq, fast) == pytest.approx([2.0])


class TestRouteValidity:
    def test_valid_route(self, travel):
        seq = [make_dp("a", 1, 0, expiry=1.5), make_dp("b", 2, 0, expiry=2.5)]
        assert route_is_valid(ORIGIN, seq, travel)

    def test_deadline_violation_detected(self, travel):
        seq = [make_dp("a", 1, 0, expiry=0.5)]
        assert not route_is_valid(ORIGIN, seq, travel)

    def test_violation_via_offset(self, travel):
        seq = [make_dp("a", 1, 0, expiry=1.5)]
        assert route_is_valid(ORIGIN, seq, travel, start_offset=0.4)
        assert not route_is_valid(ORIGIN, seq, travel, start_offset=0.6)

    def test_intermediate_deadline_checked(self, travel):
        # Second point expires before it can be reached via the first.
        seq = [make_dp("a", 1, 0, expiry=5.0), make_dp("b", 2, 0, expiry=1.5)]
        assert not route_is_valid(ORIGIN, seq, travel)


class TestRouteObject:
    def test_completion_and_reward(self, travel):
        seq = (make_dp("a", 1, 0, n_tasks=2), make_dp("b", 2, 0, n_tasks=3))
        route = Route(seq, tuple(arrival_times(ORIGIN, seq, travel)))
        assert route.completion_time == pytest.approx(2.0)
        assert route.total_reward == pytest.approx(5.0)
        assert len(route) == 2

    def test_empty_route(self):
        route = Route((), ())
        assert route.completion_time == 0.0
        assert route.total_reward == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Route((make_dp("a", 1, 0),), ())

    def test_shifted(self, travel):
        seq = (make_dp("a", 1, 0),)
        route = Route(seq, (1.0,))
        assert route.shifted(0.5).arrival_times == (1.5,)

    def test_is_valid_with_offset(self):
        seq = (make_dp("a", 1, 0, expiry=2.0),)
        route = Route(seq, (1.0,))
        assert route.is_valid_with_offset(1.0)
        assert not route.is_valid_with_offset(1.1)


class TestBestRoute:
    def test_orders_by_travel_time(self, travel):
        # Optimal open path from origin visits a (1,0) then b (2,0).
        points = [make_dp("b", 2, 0), make_dp("a", 1, 0)]
        route = best_route(ORIGIN, points, travel)
        assert [dp.dp_id for dp in route.sequence] == ["a", "b"]
        assert route.completion_time == pytest.approx(2.0)

    def test_empty_input(self, travel):
        route = best_route(ORIGIN, [], travel)
        assert len(route) == 0

    def test_infeasible_returns_none(self, travel):
        points = [make_dp("far", 100, 0, expiry=1.0)]
        assert best_route(ORIGIN, points, travel) is None

    def test_deadline_forces_detour(self, travel):
        # b expires early, so it must be visited first even though a is nearer.
        points = [
            make_dp("a", 1, 0, expiry=100.0),
            make_dp("b", 2, 0, expiry=2.0),
        ]
        route = best_route(ORIGIN, points, travel)
        assert route is not None
        assert [dp.dp_id for dp in route.sequence][0] in {"a", "b"}
        assert route.is_valid_with_offset(0.0)

    def test_duplicate_ids_rejected(self, travel):
        points = [make_dp("a", 1, 0), make_dp("a", 2, 0)]
        with pytest.raises(ValueError, match="duplicate"):
            best_route(ORIGIN, points, travel)

    def test_respects_start_offset(self, travel):
        points = [make_dp("a", 1, 0, expiry=1.5)]
        assert best_route(ORIGIN, points, travel, start_offset=0.4) is not None
        assert best_route(ORIGIN, points, travel, start_offset=0.6) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, travel, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        points = [
            make_dp(
                f"p{i}",
                float(rng.uniform(0, 5)),
                float(rng.uniform(0, 5)),
                expiry=float(rng.uniform(2, 9)),
            )
            for i in range(n)
        ]
        fast = best_route(ORIGIN, points, travel)
        slow = brute_force_best_route(ORIGIN, points, travel)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.completion_time == pytest.approx(slow.completion_time)
            assert fast.is_valid_with_offset(0.0)
