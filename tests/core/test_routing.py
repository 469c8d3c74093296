"""Tests for repro.core.routing (Definition 5, VDPS sequencing)."""

import numpy as np
import pytest

from repro.core.instance import SubProblem
from repro.core.routing import Route, arrival_times, route_is_valid
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.oracle import brute_force_best_route
from repro.vdps.catalog import build_catalog
from repro.vdps.generator import generate_cvdps

from tests.conftest import (
    make_center,
    make_dp,
    make_worker,
    minimal_route,
    unit_speed_travel,
)


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
    """The best route of a point set is the minimal-time feasible order the
    C-VDPS DP records for it (:func:`tests.conftest.minimal_route`)."""

    def test_orders_by_travel_time(self, travel):
        # Optimal open path from origin visits a (1,0) then b (2,0).
        points = [make_dp("b", 2, 0), make_dp("a", 1, 0)]
        route = minimal_route(points, travel)
        assert [dp.dp_id for dp in route.sequence] == ["a", "b"]
        assert route.completion_time == pytest.approx(2.0)

    def test_empty_input(self, travel):
        assert generate_cvdps(make_center([]), travel) == []

    def test_infeasible_returns_none(self, travel):
        points = [make_dp("far", 100, 0, expiry=1.0)]
        assert minimal_route(points, travel) is None

    def test_deadline_forces_detour(self, travel):
        # b expires early, so it must be visited first even though a is nearer.
        points = [
            make_dp("a", 1, 0, expiry=100.0),
            make_dp("b", 2, 0, expiry=2.0),
        ]
        route = minimal_route(points, travel)
        assert route is not None
        assert [dp.dp_id for dp in route.sequence][0] in {"a", "b"}
        assert route.is_valid_with_offset(0.0)

    def test_duplicate_ids_rejected(self):
        points = [make_dp("a", 1, 0), make_dp("a", 2, 0)]
        with pytest.raises(ValueError, match="duplicate"):
            make_center(points)

    def test_respects_start_offset(self, travel):
        # A worker 0.4 h from the center reaches a at 1.4 <= 1.5; one
        # 0.6 h out would arrive at 1.6, so its catalog drops the set.
        center = make_center([make_dp("a", 1, 0, expiry=1.5)])
        for x, kept in ((-0.4, True), (-0.6, False)):
            sub = SubProblem(center, (make_worker("w", x, 0),), travel)
            assert build_catalog(sub).has_strategies("w") is kept

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
        fast = minimal_route(points, travel)
        slow = brute_force_best_route(ORIGIN, points, travel)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.completion_time == pytest.approx(slow.completion_time)
            assert fast.is_valid_with_offset(0.0)
