"""Hypothesis property tests for routing and VDPS generation."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.entities import DeliveryPoint, DistributionCenter, SpatialTask
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.oracle import brute_force_best_route, generate_cvdps_reference
from repro.vdps.generator import generate_cvdps

from tests.conftest import minimal_route

TRAVEL = TravelModel(speed_kmh=1.0)
ORIGIN = Point(0.0, 0.0)

coordinate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
expiry = st.floats(min_value=0.5, max_value=12.0, allow_nan=False)


@st.composite
def delivery_points(draw, max_points=5):
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = []
    for i in range(n):
        dp_id = f"p{i}"
        points.append(
            DeliveryPoint(
                dp_id,
                Point(draw(coordinate), draw(coordinate)),
                (SpatialTask(f"t{i}", dp_id, expiry=draw(expiry)),),
            )
        )
    return points


class TestBestRouteProperties:
    """The best route of a set is the order the C-VDPS DP records for it
    (:func:`tests.conftest.minimal_route`)."""

    @given(points=delivery_points())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, points):
        fast = minimal_route(points, TRAVEL)
        slow = brute_force_best_route(ORIGIN, points, TRAVEL)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.completion_time == pytest.approx(slow.completion_time)

    @given(points=delivery_points(), offset=st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_offset_monotone(self, points, offset):
        # If a set is feasible with a delay it is feasible without one.
        with_offset = brute_force_best_route(ORIGIN, points, TRAVEL, offset)
        without = minimal_route(points, TRAVEL)
        if with_offset is not None:
            assert without is not None
            assert without.completion_time <= with_offset.completion_time + 1e-9
        # Section IV delays the recorded order: when that stays feasible,
        # no other order finishes earlier at this delay.
        if without is not None and without.is_valid_with_offset(offset):
            assert with_offset is not None
            assert with_offset.completion_time == pytest.approx(
                without.completion_time + offset
            )

    @given(points=delivery_points())
    @settings(max_examples=40, deadline=None)
    def test_route_visits_all_points_feasibly(self, points):
        route = minimal_route(points, TRAVEL)
        if route is None:
            return
        assert {dp.dp_id for dp in route.sequence} == {dp.dp_id for dp in points}
        assert route.is_valid_with_offset(0.0)
        # Completion is at least the direct distance to the farthest point.
        direct = max(TRAVEL.time(ORIGIN, dp.location) for dp in points)
        assert route.completion_time >= direct - 1e-9


class TestCVdpsProperties:
    @given(
        points=delivery_points(max_points=5),
        epsilon=st.one_of(st.none(), st.floats(0.5, 8.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_generator_equals_reference(self, points, epsilon):
        center = DistributionCenter("dc", ORIGIN, tuple(points))
        fast = generate_cvdps(center, TRAVEL, epsilon=epsilon)
        slow = generate_cvdps_reference(center, TRAVEL, epsilon=epsilon)
        assert [e.point_ids for e in fast] == [e.point_ids for e in slow]
        for f, s in zip(fast, slow):
            assert f.route.completion_time == pytest.approx(s.route.completion_time)

    @given(points=delivery_points(max_points=5))
    @settings(max_examples=25, deadline=None)
    def test_subset_closure_of_feasibility(self, points):
        # Every singleton subset of a C-VDPS is itself a C-VDPS (removing
        # points never hurts feasibility of the remaining *first* point).
        center = DistributionCenter("dc", ORIGIN, tuple(points))
        entries = {e.point_ids for e in generate_cvdps(center, TRAVEL)}
        singletons = {next(iter(s)) for s in entries if len(s) == 1}
        for subset in entries:
            first_id = min(subset)
            del first_id  # arbitrary member; the check below covers all
            for dp_id in subset:
                dp = next(p for p in points if p.dp_id == dp_id)
                if TRAVEL.time(ORIGIN, dp.location) <= dp.earliest_expiry:
                    assert dp_id in singletons
