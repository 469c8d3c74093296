"""Tests for the service-time extension (non-zero processing time).

The paper assumes "the processing time of a task is zero"; the library
generalises this with ``DeliveryPoint.service_hours``.  Deadlines still
bind the *arrival* at a point; service delays the departure to the next.
"""

import pytest

from repro.core.entities import DeliveryPoint
from repro.core.instance import SubProblem
from repro.core.routing import arrival_times
from repro.geo.point import Point
from repro.oracle import brute_force_best_route, generate_cvdps_reference
from repro.vdps.catalog import build_catalog
from repro.vdps.generator import generate_cvdps

from tests.conftest import (
    make_center,
    make_tasks,
    make_worker,
    minimal_route,
    unit_speed_travel,
)

ORIGIN = Point(0.0, 0.0)


def make_service_dp(dp_id, x, y, service, n_tasks=1, expiry=10.0):
    return DeliveryPoint(
        dp_id, Point(x, y), make_tasks(dp_id, n_tasks, expiry), service_hours=service
    )


@pytest.fixture
def travel():
    return unit_speed_travel()


class TestEntityValidation:
    def test_negative_service_rejected(self):
        with pytest.raises(ValueError, match="service_hours"):
            make_service_dp("a", 1, 0, service=-0.1)

    def test_service_preserved_by_with_tasks(self):
        dp = make_service_dp("a", 1, 0, service=0.25)
        assert dp.with_tasks(make_tasks("a", 2)).service_hours == 0.25

    def test_service_part_of_equality(self):
        a = make_service_dp("a", 1, 0, service=0.0)
        b = make_service_dp("a", 1, 0, service=0.5)
        assert a != b


class TestArrivalTimes:
    def test_service_delays_departure_not_arrival(self, travel):
        seq = [
            make_service_dp("a", 1, 0, service=0.5),
            make_service_dp("b", 2, 0, service=0.0),
        ]
        times = arrival_times(ORIGIN, seq, travel)
        assert times[0] == pytest.approx(1.0)  # arrival unaffected by own service
        assert times[1] == pytest.approx(2.5)  # 1.0 + 0.5 service + 1.0 travel

    def test_zero_service_matches_paper_model(self, travel):
        seq = [make_service_dp("a", 1, 0, service=0.0), make_service_dp("b", 2, 0, 0.0)]
        assert arrival_times(ORIGIN, seq, travel) == pytest.approx([1.0, 2.0])


class TestRouting:
    def test_best_route_accounts_for_service(self, travel):
        # b's deadline is met only if visited before a's long service.
        points = [
            make_service_dp("a", 1, 0, service=5.0, expiry=100.0),
            make_service_dp("b", 2, 0, service=0.0, expiry=2.5),
        ]
        route = minimal_route(points, travel)
        assert route is not None
        assert [dp.dp_id for dp in route.sequence] == ["b", "a"]

    def test_infeasible_due_to_service(self, travel):
        points = [
            make_service_dp("a", 1, 0, service=5.0, expiry=100.0),
            make_service_dp("b", 1.5, 0, service=0.0, expiry=2.0),
        ]
        # Visiting b first: b at 1.5 OK, a at 1.5+0+0.5? a expiry large: OK.
        route = minimal_route(points, travel)
        assert route is not None
        # Now make b unreachable either way.
        points[1] = make_service_dp("b2", 50, 0, service=0.0, expiry=2.0)
        assert minimal_route(points, travel) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_with_services(self, travel, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        points = [
            make_service_dp(
                f"p{i}",
                float(rng.uniform(0, 3)),
                float(rng.uniform(0, 3)),
                service=float(rng.uniform(0, 1)),
                expiry=float(rng.uniform(3, 9)),
            )
            for i in range(int(rng.integers(2, 5)))
        ]
        fast = minimal_route(points, travel)
        slow = brute_force_best_route(ORIGIN, points, travel)
        if slow is None:
            assert fast is None
        else:
            assert fast.completion_time == pytest.approx(slow.completion_time)


class TestVdpsWithServices:
    def test_generator_matches_reference(self, travel):
        center = make_center(
            [
                make_service_dp("a", 1, 0, service=0.4, expiry=4.0),
                make_service_dp("b", 2, 0, service=0.2, expiry=4.0),
                make_service_dp("c", 1, 1, service=0.0, expiry=4.0),
            ]
        )
        fast = generate_cvdps(center, travel)
        slow = generate_cvdps_reference(center, travel)
        assert [e.point_ids for e in fast] == [e.point_ids for e in slow]
        for f, s in zip(fast, slow):
            assert f.route.completion_time == pytest.approx(s.route.completion_time)

    def test_service_shrinks_feasible_space(self, travel):
        def build(service):
            return make_center(
                [
                    make_service_dp("a", 1, 0, service=service, expiry=2.6),
                    make_service_dp("b", 2, 0, service=service, expiry=2.6),
                ]
            )

        without = {e.point_ids for e in generate_cvdps(build(0.0), travel)}
        with_service = {e.point_ids for e in generate_cvdps(build(1.0), travel)}
        assert frozenset({"a", "b"}) in without
        assert frozenset({"a", "b"}) not in with_service

    def test_catalog_with_slow_worker_and_service(self, travel):
        # Worker at half speed: travel doubles but service does not.
        from repro.core.entities import Worker

        center = make_center(
            [make_service_dp("a", 1, 0, service=0.5, expiry=20.0),
             make_service_dp("b", 2, 0, service=0.0, expiry=20.0)]
        )
        slow = Worker("slow", Point(0, 0), 2, "dc0", speed_kmh=0.5)
        sub = SubProblem(center, (slow,), travel)
        catalog = build_catalog(sub)
        pair = next(
            s for s in catalog.strategies("slow") if s.point_ids == {"a", "b"}
        )
        # Travel legs (1 + 1 km) at 0.5 km/h = 4h, plus 0.5h service at a.
        assert pair.route.completion_time == pytest.approx(4.5)
