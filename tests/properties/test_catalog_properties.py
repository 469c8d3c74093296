"""Hypothesis property tests for VDPS catalogs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import oracle
from repro.core.entities import DeliveryPoint, DistributionCenter, SpatialTask, Worker
from repro.core.instance import SubProblem
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.vdps.catalog import build_catalog

TRAVEL = TravelModel(speed_kmh=1.0)

coordinate = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def subproblems(draw):
    n_points = draw(st.integers(1, 5))
    points = []
    for i in range(n_points):
        dp_id = f"p{i}"
        tasks = tuple(
            SpatialTask(f"t{i}_{k}", dp_id, expiry=draw(st.floats(0.5, 10.0)))
            for k in range(draw(st.integers(1, 3)))
        )
        points.append(
            DeliveryPoint(dp_id, Point(draw(coordinate), draw(coordinate)), tasks)
        )
    center = DistributionCenter("dc", Point(0, 0), tuple(points))
    workers = tuple(
        Worker(
            f"w{j}",
            Point(draw(coordinate), draw(coordinate)),
            max_delivery_points=draw(st.integers(1, 3)),
            center_id="dc",
        )
        for j in range(draw(st.integers(1, 3)))
    )
    return SubProblem(center, workers, TRAVEL)


class TestCatalogInvariants:
    @given(sub=subproblems(), epsilon=st.one_of(st.none(), st.floats(0.5, 10.0)))
    @settings(max_examples=30, deadline=None)
    def test_strategies_sorted_and_valid(self, sub, epsilon):
        catalog = build_catalog(sub, epsilon=epsilon)
        for worker in catalog.workers:
            payoffs = [s.payoff for s in catalog.strategies(worker.worker_id)]
            assert payoffs == sorted(payoffs, reverse=True)
            for strategy in catalog.strategies(worker.worker_id):
                assert strategy.size <= worker.max_delivery_points
                assert strategy.payoff > 0
                assert strategy.route.is_valid_with_offset(0.0)
                assert len(strategy.point_ids) == len(strategy.route.sequence)

    @given(sub=subproblems())
    @settings(max_examples=20, deadline=None)
    def test_pruning_never_adds_strategies(self, sub):
        unpruned = build_catalog(sub, epsilon=None)
        pruned = build_catalog(sub, epsilon=1.0)
        for worker in unpruned.workers:
            unpruned_sets = {
                s.point_ids for s in unpruned.strategies(worker.worker_id)
            }
            pruned_sets = {s.point_ids for s in pruned.strategies(worker.worker_id)}
            assert pruned_sets <= unpruned_sets

    @given(sub=subproblems())
    @settings(max_examples=20, deadline=None)
    def test_available_is_conflict_free(self, sub):
        catalog = build_catalog(sub)
        for worker in catalog.workers:
            strategies = catalog.strategies(worker.worker_id)
            if not strategies:
                continue
            claimed = frozenset(strategies[0].point_ids)
            index = catalog.index
            positions = index.worker(worker.worker_id).available(
                index.mask_of(claimed)
            )
            available = [strategies[i] for i in positions]
            for s in available:
                assert not (s.point_ids & claimed)
            assert available == oracle.available(
                catalog, worker.worker_id, claimed
            )

    @given(sub=subproblems())
    @settings(max_examples=15, deadline=None)
    def test_payoff_consistent_with_route(self, sub):
        catalog = build_catalog(sub)
        for worker in catalog.workers:
            for s in catalog.strategies(worker.worker_id):
                expected = s.route.total_reward / s.route.completion_time
                assert abs(s.payoff - expected) < 1e-9
