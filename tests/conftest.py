"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import settings

# A reduced-budget profile for CI's fast jobs (oracle-differential selects it
# with --hypothesis-profile=ci) and a local default without Hypothesis's
# 200 ms deadline (the stateful catalog-churn machine rebuilds a catalog in
# every invariant check, which can trip it on loaded machines).  Tests with
# explicit @settings keep their own values; --hypothesis-profile overrides
# the load_profile call below.
settings.register_profile(
    "ci", max_examples=15, stateful_step_count=15, deadline=None
)
settings.register_profile(
    "repro-local", max_examples=30, stateful_step_count=20, deadline=None
)
settings.load_profile("repro-local")

from repro import (
    DeliveryPoint,
    DistributionCenter,
    GMissionConfig,
    Point,
    ProblemInstance,
    SpatialTask,
    TravelModel,
    Worker,
    generate_gmission_like,
)
from repro.vdps.generator import generate_cvdps

_TASK_COUNTER = [0]


def make_tasks(
    dp_id: str, count: int, expiry: float = 10.0, reward: float = 1.0
) -> Tuple[SpatialTask, ...]:
    """``count`` identical tasks for ``dp_id`` with unique ids."""
    tasks = []
    for _ in range(count):
        _TASK_COUNTER[0] += 1
        tasks.append(
            SpatialTask(
                task_id=f"t{_TASK_COUNTER[0]}",
                delivery_point_id=dp_id,
                expiry=expiry,
                reward=reward,
            )
        )
    return tuple(tasks)


def make_dp(
    dp_id: str,
    x: float,
    y: float,
    n_tasks: int = 1,
    expiry: float = 10.0,
    reward: float = 1.0,
) -> DeliveryPoint:
    """A delivery point at ``(x, y)`` with ``n_tasks`` uniform tasks."""
    return DeliveryPoint(
        dp_id=dp_id,
        location=Point(x, y),
        tasks=make_tasks(dp_id, n_tasks, expiry, reward),
    )


def make_center(
    dps: Sequence[DeliveryPoint],
    center_id: str = "dc0",
    x: float = 0.0,
    y: float = 0.0,
) -> DistributionCenter:
    return DistributionCenter(center_id, Point(x, y), tuple(dps))


def make_worker(
    worker_id: str,
    x: float,
    y: float,
    max_dp: int = 3,
    center_id: Optional[str] = "dc0",
) -> Worker:
    return Worker(worker_id, Point(x, y), max_dp, center_id)


def claimed_words(state, except_worker: Optional[str] = None):
    """The points a :class:`~repro.games.base.GameState` holds claimed, as
    catalog-index mask words (``(n_words,)`` uint64), leaving out those
    of ``except_worker`` when given."""
    from repro.vdps.catalog import mask_words

    index = state.catalog.index
    claimed = state._claimed
    if except_worker is not None:
        claimed &= ~state._words[state._slot[except_worker]]
    return mask_words(claimed, index.n_words)


def minimal_route(
    points: Sequence[DeliveryPoint],
    travel: TravelModel,
    origin: Point = Point(0.0, 0.0),
    generate=generate_cvdps,
):
    """The best route of ``points`` from a center at ``origin``: the
    minimal-time deadline-feasible order that the C-VDPS DP (``generate``:
    production's, or the oracle's) records for the full set, or ``None``
    when no order of it is feasible."""
    center = DistributionCenter("dc", origin, tuple(points))
    full = frozenset(dp.dp_id for dp in points)
    return next(
        (e.route for e in generate(center, travel) if e.point_ids == full), None
    )


def unit_speed_travel() -> TravelModel:
    """Speed 1 km/h: travel time equals distance, easing hand computation."""
    return TravelModel(speed_kmh=1.0)


@pytest.fixture
def travel() -> TravelModel:
    return unit_speed_travel()


@pytest.fixture
def line_center() -> DistributionCenter:
    """Three delivery points on the x-axis at 1, 2, 3 km from the center."""
    return make_center(
        [
            make_dp("a", 1.0, 0.0, n_tasks=2, expiry=10.0),
            make_dp("b", 2.0, 0.0, n_tasks=1, expiry=10.0),
            make_dp("c", 3.0, 0.0, n_tasks=3, expiry=10.0),
        ]
    )


@pytest.fixture
def small_gm_instance() -> ProblemInstance:
    """A small but non-trivial GM surrogate instance shared across tests."""
    config = GMissionConfig(n_tasks=60, n_workers=8, n_delivery_points=15)
    return generate_gmission_like(config, seed=42)
