"""Shared builders for the dispatch-service tests.

The layout is two well-separated centers so tests can churn one center
while proving the other's snapshot (and thus its cached catalog) is
untouched.  All helpers are plain functions, not fixtures, so a test can
build several *identical* fresh worlds (warm-vs-cold comparisons).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.entities import DistributionCenter, Worker
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.geo.travel import TravelModel
from repro.service.state import WorldState

from tests.conftest import make_center, make_dp, make_worker


def two_center_layout():
    """Centers A (around the origin) and B (10 km east)."""
    a = make_center(
        [
            make_dp("a1", 1.0, 0.0),
            make_dp("a2", -1.0, 0.5),
            make_dp("a3", 0.5, 1.5),
        ],
        center_id="A",
    )
    b = make_center(
        [make_dp("b1", 11.0, 0.0), make_dp("b2", 9.5, 1.0)],
        center_id="B",
        x=10.0,
    )
    return a, b


def task(task_id: str, dp_id: str, expiry: float, reward: float = 1.0) -> Dict:
    """A task dict the way ``POST /tasks`` would carry it."""
    return {"task_id": task_id, "dp_id": dp_id, "expiry": expiry, "reward": reward}


def seed_tasks(now: float = 0.0) -> List[Dict]:
    """A reproducible initial queue touching both centers."""
    return [
        task("ta1", "a1", now + 1.2),
        task("ta2", "a1", now + 1.5),
        task("ta3", "a2", now + 1.0),
        task("ta4", "a3", now + 1.4),
        task("tb1", "b1", now + 1.2),
        task("tb2", "b2", now + 1.5),
    ]


def fleet() -> List[Worker]:
    """The two-center layout's workers: two at A, one at B."""
    return [
        make_worker("wa1", 0.1, 0.0, max_dp=2, center_id="A"),
        make_worker("wa2", -0.2, 0.1, max_dp=2, center_id="A"),
        make_worker("wb1", 10.1, 0.0, max_dp=2, center_id="B"),
    ]


def four_center_city() -> Tuple[
    List[DistributionCenter], List[Worker], List[Dict]
]:
    """A larger layout: ``(centers, workers, tasks)``, pure arithmetic.

    Four centers on a 10 km square (partitions never interact), each with
    three delivery points on a 1 km ring, two workers, and four tasks with
    staggered expiries and alternating rewards.
    """
    centers, workers, tasks = [], [], []
    for c in range(4):
        cx, cy = 10.0 * (c % 2), 10.0 * (c // 2)
        ring = [
            make_dp(
                f"c{c}-dp{i}",
                cx + math.cos(2.0 * math.pi * i / 3.0),
                cy + math.sin(2.0 * math.pi * i / 3.0),
                n_tasks=0,
            )
            for i in range(3)
        ]
        centers.append(make_center(ring, center_id=f"c{c}", x=cx, y=cy))
        workers += [
            make_worker(
                f"c{c}-w{w}", cx + 0.2 + 0.3 * w, cy - 0.2, 2, center_id=f"c{c}"
            )
            for w in range(2)
        ]
        tasks += [
            task(
                f"c{c}-t{t}",
                f"c{c}-dp{t % 3}",
                expiry=1.0 + 0.5 * t,
                reward=1.0 + 0.25 * (t % 2),
            )
            for t in range(4)
        ]
    return centers, workers, tasks


def gm_world(
    n_tasks: int, n_workers: int, n_delivery_points: int, seed: int = 0
) -> WorldState:
    """A gMission-like city with its whole task queue loaded."""
    instance = generate_gmission_like(
        GMissionConfig(
            n_tasks=n_tasks,
            n_workers=n_workers,
            n_delivery_points=n_delivery_points,
        ),
        seed=seed,
    )
    state = WorldState(instance.centers, travel=instance.travel)
    state.add_workers(instance.workers)
    state.add_tasks(
        [
            task(t.task_id, t.delivery_point_id, t.expiry, t.reward)
            for center in instance.centers
            for t in center.tasks
        ]
    )
    return state


def make_world(with_tasks: bool = True) -> WorldState:
    """A fresh two-center world; identical on every call."""
    state = WorldState(
        two_center_layout(),
        workers=fleet(),
        travel=TravelModel(),  # paper speed: 5 km/h
    )
    if with_tasks:
        accepted, rejected = state.add_tasks(seed_tasks())
        assert len(accepted) == 6 and not rejected
    return state
