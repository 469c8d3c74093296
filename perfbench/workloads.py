"""The benchmark's workloads: a city, a traffic script and serve flags.

Each workload serves one fixed city (layout and fleet, generated from the
workload's own ``city_seed``); the benchmark seed draws the day's traffic
and the engine seed.  A city drawn from the seed moved a run's cost over a
4x range, more than any bound could absorb (README.md, "How a run works").
Why each workload exists is recorded in BENCHMARK.json and README.md.

Everything a round sends is fixed by the benchmark seed and the round
index, never by wall time, so two runs with one seed post identical
batches and must receive identical answers.  The one clock-derived input,
each task's absolute expiry, is computed from the ``now`` the previous
``/dispatch`` response reported.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.instance import ProblemInstance
from repro.datasets import (
    GMissionConfig,
    SynConfig,
    generate_gmission_like,
    generate_synthetic,
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix through ``repro serve``.

    With ``initial_queue`` off the city's own tasks only shape the layout
    and where new tasks land; the queue starts empty and fills from the
    closed loop.  ``rounds_per_second`` turns ``--seconds`` into a fixed
    round budget, chosen so that the timed loop takes about ``--seconds``
    on the reference host (2 cores); set-ups, host probes and start-up
    add about half as much again.
    The amount of work, and therefore every outcome, never depends on how
    fast the host happens to be during a run.
    """

    name: str
    make_city: Callable[[int], ProblemInstance]
    city_seed: int
    arrivals: Callable[[int, int], int]
    expiry_hours: Tuple[float, float]
    advance_hours: float
    commit: bool
    initial_queue: bool
    shards: int
    rounds_per_second: float

    def make_world(self) -> ProblemInstance:
        """The workload's city, the same on every run."""
        return self.make_city(self.city_seed)

    def rounds_for(self, seconds: float) -> int:
        """The fixed round budget a ``seconds``-long run measures."""
        return max(1, int(round(seconds * self.rounds_per_second)))


def _surge(phase: float, peak: float, width: float) -> float:
    return math.exp(-0.5 * ((phase - peak) / width) ** 2)


def _lunch_dinner(round_index: int, rounds: int) -> int:
    """~20 tasks a round, a +80 lunch surge and a +60 dinner surge.

    The day is stretched over the run, so every run length sees both
    surges (FairFoody's lunch/dinner demand shape).
    """
    phase = round_index / max(1, rounds)
    return int(round(20 + 80 * _surge(phase, 0.3, 0.07) + 60 * _surge(phase, 0.75, 0.08)))


def _gmission(n_tasks: int, n_workers: int, n_points: int) -> Callable[[int], ProblemInstance]:
    config = GMissionConfig(
        n_tasks=n_tasks, n_workers=n_workers, n_delivery_points=n_points
    )
    return lambda seed: generate_gmission_like(config, seed=seed)


def _multi_city(seed: int) -> ProblemInstance:
    config = SynConfig(
        n_centers=16,
        n_workers=320,
        n_delivery_points=640,
        n_tasks=3000,
        expiry_hours=1.5,
        expiry_spread=0.5,
        space_km=24,
    )
    return generate_synthetic(config, seed=seed)


_LUNCH_RUSH = Workload(
    name="lunch_rush",
    make_city=_gmission(1200, 150, 260),
    city_seed=1,
    arrivals=_lunch_dinner,
    expiry_hours=(0.3, 1.0),
    advance_hours=0.05,
    commit=True,
    initial_queue=False,
    shards=1,
    rounds_per_second=19.0,
)

_WHATIF = Workload(
    name="whatif",
    make_city=_gmission(450, 60, 120),
    city_seed=2,
    arrivals=lambda round_index, rounds: 3,
    expiry_hours=(0.3, 1.0),
    advance_hours=0.0,
    commit=False,
    initial_queue=True,
    shards=1,
    rounds_per_second=7.0,
)

_MULTI_CITY = Workload(
    name="multi_city",
    make_city=_multi_city,
    city_seed=3,
    arrivals=lambda round_index, rounds: 40,
    expiry_hours=(0.75, 1.5),
    advance_hours=0.05,
    commit=True,
    initial_queue=False,
    shards=1,
    rounds_per_second=30.0,
)

_MULTI_CITY_SHARDED = dataclasses.replace(
    _MULTI_CITY, name="multi_city_sharded", shards=2, rounds_per_second=23.5
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (_LUNCH_RUSH, _WHATIF, _MULTI_CITY, _MULTI_CITY_SHARDED)
}


class Traffic:
    """The task batches of one run: fixed by the seed and the round index.

    Delivery points are drawn in proportion to the city's own task density
    (plus one, so empty points can receive work); lifetimes are uniform
    over the workload's expiry range and anchored at the ``now`` the caller
    passes.
    """

    def __init__(self, workload: Workload, instance: ProblemInstance,
                 seed: int, rounds: int) -> None:
        self._workload = workload
        self._seed = seed
        self._rounds = rounds
        self._points: Sequence[str] = [
            dp.dp_id for center in instance.centers for dp in center.delivery_points
        ]
        weights = np.array([
            len(dp.tasks) + 1.0
            for center in instance.centers for dp in center.delivery_points
        ])
        self._p = weights / weights.sum()

    def batch(self, round_index: int, now: float) -> List[Dict[str, object]]:
        """The tasks posted before round ``round_index`` (1-based)."""
        count = self._workload.arrivals(round_index, self._rounds)
        rng = np.random.default_rng([self._seed, round_index])
        picks = rng.choice(len(self._points), size=count, p=self._p)
        lifetimes = rng.uniform(*self._workload.expiry_hours, size=count)
        return [
            {
                "task_id": f"r{round_index}_{i}",
                "dp_id": self._points[int(pick)],
                "expiry": now + float(life),
                "reward": 1.0,
            }
            for i, (pick, life) in enumerate(zip(picks, lifetimes))
        ]
