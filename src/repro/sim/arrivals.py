"""Task arrival processes for the dispatch simulation.

Arrivals follow a Poisson process in time; each arrival lands on a
delivery point drawn from a (optionally weighted) categorical distribution
over the center's points and carries an absolute expiry drawn uniformly
from a patience window.  Each arrival is a
:class:`~repro.service.state.TaskArrival`, the record the dispatch world
queues (re-exported here).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.entities import DeliveryPoint
from repro.service.state import TaskArrival
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["PoissonTaskArrivals", "TaskArrival"]


class PoissonTaskArrivals:
    """Homogeneous Poisson arrivals over a center's delivery points.

    Parameters
    ----------
    delivery_points:
        The center's points; arrivals pick one per task.
    rate_per_hour:
        Expected arrivals per simulated hour across the whole center.
    patience:
        ``(min, max)`` hours a task stays valid after arriving.
    weights:
        Optional relative popularity per delivery point (defaults to
        uniform); normalised internally.
    reward:
        Reward per task (paper: 1).
    """

    def __init__(
        self,
        delivery_points: Sequence[DeliveryPoint],
        rate_per_hour: float,
        patience: tuple = (0.5, 1.5),
        weights: Optional[Sequence[float]] = None,
        reward: float = 1.0,
    ) -> None:
        if not delivery_points:
            raise ValueError("arrivals need at least one delivery point")
        if rate_per_hour <= 0:
            raise ValueError(f"rate_per_hour must be positive, got {rate_per_hour}")
        low, high = patience
        if not 0 < low <= high:
            raise ValueError(f"patience must satisfy 0 < min <= max, got {patience}")
        self._points = list(delivery_points)
        self._rate = float(rate_per_hour)
        self._patience = (float(low), float(high))
        self._reward = float(reward)
        if weights is None:
            self._weights = np.full(len(self._points), 1.0 / len(self._points))
        else:
            w = np.asarray(list(weights), dtype=float)
            if w.shape != (len(self._points),) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative, one per point")
            self._weights = w / w.sum()

    def between(
        self, start: float, end: float, seed: SeedLike = None
    ) -> List[TaskArrival]:
        """All arrivals in ``[start, end)``, sorted by arrival time."""
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        rng = ensure_rng(seed)
        count = int(rng.poisson(self._rate * (end - start)))
        if count == 0:
            return []
        times = np.sort(rng.uniform(start, end, size=count))
        picks = rng.choice(len(self._points), size=count, p=self._weights)
        patience = rng.uniform(self._patience[0], self._patience[1], size=count)
        arrivals = []
        for k in range(count):
            t = float(times[k])
            arrivals.append(
                TaskArrival(
                    task_id=f"sim_t{start:.3f}_{k}",
                    dp_id=self._points[int(picks[k])].dp_id,
                    arrival_time=t,
                    expiry=t + float(patience[k]),
                    reward=self._reward,
                )
            )
        return arrivals
