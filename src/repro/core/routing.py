"""Routing: delivery-point sequences and their arrival times.

Implements Definition 5 (arrival-time recurrence) and the :class:`Route`
a worker drives.  The minimal-travel-time sequence the paper keeps for every
VDPS ("among these, we consider only the one with the minimal travel time")
is the one the C-VDPS subset DP records (:mod:`repro.vdps.generator`);
:func:`repro.oracle.brute_force_best_route` is its exhaustive reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.entities import DeliveryPoint
from repro.geo.point import Point
from repro.geo.travel import TravelModel


@dataclass(frozen=True)
class Route:
    """An ordered visit of delivery points starting from a distribution center.

    Attributes
    ----------
    sequence:
        Delivery points in visiting order.
    arrival_times:
        Arrival time at each point, measured from the moment the worker is
        *at the center* (i.e. excluding the worker-to-center leg).  Adding a
        worker's start offset shifts every entry uniformly.
    """

    sequence: Tuple[DeliveryPoint, ...]
    arrival_times: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.arrival_times):
            raise ValueError("sequence and arrival_times must have equal length")

    @property
    def completion_time(self) -> float:
        """Arrival time at the final delivery point (0 for an empty route)."""
        return self.arrival_times[-1] if self.arrival_times else 0.0

    @property
    def total_reward(self) -> float:
        """Sum of the rewards of every task on the route."""
        return sum(dp.total_reward for dp in self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def is_valid_with_offset(self, offset: float) -> bool:
        """Whether every deadline holds when the start is delayed by ``offset``.

        ``offset`` is the worker's travel time to the center, so this is the
        per-worker validity check of Section IV.
        """
        return all(
            t + offset <= dp.earliest_expiry
            for dp, t in zip(self.sequence, self.arrival_times)
        )

    def shifted(self, offset: float) -> "Route":
        """The same route with every arrival time delayed by ``offset``."""
        return Route(self.sequence, tuple(t + offset for t in self.arrival_times))

    def scaled(self, factor: float) -> "Route":
        """The same route traversed at ``1/factor`` times the speed.

        A worker moving at half the reference speed experiences the same
        distances in twice the time, so arrival times scale linearly.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return Route(self.sequence, tuple(t * factor for t in self.arrival_times))


def arrival_times(
    center_location: Point,
    sequence: Sequence[DeliveryPoint],
    travel: TravelModel,
    start_offset: float = 0.0,
) -> List[float]:
    """Arrival times along ``sequence`` per the recurrence of Definition 5.

    ``start_offset`` is ``c(w.l, dc.l)``: the worker's travel time to the
    center.  With the default of 0 the times are center-relative, matching
    the ``t'`` recurrence used during C-VDPS generation (Equation 3).

    Deadlines apply to the *arrival* at each point; a point's optional
    ``service_hours`` delays the departure toward the next point (the
    paper's zero-processing-time assumption is the 0.0 default).
    """
    times: List[float] = []
    clock = start_offset
    previous = center_location
    for dp in sequence:
        clock += travel.time(previous, dp.location)
        times.append(clock)
        clock += dp.service_hours
        previous = dp.location
    return times


def route_is_valid(
    center_location: Point,
    sequence: Sequence[DeliveryPoint],
    travel: TravelModel,
    start_offset: float = 0.0,
) -> bool:
    """Whether visiting ``sequence`` meets every point's earliest task expiry."""
    for dp, t in zip(
        sequence, arrival_times(center_location, sequence, travel, start_offset)
    ):
        if t > dp.earliest_expiry:
            return False
    return True
