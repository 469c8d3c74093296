"""Routing: delivery-point sequences, arrival times, and optimal orders.

Implements Definition 5 (arrival-time recurrence) and the minimal-travel-time
sequence selection the paper applies to every VDPS ("among these, we consider
only the one with the minimal travel time").  :func:`best_route` is an exact
Held-Karp-style subset dynamic program with deadline feasibility folded in;
:func:`repro.oracle.brute_force_best_route` is its exhaustive reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


def best_route(
    center_location: Point,
    points: Sequence[DeliveryPoint],
    travel: TravelModel,
    start_offset: float = 0.0,
) -> Optional[Route]:
    """The minimal-completion-time deadline-feasible visit of ``points``.

    Returns ``None`` when no feasible order exists.  Uses a Held-Karp subset
    DP over (visited-set, last-point) states.  Keeping only the minimal
    arrival time per state is safe because an earlier arrival dominates: any
    feasible extension of a later arrival is also feasible from an earlier
    one.

    Masks are enumerated layer by layer from feasible predecessors only —
    a feasible state over ``s + 1`` points extends a feasible state over
    ``s`` of them, so unreachable subsets are never visited and an empty
    layer proves infeasibility outright (the old ``range(1, 2^n)`` scan
    touched all ``2^n`` masks even when the first layer already died).

    The differential suite checks it against brute force
    (:func:`repro.oracle.brute_force_best_route`).

    The returned :class:`Route` reports arrival times that *include*
    ``start_offset``.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        return Route((), ())
    if len({dp.dp_id for dp in pts}) != n:
        raise ValueError("points must not contain duplicate delivery point ids")

    # dp_table[(mask, j)] = minimal arrival time at pts[j] having visited mask.
    dp_table: Dict[Tuple[int, int], float] = {}
    parent: Dict[Tuple[int, int], int] = {}
    layer: List[int] = []
    for j, dp in enumerate(pts):
        t = start_offset + travel.time(center_location, dp.location)
        if t <= dp.earliest_expiry:
            dp_table[(1 << j, j)] = t
            parent[(1 << j, j)] = -1
            layer.append(1 << j)

    full = (1 << n) - 1
    for _ in range(1, n):
        if not layer:
            return None  # nothing feasible at this size, so nothing above
        next_layer: Dict[int, None] = {}  # insertion-ordered mask set
        for prev_mask in layer:
            feasible = [
                i for i in range(n) if (prev_mask, i) in dp_table
            ]
            for j in range(n):
                bit = 1 << j
                if prev_mask & bit:
                    continue
                best_t = math.inf
                best_i = -1
                for i in feasible:
                    t = (
                        dp_table[(prev_mask, i)]
                        + pts[i].service_hours
                        + travel.time(pts[i].location, pts[j].location)
                    )
                    if t < best_t:
                        best_t, best_i = t, i
                if best_i >= 0 and best_t <= pts[j].earliest_expiry:
                    mask = prev_mask | bit
                    dp_table[(mask, j)] = best_t
                    parent[(mask, j)] = best_i
                    next_layer[mask] = None
        layer = list(next_layer)

    end = min(
        (j for j in range(n) if (full, j) in dp_table),
        key=lambda j: dp_table[(full, j)],
        default=None,
    )
    if end is None:
        return None

    order: List[int] = []
    mask, j = full, end
    while j != -1:
        order.append(j)
        i = parent[(mask, j)]
        mask ^= 1 << j
        j = i
    order.reverse()
    sequence = tuple(pts[k] for k in order)
    times = tuple(arrival_times(center_location, sequence, travel, start_offset))
    return Route(sequence, times)
