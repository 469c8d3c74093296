"""Vectorized Held-Karp routing DP over reachable masks.

The batched counterpart of :func:`repro.core.routing.best_route`: one
``(n, n)`` relaxation per reachable visited-set instead of a Python
``(mask, j)`` dict loop.  Masks are enumerated layer by layer from
feasible predecessors only — a state at popcount ``s + 1`` needs a
feasible state at popcount ``s``, so an empty layer proves the full set
unreachable and exits early.

Bit-identity with the dict DP (:func:`repro.core.routing._held_karp`):

* arrival times come from the same
  :meth:`~repro.geo.travel.TravelModel.matrix` floats, combined as
  ``(t_prev + service[i]) + T[i, j]`` — the dict DP's exact left-associated
  evaluation order;
* the dict DP keeps the minimal predecessor time with the *smallest* ``i``
  on ties (a strict ``<`` scan in ascending ``i``); ``np.argmin`` returns
  the first minimum, i.e. the same ``i``;
* deadline filtering happens after the min, as in the dict loop (the
  deadline constrains the arrival itself, so min-then-filter and
  filter-then-min coincide);
* the final endpoint is the minimal full-mask time with the smallest
  ``j`` — again ``argmin``'s first-minimum rule.

Masks are Python ints shifted against an ``arange`` membership test, so
this kernel is limited to ``n <= 62``; the dispatching wrapper keeps the
dict DP for one point and for anything wider (where a ``2^n`` DP is hopeless anyway).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import Route, arrival_times
from repro.geo.point import Point
from repro.geo.travel import TravelModel

#: Widest point set the int-mask membership test supports.
MAX_VECTOR_POINTS = 62


def best_route_vectorized(
    center_location: Point,
    points: Sequence,
    travel: TravelModel,
    start_offset: float = 0.0,
) -> Optional[Route]:
    """Drop-in replacement for the dict Held-Karp DP (see module doc).

    Callers must have checked for duplicate dp ids and ``n`` bounds
    (:func:`repro.core.routing.best_route` dispatches here).
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        return Route((), ())
    matrix = travel.matrix([dp.location for dp in pts], origin=center_location)
    times = matrix.times
    service = np.array([dp.service_hours for dp in pts], dtype=np.float64)
    deadline = np.array([dp.earliest_expiry for dp in pts], dtype=np.float64)
    bit_index = np.arange(n, dtype=np.int64)

    seed_times = start_offset + matrix.origin_times
    dp_times: Dict[int, np.ndarray] = {}
    dp_parents: Dict[int, np.ndarray] = {}
    layer: List[int] = []
    for j in np.flatnonzero(seed_times <= deadline).tolist():
        t_arr = np.full(n, math.inf, dtype=np.float64)
        p_arr = np.full(n, -2, dtype=np.int64)
        t_arr[j] = seed_times[j]
        p_arr[j] = -1
        mask = 1 << j
        dp_times[mask] = t_arr
        dp_parents[mask] = p_arr
        layer.append(mask)

    for _ in range(1, n):
        if not layer:
            return None  # no feasible state at this size => none above it
        next_times: Dict[int, np.ndarray] = {}
        next_parents: Dict[int, np.ndarray] = {}
        for mask in layer:
            base = dp_times[mask] + service
            cand = base[:, None] + times  # cand[i, j]; inf rows are inert
            best_i = np.argmin(cand, axis=0)
            best_t = cand[best_i, bit_index]
            members = ((mask >> bit_index) & 1).astype(bool)
            ok = ~members & np.isfinite(best_t) & (best_t <= deadline)
            for j in np.flatnonzero(ok).tolist():
                new_mask = mask | (1 << j)
                t_arr = next_times.get(new_mask)
                if t_arr is None:
                    t_arr = np.full(n, math.inf, dtype=np.float64)
                    next_times[new_mask] = t_arr
                    next_parents[new_mask] = np.full(n, -2, dtype=np.int64)
                t_arr[j] = best_t[j]
                next_parents[new_mask][j] = best_i[j]
        dp_times.update(next_times)
        dp_parents.update(next_parents)
        layer = list(next_times)

    full = (1 << n) - 1
    final = dp_times.get(full)
    if final is None:
        return None
    end = int(np.argmin(final))  # first minimum = smallest j on ties

    order: List[int] = []
    mask, j = full, end
    while j != -1:
        order.append(j)
        i = int(dp_parents[mask][j])
        mask ^= 1 << j
        j = i
    order.reverse()
    sequence: Tuple = tuple(pts[k] for k in order)
    arrivals = tuple(
        arrival_times(center_location, sequence, travel, start_offset)
    )
    return Route(sequence, arrivals)
