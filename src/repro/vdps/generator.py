"""Center-origin VDPS (C-VDPS) generation — Algorithm 1 of the paper.

The paper's Algorithm 1 is a dynamic program over subsets ``Q`` of the
center's delivery points, expanding in ascending ``|Q|`` and recording, for
each feasible ``(Q, endpoint)`` state, the minimal arrival time and the
predecessor used to reach it (the ``opt``/``pre`` tables).  Every subset with
at least one feasible endpoint is a C-VDPS, and the minimal-arrival endpoint
yields the minimal-travel-time delivery-point sequence kept for payoff
computation.

Our implementation performs the same layered DP but expands *only from
feasible states*: an infeasible subset can never become feasible by adding
points (arrival times only grow), so the reachable state space is usually a
vanishing fraction of ``2^n``.  With the distance-constrained pruning of
Section IV, successor candidates shrink further to the ``epsilon``
neighbourhood of the current endpoint.  :func:`generate_cvdps_reference` is a
literal transcription of Algorithm 1 kept as a cross-checking oracle.

DP states are keyed by ``(subset of dp ids, endpoint dp id)`` and valued by
``(arrival time, visit path)``.  Relaxation keeps the *lexicographically
minimal* ``(time, path)`` pair, so the value of every state is a canonical
function of the point set alone — independent of insertion or expansion
order.  That canonicality is what lets the incremental maintenance layer
(:mod:`repro.vdps.delta`) splice states for a single added delivery point
into an existing table and land on the exact table a from-scratch build
would produce, float-tie for float-tie.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.entities import DeliveryPoint, DistributionCenter
from repro.core.routing import Route, arrival_times
from repro.geo.distance import euclidean
from repro.geo.travel import TravelModel
from repro.obs.metrics import METRICS
from repro.obs.tracer import NullTracer, resolve_tracer
from repro.vdps.pruning import neighbor_lists

#: One DP state: the subset visited so far and the point the worker stands at.
_StateKey = Tuple[FrozenSet[str], str]
#: A state's value: minimal arrival time at the endpoint, plus the visit
#: order achieving it.  Compared lexicographically (time first, then path by
#: dp ids), which breaks exact-time ties deterministically *and* order-
#: independently — the invariant the delta layer's correctness rests on.
_StateVal = Tuple[float, Tuple[str, ...]]


@dataclass(frozen=True)
class CVdpsEntry:
    """One C-VDPS: a feasible delivery-point set and its best sequence.

    ``route`` is center-relative (arrival times measured from the moment a
    worker stands at the center), per the ``t'`` recurrence of Equation 3.
    ``point_ids`` is the unordered set identity used for conflict checks.
    """

    point_ids: FrozenSet[str]
    route: Route

    @property
    def size(self) -> int:
        return len(self.point_ids)

    @property
    def total_reward(self) -> float:
        return self.route.total_reward


@dataclass
class DPStats:
    """Counters one DP expansion accumulates (flushed to METRICS by callers)."""

    states_expanded: int = 0
    candidates_tried: int = 0
    deadline_rejections: int = 0


def seed_value(
    dp: DeliveryPoint, travel: TravelModel, center_location
) -> Optional[_StateVal]:
    """The singleton state ``({dp}, dp)``, or ``None`` if its deadline fails."""
    t = travel.time(center_location, dp.location)
    if t <= dp.earliest_expiry:
        return (t, (dp.dp_id,))
    return None


def extend_value(
    value: _StateVal,
    dp_from: DeliveryPoint,
    dp_to: DeliveryPoint,
    travel: TravelModel,
) -> Optional[_StateVal]:
    """``value`` extended by travelling ``dp_from -> dp_to``; ``None`` if late.

    The float evaluation order (arrival + service, then + travel) is shared
    by the full build and the delta layer so both produce bit-identical
    arrival times.
    """
    t, path = value
    t_next = t + dp_from.service_hours + travel.time(dp_from.location, dp_to.location)
    if t_next > dp_to.earliest_expiry:
        return None
    return (t_next, path + (dp_to.dp_id,))


def relax(table: Dict[_StateKey, _StateVal], key: _StateKey, value: _StateVal) -> None:
    """Keep the canonical (lexicographically minimal) value for ``key``."""
    cur = table.get(key)
    if cur is None or value < cur:
        table[key] = value


def entry_from_value(
    points_by_id: Mapping[str, DeliveryPoint],
    subset: FrozenSet[str],
    value: _StateVal,
    travel: TravelModel,
    center_location,
) -> CVdpsEntry:
    """Materialise the :class:`CVdpsEntry` for a subset's canonical state."""
    sequence = tuple(points_by_id[dp_id] for dp_id in value[1])
    times = tuple(arrival_times(center_location, sequence, travel))
    return CVdpsEntry(subset, Route(sequence, times))


def best_per_subset(
    states: Mapping[_StateKey, _StateVal]
) -> Dict[FrozenSet[str], _StateVal]:
    """Canonical minimal ``(time, path)`` value per subset across endpoints."""
    best: Dict[FrozenSet[str], _StateVal] = {}
    for (subset, _), value in states.items():
        cur = best.get(subset)
        if cur is None or value < cur:
            best[subset] = value
    return best


def compute_states(
    points_by_id: Mapping[str, DeliveryPoint],
    neighbors: Mapping[str, Sequence[str]],
    travel: TravelModel,
    center_location,
    cap: int,
    stats: DPStats,
    tracer: NullTracer,
    center_id: str,
    kernel: Optional[str] = None,
) -> Dict[_StateKey, _StateVal]:
    """The full layered DP over ``points_by_id``: every feasible state.

    ``kernel`` selects the implementation (``"scalar"`` or
    ``"vectorized"``; ``None`` resolves the process default) — both tiers
    produce the same table bit for bit, the same ``stats`` increments, and
    the same ``cvdps.layer`` events, which the seed-swept differential
    suite in ``tests/kernels/`` asserts.  The vectorized tier computes
    :func:`repro.kernels.cvdps.compute_layers` and flattens it; catalog
    builds use the layers directly (:func:`generate_table`).
    """
    from repro.kernels import resolve_kernel

    if resolve_kernel(kernel) != "scalar":
        from repro.kernels.cvdps import (
            center_matrix,
            compute_layers,
            states_from_layers,
        )

        METRICS.counter("kernel.cvdps_vectorized").add(1)
        ids, matrix = center_matrix(points_by_id, travel, center_location)
        layers = compute_layers(
            [points_by_id[dp_id] for dp_id in ids],
            _adjacency(ids, neighbors),
            matrix,
            cap,
            stats,
            tracer,
            center_id,
        )
        return states_from_layers(layers, ids)
    METRICS.counter("kernel.cvdps_scalar").add(1)
    states: Dict[_StateKey, _StateVal] = {}
    frontier: Dict[_StateKey, _StateVal] = {}
    for dp_id in sorted(points_by_id):
        value = seed_value(points_by_id[dp_id], travel, center_location)
        if value is None:
            stats.deadline_rejections += 1
        else:
            frontier[(frozenset((dp_id,)), dp_id)] = value
    states.update(frontier)
    stats.states_expanded += len(frontier)
    if tracer.enabled:
        tracer.event(
            "cvdps.layer",
            center=center_id,
            size=1,
            states=len(frontier),
            candidates=len(points_by_id),
            deadline_rejections=stats.deadline_rejections,
        )

    size = 1
    while frontier and size < cap:
        next_frontier: Dict[_StateKey, _StateVal] = {}
        layer_candidates = 0
        layer_rejections = 0
        for (subset, j), value in frontier.items():
            dp_j = points_by_id[j]
            for q in neighbors[j]:
                if q in subset:
                    continue
                layer_candidates += 1
                extended = extend_value(value, dp_j, points_by_id[q], travel)
                if extended is None:
                    layer_rejections += 1
                    continue
                relax(next_frontier, (subset | {q}, q), extended)
        states.update(next_frontier)
        frontier = next_frontier
        size += 1
        stats.states_expanded += len(next_frontier)
        stats.candidates_tried += layer_candidates
        stats.deadline_rejections += layer_rejections
        if tracer.enabled:
            tracer.event(
                "cvdps.layer",
                center=center_id,
                size=size,
                states=len(next_frontier),
                candidates=layer_candidates,
                deadline_rejections=layer_rejections,
            )
    return states


def _adjacency(
    ids: Sequence[str], neighbors: Mapping[str, Sequence[str]]
) -> np.ndarray:
    """``neighbors`` as a boolean chaining matrix in ``ids`` order."""
    position = {dp_id: k for k, dp_id in enumerate(ids)}
    adjacency = np.zeros((len(ids), len(ids)), dtype=bool)
    for dp_id, adj in neighbors.items():
        adjacency[position[dp_id], [position[q] for q in adj]] = True
    return adjacency


class CvdpsTable:
    """One center's full C-VDPS generation, in the form its tier produced.

    The vectorized tier keeps its DP :class:`~repro.kernels.cvdps.Layer`
    arrays and the :class:`~repro.kernels.validate.EntryArrays` built from
    them; the scalar tier keeps its state dict and entry list.  Either
    form derives the others on demand — :meth:`states`, :meth:`entries`,
    :meth:`neighbors` — which only the delta layer's surgery needs.
    """

    def __init__(
        self,
        points_by_id: Mapping[str, DeliveryPoint],
        neighbors: Optional[Mapping[str, Sequence[str]]] = None,
        states: Optional[Dict[_StateKey, _StateVal]] = None,
        entries: Optional[List[CVdpsEntry]] = None,
        adjacency: Optional[np.ndarray] = None,
        layers=None,
        arrays=None,
    ) -> None:
        self.points_by_id = points_by_id
        self._neighbors = neighbors
        self._states = states
        self._entries = entries
        #: Vectorized tier: ``(n, n)`` chaining matrix in sorted-id order.
        self.adjacency = adjacency
        #: Vectorized tier: the DP layers.
        self.layers = layers
        #: Vectorized tier: the validation-ready entry arrays.
        self.arrays = arrays

    def neighbors(self) -> Dict[str, List[str]]:
        """Pruning neighbourhoods by dp id, as fresh mutable lists."""
        if self._neighbors is None:
            ids = sorted(self.points_by_id)
            self._neighbors = {
                ids[j]: [ids[q] for q in np.flatnonzero(row).tolist()]
                for j, row in enumerate(self.adjacency)
            }
        return {dp_id: list(adj) for dp_id, adj in self._neighbors.items()}

    def states(self) -> Dict[_StateKey, _StateVal]:
        """Every feasible DP state, ``{(subset, end): (time, path)}``."""
        if self._states is None:
            from repro.kernels.cvdps import states_from_layers

            self._states = states_from_layers(self.layers, sorted(self.points_by_id))
        return self._states

    def entries(self) -> List[CVdpsEntry]:
        """Every C-VDPS, sorted by (size, point ids)."""
        if self._entries is None:
            self._entries = [] if self.arrays is None else self.arrays.entries
        return self._entries


def generate_table(
    center: DistributionCenter,
    travel: TravelModel,
    epsilon: Optional[float],
    cap: int,
    tracer: NullTracer,
    kernel: Optional[str] = None,
    layout=None,
) -> CvdpsTable:
    """Algorithm 1 over ``center`` up to ``cap`` points, as a :class:`CvdpsTable`.

    The one generation path behind :func:`generate_cvdps`,
    :func:`repro.vdps.catalog.build_catalog` and the delta layer's
    rebuild.  The vectorized tier builds the center's travel matrix once
    (from ``layout``, a :class:`~repro.kernels.cvdps.LayoutMatrix`, when
    the caller keeps one across rounds), takes the pruning neighbourhood
    from its (Euclidean-metric) distances, and keeps the DP in arrays from
    the layers through validation.  Expansion totals land in the
    ``cvdps.*`` metrics on every tier.
    """
    from repro.kernels import resolve_kernel

    points = center.delivery_points
    n = len(points)
    points_by_id = {dp.dp_id: dp for dp in points}
    if n == 0 or cap <= 0:
        # No DP runs, so no state ever chains through a neighbourhood.
        return CvdpsTable(points_by_id, {dp_id: () for dp_id in points_by_id}, {}, [])
    stats = DPStats()
    if resolve_kernel(kernel) == "scalar":
        neighbors = neighbor_id_map(points, epsilon)
        states = compute_states(
            points_by_id,
            neighbors,
            travel,
            center.location,
            cap,
            stats,
            tracer,
            center.center_id,
            kernel="scalar",
        )
        table = CvdpsTable(
            points_by_id,
            neighbors,
            states,
            collect_entries(points_by_id, states, travel, center.location),
        )
        pairs = sum(len(adj) for adj in neighbors.values())
    else:
        from repro.kernels.cvdps import center_matrix, compute_layers
        from repro.kernels.validate import EntryArrays

        METRICS.counter("kernel.cvdps_vectorized").add(1)
        ids, matrix = center_matrix(points_by_id, travel, center.location, layout)
        if epsilon is None:
            adjacency = ~np.eye(n, dtype=bool)
        elif travel.distance_fn is euclidean and epsilon >= 0:
            # Pruning distances are Euclidean; under the default metric
            # the kernel matrix already holds them — the same test
            # neighbor_lists applies to a precomputed matrix.
            adjacency = matrix.distances <= epsilon
            np.fill_diagonal(adjacency, False)
        else:
            adjacency = _adjacency(ids, neighbor_id_map(points, epsilon))
        sorted_points = [points_by_id[dp_id] for dp_id in ids]
        layers = compute_layers(
            sorted_points, adjacency, matrix, cap, stats, tracer, center.center_id
        )
        table = CvdpsTable(
            points_by_id,
            adjacency=adjacency,
            layers=layers,
            arrays=EntryArrays.from_layers(layers, sorted_points),
        )
        pairs = int(np.count_nonzero(adjacency))
    if epsilon is not None:
        # Ordered point pairs the epsilon neighbourhood excludes up front:
        # the state space the distance-constrained pruning never visits.
        METRICS.counter("cvdps.pruned_pairs").add(n * (n - 1) - pairs)
    METRICS.counter("cvdps.states_expanded").add(stats.states_expanded)
    METRICS.counter("cvdps.candidates_tried").add(stats.candidates_tried)
    METRICS.counter("cvdps.deadline_rejections").add(stats.deadline_rejections)
    return table


def generate_cvdps(
    center: DistributionCenter,
    travel: TravelModel,
    epsilon: Optional[float] = None,
    max_size: Optional[int] = None,
    tracer: Optional[NullTracer] = None,
    kernel: Optional[str] = None,
) -> List[CVdpsEntry]:
    """All C-VDPSs of ``center`` with at most ``max_size`` points.

    Parameters
    ----------
    center:
        The distribution center whose delivery points are scheduled.
    travel:
        Travel-time model (shared speed, Euclidean metric by default).
    epsilon:
        Distance-constrained pruning threshold in km; ``None`` disables
        pruning (the ``-W`` algorithm variants).
    max_size:
        Upper bound on ``|Q|``; callers pass ``max_w maxDP`` since larger
        sets can never be assigned.  ``None`` means no bound.
    tracer:
        Structured-event tracer; ``None`` resolves the process-wide sink
        (``REPRO_TRACE`` / :func:`repro.obs.set_tracing`), so a live tracer
        receives one ``cvdps.layer`` event per DP layer.  Expansion and
        rejection totals always land in the :mod:`repro.obs` metrics
        registry.
    kernel:
        DP implementation tier (``"scalar"`` or ``"vectorized"``); ``None``
        resolves the process default (:mod:`repro.kernels.config`).  Both
        tiers return bit-identical entries.

    Returns
    -------
    list of :class:`CVdpsEntry`, sorted by (size, point ids) so output
    order is deterministic.
    """
    tracer = resolve_tracer(False) if tracer is None else tracer
    n = len(center.delivery_points)
    cap = n if max_size is None else max(0, min(max_size, n))
    return generate_table(center, travel, epsilon, cap, tracer, kernel).entries()


def neighbor_id_map(
    points: Sequence[DeliveryPoint],
    epsilon: Optional[float],
    distances: Optional[np.ndarray] = None,
) -> Dict[str, Tuple[str, ...]]:
    """:func:`neighbor_lists` re-keyed by dp id (the DP core's key space).

    ``distances`` is the optional precomputed Euclidean matrix forwarded
    to :func:`neighbor_lists` (points-sequence order).
    """
    adjacency = neighbor_lists(points, epsilon, distances)
    return {
        points[j].dp_id: tuple(points[q].dp_id for q in adjacency[j])
        for j in range(len(points))
    }


def collect_entries(
    points_by_id: Mapping[str, DeliveryPoint],
    states: Mapping[_StateKey, _StateVal],
    travel: TravelModel,
    center_location,
) -> List[CVdpsEntry]:
    """Group DP states by subset, keep the canonical minimal value of each."""
    entries = [
        entry_from_value(points_by_id, subset, value, travel, center_location)
        for subset, value in best_per_subset(states).items()
    ]
    entries.sort(key=lambda e: (e.size, tuple(sorted(e.point_ids))))
    return entries


def generate_cvdps_reference(
    center: DistributionCenter,
    travel: TravelModel,
    epsilon: Optional[float] = None,
    max_size: Optional[int] = None,
) -> List[CVdpsEntry]:
    """Literal Algorithm 1: enumerate every subset, solve each exactly.

    Exponential in ``|dc.DP|``; used in tests to validate
    :func:`generate_cvdps` on small instances.  Under pruning, a sequence is
    admissible only if every *consecutive* pair of delivery points is within
    ``epsilon``, matching the restriction the fast generator applies while
    chaining.
    """
    points = center.delivery_points
    n = len(points)
    cap = n if max_size is None else max(0, min(max_size, n))
    neighbors = neighbor_lists(points, epsilon)
    allowed = [set(adj) for adj in neighbors]

    entries: List[CVdpsEntry] = []
    for size in range(1, cap + 1):
        for combo in itertools.combinations(range(n), size):
            route = _best_constrained_route(points, combo, allowed, travel, center)
            if route is not None:
                entries.append(
                    CVdpsEntry(frozenset(points[i].dp_id for i in combo), route)
                )
    entries.sort(key=lambda e: (e.size, tuple(sorted(e.point_ids))))
    return entries


def _best_constrained_route(
    points: Sequence[DeliveryPoint],
    combo: Tuple[int, ...],
    allowed: List[set],
    travel: TravelModel,
    center: DistributionCenter,
) -> Optional[Route]:
    """Minimal-time feasible permutation of ``combo`` honouring adjacency."""
    best_route_found: Optional[Route] = None
    for perm in itertools.permutations(combo):
        if any(perm[k + 1] not in allowed[perm[k]] for k in range(len(perm) - 1)):
            continue
        sequence = tuple(points[i] for i in perm)
        times = arrival_times(center.location, sequence, travel)
        if any(t > dp.earliest_expiry for dp, t in zip(sequence, times)):
            continue
        candidate = Route(sequence, tuple(times))
        if (
            best_route_found is None
            or candidate.completion_time < best_route_found.completion_time
        ):
            best_route_found = candidate
    return best_route_found
