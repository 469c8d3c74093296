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
neighbourhood of the current endpoint.  The DP runs as array passes
(:func:`repro.kernels.cvdps.compute_layers`), every center of a batch in
one stacked expansion.

Relaxation keeps the *lexicographically minimal* ``(arrival time, visit
path)`` pair per ``(subset, endpoint)`` state, so the value of every state
is a canonical function of the point set alone — independent of insertion
or expansion order.  That canonicality is what lets the incremental
maintenance layer (:mod:`repro.vdps.delta`) splice states for added
delivery points into an existing DP and land on the exact table a
from-scratch build would produce, float-tie for float-tie.
:mod:`repro.oracle` keeps the dict-keyed transcription of this DP, and a
brute-force literal Algorithm 1, as the references the differential suites
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.entities import DeliveryPoint, DistributionCenter
from repro.core.routing import Route
from repro.geo.distance import euclidean
from repro.geo.travel import TravelModel
from repro.obs.metrics import METRICS
from repro.obs.tracer import NullTracer, resolve_tracer
from repro.vdps.pruning import neighbor_lists


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


def _adjacency(
    ids: Sequence[str], neighbors: Mapping[str, Sequence[str]]
) -> np.ndarray:
    """``neighbors`` as a boolean chaining matrix in ``ids`` order."""
    position = {dp_id: k for k, dp_id in enumerate(ids)}
    adjacency = np.zeros((len(ids), len(ids)), dtype=bool)
    for dp_id, adj in neighbors.items():
        adjacency[position[dp_id], [position[q] for q in adj]] = True
    return adjacency


@dataclass(frozen=True)
class CvdpsTable:
    """One center's full C-VDPS generation: the visit orders of its share
    of the batch's DP layers (:func:`~repro.kernels.cvdps.split_layers`)
    and its validation-ready :class:`~repro.kernels.validate.EntryArrays`.
    """

    #: Per DP layer, the ``(S, size)`` visit orders of its states,
    #: path-lex, in sorted-id point order.
    paths: List[np.ndarray]
    #: The validation-ready entry arrays.
    arrays: object


def chain_adjacency(
    points,
    matrix,
    travel: TravelModel,
    epsilon: Optional[float],
) -> np.ndarray:
    """The DP's ``(n, n)`` chaining matrix over ``points``, a center's
    :class:`~repro.core.columns.PointColumns`.

    ``adjacency[j, q]``: a route may go from ``points[j]`` straight on to
    ``points[q]`` — every other point without pruning, else the
    ``epsilon`` neighbourhood.  Pruning distances are Euclidean; under
    the default metric ``matrix`` (the points'
    :class:`~repro.geo.travel.TravelMatrix`) already holds them, the same
    test :func:`neighbor_lists` applies to a precomputed matrix.
    """
    n = len(points)
    if epsilon is None:
        return ~np.eye(n, dtype=bool)
    if travel.distance_fn is euclidean and epsilon >= 0:
        adjacency = matrix.distances <= epsilon
        np.fill_diagonal(adjacency, False)
        return adjacency
    return _adjacency(points.ids, neighbor_id_map(points.bare, epsilon))


def generate_tables(
    centers: Sequence[DistributionCenter],
    travels: Sequence[TravelModel],
    caps: Sequence[int],
    epsilon: Optional[float],
    tracer: NullTracer,
    layouts: Optional[Sequence] = None,
) -> List[CvdpsTable]:
    """Algorithm 1 over every center of a batch, one :class:`CvdpsTable` each.

    Center ``c`` is generated under ``travels[c]`` up to ``caps[c]``
    points.  The one generation path behind :func:`generate_cvdps` and
    :func:`repro.vdps.catalog.build_batch` (so behind ``build_catalog``
    and the delta layer's rebuilds too).  Reads each center's points as
    :attr:`~repro.core.entities.DistributionCenter.columns`, builds its
    travel matrix (from ``layouts[c]``, a
    :class:`~repro.kernels.cvdps.LayoutMatrix`, when the caller keeps one
    across rounds), takes the pruning neighbourhood from its
    (Euclidean-metric) distances, runs one stacked DP over all centers
    (:func:`~repro.kernels.cvdps.compute_layers`) and lays every center's
    entries out in one pass (:meth:`EntryArrays.from_layers`).  Expansion
    totals land in the ``cvdps.*`` metrics, per center as a one-center
    build would count them.
    """
    from repro.kernels.cvdps import (
        CenterDP,
        center_matrix,
        compute_layers,
        split_layers,
    )
    from repro.kernels.validate import EntryArrays

    if layouts is None:
        layouts = [None] * len(centers)
    tables: List[Optional[CvdpsTable]] = []
    jobs = []
    for center, travel, cap, layout in zip(centers, travels, caps, layouts):
        points = center.columns
        n = len(points)
        if n == 0 or cap <= 0:
            # No DP runs, so no state ever chains through a neighbourhood.
            tables.append(CvdpsTable([], EntryArrays.from_entries([], points)))
            continue
        matrix = center_matrix(points, travel, center.location, layout)
        adjacency = chain_adjacency(points, matrix, travel, epsilon)
        # One DPStats per center: a center's cvdps.layer events report its
        # own running totals.
        jobs.append(
            (
                len(tables),
                CenterDP(center.center_id, points, adjacency, matrix, cap, DPStats()),
            )
        )
        tables.append(None)
        if epsilon is not None:
            # Ordered point pairs the epsilon neighbourhood excludes up
            # front: the state space the distance-constrained pruning
            # never visits.
            METRICS.counter("cvdps.pruned_pairs").add(
                n * (n - 1) - int(np.count_nonzero(adjacency))
            )
    if jobs:
        dps = [job for _, job in jobs]
        layers = compute_layers(dps, tracer)
        arrays = EntryArrays.from_layers(layers, [job.points for job in dps])
        blocks = split_layers(layers, len(dps))
        for (slot, _), table_paths, table_arrays in zip(jobs, blocks, arrays):
            tables[slot] = CvdpsTable(table_paths, table_arrays)
        METRICS.counter("cvdps.states_expanded").add(
            sum(job.stats.states_expanded for job in dps)
        )
        METRICS.counter("cvdps.candidates_tried").add(
            sum(job.stats.candidates_tried for job in dps)
        )
        METRICS.counter("cvdps.deadline_rejections").add(
            sum(job.stats.deadline_rejections for job in dps)
        )
    return tables


def generate_cvdps(
    center: DistributionCenter,
    travel: TravelModel,
    epsilon: Optional[float] = None,
    max_size: Optional[int] = None,
    tracer: Optional[NullTracer] = None,
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

    Returns
    -------
    list of :class:`CVdpsEntry`, sorted by (size, point ids) so output
    order is deterministic.
    """
    tracer = resolve_tracer(False) if tracer is None else tracer
    n = len(center.columns)
    cap = n if max_size is None else max(0, min(max_size, n))
    return generate_tables([center], [travel], [cap], epsilon, tracer)[0].arrays.entries


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
