"""Reference implementations that production is checked against.

Production runs one tier: array kernels for the paper's Algorithm 1 (the
C-VDPS subset DP) and the Section IV validation scan, and best-response
rounds for Algorithms 2 (FGT) and 3 (IEGT) that read availability from the
catalog's bitmask conflict index.  This module keeps the plain-Python
formulations that production must equal bit for bit.  Only the
differential suites import it:

* the dict-keyed layered DP (:func:`compute_states`), and a catalog build
  that runs it and validates every worker with
  :func:`~repro.vdps.catalog.validate_entry` (:func:`build_catalog`);
* literal Algorithm 1 (:func:`generate_cvdps_reference`) and exhaustive
  routing (:func:`brute_force_best_route`) for small inputs;
* the per-strategy FGT round and IEGT evolution step
  (:class:`ScalarFGTSolver`, :class:`ScalarIEGTSolver`).  They derive the
  claimed points from :meth:`~repro.games.base.GameState.strategy_of` and
  scan strategy sets (:func:`available`), so they never read the masks
  they check;
* converters between the DP's array layers and its dict form
  (:func:`states_from_layers`, :func:`paths_from_states`);
* the service world's from-scratch snapshot (:func:`scratch_snapshot`),
  which re-sorts and re-materialises every pending task, and the SHA-256
  content hash of a center's sub-problem (:func:`_fingerprint`) that the
  snapshot's ``(center version, now)`` catalog keys are checked against.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.entities import DeliveryPoint, DistributionCenter
from repro.core.fairness import InequityAversion
from repro.core.instance import SubProblem
from repro.core.routing import Route, arrival_times, route_is_valid
from repro.games.base import GameState
from repro.games.fgt import FGTSolver, _effective
from repro.games.iegt import IEGTSolver
from repro.games.potential import IAUEvaluator, potential_value
from repro.games.trace import ConvergenceTrace
from repro.geo.travel import TravelModel
from repro.kernels.validate import EntryArrays, _scalar_scan, table_of
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.vdps.catalog import (
    NULL_STRATEGY,
    VDPSCatalog,
    WorkerStrategy,
    worker_offset_factor,
)
from repro.vdps.generator import CVdpsEntry, DPStats, neighbor_id_map
from repro.vdps.pruning import neighbor_lists
from repro.verify.verifier import NullVerifier

#: One DP state: the subset visited so far and the point the worker stands at.
StateKey = Tuple[FrozenSet[str], str]
#: A state's value: minimal arrival time at the endpoint, plus the visit
#: order achieving it.  Compared lexicographically (time first, then path by
#: dp ids), which breaks exact-time ties deterministically *and* order-
#: independently.
StateVal = Tuple[float, Tuple[str, ...]]


# -- Algorithm 1 as a dict DP ----------------------------------------------


def seed_value(
    dp: DeliveryPoint, travel: TravelModel, center_location
) -> Optional[StateVal]:
    """The singleton state ``({dp}, dp)``, or ``None`` if its deadline fails."""
    t = travel.time(center_location, dp.location)
    if t <= dp.earliest_expiry:
        return (t, (dp.dp_id,))
    return None


def extend_value(
    value: StateVal,
    dp_from: DeliveryPoint,
    dp_to: DeliveryPoint,
    travel: TravelModel,
) -> Optional[StateVal]:
    """``value`` extended by travelling ``dp_from -> dp_to``; ``None`` if late.

    The float evaluation order is arrival + service, then + travel.
    """
    t, path = value
    t_next = t + dp_from.service_hours + travel.time(dp_from.location, dp_to.location)
    if t_next > dp_to.earliest_expiry:
        return None
    return (t_next, path + (dp_to.dp_id,))


def relax(table: Dict[StateKey, StateVal], key: StateKey, value: StateVal) -> None:
    """Keep the canonical (lexicographically minimal) value for ``key``."""
    cur = table.get(key)
    if cur is None or value < cur:
        table[key] = value


def compute_states(
    points_by_id: Mapping[str, DeliveryPoint],
    neighbors: Mapping[str, Sequence[str]],
    travel: TravelModel,
    center_location,
    cap: int,
    stats: DPStats,
    tracer: NullTracer,
    center_id: str,
) -> Dict[StateKey, StateVal]:
    """The full layered DP over ``points_by_id``: every feasible state.

    Adds to ``stats`` and emits one ``cvdps.layer`` event per layer, as
    :func:`repro.kernels.cvdps.compute_layers` does.
    """
    states: Dict[StateKey, StateVal] = {}
    frontier: Dict[StateKey, StateVal] = {}
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
        next_frontier: Dict[StateKey, StateVal] = {}
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


def collect_entries(
    points_by_id: Mapping[str, DeliveryPoint],
    states: Mapping[StateKey, StateVal],
    travel: TravelModel,
    center_location,
) -> List[CVdpsEntry]:
    """Each subset's canonical minimal state as a :class:`CVdpsEntry`,
    sorted by (size, point ids)."""
    best: Dict[FrozenSet[str], StateVal] = {}
    for (subset, _), value in states.items():
        cur = best.get(subset)
        if cur is None or value < cur:
            best[subset] = value
    entries = []
    for subset, (_, path) in best.items():
        sequence = tuple(points_by_id[dp_id] for dp_id in path)
        times = tuple(arrival_times(center_location, sequence, travel))
        entries.append(CVdpsEntry(subset, Route(sequence, times)))
    entries.sort(key=lambda e: (e.size, tuple(sorted(e.point_ids))))
    return entries


def generate_cvdps(
    center: DistributionCenter,
    travel: TravelModel,
    epsilon: Optional[float] = None,
    max_size: Optional[int] = None,
) -> List[CVdpsEntry]:
    """:func:`repro.vdps.generator.generate_cvdps` through the dict DP."""
    points = center.delivery_points
    n = len(points)
    cap = n if max_size is None else max(0, min(max_size, n))
    if n == 0 or cap <= 0:
        return []
    points_by_id = {dp.dp_id: dp for dp in points}
    states = compute_states(
        points_by_id,
        neighbor_id_map(points, epsilon),
        travel,
        center.location,
        cap,
        DPStats(),
        NULL_TRACER,
        center.center_id,
    )
    return collect_entries(points_by_id, states, travel, center.location)


def build_catalog(
    sub: SubProblem,
    epsilon: Optional[float] = None,
    cvdps: Optional[List[CVdpsEntry]] = None,
) -> VDPSCatalog:
    """:func:`repro.vdps.catalog.build_catalog` through the dict DP, with
    every worker validated entry by entry by ``validate_entry``."""
    if cvdps is None:
        cap = max((w.max_delivery_points for w in sub.online_workers), default=0)
        cvdps = generate_cvdps(sub.center, sub.travel, epsilon, cap)
    arrays = EntryArrays.from_entries(cvdps, sub.center.columns)
    location = sub.center.location
    parts, offsets = [], []
    for worker in sub.online_workers:
        offset, factor = worker_offset_factor(worker, sub.travel, location)
        parts.append(
            _scalar_scan(arrays, worker, offset, factor, sub.travel, location)
        )
        offsets.append(offset)
    return VDPSCatalog(
        sub.online_workers,
        table_of(arrays, parts, offsets),
        epsilon,
        arrays.n_entries,
    )


# -- Exhaustive references for small inputs ---------------------------------


def generate_cvdps_reference(
    center: DistributionCenter,
    travel: TravelModel,
    epsilon: Optional[float] = None,
    max_size: Optional[int] = None,
) -> List[CVdpsEntry]:
    """Literal Algorithm 1: enumerate every subset, solve each exactly.

    Exponential in ``|dc.DP|``.  Under pruning, a sequence is admissible
    only if every *consecutive* pair of delivery points is within
    ``epsilon``, matching the restriction the generator applies while
    chaining.
    """
    points = center.delivery_points
    n = len(points)
    cap = n if max_size is None else max(0, min(max_size, n))
    allowed = [set(adj) for adj in neighbor_lists(points, epsilon)]

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


def brute_force_best_route(
    center_location,
    points: Sequence[DeliveryPoint],
    travel: TravelModel,
    start_offset: float = 0.0,
) -> Optional[Route]:
    """The minimal-completion-time deadline-feasible visit of ``points``
    (``None`` if none is feasible), by enumerating every permutation: the
    exhaustive reference for the minimal times the C-VDPS DP records.
    Only suitable for very small inputs.
    """
    pts = list(points)
    if not pts:
        return Route((), ())
    best: Optional[Route] = None
    for perm in itertools.permutations(pts):
        if not route_is_valid(center_location, perm, travel, start_offset):
            continue
        times = tuple(arrival_times(center_location, perm, travel, start_offset))
        candidate = Route(tuple(perm), times)
        if best is None or candidate.completion_time < best.completion_time:
            best = candidate
    return best


# -- Layout converters --------------------------------------------------------


def states_from_layers(layers, ids: Sequence[str]) -> Dict[StateKey, StateVal]:
    """The dict-form state table ``{(subset, end): (time, path)}`` of a
    one-center :func:`~repro.kernels.cvdps.compute_layers` result; ``ids``
    are that center's sorted dp ids."""
    states: Dict[StateKey, StateVal] = {}
    for layer in layers:
        for row, t in zip(layer.paths.tolist(), layer.times[:, -1].tolist()):
            path = tuple(map(ids.__getitem__, row))
            states[(frozenset(path), path[-1])] = (t, path)
    return states


def paths_from_states(
    states: Mapping[StateKey, StateVal], ids: Sequence[str]
) -> List[np.ndarray]:
    """A dict-form state table as each layer's path-lex visit orders over
    the sorted dp ``ids`` (the form of
    :attr:`repro.vdps.generator.CvdpsTable.paths`)."""
    position = {dp_id: k for k, dp_id in enumerate(ids)}
    by_size: Dict[int, List[List[int]]] = {}
    for _, path in states.values():
        by_size.setdefault(len(path), []).append([position[dp_id] for dp_id in path])
    paths = []
    for size in range(1, len(by_size) + 1):
        rows = np.array(by_size[size], dtype=np.intp)
        paths.append(rows[np.lexsort(rows.T[::-1])])
    return paths


# -- Availability and the per-strategy solver rounds --------------------------


def available(
    catalog: VDPSCatalog, worker_id: str, claimed: Iterable[str]
) -> List[WorkerStrategy]:
    """The worker's non-null strategies not conflicting with ``claimed``
    point ids, in catalog order: one set test per strategy."""
    claimed_set = frozenset(claimed)
    return [
        s
        for s in catalog.strategies(worker_id)
        if not (claimed_set and s.conflicts_with(claimed_set))
    ]


def claimed_points(state: GameState, worker_id: str) -> Set[str]:
    """Delivery points the strategies of every worker but ``worker_id``
    use, read off :meth:`~repro.games.base.GameState.strategy_of`."""
    claimed: Set[str] = set()
    for worker in state.workers:
        if worker.worker_id != worker_id:
            claimed |= state.strategy_of(worker.worker_id).point_ids
    return claimed


def available_strategies(state: GameState, worker_id: str) -> List[WorkerStrategy]:
    """What ``worker_id`` could switch to in ``state``, by set scan."""
    return available(state.catalog, worker_id, claimed_points(state, worker_id))


class ScalarFGTSolver(FGTSolver):
    """:class:`~repro.games.fgt.FGTSolver` with the per-strategy round."""

    def _best_response_round(
        self,
        state: GameState,
        model: InequityAversion,
        trace: ConvergenceTrace,
        scales: np.ndarray,
        rng,
        verifier: NullVerifier,
        round_index: int,
        tracer: NullTracer,
        batch_stats: list,
        base: Optional[np.ndarray] = None,
    ) -> int:
        """One pass of sequential asynchronous best responses; returns
        switches.  Every available strategy's IAU is evaluated one by one,
        and exact-utility ties among the accepted best are drawn from
        ``rng`` as the production round draws them.  Counts no filter
        batches."""
        switches = 0
        payoffs = state.payoffs()
        for idx, worker in enumerate(state.workers):
            wid = worker.worker_id
            others = np.delete(_effective(payoffs, scales, base), idx)
            evaluator = IAUEvaluator(others, model)
            current = state.strategy_of(wid)
            best_strategy = NULL_STRATEGY
            null_value = (
                NULL_STRATEGY.payoff
                if base is None
                else NULL_STRATEGY.payoff * scales[idx] + base[idx]
            )
            best_utility = evaluator.utility(null_value)
            candidates = available_strategies(state, wid)
            utilities = []
            accepted_any = False
            for strategy in candidates:
                value = strategy.payoff * scales[idx]
                if base is not None:
                    value = value + base[idx]
                u = evaluator.utility(value)
                utilities.append(u)
                if u > best_utility + self.tol:
                    best_strategy, best_utility = strategy, u
                    accepted_any = True
            if accepted_any:
                ties = [i for i, u in enumerate(utilities) if u == best_utility]
                if len(ties) > 1:
                    best_strategy = candidates[ties[int(rng.integers(len(ties)))]]
            current_value = current.payoff * scales[idx]
            if base is not None:
                current_value = current_value + base[idx]
            current_utility = evaluator.utility(current_value)
            switched = 0
            if best_utility > current_utility + self.tol:
                verifier.on_switch(wid, round_index, current_utility, best_utility)
                if tracer.enabled:
                    tracer.event(
                        "fgt.switch",
                        worker=wid,
                        round=round_index,
                        utility_before=current_utility,
                        utility_after=best_utility,
                        payoff=best_strategy.payoff,
                    )
                state.set_strategy(wid, best_strategy)
                payoffs[idx] = best_strategy.payoff
                switches += 1
                switched = 1
            if self.trace_granularity == "update":
                trace.record(
                    len(trace) + 1,
                    payoffs.copy(),
                    switched,
                    potential_value(_effective(payoffs, scales, base), model),
                )
        return switches


class ScalarIEGTSolver(IEGTSolver):
    """:class:`~repro.games.iegt.IEGTSolver` with the per-strategy
    evolution step."""

    def _evolve(
        self,
        state: GameState,
        k: int,
        current_payoff: float,
        rng: np.random.Generator,
        batch_stats: list,
    ) -> bool:
        """Switch worker ``k`` to a random strictly-better available VDPS
        (Algorithm 3, lines 22-25), filtering the strategy list one object
        at a time.  Reads its payoff off its strategy object, not
        ``current_payoff``.  Counts no filter batches."""
        worker_id = state.workers[k].worker_id
        current_payoff = state.strategy_of(worker_id).payoff
        better = [
            s
            for s in available_strategies(state, worker_id)
            if s.payoff > current_payoff + self.tol
        ]
        if not better:
            return False
        state.set_strategy(worker_id, better[int(rng.integers(0, len(better)))])
        return True


# -- the service world's snapshot, from scratch -----------------------------


def _fingerprint(sub: SubProblem) -> str:
    """Content hash of everything a center's catalog depends on."""
    digest = hashlib.sha256()
    for w in sub.workers:
        digest.update(
            f"w|{w.worker_id}|{w.location.x.hex()}|{w.location.y.hex()}|"
            f"{w.max_delivery_points}|{w.speed_kmh}".encode()
        )
    for dp in sub.center.delivery_points:
        digest.update(
            f"p|{dp.dp_id}|{dp.location.x.hex()}|{dp.location.y.hex()}|"
            f"{float(dp.service_hours).hex()}".encode()
        )
        for task in sorted(dp.tasks):
            digest.update(
                f"t|{task.task_id}|{float(task.expiry).hex()}|"
                f"{float(task.reward).hex()}".encode()
            )
    return digest.hexdigest()


def scratch_snapshot(state):
    """``state.snapshot()`` computed from nothing but the world's contents.

    Every pending task is sorted, filtered and materialised again, every
    worker bucketed again, and ``keys`` holds each center's
    :func:`_fingerprint` in place of its ``(version, now)`` key.  Reads
    the world under its lock and changes nothing.
    """
    from repro.core.entities import SpatialTask
    from repro.service.state import WorldSnapshot

    with state.lock:
        now = state.now
        by_center: Dict[str, Dict[str, List[SpatialTask]]] = {}
        for arrival in sorted(state._pending.values(), key=lambda a: a.task_id):
            remaining = arrival.remaining(now)
            if remaining <= 0:
                continue
            center_id = state._dp_center[arrival.dp_id]
            leg = state.travel.time(
                state._centers[center_id].location,
                state._layout[arrival.dp_id].location,
            )
            if remaining <= leg:
                continue  # hopeless even from the center (Definition 6)
            by_center.setdefault(center_id, {}).setdefault(arrival.dp_id, []).append(
                SpatialTask(arrival.task_id, arrival.dp_id, remaining, arrival.reward)
            )
        available: Dict[str, list] = {}
        for wid in sorted(state._workers):
            center_id = state._worker_center[wid]
            worker = state._workers[wid]
            if center_id in by_center and worker.is_available(now):
                available.setdefault(center_id, []).append(worker.snapshot())
        subs = []
        keys: Dict[str, str] = {}
        for center_id in sorted(by_center):
            if center_id not in available:
                continue
            points = tuple(
                state._layout[dp_id].with_tasks(tuple(tasks))
                for dp_id, tasks in sorted(by_center[center_id].items())
            )
            center = state._centers[center_id]
            sub = SubProblem(
                DistributionCenter(center_id, center.location, points),
                tuple(available[center_id]),
                state.travel,
            )
            subs.append(sub)
            keys[center_id] = _fingerprint(sub)
        return WorldSnapshot(
            now=now,
            subproblems=tuple(subs),
            keys=keys,
            pending_tasks=len(state._pending),
            available_workers=sum(
                1 for w in state._workers.values() if w.is_available(now)
            ),
        )
