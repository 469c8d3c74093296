"""Per-worker strategy catalogs built from C-VDPSs.

After C-VDPS generation, Section IV validates each set per worker using the
worker's travel time to the distribution center and the task expiration
times.  The result — every VDPS of every worker, with its minimal-time route
and precomputed payoff — is the strategy space of both games, so it is built
once per sub-problem and shared by all solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.entities import Worker
from repro.core.instance import SubProblem
from repro.core.payoff import worker_payoff
from repro.core.routing import Route, arrival_times, best_route
from repro.obs.metrics import METRICS
from repro.obs.tracer import NULL_TRACER, NullTracer, resolve_tracer
from repro.vdps.generator import CVdpsEntry, CvdpsTable, generate_table

#: Sentinel id for the *null* strategy (the worker performs no deliveries).
NULL_STRATEGY_ID = "<null>"


@dataclass(frozen=True)
class WorkerStrategy:
    """One strategy of one worker: a VDPS with its route and payoff.

    ``route`` arrival times include the worker's start offset, so ``payoff``
    is exactly Equation 1.  The null strategy has an empty set, an empty
    route, and payoff 0.
    """

    point_ids: FrozenSet[str]
    route: Route
    payoff: float

    @property
    def is_null(self) -> bool:
        return not self.point_ids

    @property
    def size(self) -> int:
        return len(self.point_ids)

    def conflicts_with(self, claimed: Iterable[str]) -> bool:
        """Whether this strategy uses any delivery point in ``claimed``."""
        if self.is_null:
            return False
        ids = self.point_ids
        return any(c in ids for c in claimed)


#: The shared null strategy (identical for every worker).
NULL_STRATEGY = WorkerStrategy(frozenset(), Route((), ()), 0.0)

#: Bits per mask word (the conflict index packs point ids into uint64 words).
_WORD_BITS = 64

_POINT_IDS = attrgetter("point_ids")
_PAYOFF = attrgetter("payoff")


@dataclass(frozen=True)
class WorkerIndex:
    """Vectorized view of one worker's strategy tuple, aligned by position.

    Row ``r`` of every array describes ``catalog.strategies(worker_id)[r]``,
    so an index computed over these arrays selects the exact same strategy
    (and therefore the same tie-breaking) as a scan over the tuple.
    """

    #: ``(n_strategies, n_words)`` uint64 conflict bitmasks (one bit per
    #: delivery point of the center, see :attr:`CatalogIndex.point_bits`).
    masks: np.ndarray
    #: ``(n_strategies,)`` float64 Equation-1 payoffs.
    payoffs: np.ndarray
    #: Positions (ascending, i.e. catalog order) of the size-1 strategies —
    #: the candidate pool of the random initial assignment.
    size1: np.ndarray

    @property
    def n_strategies(self) -> int:
        return self.payoffs.size

    def available(self, claimed_words: np.ndarray) -> np.ndarray:
        """Positions of strategies disjoint from the ``claimed_words`` mask.

        Equivalent to filtering the strategy tuple through
        :meth:`WorkerStrategy.conflicts_with`, as one vectorized pass.
        """
        conflict = (self.masks & claimed_words).any(axis=1)
        return np.flatnonzero(~conflict)


class CatalogIndex:
    """Bitmask conflict index over a catalog's delivery points.

    Every delivery point referenced by any strategy gets a bit position
    (assigned in sorted-id order, so the index is deterministic); each
    strategy becomes a packed uint64 bitmask over those positions.  Solvers
    then test availability with ``masks & claimed == 0`` over whole strategy
    lists instead of Python-level set intersections — the backbone of the
    vectorized best-response engine.

    Workers share most of their point sets (every worker validates the
    same C-VDPS subsets), so each distinct set is packed once into a
    table row; the catalog's rows are one gather from that table, and
    each worker's arrays are slices of the gathered arrays.
    """

    def __init__(self, strategies: Mapping[str, Tuple[WorkerStrategy, ...]]) -> None:
        bounds = [0, *accumulate(map(len, strategies.values()))]
        flat = list(chain.from_iterable(strategies.values()))
        point_sets = list(map(_POINT_IDS, flat))
        # Distinct point sets in first-seen order, numbered, and the row of
        # every strategy in that table.  (C-level map/dict passes feeding
        # ``np.array``: they beat comprehensions and ``np.fromiter`` at
        # every catalog size.)
        row_of: Dict[FrozenSet[str], int] = dict.fromkeys(point_sets)
        for row, subset in enumerate(row_of):
            row_of[subset] = row
        rows = np.array(list(map(row_of.__getitem__, point_sets)), dtype=np.intp)
        point_ids = sorted(set().union(*row_of))
        self.point_bits: Dict[str, int] = {
            dp_id: bit for bit, dp_id in enumerate(point_ids)
        }
        self.n_words: int = max(
            1, -(-len(point_ids) // _WORD_BITS)
        )  # ceil, at least one word so masks never degenerate to width 0
        masks = self._pack(row_of)[rows]
        payoffs = np.array(list(map(_PAYOFF, flat)), dtype=np.float64)
        single = np.array(list(map(len, row_of)), dtype=np.intp) == 1
        # Size-1 positions of the whole catalog; each worker's share is
        # made relative to the start of its segment.  (Method calls, not
        # ``np.`` functions: this runs once per catalog per round, and on
        # small centers numpy's dispatch overhead is most of the cost.)
        singles = single[rows].nonzero()[0]
        cuts = singles.searchsorted(bounds).tolist()
        # Workers without strategies (common on small centers) share one
        # all-empty view.
        empty = WorkerIndex(masks=masks[:0], payoffs=payoffs[:0], size1=singles[:0])
        self._workers: Dict[str, WorkerIndex] = {}
        for k, worker_id in enumerate(strategies):
            a, b = bounds[k], bounds[k + 1]
            if a == b:
                self._workers[worker_id] = empty
                continue
            size1 = singles[cuts[k] : cuts[k + 1]]
            if a and size1.size:
                size1 = size1 - a
            self._workers[worker_id] = WorkerIndex(
                masks=masks[a:b], payoffs=payoffs[a:b], size1=size1
            )

    def _pack(self, subsets: Iterable[FrozenSet[str]]) -> np.ndarray:
        """``(len(subsets), n_words)`` uint64 masks, one row per subset.

        Each subset becomes one Python integer (the sum of its points'
        distinct bit values), split into 64-bit words, lowest word first.
        """
        value = {dp_id: 1 << bit for dp_id, bit in self.point_bits.items()}
        ints = [sum(map(value.__getitem__, subset)) for subset in subsets]
        shifts = range(0, self.n_words * _WORD_BITS, _WORD_BITS)
        full = (1 << _WORD_BITS) - 1
        words = [(m >> shift) & full for m in ints for shift in shifts]
        return np.array(words, dtype=np.uint64).reshape(len(ints), self.n_words)

    def worker(self, worker_id: str) -> WorkerIndex:
        """The per-worker arrays; raises KeyError for unknown workers."""
        try:
            return self._workers[worker_id]
        except KeyError:
            raise KeyError(f"no worker {worker_id!r} in catalog index") from None

    def empty_mask(self) -> np.ndarray:
        """A fresh all-zero claimed mask (``(n_words,)`` uint64)."""
        return np.zeros(self.n_words, dtype=np.uint64)

    def mask_of(self, point_ids: Iterable[str]) -> np.ndarray:
        """The bitmask of an arbitrary point-id set (e.g. one strategy's)."""
        mask = self.empty_mask()
        for dp_id in point_ids:
            bit = self.point_bits[dp_id]
            mask[bit // _WORD_BITS] |= np.uint64(1 << (bit % _WORD_BITS))
        return mask


class VDPSCatalog:
    """Strategy spaces ``ST_i = VDPS(w_i) ∪ {null}`` for a sub-problem.

    Strategies are sorted by descending payoff (ties broken by point ids) so
    iteration order — and therefore every solver's tie-breaking — is
    deterministic.
    """

    def __init__(
        self,
        workers: Tuple[Worker, ...],
        strategies: Mapping[str, Tuple[WorkerStrategy, ...]],
        epsilon: Optional[float],
        cvdps_count: int,
    ) -> None:
        self._workers = workers
        self._strategies: Dict[str, Tuple[WorkerStrategy, ...]] = dict(strategies)
        self.epsilon = epsilon
        self.cvdps_count = cvdps_count
        # Both aggregates are O(total strategies) and read on hot paths
        # (solve_start trace events, reports), so they are computed once.
        self._max_vdps_size = max(
            map(len, map(_POINT_IDS, chain.from_iterable(self._strategies.values()))),
            default=0,
        )
        self._total_strategy_count = sum(
            len(v) for v in self._strategies.values()
        )
        self._index: Optional[CatalogIndex] = None

    @property
    def workers(self) -> Tuple[Worker, ...]:
        return self._workers

    def strategies(self, worker_id: str) -> Tuple[WorkerStrategy, ...]:
        """The worker's non-null strategies, best payoff first."""
        try:
            return self._strategies[worker_id]
        except KeyError:
            raise KeyError(f"no worker {worker_id!r} in catalog") from None

    def has_strategies(self, worker_id: str) -> bool:
        """Whether the worker has at least one non-null VDPS."""
        return bool(self._strategies.get(worker_id))

    def available(
        self, worker_id: str, claimed: Iterable[str]
    ) -> List[WorkerStrategy]:
        """Non-null strategies not conflicting with ``claimed`` point ids."""
        claimed_set = frozenset(claimed)
        return [
            s
            for s in self.strategies(worker_id)
            if not (claimed_set and s.conflicts_with(claimed_set))
        ]

    @property
    def max_vdps_size(self) -> int:
        """``|maxVDPS|``: the largest VDPS size across all workers."""
        return self._max_vdps_size

    @property
    def total_strategy_count(self) -> int:
        """Total number of non-null strategies across workers."""
        return self._total_strategy_count

    @property
    def index(self) -> CatalogIndex:
        """The bitmask conflict index, built on first access and cached.

        One-shot solvers (GTA, MPTA) never touch it, so the packing cost is
        only paid by the game solvers that actually vectorize over it.
        """
        if self._index is None:
            self._index = CatalogIndex(self._strategies)
        return self._index

    def describe(self) -> str:
        """One-line summary used in logs and experiment reports."""
        return (
            f"catalog: |W|={len(self._workers)} cvdps={self.cvdps_count} "
            f"strategies={self.total_strategy_count} eps={self.epsilon}"
        )


def build_catalog(
    sub: SubProblem,
    epsilon: Optional[float] = None,
    strict_revalidation: bool = False,
    cvdps: Optional[List[CVdpsEntry]] = None,
    tracer: Optional[NullTracer] = None,
    kernel: Optional[str] = None,
) -> VDPSCatalog:
    """Build the strategy catalog for every online worker of ``sub``.

    Parameters
    ----------
    sub:
        The per-center sub-problem.
    epsilon:
        Distance-constrained pruning threshold; ``None`` disables pruning.
    kernel:
        Implementation tier for C-VDPS generation and the per-worker
        validation scan (``"scalar"`` or ``"vectorized"``; ``None``
        resolves the process default — see
        :mod:`repro.kernels.config`).  Tiers are bit-identical: the same
        strategies, routes, payoffs, and index layout.
    strict_revalidation:
        The paper validates a C-VDPS per worker by shifting its recorded
        minimal-time sequence by the worker's start offset.  A set whose
        recorded sequence misses a deadline might still admit *another*
        feasible order for that worker; with ``strict_revalidation`` those
        sets are re-solved exactly (Held-Karp) instead of dropped.  Off by
        default to match the paper.
    cvdps:
        Pre-generated C-VDPS entries, to share work across algorithm arms
        that use the same ``epsilon``.
    tracer:
        Structured-event tracer for the build; ``None`` resolves the
        process-wide sink (``REPRO_TRACE`` / :func:`repro.obs.set_tracing`).
        A live tracer receives one ``catalog.build`` span per call; build
        timings and strategy counts always land in the :mod:`repro.obs`
        metrics registry.
    """
    tracer = resolve_tracer(False) if tracer is None else tracer
    span = tracer.span(
        "catalog.build",
        center=sub.center.center_id,
        epsilon=epsilon,
        workers=len(sub.online_workers),
    )
    with span, METRICS.timer("catalog.build_seconds"):
        catalog = _build_catalog(
            sub, epsilon, strict_revalidation, cvdps, tracer, kernel
        )
        if tracer.enabled:
            span.add(
                cvdps=catalog.cvdps_count,
                strategies=catalog.total_strategy_count,
            )
    METRICS.counter("catalog.builds").add(1)
    return catalog


def worker_offset_factor(
    worker: Worker, travel_model, center_location
) -> Tuple[float, float]:
    """The worker's start-time ``(offset, speed factor)`` pair.

    Workers with an individual speed (future-work extension) traverse the
    same distances in scaled time: center-relative arrival times stretch by
    ``factor = shared_speed / worker_speed``.  Only these two numbers (plus
    ``max_delivery_points``) feed per-worker validation, so the delta layer
    revalidates a worker exactly when one of them changed.
    """
    if worker.speed_kmh is None or worker.speed_kmh == travel_model.speed_kmh:
        factor = 1.0
    else:
        factor = travel_model.speed_kmh / worker.speed_kmh
    offset = travel_model.time(worker.location, center_location) * factor
    return offset, factor


def validate_entry(
    entry: CVdpsEntry,
    worker: Worker,
    offset: float,
    factor: float,
    travel_model,
    center_location,
    strict_revalidation: bool = False,
) -> Optional[WorkerStrategy]:
    """Section IV validation of one C-VDPS for one worker.

    Returns the worker's :class:`WorkerStrategy` for ``entry``, or ``None``
    when the set is infeasible (deadline miss after the start offset) or
    degenerate (non-positive completion time, non-finite payoff).  Shared
    verbatim by the full catalog build and :mod:`repro.vdps.delta`, which is
    what makes an incrementally revalidated strategy bit-identical to the
    rebuilt one.
    """
    if entry.size > worker.max_delivery_points:
        return None
    if factor == 1.0:
        base = entry.route
    elif any(dp.service_hours for dp in entry.route.sequence):
        # Service time does not scale with travel speed, so the
        # arrival times must be recomputed rather than scaled.
        worker_travel = travel_model.with_speed(worker.speed_kmh)
        base = Route(
            entry.route.sequence,
            tuple(
                arrival_times(center_location, entry.route.sequence, worker_travel)
            ),
        )
    else:
        base = entry.route.scaled(factor)
    if base.is_valid_with_offset(offset):
        route = base.shifted(offset)
    elif strict_revalidation:
        worker_travel = (
            travel_model if factor == 1.0 else travel_model.with_speed(worker.speed_kmh)
        )
        route = best_route(
            center_location,
            entry.route.sequence,
            worker_travel,
            start_offset=offset,
        )
        if route is None:
            return None
    else:
        return None
    if route.completion_time <= 0:
        # Degenerate geometry: delivery point co-located with both
        # center and worker.  Equation 1's payoff is undefined
        # (reward at zero cost), so the strategy is excluded.
        return None
    payoff = worker_payoff(route)
    if not math.isfinite(payoff):
        # Subnormal travel times can overflow the ratio to inf;
        # such strategies are as degenerate as zero-cost ones.
        return None
    return WorkerStrategy(entry.point_ids, route, payoff)


def strategy_sort_key(strategy: WorkerStrategy):
    """The canonical catalog ordering: best payoff first, ties by point ids.

    Unique per worker (one strategy per subset), hence a total order — any
    collection of validated strategies sorts to the same tuple regardless
    of how it was accumulated, which is what lets the incremental catalog
    (:mod:`repro.vdps.delta`) erase its insertion history.
    """
    return (-strategy.payoff, tuple(sorted(strategy.point_ids)))


def build_with_table(
    sub: SubProblem,
    epsilon: Optional[float],
    strict_revalidation: bool = False,
    tracer: NullTracer = NULL_TRACER,
    kernel: Optional[str] = None,
    layout=None,
) -> Tuple[VDPSCatalog, CvdpsTable]:
    """The catalog of ``sub`` plus the C-VDPS table it was validated from.

    The one full-build path: :func:`build_catalog` keeps the catalog, and
    :class:`~repro.vdps.delta.DeltaCatalog` also keeps the table, deriving
    its surgery state from it only when a later refresh needs it, and
    passes its cross-round travel-matrix cache as ``layout``.  Counts
    ``catalog.strategies_built`` (and, through generation, the
    ``cvdps.*`` totals) whichever caller asked.
    """
    cap = max((w.max_delivery_points for w in sub.online_workers), default=0)
    table = generate_table(
        sub.center, sub.travel, epsilon, cap, tracer, kernel, layout
    )
    entries = None if table.arrays is not None else table.entries()
    catalog = _validate_all(sub, epsilon, strict_revalidation, table.arrays, entries)
    return catalog, table


def _build_catalog(
    sub: SubProblem,
    epsilon: Optional[float],
    strict_revalidation: bool,
    cvdps: Optional[List[CVdpsEntry]],
    tracer: NullTracer,
    kernel: Optional[str] = None,
) -> VDPSCatalog:
    from repro.kernels import resolve_kernel

    tier = resolve_kernel(kernel)
    if cvdps is None:
        return build_with_table(sub, epsilon, strict_revalidation, tracer, tier)[0]
    arrays = None
    if tier != "scalar":
        from repro.kernels.validate import EntryArrays

        arrays = EntryArrays.from_entries(cvdps)
    return _validate_all(sub, epsilon, strict_revalidation, arrays, cvdps)


def _validate_all(
    sub: SubProblem,
    epsilon: Optional[float],
    strict_revalidation: bool,
    arrays,
    entries: Optional[List[CVdpsEntry]],
) -> VDPSCatalog:
    """Section IV validation of every entry for every online worker.

    ``arrays`` (vectorized tier) selects the array scan; without them the
    scalar ``validate_entry`` loop runs over ``entries``.
    """
    workers = sub.online_workers
    travel_model = sub.travel
    if arrays is not None:
        from repro.kernels.validate import validate_worker_vectorized

        if arrays.n_entries:
            METRICS.counter("kernel.validate_vectorized").add(1)
        cvdps_count = arrays.n_entries
    else:
        cvdps_count = len(entries)

    strategies: Dict[str, Tuple[WorkerStrategy, ...]] = {}
    for worker in workers:
        offset, factor = worker_offset_factor(worker, travel_model, sub.center.location)
        if arrays is not None:
            # Already in canonical catalog order (the kernel lexsorts by
            # payoff and precomputed id ranks), so no key-function sort.
            found = validate_worker_vectorized(
                arrays,
                worker,
                offset,
                factor,
                travel_model,
                sub.center.location,
                strict_revalidation,
            )
        else:
            found = []
            for entry in entries:
                strategy = validate_entry(
                    entry,
                    worker,
                    offset,
                    factor,
                    travel_model,
                    sub.center.location,
                    strict_revalidation,
                )
                if strategy is not None:
                    found.append(strategy)
            found.sort(key=strategy_sort_key)
        strategies[worker.worker_id] = tuple(found)
    catalog = VDPSCatalog(workers, strategies, epsilon, cvdps_count)
    METRICS.counter("catalog.strategies_built").add(catalog.total_strategy_count)
    return catalog
