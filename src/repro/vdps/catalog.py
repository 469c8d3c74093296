"""Per-worker strategy catalogs built from C-VDPSs.

After C-VDPS generation, Section IV validates each set per worker using the
worker's travel time to the distribution center and the task expiration
times.  The result — every VDPS of every worker, with its minimal-time route
and precomputed payoff — is the strategy space of both games, so it is built
once per sub-problem and shared by all solvers.

The catalog is columnar.  Validation keeps, per worker, the rows of the
center's shared :class:`~repro.kernels.validate.EntryArrays` that pass and
their payoffs, in canonical catalog order (:class:`WorkerStrategies`); the
conflict index (:class:`CatalogIndex`) gathers the entries' packed point
masks by row.  FGT's best response reads only those payoffs and masks, so
``Route`` and :class:`WorkerStrategy` objects exist only for the strategies
a solver picks: ``catalog.strategies(wid)[pos]`` builds one on first access
and caches it.  Solvers that walk whole strategy spaces (GTA, MPTA,
exhaustive search) get every object of a worker in one batched pass.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.entities import Worker
from repro.core.instance import SubProblem
from repro.core.payoff import worker_payoff
from repro.core.routing import Route, arrival_times, best_route
from repro.obs.metrics import METRICS
from repro.obs.tracer import NULL_TRACER, NullTracer, resolve_tracer
from repro.vdps.generator import CVdpsEntry, CvdpsTable, generate_tables

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


class WorkerStrategies(Sequence):
    """One worker's strategies as columns: entry rows and payoffs.

    Position ``r`` is the strategy of entry ``rows[r]`` of the catalog's
    :class:`~repro.kernels.validate.EntryArrays` with payoff
    ``payoffs[r]``, in canonical catalog order.  ``self[r]`` builds the
    :class:`WorkerStrategy` on first access and caches it, so repeated
    (and concurrent) reads return the same object; iterating builds every
    missing position in one batched pass.  ``objects``, when given, are
    the column's strategies, one per position (the scalar validation path
    keeps its exact objects: it re-times routes a row cannot describe),
    and nothing is ever built from the rows.  Compares equal to a tuple
    of the same strategies.
    """

    __slots__ = ("arrays", "rows", "payoffs", "offset", "_cache", "_all")

    def __init__(
        self,
        arrays,
        rows: np.ndarray,
        payoffs: np.ndarray,
        offset: float,
        objects: Optional[Sequence[WorkerStrategy]] = None,
    ) -> None:
        #: The shared entry table the rows index.
        self.arrays = arrays
        #: ``(n,)`` intp — entry row of each position.
        self.rows = rows
        #: ``(n,)`` float64 — Equation-1 payoff of each position.
        self.payoffs = payoffs
        #: The worker's start offset (hours), added to every arrival time.
        self.offset = offset
        self._cache: Dict[int, WorkerStrategy] = {}
        self._all: Optional[Tuple[WorkerStrategy, ...]] = None
        if objects is not None:
            if len(objects) != rows.size:
                raise ValueError(
                    f"{len(objects)} strategy objects for {rows.size} rows"
                )
            self._all = tuple(objects)

    def __len__(self) -> int:
        return self.rows.size

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return self._tuple()[pos]
        pos = operator.index(pos)
        if self._all is not None:
            return self._all[pos]
        strategy = self._cache.get(pos)
        if strategy is not None:
            return strategy
        n = self.rows.size
        if pos < 0:
            pos += n
        if not 0 <= pos < n:
            raise IndexError("strategy position out of range")
        built = self.arrays.strategy_objects(
            self.rows[pos : pos + 1], self.payoffs[pos : pos + 1], self.offset
        )[0]
        strategy = self._cache.setdefault(pos, built)
        if strategy is built:
            METRICS.counter("catalog.strategies_materialised").add(1)
        return strategy

    def __iter__(self) -> Iterator[WorkerStrategy]:
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        if isinstance(other, WorkerStrategies):
            return self._tuple() == other._tuple()
        if isinstance(other, (tuple, list)):
            return self._tuple() == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"WorkerStrategies({self._tuple()!r})"

    def replaced(self, objects: Mapping[int, WorkerStrategy]) -> "WorkerStrategies":
        """A copy over the same columns whose cache holds ``objects``."""
        if self._all is not None:
            merged = list(self._all)
            for pos, strategy in objects.items():
                merged[pos] = strategy
            return WorkerStrategies(
                self.arrays, self.rows, self.payoffs, self.offset, merged
            )
        copy = WorkerStrategies(self.arrays, self.rows, self.payoffs, self.offset)
        copy._cache.update(self._cache)
        copy._cache.update(objects)
        return copy

    def _tuple(self) -> Tuple[WorkerStrategy, ...]:
        """Every strategy, the missing ones built in one batched pass."""
        if self._all is None:
            cache = self._cache
            missing = [pos for pos in range(self.rows.size) if pos not in cache]
            if missing:
                idx = np.array(missing, dtype=np.intp)
                built = self.arrays.strategy_objects(
                    self.rows[idx], self.payoffs[idx], self.offset
                )
                # setdefault: a racing first build of a position wins.
                fresh = sum(
                    cache.setdefault(pos, s) is s for pos, s in zip(missing, built)
                )
                METRICS.counter("catalog.strategies_materialised").add(fresh)
            self._all = tuple(map(cache.__getitem__, range(self.rows.size)))
        return self._all


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

    def position_of(self, mask: np.ndarray) -> int:
        """The position whose point set is exactly ``mask``, or ``-1``."""
        hits = np.flatnonzero((self.masks == mask).all(axis=1))
        return int(hits[0]) if hits.size else -1


class CatalogIndex:
    """Bitmask conflict index over a catalog's delivery points.

    Every delivery point some strategy uses gets a bit position (assigned
    in sorted-id order, so the index is deterministic); each strategy
    becomes a packed uint64 bitmask over those positions.  Solvers then
    test availability with ``masks & claimed == 0`` over whole strategy
    lists instead of Python-level set intersections — the backbone of the
    vectorized best-response engine.

    The masks are not packed here: each entry of the catalog's
    :class:`~repro.kernels.validate.EntryArrays` carries its packed point
    set (the DP's own subset mask on a full build).  The index gathers the
    distinct kept entries' masks, compacts their bits to the points some
    strategy uses, and gathers each worker's rows from that table.
    """

    def __init__(self, arrays, columns: Mapping[str, WorkerStrategies]) -> None:
        row_parts = [c.rows for c in columns.values()]
        bounds = [0, *accumulate(map(len, row_parts))]
        rows = (
            np.concatenate(row_parts) if row_parts else np.empty(0, dtype=np.intp)
        )
        # The distinct kept entries, each packed once, and their union.
        kept = np.zeros(arrays.n_entries, dtype=bool)
        kept[rows] = True
        distinct = kept.nonzero()[0]
        table = arrays.masks[distinct]
        union = np.bitwise_or.reduce(table, axis=0) if distinct.size else table[:0]
        used = np.unpackbits(union.view(np.uint8), bitorder="little").nonzero()[0]
        points = arrays.points
        self.point_bits: Dict[str, int] = {
            points[i].dp_id: bit for bit, i in enumerate(used.tolist())
        }
        self.n_words: int = max(
            1, -(-used.size // _WORD_BITS)
        )  # ceil, at least one word so masks never degenerate to width 0
        table = _compact(table, used, self.n_words)
        slot = np.zeros(arrays.n_entries, dtype=np.intp)
        slot[distinct] = np.arange(distinct.size)
        masks = table[slot[rows]]
        # Size-1 positions of the whole catalog; each worker's share is
        # made relative to the start of its segment.  (Method calls, not
        # ``np.`` functions: this runs once per catalog per round, and on
        # small centers numpy's dispatch overhead is most of the cost.)
        singles = (arrays.sizes[rows] == 1).nonzero()[0]
        cuts = singles.searchsorted(bounds).tolist()
        # Workers without strategies (common on small centers) share one
        # all-empty view.
        empty = WorkerIndex(
            masks=masks[:0], payoffs=np.empty(0, dtype=np.float64), size1=singles[:0]
        )
        self._workers: Dict[str, WorkerIndex] = {}
        for k, (worker_id, column) in enumerate(columns.items()):
            a, b = bounds[k], bounds[k + 1]
            if a == b:
                self._workers[worker_id] = empty
                continue
            size1 = singles[cuts[k] : cuts[k + 1]]
            if a and size1.size:
                size1 = size1 - a
            self._workers[worker_id] = WorkerIndex(
                masks=masks[a:b], payoffs=column.payoffs, size1=size1
            )

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


def _compact(table: np.ndarray, used: np.ndarray, n_words: int) -> np.ndarray:
    """``table``'s masks re-packed onto bit positions ``used`` only.

    Bit ``used[k]`` of the input becomes bit ``k``.  When ``used`` is a
    prefix of the bit positions the words are kept as they are.
    """
    if not used.size or used[-1] == used.size - 1:
        return np.ascontiguousarray(table[:, :n_words], dtype=np.uint64)
    member = np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")[:, used]
    packed = np.zeros((table.shape[0], n_words * 8), dtype=np.uint8)
    packed[:, : -(-used.size // 8)] = np.packbits(member, axis=1, bitorder="little")
    return packed.view(np.uint64)


class VDPSCatalog:
    """Strategy spaces ``ST_i = VDPS(w_i) ∪ {null}`` for a sub-problem.

    Strategies are sorted by descending payoff (ties broken by point ids) so
    iteration order — and therefore every solver's tie-breaking — is
    deterministic.  The catalog is columnar: one shared
    :class:`~repro.kernels.validate.EntryArrays` plus, per worker, a
    :class:`WorkerStrategies` of entry rows and payoffs.  Objects exist
    only for the strategies somebody reads.
    """

    def __init__(
        self,
        workers: Tuple[Worker, ...],
        arrays,
        columns: Mapping[str, WorkerStrategies],
        epsilon: Optional[float],
        cvdps_count: int,
        index: Optional[CatalogIndex] = None,
    ) -> None:
        self._workers = workers
        #: The shared entry table every worker's rows index.
        self.arrays = arrays
        self._columns: Dict[str, WorkerStrategies] = dict(columns)
        self.epsilon = epsilon
        self.cvdps_count = cvdps_count
        self._total_strategy_count = sum(map(len, self._columns.values()))
        self._max_vdps_size: Optional[int] = None
        self._index = index

    @property
    def workers(self) -> Tuple[Worker, ...]:
        return self._workers

    def strategies(self, worker_id: str) -> WorkerStrategies:
        """The worker's non-null strategies, best payoff first."""
        try:
            return self._columns[worker_id]
        except KeyError:
            raise KeyError(f"no worker {worker_id!r} in catalog") from None

    def has_strategies(self, worker_id: str) -> bool:
        """Whether the worker has at least one non-null VDPS."""
        return bool(self._columns.get(worker_id))

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
        if self._max_vdps_size is None:
            sizes = self.arrays.sizes
            self._max_vdps_size = max(
                (int(sizes[c.rows].max()) for c in self._columns.values() if len(c)),
                default=0,
            )
        return self._max_vdps_size

    @property
    def total_strategy_count(self) -> int:
        """Total number of non-null strategies across workers."""
        return self._total_strategy_count

    @property
    def index(self) -> CatalogIndex:
        """The bitmask conflict index, built on first access and cached.

        One-shot solvers (GTA, MPTA) never touch it, so the gather is only
        paid by the game solvers that actually vectorize over it.
        """
        if self._index is None:
            self._index = CatalogIndex(self.arrays, self._columns)
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


def build_batch(
    subs: Sequence[SubProblem],
    epsilon: Optional[float],
    strict_revalidation: bool = False,
    tracer: NullTracer = NULL_TRACER,
    kernel: Optional[str] = None,
    layouts: Optional[Sequence] = None,
) -> List[Tuple[VDPSCatalog, CvdpsTable]]:
    """The catalog of every sub-problem in ``subs``, each with its C-VDPS table.

    The one full-build path: :func:`build_catalog` is the batch of one
    and keeps the catalog; :class:`~repro.vdps.delta.DeltaCatalog` also
    keeps the table, deriving its surgery state from it only when a later
    refresh needs it; the dispatch service's catalog cache builds every
    stale center of a round in one call.  ``layouts[c]`` is center ``c``'s
    cross-round travel-matrix cache.  The vectorized tier runs one stacked
    DP, one entry layout and one validation scan for the whole batch
    (see :func:`~repro.vdps.generator.generate_tables` and
    :func:`~repro.kernels.validate.validate_all`); each center's catalog
    is bit-identical to its own one-center build.  Counts
    ``catalog.strategies_built`` (and, through generation, the
    ``cvdps.*`` totals) whichever caller asked.
    """
    from repro.kernels.validate import EntryArrays

    caps = [
        max((w.max_delivery_points for w in sub.online_workers), default=0)
        for sub in subs
    ]
    tables = generate_tables(
        [sub.center for sub in subs],
        [sub.travel for sub in subs],
        caps,
        epsilon,
        tracer,
        kernel,
        layouts,
    )
    # The scalar tier (and a center with no DP at all) validates through
    # the reference loop, over an entry table flattened from its entries.
    scalar = [table.arrays is None for table in tables]
    arrays = [
        EntryArrays.from_entries(table.entries()) if exact else table.arrays
        for table, exact in zip(tables, scalar)
    ]
    catalogs = _validate_batch(subs, epsilon, strict_revalidation, arrays, scalar)
    return list(zip(catalogs, tables))


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
        return build_batch([sub], epsilon, strict_revalidation, tracer, tier)[0][0]
    from repro.kernels.validate import EntryArrays

    arrays = EntryArrays.from_entries(cvdps)
    return _validate_batch(
        [sub], epsilon, strict_revalidation, [arrays], [tier == "scalar"]
    )[0]


def _validate_batch(
    subs: Sequence[SubProblem],
    epsilon: Optional[float],
    strict_revalidation: bool,
    tables: Sequence,
    scalar: Sequence[bool],
) -> List[VDPSCatalog]:
    """Section IV validation of every entry for every online worker.

    ``tables[c]`` is center ``c``'s :class:`~repro.kernels.validate.EntryArrays`
    and ``scalar[c]`` says whether it runs the scalar tier; see
    :func:`~repro.kernels.validate.validate_tables`.
    """
    from repro.kernels.validate import validate_tables

    scans = []
    for sub, arrays, exact in zip(subs, tables, scalar):
        if not exact and arrays.n_entries:
            METRICS.counter("kernel.validate_vectorized").add(1)
        location = sub.center.location
        scans.append(
            [
                (worker, *worker_offset_factor(worker, sub.travel, location))
                for worker in sub.online_workers
            ]
        )
    validated = validate_tables(
        tables,
        scans,
        [sub.travel for sub in subs],
        [sub.center.location for sub in subs],
        strict_revalidation,
        scalar,
    )
    catalogs = []
    built = 0
    for sub, arrays, scan, found in zip(subs, tables, scans, validated):
        columns = {
            worker.worker_id: WorkerStrategies(arrays, rows, payoffs, offset, objects)
            for (worker, offset, _), (rows, payoffs, objects) in zip(scan, found)
        }
        catalog = VDPSCatalog(
            sub.online_workers, arrays, columns, epsilon, arrays.n_entries
        )
        built += catalog.total_strategy_count
        catalogs.append(catalog)
    METRICS.counter("catalog.strategies_built").add(built)
    return catalogs
