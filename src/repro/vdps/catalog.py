"""Per-worker strategy catalogs built from C-VDPSs.

After C-VDPS generation, Section IV validates each set per worker using the
worker's travel time to the distribution center and the task expiration
times.  The result — every VDPS of every worker, with its minimal-time route
and precomputed payoff — is the strategy space of both games, so it is built
once per sub-problem and shared by all solvers.

The catalog is one owner-major table (:class:`StrategyTable`).
Validation keeps, worker after worker, the rows of the center's shared
:class:`~repro.kernels.validate.EntryArrays` that pass and their payoffs,
each worker's in canonical catalog order; each worker's
:class:`WorkerStrategies` is a slice of it.  The conflict index
(:class:`CatalogIndex`) lives in the entry table's own bit space and
gathers the entries' packed point masks by the table's rows.  FGT's best
response reads only those payoffs and masks, so ``Route`` and
:class:`WorkerStrategy` objects exist only for the strategies a solver
picks: ``catalog.strategies(wid)[pos]`` builds one on first access and
caches it in the table.  Solvers that walk whole strategy spaces (GTA,
MPTA, exhaustive search) get every object of a worker in one batched
pass.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.entities import Worker
from repro.core.instance import SubProblem
from repro.core.payoff import worker_payoff
from repro.core.routing import Route, arrival_times
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
#: Mask words in memory: little-endian uint64, so bit ``b`` of word ``w`` is
#: bit ``64 w + b`` of the bytes read as one little-endian integer.
_WORD_DTYPE = np.dtype("<u8")


@dataclass(frozen=True)
class StrategyTable:
    """A center's strategies, one owner-major table.

    Worker ``k`` (catalog order) owns positions ``starts[k]:starts[k + 1]``;
    position ``p`` is the strategy of entry ``rows[p]`` of :attr:`arrays`
    with payoff ``payoffs[p]``, and a worker's positions are in canonical
    catalog order.  :attr:`objects` is the one object cache, keyed by
    position: :meth:`materialise` builds strategies into it on first read,
    and the ``validate_entry`` loop (which re-times the routes of
    speed-scaled workers, which a row cannot describe) pre-fills its
    workers' positions with its exact objects, so nothing is ever built
    from their rows.
    """

    #: The shared :class:`~repro.kernels.validate.EntryArrays` the rows index.
    arrays: object
    #: ``(N,)`` intp — entry row of each position.
    rows: np.ndarray
    #: ``(N,)`` float64 — Equation-1 payoff of each position.
    payoffs: np.ndarray
    #: Worker ``k``'s positions start at ``starts[k]``; ``starts[-1] == N``.
    starts: List[int]
    #: ``(W,)`` float64 — each worker's start offset (hours), added to
    #: every arrival time.
    offsets: np.ndarray
    #: Strategy objects by position.
    objects: Dict[int, WorkerStrategy]

    def materialise(self, keys: Sequence[int]) -> List[WorkerStrategy]:
        """The strategies at table positions ``keys``.

        Cached objects are reused; the missing ones are built in one
        :meth:`~repro.kernels.validate.EntryArrays.strategy_objects` call,
        each with its owner's start offset, and cached with
        ``setdefault``: a racing first build of a position wins, so every
        read returns the same object.  Counts the objects it added as
        ``catalog.strategies_materialised``.
        """
        cache = self.objects
        missing = [key for key in keys if key not in cache]
        if missing:
            idx = np.array(missing, dtype=np.intp)
            owners = [bisect_right(self.starts, key) - 1 for key in missing]
            built = self.arrays.strategy_objects(
                self.rows[idx], self.payoffs[idx], self.offsets[owners]
            )
            fresh = sum(cache.setdefault(key, s) is s for key, s in zip(missing, built))
            METRICS.counter("catalog.strategies_materialised").add(fresh)
        return list(map(cache.__getitem__, keys))


class WorkerStrategies(Sequence):
    """One worker's slice of its catalog's :class:`StrategyTable`.

    ``self[r]`` is the strategy at table position ``start + r``, through
    :meth:`StrategyTable.materialise`, so repeated (and concurrent) reads
    return the same object; iterating materialises every position of the
    worker in one batched pass.  Compares equal to a tuple of the same
    strategies.
    """

    __slots__ = ("table", "start", "rows", "payoffs", "_all")

    def __init__(self, table: StrategyTable, k: int) -> None:
        a, b = table.starts[k], table.starts[k + 1]
        #: The catalog's table.
        self.table = table
        #: The table position of this worker's first strategy.
        self.start = a
        #: ``(n,)`` intp view of the table's rows.
        self.rows = table.rows[a:b]
        #: ``(n,)`` float64 view of the table's payoffs.
        self.payoffs = table.payoffs[a:b]
        self._all: Optional[Tuple[WorkerStrategy, ...]] = None

    def __len__(self) -> int:
        return self.rows.size

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return self._tuple()[pos]
        pos = operator.index(pos)
        if self._all is not None:
            return self._all[pos]
        n = self.rows.size
        if pos < 0:
            pos += n
        if not 0 <= pos < n:
            raise IndexError("strategy position out of range")
        return self.table.materialise([self.start + pos])[0]

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

    def _tuple(self) -> Tuple[WorkerStrategy, ...]:
        """Every strategy, the missing ones built in one batched pass."""
        if self._all is None:
            start = self.start
            self._all = tuple(
                self.table.materialise(range(start, start + self.rows.size))
            )
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

    @cached_property
    def bits(self) -> List[int]:
        """Each position's mask as one Python int (bit ``b`` of the int is
        bit ``b`` of the index), for scans too short to pay numpy's
        per-call overhead."""
        if self.masks.shape[1] == 1:
            return self.masks[:, 0].tolist()
        return list(map(mask_int, self.masks))

    @cached_property
    def payoff_list(self) -> List[float]:
        """:attr:`payoffs` as Python floats."""
        return self.payoffs.tolist()

    @cached_property
    def size1_list(self) -> List[int]:
        """:attr:`size1` as Python ints."""
        return self.size1.tolist()

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


def mask_int(words: np.ndarray) -> int:
    """A packed ``(n_words,)`` uint64 mask as one Python int."""
    return int.from_bytes(words.astype(_WORD_DTYPE, copy=False).tobytes(), "little")


def mask_words(bits: int, n_words: int) -> np.ndarray:
    """The ``(n_words,)`` uint64 mask of the Python int ``bits``."""
    return np.frombuffer(
        bits.to_bytes(n_words * 8, "little"), dtype=_WORD_DTYPE
    ).astype(np.uint64)


class CatalogIndex:
    """Bitmask conflict index over a catalog's delivery points.

    Every delivery point of the center has a bit position, in sorted-id
    order (so the index is deterministic); each strategy becomes a packed
    uint64 bitmask over those positions.  Solvers then test availability
    with ``masks & claimed == 0`` over whole strategy lists instead of
    Python-level set intersections — the backbone of the vectorized
    best-response engine.

    The bit space is the entry table's own: each entry of the catalog's
    :class:`~repro.kernels.validate.EntryArrays` carries its packed point
    set (the DP's own subset mask on a full build), so :attr:`point_bits`
    is the table's :attr:`~repro.kernels.validate.EntryArrays.position`
    and :attr:`masks` is the entry masks gathered by the
    :class:`StrategyTable`'s rows.  Each worker's :class:`WorkerIndex` is
    a slice of them.  :meth:`batch` builds many catalogs' indexes at once.
    """

    def __init__(
        self,
        point_bits: Dict[str, int],
        masks: np.ndarray,
        workers: Dict[str, WorkerIndex],
    ) -> None:
        #: ``{dp_id: bit}`` over the center's points (do not mutate: it is
        #: the entry table's own map).
        self.point_bits = point_bits
        #: ``(N, n_words)`` uint64 — the mask of every table position.
        self.masks = masks
        self.n_words = masks.shape[1]
        self._workers = workers

    @classmethod
    def batch(cls, catalogs: Sequence["VDPSCatalog"]) -> List["CatalogIndex"]:
        """The index of every catalog in ``catalogs``.

        Each catalog's masks are one gather of its entry masks; the size-1
        positions of the whole batch are found in one pass.  Only the
        per-worker views are made worker by worker.
        """
        if not catalogs:
            return []
        tables = [catalog.table for catalog in catalogs]
        bases = [0, *accumulate(table.rows.size for table in tables)]
        bounds = [
            base + start
            for table, base in zip(tables, bases)
            for start in table.starts[:-1]
        ] + [bases[-1]]
        # Size-1 positions of the whole batch, each made relative to the
        # start of its worker's segment.  (Method calls, not ``np.``
        # functions: on small centers numpy's dispatch overhead is most of
        # the cost.)
        singles = np.concatenate(
            [table.arrays.sizes[table.rows] == 1 for table in tables]
        ).nonzero()[0]
        single_cut = singles.searchsorted(bounds).tolist()
        singles -= np.array(bounds[:-1], dtype=np.intp).repeat(np.diff(single_cut))
        out = []
        j = 0
        for catalog, table in zip(catalogs, tables):
            masks = table.arrays.masks[table.rows]
            # Workers without strategies (common on small centers) share
            # one all-empty view.
            empty = WorkerIndex(
                masks=masks[:0], payoffs=table.payoffs[:0], size1=singles[:0]
            )
            workers: Dict[str, WorkerIndex] = {}
            starts = table.starts
            for k, worker in enumerate(catalog.workers):
                a, b = starts[k], starts[k + 1]
                workers[worker.worker_id] = (
                    WorkerIndex(
                        masks=masks[a:b],
                        payoffs=table.payoffs[a:b],
                        size1=singles[single_cut[j + k] : single_cut[j + k + 1]],
                    )
                    if a < b
                    else empty
                )
            j += len(starts) - 1
            out.append(cls(table.arrays.position, masks, workers))
        return out

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
        """The bitmask of an arbitrary point-id set (e.g. one strategy's);
        raises KeyError for a point outside the center."""
        mask = self.empty_mask()
        for dp_id in point_ids:
            bit = self.point_bits[dp_id]
            mask[bit // _WORD_BITS] |= np.uint64(1 << (bit % _WORD_BITS))
        return mask


class VDPSCatalog:
    """Strategy spaces ``ST_i = VDPS(w_i) ∪ {null}`` for a sub-problem.

    Strategies are sorted by descending payoff (ties broken by point ids) so
    iteration order — and therefore every solver's tie-breaking — is
    deterministic.  The catalog is one owner-major :class:`StrategyTable`
    over a shared :class:`~repro.kernels.validate.EntryArrays`; each
    worker's :class:`WorkerStrategies` is a slice of it.  Objects exist
    only for the strategies somebody reads.
    """

    def __init__(
        self,
        workers: Tuple[Worker, ...],
        table: StrategyTable,
        epsilon: Optional[float],
        cvdps_count: int,
        index: Optional[CatalogIndex] = None,
    ) -> None:
        self._workers = workers
        #: The catalog's strategies, worker ``k`` of :attr:`workers` owning
        #: slice ``k``.
        self.table = table
        self._slot = {worker.worker_id: k for k, worker in enumerate(workers)}
        self._strategies: Dict[str, WorkerStrategies] = {}
        self.epsilon = epsilon
        self.cvdps_count = cvdps_count
        self._max_vdps_size: Optional[int] = None
        self._index = index
        #: The catalogs of this one's build batch, whose indexes are built
        #: together on the first :attr:`index` read (``None`` outside a batch).
        self._batch: Optional[_IndexBatch] = None

    @property
    def workers(self) -> Tuple[Worker, ...]:
        return self._workers

    @property
    def arrays(self):
        """The shared entry table every position's row indexes."""
        return self.table.arrays

    def strategies(self, worker_id: str) -> WorkerStrategies:
        """The worker's non-null strategies, best payoff first."""
        strategies = self._strategies.get(worker_id)
        if strategies is None:
            try:
                k = self._slot[worker_id]
            except KeyError:
                raise KeyError(f"no worker {worker_id!r} in catalog") from None
            strategies = self._strategies.setdefault(
                worker_id, WorkerStrategies(self.table, k)
            )
        return strategies

    def has_strategies(self, worker_id: str) -> bool:
        """Whether the worker has at least one non-null VDPS."""
        k = self._slot.get(worker_id)
        return k is not None and self.table.starts[k] < self.table.starts[k + 1]

    @property
    def max_vdps_size(self) -> int:
        """``|maxVDPS|``: the largest VDPS size across all workers."""
        if self._max_vdps_size is None:
            rows = self.table.rows
            self._max_vdps_size = int(self.arrays.sizes[rows].max()) if rows.size else 0
        return self._max_vdps_size

    @property
    def total_strategy_count(self) -> int:
        """Total number of non-null strategies across workers."""
        return self.table.rows.size

    @property
    def index(self) -> CatalogIndex:
        """The bitmask conflict index, built on first access and cached.

        A :class:`~repro.games.base.GameState` reads it at its first
        claim, so a catalog nobody solves never pays the gather.  The
        first read on any catalog of one :func:`build_batch` call builds
        the index of every catalog of that batch still alive, in one
        :meth:`CatalogIndex.batch` pass; a catalog outside a batch is a
        batch of one.
        """
        if self._index is None:
            (self._batch or _IndexBatch([self])).build()
        return self._index

    def picks(self, positions: Sequence[int]) -> List[WorkerStrategy]:
        """The strategy at ``positions[k]`` of every worker ``k`` (catalog
        order; ``-1`` is null), all materialised in one
        :meth:`StrategyTable.materialise` call, so ``strategies(wid)[pos]``
        returns the same objects afterwards.
        """
        starts = self.table.starts
        picked = [k for k, pos in enumerate(positions) if pos >= 0]
        out = [NULL_STRATEGY] * len(positions)
        for k, strategy in zip(
            picked, self.table.materialise([starts[k] + positions[k] for k in picked])
        ):
            out[k] = strategy
        return out

    def describe(self) -> str:
        """One-line summary used in logs and experiment reports."""
        return (
            f"catalog: |W|={len(self._workers)} cvdps={self.cvdps_count} "
            f"strategies={self.total_strategy_count} eps={self.epsilon}"
        )


class _IndexBatch:
    """The catalogs of one :func:`build_batch` call, until their conflict
    indexes are built together (see :attr:`VDPSCatalog.index`).

    Holds weak references: a catalog nobody keeps is not kept alive, and
    its index is never built.
    """

    __slots__ = ("_catalogs",)

    def __init__(self, catalogs: Sequence[VDPSCatalog]) -> None:
        self._catalogs = [weakref.ref(catalog) for catalog in catalogs]
        for catalog in catalogs:
            catalog._batch = self

    def build(self) -> None:
        """Build the index of every live catalog that has none yet."""
        catalogs = [
            catalog
            for catalog in (ref() for ref in self._catalogs)
            if catalog is not None and catalog._index is None
        ]
        self._catalogs = []
        for catalog, index in zip(catalogs, CatalogIndex.batch(catalogs)):
            catalog._index = index
            catalog._batch = None


def build_catalog(
    sub: SubProblem,
    epsilon: Optional[float] = None,
    tracer: Optional[NullTracer] = None,
) -> VDPSCatalog:
    """Build the strategy catalog for every online worker of ``sub``.

    Parameters
    ----------
    sub:
        The per-center sub-problem.
    epsilon:
        Distance-constrained pruning threshold; ``None`` disables pruning.
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
        ((catalog, _),) = build_batch([sub], epsilon, tracer)
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
) -> Optional[WorkerStrategy]:
    """Section IV validation of one C-VDPS for one worker.

    The entry's recorded minimal-time sequence, delayed by the worker's
    start ``offset`` (and re-timed at the worker's own speed when
    ``factor != 1``), must meet every deadline.  Returns the worker's
    :class:`WorkerStrategy` for ``entry``, or ``None`` when the set is
    infeasible that way (even if another order would be feasible: the
    paper keeps one sequence per set) or degenerate (non-positive
    completion time, non-finite payoff).  The array scan
    (:func:`repro.kernels.validate.validate_all`) makes the same
    operations for unit-speed workers; this loop serves the speed-scaled
    ones.
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
    if not base.is_valid_with_offset(offset):
        return None
    route = base.shifted(offset)
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
    tracer: NullTracer = NULL_TRACER,
    layouts: Optional[Sequence] = None,
) -> List[Tuple[VDPSCatalog, CvdpsTable]]:
    """The catalog of every sub-problem in ``subs``, each with its C-VDPS table.

    The one full-build path: :func:`build_catalog` is the batch of one
    and keeps the catalog; :class:`~repro.vdps.delta.DeltaCatalog` also
    keeps the table, deriving its surgery state from it only when a later
    refresh needs it; the dispatch service's catalog cache builds every
    stale center of a round in one call.  ``layouts[c]`` is center ``c``'s
    cross-round travel-matrix cache.  One stacked DP, one entry layout and
    one validation scan serve the whole batch
    (see :func:`~repro.vdps.generator.generate_tables` and
    :func:`~repro.kernels.validate.validate_all`); each center's catalog
    is bit-identical to its own one-center build.  Counts
    ``catalog.strategies_built`` (and, through generation, the
    ``cvdps.*`` totals) whichever caller asked.
    """
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
        layouts,
    )
    catalogs = _validate_batch(subs, epsilon, [table.arrays for table in tables])
    return list(zip(catalogs, tables))


def _validate_batch(
    subs: Sequence[SubProblem],
    epsilon: Optional[float],
    tables: Sequence,
) -> List[VDPSCatalog]:
    """Section IV validation of every entry for every online worker.

    ``tables[c]`` is center ``c``'s
    :class:`~repro.kernels.validate.EntryArrays`; see
    :func:`~repro.kernels.validate.validate_tables`.
    """
    from repro.kernels.validate import validate_tables

    scans = []
    for sub in subs:
        location = sub.center.location
        scans.append(
            [
                (worker, *worker_offset_factor(worker, sub.travel, location))
                for worker in sub.online_workers
            ]
        )
    catalogs = [
        VDPSCatalog(sub.online_workers, table, epsilon, table.arrays.n_entries)
        for sub, table in zip(
            subs,
            validate_tables(
                tables,
                scans,
                [sub.travel for sub in subs],
                [sub.center.location for sub in subs],
            ),
        )
    ]
    _IndexBatch(catalogs)
    METRICS.counter("catalog.strategies_built").add(
        sum(catalog.total_strategy_count for catalog in catalogs)
    )
    return catalogs
