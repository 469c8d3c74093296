"""Incrementally maintained C-VDPS catalogs (the ROADMAP's churn item).

A live dispatch round churns one or two delivery points per center — a task
arrives, a deadline passes — yet :func:`~repro.vdps.catalog.build_catalog`
re-enumerates the whole per-center subset DP.  :class:`DeltaCatalog` keeps
the DP state table alive between rounds and applies churn as state surgery:

* **Point removal** is pure retraction: a DP state depends on a point only
  if its subset contains it (arrival times of the other states chain through
  their own points alone), so dropping every state whose subset holds the
  point leaves exactly the table a rebuild over the surviving points yields.
* **Point addition** extends the table with exactly the states whose subset
  contains the new point: seed its singleton, one-step-extend every existing
  state by it, then close upward layer by layer (any extension of a state
  containing the point still contains it, so the closure never touches the
  old states).
* **A changed point** (new task, expired task, moved deadline) is a removal
  followed by an addition.

The canonical ``(time, path)`` relaxation of :mod:`repro.vdps.generator`
makes each state's value a function of the point set alone, so the spliced
table is *equal* to a from-scratch one — same floats, same tie-breaks — and
the materialised :class:`~repro.vdps.catalog.VDPSCatalog` (strategy tuples,
payoffs, and the lazy :class:`~repro.vdps.catalog.CatalogIndex` bit layout)
is bit-identical to ``build_catalog`` on the same sub-problem.  The
differential suites (``tests/vdps/test_delta_differential.py``,
``tests/properties/test_catalog_delta.py``) assert exactly that after every
step of randomised churn.

The entry table is the catalog's own columnar
:class:`~repro.kernels.validate.EntryArrays`.  A refresh splices it: the
rows whose point set meets a removed point are dropped (one mask test) and
the added entries are appended (:meth:`EntryArrays.splice`), which yields
an old→new row map.  Worker-level revalidation is restricted the same way:
a worker is fully revalidated only when its own content changed (location
→ start offset, ``maxDP``, speed); an untouched worker's rows are remapped
through the row map, the added entries are scanned for it by the same
validation a full revalidation uses, and one ``lexsort`` on ``(ids_rank,
-payoff)`` restores the canonical order.  No strategy object is built.
Structural changes no delta can express (center moved, travel model
swapped) and churn above ``rebuild_fraction`` (e.g. a clock advance
rewriting every relative deadline) fall back to a full rebuild — the same
array-native build as ``build_catalog``, at the same price.  A fallback
keeps only that build's catalog and C-VDPS table; the surgery tables (DP
states, per-worker rows) are derived from them when a later refresh takes
the delta path, so a clock-advancing loop never pays for them.

Everything lands on the ``catalog.delta_*`` metrics surface
(:data:`repro.obs.metrics.CATALOG_DELTA_METRICS`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.entities import DeliveryPoint, Worker
from repro.core.instance import SubProblem
from repro.kernels.cvdps import LayoutMatrix
from repro.obs.metrics import METRICS
from repro.obs.tracer import resolve_tracer
from repro.vdps.catalog import (
    VDPSCatalog,
    WorkerStrategies,
    build_batch,
    build_catalog,
    worker_offset_factor,
)
from repro.vdps.generator import (
    CVdpsEntry,
    CvdpsTable,
    DPStats,
    _StateKey,
    _StateVal,
    best_per_subset,
    entry_from_value,
    extend_value,
    relax,
    seed_value,
)

if TYPE_CHECKING:
    from repro.kernels.validate import Columns


def _subset_sort_key(subset: FrozenSet[str]) -> Tuple[int, Tuple[str, ...]]:
    """The (size, ids) order entries are generated and validated in."""
    return (len(subset), tuple(sorted(subset)))


class DeltaCatalog:
    """One center's catalog, maintained by churn deltas (see module doc).

    Parameters
    ----------
    sub:
        The initial sub-problem; ``__init__`` performs one full build.
    epsilon:
        Distance-constrained pruning threshold, fixed for the catalog's
        lifetime (a changed threshold is a new catalog, as in the cache).
    strict_revalidation:
        Forwarded to Section IV validation, see
        :func:`~repro.vdps.catalog.build_catalog`.
    rebuild_fraction:
        Fall back to a full rebuild when more than this fraction of the
        center's delivery points changed in one refresh.  Deltas win when
        churn is sparse; a clock advance rewrites every relative deadline
        and is cheaper rebuilt.  ``0.0`` rebuilds on any churn; values
        above 1 never fall back (used by the differential tests to force
        the delta paths).
    verify:
        After every refresh, rebuild from scratch and assert equality
        (:func:`catalog_diff`).  Defeats the purpose in production; the
        harness tests and the bench's ``identical`` flag run on it.
    kernel:
        Implementation tier for the full-rebuild DP and every validation
        scan — full revalidation of a changed worker and the added-entry
        scan of an unchanged one (``"scalar"`` or ``"vectorized"``;
        ``None`` resolves the process default).  The DP state surgery
        runs in Python on either tier (it touches few states by
        construction), and every tier lands on the same bit-identical
        tables, so deltas applied over a kernel-built table still match
        rebuilds exactly.
    """

    def __init__(
        self,
        sub: SubProblem,
        epsilon: Optional[float] = None,
        strict_revalidation: bool = False,
        rebuild_fraction: float = 0.5,
        verify: bool = False,
        kernel: Optional[str] = None,
    ) -> None:
        self._configure(
            sub, epsilon, strict_revalidation, rebuild_fraction, verify, kernel
        )
        self._layout = LayoutMatrix()

        def build() -> VDPSCatalog:
            self._full_rebuild(sub)
            return self._catalog

        self._timed(build)

    @classmethod
    def from_build(
        cls,
        sub: SubProblem,
        catalog: VDPSCatalog,
        table: CvdpsTable,
        layout: LayoutMatrix,
        epsilon: Optional[float] = None,
        strict_revalidation: bool = False,
        rebuild_fraction: float = 0.5,
        kernel: Optional[str] = None,
    ) -> "DeltaCatalog":
        """A catalog whose initial build was made elsewhere, in a batch.

        ``catalog`` and ``table`` are :func:`~repro.vdps.catalog.build_batch`
        output for ``sub`` at the same ``epsilon``, strictness and kernel,
        built with ``layout`` as the center's travel-matrix cache, which
        the new catalog keeps.  Equal to ``DeltaCatalog(sub, ...)``, and
        traced the same way (a ``catalog.refresh`` span with ``path``
        ``rebuild``).
        """
        self = cls.__new__(cls)
        self._configure(
            sub, epsilon, strict_revalidation, rebuild_fraction, False, kernel
        )
        self._layout = layout

        def install() -> VDPSCatalog:
            self._install(sub, catalog, table)
            return catalog

        self._timed(install)
        return self

    def _configure(
        self,
        sub: SubProblem,
        epsilon: Optional[float],
        strict_revalidation: bool,
        rebuild_fraction: float,
        verify: bool,
        kernel: Optional[str],
    ) -> None:
        if rebuild_fraction < 0:
            raise ValueError(
                f"rebuild_fraction must be >= 0, got {rebuild_fraction!r}"
            )
        self.epsilon = epsilon
        self._strict = bool(strict_revalidation)
        self._rebuild_fraction = float(rebuild_fraction)
        self._verify = bool(verify)
        self._kernel = kernel
        self._entry_arrays = None
        self._center_id = sub.center.center_id
        self._table: Optional[CvdpsTable] = None
        self._catalog: Optional[VDPSCatalog] = None
        self._last_path = "rebuild"

    # -- public surface -----------------------------------------------------

    @property
    def catalog(self) -> VDPSCatalog:
        """The catalog of the last refresh (never ``None`` after init)."""
        if self._catalog is None:
            raise RuntimeError(
                "DeltaCatalog was restored without a materialised catalog; "
                "call refresh(sub) first"
            )
        return self._catalog

    @property
    def center_id(self) -> str:
        return self._center_id

    @property
    def cap_built(self) -> int:
        """The ``maxDP`` bound the DP state table is complete up to."""
        return self._cap_built

    def refresh(self, sub: SubProblem, plan=None) -> VDPSCatalog:
        """Bring the catalog up to date with ``sub`` and return it.

        Equal — strategy for strategy, bit for bit — to
        ``build_catalog(sub, epsilon=...)``, whether the refresh applied
        deltas or fell back to a rebuild.  ``plan``, when given, is
        :meth:`decide`'s answer for this ``sub`` with nothing refreshed
        in between; it spares deciding twice.

        Traced as a ``catalog.refresh`` span whose ``path`` field names
        the outcome — ``delta``, ``noop``, ``fallback``, or ``rebuild`` —
        so round critical paths attribute catalog time to the decision
        that caused it.
        """
        catalog = self._timed(lambda: self._refresh(sub, plan))
        if self._verify:
            diffs = catalog_diff(
                catalog,
                build_catalog(
                    sub,
                    epsilon=self.epsilon,
                    strict_revalidation=self._strict,
                    kernel=self._kernel,
                ),
            )
            if diffs:
                raise AssertionError(
                    "delta catalog diverged from rebuild: " + "; ".join(diffs)
                )
        return catalog

    @property
    def layout(self) -> LayoutMatrix:
        """The center's cross-round travel-matrix cache (for batch builds)."""
        return self._layout

    def decide(self, sub: SubProblem):
        """How :meth:`refresh` would bring the catalog to ``sub``, doing
        nothing: a plan whose first item is the path (``noop``, ``delta``
        or ``fallback``).

        A ``fallback`` can be built elsewhere (in a batch with other
        centers) and handed over with :meth:`adopt`; otherwise pass the
        plan on to :meth:`refresh`.
        """
        return self._plan(sub)

    def adopt(
        self, sub: SubProblem, catalog: VDPSCatalog, table: CvdpsTable
    ) -> VDPSCatalog:
        """Complete a ``fallback`` refresh with a build made elsewhere.

        ``catalog`` and ``table`` are :func:`~repro.vdps.catalog.build_batch`
        output for ``sub`` at this catalog's epsilon, strictness and
        kernel, built with :attr:`layout`.  The result, the counters
        (``catalog.delta_fallbacks``, ``catalog.delta_rebuilds``) and the
        state left behind are those of ``refresh(sub)`` taking its
        fallback.
        """

        def install() -> VDPSCatalog:
            METRICS.counter("catalog.delta_fallbacks").add(1)
            self._install(sub, catalog, table)
            self._last_path = "fallback"
            return catalog

        return self._timed(install)

    def _timed(self, run) -> VDPSCatalog:
        """``run()`` under the refresh timer and a ``catalog.refresh`` span.

        The span's ``path`` field names the outcome — ``delta``, ``noop``,
        ``fallback``, or ``rebuild``.
        """
        tracer = resolve_tracer(False)
        if not tracer.enabled:
            with METRICS.timer("catalog.delta_refresh_seconds"):
                return run()
        with tracer.span("catalog.refresh", center=self._center_id) as span:
            with METRICS.timer("catalog.delta_refresh_seconds"):
                catalog = run()
            span.add(path=self._last_path)
        return catalog

    def __getstate__(self):
        # The store pickles the surgery tables, so derive them first.  The
        # materialised catalog (and its numpy index) is cheap to re-derive
        # and bloats pickles; the persistent store drops it and the first
        # refresh() after a restore materialises it again.  The entry table
        # pickles as its raw columns (see EntryArrays.__reduce__); the
        # travel-matrix cache is a derived cache too.
        self._ensure_tables()
        state = self.__dict__.copy()
        state["_catalog"] = None
        state["_layout"] = LayoutMatrix()
        return state

    # -- refresh machinery --------------------------------------------------

    def _plan(self, sub: SubProblem):
        """``(path, churn)``: the refresh path for ``sub`` and, for a delta,
        ``(new points, added, removed, changed, new cap)``."""
        travel = sub.travel
        if (
            sub.center.center_id != self._center_id
            or sub.center.location != self._center_location
            or travel.speed_kmh != self._travel.speed_kmh
            or travel.distance_fn is not self._travel.distance_fn
        ):
            return "fallback", None
        new_points = {dp.dp_id: dp for dp in sub.center.delivery_points}
        workers = sub.online_workers
        new_cap = max((w.max_delivery_points for w in workers), default=0)
        added = [p for p in new_points if p not in self._points]
        removed = [p for p in self._points if p not in new_points]
        changed = [
            p
            for p, dp in new_points.items()
            if p in self._points and dp != self._points[p]
        ]
        churn = len(added) + len(removed) + len(changed)
        if (
            churn == 0
            and self._catalog is not None
            and workers == self._catalog.workers
        ):
            return "noop", None
        if churn > self._rebuild_fraction * max(
            len(new_points), len(self._points), 1
        ) or (new_cap > self._cap_built and self._cap_built == 0):
            return "fallback", None
        return "delta", (new_points, added, removed, changed, new_cap)

    def _refresh(self, sub: SubProblem, plan=None) -> VDPSCatalog:
        path, churn = self._plan(sub) if plan is None else plan
        if path == "fallback":
            METRICS.counter("catalog.delta_fallbacks").add(1)
            self._full_rebuild(sub)
            self._last_path = "fallback"
            return self._catalog
        # Same geometry and parameters: adopt the live travel model (its
        # memoised distances are shared with the rest of the service).
        self._travel = sub.travel
        if path == "noop":
            METRICS.counter("catalog.delta_noops").add(1)
            self._last_path = "noop"
            return self._catalog

        new_points, added, removed, changed, new_cap = churn
        METRICS.counter("catalog.delta_applies").add(1)
        self._last_path = "delta"
        self._ensure_tables()
        METRICS.counter("catalog.delta_points_added").add(len(added) + len(changed))
        METRICS.counter("catalog.delta_points_removed").add(
            len(removed) + len(changed)
        )

        stats = DPStats()
        added_entries: Dict[FrozenSet[str], CVdpsEntry] = {}
        for p in sorted(removed) + sorted(changed):
            self._remove_point(p)
        for p in sorted(changed) + sorted(added):
            self._add_point(p, new_points[p], added_entries, stats)
        if new_cap > self._cap_built:
            self._extend_cap(new_cap, added_entries, stats)
        METRICS.counter("cvdps.states_expanded").add(stats.states_expanded)
        METRICS.counter("cvdps.candidates_tried").add(stats.candidates_tried)
        METRICS.counter("cvdps.deadline_rejections").add(stats.deadline_rejections)
        METRICS.counter("catalog.delta_entries_added").add(len(added_entries))

        workers = sub.online_workers
        self._apply_worker_churn(
            workers, set(removed) | set(changed), added_entries
        )
        return self._materialize(workers)

    def _full_rebuild(self, sub: SubProblem) -> None:
        """Rebuild from scratch (init and the fallback path).

        Runs the same build as :func:`~repro.vdps.catalog.build_catalog`
        (a batch of one), with the travel matrix gathered from the
        center's :class:`~repro.kernels.cvdps.LayoutMatrix`.
        """
        ((catalog, table),) = build_batch(
            [sub],
            self.epsilon,
            self._strict,
            kernel=self._kernel,
            layouts=[self._layout],
        )
        self._install(sub, catalog, table)

    def _install(
        self, sub: SubProblem, catalog: VDPSCatalog, table: CvdpsTable
    ) -> None:
        """Make a full build of ``sub`` the catalog's state.

        Keeps the build's catalog and C-VDPS table.  The surgery tables
        are derived from the table only when a later refresh takes the
        delta path (or the catalog is pickled, see :meth:`_ensure_tables`):
        under a moving clock every refresh falls back, so none is ever
        built.
        """
        METRICS.counter("catalog.delta_rebuilds").add(1)
        self._travel = sub.travel
        self._center_id = sub.center.center_id
        self._center_location = sub.center.location
        self._points: Dict[str, DeliveryPoint] = {
            dp.dp_id: dp for dp in sub.center.delivery_points
        }
        self._cap_built = max(
            (w.max_delivery_points for w in sub.online_workers), default=0
        )
        self._catalog, self._table = catalog, table
        self._entry_arrays = None

    def _ensure_tables(self) -> None:
        """Derive the surgery tables from the last rebuild, once.

        The DP states and the neighbourhoods come from the rebuild's
        table; the entry table and the per-worker columns are the rebuilt
        catalog's own.
        """
        table = self._table
        if table is None:
            return
        from repro.kernels import resolve_kernel

        scalar = resolve_kernel(self._kernel) == "scalar"
        self._neighbors: Dict[str, List[str]] = table.neighbors()
        self._states: Dict[_StateKey, _StateVal] = table.states()
        catalog = self._catalog
        self._entry_arrays = catalog.arrays
        self._workers: Dict[str, Worker] = {}
        self._offsets: Dict[str, Tuple[float, float]] = {}
        self._columns: Dict[str, Columns] = {}
        for worker in catalog.workers:
            wid = worker.worker_id
            self._workers[wid] = worker
            self._offsets[wid] = worker_offset_factor(
                worker, self._travel, self._center_location
            )
            column = catalog.strategies(wid)
            # Scalar-path columns carry their exact objects (the column
            # holds them, so reading them builds nothing).
            objects = list(column) if self._exact(wid, scalar) else None
            self._columns[wid] = (column.rows, column.payoffs, objects)
        self._table = None

    # -- DP state surgery ---------------------------------------------------

    def _remove_point(self, p: str) -> None:
        """Retract every state whose subset contains ``p``.

        The entries of those subsets leave the entry table in
        :meth:`_apply_worker_churn`, all removed points at once.
        """
        del self._points[p]
        for q in self._neighbors.pop(p, []):
            adjacency = self._neighbors.get(q)
            if adjacency is not None and p in adjacency:
                adjacency.remove(p)
        for key in [key for key in self._states if p in key[0]]:
            del self._states[key]

    def _add_point(
        self,
        p: str,
        dp: DeliveryPoint,
        added_entries: Dict[FrozenSet[str], CVdpsEntry],
        stats: DPStats,
    ) -> None:
        """Extend the table with every state whose subset contains ``p``."""
        self._points[p] = dp
        if self.epsilon is None:
            adjacency = [q for q in self._points if q != p]
        else:
            # Same Euclidean point-to-point test as neighbor_lists.
            adjacency = [
                q
                for q, other in self._points.items()
                if q != p and dp.location.distance_to(other.location) <= self.epsilon
            ]
        for q in adjacency:
            self._neighbors[q].append(p)
        self._neighbors[p] = adjacency

        new_states = self._states_with_point(p, stats)
        self._states.update(new_states)
        for subset, value in best_per_subset(new_states).items():
            added_entries[subset] = entry_from_value(
                self._points, subset, value, self._travel, self._center_location
            )

    def _states_with_point(self, p: str, stats: DPStats) -> Dict[_StateKey, _StateVal]:
        """All feasible DP states containing ``p`` over the current points.

        States free of ``p`` never route through it, so the existing table
        is exactly the ``p``-free half of the full DP; this computes the
        other half.  Seeds: the singleton ``({p}, p)`` plus one-step
        extensions of every existing state whose endpoint can hop to ``p``
        (predecessors of a state ending *at* ``p`` are ``p``-free).  The
        upward closure then only ever expands states already containing
        ``p``, layer by layer, with the same canonical relaxation as the
        full build — so every new state gets its canonical value.
        """
        cap = self._cap_built
        by_size: Dict[int, Dict[_StateKey, _StateVal]] = defaultdict(dict)
        if cap < 1:
            return {}
        dp_p = self._points[p]
        seeded = seed_value(dp_p, self._travel, self._center_location)
        if seeded is None:
            stats.deadline_rejections += 1
        else:
            by_size[1][(frozenset((p,)), p)] = seeded
        # The neighbourhood is symmetric (point-to-point Euclidean), so
        # "p in neighbors[j]" — the full DP's chaining test — is exactly
        # "j in neighbors[p]".
        reaches_p = set(self._neighbors[p])
        for (subset, j), value in self._states.items():
            if len(subset) >= cap or j not in reaches_p:
                continue
            stats.candidates_tried += 1
            extended = extend_value(value, self._points[j], dp_p, self._travel)
            if extended is None:
                stats.deadline_rejections += 1
                continue
            relax(by_size[len(subset) + 1], (subset | {p}, p), extended)
        for size in range(1, cap):
            frontier = by_size.get(size)
            if not frontier:
                continue
            for (subset, j), value in frontier.items():
                dp_j = self._points[j]
                for q in self._neighbors[j]:
                    if q in subset:
                        continue
                    stats.candidates_tried += 1
                    extended = extend_value(value, dp_j, self._points[q], self._travel)
                    if extended is None:
                        stats.deadline_rejections += 1
                        continue
                    relax(by_size[size + 1], (subset | {q}, q), extended)
        out: Dict[_StateKey, _StateVal] = {}
        for size in range(1, cap + 1):
            layer = by_size.get(size)
            if layer:
                stats.states_expanded += len(layer)
                out.update(layer)
        return out

    def _extend_cap(
        self,
        new_cap: int,
        added_entries: Dict[FrozenSet[str], CVdpsEntry],
        stats: DPStats,
    ) -> None:
        """Deepen the DP when a joining worker raises the ``maxDP`` bound.

        The table is complete up to ``cap_built``, so resuming the layered
        expansion from the top layer reproduces exactly the layers a
        full build with the larger cap would add.  (A cap that *shrank*
        needs no surgery: materialisation filters by the current cap.)
        """
        frontier = {
            key: value
            for key, value in self._states.items()
            if len(key[0]) == self._cap_built
        }
        size = self._cap_built
        new_states: Dict[_StateKey, _StateVal] = {}
        while frontier and size < new_cap:
            next_frontier: Dict[_StateKey, _StateVal] = {}
            for (subset, j), value in frontier.items():
                dp_j = self._points[j]
                for q in self._neighbors[j]:
                    if q in subset:
                        continue
                    stats.candidates_tried += 1
                    extended = extend_value(value, dp_j, self._points[q], self._travel)
                    if extended is None:
                        stats.deadline_rejections += 1
                        continue
                    relax(next_frontier, (subset | {q}, q), extended)
            self._states.update(next_frontier)
            new_states.update(next_frontier)
            frontier = next_frontier
            size += 1
            stats.states_expanded += len(next_frontier)
        self._cap_built = new_cap
        for subset, value in best_per_subset(new_states).items():
            added_entries[subset] = entry_from_value(
                self._points, subset, value, self._travel, self._center_location
            )

    # -- worker-level revalidation ------------------------------------------

    def _exact(self, wid: str, scalar: bool) -> bool:
        """Whether the worker's strategies come from the scalar loop.

        Those columns carry the loop's objects (see
        :func:`~repro.kernels.validate.validate_tables`).
        """
        return scalar or self._strict or self._offsets[wid][1] != 1.0

    def _scan(
        self, workers: Sequence[Worker], arrays, scalar: bool
    ) -> List[Columns]:
        """Section IV validation of ``workers`` against ``arrays``' entries.

        One array pass answers every unit-speed worker; returns each
        worker's canonical-order columns, in order.  The ``scalar`` tier
        (and the scalar fallbacks of the vectorized one) also return
        objects.
        """
        from repro.kernels.validate import validate_tables

        if not workers:
            return []
        return validate_tables(
            [arrays],
            [[(worker, *self._offsets[worker.worker_id]) for worker in workers]],
            [self._travel],
            [self._center_location],
            self._strict,
            [scalar],
        )[0]

    def _apply_worker_churn(
        self,
        workers: Tuple[Worker, ...],
        removed_points: Set[str],
        added_entries: Dict[FrozenSet[str], CVdpsEntry],
    ) -> None:
        """Splice the entry table; revalidate changed workers, remap the rest.

        The table drops every entry over a removed point and appends the
        added entries (flattened once per refresh).  An unchanged worker's
        rows go through the old→new row map, the added entries are scanned
        for it like a full revalidation, and one lexsort restores the
        canonical order.
        """
        from repro.kernels import resolve_kernel

        scalar = resolve_kernel(self._kernel) == "scalar"
        live = {worker.worker_id: worker for worker in workers}
        for wid in [wid for wid in self._columns if wid not in live]:
            del self._columns[wid]
            self._offsets.pop(wid, None)
            self._workers.pop(wid, None)
        arrays = self._entry_arrays
        keep = ~arrays.touching(removed_points)
        dropped = arrays.n_entries - int(np.count_nonzero(keep))
        METRICS.counter("catalog.delta_entries_removed").add(dropped)
        added = _flatten(added_entries) if added_entries else None
        old_to_new = None
        if dropped or added is not None:
            base = arrays.n_entries - dropped
            arrays, old_to_new = arrays.splice(keep, added)
            self._entry_arrays = arrays
        changed: List[Worker] = []
        kept: List[Worker] = []
        for wid, worker in live.items():
            known = self._workers.get(wid)
            if known is None or known != worker:
                # New worker, or content changed (location shifts the start
                # offset, maxDP the size filter, speed the scale factor):
                # nothing incremental survives, validate from scratch.
                self._workers[wid] = worker
                self._offsets[wid] = worker_offset_factor(
                    worker, self._travel, self._center_location
                )
                changed.append(worker)
                continue
            if old_to_new is None:
                continue
            rows, payoffs, objects = self._columns[wid]
            rows = old_to_new[rows]
            alive = rows >= 0
            if not alive.all():
                rows, payoffs = rows[alive], payoffs[alive]
                if objects is not None:
                    objects = [s for s, ok in zip(objects, alive.tolist()) if ok]
            self._columns[wid] = (rows, payoffs, objects)
            kept.append(worker)
        built = 0
        for worker, columns in zip(changed, self._scan(changed, arrays, scalar)):
            self._columns[worker.worker_id] = columns
            built += columns[0].size
        if added is not None:
            scanned = self._scan(kept, added, scalar)
            for worker, (new_rows, new_payoffs, new_objects) in zip(kept, scanned):
                built += new_rows.size
                if not new_rows.size:
                    continue
                rows, payoffs, objects = self._columns[worker.worker_id]
                rows = np.concatenate((rows, new_rows + base))
                payoffs = np.concatenate((payoffs, new_payoffs))
                # Keys are unique per worker: this is the canonical
                # (payoff descending, point ids) order.
                order = np.lexsort((arrays.ids_rank[rows], -payoffs))
                rows, payoffs = rows[order], payoffs[order]
                if objects is not None:
                    merged = objects + new_objects
                    objects = [merged[k] for k in order.tolist()]
                self._columns[worker.worker_id] = (rows, payoffs, objects)
        METRICS.counter("catalog.strategies_built").add(built)
        if changed:
            METRICS.counter("catalog.delta_workers_revalidated").add(len(changed))

    # -- materialisation ----------------------------------------------------

    def _materialize(self, workers: Tuple[Worker, ...]) -> VDPSCatalog:
        """Assemble the :class:`VDPSCatalog` a from-scratch build would return.

        Per-worker columns are kept in the canonical catalog order, so they
        are the catalog's columns as they stand; ``cvdps_count`` filters
        the entry table by the *current* cap so a shrunk worker pool
        reports what its own build would generate.  The conflict index
        stays lazy, exactly like ``build_catalog``: equal columns build
        equal indexes on demand.
        """
        arrays = self._entry_arrays
        cap_now = max((w.max_delivery_points for w in workers), default=0)
        columns = {}
        for worker in workers:
            wid = worker.worker_id
            rows, payoffs, objects = self._columns[wid]
            columns[wid] = WorkerStrategies(
                arrays, rows, payoffs, self._offsets[wid][0], objects
            )
        cvdps_count = int(np.count_nonzero(arrays.sizes <= cap_now))
        self._catalog = VDPSCatalog(
            workers, arrays, columns, self.epsilon, cvdps_count
        )
        return self._catalog


def _flatten(entries: Dict[FrozenSet[str], CVdpsEntry]):
    """``entries`` as :class:`~repro.kernels.validate.EntryArrays`.

    Flattened in the canonical ``(size, ids)`` order, the order a full
    build generates and validates entries in.
    """
    from repro.kernels.validate import EntryArrays

    return EntryArrays.from_entries(
        [entries[subset] for subset in sorted(entries, key=_subset_sort_key)]
    )


def catalog_diff(
    actual: VDPSCatalog, expected: VDPSCatalog, check_index: bool = True
) -> List[str]:
    """Human-readable differences between two catalogs; ``[]`` means equal.

    Equality here is the full bit-identity contract the differential suites
    assert: worker tuples (content equality), epsilon, ``cvdps_count``,
    every strategy tuple position for position (point sets, routes with
    exact arrival times, payoffs), and — with ``check_index`` — the
    materialised :class:`CatalogIndex` bit layout (``point_bits``, packed
    masks, payoff vectors, size-1 pools, all compared exactly).
    """
    diffs: List[str] = []
    if actual.epsilon != expected.epsilon:
        diffs.append(f"epsilon {actual.epsilon!r} != {expected.epsilon!r}")
    if actual.cvdps_count != expected.cvdps_count:
        diffs.append(
            f"cvdps_count {actual.cvdps_count} != {expected.cvdps_count}"
        )
    if actual.workers != expected.workers:
        diffs.append(
            f"workers {[w.worker_id for w in actual.workers]} != "
            f"{[w.worker_id for w in expected.workers]} (or content changed)"
        )
        return diffs
    for worker in actual.workers:
        wid = worker.worker_id
        ours, theirs = actual.strategies(wid), expected.strategies(wid)
        if len(ours) != len(theirs):
            diffs.append(
                f"worker {wid}: {len(ours)} strategies != {len(theirs)}"
            )
            continue
        for pos, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                diffs.append(
                    f"worker {wid} strategy {pos}: "
                    f"{sorted(a.point_ids)} payoff {a.payoff!r} != "
                    f"{sorted(b.point_ids)} payoff {b.payoff!r}"
                )
                break
    if diffs or not check_index:
        return diffs
    index_a, index_b = actual.index, expected.index
    if index_a.point_bits != index_b.point_bits:
        diffs.append("index point_bits differ")
    if index_a.n_words != index_b.n_words:
        diffs.append(f"index n_words {index_a.n_words} != {index_b.n_words}")
    for worker in actual.workers:
        wid = worker.worker_id
        wa, wb = index_a.worker(wid), index_b.worker(wid)
        if not np.array_equal(wa.masks, wb.masks):
            diffs.append(f"index masks differ for worker {wid}")
        if not np.array_equal(wa.payoffs, wb.payoffs):
            diffs.append(f"index payoffs differ for worker {wid}")
        if not np.array_equal(wa.size1, wb.size1):
            diffs.append(f"index size1 pools differ for worker {wid}")
    return diffs
