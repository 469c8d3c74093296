"""Incrementally maintained C-VDPS catalogs (the ROADMAP's churn item).

A live dispatch round churns a few delivery points per center — a task
arrives, a deadline passes — yet :func:`~repro.vdps.catalog.build_catalog`
re-enumerates the whole per-center subset DP.  :class:`DeltaCatalog` keeps
the DP alive between rounds in the kernel's own form — per layer the
visit orders, prefix arrival times, packed subset masks and canonical best
rows of :class:`~repro.kernels.cvdps.Layer`, path-lex, in sorted-id point
order — and applies churn as array passes over it:

* **Point removal** is pure retraction: a DP state depends on a point only
  if its subset contains it (arrival times of the other states chain through
  their own points alone), so dropping every row whose mask holds the point
  — one mask test per layer — leaves exactly the DP a rebuild over the
  surviving points yields.  Inserted and removed points shift later
  sorted-id indices, so surviving rows are re-indexed and their masks
  re-packed.
* **Point addition** adds exactly the states whose subset holds a new
  point: seed the new points' singletons, extend by a new point every row
  whose endpoint chains to it, then close upward over the new rows only
  (any extension of a state holding a new point still holds it).  All of
  a refresh's new points take one run of the full build's own expansion
  loop (:func:`~repro.kernels.cvdps.add_points`), with the same ``(time,
  parent rank)`` relaxation, which merges the new rows into each layer in
  path-lex order.
* **A changed point** (new task, expired task, moved deadline) is a removal
  followed by an addition.  Added, removed and changed points are decided
  from the centers' :class:`~repro.core.columns.PointColumns`, so planning
  builds no point object.
* **Cap growth** (a joining worker raises ``maxDP``) resumes the same loop
  from the top layer (:func:`~repro.kernels.cvdps.deepen_layers`).

Travel times come from the center's
:class:`~repro.kernels.cvdps.LayoutMatrix`, bit-identical to
``TravelModel.time``, and the relaxation makes each state's value a
function of the point set alone, so the spliced layers *equal* a
from-scratch DP — same floats, same tie-breaks — and the materialised
:class:`~repro.vdps.catalog.VDPSCatalog` (strategy tuples, payoffs, and the
lazy :class:`~repro.vdps.catalog.CatalogIndex` bit layout) is bit-identical
to ``build_catalog`` on the same sub-problem.  The differential suites
(``tests/vdps/test_delta_differential.py``,
``tests/properties/test_catalog_delta.py``) assert exactly that after every
step of randomised churn.

The surgery state is the catalog itself: its entry table (the columnar
:class:`~repro.kernels.validate.EntryArrays`) and its owner-major
:class:`~repro.vdps.catalog.StrategyTable`.  A refresh splices the entry
table: the rows whose point set meets a removed point are dropped (one
mask test) and the added subsets' entries — laid out straight from the
new rows' best states (:meth:`EntryArrays.from_layers`) — are appended
(:meth:`EntryArrays.splice`), which yields an old→new row map.  The
splice also runs when only the center's point ids changed, since those
points are the conflict index's bit space.  Worker-level revalidation is
restricted the same way: a worker is fully revalidated only when its own
content changed (location → start offset, ``maxDP``, speed); every
untouched worker's rows are remapped through the row map, the added
entries are scanned for all of them at once by the same validation a full
revalidation uses, and every scanned row is placed among the survivors of
the whole table by one searchsorted (surviving rows keep their canonical
``(-payoff, ids_rank)`` order through the row map).  No strategy object
is built, except by the ``validate_entry`` loop that validates
speed-scaled workers; their objects move with their rows.  Structural
changes no delta can express (center moved, travel model swapped) and
churn above ``rebuild_fraction`` (e.g. a clock advance rewriting every
relative deadline) fall back to a full rebuild — the same array-native
build as ``build_catalog``, at the same price.  A
fallback keeps only that build's catalog and C-VDPS table; the DP layers
are derived from the table when a later refresh takes the delta path, so
a clock-advancing loop never pays for them.

Every refresh goes through one function, :func:`refresh_all`: it plans
each center of the call, runs all of the call's full builds (cold builds
of unbuilt catalogs and fallbacks) in one
:func:`~repro.vdps.catalog.build_batch`, and then applies each center.
``DeltaCatalog(sub, ...)`` and :meth:`DeltaCatalog.refresh` are that
function over one center; the dispatch service's catalog cache passes a
round's stale centers to it together, with :meth:`DeltaCatalog.cold` for
the centers it has no catalog for yet.

Everything lands on the ``catalog.delta_*`` metrics surface
(:data:`repro.obs.metrics.CATALOG_DELTA_METRICS`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.columns import PointColumns
from repro.core.entities import Worker
from repro.core.instance import SubProblem
from repro.kernels.cvdps import (
    CenterDP,
    Layer,
    LayoutMatrix,
    add_points,
    deepen_layers,
    layers_from_paths,
    layers_without,
    point_mask,
)
from repro.obs.metrics import METRICS
from repro.obs.tracer import resolve_tracer
from repro.vdps.catalog import (
    StrategyTable,
    VDPSCatalog,
    WorkerStrategy,
    build_batch,
    worker_offset_factor,
)
from repro.vdps.generator import CvdpsTable, DPStats, chain_adjacency

if TYPE_CHECKING:
    from repro.kernels.validate import EntryArrays


class DeltaCatalog:
    """One center's catalog, maintained by churn deltas (see module doc).

    Parameters
    ----------
    sub:
        The initial sub-problem; ``__init__`` performs one full build
        (:meth:`cold` makes the catalog without building it).
    epsilon:
        Distance-constrained pruning threshold, fixed for the catalog's
        lifetime (a changed threshold is a new catalog).
    rebuild_fraction:
        Fall back to a full rebuild when more than this fraction of the
        center's delivery points changed in one refresh.  Deltas win when
        churn is sparse; a clock advance rewrites every relative deadline
        and is cheaper rebuilt.  ``0.0`` rebuilds on any churn; values
        above 1 never fall back (used by the differential tests to force
        the delta paths).
    """

    def __init__(
        self,
        sub: SubProblem,
        epsilon: Optional[float] = None,
        rebuild_fraction: float = 0.5,
    ) -> None:
        self._configure(sub, epsilon, rebuild_fraction)
        refresh_all([self], [sub])

    @classmethod
    def cold(
        cls,
        sub: SubProblem,
        epsilon: Optional[float] = None,
        rebuild_fraction: float = 0.5,
    ) -> "DeltaCatalog":
        """An unbuilt catalog for ``sub``'s center: its first refresh
        (through :func:`refresh_all`, in a batch with other centers) is its
        cold build."""
        self = cls.__new__(cls)
        self._configure(sub, epsilon, rebuild_fraction)
        return self

    def _configure(
        self, sub: SubProblem, epsilon: Optional[float], rebuild_fraction: float
    ) -> None:
        if rebuild_fraction < 0:
            raise ValueError(
                f"rebuild_fraction must be >= 0, got {rebuild_fraction!r}"
            )
        self.epsilon = epsilon
        self._rebuild_fraction = float(rebuild_fraction)
        self._center_id = sub.center.center_id
        self._layout = LayoutMatrix()
        self._catalog: Optional[VDPSCatalog] = None
        self._cvdps: Optional[CvdpsTable] = None

    # -- public surface -----------------------------------------------------

    @property
    def catalog(self) -> Optional[VDPSCatalog]:
        """The catalog of the last refresh (``None`` before the first)."""
        return self._catalog

    @property
    def center_id(self) -> str:
        return self._center_id

    @property
    def cap_built(self) -> int:
        """The ``maxDP`` bound the DP state table is complete up to."""
        return self._cap_built

    def refresh(self, sub: SubProblem) -> VDPSCatalog:
        """Bring the catalog up to date with ``sub`` and return it.

        Equal — strategy for strategy, bit for bit — to
        ``build_catalog(sub, epsilon=...)``, whether the refresh applied
        deltas or fell back to a rebuild: :func:`refresh_all` over this
        one center.
        """
        (catalog,) = refresh_all([self], [sub])
        return catalog

    def _apply(self, sub: SubProblem, plan, build) -> VDPSCatalog:
        """:meth:`_refresh` under the refresh timer and a ``catalog.refresh``
        span whose ``path`` field names the outcome."""
        tracer = resolve_tracer(False)
        if not tracer.enabled:
            with METRICS.timer("catalog.delta_refresh_seconds"):
                return self._refresh(sub, plan, build)
        with tracer.span("catalog.refresh", center=self._center_id) as span:
            with METRICS.timer("catalog.delta_refresh_seconds"):
                catalog = self._refresh(sub, plan, build)
            span.add(path=self._last_path)
        return catalog

    # -- refresh machinery --------------------------------------------------

    def _plan(self, sub: SubProblem):
        """``(path, churn)``: the refresh path for ``sub`` and, for a delta,
        ``(new points, added, removed, changed, new cap)``.

        Points are compared column by column (:meth:`PointColumns.same_point
        <repro.core.columns.PointColumns.same_point>`), so no point object
        is built, and the comparison stops as soon as the churn calls for a
        fallback (a clock advance changes every point's deadlines).
        """
        if self._catalog is None:
            return "rebuild", None
        travel = sub.travel
        if (
            sub.center.center_id != self._center_id
            or sub.center.location != self._center_location
            or travel.speed_kmh != self._travel.speed_kmh
            or travel.distance_fn is not self._travel.distance_fn
        ):
            return "fallback", None
        new_points, old_points = sub.center.columns, self._points
        old_position, new_position = old_points.position, new_points.position
        added = [p for p in new_points.ids if p not in old_position]
        removed = [p for p in old_points.ids if p not in new_position]
        limit = self._rebuild_fraction * max(len(new_points), len(old_points), 1)
        changed: List[str] = []
        churn = len(added) + len(removed)
        if new_points is not old_points:
            for i, p in enumerate(new_points.ids):
                j = old_position.get(p)
                if j is not None and not new_points.same_point(i, old_points, j):
                    changed.append(p)
                    churn += 1
                    if churn > limit:
                        return "fallback", None
        workers = sub.online_workers
        new_cap = max((w.max_delivery_points for w in workers), default=0)
        if churn == 0 and workers == self._catalog.workers:
            return "noop", None
        if churn > limit or (new_cap > self._cap_built and self._cap_built == 0):
            return "fallback", None
        return "delta", (new_points, added, removed, changed, new_cap)

    def _refresh(self, sub: SubProblem, plan, build) -> VDPSCatalog:
        """Apply ``plan`` (:meth:`_plan`'s answer for ``sub``); ``build``
        is the ``(catalog, table)`` of a ``rebuild`` or ``fallback``."""
        path, churn = plan
        if build is not None:
            if path == "fallback":
                METRICS.counter("catalog.delta_fallbacks").add(1)
            self._install(sub, *build)
            self._last_path = path
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
        retimed = self._ensure_tables()
        METRICS.counter("catalog.delta_points_added").add(len(added) + len(changed))
        METRICS.counter("catalog.delta_points_removed").add(
            len(removed) + len(changed)
        )

        stats = DPStats()
        added_entries = self._splice_states(
            new_points, added, removed, changed, new_cap, stats, retimed
        )
        METRICS.counter("cvdps.states_expanded").add(stats.states_expanded)
        METRICS.counter("cvdps.candidates_tried").add(stats.candidates_tried)
        METRICS.counter("cvdps.deadline_rejections").add(stats.deadline_rejections)
        METRICS.counter("catalog.delta_entries_added").add(
            0 if added_entries is None else added_entries.n_entries
        )

        workers = sub.online_workers
        table = self._apply_worker_churn(
            workers, set(removed) | set(changed), added_entries, new_points
        )
        return self._materialize(workers, table)

    def _install(
        self, sub: SubProblem, catalog: VDPSCatalog, table: CvdpsTable
    ) -> None:
        """Make a full build of ``sub`` (:func:`refresh_all`'s batch, with
        the travel matrix gathered from the center's
        :class:`~repro.kernels.cvdps.LayoutMatrix`) the catalog's state.

        Keeps the build's catalog and C-VDPS table.  The surgery tables
        are derived from the table only when a later refresh takes the
        delta path (see :meth:`_ensure_tables`): under a moving clock
        every refresh falls back, so none is ever built.
        """
        METRICS.counter("catalog.delta_rebuilds").add(1)
        self._travel = sub.travel
        self._center_id = sub.center.center_id
        self._center_location = sub.center.location
        self._points: PointColumns = sub.center.columns
        self._cap_built = max(
            (w.max_delivery_points for w in sub.online_workers), default=0
        )
        self._catalog, self._cvdps = catalog, table

    def _ensure_tables(self) -> Optional[Tuple[List[str], list, object]]:
        """Derive the DP layers from the last rebuild, once.

        The layers are laid out from the rebuild's C-VDPS table (its visit
        orders, re-timed over the center's travel matrix); the strategy
        table is the rebuilt catalog's own.  Returns ``(ids, locations,
        matrix)`` of that travel matrix, or ``None`` when the layers
        already existed.
        """
        table = self._cvdps
        if table is None:
            return None
        points = self._points
        ids, locations = points.ids, points.locations
        matrix = self._layout.matrix(
            ids, locations, self._travel, self._center_location
        )
        self._layers: List[Layer] = layers_from_paths(table.paths, points, matrix)
        self._offsets: Dict[str, Tuple[float, float]] = {
            worker.worker_id: worker_offset_factor(
                worker, self._travel, self._center_location
            )
            for worker in self._catalog.workers
        }
        self._cvdps = None
        return ids, locations, matrix

    # -- DP surgery ---------------------------------------------------------

    def _splice_states(
        self,
        points: PointColumns,
        added: List[str],
        removed: List[str],
        changed: List[str],
        new_cap: int,
        stats: DPStats,
        retimed=None,
    ) -> Optional["EntryArrays"]:
        """Bring the DP layers to ``points`` (the new index space) and
        ``new_cap``.

        Returns the entries of every subset the surgery added, ``None`` if
        none.  ``retimed`` is :meth:`_ensure_tables`'s travel matrix, reused when
        the points kept their ids and locations (new tasks at old points).
        """
        from repro.kernels.validate import EntryArrays

        ids = points.ids
        position = points.position
        gone = sorted(removed) + sorted(changed)
        old_position = self._points.position
        self._layers = layers_without(
            self._layers,
            [old_position[p] for p in gone],
            np.array(
                [position.get(p, -1) for p in self._points.ids], dtype=np.intp
            ),
            max(1, -(-len(ids) // 64)),
        )
        self._points = points
        arrivals = [position[p] for p in sorted(changed) + sorted(added)]
        built = self._cap_built
        # A cap that shrank needs no surgery: materialisation filters by
        # the current cap.
        self._cap_built = max(built, new_cap)
        if not ids or (not arrivals and new_cap <= built):
            return None
        locations = points.locations
        if retimed is not None and retimed[:2] == (ids, locations):
            matrix = retimed[2]
        else:
            matrix = self._layout.matrix(
                ids, locations, self._travel, self._center_location
            )
        adjacency = chain_adjacency(points, matrix, self._travel, self.epsilon)
        add_points(
            self._layers,
            CenterDP(self._center_id, points, adjacency, matrix, built, stats),
            arrivals,
        )
        if new_cap > built:
            deepen_layers(
                self._layers,
                CenterDP(self._center_id, points, adjacency, matrix, new_cap, stats),
                built,
            )

        # The added subsets: those holding an arrival, and those above the
        # old cap.  Their states are all new, so each one's best row is.
        probe = point_mask(arrivals, max(1, -(-len(ids) // 64)))
        fresh = [
            layer
            if layer.size > built
            else replace(
                layer,
                best=layer.best[(layer.masks[layer.best] & probe).any(axis=1)],
            )
            for layer in self._layers
        ]
        if not any(layer.best.size for layer in fresh):
            return None
        return EntryArrays.from_layers(fresh, [points])[0]

    # -- worker-level revalidation ------------------------------------------

    def _exact(self, wid: str) -> bool:
        """Whether the worker's strategies come from the ``validate_entry``
        loop (a speed-scaled worker).

        Their table positions hold the loop's objects (see
        :func:`~repro.kernels.validate.validate_tables`).
        """
        return self._offsets[wid][1] != 1.0

    def _scan(self, workers: Sequence[Worker], arrays) -> StrategyTable:
        """Section IV validation of ``workers`` against ``arrays``' entries,
        as one table (see :func:`~repro.kernels.validate.validate_tables`)."""
        from repro.kernels.validate import validate_tables

        return validate_tables(
            [arrays],
            [[(worker, *self._offsets[worker.worker_id]) for worker in workers]],
            [self._travel],
            [self._center_location],
        )[0]

    def _apply_worker_churn(
        self,
        workers: Tuple[Worker, ...],
        removed_points: Set[str],
        added: Optional["EntryArrays"],
        points: PointColumns,
    ) -> StrategyTable:
        """The strategy table of ``workers`` over the spliced entry table.

        The entry table drops every entry over a removed point and appends
        the ``added`` entries, laid out over ``points`` (the center's
        columns, the index's bit space, so the table is re-laid whenever
        their ids change).  A worker whose content changed is revalidated
        from scratch; every other worker keeps its rows through the
        old→new row map, and the added entries are scanned for all of them
        at once like a full revalidation.
        """
        old = self._catalog
        table = old.table
        arrays = table.arrays
        keep = ~arrays.touching(removed_points)
        dropped = arrays.n_entries - int(np.count_nonzero(keep))
        METRICS.counter("catalog.delta_entries_removed").add(dropped)
        base = arrays.n_entries - dropped
        old_to_new = None
        if dropped or added is not None or arrays.points.ids != points.ids:
            arrays, old_to_new = arrays.splice(keep, added, points)
        live = {worker.worker_id for worker in workers}
        for wid in [wid for wid in self._offsets if wid not in live]:
            del self._offsets[wid]
        # The new slot of each old worker kept as it was, -1 for the rest.
        slot_of_old = np.full(len(old.workers), -1, dtype=np.intp)
        changed: List[int] = []
        kept: List[int] = []
        for k, worker in enumerate(workers):
            j = old._slot.get(worker.worker_id)
            # Snapshots hand over the same Worker while it is unchanged.
            if j is None or (old.workers[j] is not worker and old.workers[j] != worker):
                # New worker, or content changed (location shifts the start
                # offset, maxDP the size filter, speed the scale factor):
                # nothing incremental survives, validate from scratch.
                self._offsets[worker.worker_id] = worker_offset_factor(
                    worker, self._travel, self._center_location
                )
                changed.append(k)
            else:
                slot_of_old[j] = k
                kept.append(k)
        if old_to_new is None and not changed and workers == old.workers:
            return table
        scans = []
        if changed:
            METRICS.counter("catalog.delta_workers_revalidated").add(len(changed))
            revalidated = self._scan([workers[k] for k in changed], arrays)
            scans.append((changed, revalidated, 0))
        if added is not None and kept:
            scans.append((kept, self._scan([workers[k] for k in kept], added), base))
        return self._merge_columns(workers, slot_of_old, old_to_new, scans, arrays)

    def _merge_columns(
        self,
        workers: Tuple[Worker, ...],
        slot_of_old: np.ndarray,
        old_to_new: Optional[np.ndarray],
        scans: List[Tuple[Sequence[int], StrategyTable, int]],
        arrays: "EntryArrays",
    ) -> StrategyTable:
        """The old table's surviving rows merged with the ``scans``' rows,
        as the table of ``workers`` over the spliced entry table ``arrays``.

        Old worker ``j``'s rows survive, remapped through ``old_to_new``
        (``None``: unchanged), as new worker ``slot_of_old[j]``'s (``-1``:
        none do).  Each scan is ``(slots, table, shift)``: its worker ``i``
        is new worker ``slots[i]``, its rows index ``arrays`` from row
        ``shift`` on.  The row map preserves order and a surviving entry
        keeps its payoff and point ids, so each worker's survivors stay in
        canonical ``(-payoff, ids_rank)`` order; so do its scanned rows.
        One searchsorted over order-preserving byte keys ``(worker,
        -payoff, ids_rank)`` places every scanned row among the
        survivors; keys are unique per worker, so no row ties another.
        The objects of ``validate_entry``-loop workers move with their
        rows.  Counts the scanned rows as ``catalog.strategies_built``.
        """
        old = self._catalog.table
        n_old = old.rows.size
        owner = slot_of_old.repeat(np.diff(old.starts))
        rows = old.rows if old_to_new is None else old_to_new[old.rows]
        # Positions in the old table (then in the scans'), in merged order:
        # first the rows that survive.
        order = np.flatnonzero((owner >= 0) & (rows >= 0))
        kept_slots = slot_of_old[slot_of_old >= 0]
        if (kept_slots[1:] < kept_slots[:-1]).any():
            order = order[owner[order].argsort(kind="stable")]
        n_new = sum(scan.rows.size for _, scan, _ in scans)
        METRICS.counter("catalog.strategies_built").add(n_new)
        new_objects: Dict[int, WorkerStrategy] = {}
        if n_new:
            new_owner = np.concatenate(
                [np.repeat(slots, np.diff(scan.starts)) for slots, scan, _ in scans]
            )
            new_rows = np.concatenate([scan.rows + shift for _, scan, shift in scans])
            new_payoffs = np.concatenate([scan.payoffs for _, scan, _ in scans])
            done = 0
            for _, scan, _ in scans:
                new_objects.update(
                    (done + pos, strategy) for pos, strategy in scan.objects.items()
                )
                done += scan.rows.size
            # The scans' workers are disjoint, each scan owner-major.
            by_owner = new_owner.argsort(kind="stable")
            ids_rank = arrays.ids_rank
            landed = np.searchsorted(
                _column_keys(owner[order], old.payoffs[order], ids_rank[rows[order]]),
                _column_keys(
                    new_owner[by_owner],
                    new_payoffs[by_owner],
                    ids_rank[new_rows[by_owner]],
                ),
            )
            landed += np.arange(n_new)
            merged = np.empty(order.size + n_new, dtype=np.intp)
            stays = np.ones(merged.size, dtype=bool)
            stays[landed] = False
            merged[stays] = order
            merged[landed] = n_old + by_owner
            order = merged
            owner = np.concatenate((owner, new_owner))
            rows = np.concatenate((rows, new_rows))
            payoffs = np.concatenate((old.payoffs, new_payoffs))
        else:
            payoffs = old.payoffs
        counts = np.bincount(owner[order], minlength=len(workers))
        starts = [0, *counts.cumsum().tolist()]
        objects: Dict[int, WorkerStrategy] = {}
        for k, worker in enumerate(workers):
            if self._exact(worker.worker_id):
                sources = order[starts[k] : starts[k + 1]].tolist()
                for pos, source in enumerate(sources, starts[k]):
                    objects[pos] = (
                        old.objects[source]
                        if source < n_old
                        else new_objects[source - n_old]
                    )
        return StrategyTable(
            arrays,
            rows[order],
            payoffs[order],
            starts,
            np.array([self._offsets[w.worker_id][0] for w in workers]),
            objects,
        )

    # -- materialisation ----------------------------------------------------

    def _materialize(
        self, workers: Tuple[Worker, ...], table: StrategyTable
    ) -> VDPSCatalog:
        """The :class:`VDPSCatalog` a from-scratch build would return.

        ``cvdps_count`` filters the entry table by the *current* cap so a
        shrunk worker pool reports what its own build would generate.  The
        conflict index stays lazy, exactly like ``build_catalog``: equal
        tables build equal indexes on demand.
        """
        cap_now = max((w.max_delivery_points for w in workers), default=0)
        cvdps_count = int(np.count_nonzero(table.arrays.sizes <= cap_now))
        self._catalog = VDPSCatalog(workers, table, self.epsilon, cvdps_count)
        return self._catalog


def refresh_all(
    deltas: Sequence[DeltaCatalog], subs: Sequence[SubProblem]
) -> List[VDPSCatalog]:
    """Bring each of ``deltas`` up to date with its entry of ``subs``.

    The one refresh path: ``DeltaCatalog(sub, ...)`` and
    :meth:`DeltaCatalog.refresh` are this function over one center, and
    the dispatch service's catalog cache calls it over every stale center
    of a round.  Each center is planned first: ``noop``, ``delta``, or a
    full build — ``rebuild`` for an unbuilt catalog
    (:meth:`DeltaCatalog.cold`), ``fallback`` for a built one.  Every full
    build of the call runs in one
    :func:`~repro.vdps.catalog.build_batch` inside one ``catalog.batch``
    span, each center with its own
    :class:`~repro.kernels.cvdps.LayoutMatrix`.  Then each center is
    applied in order under its ``catalog.refresh`` span and the
    ``catalog.delta_refresh_seconds`` timer, which time that center's own
    work: its surgery, or the hand-over of its batch-built catalog.

    The catalogs must share epsilon (one batch builds them); each
    catalog's result equals ``build_catalog`` on its ``sub``.
    """
    if not deltas:
        return []
    epsilon = deltas[0].epsilon
    if any(delta.epsilon != epsilon for delta in deltas):
        raise ValueError("refresh_all needs one epsilon")
    plans = [delta._plan(sub) for delta, sub in zip(deltas, subs)]
    builds = [
        k for k, (path, _) in enumerate(plans) if path in ("rebuild", "fallback")
    ]
    built = {}
    if builds:
        with resolve_tracer(False).span("catalog.batch", centers=len(builds)):
            built = dict(
                zip(
                    builds,
                    build_batch(
                        [subs[k] for k in builds],
                        epsilon,
                        layouts=[deltas[k]._layout for k in builds],
                    ),
                )
            )
    return [
        delta._apply(sub, plan, built.get(k))
        for k, (delta, sub, plan) in enumerate(zip(deltas, subs, plans))
    ]


def _column_keys(
    owner: np.ndarray, payoffs: np.ndarray, ids_rank: np.ndarray
) -> np.ndarray:
    """``(N,)`` opaque keys ordered as ``(owner, -payoff, ids_rank)`` is.

    Each field as big-endian unsigned bytes, the payoff's bits mapped so
    that unsigned order is descending payoff (``+ 0.0`` folds ``-0.0``
    into ``0.0``, as ``-payoffs`` ties them in the canonical sort): byte
    strings compare like the canonical sort keys they spell.
    """
    bits = (payoffs + 0.0).view(np.uint64)
    # Flip every bit but the sign of a non-negative payoff, none of a
    # negative one: unsigned order is then descending payoff.
    flip = ((bits >> np.uint64(63)) - np.uint64(1)) >> np.uint64(1)
    fields = np.empty((owner.size, 3), dtype=">u8")
    fields[:, 0] = owner
    fields[:, 1] = bits ^ flip
    fields[:, 2] = ids_rank
    return fields.view(np.dtype((np.void, 24))).ravel()


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
