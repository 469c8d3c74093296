"""Per-center strategy-catalog cache for the dispatch service.

Building the C-VDPS catalog (Algorithm 1 + Section IV validation) dominates
a round's cost, yet between two service rounds most centers are unchanged:
no new tasks landed, nobody's deadline moved, the same couriers are idle.
This cache keys each center's catalog by the
:func:`~repro.service.state._fingerprint` of its snapshotted sub-problem
(plus the pruning threshold), so a round only rebuilds the centers whose
content actually changed; any churn — task arrival, expiry, worker
movement, clock advance that shifts a relative deadline — changes the
fingerprint and invalidates the entry.

A changed fingerprint no longer means a from-scratch rebuild, though: in
delta mode (the default) each center keeps a
:class:`~repro.vdps.delta.DeltaCatalog` alive between rounds and a miss is
served by ``refresh(sub)`` — state surgery over whatever actually churned,
with the rebuild fallback handled inside the delta layer.  A
:class:`~repro.vdps.store.CatalogStore` additionally survives restarts:
the first miss for a center tries the store before paying a cold build, and
:meth:`persist` (called by the engine's drain) writes the live deltas back.

A round's misses share one build.  The engine hands the cache its round
snapshot (:meth:`SnapshotCatalogCache.stage`); the round's first miss
then refreshes every stale center of the snapshot.  Deltas and noops run
per center; every center that needs a full build (a cold build or a
fallback) joins one stacked :func:`~repro.vdps.catalog.build_batch`
call.  Each stale center's own get then takes its prebuilt catalog.  A
miss outside a staged round is the same refresh over one center.  Hits,
misses and everything a get returns stay per center.

Either way a hit returns the *identical* catalog a cold build would produce
(the fingerprint covers every catalog input, and the delta layer's refresh
is proven bit-identical to ``build_catalog`` by the differential suites),
which is what makes warm-cache service rounds bit-identical to cold-cache
runs.  Hits and misses are recorded in :data:`repro.obs.METRICS` under
``service.catalog_cache.*``; the delta layer's own activity lands on
:data:`~repro.obs.metrics.CATALOG_DELTA_METRICS`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import SubProblem
from repro.kernels.cvdps import LayoutMatrix
from repro.obs.metrics import METRICS
from repro.obs.tracer import resolve_tracer
from repro.vdps.catalog import VDPSCatalog, build_batch, build_catalog
from repro.vdps.delta import DeltaCatalog
from repro.vdps.store import CatalogStore


class SnapshotCatalogCache:
    """One catalog per center, valid while the center's fingerprint holds.

    Unlike :class:`repro.experiments.runner.CatalogCache` (which keys by
    ``(center, epsilon)`` for a *static* instance shared across algorithm
    arms), this cache serves a *mutating* world: the key includes the
    snapshot content hash, and a changed hash evicts the stale entry.

    Parameters
    ----------
    delta:
        Serve misses by incrementally refreshing a per-center
        :class:`DeltaCatalog` instead of rebuilding from scratch.  Output
        is identical either way; ``False`` restores the PR-5 behaviour
        (used by the bit-identity tests as the control arm).
    store:
        Optional persistent store consulted on a center's *first* miss and
        written by :meth:`persist`; ignored when ``delta`` is off.
    rebuild_fraction:
        Forwarded to every :class:`DeltaCatalog` this cache creates.
    """

    def __init__(
        self,
        delta: bool = True,
        store: Optional[CatalogStore] = None,
        rebuild_fraction: float = 0.5,
    ) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[str, Optional[float], VDPSCatalog]] = {}
        self._delta = bool(delta)
        self._store = store
        self._rebuild_fraction = float(rebuild_fraction)
        self._deltas: Dict[str, DeltaCatalog] = {}
        # Serialises builds/refreshes per center: an abandoned (timed-out)
        # solve may still be fetching a catalog when the retry starts, and
        # a DeltaCatalog mutates in place during refresh.
        self._center_locks: Dict[str, threading.Lock] = {}
        self._store_checked: Dict[str, bool] = {}
        # The round's snapshot (see stage()), whether its batch has run,
        # and the catalogs the batch built that no get has taken yet.
        self._round = None
        self._batched = False
        self._prebuilt: Dict[str, Tuple[str, Optional[float], VDPSCatalog]] = {}
        # Centers whose build lock a running batch holds.
        self._claimed: Set[str] = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def delta_enabled(self) -> bool:
        return self._delta

    @property
    def store(self) -> Optional[CatalogStore]:
        return self._store

    def stage(self, snapshot) -> None:
        """Hand over the round's :class:`~repro.service.state.WorldSnapshot`.

        In delta mode the round's first miss then refreshes every stale
        center of ``snapshot``, the full builds in one
        :func:`~repro.vdps.catalog.build_batch` call, inside that
        :meth:`get_with_status` call; each center's own get later takes
        its prebuilt catalog, still counted as a miss.  ``None`` ends the
        round and drops whatever the batch built that no get took.
        """
        with self._lock:
            self._round = snapshot
            self._batched = False
            self._prebuilt.clear()

    def get(
        self, sub: SubProblem, fingerprint: str, epsilon: Optional[float]
    ) -> VDPSCatalog:
        """The catalog for ``sub``, rebuilt only when its content changed."""
        return self.get_with_status(sub, fingerprint, epsilon)[0]

    def get_with_status(
        self, sub: SubProblem, fingerprint: str, epsilon: Optional[float]
    ) -> Tuple[VDPSCatalog, bool]:
        """Like :meth:`get`, also reporting whether it was a hit.

        The dispatch engine needs the distinction: injected
        cache-corruption only makes sense on a *hit* (a cold build is by
        definition fresh), and a corrupt entry must be invalidated so the
        retry's rebuild is clean.
        """
        center_id = sub.center.center_id
        with self._lock:
            entry = self._entries.get(center_id)
            build_lock = self._center_locks.setdefault(center_id, threading.Lock())
        if entry is not None and entry[0] == fingerprint and entry[1] == epsilon:
            METRICS.counter("service.catalog_cache.hits").add(1)
            return entry[2], True
        METRICS.counter("service.catalog_cache.misses").add(1)
        with self._lock:
            snapshot = self._round
            batch = (
                self._delta
                and not self._batched
                and snapshot is not None
                and snapshot.fingerprints.get(center_id) == fingerprint
            )
            if batch:
                self._batched = True
            claimed = center_id in self._claimed
        if claimed:
            # A batch still running (its solve timed out) holds this
            # center: build on the side rather than wait for that batch.
            with METRICS.timer("service.catalog_build_seconds"):
                catalog = build_catalog(sub, epsilon=epsilon)
            with self._lock:
                self._entries[center_id] = (fingerprint, epsilon, catalog)
            return catalog, False
        with build_lock:
            with METRICS.timer("service.catalog_build_seconds"):
                if batch:
                    self._refresh_stale(snapshot, center_id, epsilon)
                with self._lock:
                    prebuilt = self._prebuilt.pop(center_id, None)
                if prebuilt is not None and prebuilt[:2] == (fingerprint, epsilon):
                    catalog = prebuilt[2]
                else:
                    (catalog,) = self._refresh([sub], epsilon)
            with self._lock:
                self._entries[center_id] = (fingerprint, epsilon, catalog)
        return catalog, False

    def _refresh_stale(
        self, snapshot, center_id: str, epsilon: Optional[float]
    ) -> None:
        """Refresh every stale center of ``snapshot`` in one :meth:`_refresh`.

        The caller holds ``center_id``'s build lock; the other centers'
        locks are tried without blocking, in sorted center-id order.  A
        center whose lock is busy (an abandoned solve still refreshing
        it) or whose catalog is already fresh is left to its own get;
        freshness is checked under the center's lock, so no center is
        refreshed twice.  The batch holds the locks of exactly the
        centers it refreshes, and marks them claimed while it runs.
        Results wait in ``_prebuilt`` for each center's get.
        """
        held = []
        subs = []
        try:
            # A snapshot lists its centers in center-id order.
            for sub in snapshot.subproblems:
                cid = sub.center.center_id
                own = cid == center_id
                with self._lock:
                    lock = self._center_locks.setdefault(cid, threading.Lock())
                if not own and not lock.acquire(blocking=False):
                    continue
                with self._lock:
                    entry = self._entries.get(cid)
                    stale = entry is None or entry[:2] != (
                        snapshot.fingerprints[cid],
                        epsilon,
                    )
                    if stale:
                        self._claimed.add(cid)
                if not stale:
                    if not own:
                        lock.release()
                    continue
                if not own:
                    held.append(lock)
                subs.append(sub)
            if not subs:
                return
            catalogs = self._refresh(subs, epsilon)
            with self._lock:
                if self._round is snapshot:
                    for sub, catalog in zip(subs, catalogs):
                        cid = sub.center.center_id
                        self._prebuilt[cid] = (
                            snapshot.fingerprints[cid],
                            epsilon,
                            catalog,
                        )
        finally:
            with self._lock:
                self._claimed.difference_update(
                    sub.center.center_id for sub in subs
                )
            for lock in held:
                lock.release()

    def _refresh(
        self, subs: Sequence[SubProblem], epsilon: Optional[float]
    ) -> List[VDPSCatalog]:
        """Produce each center's catalog (the caller holds their build locks).

        A center with a live delta catalog (or, on its first miss, one
        from the store) refreshes it when the refresh is a ``delta`` or a
        ``noop``.  Every other center — cold builds and fallbacks — is
        built in one :func:`~repro.vdps.catalog.build_batch` call and
        installed into its delta catalog.
        """
        if not self._delta:
            return [build_catalog(sub, epsilon=epsilon) for sub in subs]
        catalogs: Dict[str, VDPSCatalog] = {}
        builds: List[Tuple[SubProblem, Optional[DeltaCatalog]]] = []
        for sub in subs:
            cid = sub.center.center_id
            delta, restored = self._live_delta(cid, epsilon)
            if delta is not None:
                try:
                    # A restored delta replays whatever churned since the
                    # save; it may fall back, never give wrong output.
                    plan = delta.decide(sub)
                    if plan[0] != "fallback":
                        catalogs[cid] = delta.refresh(sub, plan)
                except Exception:  # noqa: BLE001 — a rotten payload is a miss
                    if not restored:
                        raise
                    METRICS.counter("catalog.delta_store_errors").add(1)
                    delta = None
                if cid in catalogs:
                    with self._lock:
                        self._deltas[cid] = delta
                    continue
            builds.append((sub, delta))
        if builds:
            layouts = [
                LayoutMatrix() if delta is None else delta.layout
                for _, delta in builds
            ]
            tracer = resolve_tracer(False)
            with tracer.span("catalog.batch", centers=len(builds)):
                built = build_batch(
                    [sub for sub, _ in builds], epsilon, layouts=layouts
                )
            for (sub, delta), layout, (catalog, table) in zip(
                builds, layouts, built
            ):
                if delta is None:
                    delta = DeltaCatalog.from_build(
                        sub,
                        catalog,
                        table,
                        layout,
                        epsilon=epsilon,
                        rebuild_fraction=self._rebuild_fraction,
                    )
                else:
                    delta.adopt(sub, catalog, table)
                cid = sub.center.center_id
                with self._lock:
                    self._deltas[cid] = delta
                catalogs[cid] = catalog
        return [catalogs[sub.center.center_id] for sub in subs]

    def _live_delta(
        self, center_id: str, epsilon: Optional[float]
    ) -> Tuple[Optional[DeltaCatalog], bool]:
        """The center's delta catalog at ``epsilon``, and whether it was
        just loaded from the store (tried once, on the center's first miss)."""
        with self._lock:
            delta = self._deltas.get(center_id)
        if delta is not None and delta.epsilon == epsilon:
            return delta, False
        if self._store is not None and not self._store_checked.get(center_id):
            self._store_checked[center_id] = True
            loaded = self._store.load(center_id, epsilon)
            if loaded is not None:
                return loaded[1], True
        return None, False

    def persist(self) -> int:
        """Save every live delta catalog to the store; returns the count.

        Called by the engine's drain so a restart warm-starts from disk.
        No-op (0) without a store or in non-delta mode; save failures are
        counted (``catalog.delta_store_errors``) but never raised —
        shutdown must not fail on a full disk.
        """
        if self._store is None or not self._delta:
            return 0
        with self._lock:
            deltas = dict(self._deltas)
            fingerprints = {cid: entry[0] for cid, entry in self._entries.items()}
            locks = {
                cid: self._center_locks.setdefault(cid, threading.Lock())
                for cid in deltas
            }
        saved = 0
        for cid, delta in deltas.items():
            with locks[cid]:  # never pickle a delta mid-refresh
                if self._store.save(cid, fingerprints.get(cid, ""), delta):
                    saved += 1
        return saved

    def invalidate(self, center_id: str) -> bool:
        """Drop one center's entry *and* its delta state; True if either existed.

        The dispatch engine calls this when a solve fails: the
        failure may stem from a rotten cached catalog, and in delta mode
        the delta's internal tables are part of that state — the next miss
        pays one full rebuild and is guaranteed clean.
        """
        with self._lock:
            had_entry = self._entries.pop(center_id, None) is not None
            had_delta = self._deltas.pop(center_id, None) is not None
            self._store_checked.pop(center_id, None)
            self._prebuilt.pop(center_id, None)
        return had_entry or had_delta

    def clear(self) -> None:
        """Drop every entry (e.g. on an epsilon reconfiguration)."""
        with self._lock:
            self._entries.clear()
            self._deltas.clear()
            self._store_checked.clear()
            self._prebuilt.clear()
