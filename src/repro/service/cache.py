"""Per-center strategy-catalog cache for the dispatch service.

Building the C-VDPS catalog (Algorithm 1 + Section IV validation) dominates
a round's cost, yet between two service rounds many centers are unchanged:
no new tasks landed, nobody's deadline moved, the same couriers are idle.
This cache keys each center's catalog by its snapshot key
``(center version, now)`` (see :mod:`repro.service.state`) plus the
pruning threshold, so a round only refreshes the centers whose content
actually changed.  :class:`~repro.service.state.WorldState` bumps a
center's version on every mutation that touches it — task arrival,
expiry or delivery at one of its points, a worker joining it or taking a
route — and a clock advance moves ``now``, which shifts every relative
deadline; either changes the key and invalidates the entry.  Keys are
minted per world: a cache serves the one world whose snapshots it is fed.

A changed key no longer means a from-scratch rebuild, though: in
delta mode (the default) each center keeps a
:class:`~repro.vdps.delta.DeltaCatalog` alive between rounds and a miss is
served by ``refresh(sub)`` — state surgery over whatever actually churned,
with the rebuild fallback handled inside the delta layer.  Catalogs live
only in the running process: they are derived state of the world, and a
restarted service (or one recovered from its journal) rebuilds each
center's catalog on its first round.

A round's misses share one build.  The engine hands the cache its round
snapshot (:meth:`SnapshotCatalogCache.stage`); the round's first miss
then refreshes every stale center of the snapshot.  Deltas and noops run
per center; every center that needs a full build (a cold build or a
fallback) joins one stacked :func:`~repro.vdps.catalog.build_batch`
call.  Each stale center's own get then takes its prebuilt catalog.  A
miss outside a staged round is the same refresh over one center.  Hits,
misses and everything a get returns stay per center.

Either way a hit returns the *identical* catalog a cold build would produce
(equal keys imply equal sub-problems, which the snapshot state machine in
``tests/properties/test_snapshot_incremental.py`` checks against the
content hash :func:`repro.oracle._fingerprint`, and the delta layer's
refresh is proven bit-identical to ``build_catalog`` by the differential
suites), which is what makes warm-cache service rounds bit-identical to
cold-cache runs.  Hits and misses are recorded in :data:`repro.obs.METRICS`
under ``service.catalog_cache.*``; the delta layer's own activity lands on
:data:`~repro.obs.metrics.CATALOG_DELTA_METRICS`.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.instance import SubProblem
from repro.kernels.cvdps import LayoutMatrix
from repro.obs.metrics import METRICS
from repro.obs.tracer import resolve_tracer
from repro.vdps.catalog import VDPSCatalog, build_batch, build_catalog
from repro.vdps.delta import DeltaCatalog


class SnapshotCatalogCache:
    """One catalog per center, valid while the center's snapshot key holds.

    Unlike :class:`repro.experiments.runner.CatalogCache` (which keys by
    ``(center, epsilon)`` for a *static* instance shared across algorithm
    arms), this cache serves a *mutating* world: the key includes the
    center's snapshot key, and a changed key evicts the stale entry.

    Parameters
    ----------
    delta:
        Serve misses by incrementally refreshing a per-center
        :class:`DeltaCatalog` instead of rebuilding from scratch.  Output
        is identical either way; ``False`` rebuilds on every miss (the
        control arm of the bit-identity tests).
    """

    def __init__(self, delta: bool = True) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[Hashable, Optional[float], VDPSCatalog]] = {}
        self._delta = bool(delta)
        self._deltas: Dict[str, DeltaCatalog] = {}
        # Serialises builds/refreshes per center: an abandoned (timed-out)
        # solve may still be fetching a catalog when the retry starts, and
        # a DeltaCatalog mutates in place during refresh.
        self._center_locks: Dict[str, threading.Lock] = {}
        # The round's snapshot (see stage()), whether its batch has run,
        # and the catalogs the batch built that no get has taken yet.
        self._round = None
        self._batched = False
        self._prebuilt: Dict[str, Tuple[Hashable, Optional[float], VDPSCatalog]] = {}
        # Centers whose build lock a running batch holds.
        self._claimed: Set[str] = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

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
        self, sub: SubProblem, key: Hashable, epsilon: Optional[float]
    ) -> VDPSCatalog:
        """The catalog for ``sub``, rebuilt only when its ``key`` changed.

        ``key`` is the center's :attr:`WorldSnapshot.keys` entry, or any
        value that changes whenever ``sub`` does.
        """
        return self.get_with_status(sub, key, epsilon)[0]

    def get_with_status(
        self, sub: SubProblem, key: Hashable, epsilon: Optional[float]
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
        if entry is not None and entry[0] == key and entry[1] == epsilon:
            METRICS.counter("service.catalog_cache.hits").add(1)
            return entry[2], True
        METRICS.counter("service.catalog_cache.misses").add(1)
        with self._lock:
            snapshot = self._round
            batch = (
                self._delta
                and not self._batched
                and snapshot is not None
                and snapshot.keys.get(center_id) == key
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
                self._entries[center_id] = (key, epsilon, catalog)
            return catalog, False
        with build_lock:
            with METRICS.timer("service.catalog_build_seconds"):
                if batch:
                    self._refresh_stale(snapshot, center_id, epsilon)
                with self._lock:
                    prebuilt = self._prebuilt.pop(center_id, None)
                if prebuilt is not None and prebuilt[:2] == (key, epsilon):
                    catalog = prebuilt[2]
                else:
                    (catalog,) = self._refresh([sub], epsilon)
            with self._lock:
                self._entries[center_id] = (key, epsilon, catalog)
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
                        snapshot.keys[cid],
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
                            snapshot.keys[cid],
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

        A center with a live delta catalog at ``epsilon`` refreshes it
        when the refresh is a ``delta`` or a ``noop``.  Every other center
        — cold builds and fallbacks — is built in one
        :func:`~repro.vdps.catalog.build_batch` call and installed into
        its delta catalog.
        """
        if not self._delta:
            return [build_catalog(sub, epsilon=epsilon) for sub in subs]
        catalogs: Dict[str, VDPSCatalog] = {}
        builds: List[Tuple[SubProblem, Optional[DeltaCatalog]]] = []
        for sub in subs:
            cid = sub.center.center_id
            with self._lock:
                delta = self._deltas.get(cid)
            if delta is not None and delta.epsilon != epsilon:
                delta = None
            if delta is not None:
                plan = delta.decide(sub)
                if plan[0] != "fallback":
                    catalogs[cid] = delta.refresh(sub, plan)
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
                    )
                else:
                    delta.adopt(sub, catalog, table)
                cid = sub.center.center_id
                with self._lock:
                    self._deltas[cid] = delta
                catalogs[cid] = catalog
        return [catalogs[sub.center.center_id] for sub in subs]

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
            self._prebuilt.pop(center_id, None)
        return had_entry or had_delta

    def clear(self) -> None:
        """Drop every entry (e.g. on an epsilon reconfiguration)."""
        with self._lock:
            self._entries.clear()
            self._deltas.clear()
            self._prebuilt.clear()
