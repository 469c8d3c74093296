"""Per-center strategy-catalog cache for the dispatch service.

Building the C-VDPS catalog (Algorithm 1 + Section IV validation) dominates
a round's cost, yet between two service rounds many centers are unchanged:
no new tasks landed, nobody's deadline moved, the same couriers are idle.
This cache keys each center's catalog by its snapshot key
``(center version, now)`` (see :mod:`repro.service.state`), at the one
pruning threshold it is made with, so a round only refreshes the centers
whose content actually changed.  :class:`~repro.service.state.WorldState`
bumps a center's version on every mutation that touches it — task
arrival, expiry or delivery at one of its points, a worker joining it or
taking a route — and a clock advance moves ``now``, which shifts every
relative deadline; either changes the key and invalidates the entry.  Keys are
minted per world: a cache serves the one world whose snapshots it is fed.

A changed key no longer means a from-scratch rebuild, though: in
delta mode (the default) each center keeps a
:class:`~repro.vdps.delta.DeltaCatalog` alive between rounds and a miss is
served by a refresh of it — state surgery over whatever actually churned,
with the rebuild fallback handled inside the delta layer.  Catalogs live
only in the running process: they are derived state of the world, and a
restarted service (or one recovered from its journal) rebuilds each
center's catalog on its first round.

A round's misses share one refresh.  The engine hands the cache its round
snapshot (:meth:`SnapshotCatalogCache.stage`); the round's first miss
then refreshes every stale center of the snapshot in one
:func:`~repro.vdps.delta.refresh_all` call, which runs every full build
(a cold build or a fallback) in one stacked
:func:`~repro.vdps.catalog.build_batch`.  Each stale center's own get then
takes its catalog, still counted as a miss.  A miss outside a staged
round is the same refresh over one center.  Hits, misses and everything a
get returns stay per center.

However a center was refreshed, a hit returns the *identical* catalog a
cold build would produce (equal keys imply equal sub-problems, which the
snapshot state machine in
``tests/properties/test_snapshot_incremental.py`` checks: its
``snapshot_equals_scratch`` invariant holds every snapshot against the
from-scratch :func:`repro.oracle.scratch_snapshot`, and its
``keys_imply_equal_content`` invariant holds every key to one content
hash; the delta layer's refresh is proven bit-identical to
``build_catalog`` by the differential suites), which is what makes
warm-cache service rounds bit-identical to cold-cache runs.  Hits and misses are recorded in :data:`repro.obs.METRICS`
under ``service.catalog_cache.*``; the delta layer's own activity lands on
:data:`~repro.obs.metrics.CATALOG_DELTA_METRICS`.

Delta catalogs mutate in place, so one non-blocking refresh lock guards
them.  The lock is only ever busy while an abandoned (timed-out) solve is
still refreshing: a miss that finds it busy builds its center on the side
with :func:`~repro.vdps.catalog.build_catalog` rather than wait.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.core.instance import SubProblem
from repro.obs.metrics import METRICS
from repro.vdps.catalog import VDPSCatalog, build_catalog
from repro.vdps.delta import DeltaCatalog, refresh_all


class SnapshotCatalogCache:
    """One catalog per center, valid while the center's snapshot key holds.

    Unlike :class:`repro.experiments.runner.CatalogCache` (which keys by
    ``(center, epsilon)`` for a *static* instance shared across algorithm
    arms), this cache serves a *mutating* world: the key includes the
    center's snapshot key, and a changed key evicts the stale entry.

    Parameters
    ----------
    epsilon:
        The pruning threshold of every catalog the cache builds (the
        engine's, fixed for its lifetime).
    delta:
        Serve misses by incrementally refreshing a per-center
        :class:`DeltaCatalog` instead of rebuilding from scratch.  Output
        is identical either way; ``False`` rebuilds on every miss (the
        control arm of the bit-identity tests).
    """

    def __init__(self, epsilon: Optional[float] = None, delta: bool = True) -> None:
        self._lock = threading.Lock()
        self._epsilon = epsilon
        self._entries: Dict[str, Tuple[Hashable, VDPSCatalog]] = {}
        self._delta = bool(delta)
        self._deltas: Dict[str, DeltaCatalog] = {}
        # Held by whichever get refreshes delta catalogs: an abandoned
        # (timed-out) solve may still be refreshing when the retry starts,
        # and a DeltaCatalog mutates in place during refresh.
        self._refresh_lock = threading.Lock()
        # The round's snapshot (see stage()), whether its refresh has run,
        # and the centers it refreshed that no get has taken yet.
        self._round = None
        self._batched = False
        self._prebuilt: Set[str] = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stage(self, snapshot) -> None:
        """Hand over the round's :class:`~repro.service.state.WorldSnapshot`.

        In delta mode the round's first miss then refreshes every stale
        center of ``snapshot`` in one :func:`~repro.vdps.delta.refresh_all`
        call, inside that :meth:`get_with_status` call; each center's own
        get later takes its catalog, still counted as a miss.  ``None``
        ends the round, and a refresh that finishes after its round ended
        marks no center of the next one.
        """
        with self._lock:
            self._round = snapshot
            self._batched = False
            self._prebuilt.clear()

    def get(self, sub: SubProblem, key: Hashable) -> VDPSCatalog:
        """The catalog for ``sub``, rebuilt only when its ``key`` changed.

        ``key`` is the center's :attr:`WorldSnapshot.keys` entry, or any
        value that changes whenever ``sub`` does.
        """
        return self.get_with_status(sub, key)[0]

    def get_with_status(
        self, sub: SubProblem, key: Hashable
    ) -> Tuple[VDPSCatalog, bool]:
        """Like :meth:`get`, also reporting whether it was a hit.

        The dispatch engine needs the distinction: injected
        cache-corruption only makes sense on a *hit* (a cold build is by
        definition fresh), and a corrupt entry must be invalidated so the
        retry's rebuild is clean.
        """
        center_id = sub.center.center_id
        with self._lock:
            cached = self._fresh(center_id, key)
            # Built by the round's refresh: this get is still its miss.
            hit = center_id not in self._prebuilt
            self._prebuilt.discard(center_id)
        if cached is not None:
            METRICS.counter(
                "service.catalog_cache.hits" if hit else "service.catalog_cache.misses"
            ).add(1)
            return cached, hit
        METRICS.counter("service.catalog_cache.misses").add(1)
        with METRICS.timer("service.catalog_build_seconds"):
            if self._delta and self._refresh_lock.acquire(blocking=False):
                try:
                    catalog = self._refresh(sub, key)
                finally:
                    self._refresh_lock.release()
            else:
                # Rebuild mode, or an abandoned refresh is still running:
                # build on the side rather than wait for it.
                catalog = build_catalog(sub, epsilon=self._epsilon)
        with self._lock:
            self._entries[center_id] = (key, catalog)
        return catalog, False

    def _fresh(self, center_id: str, key: Hashable) -> Optional[VDPSCatalog]:
        """The center's cached catalog if it holds for ``key`` (the caller
        holds ``_lock``)."""
        entry = self._entries.get(center_id)
        if entry is None or entry[0] != key:
            return None
        return entry[1]

    def _refresh(self, sub: SubProblem, key: Hashable) -> VDPSCatalog:
        """Refresh ``sub``'s delta catalog (the caller holds the refresh lock).

        The round's first refresh takes every stale center of the staged
        snapshot along and marks their entries prebuilt for their own
        gets — unless the round ended meanwhile (its solve timed out and
        was abandoned).  All of them go through one
        :func:`~repro.vdps.delta.refresh_all` call, with an unbuilt catalog
        for a center that has none yet.
        """
        center_id = sub.center.center_id
        with self._lock:
            snapshot = self._round
            subs = [sub]
            if (
                not self._batched
                and snapshot is not None
                and snapshot.keys.get(center_id) == key
            ):
                self._batched = True
                # A snapshot lists its centers in center-id order.
                subs = [
                    other
                    for other in snapshot.subproblems
                    if other.center.center_id == center_id
                    or self._fresh(
                        other.center.center_id, snapshot.keys[other.center.center_id]
                    )
                    is None
                ]
            deltas = []
            for other in subs:
                delta = self._deltas.get(other.center.center_id)
                if delta is None:
                    delta = DeltaCatalog.cold(other, self._epsilon)
                    self._deltas[other.center.center_id] = delta
                deltas.append(delta)
        catalogs = dict(
            zip([other.center.center_id for other in subs], refresh_all(deltas, subs))
        )
        with self._lock:
            if self._round is snapshot:
                for cid, catalog in catalogs.items():
                    if cid != center_id:
                        self._entries[cid] = (snapshot.keys[cid], catalog)
                        self._prebuilt.add(cid)
        return catalogs[center_id]

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
            self._prebuilt.discard(center_id)
        return had_entry or had_delta

    def clear(self) -> None:
        """Drop every entry and its delta state: each center's next get
        pays one full rebuild."""
        with self._lock:
            self._entries.clear()
            self._deltas.clear()
            self._prebuilt.clear()
