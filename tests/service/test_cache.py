"""Tests for repro.service.cache (snapshot-keyed catalog caching)."""

from repro.obs.metrics import METRICS
from repro.service.cache import SnapshotCatalogCache
from repro.vdps.catalog import build_catalog
from repro.vdps.delta import catalog_diff

from tests.service.conftest import make_world, task


def _sub(state, center_id):
    snap = state.snapshot()
    (sub,) = [s for s in snap.subproblems if s.center.center_id == center_id]
    return sub, snap.keys[center_id]


def _counters():
    return (
        METRICS.counter("service.catalog_cache.hits").value,
        METRICS.counter("service.catalog_cache.misses").value,
    )


class TestSnapshotCatalogCache:
    def test_same_fingerprint_hits_with_identical_catalog(self):
        state = make_world()
        sub, key = _sub(state, "A")
        cache = SnapshotCatalogCache()
        hits0, misses0 = _counters()
        cold = cache.get(sub, key)
        warm = cache.get(sub, key)
        assert warm is cold  # the identical object, not a rebuild
        hits1, misses1 = _counters()
        assert (hits1 - hits0, misses1 - misses0) == (1, 1)
        assert len(cache) == 1

    def test_changed_fingerprint_rebuilds(self):
        state = make_world()
        sub, key = _sub(state, "A")
        cache = SnapshotCatalogCache()
        cold = cache.get(sub, key)
        state.add_tasks([task("extra", "a1", 1.3)])
        sub2, key2 = _sub(state, "A")
        assert key2 != key
        rebuilt = cache.get(sub2, key2)
        assert rebuilt is not cold
        assert len(cache) == 1  # the stale entry was replaced

    def test_builds_at_its_epsilon(self):
        # The threshold is the cache's: each cache builds (cold, then by
        # delta refresh) exactly what build_catalog does at its epsilon.
        state = make_world()
        sub, key = _sub(state, "A")
        for epsilon in (None, 0.8):
            cache = SnapshotCatalogCache(epsilon)
            assert not catalog_diff(
                cache.get(sub, key), build_catalog(sub, epsilon=epsilon)
            )
            state.add_tasks([task(f"extra{epsilon}", "a1", 1.3)])
            sub, key = _sub(state, "A")
            refreshed = cache.get(sub, key)
            assert refreshed.epsilon == epsilon
            assert not catalog_diff(refreshed, build_catalog(sub, epsilon=epsilon))

    def test_hit_catalog_matches_cold_build(self):
        # The fidelity claim: a hit serves exactly what a cold build yields.
        state = make_world()
        sub, key = _sub(state, "B")
        cache = SnapshotCatalogCache(0.8)
        cache.get(sub, key)
        hit = cache.get(sub, key)
        fresh = build_catalog(sub, epsilon=0.8)
        assert hit.total_strategy_count == fresh.total_strategy_count
        for worker in sub.workers:
            hit_strats = hit.strategies(worker.worker_id)
            fresh_strats = fresh.strategies(worker.worker_id)
            assert [str(s) for s in hit_strats] == [str(s) for s in fresh_strats]

    def test_invalidate_and_clear(self):
        state = make_world()
        sub, key = _sub(state, "A")
        cache = SnapshotCatalogCache()
        cache.get(sub, key)
        assert cache.invalidate("A") is True
        assert cache.invalidate("A") is False
        cache.get(sub, key)
        cache.clear()
        assert len(cache) == 0

    def test_build_time_recorded(self):
        state = make_world()
        sub, key = _sub(state, "A")
        before = METRICS.histogram("service.catalog_build_seconds").count
        SnapshotCatalogCache().get(sub, key)
        assert METRICS.histogram("service.catalog_build_seconds").count == before + 1
