"""Tests for repro.vdps.catalog (per-worker strategy spaces)."""

import dataclasses
import sys
import threading

import pytest

from repro.core.instance import SubProblem
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.games.base import random_initial_state
from repro.games.fgt import FGTSolver
from repro.geo.travel import TravelModel
from repro.obs.metrics import METRICS
from repro.oracle import available, brute_force_best_route
from repro.oracle import build_catalog as oracle_build_catalog
from repro.vdps.catalog import NULL_STRATEGY, WorkerStrategy, build_catalog

from tests.conftest import make_center, make_dp, make_worker, unit_speed_travel


def _line_subproblem(workers):
    center = make_center(
        [
            make_dp("a", 1, 0, n_tasks=2, expiry=10.0),
            make_dp("b", 2, 0, n_tasks=1, expiry=10.0),
            make_dp("c", 3, 0, n_tasks=3, expiry=10.0),
        ]
    )
    return SubProblem(center, tuple(workers), unit_speed_travel())


class TestNullStrategy:
    def test_null_properties(self):
        assert NULL_STRATEGY.is_null
        assert NULL_STRATEGY.size == 0
        assert NULL_STRATEGY.payoff == 0.0
        assert not NULL_STRATEGY.conflicts_with({"a", "b"})


class TestBuildCatalog:
    def test_all_subsets_for_colocated_worker(self):
        sub = _line_subproblem([make_worker("w", 0, 0)])
        catalog = build_catalog(sub)
        # Worker at the center: all 7 C-VDPSs remain valid.
        assert len(catalog.strategies("w")) == 7
        assert catalog.cvdps_count == 7

    def test_maxdp_filters_sizes(self):
        sub = _line_subproblem([make_worker("w", 0, 0, max_dp=1)])
        catalog = build_catalog(sub)
        assert all(s.size == 1 for s in catalog.strategies("w"))
        assert len(catalog.strategies("w")) == 3

    def test_offset_invalidates_far_worker(self):
        # Worker 9 km from the center: even the nearest point (arrival 10)
        # violates every expiry of 10 - epsilon.
        center = make_center([make_dp("a", 1, 0, expiry=9.5)])
        sub = SubProblem(center, (make_worker("w", -9, 0),), unit_speed_travel())
        catalog = build_catalog(sub)
        assert catalog.strategies("w") == ()
        assert not catalog.has_strategies("w")

    def test_payoffs_include_offset(self):
        # Worker 1 km behind the center: payoff = reward / (1 + arrival).
        sub = _line_subproblem([make_worker("w", -1, 0)])
        catalog = build_catalog(sub)
        singleton_a = next(
            s for s in catalog.strategies("w") if s.point_ids == {"a"}
        )
        assert singleton_a.payoff == pytest.approx(2.0 / 2.0)
        assert singleton_a.route.arrival_times[0] == pytest.approx(2.0)

    def test_strategies_sorted_by_payoff(self):
        sub = _line_subproblem([make_worker("w", 0, 0)])
        payoffs = [s.payoff for s in build_catalog(sub).strategies("w")]
        assert payoffs == sorted(payoffs, reverse=True)

    def test_unknown_worker_raises(self):
        catalog = build_catalog(_line_subproblem([make_worker("w", 0, 0)]))
        with pytest.raises(KeyError, match="ghost"):
            catalog.strategies("ghost")

    def test_offline_workers_excluded(self):
        online = make_worker("on", 0, 0)
        offline = make_worker("off", 0, 0).offline()
        catalog = build_catalog(_line_subproblem([online, offline]))
        assert [w.worker_id for w in catalog.workers] == ["on"]

    def test_validation_delays_the_recorded_order(self):
        # From the center the minimal-time order of {a, b} is (a, b) with b
        # reached at 1.306 < 1.4; with a 0.15 start offset that order misses
        # b's deadline (1.456 > 1.4) while (b, a) still makes it (b at
        # 1.15).  Section IV delays the recorded order alone, so the set is
        # not the worker's VDPS.
        center = make_center(
            [
                make_dp("a", 0.5, 0.0, expiry=10.0),
                make_dp("b", 0.6, 0.8, expiry=1.4),
            ]
        )
        worker = make_worker("w", -0.15, 0)  # offset 0.15
        travel = unit_speed_travel()
        sub = SubProblem(center, (worker,), travel)
        sets = {s.point_ids for s in build_catalog(sub).strategies("w")}
        assert frozenset({"a", "b"}) not in sets
        assert brute_force_best_route(
            center.location, center.delivery_points, travel, 0.15
        ) is not None


class TestCatalogQueries:
    def test_available_excludes_conflicts(self):
        catalog = build_catalog(_line_subproblem([make_worker("w", 0, 0)]))
        index = catalog.index
        strategies = catalog.strategies("w")
        positions = index.worker("w").available(index.mask_of({"b"}))
        free = [strategies[i] for i in positions]
        assert free == available(catalog, "w", claimed={"b"})
        assert all("b" not in s.point_ids for s in free)
        assert {s.point_ids for s in free} == {
            frozenset({"a"}),
            frozenset({"c"}),
            frozenset({"a", "c"}),
        }

    def test_available_with_no_claims(self):
        catalog = build_catalog(_line_subproblem([make_worker("w", 0, 0)]))
        index = catalog.index
        assert len(index.worker("w").available(index.empty_mask())) == 7
        assert len(available(catalog, "w", claimed=())) == 7

    def test_max_vdps_size(self):
        catalog = build_catalog(_line_subproblem([make_worker("w", 0, 0)]))
        assert catalog.max_vdps_size == 3

    def test_total_strategy_count(self):
        catalog = build_catalog(
            _line_subproblem([make_worker("w1", 0, 0), make_worker("w2", 0, 0)])
        )
        assert catalog.total_strategy_count == 14

    def test_describe(self):
        catalog = build_catalog(
            _line_subproblem([make_worker("w", 0, 0)]), epsilon=2.5
        )
        assert "eps=2.5" in catalog.describe()


def _gmission_sub(seed=1):
    inst = generate_gmission_like(
        GMissionConfig(n_tasks=120, n_workers=12, n_delivery_points=80), seed=seed
    )
    return inst.subproblems()[0]


class TestLazyStrategies:
    """Columnar catalogs build objects only for what is read."""

    def test_fgt_materialises_only_initial_picks_and_switches(self):
        sub = _gmission_sub()
        built = METRICS.counter("catalog.strategies_built")
        materialised = METRICS.counter("catalog.strategies_materialised")
        switches = METRICS.counter("fgt.switches")
        before_built = built.value
        catalog = build_catalog(sub, epsilon=0.8)
        n_built = built.value - before_built
        initial = random_initial_state(build_catalog(sub, epsilon=0.8), seed=7)
        picks = sum(
            not initial.strategy_of(w.worker_id).is_null for w in catalog.workers
        )
        before_materialised, before_switches = materialised.value, switches.value
        FGTSolver(epsilon=0.8).solve(sub, catalog=catalog, seed=7)
        n_materialised = materialised.value - before_materialised
        n_switches = switches.value - before_switches
        assert picks and n_switches
        assert n_materialised <= picks + n_switches
        assert n_materialised < catalog.total_strategy_count
        # strategies_built counts validated strategies, not objects.
        walk = sum(len(tuple(catalog.strategies(w.worker_id))) for w in catalog.workers)
        assert n_built == walk == catalog.total_strategy_count

    def test_positions_are_cached_and_equal_the_scalar_tier(self):
        # The oracle's build holds the validate_entry loop's objects.
        sub = _gmission_sub()
        lazy = build_catalog(sub, epsilon=0.8)
        exact = oracle_build_catalog(sub, epsilon=0.8)
        for worker in sub.online_workers:
            wid = worker.worker_id
            strategies = lazy.strategies(wid)
            for pos in range(len(strategies) - 1, -1, -7):
                first = strategies[pos]
                assert strategies[pos] is first
                assert first == exact.strategies(wid)[pos]
            # The batched walk reuses the objects built one at a time.
            assert all(
                strategies[pos] is s for pos, s in enumerate(tuple(strategies))
            )
            assert strategies == exact.strategies(wid)

    def test_picks_indexing_and_iteration_share_one_object(self):
        # picks, strategies(wid)[pos] and iteration all read the table's
        # one object cache: whichever reads a position first builds it,
        # the others return that object, and each position counts once.
        sub = _gmission_sub()
        catalog = build_catalog(sub, epsilon=0.8)
        exact = oracle_build_catalog(sub, epsilon=0.8)
        wids = [w.worker_id for w in catalog.workers]
        positions = [len(catalog.strategies(wid)) // 2 - 1 for wid in wids]
        assert any(pos < 0 for pos in positions)
        materialised = METRICS.counter("catalog.strategies_materialised")
        before = materialised.value
        picked = catalog.picks(positions)
        assert materialised.value - before == sum(pos >= 0 for pos in positions)
        for wid, pos, pick in zip(wids, positions, picked):
            walk = tuple(catalog.strategies(wid))
            if pos < 0:
                assert pick is NULL_STRATEGY
                continue
            assert pick == exact.strategies(wid)[pos]
            assert catalog.strategies(wid)[pos] is pick
            assert walk[pos] is pick
        assert materialised.value - before == catalog.total_strategy_count
        assert all(a is b for a, b in zip(catalog.picks(positions), picked))
        assert materialised.value - before == catalog.total_strategy_count

    def test_concurrent_reads_return_identical_objects(self):
        # More threads than cores, a short switch interval, and each
        # thread walking the positions in its own order: a racing first
        # build must still leave one object per position, counted once.
        sub = _gmission_sub()
        catalog = build_catalog(sub, epsilon=0.8)
        wid = max(
            (w.worker_id for w in catalog.workers),
            key=lambda w: len(catalog.strategies(w)),
        )
        n = len(catalog.strategies(wid))
        assert n > 10
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        seen = [None] * n_threads
        materialised = METRICS.counter("catalog.strategies_materialised")
        before = materialised.value

        def read(k):
            barrier.wait()
            order = list(range(n))[k % 2 :: 2] + list(range(n))[1 - k % 2 :: 2]
            if k >= 2:
                order.reverse()
            got = {pos: catalog.strategies(wid)[pos] for pos in order}
            seen[k] = [got[pos] for pos in range(n)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(k,)) for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert materialised.value - before == n
        for other in seen[1:]:
            assert other == seen[0]
            assert all(a is b for a, b in zip(seen[0], other))
        assert all(a is b for a, b in zip(seen[0], catalog.strategies(wid)))

    def test_scalar_columns_never_build_from_rows(self):
        # The validate_entry loop (speed-scaled workers) re-times routes a
        # row's unit-speed times cannot describe, so its columns hold the
        # loop's objects and every read returns one of those.
        sub = _gmission_sub()
        fast = tuple(
            dataclasses.replace(w, speed_kmh=1.5 * sub.travel.speed_kmh)
            for w in sub.workers
        )
        catalog = build_catalog(
            SubProblem(sub.center, fast, sub.travel), epsilon=0.8
        )
        wid = max(
            (w.worker_id for w in catalog.workers),
            key=lambda w: len(catalog.strategies(w)),
        )
        strategies = catalog.strategies(wid)
        objects = tuple(strategies)
        materialised = METRICS.counter("catalog.strategies_materialised")
        before = materialised.value
        assert strategies[-1] is objects[-1]
        assert all(strategies[pos] is s for pos, s in enumerate(objects))
        assert materialised.value == before
        # The loop's objects pre-fill the table's one cache at the
        # worker's own positions.
        cache = catalog.table.objects
        assert all(
            cache[strategies.start + pos] is s for pos, s in enumerate(objects)
        )
        with pytest.raises(IndexError):
            strategies[len(objects)]
