"""Tests for the bitmask conflict index (CatalogIndex / WorkerIndex) and
the GameState mask bookkeeping that rides on it."""

import numpy as np
import pytest

from repro import oracle
from repro.core.instance import SubProblem
from repro.core.routing import Route
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.games.base import GameState
from repro.vdps.catalog import WorkerStrategy, build_batch, build_catalog
from repro.vdps.delta import DeltaCatalog

from tests.conftest import (
    claimed_words,
    make_center,
    make_dp,
    make_worker,
    unit_speed_travel,
)


#: Each kernel arm's catalog build: the oracle's, and production's.
BUILDS = {"scalar": oracle.build_catalog, "vectorized": build_catalog}


def _strategy(point_ids, payoff=1.0):
    """A bare hand-built strategy (route details don't matter here)."""
    return WorkerStrategy(frozenset(point_ids), Route((), ()), payoff)


@pytest.fixture
def sub():
    center = make_center(
        [
            make_dp("a", 1, 0, n_tasks=2),
            make_dp("b", 2, 0, n_tasks=1),
            make_dp("c", 3, 0, n_tasks=3),
        ]
    )
    workers = (make_worker("w1", 0, 0), make_worker("w2", 0, 0))
    return SubProblem(center, workers, unit_speed_travel())


@pytest.fixture
def catalog(sub):
    return build_catalog(sub)


def _reference_index(catalog, sub):
    """The conflict index packed from frozensets, independently of the
    entry masks the catalog gathers: ``(point_bits, n_words, masks)``.

    Every delivery point of ``sub``'s center gets a bit in sorted-id
    order; each strategy's point set becomes one Python integer (the sum
    of its points' bit values), split into 64-bit words, lowest word
    first.
    """
    strategies = {
        w.worker_id: tuple(catalog.strategies(w.worker_id)) for w in catalog.workers
    }
    point_ids = sorted(dp.dp_id for dp in sub.center.delivery_points)
    point_bits = {dp_id: bit for bit, dp_id in enumerate(point_ids)}
    n_words = max(1, -(-len(point_ids) // 64))
    value = {dp_id: 1 << bit for dp_id, bit in point_bits.items()}
    full = (1 << 64) - 1
    masks = {}
    for wid, each in strategies.items():
        ints = [sum(map(value.__getitem__, s.point_ids)) for s in each]
        words = [(m >> shift) & full for m in ints for shift in range(0, 64 * n_words, 64)]
        masks[wid] = np.array(words, dtype=np.uint64).reshape(len(ints), n_words)
    return point_bits, n_words, masks


def _line_sub():
    """70 points in a row (bits past 63), a worker too far away for any
    deadline between two that share every subset."""
    points = [make_dp(f"p{i:02d}", 0.1 * (i + 1), 0.0) for i in range(70)]
    row_workers = (
        make_worker("near", 0, 0),
        make_worker("far", 500, 0),
        make_worker("twin", 0, 0),
    )
    return SubProblem(make_center(points), row_workers, unit_speed_travel())


def _line_catalog(epsilon=0.15):
    return build_catalog(_line_sub(), epsilon=epsilon)


def _oracle_catalogs(catalog, sub):
    """``(catalog, sub)`` plus the shapes the packed index must also get
    right, each with its sub-problem.

    * 70 points in a row, so strategies reach bits past 63 (two words);
    * a worker too far away to meet any deadline (zero strategies)
      between workers that share every subset;
    * the catalog a ``DeltaCatalog`` refresh returns after churn.
    """
    line = _line_sub()
    wide = build_catalog(line, epsilon=0.15)
    assert wide.index.n_words >= 2
    assert not wide.strategies("far") and wide.strategies("near")
    assert {s.point_ids for s in wide.strategies("near")} == {
        s.point_ids for s in wide.strategies("twin")
    }
    base = [
        make_dp(c, 1 + i, 0.5 * i, n_tasks=1 + i % 2) for i, c in enumerate("abcd")
    ]
    workers = (make_worker("w1", 0, 0), make_worker("w2", 1, 1, max_dp=2))
    delta = DeltaCatalog(
        SubProblem(make_center(base), workers, unit_speed_travel()),
        rebuild_fraction=10,
    )
    churned = base[1:] + [make_dp("e", 2.5, 0.5), make_dp("a", 1, 0, n_tasks=3)]
    churned_sub = SubProblem(make_center(churned), workers, unit_speed_travel())
    refreshed = delta.refresh(churned_sub)
    assert delta._last_path == "delta"
    return [(catalog, sub), (wide, line), (refreshed, churned_sub)]


class TestCatalogIndex:
    def test_bits_assigned_in_sorted_id_order(self):
        center = make_center(
            [make_dp("z", 1, 0), make_dp("a", 0, 1), make_dp("m", 1, 1)]
        )
        catalog = build_catalog(
            SubProblem(center, (make_worker("w", 0, 0),), unit_speed_travel())
        )
        index = catalog.index
        assert index.point_bits == {"a": 0, "m": 1, "z": 2}
        assert index.n_words == 1
        for row, s in enumerate(catalog.strategies("w")):
            expected = sum(1 << index.point_bits[p] for p in s.point_ids)
            assert int(index.worker("w").masks[row, 0]) == expected

    def test_empty_catalog_still_has_one_word(self):
        center = make_center([make_dp("a", 1, 0)])
        catalog = build_catalog(
            SubProblem(center, (make_worker("w", 500, 0),), unit_speed_travel())
        )
        assert not catalog.strategies("w")
        index = catalog.index
        assert index.point_bits == {"a": 0}
        assert index.n_words == 1
        assert index.empty_mask().shape == (1,)
        assert index.worker("w").n_strategies == 0
        assert index.worker("w").masks.shape == (0, 1)

    def test_masks_align_with_strategy_positions(self, catalog, sub):
        for each, _ in _oracle_catalogs(catalog, sub):
            index = each.index
            for worker in each.workers:
                wi = index.worker(worker.worker_id)
                strategies = each.strategies(worker.worker_id)
                assert wi.n_strategies == len(strategies)
                assert wi.masks.dtype == np.uint64
                assert wi.masks.shape == (len(strategies), index.n_words)
                assert wi.payoffs.dtype == np.float64
                for row, strategy in enumerate(strategies):
                    assert np.array_equal(
                        wi.masks[row], index.mask_of(strategy.point_ids)
                    )
                    assert wi.payoffs[row] == strategy.payoff

    def test_size1_positions_in_catalog_order(self, catalog, sub):
        for each, _ in _oracle_catalogs(catalog, sub):
            for worker in each.workers:
                wi = each.index.worker(worker.worker_id)
                expected = [
                    row
                    for row, s in enumerate(each.strategies(worker.worker_id))
                    if s.size == 1
                ]
                assert wi.size1.dtype == np.intp
                assert wi.size1.tolist() == expected

    def test_unknown_worker_raises(self, catalog):
        with pytest.raises(KeyError, match="nope"):
            catalog.index.worker("nope")

    def test_mask_of_unknown_point_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.index.mask_of({"not-a-dp"})

    def test_index_is_built_lazily_and_cached(self, catalog):
        assert catalog._index is None  # no game solver has touched it yet
        first = catalog.index
        assert catalog.index is first

    def test_multiword_masks_beyond_64_points(self):
        # 70 points force a second uint64 word; conflicts crossing the
        # word boundary must still be detected.
        catalog = _line_catalog()
        index = catalog.index
        assert index.n_words == 2
        ids = sorted(index.point_bits)
        strategies = catalog.strategies("near")
        wi = index.worker("near")
        for claimed_ids in (ids[65:], ids[63:65], ids[:1]):
            expected = [
                row
                for row, s in enumerate(strategies)
                if not s.conflicts_with(claimed_ids)
            ]
            assert 0 < len(expected) < len(strategies)
            assert wi.available(index.mask_of(claimed_ids)).tolist() == expected
        # A strategy straddling the word boundary conflicts through either word.
        straddle = next(
            row
            for row, s in enumerate(strategies)
            if {ids[63], ids[64]} <= s.point_ids
        )
        for claimed_ids in (ids[63:64], ids[64:65]):
            available = wi.available(index.mask_of(claimed_ids)).tolist()
            assert straddle not in available
        assert wi.available(index.empty_mask()).tolist() == list(
            range(len(strategies))
        )


class TestReferenceIndex:
    """The gathered index equals the frozenset packer."""

    @staticmethod
    def _assert_matches_reference(catalog, sub):
        point_bits, n_words, masks = _reference_index(catalog, sub)
        index = catalog.index
        assert index.point_bits == point_bits
        assert index.n_words == n_words
        for worker in catalog.workers:
            wid = worker.worker_id
            wi = index.worker(wid)
            assert wi.masks.dtype == np.uint64
            assert np.array_equal(wi.masks, masks[wid])
            strategies = catalog.strategies(wid)
            assert wi.size1.tolist() == [
                row for row, s in enumerate(strategies) if s.size == 1
            ]
            assert wi.payoffs.tolist() == [s.payoff for s in strategies]

    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gmission_centers_match_reference(self, kernel, seed):
        # 80 points (two words), of which only some are used.
        inst = generate_gmission_like(
            GMissionConfig(n_tasks=120, n_workers=12, n_delivery_points=80),
            seed=seed,
        )
        sub = inst.subproblems()[0]
        catalog = BUILDS[kernel](sub, epsilon=0.8)
        assert catalog.total_strategy_count
        self._assert_matches_reference(catalog, sub)

    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    def test_multiword_gmission_center_matches_reference(self, kernel):
        inst = generate_gmission_like(
            GMissionConfig(
                n_tasks=200,
                n_workers=20,
                n_delivery_points=100,
                space_km=3.0,
                expiry_min_hours=0.8,
                expiry_max_hours=1.5,
                max_delivery_points=2,
            ),
            seed=0,
        )
        sub = inst.subproblems()[0]
        catalog = BUILDS[kernel](sub, epsilon=0.5)
        assert catalog.index.n_words >= 2
        self._assert_matches_reference(catalog, sub)

    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    def test_points_without_a_kept_strategy_keep_their_bit(self, kernel):
        # "a" is a C-VDPS on its own (reachable from the center in time),
        # but no worker, all starting 1 km out, meets its deadline: no
        # strategy uses it, yet the index's bit space is the center's
        # points, so it keeps bit 0 and the others follow it.
        center = make_center(
            [
                make_dp("a", 1, 0, expiry=1.5),
                make_dp("b", 0, 1),
                make_dp("c", 0, 2),
            ]
        )
        workers = (make_worker("w1", -1, 0), make_worker("w2", 0, -1))
        sub = SubProblem(center, workers, unit_speed_travel())
        catalog = BUILDS[kernel](sub)
        assert any("a" in entry.point_ids for entry in catalog.arrays.entries)
        assert not any(
            "a" in s.point_ids
            for w in workers
            for s in catalog.strategies(w.worker_id)
        )
        assert catalog.index.point_bits == {"a": 0, "b": 1, "c": 2}
        self._assert_matches_reference(catalog, sub)

    def test_oracle_catalogs_match_reference(self, catalog, sub):
        for each, each_sub in _oracle_catalogs(catalog, sub):
            self._assert_matches_reference(each, each_sub)


class TestOneTable:
    """Each worker's strategy columns and index masks are views of its
    catalog's one owner-major table, never per-worker copies."""

    @staticmethod
    def _assert_views(catalog):
        table, index = catalog.table, catalog.index
        assert index.masks.shape == (table.rows.size, index.n_words)
        served = [
            w.worker_id
            for w in catalog.workers
            if catalog.has_strategies(w.worker_id)
        ]
        assert served
        for wid in served:
            strategies = catalog.strategies(wid)
            assert np.shares_memory(strategies.rows, table.rows)
            assert np.shares_memory(strategies.payoffs, table.payoffs)
            assert np.shares_memory(index.worker(wid).masks, index.masks)

    def test_after_a_batch_build(self, sub):
        catalogs = [catalog for catalog, _ in build_batch([sub, _line_sub()], 0.15)]
        for catalog in catalogs:
            self._assert_views(catalog)

    def test_after_a_delta_refresh(self, catalog, sub):
        ((refreshed, _),) = _oracle_catalogs(catalog, sub)[2:]
        self._assert_views(refreshed)


class TestAvailabilityEquivalence:
    def test_available_matches_conflicts_with_filter(self, catalog):
        index = catalog.index
        for claimed_ids in ({}, {"a"}, {"a", "b"}, {"a", "b", "c"}):
            claimed = index.mask_of(claimed_ids)
            for wid in ("w1", "w2"):
                strategies = catalog.strategies(wid)
                expected = [
                    row
                    for row, s in enumerate(strategies)
                    if not s.conflicts_with(claimed_ids)
                ]
                assert index.worker(wid).available(claimed).tolist() == expected


class TestGameStateMasks:
    def test_switch_releases_old_bits(self, catalog):
        state = GameState(catalog)
        index = catalog.index
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        s_b = next(s for s in catalog.strategies("w1") if s.point_ids == {"b"})
        state.set_strategy("w1", s_a)
        assert np.array_equal(claimed_words(state), index.mask_of({"a"}))
        state.set_strategy("w1", s_b)
        assert np.array_equal(claimed_words(state), index.mask_of({"b"}))

    def test_claimed_words_except_excludes_own_bits(self, catalog):
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        s_b = next(s for s in catalog.strategies("w2") if s.point_ids == {"b"})
        state.set_strategy("w1", s_a)
        state.set_strategy("w2", s_b)
        index = catalog.index
        assert np.array_equal(
            claimed_words(state, "w1"), index.mask_of({"b"})
        )
        assert np.array_equal(
            claimed_words(state, "w2"), index.mask_of({"a"})
        )

    def test_indices_match_available_strategies(self, catalog):
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        state.set_strategy("w1", s_a)
        for wid in ("w1", "w2"):
            strategies = catalog.strategies(wid)
            by_scan = oracle.available_strategies(state, wid)
            by_index = [
                strategies[i] for i in state.available_strategy_indices(wid)
            ]
            assert by_index == by_scan
            assert state.available_strategies(wid) == by_scan

    def test_foreign_strategy_on_a_fresh_state_is_rejected(self, catalog):
        # The first claim of a state reads the index; an unknown point is
        # refused there too, before anything changes.
        state = GameState(catalog)
        with pytest.raises(ValueError, match="ghost-dp"):
            state.set_strategy("w1", _strategy({"ghost-dp"}, payoff=9.0))
        assert state.strategy_of("w1").is_null
        assert not claimed_words(state).any()
        for wid in ("w1", "w2"):
            assert state.available_strategies(wid) == list(catalog.strategies(wid))

    def test_foreign_strategy_is_rejected(self, catalog):
        # A hand-built strategy over a point outside the center has no
        # mask: set_strategy refuses it and leaves the state as it
        # was, so availability stays correct.
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w2") if s.point_ids == {"a"})
        state.set_strategy("w2", s_a)
        words = claimed_words(state)
        with pytest.raises(ValueError, match="ghost-dp"):
            state.set_strategy("w1", _strategy({"ghost-dp"}, payoff=9.0))
        assert state.strategy_of("w1").is_null
        assert state.strategy_of("w2") is s_a
        assert np.array_equal(claimed_words(state), words)
        for wid in ("w1", "w2"):
            strategies = catalog.strategies(wid)
            by_scan = oracle.available_strategies(state, wid)
            by_index = [
                strategies[i] for i in state.available_strategy_indices(wid)
            ]
            assert by_index == by_scan
