"""Tests for the bitmask conflict index (CatalogIndex / WorkerIndex) and
the GameState mask bookkeeping that rides on it."""

import numpy as np
import pytest

from repro.core.instance import SubProblem
from repro.core.routing import Route
from repro.games.base import GameState
from repro.vdps.catalog import (
    CatalogIndex,
    WorkerStrategy,
    build_catalog,
)
from repro.vdps.delta import DeltaCatalog

from tests.conftest import make_center, make_dp, make_worker, unit_speed_travel


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


def _oracle_catalogs(catalog):
    """``catalog`` plus the shapes the packed index must also get right.

    * 70 points in a row, so strategies reach bits past 63 (two words);
    * a worker too far away to meet any deadline (zero strategies)
      between workers that share every subset;
    * the catalog a ``DeltaCatalog`` refresh returns after churn.
    """
    points = [make_dp(f"p{i:02d}", 0.1 * (i + 1), 0.0) for i in range(70)]
    row_workers = (
        make_worker("near", 0, 0),
        make_worker("far", 500, 0),
        make_worker("twin", 0, 0),
    )
    row = SubProblem(make_center(points), row_workers, unit_speed_travel())
    wide = build_catalog(row, epsilon=0.15)
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
    refreshed = delta.refresh(
        SubProblem(make_center(churned), workers, unit_speed_travel())
    )
    assert delta._last_path == "delta"
    return [catalog, wide, refreshed]


class TestCatalogIndex:
    def test_bits_assigned_in_sorted_id_order(self):
        index = CatalogIndex(
            {"w": (_strategy({"z"}), _strategy({"a", "m"}))}
        )
        assert index.point_bits == {"a": 0, "m": 1, "z": 2}
        assert index.n_words == 1

    def test_empty_catalog_still_has_one_word(self):
        index = CatalogIndex({"w": ()})
        assert index.n_words == 1
        assert index.empty_mask().shape == (1,)
        assert index.worker("w").n_strategies == 0

    def test_masks_align_with_strategy_positions(self, catalog):
        for each in _oracle_catalogs(catalog):
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

    def test_size1_positions_in_catalog_order(self, catalog):
        for each in _oracle_catalogs(catalog):
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
        ids = [f"dp{i:03d}" for i in range(70)]
        index = CatalogIndex(
            {
                "w": (
                    _strategy(ids[:40]),  # bits 0-39, word 0
                    _strategy(ids[40:]),  # bits 40-69, spans both words
                    _strategy(ids[68:69]),  # bit 68, word 1 only
                )
            }
        )
        assert index.n_words == 2
        wi = index.worker("w")
        # Claim the high points: the two strategies touching them conflict.
        claimed = index.mask_of(ids[65:])
        assert wi.available(claimed).tolist() == [0]
        # Claim a low point: only the first strategy conflicts.
        claimed = index.mask_of(ids[:1])
        assert wi.available(claimed).tolist() == [1, 2]
        assert wi.available(index.empty_mask()).tolist() == [0, 1, 2]


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
        assert np.array_equal(state._claimed_words, index.mask_of({"a"}))
        state.set_strategy("w1", s_b)
        assert np.array_equal(state._claimed_words, index.mask_of({"b"}))

    def test_claimed_words_except_excludes_own_bits(self, catalog):
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        s_b = next(s for s in catalog.strategies("w2") if s.point_ids == {"b"})
        state.set_strategy("w1", s_a)
        state.set_strategy("w2", s_b)
        index = catalog.index
        assert np.array_equal(
            state.claimed_words_except("w1"), index.mask_of({"b"})
        )
        assert np.array_equal(
            state.claimed_words_except("w2"), index.mask_of({"a"})
        )

    def test_indices_match_available_strategies(self, catalog):
        state = GameState(catalog)
        s_a = next(s for s in catalog.strategies("w1") if s.point_ids == {"a"})
        state.set_strategy("w1", s_a)
        for wid in ("w1", "w2"):
            strategies = catalog.strategies(wid)
            by_scan = state.available_strategies(wid)
            by_index = [
                strategies[i] for i in state.available_strategy_indices(wid)
            ]
            assert by_index == by_scan

    def test_foreign_strategy_degrades_to_dict_path(self, catalog):
        # A hand-built strategy over a point unknown to the catalog poisons
        # the mask mirror; availability must then fall back to the
        # authoritative dict bookkeeping and stay correct.
        state = GameState(catalog)
        foreign = _strategy({"ghost-dp"}, payoff=9.0)
        state.set_strategy("w1", foreign)
        assert not state._masks_exact
        s_a = next(s for s in catalog.strategies("w2") if s.point_ids == {"a"})
        state.set_strategy("w2", s_a)
        for wid in ("w1", "w2"):
            strategies = catalog.strategies(wid)
            by_scan = state.available_strategies(wid)
            by_index = [
                strategies[i] for i in state.available_strategy_indices(wid)
            ]
            assert by_index == by_scan
