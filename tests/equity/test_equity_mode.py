"""Equity-mode solver tests: engine bit-identity, teeth, and verification.

The ledger-weighted equity mode (``docs/temporal_fairness.md``) promises

* the solvers stay elementwise bit-identical to the oracle's scalar
  rounds (:mod:`repro.oracle`) with a cumulative base attached (the same
  contract the plain game carries),
* the mode has *teeth*: a worker far ahead on cumulative payoff yields
  work to cumulative-poor peers, changing the equilibrium, and
* the invariant verifiers certify equity solves (effective-payoff Nash
  check for FGT, effective-average replicator sign for IEGT) without the
  now-inapplicable Lemma 2 monotone-potential check firing.
"""

import numpy as np
import pytest

from repro.core.fairness import (
    InequityAversion,
    equity_model,
    ledger_weighted_utilities,
)
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.games.fgt import FGTSolver
from repro.games.iegt import IEGTSolver
from repro.games.potential import is_pure_nash
from repro.oracle import ScalarFGTSolver, ScalarIEGTSolver
from repro.vdps.catalog import build_catalog

SEEDS = [0, 1, 2, 7, 13, 42]


def _subs_and_catalogs(seed):
    instance = generate_gmission_like(
        GMissionConfig(n_tasks=70, n_workers=9, n_delivery_points=16),
        seed=seed,
    )
    subs = list(instance.subproblems())
    catalogs = {
        sub.center.center_id: build_catalog(sub, epsilon=0.8) for sub in subs
    }
    return subs, catalogs


def _baselines(sub, spread=25.0):
    """Deterministic skewed cumulative baselines over the sub's workers."""
    return {
        w.worker_id: spread * (i % 4)
        for i, w in enumerate(sub.online_workers)
    }


def _outcome(result):
    return {
        "routes": [
            (pair.worker.worker_id, pair.delivery_point_ids, pair.payoff)
            for pair in result.assignment.pairs
        ],
        "rounds": result.rounds,
        "converged": result.converged,
        "trace": [
            (
                point.round_index,
                point.payoff_difference,
                point.average_payoff,
                point.switches,
                point.potential,
            )
            for point in result.trace
        ],
    }


#: Each engine arm's solver classes: (FGT, IEGT).
ENGINES = {
    "scalar": (ScalarFGTSolver, ScalarIEGTSolver),
    "vectorized": (FGTSolver, IEGTSolver),
}


def _assert_engines_identical(make_solver, seed):
    subs, catalogs = _subs_and_catalogs(seed)
    assert subs
    for sub in subs:
        catalog = catalogs[sub.center.center_id]
        results = {
            engine: make_solver(engine, sub).solve(
                sub, catalog=catalog, seed=seed
            )
            for engine in ("scalar", "vectorized")
        }
        assert _outcome(results["scalar"]) == _outcome(results["vectorized"])


class TestEquityEngineDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fgt_equity(self, seed):
        _assert_engines_identical(
            lambda engine, sub: ENGINES[engine][0](
                epsilon=0.8,
                equity_mode=True,
                equity_baselines=_baselines(sub),
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_iegt_equity(self, seed):
        _assert_engines_identical(
            lambda engine, sub: ENGINES[engine][1](
                epsilon=0.8,
                equity_mode=True,
                equity_baselines=_baselines(sub),
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_fgt_equity_verified(self, seed):
        _assert_engines_identical(
            lambda engine, sub: ENGINES[engine][0](
                epsilon=0.8,
                equity_mode=True,
                equity_baselines=_baselines(sub),
                verify=True,
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_iegt_equity_verified(self, seed):
        _assert_engines_identical(
            lambda engine, sub: ENGINES[engine][1](
                epsilon=0.8,
                equity_mode=True,
                equity_baselines=_baselines(sub),
                verify=True,
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_fgt_equity_update_trace(self, seed):
        _assert_engines_identical(
            lambda engine, sub: ENGINES[engine][0](
                epsilon=0.8,
                equity_mode=True,
                equity_baselines=_baselines(sub),
                trace_granularity="update",
            ),
            seed,
        )


class TestEquityTeeth:
    """A skewed cumulative base must actually change who gets the work."""

    def _payoff_by_worker(self, result):
        return {
            pair.worker.worker_id: pair.payoff
            for pair in result.assignment.pairs
        }

    def test_fgt_equity_redistributes(self):
        changed = 0
        favoured = 0
        comparisons = 0
        for seed in SEEDS:
            subs, catalogs = _subs_and_catalogs(seed)
            for sub in subs:
                if len(sub.online_workers) < 3:
                    continue
                catalog = catalogs[sub.center.center_id]
                baselines = _baselines(sub, spread=40.0)
                plain = FGTSolver(epsilon=0.8).solve(
                    sub, catalog=catalog, seed=seed
                )
                equity = FGTSolver(
                    epsilon=0.8,
                    equity_mode=True,
                    equity_baselines=baselines,
                ).solve(sub, catalog=catalog, seed=seed)
                comparisons += 1
                p_plain = self._payoff_by_worker(plain)
                p_equity = self._payoff_by_worker(equity)
                if p_plain != p_equity:
                    changed += 1
                    # Cumulative-poor workers (base 0) should not, in
                    # aggregate, lose payoff relative to the plain game.
                    poor = [w for w, b in baselines.items() if b == 0.0]
                    gain = sum(
                        p_equity.get(w, 0.0) - p_plain.get(w, 0.0)
                        for w in poor
                    )
                    if gain >= 0:
                        favoured += 1
        assert comparisons, "no sub-problems with >= 3 workers"
        assert changed > 0, "equity mode never changed an assignment"
        assert favoured >= changed * 0.5, (
            f"cumulative-poor workers gained in only {favoured}/{changed} "
            f"changed assignments"
        )

    def test_zero_baselines_match_amplified_one_shot(self):
        """equity_mode with no baselines is the amplified IAU game."""
        subs, catalogs = _subs_and_catalogs(0)
        sub = subs[0]
        catalog = catalogs[sub.center.center_id]
        implicit = FGTSolver(epsilon=0.8, equity_mode=True).solve(
            sub, catalog=catalog, seed=3
        )
        explicit = FGTSolver(
            epsilon=0.8,
            equity_mode=True,
            equity_baselines={w.worker_id: 0.0 for w in sub.online_workers},
        ).solve(sub, catalog=catalog, seed=3)
        assert _outcome(implicit) == _outcome(explicit)


class TestEquityModelHelpers:
    def test_equity_model_amplifies(self):
        model = equity_model(InequityAversion(0.5, 0.5), 3.0)
        assert model.alpha == 1.5 and model.beta == 1.5

    def test_equity_model_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FGTSolver(equity_strength=0.0)

    def test_ledger_weighted_utilities_reference(self):
        payoffs = [4.0, 1.0, 0.0]
        cumulative = [30.0, 0.0, 10.0]
        got = ledger_weighted_utilities(payoffs, cumulative)
        model = equity_model(InequityAversion(), 3.0)
        expected = model.utilities(np.asarray(payoffs) + np.asarray(cumulative))
        assert np.array_equal(got, expected)

    def test_rich_worker_marginal_utility_negative(self):
        """Past the guilt threshold, more payoff *lowers* a rich worker's
        equity utility — the mechanism that makes the mode active."""
        cumulative = [50.0, 0.0, 0.0]
        low = ledger_weighted_utilities([1.0, 0.0, 0.0], cumulative)[0]
        high = ledger_weighted_utilities([5.0, 0.0, 0.0], cumulative)[0]
        assert high < low


class TestEquityNashCheck:
    def test_is_pure_nash_respects_offsets(self):
        subs, catalogs = _subs_and_catalogs(1)
        sub = subs[0]
        catalog = catalogs[sub.center.center_id]
        baselines = _baselines(sub, spread=40.0)
        solver = FGTSolver(
            epsilon=0.8, equity_mode=True, equity_baselines=baselines
        )
        result = solver.solve(sub, catalog=catalog, seed=1)
        if not result.converged:
            pytest.skip("equity solve hit the round budget on this instance")
        # Rebuild the final state to query the Nash predicate directly.
        from repro.games.base import GameState

        state = GameState(catalog)
        for pair in result.assignment.pairs:
            wanted = frozenset(pair.delivery_point_ids)
            if not wanted:
                continue  # null strategy: GameState's initial state already
            for strategy in catalog.strategies(pair.worker.worker_id):
                if frozenset(strategy.point_ids) == wanted:
                    state.set_strategy(pair.worker.worker_id, strategy)
                    break
        offsets = np.array(
            [
                float(baselines.get(w.worker_id, 0.0))
                for w in state.workers
            ]
        )
        model = equity_model(InequityAversion(), solver.equity_strength)
        assert is_pure_nash(
            state,
            model,
            tol=2e-9,
            scales=np.ones(len(state.workers)),
            offsets=offsets,
        )
