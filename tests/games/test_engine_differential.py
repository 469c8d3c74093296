"""Seed-sweep differential tests: the solvers ≡ the oracle's scalar rounds.

The best-response engine (bitmask conflict index + batched IAU
evaluation, ``docs/performance.md``) promises *bit-identical* results to
the per-strategy loops of :class:`repro.oracle.ScalarFGTSolver` and
:class:`repro.oracle.ScalarIEGTSolver`: same routes, payoffs, Equation 2
``P_dif``, round counts, and trace contents.  The dispatch service leans
on that contract — frozen snapshots must replay offline bit-for-bit — so
these tests assert it across a seed sweep
and across every solver configuration that changes the hot loop
(priorities, early stopping, per-update tracing), plus a warm
dispatch-service round through :class:`DispatchEngine`.
"""

from itertools import accumulate

import numpy as np
import pytest

from repro.core.fairness import InequityAversion
from repro.core.payoff import payoff_difference
from repro.core.priority import PriorityModel
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.games.fgt import FGTSolver
from repro.games.iegt import IEGTSolver
from repro.games.base import SCAN_MAX
from repro.games.potential import (
    IAUEvaluator,
    iau_scores,
    iau_utilities,
    sequential_best,
)
from repro.obs.metrics import METRICS
from repro.oracle import ScalarFGTSolver, ScalarIEGTSolver
from repro.service.engine import DispatchEngine
from repro.vdps.catalog import build_catalog

from tests.service.conftest import make_world, task

SEEDS = [0, 1, 2, 7, 13, 42]

#: gMission-like (tasks, workers, delivery points) shapes: the sweep's
#: small shape, and the larger smoke shape the solvers are also pinned on.
SWEEP_SHAPE = (70, 9, 16)
SMOKE_SHAPE = (60, 14, 30)

#: The default-config sweep: every seed at the sweep shape, plus the smoke
#: shape at seed 0.
DEFAULT_CASES = [
    pytest.param(seed, SWEEP_SHAPE, id=str(seed)) for seed in SEEDS
] + [pytest.param(0, SMOKE_SHAPE, id="smoke-0")]


def _subs_and_catalogs(seed, shape=SWEEP_SHAPE):
    """A gMission-like instance, catalogs shared by both engines."""
    n_tasks, n_workers, n_points = shape
    instance = generate_gmission_like(
        GMissionConfig(
            n_tasks=n_tasks, n_workers=n_workers, n_delivery_points=n_points
        ),
        seed=seed,
    )
    subs = list(instance.subproblems())
    catalogs = {
        sub.center.center_id: build_catalog(sub, epsilon=0.8) for sub in subs
    }
    return subs, catalogs


def _outcome(result):
    """Everything the bit-identity contract covers, as comparable values."""
    payoffs = [pair.payoff for pair in result.assignment.pairs]
    return {
        "routes": [
            (pair.worker.worker_id, pair.delivery_point_ids, pair.payoff)
            for pair in result.assignment.pairs
        ],
        "p_dif": payoff_difference(payoffs),
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


def _fgt(engine, **kwargs):
    return ENGINES[engine][0](**kwargs)


def _iegt(engine, **kwargs):
    return ENGINES[engine][1](**kwargs)


def _assert_engines_identical(make_solver, seed, shape=SWEEP_SHAPE):
    """Solve every sub-problem with the oracle (``scalar``) and the
    production solver (``vectorized``) and require equality.

    Comparisons are ``==`` on raw floats (no ``approx``): the contract is
    bit-identity, not numerical closeness.
    """
    subs, catalogs = _subs_and_catalogs(seed, shape)
    assert subs, "instance generated no sub-problems"
    outcomes, batches = {}, {}
    for engine in ("scalar", "vectorized"):
        before = METRICS.snapshot()
        outcomes[engine] = [
            _outcome(
                make_solver(engine, sub).solve(
                    sub, catalog=catalogs[sub.center.center_id], seed=seed
                )
            )
            for sub in subs
        ]
        batches[engine] = METRICS.delta(before).get("engine.filter_batches", 0)
    assert outcomes["scalar"] == outcomes["vectorized"]
    # Only the production engine runs, and counts, batched filters.
    assert batches["scalar"] == 0 and batches["vectorized"] > 0


#: Shapes whose workers take both best-response scans: plain-Python ones
#: (at most ``SCAN_MAX`` strategies) and numpy ones (more).
MIXED_CASES = [
    pytest.param(seed, SMOKE_SHAPE, id=f"smoke-{seed}") for seed in (1, 2)
]


def _assert_both_scans(seed, shape):
    """The instance has a worker on each side of ``SCAN_MAX``."""
    subs, catalogs = _subs_and_catalogs(seed, shape)
    counts = [
        len(catalogs[sub.center.center_id].strategies(w.worker_id))
        for sub in subs
        for w in sub.online_workers
    ]
    assert any(0 < n <= SCAN_MAX for n in counts)
    assert any(n > SCAN_MAX for n in counts)


def _baselines(sub):
    """Deterministic non-uniform equity baselines over the workers."""
    return {w.worker_id: 0.5 * (i % 3) for i, w in enumerate(sub.online_workers)}


def _priorities(sub):
    """Deterministic non-uniform priorities over the sub-problem's workers."""
    return PriorityModel(
        {
            w.worker_id: 1.0 + 0.25 * (i % 4)
            for i, w in enumerate(sub.online_workers)
        }
    )


class TestFGTDifferential:
    @pytest.mark.parametrize("seed, shape", DEFAULT_CASES)
    def test_default_config(self, seed, shape):
        _assert_engines_identical(
            lambda engine, sub: _fgt(engine, epsilon=0.8),
            seed,
            shape,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_priority_aware(self, seed):
        _assert_engines_identical(
            lambda engine, sub: _fgt(
                engine, epsilon=0.8, priorities=_priorities(sub)
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_early_stop(self, seed):
        _assert_engines_identical(
            lambda engine, sub: _fgt(
                engine,
                epsilon=0.8,
                early_stop_patience=1,
                early_stop_tol=0.05,
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_update_granularity_trace(self, seed):
        _assert_engines_identical(
            lambda engine, sub: _fgt(
                engine, epsilon=0.8, trace_granularity="update"
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_under_invariant_verification(self, seed):
        # The verifier observes per-switch utilities; both engines must
        # hand it the same values (a violation would raise).
        _assert_engines_identical(
            lambda engine, sub: _fgt(engine, epsilon=0.8, verify=True),
            seed,
        )


    @pytest.mark.parametrize("seed, shape", MIXED_CASES)
    def test_both_scans(self, seed, shape):
        _assert_both_scans(seed, shape)
        for options in (
            {},
            {"trace_granularity": "update"},
            {"priorities": True},
            {"equity_mode": True},
        ):

            def make(engine, sub, options=options):
                kwargs = dict(options)
                if kwargs.pop("priorities", False):
                    kwargs["priorities"] = _priorities(sub)
                if kwargs.get("equity_mode"):
                    kwargs["equity_baselines"] = _baselines(sub)
                return _fgt(engine, epsilon=0.8, **kwargs)

            _assert_engines_identical(make, seed, shape)


class TestIEGTDifferential:
    @pytest.mark.parametrize("seed, shape", DEFAULT_CASES)
    def test_default_config(self, seed, shape):
        _assert_engines_identical(
            lambda engine, sub: _iegt(engine, epsilon=0.8),
            seed,
            shape,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_update_granularity_trace(self, seed):
        _assert_engines_identical(
            lambda engine, sub: _iegt(
                engine, epsilon=0.8, trace_granularity="update"
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_early_stop(self, seed):
        _assert_engines_identical(
            lambda engine, sub: _iegt(
                engine,
                epsilon=0.8,
                early_stop_patience=1,
                early_stop_tol=0.5,
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_under_invariant_verification(self, seed):
        _assert_engines_identical(
            lambda engine, sub: _iegt(engine, epsilon=0.8, verify=True),
            seed,
        )


    @pytest.mark.parametrize("seed, shape", MIXED_CASES)
    def test_both_scans(self, seed, shape):
        _assert_both_scans(seed, shape)
        for options in ({}, {"trace_granularity": "update"}, {"equity_mode": True}):

            def make(engine, sub, options=options):
                kwargs = dict(options)
                if kwargs.get("equity_mode"):
                    kwargs["equity_baselines"] = _baselines(sub)
                return _iegt(engine, epsilon=0.8, **kwargs)

            _assert_engines_identical(make, seed, shape)


class TestServiceRoundDifferential:
    """A warm dispatch-service round is engine-independent bit-for-bit."""

    @staticmethod
    def _drive(engine):
        """Two committed rounds; the second hits the warm catalog cache."""
        world = make_world()
        svc = DispatchEngine(world, _fgt(engine, epsilon=0.8), seed=11)
        first = svc.dispatch()
        accepted, rejected = world.add_tasks(
            [
                task("xa1", "a1", first.now + 1.3),
                task("xa2", "a2", first.now + 1.1),
                task("xb1", "b1", first.now + 1.4),
            ]
        )
        assert len(accepted) == 3 and not rejected
        second = svc.dispatch()
        return [
            (r.round_index, r.assignments, r.payoffs, r.payoff_difference)
            for r in (first, second)
        ]

    def test_warm_rounds_bit_identical(self):
        assert self._drive("scalar") == self._drive("vectorized")


class TestBatchedIAU:
    """``IAUEvaluator.utilities`` is elementwise bit-identical to ``utility``."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_bit_equality(self, seed):
        rng = np.random.default_rng(seed)
        model = InequityAversion(0.5, 0.5)
        others = rng.uniform(0.0, 5.0, size=17)
        evaluator = IAUEvaluator(others, model)
        # Include exact duplicates of the sorted others to hit the
        # searchsorted/bisect tie behaviour, plus the null payoff.
        candidates = np.concatenate(
            [rng.uniform(0.0, 5.0, size=40), others[:5], [0.0]]
        )
        batched = evaluator.utilities(candidates)
        for i, payoff in enumerate(candidates):
            assert batched[i] == evaluator.utility(float(payoff))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_others", [0, 1, 2, 17])
    def test_python_scores_equal_the_batch(self, seed, n_others):
        # The plain-Python scan of small workers scores with lists; every
        # value must equal the numpy batch's, bit for bit.
        rng = np.random.default_rng(seed)
        model = InequityAversion(0.3, 0.7)
        others = np.sort(rng.uniform(0.0, 5.0, size=n_others))
        prefix = np.concatenate(([0.0], np.cumsum(others)))
        candidates = np.concatenate([rng.uniform(0.0, 5.0, size=20), others, [0.0]])
        scores = iau_scores(
            others.tolist(),
            [0.0, *accumulate(others.tolist())],
            candidates.tolist(),
            model,
        )
        assert scores == iau_utilities(others, prefix, candidates, model).tolist()

    def test_no_others_returns_payoffs(self):
        evaluator = IAUEvaluator([], InequityAversion(0.5, 0.5))
        candidates = np.array([0.0, 1.5, 2.0])
        assert np.array_equal(evaluator.utilities(candidates), candidates)
        # ... and the returned array is a private copy.
        out = evaluator.utilities(candidates)
        out[0] = 99.0
        assert candidates[0] == 0.0


class TestSequentialBest:
    """``sequential_best`` replays FGT's scalar accept scan exactly."""

    @staticmethod
    def _scalar_scan(utilities, baseline, tol):
        best, pos = baseline, -1
        for i, u in enumerate(utilities):
            if u > best + tol:
                best, pos = u, i
        return pos, best

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_scan_on_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            utilities = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 30)))
            baseline = float(rng.uniform(-1.0, 1.0))
            tol = float(rng.choice([1e-9, 0.05, 0.3]))
            assert sequential_best(utilities, baseline, tol) == self._scalar_scan(
                utilities, baseline, tol
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lists_scan_like_arrays(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            utilities = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 30)))
            baseline = float(rng.uniform(-1.0, 1.0))
            tol = float(rng.choice([1e-9, 0.05, 0.3]))
            assert sequential_best(
                utilities.tolist(), baseline, tol
            ) == sequential_best(utilities, baseline, tol)

    def test_tol_tie_keeps_earlier_accept(self):
        # 1.0 is accepted; 1.05 is within tol of it and must NOT displace
        # it even though it is the argmax.  This is the case where a naive
        # argmax would diverge from Algorithm 2.
        utilities = np.array([1.0, 1.05, 0.2])
        assert sequential_best(utilities, 0.0, tol=0.1) == (0, 1.0)

    def test_baseline_stands_when_nothing_clears_tol(self):
        assert sequential_best(np.array([0.5, 0.4]), 0.5, 1e-9) == (-1, 0.5)

    def test_empty_batch(self):
        assert sequential_best(np.array([]), 0.25, 1e-9) == (-1, 0.25)
