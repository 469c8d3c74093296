"""Lean center solves: strategy objects for the final picks only, and a
convergence trace whose diagnostics are computed when read.

FGT and IEGT switch workers by strategy position and build a
:class:`~repro.vdps.catalog.WorkerStrategy` only for each worker's final
non-null pick, in one batched call.  Their traces record each pass's
payoff vector and derive ``P_dif``, the mean and the potential on first
read, unless something reads the potential during the solve (the
verifier, an enabled tracer, early stop, per-update tracing).
"""

import numpy as np
import pytest

from repro.core.fairness import InequityAversion
from repro.core.payoff import average_payoff, payoff_difference
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.games import fgt as fgt_module
from repro.games.fgt import FGTSolver
from repro.games.iegt import IEGTSolver
from repro.games.potential import potential_value
from repro.games.trace import ConvergenceTrace, TracePoint
from repro.obs.metrics import METRICS
from repro.vdps.catalog import build_catalog

SOLVERS = {"fgt": FGTSolver, "iegt": IEGTSolver}

#: Solver options that change when the trace is recorded and when its
#: potential is computed.
CONFIGS = {
    "round": {},
    "update": {"trace_granularity": "update"},
    "early-stop": {"early_stop_patience": 1, "early_stop_tol": 0.05},
}


@pytest.fixture(autouse=True)
def _verification_off(monkeypatch):
    # REPRO_VERIFY=1 would add the verifier's reads to every solve here.
    monkeypatch.delenv("REPRO_VERIFY", raising=False)


def _sub(seed):
    instance = generate_gmission_like(
        GMissionConfig(n_tasks=120, n_workers=12, n_delivery_points=80), seed=seed
    )
    return instance.subproblems()[0]


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_object_per_final_pick(name, seed):
    sub = _sub(seed)
    catalog = build_catalog(sub, epsilon=0.8)
    materialised = METRICS.counter("catalog.strategies_materialised")
    before = materialised.value
    result = SOLVERS[name](epsilon=0.8).solve(sub, catalog=catalog, seed=seed)
    picks = [pair for pair in result.assignment if pair.route is not None]
    assert picks
    assert materialised.value - before == len(picks)
    # The picks were cached in their columns: walking every strategy builds
    # only the others, and each picked route is one of the column's objects.
    before = materialised.value
    walked = {
        w.worker_id: tuple(catalog.strategies(w.worker_id)) for w in catalog.workers
    }
    assert materialised.value - before == catalog.total_strategy_count - len(picks)
    for pair in picks:
        assert any(s.route is pair.route for s in walked[pair.worker.worker_id])


def _record_copies(monkeypatch):
    """Capture every ``record`` call with a copy of its payoffs."""
    seen = []
    record = ConvergenceTrace.record

    def spy(self, round_index, payoffs, switches, potential=None):
        seen.append((round_index, np.array(payoffs, dtype=float), switches, potential))
        record(self, round_index, payoffs, switches, potential)

    monkeypatch.setattr(ConvergenceTrace, "record", spy)
    return seen


def _recomputed(name, seen):
    """The trace points recomputed from recorded payoffs from scratch."""
    model = InequityAversion(0.5, 0.5)
    points = []
    for round_index, payoffs, switches, potential in seen:
        if potential is None:
            potential = (
                potential_value(payoffs, model)
                if name == "fgt"
                else float(payoffs.sum())
            )
        points.append(
            TracePoint(
                round_index=round_index,
                payoff_difference=payoff_difference(payoffs),
                average_payoff=average_payoff(payoffs),
                switches=switches,
                potential=potential,
            )
        )
    return tuple(points)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("seed", [1, 2])
def test_trace_points_equal_their_recomputation(name, config, seed, monkeypatch):
    sub = _sub(seed)
    catalog = build_catalog(sub, epsilon=0.8)
    seen = _record_copies(monkeypatch)
    result = SOLVERS[name](epsilon=0.8, **CONFIGS[config]).solve(
        sub, catalog=catalog, seed=seed
    )
    assert len(result.trace) == len(seen) > 0
    assert result.trace.points == _recomputed(name, seen)
    checked = SOLVERS[name](epsilon=0.8, verify=True, **CONFIGS[config]).solve(
        sub, catalog=catalog, seed=seed
    )
    assert checked.trace.points == result.trace.points
    assert checked.assignment.pairs == result.assignment.pairs


def test_round_trace_computes_the_potential_on_read(monkeypatch):
    sub = _sub(1)
    calls = []

    def counting(payoffs, model):
        calls.append(1)
        return potential_value(payoffs, model)

    monkeypatch.setattr(fgt_module, "potential_value", counting)
    result = FGTSolver(epsilon=0.8).solve(sub, seed=1)
    assert result.rounds > 1 and not calls
    assert len(result.trace.points) == result.rounds
    assert len(calls) == result.rounds
    result.trace.points
    assert len(calls) == result.rounds
