"""Determinism regressions: same seed => bit-identical assignments.

The randomised solvers must reproduce the exact same equilibrium when
run again with the same seed.
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import SynConfig, generate_synthetic
from repro.games.fgt import FGTSolver
from repro.games.iegt import IEGTSolver
from repro.parallel import solve_instance


@pytest.fixture(scope="module")
def instance():
    config = SynConfig(
        n_centers=2,
        n_workers=12,
        n_delivery_points=20,
        n_tasks=120,
        space_km=8.0,
    )
    return generate_synthetic(config, seed=17)


def _routes(solution):
    return {
        center_id: assignment.as_mapping()
        for center_id, assignment in solution.assignments.items()
    }


@pytest.mark.parametrize(
    "solver",
    [FGTSolver(), IEGTSolver()],
    ids=lambda s: s.name,
)
def test_repeated_runs_reproduce_the_same_equilibrium(instance, solver):
    first = solve_instance(instance, solver, epsilon=4.0, seed=9)
    second = solve_instance(instance, solver, epsilon=4.0, seed=9)
    assert _routes(first) == _routes(second)
    assert first.payoffs == second.payoffs


def test_verification_does_not_perturb_results(instance):
    """verify=True only observes: it must not consume random draws."""
    import dataclasses

    for solver in (FGTSolver(), IEGTSolver()):
        plain = solve_instance(instance, solver, epsilon=4.0, seed=13)
        checked = solve_instance(
            instance,
            dataclasses.replace(solver, verify=True),
            epsilon=4.0,
            seed=13,
        )
        assert _routes(plain) == _routes(checked)
        assert plain.payoffs == checked.payoffs
