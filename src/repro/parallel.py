"""Whole-instance solving, one distribution center at a time.

Section VII-A: "Since task assignment across distribution centers is
independent, we can perform task assignment for different distribution
centers in parallel."  This module solves every sub-problem of an instance
with one solver, serially.  Per-center seeds are derived deterministically,
not drawn from a shared stream, so a center's result does not depend on
execution order: the dispatch service solves centers one by one through
:func:`solve_subproblem` and matches :func:`solve_instance` exactly.  A
process pool across centers was measured and removed: it showed no win on
a 2-core host (``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance, SubProblem
from repro.core.payoff import average_payoff, payoff_difference
from repro.utils.rng import RngFactory, SeedLike


@dataclass(frozen=True)
class InstanceSolution:
    """Per-center assignments plus the pooled (global) metrics."""

    assignments: Dict[str, Assignment]  # center_id -> assignment

    @property
    def payoffs(self) -> List[float]:
        """All workers' payoffs across centers (sorted by center id)."""
        out: List[float] = []
        for center_id in sorted(self.assignments):
            out.extend(self.assignments[center_id].payoffs)
        return out

    @property
    def payoff_difference(self) -> float:
        """Equation 2 over the global worker population."""
        return payoff_difference(self.payoffs)

    @property
    def average_payoff(self) -> float:
        return average_payoff(self.payoffs)

    @property
    def busy_worker_count(self) -> int:
        return sum(a.busy_worker_count for a in self.assignments.values())

    def describe(self) -> str:
        """One-line summary of the pooled metrics."""
        return (
            f"centers={len(self.assignments)} "
            f"P_dif={self.payoff_difference:.4f} "
            f"avgP={self.average_payoff:.4f} busy={self.busy_worker_count}"
        )


def solve_subproblem(
    sub: SubProblem,
    solver,
    epsilon: Optional[float] = None,
    seed: SeedLike = None,
    catalog: Optional[object] = None,
) -> Assignment:
    """Solve one center's sub-problem; the single-center unit of
    :func:`solve_instance`.

    Exposed so callers that shard per center themselves — the dispatch
    service's degradation ladder retries/degrades *individual* centers —
    produce exactly what :func:`solve_instance` would: passing the seed
    ``RngFactory(root).seed_for(f"{seed_stream}:{center_id}")`` here is
    bit-identical to the corresponding center of a whole-instance solve.
    """
    if catalog is None:
        from repro.vdps.catalog import build_catalog

        catalog = build_catalog(sub, epsilon=epsilon)
    result = solver.solve(sub, catalog=catalog, seed=seed)
    return result.assignment


def solve_instance(
    instance: ProblemInstance,
    solver,
    epsilon: Optional[float] = None,
    seed: SeedLike = None,
    seed_stream: str = "center",
    catalogs: Optional[Mapping[str, object]] = None,
) -> InstanceSolution:
    """Solve every center of ``instance`` with ``solver``.

    Parameters
    ----------
    epsilon:
        VDPS pruning threshold used for every center's catalog.
    seed:
        Root seed; each center receives an independent derived stream, so
        results do not depend on execution order.
    seed_stream:
        Prefix of the per-center stream names (``"<seed_stream>:<center>"``).
        The default keeps the historical ``center:*`` streams; passing the
        algorithm's name reproduces the per-arm streams of
        :func:`repro.experiments.runner.run_algorithms` exactly, which is
        how the dispatch service stays bit-identical to offline solves.
    catalogs:
        Optional prebuilt ``center_id -> VDPSCatalog`` mapping (e.g. from a
        cache).  Centers missing from the mapping build their catalog as
        usual.
    """
    rng_factory = RngFactory(seed)
    prebuilt = catalogs or {}
    results: Dict[str, Assignment] = {}
    for sub in instance.subproblems():
        center_id = sub.center.center_id
        results[center_id] = solve_subproblem(
            sub,
            solver,
            epsilon=epsilon,
            seed=rng_factory.seed_for(f"{seed_stream}:{center_id}"),
            catalog=prebuilt.get(center_id),
        )
    return InstanceSolution(results)
