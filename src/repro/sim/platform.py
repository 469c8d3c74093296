"""Long-run dispatch: the service's round loop over a working day.

Every ``round_interval`` hours :class:`DispatchSimulator` advances a
:class:`~repro.service.state.WorldState` to the round boundary and runs one
:meth:`~repro.service.engine.DispatchEngine.dispatch` round over it — the
same snapshot, catalog, solve and commit the dispatch service runs, so
assigned tasks leave the queue, workers go offline until their route
completes (and reappear at their last drop-off point), and unassigned
tasks wait for the next round or expire.  Arrivals drawn for the window
after a boundary queue for the next decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.entities import DistributionCenter, Worker
from repro.core.payoff import average_payoff, payoff_difference
from repro.geo.travel import TravelModel
from repro.service.engine import DispatchEngine, RoundResult
from repro.service.state import WorkerState, WorldState
from repro.sim.arrivals import PoissonTaskArrivals
from repro.utils.rng import RngFactory, SeedLike
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class SimConfig:
    """Simulation horizon and dispatch cadence."""

    horizon_hours: float = 8.0
    round_interval_hours: float = 0.5
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.horizon_hours, "horizon_hours")
        require_positive(self.round_interval_hours, "round_interval_hours")
        if self.round_interval_hours > self.horizon_hours:
            raise ValueError("round_interval_hours must not exceed horizon_hours")


@dataclass
class SimReport:
    """Full outcome of a simulation run."""

    rounds: List[RoundResult]
    worker_states: List[WorkerState]
    arrived_tasks: int
    completed_tasks: int
    expired_tasks: int

    @property
    def completion_rate(self) -> float:
        """Fraction of arrived tasks that some worker delivered."""
        if self.arrived_tasks == 0:
            return 1.0
        return self.completed_tasks / self.arrived_tasks

    @property
    def earning_rates(self) -> List[float]:
        return [w.earning_rate for w in self.worker_states]

    @property
    def cumulative_payoff_difference(self) -> float:
        """Equation 2 over cumulative earning rates — long-run unfairness."""
        return payoff_difference(self.earning_rates)

    @property
    def cumulative_average_payoff(self) -> float:
        return average_payoff(self.earning_rates)

    def describe(self) -> str:
        """One-line summary of throughput and cumulative fairness."""
        return (
            f"rounds={len(self.rounds)} arrived={self.arrived_tasks} "
            f"completed={self.completed_tasks} expired={self.expired_tasks} "
            f"completion={self.completion_rate:.1%} "
            f"cumP_dif={self.cumulative_payoff_difference:.4f} "
            f"cumAvgP={self.cumulative_average_payoff:.4f}"
        )


class DispatchSimulator:
    """Drives the dispatch engine over one distribution center's day.

    Parameters
    ----------
    center:
        Layout only — the center's delivery points define *where* tasks can
        land; any tasks already attached are ignored.
    workers:
        The worker fleet (initial locations; ``maxDP`` etc. from the
        entities), each attached to ``center`` or to no center.
    arrivals:
        The task arrival process.
    solver:
        Any one-shot solver from this library (GTA/MPTA/FGT/IEGT/...).
    travel:
        Shared travel model.
    config:
        Horizon, cadence, and the VDPS pruning threshold per round.
    """

    def __init__(
        self,
        center: DistributionCenter,
        workers: Sequence[Worker],
        arrivals: PoissonTaskArrivals,
        solver,
        travel: Optional[TravelModel] = None,
        config: SimConfig = SimConfig(),
    ) -> None:
        if not center.delivery_points:
            raise ValueError("simulation needs a center with delivery points")
        self._center = center
        self._workers = list(workers)
        self._arrivals = arrivals
        self._solver = solver
        self._travel = travel if travel is not None else TravelModel()
        self._config = config

    def run(self, seed: SeedLike = None) -> SimReport:
        """Simulate the configured horizon; deterministic in ``seed``.

        Round ``i`` dispatches at exactly ``i * round_interval_hours``
        (each advance is the exact difference of two boundaries) with the
        engine's solve seed ``round_seed(i)``.
        """
        rng_factory = RngFactory(seed)
        config = self._config
        interval = config.round_interval_hours
        world = WorldState([self._center], self._workers, self._travel)
        engine = DispatchEngine(
            world, self._solver, epsilon=config.epsilon, seed=seed
        )
        rounds: List[RoundResult] = []
        arrived = 0
        for i in range(int(config.horizon_hours / interval)):
            new_tasks = self._arrivals.between(
                i * interval,
                (i + 1) * interval,
                seed=rng_factory.get(f"arrivals:{i}"),
            )
            rounds.append(
                engine.dispatch(advance_hours=i * interval - world.now)
            )
            rejected = world.add_tasks(new_tasks)[1]
            if rejected:
                raise ValueError(rejected[0].reason)
            arrived += len(new_tasks)
        world.advance(config.horizon_hours - world.now)
        return SimReport(
            rounds=rounds,
            worker_states=world.worker_states(),
            arrived_tasks=arrived,
            completed_tasks=sum(r.assigned_tasks for r in rounds),
            expired_tasks=sum(r.expired_tasks for r in rounds)
            + len(world.expire()),
        )
