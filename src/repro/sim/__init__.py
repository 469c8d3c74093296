"""Multi-round dispatch simulation on top of the one-shot FTA solvers.

The paper solves a single time instance ("the server will consider all the
available tasks and workers at a particular time instance").  A deployed
platform loops that decision: tasks arrive continuously, workers go
offline while delivering and return at their last drop-off point, and the
long-run fairness a worker experiences is over *cumulative* earnings.
This package drives the dispatch service's round loop
(:class:`~repro.service.engine.DispatchEngine`) over seeded arrivals so
the one-shot algorithms can be compared on the horizon that actually
matters for worker retention.
"""

from repro.service.state import WorkerState
from repro.sim.arrivals import PoissonTaskArrivals, TaskArrival
from repro.sim.platform import DispatchSimulator, SimConfig, SimReport
from repro.sim.scenarios import (
    SCENARIOS,
    EquityScenario,
    bursty_arrivals,
    churn_heavy,
    get_scenario,
    unlucky_worker,
)

__all__ = [
    "TaskArrival",
    "PoissonTaskArrivals",
    "SimConfig",
    "DispatchSimulator",
    "SimReport",
    "WorkerState",
    "EquityScenario",
    "SCENARIOS",
    "bursty_arrivals",
    "churn_heavy",
    "get_scenario",
    "unlucky_worker",
]
