"""Core domain model: entities, problem instance, routing, payoff, fairness."""

from repro.core.entities import (
    DeliveryPoint,
    DistributionCenter,
    SpatialTask,
    Worker,
)
from repro.core.instance import ProblemInstance, SubProblem
from repro.core.routing import Route, arrival_times, route_is_valid
from repro.core.payoff import (
    average_payoff,
    payoff_difference,
    worker_payoff,
)
from repro.core.fairness import (
    InequityAversion,
    gini_coefficient,
    jain_index,
)
from repro.core.priority import (
    PriorityModel,
    priority_payoff_difference,
)
from repro.core.assignment import Assignment, WorkerAssignment
from repro.core.exceptions import (
    InvalidAssignmentError,
    InvalidInstanceError,
    InvariantViolation,
    ReproError,
)

__all__ = [
    "SpatialTask",
    "DeliveryPoint",
    "DistributionCenter",
    "Worker",
    "ProblemInstance",
    "SubProblem",
    "Route",
    "arrival_times",
    "route_is_valid",
    "worker_payoff",
    "average_payoff",
    "payoff_difference",
    "InequityAversion",
    "gini_coefficient",
    "jain_index",
    "PriorityModel",
    "priority_payoff_difference",
    "Assignment",
    "WorkerAssignment",
    "ReproError",
    "InvalidInstanceError",
    "InvalidAssignmentError",
    "InvariantViolation",
]
