"""Assignment-level invariant checkers (Definitions 6 and 8, Equations 1-2).

Every checker re-derives the property from the raw inputs instead of
trusting any value the solver cached: deadlines are re-checked by re-running
the arrival-time recurrence of Definition 5, payoffs are recomputed from
rewards and completion times (Equation 1), and ``P_dif`` is recomputed with
the literal double-loop transcription of Equation 2.  A failed check raises
:class:`~repro.core.exceptions.InvariantViolation` carrying the offending
worker and strategy.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.assignment import Assignment
from repro.core.exceptions import InvariantViolation
from repro.core.instance import SubProblem
from repro.core.payoff import payoff_difference, payoff_difference_naive
from repro.core.routing import arrival_times
from repro.vdps.catalog import VDPSCatalog
from repro.verify.stats import STATS

#: Absolute slack for float comparisons of re-derived quantities.
ABS_TOL = 1e-9
#: Relative slack for float comparisons of re-derived quantities.
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_disjointness(assignment: Assignment, solver: str = "") -> None:
    """Definition 8: no delivery point served by two workers; workers unique."""
    seen_workers: set = set()
    claimed: Dict[str, str] = {}
    for pair in assignment:
        wid = pair.worker.worker_id
        if wid in seen_workers:
            raise InvariantViolation(
                "assignment.disjointness",
                f"worker {wid!r} appears twice in the assignment",
                solver=solver,
                worker_id=wid,
            )
        seen_workers.add(wid)
        for dp_id in pair.delivery_point_ids:
            if dp_id in claimed:
                raise InvariantViolation(
                    "assignment.disjointness",
                    f"delivery point {dp_id!r} served by both "
                    f"{claimed[dp_id]!r} and {wid!r}",
                    solver=solver,
                    worker_id=wid,
                    strategy=pair.delivery_point_ids,
                )
            claimed[dp_id] = wid
    STATS.record("assignment.disjointness")


def check_capacity(assignment: Assignment, solver: str = "") -> None:
    """Definition 8: no worker serves more than its ``maxDP`` delivery points."""
    for pair in assignment:
        if pair.route is None:
            continue
        if len(pair.route) > pair.worker.max_delivery_points:
            raise InvariantViolation(
                "assignment.capacity",
                f"route of length {len(pair.route)} exceeds maxDP="
                f"{pair.worker.max_delivery_points}",
                solver=solver,
                worker_id=pair.worker.worker_id,
                strategy=pair.delivery_point_ids,
            )
    STATS.record("assignment.capacity")


def check_deadlines(assignment: Assignment, sub: SubProblem, solver: str = "") -> None:
    """Definition 6: re-run the Definition 5 recurrence and re-check expiries.

    The route's recorded arrival times are *not* trusted: per worker, the
    start offset (worker-to-center leg, at the worker's own speed) and the
    arrival time at every delivery point are recomputed from the geometry,
    compared against the recorded times, and checked against each point's
    earliest task expiry.
    """
    travel = sub.travel
    for pair in assignment:
        route = pair.route
        if route is None or len(route) == 0:
            continue
        worker = pair.worker
        if worker.speed_kmh is None or worker.speed_kmh == travel.speed_kmh:
            worker_travel = travel
        else:
            worker_travel = travel.with_speed(worker.speed_kmh)
        offset = worker_travel.time(worker.location, sub.center.location)
        recomputed = arrival_times(
            sub.center.location, route.sequence, worker_travel, start_offset=offset
        )
        for dp, recorded, expected in zip(
            route.sequence, route.arrival_times, recomputed
        ):
            if not _close(recorded, expected):
                raise InvariantViolation(
                    "assignment.arrival-times",
                    f"recorded arrival at {dp.dp_id!r} is t={recorded:.9f} but the "
                    f"Definition 5 recurrence gives t={expected:.9f}",
                    solver=solver,
                    worker_id=worker.worker_id,
                    strategy=pair.delivery_point_ids,
                )
            if expected > dp.earliest_expiry + ABS_TOL:
                raise InvariantViolation(
                    "assignment.deadlines",
                    f"arrival at {dp.dp_id!r} at t={expected:.9f} misses its "
                    f"earliest expiry {dp.earliest_expiry:.9f}",
                    solver=solver,
                    worker_id=worker.worker_id,
                    strategy=pair.delivery_point_ids,
                )
    STATS.record("assignment.deadlines")


def check_catalog_membership(
    assignment: Assignment, catalog: VDPSCatalog, solver: str = ""
) -> None:
    """Every non-null choice is a strategy of that worker's own catalog.

    Looked up through the catalog's conflict index: the chosen point set's
    mask must equal one of the worker's strategy masks exactly, and a
    point outside the center is no member.  No strategy object is
    built.
    """
    index = catalog.index
    for pair in assignment:
        if pair.route is None or len(pair.route) == 0:
            continue
        wid = pair.worker.worker_id
        try:
            worker_index = index.worker(wid)
        except KeyError:
            raise InvariantViolation(
                "assignment.catalog-membership",
                "worker is not part of the sub-problem's catalog",
                solver=solver,
                worker_id=wid,
                strategy=pair.delivery_point_ids,
            ) from None
        try:
            mask = index.mask_of(pair.delivery_point_ids)
        except KeyError:  # a point outside the center
            mask = None
        position = -1 if mask is None else worker_index.position_of(mask)
        if position < 0:
            raise InvariantViolation(
                "assignment.catalog-membership",
                f"chosen delivery point set is not one of the worker's "
                f"{worker_index.n_strategies} valid VDPSs",
                solver=solver,
                worker_id=wid,
                strategy=pair.delivery_point_ids,
            )
    STATS.record("assignment.catalog-membership")


def check_payoffs(
    assignment: Assignment,
    solver: str = "",
    reported_payoff_difference: Optional[float] = None,
) -> None:
    """Equations 1-2: recompute every payoff and ``P_dif`` from scratch.

    Each worker's payoff is re-derived as total route reward over completion
    time; the assignment's ``P_dif`` is recomputed with the quadratic
    transcription of Equation 2 and compared against the O(n log n)
    production implementation (and, when given, against a solver-reported
    value).
    """
    for pair in assignment:
        route = pair.route
        if route is None or len(route) == 0:
            expected = 0.0
        else:
            reward = sum(dp.total_reward for dp in route.sequence)
            completion = route.arrival_times[-1]
            if completion <= 0:
                raise InvariantViolation(
                    "assignment.payoff",
                    "non-empty route with non-positive completion time",
                    solver=solver,
                    worker_id=pair.worker.worker_id,
                    strategy=pair.delivery_point_ids,
                )
            expected = reward / completion
        if not _close(pair.payoff, expected):
            raise InvariantViolation(
                "assignment.payoff",
                f"reported payoff {pair.payoff!r} != Equation 1 value {expected!r}",
                solver=solver,
                worker_id=pair.worker.worker_id,
                strategy=pair.delivery_point_ids,
            )
    payoffs = assignment.payoffs
    naive = payoff_difference_naive(payoffs)
    fast = payoff_difference(payoffs)
    if not _close(naive, fast):
        raise InvariantViolation(
            "assignment.payoff-difference",
            f"fast P_dif {fast!r} != Equation 2 double sum {naive!r}",
            solver=solver,
        )
    if reported_payoff_difference is not None and not _close(
        reported_payoff_difference, naive
    ):
        raise InvariantViolation(
            "assignment.payoff-difference",
            f"solver-reported P_dif {reported_payoff_difference!r} != "
            f"recomputed {naive!r}",
            solver=solver,
        )
    STATS.record("assignment.payoffs")


def verify_assignment(
    assignment: Assignment,
    sub: Optional[SubProblem] = None,
    catalog: Optional[VDPSCatalog] = None,
    solver: str = "",
    reported_payoff_difference: Optional[float] = None,
) -> None:
    """Run every applicable assignment-level checker.

    ``sub`` enables the deadline re-derivation, ``catalog`` the membership
    check; both are optional so the function also works on bare assignments
    (e.g. ones loaded from CSV).  Raises
    :class:`~repro.core.exceptions.InvariantViolation` on the first failure.
    """
    check_disjointness(assignment, solver=solver)
    check_capacity(assignment, solver=solver)
    if sub is not None:
        check_deadlines(assignment, sub, solver=solver)
    if catalog is not None:
        check_catalog_membership(assignment, catalog, solver=solver)
    check_payoffs(
        assignment,
        solver=solver,
        reported_payoff_difference=reported_payoff_difference,
    )
    STATS.record("assignment.verified")
