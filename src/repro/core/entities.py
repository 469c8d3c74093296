"""Domain entities from Section III of the paper (Definitions 1-4).

All entities are immutable dataclasses keyed by string identifiers, so they
hash cheaply, sort deterministically, and can be serialised to CSV without a
custom encoder.  Relationships are by id (a task references its delivery
point's id) to keep each object small and the object graph acyclic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.geo.point import Point

if TYPE_CHECKING:
    from repro.core.columns import PointColumns


@dataclass(frozen=True, order=True)
class SpatialTask:
    """A spatial task ``s = (dp, e, r)`` (Definition 3).

    Attributes
    ----------
    task_id:
        Unique identifier of the task.
    delivery_point_id:
        Identifier of the delivery point ``s.dp`` the task must be
        delivered to.
    expiry:
        Task expiration deadline ``s.e`` in hours from the assignment
        instant.  A worker must *arrive* at the delivery point no later
        than this.
    reward:
        Reward ``s.r`` paid to the worker who completes the task.  The
        paper's experiments use reward 1 for every task.
    """

    task_id: str
    delivery_point_id: str
    expiry: float
    reward: float = 1.0

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be a non-empty string")
        if not self.delivery_point_id:
            raise ValueError("delivery_point_id must be a non-empty string")
        if not math.isfinite(self.expiry) or self.expiry < 0:
            raise ValueError(f"expiry must be finite and >= 0, got {self.expiry!r}")
        if not math.isfinite(self.reward) or self.reward < 0:
            raise ValueError(f"reward must be finite and >= 0, got {self.reward!r}")


@dataclass(frozen=True)
class DeliveryPoint:
    """A delivery point ``dp = (l, S)`` (Definition 2).

    Carries its location and the tuple of tasks to be delivered there.
    Derived quantities used throughout the algorithms — earliest task
    expiry ``dp.e``, total reward, task count — are exposed as properties.

    ``service_hours`` is the handover time spent *at* the point before
    travelling on.  The paper assumes it is zero ("the processing time of
    a task is zero"); a positive value is an opt-in generalisation: the
    deadline check still applies to the *arrival* time, but departure to
    the next point is delayed by the service.
    """

    dp_id: str
    location: Point
    tasks: Tuple[SpatialTask, ...] = ()
    service_hours: float = 0.0

    def __post_init__(self) -> None:
        if not self.dp_id:
            raise ValueError("dp_id must be a non-empty string")
        if not isinstance(self.location, Point):
            raise TypeError(f"location must be a Point, got {type(self.location).__name__}")
        if not math.isfinite(self.service_hours) or self.service_hours < 0:
            raise ValueError(
                f"service_hours must be finite and >= 0, got {self.service_hours!r}"
            )
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for task in self.tasks:
            if task.delivery_point_id != self.dp_id:
                raise ValueError(
                    f"task {task.task_id!r} belongs to delivery point "
                    f"{task.delivery_point_id!r}, not {self.dp_id!r}"
                )

    @property
    def earliest_expiry(self) -> float:
        """``dp.e``: the earliest expiration time among the point's tasks.

        An empty delivery point never constrains a route, so it reports
        ``+inf``.
        """
        if not self.tasks:
            return math.inf
        return min(task.expiry for task in self.tasks)

    @property
    def total_reward(self) -> float:
        """Sum of the rewards of all tasks at this point."""
        return sum(task.reward for task in self.tasks)

    @property
    def task_count(self) -> int:
        """Number of tasks to deliver to this point (``|dp.S|``)."""
        return len(self.tasks)

    def with_tasks(self, tasks: Tuple[SpatialTask, ...]) -> "DeliveryPoint":
        """A copy of this delivery point holding ``tasks`` instead."""
        return DeliveryPoint(self.dp_id, self.location, tasks, self.service_hours)

    def __hash__(self) -> int:
        return hash(self.dp_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryPoint):
            return NotImplemented
        return (
            self.dp_id == other.dp_id
            and self.location == other.location
            and self.tasks == other.tasks
            and self.service_hours == other.service_hours
        )


@dataclass(frozen=True)
class DistributionCenter:
    """A distribution center ``dc = (l, S, DP)`` (Definition 1).

    The center's task set ``dc.S`` is exactly the union of its delivery
    points' task sets, so only the points are stored and the tasks are
    derived.
    """

    center_id: str
    location: Point
    delivery_points: Tuple[DeliveryPoint, ...] = ()

    def __post_init__(self) -> None:
        if not self.center_id:
            raise ValueError("center_id must be a non-empty string")
        if not isinstance(self.location, Point):
            raise TypeError(f"location must be a Point, got {type(self.location).__name__}")
        object.__setattr__(self, "delivery_points", tuple(self.delivery_points))
        seen = set()
        for dp in self.delivery_points:
            if dp.dp_id in seen:
                raise ValueError(f"duplicate delivery point id {dp.dp_id!r}")
            seen.add(dp.dp_id)

    @property
    def tasks(self) -> Tuple[SpatialTask, ...]:
        """``dc.S``: all tasks across the center's delivery points."""
        return tuple(t for dp in self.delivery_points for t in dp.tasks)

    @property
    def task_count(self) -> int:
        """Total number of tasks distributed by this center."""
        return sum(dp.task_count for dp in self.delivery_points)

    @property
    def columns(self) -> "PointColumns":
        """The delivery points as :class:`~repro.core.columns.PointColumns`
        in sorted-id order (the kernels' index space), made once."""
        columns = self.__dict__.get("_columns")
        if columns is None:
            from repro.core.columns import PointColumns

            columns = PointColumns.of(self.delivery_points)
            object.__setattr__(self, "_columns", columns)
        return columns

    def delivery_point(self, dp_id: str) -> DeliveryPoint:
        """Look up a delivery point by id; raises :class:`KeyError` if absent."""
        for dp in self.delivery_points:
            if dp.dp_id == dp_id:
                return dp
        raise KeyError(f"no delivery point {dp_id!r} in center {self.center_id!r}")

    def __hash__(self) -> int:
        return hash(self.center_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionCenter):
            return NotImplemented
        return (
            self.center_id == other.center_id
            and self.location == other.location
            and self.delivery_points == other.delivery_points
        )


@dataclass(frozen=True)
class Worker:
    """A worker ``w = (l, maxDP)`` (Definition 4).

    Attributes
    ----------
    worker_id:
        Unique identifier.
    location:
        The worker's current location ``w.l``.
    max_delivery_points:
        ``w.maxDP``: the maximum number of delivery points the worker is
        willing to serve in one assignment.
    center_id:
        The distribution center the worker works for.  The paper assumes a
        worker serves a single center; ``None`` means "not yet associated"
        (e.g. raw dataset rows before partitioning).
    online:
        Whether the worker is currently accepting tasks (Definition 4's
        online/offline mode).
    speed_kmh:
        Optional individual movement speed, enabling the paper's
        future-work direction of workers with different contributions.
        ``None`` (the paper's model) means "use the instance's shared
        speed".
    """

    worker_id: str
    location: Point
    max_delivery_points: int = 3
    center_id: Optional[str] = None
    online: bool = True
    speed_kmh: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("worker_id must be a non-empty string")
        if not isinstance(self.location, Point):
            raise TypeError(f"location must be a Point, got {type(self.location).__name__}")
        if not isinstance(self.max_delivery_points, int) or self.max_delivery_points < 1:
            raise ValueError(
                f"max_delivery_points must be a positive int, got "
                f"{self.max_delivery_points!r}"
            )
        if self.speed_kmh is not None and not self.speed_kmh > 0:
            raise ValueError(
                f"speed_kmh must be positive or None, got {self.speed_kmh!r}"
            )

    def assigned_to(self, center_id: str) -> "Worker":
        """A copy of this worker associated with ``center_id``."""
        return Worker(
            self.worker_id,
            self.location,
            self.max_delivery_points,
            center_id,
            self.online,
            self.speed_kmh,
        )

    def offline(self) -> "Worker":
        """A copy of this worker marked offline (tasks in progress)."""
        return Worker(
            self.worker_id,
            self.location,
            self.max_delivery_points,
            self.center_id,
            False,
            self.speed_kmh,
        )

    def __hash__(self) -> int:
        return hash(self.worker_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Worker):
            return NotImplemented
        return (
            self.worker_id == other.worker_id
            and self.location == other.location
            and self.max_delivery_points == other.max_delivery_points
            and self.center_id == other.center_id
            and self.online == other.online
            and self.speed_kmh == other.speed_kmh
        )
