"""A center's delivery points as columns, with point objects built on read.

The kernels read a center's points as arrays — service hours, earliest
task expiry, total reward — while solvers, routes and the verifier read
:class:`~repro.core.entities.DeliveryPoint` objects.  :class:`PointColumns`
holds both views over one point set in sorted-id order (the kernels' index
space): the per-point and per-task columns are filled when it is made, and
``columns[i]`` builds point ``i``'s object, with its
:class:`~repro.core.entities.SpatialTask` tuple, on first read.

Every center has columns (:attr:`DistributionCenter.columns`): an ordinary
center derives them from its objects, which then serve as the built
points.  The dispatch service's snapshot makes them the other way round
(:class:`ColumnCenter`): columns first, straight from its pending-task
table, and point objects only for the points something reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.entities import DeliveryPoint, DistributionCenter, SpatialTask


class PointColumns(Sequence):
    """One point set in sorted-id order, as columns; a sequence of points.

    Point ``i`` owns tasks ``starts[i]:starts[i + 1]`` of the task
    columns.  Its object — ``bare[i]`` holding those tasks — is built on
    the first ``columns[i]`` and kept, so every read returns the same
    object.
    """

    __slots__ = (
        "ids",
        "bare",
        "locations",
        "service",
        "deadline",
        "reward",
        "starts",
        "task_ids",
        "expiry",
        "rewards",
        "_objects",
        "_all",
        "_position",
    )

    def __init__(
        self,
        bare: Sequence[DeliveryPoint],
        deadline: np.ndarray,
        reward: List[float],
        starts: List[int],
        task_ids: List[str],
        expiry: List[float],
        rewards: List[float],
        objects: Optional[List[Optional[DeliveryPoint]]] = None,
    ) -> None:
        #: Point ids, sorted.
        self.ids: List[str] = [dp.dp_id for dp in bare]
        #: Each point's location and service hours, with or without tasks.
        self.bare = bare
        self.locations = [dp.location for dp in bare]
        #: ``(n,)`` float64 — service hours per point.
        self.service = np.array([dp.service_hours for dp in bare], dtype=np.float64)
        #: ``(n,)`` float64 — each point's earliest task expiry (``dp.e``).
        self.deadline = deadline
        #: Each point's total reward, the Python ``sum`` of its task
        #: rewards in task order (so it equals ``DeliveryPoint.total_reward``).
        self.reward = reward
        #: ``n + 1`` task offsets.
        self.starts = starts
        #: Per task: id, expiry (relative to the assignment instant), reward.
        self.task_ids = task_ids
        self.expiry = expiry
        self.rewards = rewards
        self._objects: List[Optional[DeliveryPoint]] = (
            [None] * len(bare) if objects is None else objects
        )
        self._all: Optional[Tuple[DeliveryPoint, ...]] = None
        self._position: Optional[Dict[str, int]] = None

    @classmethod
    def of(cls, points: Sequence[DeliveryPoint]) -> "PointColumns":
        """The columns of ``points``, which become the built objects."""
        ordered = sorted(points, key=lambda dp: dp.dp_id)
        tasks = [task for dp in ordered for task in dp.tasks]
        return cls(
            ordered,
            np.array([dp.earliest_expiry for dp in ordered], dtype=np.float64),
            [dp.total_reward for dp in ordered],
            [0, *accumulate(len(dp.tasks) for dp in ordered)],
            [task.task_id for task in tasks],
            [task.expiry for task in tasks],
            [task.reward for task in tasks],
            objects=list(ordered),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> DeliveryPoint:
        dp = self._objects[i]
        if dp is None:
            i %= len(self.ids)  # a negative index counts from the end
            a, b = self.starts[i], self.starts[i + 1]
            bare = self.bare[i]
            dp_id = bare.dp_id
            dp = self._objects[i] = bare.with_tasks(
                tuple(
                    SpatialTask(task_id, dp_id, expiry, reward)
                    for task_id, expiry, reward in zip(
                        self.task_ids[a:b], self.expiry[a:b], self.rewards[a:b]
                    )
                )
            )
        return dp

    def __iter__(self):
        return iter(self.objects())

    def objects(self) -> Tuple[DeliveryPoint, ...]:
        """Every point's object, the missing ones built now."""
        if self._all is None:
            self._all = tuple(map(self.__getitem__, range(len(self.ids))))
        return self._all

    @property
    def position(self) -> Dict[str, int]:
        """``{dp_id: index}``, built on first access."""
        if self._position is None:
            self._position = {dp_id: i for i, dp_id in enumerate(self.ids)}
        return self._position

    def tasks_of(self, i: int) -> List[str]:
        """Point ``i``'s task ids, in task order."""
        return self.task_ids[self.starts[i] : self.starts[i + 1]]

    def same_point(self, i: int, other: "PointColumns", j: int) -> bool:
        """Whether point ``i`` equals ``other``'s point ``j`` as objects would:
        location, service hours and every task field."""
        a, b = self.starts[i], self.starts[i + 1]
        c, d = other.starts[j], other.starts[j + 1]
        mine, theirs = self.bare[i], other.bare[j]
        return (
            (
                mine is theirs
                or (
                    mine.location == theirs.location
                    and mine.service_hours == theirs.service_hours
                )
            )
            and self.expiry[a:b] == other.expiry[c:d]
            and self.task_ids[a:b] == other.task_ids[c:d]
            and self.rewards[a:b] == other.rewards[c:d]
        )

    def adopt(self, previous: "PointColumns") -> None:
        """Take over ``previous``'s built objects of the points whose tasks
        are the same.  Both must hold deadlines relative to one instant:
        then equal task ids mean equal tasks."""
        position = self.position
        for j, dp in enumerate(previous._objects):
            if dp is None:
                continue
            i = position.get(previous.ids[j])
            if (
                i is not None
                and self._objects[i] is None
                and previous.tasks_of(j) == self.tasks_of(i)
            ):
                self._objects[i] = dp


class ColumnCenter(DistributionCenter):
    """A center made from its columns: its ``delivery_points`` tuple is
    built on first read, from point objects built once each.

    Equal to, and pickled as, the plain
    :class:`~repro.core.entities.DistributionCenter` with those points.
    """

    def __init__(self, center_id: str, location, columns: PointColumns) -> None:
        object.__setattr__(self, "center_id", center_id)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "_columns", columns)

    @property
    def delivery_points(self) -> Tuple[DeliveryPoint, ...]:  # type: ignore[override]
        """The point objects, in sorted-id order, built on first read."""
        return self._columns.objects()

    def __reduce__(self):
        return DistributionCenter, (self.center_id, self.location, self.delivery_points)
