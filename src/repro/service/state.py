"""Mutable world state of the online dispatch service.

The world every dispatch round reads and commits into, made safe for
concurrent churn: distribution centers are a fixed layout, while workers
and pending tasks arrive and leave through thread-safe operations
(``POST /tasks``, ``POST /workers``, or
:class:`~repro.sim.platform.DispatchSimulator`'s arrival process).  All
times are hours on one logical service clock (``now``); task expiries are
*absolute* (:class:`TaskArrival`), and each snapshot converts them to the
relative deadlines (Definition 3) the solvers consume.

A :class:`WorldSnapshot` is an immutable, per-round view: the
:class:`~repro.core.instance.SubProblem` of every active center plus a
catalog key per center.  The key is ``(center version, now)``: every
mutation bumps an in-memory version counter of exactly the centers it
touches (a task landing on or leaving one of its delivery points, a worker
joining it or committing a route from it), and ``now`` moves every
relative deadline.  Everything a strategy catalog depends on — worker
positions, capacities and availability, task deadlines and rewards — is a
function of those two, so equal keys prove a center unchanged and the
engine's catalog cache can skip the C-VDPS refresh.

Pending tasks live in one columnar table (:class:`_TaskTable`): task id,
point slot, absolute expiry and reward, in (point slot, task id) order,
where every center's points hold one contiguous run of slots in sorted-id
order.  Ingest only queues arrivals; the next read files them into the
table.  A snapshot is then a few vector passes over the whole table: the
relative deadlines ``expiry - now`` (Definition 3, the same IEEE
subtraction as a scalar loop), the filter that drops expired tasks and
tasks hopeless even from the center (Definition 6), each point's earliest
deadline, and each point's reward total — a Python ``sum`` in task-id
order, so it equals ``DeliveryPoint.total_reward``.  Each center's slice
becomes its :class:`~repro.core.columns.PointColumns`, which the catalog
kernels read directly; ``sub.center.delivery_points`` is the same tuple
of :class:`~repro.core.entities.DeliveryPoint` objects as ever, but each
point object is built on first read (by the picked routes, the verifier,
:meth:`WorldSnapshot.instance`), once per snapshot.  While the clock
stands still a point whose tasks did not change keeps its object from the
previous snapshot.  :func:`repro.oracle.scratch_snapshot` is the
from-scratch reference the property suite holds this against.  The
version counters live in memory only: they are neither journaled nor part
of :meth:`WorldState.fingerprint`, and a recovered world starts with fresh
counters.

Durability: attaching a :class:`~repro.service.journal.WorldJournal` makes
every mutation write-ahead — the record is fsynced *before* the in-memory
state changes — and :meth:`WorldState.recover` replays a journal into a
bit-identical world (see ``docs/fault_tolerance.md`` for the format and
the recovery runbook).
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.assignment import Assignment
from repro.core.columns import ColumnCenter, PointColumns
from repro.core.entities import DeliveryPoint, DistributionCenter, Worker
from repro.core.instance import ProblemInstance, SubProblem
from repro.equity.ledger import EquityLedger
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.obs.metrics import METRICS
from repro.service.journal import JournalCorruption, WorldJournal


@dataclass(frozen=True)
class TaskArrival:
    """One task landing on the platform.

    ``expiry`` is *absolute* clock time (hours since start), unlike
    :class:`~repro.core.entities.SpatialTask` whose expiry is relative to
    the assignment instant; each :meth:`WorldState.snapshot` converts
    between the two.
    """

    task_id: str
    dp_id: str
    arrival_time: float
    expiry: float
    reward: float = 1.0

    def remaining(self, now: float) -> float:
        """Time left before expiry at ``now`` (may be negative)."""
        return self.expiry - now


@dataclass
class WorkerState:
    """Clock-time state of one worker.

    The core entities are immutable; the world tracks each worker's
    evolving position, availability, and cumulative earnings here and
    hands snapshots a :class:`~repro.core.entities.Worker` at the current
    position, the same object until the template or location changes.
    """

    template: Worker
    location: Point
    available_at: float = 0.0
    earnings: float = 0.0
    working_hours: float = 0.0
    deliveries: int = 0
    assignments: int = 0
    _snapshot: Optional[Tuple[Worker, Point, Worker]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_worker(cls, worker: Worker) -> "WorkerState":
        return cls(template=worker, location=worker.location)

    @property
    def worker_id(self) -> str:
        return self.template.worker_id

    def is_available(self, now: float) -> bool:
        """Whether the worker can accept a new route at time ``now``."""
        return self.template.online and self.available_at <= now

    def snapshot(self) -> Worker:
        """An immutable Worker at the current location (cached while the
        template and location stay the same objects)."""
        cached = self._snapshot
        if (
            cached is None
            or cached[0] is not self.template
            or cached[1] is not self.location
        ):
            worker = Worker(
                self.template.worker_id,
                self.location,
                self.template.max_delivery_points,
                self.template.center_id,
                online=True,
                speed_kmh=self.template.speed_kmh,
            )
            cached = self._snapshot = (self.template, self.location, worker)
        return cached[2]

    def commit_route(
        self, now: float, completion_time: float, reward: float,
        deliveries: int, end_location: Point,
    ) -> None:
        """Record an accepted route: busy until done, richer afterwards.

        ``completion_time`` is the route's absolute duration from ``now``
        (the worker-relative arrival time at the final point).
        """
        if completion_time < 0:
            raise ValueError(f"completion_time must be >= 0, got {completion_time}")
        self.available_at = now + completion_time
        self.location = end_location
        self.earnings += reward
        self.working_hours += completion_time
        self.deliveries += deliveries
        self.assignments += 1

    @property
    def earning_rate(self) -> float:
        """Cumulative earnings per working hour (0 while never assigned).

        This is the long-run analogue of the paper's per-assignment payoff
        (reward over travel time).
        """
        if self.working_hours <= 0:
            return 0.0
        return self.earnings / self.working_hours


class _RecordingJournal:
    """In-memory stand-in for a :class:`WorldJournal` during one round.

    Shard workers suspend the real journal for the duration of a dispatch
    round and capture the round's mutation records here; the whole round is
    then made durable as a single ``shard_round`` record (see
    :meth:`WorldState.append_shard_round`), which is the unit of
    exactly-once redo after a crash.
    """

    def __init__(self) -> None:
        self.ops: List[Tuple[str, Dict]] = []

    def append(self, kind: str, data: Dict) -> None:
        self.ops.append((kind, data))

    def should_compact(self) -> bool:
        return False


@dataclass(frozen=True)
class Rejection:
    """Why one submitted task or worker was not accepted."""

    item_id: str
    reason: str

    def as_dict(self) -> Dict[str, str]:
        """JSON-ready ``{"id", "reason"}`` pair for API responses."""
        return {"id": self.item_id, "reason": self.reason}


class _TaskTable:
    """Every pending task as columns, in (point slot, task id) order.

    Arrivals queue in ``_incoming`` and are filed into the sorted columns
    on the next read, so ingest costs one append per task.  The arrays a
    snapshot reads are rebuilt only after the table changed.
    """

    def __init__(self, slot_of: Mapping[str, int]) -> None:
        self._slot_of = slot_of
        self._keys: List[Tuple[int, str]] = []  # (slot, task id), sorted
        self._expiry: List[float] = []
        self._reward: List[float] = []
        self._incoming: List[TaskArrival] = []
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None

    def add(self, arrivals: Sequence[TaskArrival]) -> None:
        """Queue ``arrivals`` for filing."""
        self._incoming.extend(arrivals)

    def remove(self, arrivals: Iterable[TaskArrival]) -> None:
        """Drop pending ``arrivals`` from the table."""
        self._file()
        keys, expiry, reward = self._keys, self._expiry, self._reward
        for arrival in arrivals:
            i = bisect.bisect_left(
                keys, (self._slot_of[arrival.dp_id], arrival.task_id)
            )
            del keys[i], expiry[i], reward[i]
        self._arrays = None

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """``(slot, expiry, task id, reward)``, one entry per pending task."""
        self._file()
        if self._arrays is None:
            keys, n = self._keys, len(self._keys)
            self._arrays = (
                np.fromiter(map(itemgetter(0), keys), np.intp, n),
                np.array(self._expiry, dtype=np.float64),
                np.fromiter(map(itemgetter(1), keys), object, n),
                np.fromiter(self._reward, object, n),
            )
        return self._arrays

    def _file(self) -> None:
        """Insert the queued arrivals at their sorted positions."""
        if not self._incoming:
            return
        keys, expiry, reward = self._keys, self._expiry, self._reward
        for arrival in self._incoming:
            key = (self._slot_of[arrival.dp_id], arrival.task_id)
            i = bisect.bisect_left(keys, key)
            keys.insert(i, key)
            expiry.insert(i, arrival.expiry)
            reward.insert(i, arrival.reward)
        self._incoming = []
        self._arrays = None


@dataclass(frozen=True)
class WorldSnapshot:
    """One round's frozen view of the world.

    ``subproblems`` holds only *active* centers — at least one available
    worker and one delivery point with a dispatchable (unexpired, not
    hopeless) task — in center-id order; ``keys`` maps each to its
    ``(center version, now)`` catalog key (see the module doc).  Each
    center's dispatchable tasks are its columns'
    (``sub.center.columns``), so a commit removes exactly the tasks the
    round could deliver.
    """

    now: float
    subproblems: Tuple[SubProblem, ...]
    keys: Mapping[str, Tuple[int, float]]
    pending_tasks: int
    available_workers: int

    @property
    def center_ids(self) -> List[str]:
        return [sub.center.center_id for sub in self.subproblems]

    @property
    def task_ids(self) -> Dict[str, Tuple[str, ...]]:
        """Each active center's dispatchable task ids, in task-id order."""
        return {
            sub.center.center_id: tuple(sorted(sub.center.columns.task_ids))
            for sub in self.subproblems
        }

    def instance(self) -> ProblemInstance:
        """The snapshot as a solvable :class:`ProblemInstance`.

        Feeding this to :func:`repro.experiments.runner.run_algorithms`
        with the engine's round seed reproduces the service's round
        bit-for-bit (the end-to-end fidelity contract of the service).
        """
        if not self.subproblems:
            raise ValueError("an empty snapshot has no solvable instance")
        centers = tuple(sub.center for sub in self.subproblems)
        workers = tuple(w for sub in self.subproblems for w in sub.workers)
        return ProblemInstance(centers, workers, self.subproblems[0].travel)


class WorldState:
    """Centers, workers, and pending tasks with thread-safe churn ops.

    Parameters
    ----------
    centers:
        The fixed layout.  Tasks land on these centers' delivery points;
        any tasks already attached to the layout are ignored.
    workers:
        Optional initial fleet; more can join via :meth:`add_workers`.
    travel:
        Shared travel model for snapshots and nearest-center attachment.
    """

    def __init__(
        self,
        centers: Sequence[DistributionCenter],
        workers: Sequence[Worker] = (),
        travel: Optional[TravelModel] = None,
    ) -> None:
        if not centers:
            raise ValueError("the service needs at least one distribution center")
        self._lock = threading.RLock()
        self._travel = travel if travel is not None else TravelModel()
        self._centers: Dict[str, DistributionCenter] = {}
        self._layout: Dict[str, DeliveryPoint] = {}  # dp_id -> bare point
        self._dp_center: Dict[str, str] = {}  # dp_id -> center_id
        for center in centers:
            if center.center_id in self._centers:
                raise ValueError(f"duplicate center id {center.center_id!r}")
            if not center.delivery_points:
                raise ValueError(
                    f"center {center.center_id!r} has no delivery points"
                )
            bare_points = []
            for dp in center.delivery_points:
                if dp.dp_id in self._layout:
                    raise ValueError(f"duplicate delivery point id {dp.dp_id!r}")
                bare = dp.with_tasks(())
                bare_points.append(bare)
                self._layout[dp.dp_id] = bare
                self._dp_center[dp.dp_id] = center.center_id
            self._centers[center.center_id] = DistributionCenter(
                center.center_id, center.location, tuple(bare_points)
            )
        self._workers: Dict[str, WorkerState] = {}
        self._worker_center: Dict[str, str] = {}
        self._pending: Dict[str, TaskArrival] = {}  # task_id -> arrival
        self._seen_tasks: set = set()
        # The snapshot's layout (see the module doc): centers in id order,
        # each a run of point slots [_center_cut[c], _center_cut[c + 1])
        # in sorted-id order, with each slot's bare point and travel time
        # from its center (the layout and the travel model are fixed).
        self._center_order: List[str] = sorted(self._centers)
        self._slot_points: List[DeliveryPoint] = []
        for cid in self._center_order:
            self._slot_points.extend(
                sorted(self._centers[cid].delivery_points, key=lambda dp: dp.dp_id)
            )
        self._slot_of: Dict[str, int] = {
            dp.dp_id: k for k, dp in enumerate(self._slot_points)
        }
        sizes = [len(self._centers[cid].delivery_points) for cid in self._center_order]
        self._center_cut = np.cumsum([0, *sizes])
        self._slot_leg = np.array(
            [
                self._travel.time(
                    self._centers[self._dp_center[dp.dp_id]].location, dp.location
                )
                for dp in self._slot_points
            ],
            dtype=np.float64,
        )
        self._tasks = _TaskTable(self._slot_of)
        self._center_workers: Dict[str, List[str]] = {
            cid: [] for cid in self._centers
        }
        self._center_version: Dict[str, int] = dict.fromkeys(self._centers, 0)
        # The last snapshot's columns and clock: point objects built on
        # them carry over while the clock stands still.
        self._last_columns: Dict[str, PointColumns] = {}
        self._last_now: Optional[float] = None
        self._journal: Optional[WorldJournal] = None
        self._equity: Optional[EquityLedger] = None
        self._last_round: Optional[Dict] = None
        self.now: float = 0.0
        self.version: int = 0
        for worker in workers:
            rejected = self.add_workers([worker])[1]
            if rejected:
                raise ValueError(rejected[0].reason)

    # -- properties ---------------------------------------------------------

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    @property
    def travel(self) -> TravelModel:
        return self._travel

    @property
    def centers(self) -> Tuple[DistributionCenter, ...]:
        return tuple(self._centers[cid] for cid in sorted(self._centers))

    @property
    def pending_task_count(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def available_worker_count(self, now: Optional[float] = None) -> int:
        """Number of workers free to take a route at ``now`` (default: clock)."""
        with self._lock:
            at = self.now if now is None else now
            return sum(1 for w in self._workers.values() if w.is_available(at))

    # -- temporal fairness ---------------------------------------------------

    @property
    def equity(self) -> Optional[EquityLedger]:
        """The cross-round equity ledger, or ``None`` when not enabled."""
        return self._equity

    def enable_equity(
        self, decay: Optional[float] = None, window: Optional[int] = None
    ) -> EquityLedger:
        """Attach an :class:`~repro.equity.ledger.EquityLedger` to this world.

        Idempotent: an already-attached ledger (e.g. restored from a
        journal checkpoint or replayed ``equity`` records by
        :meth:`recover`) is kept — its accrued state must not be reset by
        the serving process re-declaring ``--equity`` on restart.  The
        ``decay``/``window`` arguments only apply when creating a fresh
        ledger.
        """
        with self._lock:
            if self._equity is None:
                kwargs = {}
                if decay is not None:
                    kwargs["decay"] = decay
                if window is not None:
                    kwargs["window"] = window
                self._equity = EquityLedger(**kwargs)
            return self._equity

    def record_equity(self, payoffs: Mapping[str, float]) -> None:
        """Fold one round's per-worker payoffs into the equity ledger.

        Write-ahead durable like every other mutation: the ``equity``
        record (which carries the ledger's decay/window so replay can
        recreate it from scratch) is journaled before the in-memory
        ledger changes, and replaying the records reproduces the ledger
        bit-identically (all ledger arithmetic iterates sorted worker
        ids — see :mod:`repro.equity.ledger`).
        """
        with self._lock:
            if self._equity is None:
                raise ValueError(
                    "equity ledger not enabled; call enable_equity() first"
                )
            self._journal_append(
                "equity",
                {
                    "decay": self._equity.decay,
                    "window": self._equity.window,
                    "payoffs": {
                        wid: float(payoffs[wid]) for wid in sorted(payoffs)
                    },
                },
            )
            self._equity.record_round(payoffs)
            self.version += 1
            self._maybe_compact()

    def worker_states(self) -> List[WorkerState]:
        """Copies of every worker's cumulative state, in worker-id order."""
        with self._lock:
            return [
                dataclasses.replace(state)
                for _, state in sorted(self._workers.items())
            ]

    def worker_stats(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-worker outcomes (earnings, deliveries, rate)."""
        with self._lock:
            return {
                wid: {
                    "center_id": self._worker_center[wid],
                    "earnings": state.earnings,
                    "deliveries": state.deliveries,
                    "assignments": state.assignments,
                    "working_hours": state.working_hours,
                    "earning_rate": state.earning_rate,
                    "available_at": state.available_at,
                }
                for wid, state in sorted(self._workers.items())
            }

    # -- churn --------------------------------------------------------------

    def add_tasks(
        self, tasks: Sequence
    ) -> Tuple[List[str], List[Rejection]]:
        """Enqueue tasks; returns ``(accepted ids, rejections)``.

        Each task is a :class:`TaskArrival` or a dict
        with ``task_id``, ``dp_id``, ``expiry`` (absolute hours) and an
        optional ``reward``.  Tasks on unknown delivery points, duplicate
        ids, or already-expired deadlines are rejected, not raised: churn
        endpoints must stay up under bad input.
        """
        accepted: List[str] = []
        rejections: List[Rejection] = []
        with self._lock:
            # Two-phase for write-ahead durability: validate the whole batch
            # first, journal the accepted arrivals, then mutate.
            arrivals: List[TaskArrival] = []
            batch_ids: set = set()
            for item in tasks:
                try:
                    arrival = self._coerce_task(item)
                except (KeyError, TypeError, ValueError) as exc:
                    rejections.append(Rejection(str(self._item_id(item)), str(exc)))
                    continue
                if arrival.dp_id not in self._layout:
                    rejections.append(
                        Rejection(arrival.task_id, f"unknown delivery point {arrival.dp_id!r}")
                    )
                elif arrival.task_id in self._seen_tasks or arrival.task_id in batch_ids:
                    rejections.append(
                        Rejection(arrival.task_id, "duplicate task id")
                    )
                elif arrival.expiry <= self.now:
                    rejections.append(
                        Rejection(
                            arrival.task_id,
                            f"expiry {arrival.expiry} is not after now ({self.now})",
                        )
                    )
                else:
                    arrivals.append(arrival)
                    batch_ids.add(arrival.task_id)
            if arrivals:
                self._journal_append(
                    "tasks",
                    {"tasks": [self._arrival_dict(a) for a in arrivals]},
                )
            self._insert_tasks(arrivals)
            accepted.extend(arrival.task_id for arrival in arrivals)
            if accepted:
                self.version += 1
            self._maybe_compact()
        METRICS.counter("service.tasks.submitted").add(len(accepted))
        METRICS.counter("service.tasks.rejected").add(len(rejections))
        return accepted, rejections

    def add_workers(
        self, workers: Sequence
    ) -> Tuple[List[str], List[Rejection]]:
        """Register workers; returns ``(accepted ids, rejections)``.

        Each worker is a :class:`~repro.core.entities.Worker` or a dict
        with ``worker_id``, ``x``, ``y`` and optional ``max_delivery_points``,
        ``center_id``, ``speed_kmh``.  A worker without a center is attached
        to the nearest one, like :meth:`ProblemInstance.subproblems`.
        """
        accepted: List[str] = []
        rejections: List[Rejection] = []
        with self._lock:
            # Two-phase like add_tasks: validate + attach centers, journal
            # the accepted workers (post-attachment), then mutate.
            coerced: List[Worker] = []
            batch_ids: set = set()
            for item in workers:
                try:
                    worker = self._coerce_worker(item)
                except (KeyError, TypeError, ValueError) as exc:
                    rejections.append(Rejection(str(self._item_id(item)), str(exc)))
                    continue
                if worker.worker_id in self._workers or worker.worker_id in batch_ids:
                    rejections.append(
                        Rejection(worker.worker_id, "duplicate worker id")
                    )
                    continue
                if worker.center_id is not None and worker.center_id not in self._centers:
                    rejections.append(
                        Rejection(
                            worker.worker_id,
                            f"unknown center {worker.center_id!r}",
                        )
                    )
                    continue
                if worker.center_id is None:
                    nearest = min(
                        self._centers.values(),
                        key=lambda c: self._travel.distance(worker.location, c.location),
                    )
                    worker = worker.assigned_to(nearest.center_id)
                coerced.append(worker)
                batch_ids.add(worker.worker_id)
            if coerced:
                self._journal_append(
                    "workers",
                    {"workers": [self._worker_dict(w) for w in coerced]},
                )
            self._insert_workers(WorkerState.from_worker(w) for w in coerced)
            accepted.extend(worker.worker_id for worker in coerced)
            if accepted:
                self.version += 1
            self._maybe_compact()
        METRICS.counter("service.workers.added").add(len(accepted))
        METRICS.counter("service.workers.rejected").add(len(rejections))
        return accepted, rejections

    def advance(self, hours: float) -> None:
        """Move the service clock forward (never backward)."""
        if hours < 0:
            raise ValueError(f"cannot advance by negative hours ({hours})")
        if hours:
            with self._lock:
                self._journal_append("advance", {"hours": float(hours)})
                self.now += hours
                self.version += 1
                self._maybe_compact()

    def expire(self) -> List[str]:
        """Drop tasks whose absolute expiry has been reached (``<= now``).

        A task expiring exactly at a round boundary is expired, never
        dispatched: the snapshot offers only tasks with ``expiry > now``.
        """
        with self._lock:
            gone = [
                tid for tid, t in self._pending.items() if t.expiry <= self.now
            ]
            if gone:
                self._journal_append("expire", {"task_ids": list(gone)})
                self._drop_tasks(gone)
                self.version += 1
            self._maybe_compact()
        METRICS.counter("service.tasks.expired").add(len(gone))
        return gone

    # -- snapshot & commit --------------------------------------------------

    def snapshot(self) -> WorldSnapshot:
        """Freeze the dispatchable world at ``now`` (see the module doc)."""
        with self._lock:
            now = self.now
            slots, expiry, task_ids, rewards = self._tasks.arrays()
            # Relative deadlines; keep what is neither expired nor hopeless
            # even from the center (Definition 6).
            remaining = expiry - now
            kept = np.flatnonzero(
                (remaining > 0) & (remaining > self._slot_leg[slots])
            )
            kept_slots = slots[kept]
            # Each kept point's run of tasks, and each center's run of points.
            first = np.ones(kept.size, dtype=bool)
            np.not_equal(kept_slots[1:], kept_slots[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            point_slots = kept_slots[starts]
            deadlines = (
                np.minimum.reduceat(remaining[kept], starts)
                if starts.size
                else remaining[:0]
            )
            kept_rewards = rewards[kept].tolist()
            bounds = [*starts.tolist(), kept.size]
            totals = [sum(kept_rewards[a:b]) for a, b in zip(bounds, bounds[1:])]
            kept_expiry = remaining[kept].tolist()
            kept_ids = task_ids[kept].tolist()
            point_slot_list = point_slots.tolist()
            cuts = np.searchsorted(point_slots, self._center_cut).tolist()
            carry = self._last_now == now
            subs: List[SubProblem] = []
            keys: Dict[str, Tuple[int, float]] = {}
            columns_of: Dict[str, PointColumns] = {}
            available_workers = 0
            for c, center_id in enumerate(self._center_order):
                available = [
                    state
                    for state in map(
                        self._workers.__getitem__, self._center_workers[center_id]
                    )
                    if state.is_available(now)
                ]
                available_workers += len(available)
                pa, pb = cuts[c], cuts[c + 1]
                if not available or pa == pb:
                    continue
                ta = bounds[pa]
                columns = PointColumns(
                    [self._slot_points[k] for k in point_slot_list[pa:pb]],
                    deadlines[pa:pb],
                    totals[pa:pb],
                    [b - ta for b in bounds[pa : pb + 1]],
                    kept_ids[ta : bounds[pb]],
                    kept_expiry[ta : bounds[pb]],
                    kept_rewards[ta : bounds[pb]],
                )
                previous = self._last_columns.get(center_id)
                if carry and previous is not None:
                    columns.adopt(previous)
                columns_of[center_id] = columns
                center = self._centers[center_id]
                subs.append(
                    SubProblem(
                        ColumnCenter(center_id, center.location, columns),
                        tuple(state.snapshot() for state in available),
                        self._travel,
                    )
                )
                keys[center_id] = (self._center_version[center_id], now)
            self._last_columns, self._last_now = columns_of, now
            return WorldSnapshot(
                now=now,
                subproblems=tuple(subs),
                keys=keys,
                pending_tasks=len(self._pending),
                available_workers=available_workers,
            )

    # -- incremental bookkeeping ----------------------------------------------

    def _touch(self, center_ids: Iterable[str]) -> None:
        """Bump the version of each of ``center_ids`` once."""
        for center_id in set(center_ids):
            self._center_version[center_id] += 1

    def _insert_tasks(self, arrivals: Iterable[TaskArrival]) -> None:
        """Enqueue validated arrivals (live churn and journal replay)."""
        arrivals = list(arrivals)
        for arrival in arrivals:
            self._pending[arrival.task_id] = arrival
            self._seen_tasks.add(arrival.task_id)
        self._tasks.add(arrivals)
        self._touch([self._dp_center[arrival.dp_id] for arrival in arrivals])

    def _drop_tasks(self, task_ids: Iterable[str]) -> None:
        """Dequeue tasks; ids no longer pending are ignored."""
        gone = [
            arrival
            for arrival in map(self._pending.pop, task_ids, repeat(None))
            if arrival is not None
        ]
        self._tasks.remove(gone)
        self._touch([self._dp_center[arrival.dp_id] for arrival in gone])

    def _insert_workers(self, states: Iterable[WorkerState]) -> None:
        """Register worker states (live churn, journal replay, checkpoint)."""
        touched = []
        for state in states:
            wid, center_id = state.worker_id, state.template.center_id
            self._workers[wid] = state
            self._worker_center[wid] = center_id
            bisect.insort(self._center_workers[center_id], wid)
            touched.append(center_id)
        self._touch(touched)

    def commit(
        self, snapshot: WorldSnapshot, assignments: Mapping[str, Assignment]
    ) -> int:
        """Apply a round's routes to the world.

        Assigned workers go busy until their route completes and reappear
        at their last drop-off; the delivered delivery points' tasks leave
        the queue.  Returns the number of tasks committed.
        """
        assigned_tasks = 0
        with self._lock:
            # Two-phase for write-ahead durability: derive every route op and
            # removed task id without mutating, journal the round, then apply.
            routes: List[Dict[str, object]] = []
            removed: List[str] = []
            subs = {sub.center.center_id: sub for sub in snapshot.subproblems}
            for center_id, assignment in assignments.items():
                delivered_dps: set = set()
                for pair in assignment:
                    if pair.route is None or len(pair.route) == 0:
                        continue
                    if pair.worker.worker_id not in self._workers:
                        continue  # worker left between snapshot and commit
                    end = pair.route.sequence[-1].location
                    routes.append(
                        {
                            "worker_id": pair.worker.worker_id,
                            "completion_time": pair.route.completion_time,
                            "reward": pair.route.total_reward,
                            "deliveries": pair.task_count,
                            "end": [end.x, end.y],
                        }
                    )
                    delivered_dps.update(pair.delivery_point_ids)
                sub = subs.get(center_id)
                if sub is None or not delivered_dps:
                    continue
                # The delivered points' task ids, each a sorted run of the
                # snapshot's columns, merged into task-id order.
                columns = sub.center.columns
                delivered = [
                    columns.tasks_of(i)
                    for i, dp_id in enumerate(columns.ids)
                    if dp_id in delivered_dps
                ]
                removed.extend(
                    tid for tid in sorted(chain(*delivered)) if tid in self._pending
                )
            if routes or removed:
                self._journal_append(
                    "commit",
                    {"now": snapshot.now, "routes": routes, "removed": removed},
                )
            assigned_tasks = self._apply_commit(snapshot.now, routes, removed)
            self._maybe_compact()
        METRICS.counter("service.tasks.assigned").add(assigned_tasks)
        return assigned_tasks

    def _apply_commit(
        self,
        now: float,
        routes: Sequence[Mapping[str, object]],
        removed: Sequence[str],
    ) -> int:
        """Apply a derived (journal-shaped) commit record; returns task count.

        Shared by the live :meth:`commit` path and journal replay so the
        two are one code path and recovery is bit-identical by construction.
        """
        assigned_tasks = 0
        moved = []
        for op in routes:
            wid = str(op["worker_id"])
            state = self._workers.get(wid)
            if state is None:
                continue
            end = op["end"]
            state.commit_route(
                now,
                completion_time=float(op["completion_time"]),  # type: ignore[arg-type]
                reward=float(op["reward"]),  # type: ignore[arg-type]
                deliveries=int(op["deliveries"]),  # type: ignore[arg-type]
                end_location=Point(float(end[0]), float(end[1])),  # type: ignore[index]
            )
            moved.append(self._worker_center[wid])
            assigned_tasks += int(op["deliveries"])  # type: ignore[arg-type]
        self._touch(moved)
        self._drop_tasks(removed)
        if assigned_tasks:
            self.version += 1
        return assigned_tasks

    # -- durability ---------------------------------------------------------

    def attach_journal(self, journal: WorldJournal) -> None:
        """Make every subsequent mutation write-ahead durable.

        An empty journal is seeded with a ``genesis`` record (the fixed
        center layout and travel speed) plus a ``checkpoint`` of the
        current dynamic state, so attaching to an already-populated world
        (the CLI builds the world, then attaches) loses nothing.  A
        non-empty journal is resumed as-is; the caller is expected to have
        built this state via :meth:`recover` from that same file.
        """
        with self._lock:
            self._journal = journal
            if journal.is_empty:
                journal.append("genesis", self._genesis_dict())
                journal.append("checkpoint", self._checkpoint_dict())

    @property
    def journal(self) -> Optional[WorldJournal]:
        return self._journal

    # -- shard-round durability (sharded dispatch) --------------------------

    @property
    def last_round(self) -> Optional[Dict]:
        """The last dispatch round durably applied to this partition.

        ``{"index", "committed", "result"}`` or ``None``.  Written by
        :meth:`note_round` / :meth:`append_shard_round` and restored by
        journal replay, it is how a respawned shard worker answers a
        retried round RPC instead of double-applying the round.
        """
        with self._lock:
            return self._last_round

    @contextmanager
    def capture_journal(self) -> Iterator[_RecordingJournal]:
        """Suspend the journal for one round, capturing its records.

        While active, mutations are validated and applied in memory as
        usual but their journal records land in the yielded recorder
        instead of on disk.  The caller then makes the whole round durable
        atomically via :meth:`append_shard_round` — crash before that
        append loses only in-memory state, so a deterministic redo of the
        round is bit-identical; crash after it replays the captured ops.
        """
        recorder = _RecordingJournal()
        with self._lock:
            real, self._journal = self._journal, recorder
        try:
            yield recorder
        finally:
            with self._lock:
                self._journal = real

    def note_round(self, index: int, result: Dict, committed: bool) -> None:
        """Record the last applied round in memory (journal-less worlds)."""
        with self._lock:
            self._last_round = {
                "index": int(index),
                "committed": bool(committed),
                "result": result,
            }

    def append_shard_round(
        self,
        index: int,
        committed: bool,
        ops: Sequence[Tuple[str, Dict]],
        result: Dict,
    ) -> None:
        """Durably record one completed dispatch round as a single record.

        ``ops`` are the journal records the round generated (captured by
        :meth:`capture_journal`); ``result`` is the JSON-ready round result
        returned to the supervisor.  The record is the shard's
        exactly-once boundary: replay re-applies the inner ops and
        restores :attr:`last_round`, so a retried round RPC after a crash
        returns the journaled result instead of running the round twice.
        """
        self.note_round(index, result, committed)
        with self._lock:
            self._journal_append(
                "shard_round",
                {
                    "index": int(index),
                    "committed": bool(committed),
                    "ops": [[kind, data] for kind, data in ops],
                    "result": result,
                },
            )
            self._maybe_compact()

    def _journal_append(self, kind: str, data: Dict) -> None:
        """Write-ahead append (no-op without a journal).

        Called under ``self._lock`` *before* the matching in-memory
        mutation; :meth:`WorldJournal.append` only returns once the record
        is fsynced, which is the durability contract.
        """
        if self._journal is not None:
            self._journal.append(kind, data)

    def _maybe_compact(self) -> None:
        """Compact when the journal's auto-threshold has been crossed."""
        if self._journal is not None and self._journal.should_compact():
            self.compact_journal()

    def compact_journal(self) -> None:
        """Rewrite the journal as ``genesis`` + ``checkpoint`` of now.

        Bounds journal growth (and recovery time) without losing anything:
        replaying the two records reproduces the current state exactly.
        """
        with self._lock:
            if self._journal is None:
                raise ValueError("no journal attached to this WorldState")
            self._journal.rewrite(
                [
                    ("genesis", self._genesis_dict()),
                    ("checkpoint", self._checkpoint_dict()),
                ]
            )

    def fingerprint(self) -> str:
        """Content hash of the full dynamic state (recovery equality checks).

        Covers the clock, every worker's cumulative outcomes and position,
        and every pending task, with floats hashed via ``float.hex`` so the
        comparison is bit-exact — the kill-and-recover acceptance test
        compares this against a never-crashed reference.
        """
        with self._lock:
            digest = hashlib.sha256()
            digest.update(f"now|{float(self.now).hex()}".encode())
            for wid in sorted(self._workers):
                st = self._workers[wid]
                digest.update(
                    f"w|{wid}|{self._worker_center[wid]}|"
                    f"{st.location.x.hex()}|{st.location.y.hex()}|"
                    f"{float(st.available_at).hex()}|{float(st.earnings).hex()}|"
                    f"{float(st.working_hours).hex()}|{st.deliveries}|"
                    f"{st.assignments}|{int(st.template.online)}".encode()
                )
            for tid in sorted(self._pending):
                a = self._pending[tid]
                digest.update(
                    f"t|{tid}|{a.dp_id}|{float(a.arrival_time).hex()}|"
                    f"{float(a.expiry).hex()}|{float(a.reward).hex()}".encode()
                )
            if self._equity is not None:
                # Gated on presence so equity-off fingerprints are
                # unchanged from pre-ledger journals and processes.
                for item in self._equity.fingerprint_items():
                    digest.update(f"e|{item}".encode())
            return digest.hexdigest()

    # -- journal (de)serialisation ------------------------------------------

    def _genesis_dict(self) -> Dict:
        """The fixed layout: centers, delivery points, travel speed."""
        return {
            "speed_kmh": self._travel.speed_kmh,
            "centers": [
                {
                    "center_id": c.center_id,
                    "x": c.location.x,
                    "y": c.location.y,
                    "delivery_points": [
                        {
                            "dp_id": dp.dp_id,
                            "x": dp.location.x,
                            "y": dp.location.y,
                            "service_hours": dp.service_hours,
                        }
                        for dp in c.delivery_points
                    ],
                }
                for c in self.centers
            ],
        }

    def _checkpoint_dict(self) -> Dict:
        """Full dump of the dynamic state (compaction / recovery anchor)."""
        data = {
            "now": self.now,
            "version": self.version,
            "seen_tasks": sorted(self._seen_tasks),
            "pending": [
                self._arrival_dict(self._pending[tid])
                for tid in sorted(self._pending)
            ],
            "workers": [
                self._worker_state_dict(self._workers[wid])
                for wid in sorted(self._workers)
            ],
        }
        if self._equity is not None:
            data["equity"] = self._equity.as_dict()
        if self._last_round is not None:
            data["last_round"] = self._last_round
        return data

    @staticmethod
    def _arrival_dict(arrival: TaskArrival) -> Dict:
        return {
            "task_id": arrival.task_id,
            "dp_id": arrival.dp_id,
            "arrival_time": arrival.arrival_time,
            "expiry": arrival.expiry,
            "reward": arrival.reward,
        }

    @staticmethod
    def _worker_dict(worker: Worker) -> Dict:
        return {
            "worker_id": worker.worker_id,
            "x": worker.location.x,
            "y": worker.location.y,
            "max_delivery_points": worker.max_delivery_points,
            "center_id": worker.center_id,
            "online": worker.online,
            "speed_kmh": worker.speed_kmh,
        }

    @staticmethod
    def _worker_state_dict(state: WorkerState) -> Dict:
        data = WorldState._worker_dict(state.template)
        data.update(
            {
                "location": [state.location.x, state.location.y],
                "available_at": state.available_at,
                "earnings": state.earnings,
                "working_hours": state.working_hours,
                "deliveries": state.deliveries,
                "assignments": state.assignments,
            }
        )
        return data

    @staticmethod
    def _worker_from_dict(data: Mapping) -> Worker:
        speed = data.get("speed_kmh")
        return Worker(
            worker_id=str(data["worker_id"]),
            location=Point(float(data["x"]), float(data["y"])),
            max_delivery_points=int(data["max_delivery_points"]),
            center_id=data.get("center_id"),
            online=bool(data.get("online", True)),
            speed_kmh=None if speed is None else float(speed),
        )

    @staticmethod
    def _arrival_from_dict(data: Mapping) -> TaskArrival:
        return TaskArrival(
            task_id=str(data["task_id"]),
            dp_id=str(data["dp_id"]),
            arrival_time=float(data["arrival_time"]),
            expiry=float(data["expiry"]),
            reward=float(data["reward"]),
        )

    # -- recovery -----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        path,
        travel: Optional[TravelModel] = None,
        resume: bool = True,
        fsync: bool = True,
        compact_every: Optional[int] = None,
    ) -> "WorldState":
        """Rebuild a :class:`WorldState` from a write-ahead journal.

        Reads the journal (tolerating a crash-torn final record), rebuilds
        the layout from the ``genesis`` record, fast-forwards from the last
        ``checkpoint``, and replays every later mutation record in order;
        records whose ``seq`` does not advance are skipped, making
        duplicate appends idempotent.  The result is bit-identical (see
        :meth:`fingerprint`) to the state at the last fsynced record.

        Parameters
        ----------
        path:
            The journal file written by a previous process.
        travel:
            Optional travel-model override.  By default the genesis
            record's ``speed_kmh`` rebuilds a Euclidean model (the service
            default); pass an explicit model when serving a non-default
            metric.
        resume:
            Attach a :class:`WorldJournal` continuing at the next sequence
            number so the recovered world keeps journaling to ``path``.
            Any crash-torn tail is physically truncated first, so the
            resumed journal stays recoverable across further crashes.
        """
        records, _torn, intact_end = WorldJournal.read(path)
        if not records:
            raise JournalCorruption(f"{path}: no intact journal records")
        genesis = records[0]
        if genesis.kind != "genesis":
            raise JournalCorruption(
                f"{path}: first record is {genesis.kind!r}, expected 'genesis'"
            )
        data = genesis.data
        if travel is None:
            travel = TravelModel(speed_kmh=float(data["speed_kmh"]))
        centers = tuple(
            DistributionCenter(
                str(c["center_id"]),
                Point(float(c["x"]), float(c["y"])),
                tuple(
                    DeliveryPoint(
                        str(dp["dp_id"]),
                        Point(float(dp["x"]), float(dp["y"])),
                        (),
                        float(dp.get("service_hours", 0.0)),
                    )
                    for dp in c["delivery_points"]
                ),
            )
            for c in data["centers"]
        )
        state = cls(centers, travel=travel)

        # Fast-forward from the last checkpoint, then replay what follows.
        start = 0
        for index, record in enumerate(records):
            if record.kind == "checkpoint":
                start = index
        applied_seq = -1
        for record in records[start:]:
            if record.seq <= applied_seq:
                continue  # duplicate append — already applied
            state._replay(record.kind, record.data)
            applied_seq = record.seq
        if resume:
            # Physically drop any torn tail before appending again: the
            # torn line has no newline, so an append would concatenate
            # onto it and leave the journal unrecoverable after the next
            # crash (damage followed by intact records).
            WorldJournal.truncate_to(path, intact_end)
            state._journal = WorldJournal(
                path,
                fsync=fsync,
                compact_every=compact_every,
                next_seq=applied_seq + 1,
            )
        METRICS.counter("service.journal.recoveries").add(1)
        return state

    def _replay(self, kind: str, data: Mapping) -> None:
        """Apply one journal record to the in-memory state."""
        if kind == "genesis":
            return  # fixed layout, consumed by recover() itself
        if kind == "checkpoint":
            self.now = float(data["now"])
            self.version = int(data["version"])
            # A checkpoint replaces the whole dynamic state.
            self._pending = {}
            self._tasks = _TaskTable(self._slot_of)
            self._last_columns = {}
            self._workers, self._worker_center = {}, {}
            for workers in self._center_workers.values():
                workers.clear()
            self._insert_tasks(map(self._arrival_from_dict, data["pending"]))
            self._seen_tasks = set(data["seen_tasks"])
            states = []
            for raw in data["workers"]:
                ws = WorkerState.from_worker(self._worker_from_dict(raw))
                loc = raw["location"]
                ws.location = Point(float(loc[0]), float(loc[1]))
                ws.available_at = float(raw["available_at"])
                ws.earnings = float(raw["earnings"])
                ws.working_hours = float(raw["working_hours"])
                ws.deliveries = int(raw["deliveries"])
                ws.assignments = int(raw["assignments"])
                states.append(ws)
            self._insert_workers(states)
            equity = data.get("equity")
            self._equity = (
                None if equity is None else EquityLedger.from_dict(equity)
            )
            last_round = data.get("last_round")
            self._last_round = None if last_round is None else dict(last_round)
        elif kind == "tasks":
            self._insert_tasks(map(self._arrival_from_dict, data["tasks"]))
            if data["tasks"]:
                self.version += 1
        elif kind == "workers":
            self._insert_workers(
                WorkerState.from_worker(self._worker_from_dict(raw))
                for raw in data["workers"]
            )
            if data["workers"]:
                self.version += 1
        elif kind == "advance":
            self.now += float(data["hours"])
            self.version += 1
        elif kind == "expire":
            self._drop_tasks(data["task_ids"])
            if data["task_ids"]:
                self.version += 1
        elif kind == "commit":
            self._apply_commit(
                float(data["now"]), data["routes"], data["removed"]
            )
        elif kind == "shard_round":
            # One whole dispatch round of a shard partition: re-apply the
            # captured inner records (advance/expire/commit) in order, then
            # restore the round marker the retry/idempotency path checks.
            for op_kind, op_data in data["ops"]:
                self._replay(op_kind, op_data)
            self._last_round = {
                "index": int(data["index"]),
                "committed": bool(data.get("committed", True)),
                "result": data["result"],
            }
        elif kind == "equity":
            # The record carries the ledger config so a journal written
            # under --equity replays even into a world built without it.
            if self._equity is None:
                self._equity = EquityLedger(
                    decay=float(data["decay"]), window=int(data["window"])
                )
            self._equity.record_round(
                {str(k): float(v) for k, v in data["payoffs"].items()}
            )
            self.version += 1
        else:
            raise JournalCorruption(f"unknown journal record kind {kind!r}")

    # -- coercion helpers ---------------------------------------------------

    @staticmethod
    def _item_id(item) -> str:
        if isinstance(item, Mapping):
            return item.get("task_id") or item.get("worker_id") or "?"
        return getattr(item, "task_id", getattr(item, "worker_id", "?"))

    def _coerce_task(self, item) -> TaskArrival:
        if isinstance(item, TaskArrival):
            return item
        if isinstance(item, Mapping):
            return TaskArrival(
                task_id=str(item["task_id"]),
                dp_id=str(item["dp_id"]),
                arrival_time=float(item.get("arrival_time", self.now)),
                expiry=float(item["expiry"]),
                reward=float(item.get("reward", 1.0)),
            )
        raise TypeError(f"cannot interpret {type(item).__name__} as a task")

    def _coerce_worker(self, item) -> Worker:
        if isinstance(item, Worker):
            return item
        if isinstance(item, Mapping):
            return Worker(
                worker_id=str(item["worker_id"]),
                location=Point(float(item["x"]), float(item["y"])),
                max_delivery_points=int(item.get("max_delivery_points", 3)),
                center_id=item.get("center_id"),
                speed_kmh=item.get("speed_kmh"),
            )
        raise TypeError(f"cannot interpret {type(item).__name__} as a worker")
