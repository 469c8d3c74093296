"""The sharded dispatch engine: one facade, N supervised worker processes.

:class:`ShardedDispatchEngine` duck-types the single-process
:class:`~repro.service.engine.DispatchEngine` surface the HTTP layer
consumes, but routes every center to a shard worker process chosen by
rendezvous hashing (:mod:`~repro.service.shards.hashing`).  Each worker
owns a :class:`~repro.service.state.WorldState` partition plus its own
journal segment and solves with the *same* root seed, round index, and
solver stream names as the single-process engine — so an N-shard run's
assignments are bit-identical to a 1-process run
(``tests/service/test_shards.py`` gates this).

Failure model (see :mod:`~repro.service.shards.supervisor`):

* a crashed or hung shard is SIGKILLed, respawned, journal-replayed, and
  the round RPC retried — the ``shard_round`` record makes the retry
  exactly-once, so a mid-round kill still yields bit-identical output;
* a shard that stays down past the retry budget degrades: its centers
  are flagged ``degraded: skip`` in the round record (tasks stay pending,
  its clock catches up on the next successful round) and ``/healthz``
  turns 503 with the per-shard breakdown;
* overload is shed, not queued: dispatch admission beyond ``queue_bound``
  raises :class:`~repro.service.engine.ServiceOverloaded`, which the API
  maps to 503 + ``Retry-After``.

Scope (documented divergences from the single-process engine): equity
mode is not supported in sharded mode, the view's
``journal`` is ``None`` (segments live inside the workers), and task-id
dedupe is shard-local (a duplicate id for the *same* delivery point is
caught; the same id resubmitted against a dp of another shard is not).
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.entities import DistributionCenter, Worker
from repro.geo.point import Point
from repro.core.fairness import gini_coefficient, jain_index
from repro.core.payoff import average_payoff, payoff_difference
from repro.geo.travel import TravelModel
from repro.obs.metrics import METRICS
from repro.service.engine import (
    EngineDraining,
    RoundResult,
    ServiceOverloaded,
)
from repro.service.faults import FaultPlan, resolve_faults
from repro.service.shards.hashing import plan_shards
from repro.service.shards.supervisor import (
    ShardBusy,
    ShardCrashed,
    ShardFailed,
    ShardRPCError,
    ShardSupervisor,
)
from repro.service.shards.worker import ShardSpec
from repro.service.state import Rejection, TaskArrival
from repro.utils.log import get_logger
from repro.utils.rng import RngFactory

_LOG = get_logger("service.shards.engine")

#: How long a fan-out info snapshot stays fresh (read-only endpoints).
_INFO_TTL_S = 0.25


class _MergedBreakerBoard:
    """Duck-types ``engine.breakers`` over the union of shard breakers."""

    def __init__(self, engine: "ShardedDispatchEngine") -> None:
        self._engine = engine

    def snapshot(self) -> Dict[str, Dict]:
        merged: Dict[str, Dict] = {}
        for info in self._engine._infos().values():
            merged.update(info.get("breakers") or {})
        return dict(sorted(merged.items()))

    def open_count(self) -> int:
        return sum(
            1
            for status in self.snapshot().values()
            if isinstance(status, dict) and status.get("state") == "open"
        )


class ShardedWorldView:
    """A read/churn facade over the union of the shard partitions.

    Duck-types the :class:`~repro.service.state.WorldState` surface the
    HTTP layer touches.  Reads fan out (with a short-TTL cache for the
    hot ``/healthz`` fields); churn routes each item to the shard that
    owns its delivery point / nearest center.
    """

    def __init__(self, engine: "ShardedDispatchEngine") -> None:
        self._engine = engine

    # -- read surface -------------------------------------------------------

    @property
    def travel(self) -> TravelModel:
        return self._engine._travel

    @property
    def centers(self) -> Tuple[DistributionCenter, ...]:
        return self._engine._centers

    @property
    def now(self) -> float:
        return self._engine._now

    @property
    def version(self) -> int:
        return sum(int(i.get("version", 0)) for i in self._engine._infos().values())

    @property
    def pending_task_count(self) -> int:
        return sum(
            int(i.get("pending_tasks", 0)) for i in self._engine._infos().values()
        )

    @property
    def worker_count(self) -> int:
        return sum(int(i.get("workers", 0)) for i in self._engine._infos().values())

    def available_worker_count(self) -> int:
        """Workers free to take a route right now, summed over shards."""
        return sum(
            int(i.get("available_workers", 0))
            for i in self._engine._infos().values()
        )

    @property
    def journal(self):
        """``None``: journal segments live inside the shard workers."""
        return None

    @property
    def equity(self):
        """``None``: equity ledgers are not supported in sharded mode."""
        return None

    def fingerprint(self) -> str:
        """Content hash over every shard's state fingerprint.

        Fetched fresh (no TTL cache): the identity gates compare this
        against reference runs, so staleness is not acceptable here.
        """
        parts = []
        for sid in self._engine.shard_ids:
            info = self._engine._supervisor.call(sid, "info")
            parts.append(f"{sid}:{info['fingerprint']}")
        digest = hashlib.sha256()
        for part in sorted(parts):
            digest.update(part.encode())
        return digest.hexdigest()

    def worker_stats(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-worker outcomes, merged across all partitions."""
        merged: Dict[str, Dict[str, float]] = {}
        for sid in self._engine.shard_ids:
            merged.update(self._engine._supervisor.call(sid, "worker_stats"))
        return dict(sorted(merged.items()))

    # -- churn --------------------------------------------------------------

    def add_tasks(self, tasks: Sequence) -> Tuple[List[str], List[Rejection]]:
        """Route each task to the shard owning its delivery point."""
        engine = self._engine
        batches: Dict[int, List] = {}
        routed: List[Optional[Tuple[int, str]]] = []
        rejections: List[Rejection] = []
        for item in tasks:
            try:
                if isinstance(item, TaskArrival):
                    task_id, dp_id, wire = item.task_id, item.dp_id, item
                elif isinstance(item, Mapping):
                    wire = dict(item)
                    task_id = str(wire["task_id"])
                    dp_id = str(wire["dp_id"])
                    # The shard's clock equals the facade's; pin the
                    # default arrival time here so routing never shifts it.
                    wire.setdefault("arrival_time", engine._now)
                else:
                    raise TypeError(
                        f"cannot interpret {type(item).__name__} as a task"
                    )
            except (KeyError, TypeError, ValueError) as exc:
                item_id = (
                    item.get("task_id", "?") if isinstance(item, Mapping) else "?"
                )
                rejections.append(Rejection(str(item_id), str(exc)))
                routed.append(None)
                continue
            shard_id = engine._dp_shard.get(str(dp_id))
            if shard_id is None:
                rejections.append(
                    Rejection(str(task_id), f"unknown delivery point {dp_id!r}")
                )
                routed.append(None)
                continue
            batches.setdefault(shard_id, []).append(wire)
            routed.append((shard_id, str(task_id)))
        accepted_ids = set()
        for shard_id, batch in sorted(batches.items()):
            acc, rej = engine._supervisor.call(shard_id, "add_tasks", tasks=batch)
            accepted_ids.update(acc)
            rejections.extend(
                r if isinstance(r, Rejection) else Rejection(r[0], r[1])
                for r in rej
            )
        accepted = [
            task_id
            for entry in routed
            if entry is not None
            for _, task_id in (entry,)
            if task_id in accepted_ids
        ]
        engine._invalidate_info()
        METRICS.counter("service.tasks.submitted").add(len(accepted))
        METRICS.counter("service.tasks.rejected").add(len(rejections))
        return accepted, rejections

    def add_workers(self, workers: Sequence) -> Tuple[List[str], List[Rejection]]:
        """Attach each worker to its (nearest) center's shard, then route.

        Nearest-center attachment must see the *global* layout, so it
        happens here — the receiving shard then re-validates against its
        own partition (where the chosen center is guaranteed to live).
        """
        engine = self._engine
        centers = {c.center_id: c for c in engine._centers}
        batches: Dict[int, List[Worker]] = {}
        routed: List[Optional[Tuple[int, str]]] = []
        rejections: List[Rejection] = []
        for item in workers:
            try:
                if isinstance(item, Worker):
                    worker = item
                elif isinstance(item, Mapping):
                    worker = Worker(
                        worker_id=str(item["worker_id"]),
                        location=Point(float(item["x"]), float(item["y"])),
                        max_delivery_points=int(item.get("max_delivery_points", 3)),
                        center_id=item.get("center_id"),
                        speed_kmh=item.get("speed_kmh"),
                    )
                else:
                    raise TypeError(
                        f"cannot interpret {type(item).__name__} as a worker"
                    )
            except (KeyError, TypeError, ValueError) as exc:
                item_id = (
                    item.get("worker_id", "?") if isinstance(item, Mapping) else "?"
                )
                rejections.append(Rejection(str(item_id), str(exc)))
                routed.append(None)
                continue
            if worker.center_id is not None and worker.center_id not in centers:
                rejections.append(
                    Rejection(
                        worker.worker_id, f"unknown center {worker.center_id!r}"
                    )
                )
                routed.append(None)
                continue
            if worker.center_id is None:
                nearest = min(
                    centers.values(),
                    key=lambda c: engine._travel.distance(
                        worker.location, c.location
                    ),
                )
                worker = worker.assigned_to(nearest.center_id)
            shard_id = engine._center_shard[worker.center_id]
            batches.setdefault(shard_id, []).append(worker)
            routed.append((shard_id, worker.worker_id))
        accepted_ids = set()
        for shard_id, batch in sorted(batches.items()):
            acc, rej = engine._supervisor.call(
                shard_id, "add_workers", workers=batch
            )
            accepted_ids.update(acc)
            rejections.extend(
                r if isinstance(r, Rejection) else Rejection(r[0], r[1])
                for r in rej
            )
        accepted = [
            worker_id
            for entry in routed
            if entry is not None
            for _, worker_id in (entry,)
            if worker_id in accepted_ids
        ]
        engine._invalidate_info()
        METRICS.counter("service.workers.added").add(len(accepted))
        METRICS.counter("service.workers.rejected").add(len(rejections))
        return accepted, rejections


class ShardedDispatchEngine:
    """Dispatch rounds across a supervised pool of shard worker processes.

    Parameters largely mirror :class:`~repro.service.engine.DispatchEngine`
    (they are forwarded into every worker's engine); the sharding-specific
    knobs are:

    shards:
        Worker process count (each must own ≥ 1 center).
    journal_dir:
        Directory for the per-shard journal segments
        (``shard-00.jsonl`` …); ``None`` disables durability.
    queue_bound:
        Max concurrently admitted ``dispatch()`` calls; excess requests
        are shed with :class:`~repro.service.engine.ServiceOverloaded`.
    max_inflight_per_shard:
        Per-shard RPC in-flight bound; excess sheds with
        :class:`~repro.service.shards.supervisor.ShardBusy`.
    """

    def __init__(
        self,
        centers: Sequence[DistributionCenter],
        solver,
        *,
        travel: Optional[TravelModel] = None,
        epsilon: Optional[float] = None,
        shards: int = 2,
        verify: bool = False,
        seed: Optional[int] = None,
        history_limit: int = 256,
        solve_deadline_s: Optional[float] = None,
        solve_retries: int = 1,
        backoff_base_s: float = 0.05,
        faults: Optional[FaultPlan] = None,
        journal_dir=None,
        journal_fsync: bool = True,
        journal_compact_every: Optional[int] = None,
        queue_bound: int = 4,
        max_inflight_per_shard: int = 4,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 2.0,
        rpc_timeout_s: float = 120.0,
        rpc_retries: int = 2,
        spawn_timeout_s: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if history_limit < 1:
            raise ValueError(f"history_limit must be >= 1, got {history_limit}")
        if queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
        self._centers = tuple(
            sorted(centers, key=lambda c: c.center_id)
        )
        self._travel = travel if travel is not None else TravelModel()
        self._seed = seed
        self._rng = RngFactory(seed)
        self._name = getattr(solver, "name", type(solver).__name__)
        self._epsilon = epsilon
        self._faults = resolve_faults(faults)
        self._history_limit = int(history_limit)
        self._history: List[RoundResult] = []
        self._last_committed: Optional[RoundResult] = None
        self._draining = False
        self._chaos_killed = False
        self._dispatch_lock = threading.Lock()
        self._admission = threading.BoundedSemaphore(queue_bound)
        self._queue_bound = int(queue_bound)

        partition = plan_shards(
            (c.center_id for c in self._centers), shards
        )
        by_id = {c.center_id: c for c in self._centers}
        self._center_shard: Dict[str, int] = {
            cid: sid for sid, cids in partition.items() for cid in cids
        }
        self._dp_shard: Dict[str, int] = {
            dp.dp_id: self._center_shard[c.center_id]
            for c in self._centers
            for dp in c.delivery_points
        }
        # Faults with only process-level chaos (shard_kill) are the
        # facade's business; stripping them keeps the worker engines
        # identical to a fault-free twin, which the kill-vs-clean
        # bit-identity gate depends on.
        worker_faults = (
            self._faults
            if self._faults is not None and self._faults.active
            else None
        )
        segment_dir = None if journal_dir is None else Path(journal_dir)
        specs = []
        for sid in sorted(partition):
            segment = (
                None
                if segment_dir is None
                else str(segment_dir / f"shard-{sid:02d}.jsonl")
            )
            specs.append(
                ShardSpec(
                    shard_id=sid,
                    centers=tuple(by_id[cid] for cid in partition[sid]),
                    travel=self._travel,
                    solver=solver,
                    epsilon=epsilon,
                    seed=seed,
                    verify=verify,
                    solve_deadline_s=solve_deadline_s,
                    solve_retries=solve_retries,
                    backoff_base_s=backoff_base_s,
                    faults=worker_faults,
                    journal_path=segment,
                    journal_fsync=journal_fsync,
                    journal_compact_every=journal_compact_every,
                    heartbeat_interval_s=heartbeat_interval_s,
                )
            )
        self._supervisor = ShardSupervisor(
            specs,
            heartbeat_timeout_s=heartbeat_timeout_s,
            rpc_timeout_s=rpc_timeout_s,
            rpc_retries=rpc_retries,
            backoff_base_s=backoff_base_s,
            max_inflight=max_inflight_per_shard,
            spawn_timeout_s=spawn_timeout_s,
            seed=seed if isinstance(seed, int) else 0,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=len(specs), thread_name_prefix="shard-rpc"
        )
        self._view = ShardedWorldView(self)
        self._breakers = _MergedBreakerBoard(self)
        self._info_cache: Optional[Dict[int, Dict]] = None
        self._info_stamp = 0.0
        self._info_lock = threading.Lock()

        # Boot resync: recovered segments may carry prior rounds — resume
        # the global counters past the furthest shard so redispatching an
        # already-applied round is impossible.  A failed resync must not
        # leak the worker processes it just spawned.
        try:
            infos = self._infos(fresh=True)
            last_rounds = [
                i["last_round"]
                for i in infos.values()
                if i.get("last_round") is not None
            ]
            self._round = (max(last_rounds) + 1) if last_rounds else 0
            self._now = max(
                (float(i.get("now", 0.0)) for i in infos.values()), default=0.0
            )
            if self._round:
                _LOG.info(
                    "resumed sharded engine at round %d (now=%.3f h)",
                    self._round,
                    self._now,
                )
                self._catch_up_lagging(infos)
        except BaseException:
            self._pool.shutdown(wait=False)
            self._supervisor.close()
            raise

    def _catch_up_lagging(self, infos: Dict[int, Dict]) -> None:
        """Replay the newest round on shards whose segment lost its tail.

        A crash mid-append leaves a torn final ``shard_round`` record;
        recovery truncates it, so the shard reboots exactly one round
        behind its peers.  Re-driving that round is safe — the per-center
        streams depend only on the round index — and the shard's clock
        still sits at the lost round's ``prev_now``, so the replay sees
        the same advance the original dispatch did.  A lag of more than
        one round cannot come from a torn tail (every earlier record was
        fsynced before the next was written) and is refused outright.
        """
        newest = self._round - 1
        for sid, info in sorted(infos.items()):
            last = info.get("last_round")
            applied = -1 if last is None else int(last)
            if applied >= newest:
                continue
            if applied < newest - 1:
                raise RuntimeError(
                    f"shard {sid} journal is {newest - applied} rounds "
                    f"behind its peers (at {applied}, newest {newest}) — "
                    "torn-tail recovery can only lose the final record; "
                    "the segment is damaged beyond automatic replay"
                )
            shard_now = float(info.get("now", 0.0))
            _LOG.warning(
                "shard %d lost round %d to a torn journal tail — replaying",
                sid,
                newest,
            )
            self._supervisor.call(
                sid,
                "solve_round",
                index=newest,
                advance_hours=max(0.0, self._now - shard_now),
                prev_now=shard_now,
                target_now=self._now,
                commit=True,
            )
        self._invalidate_info()

    # -- engine surface (duck-typed for the HTTP layer) ---------------------

    @property
    def state(self) -> ShardedWorldView:
        return self._view

    @property
    def solver_name(self) -> str:
        return self._name

    @property
    def epsilon(self) -> Optional[float]:
        return self._epsilon

    @property
    def rounds_dispatched(self) -> int:
        return self._round

    @property
    def history(self) -> List[RoundResult]:
        return list(self._history)

    @property
    def last_committed(self) -> Optional[RoundResult]:
        return self._last_committed

    @property
    def breakers(self) -> _MergedBreakerBoard:
        return self._breakers

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self._faults

    @property
    def equity_mode(self) -> bool:
        return False

    @property
    def equity_strength(self) -> float:
        return 0.0

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return self._supervisor.shard_ids

    @property
    def shard_count(self) -> int:
        return len(self._supervisor.shard_ids)

    @property
    def supervisor(self) -> ShardSupervisor:
        return self._supervisor

    def round_seed(self, index: int) -> int:
        """Same derivation as the single-process engine (fidelity hook)."""
        return self._rng.seed_for(f"round:{index}")

    def shard_health(self) -> Dict[str, Dict]:
        """Per-shard supervision breakdown (``/healthz``, ``/slo``)."""
        return self._supervisor.health()

    def centers_of(self, shard_id: int) -> Tuple[str, ...]:
        """The center ids the stable hash routed to ``shard_id``."""
        return tuple(
            cid for cid, sid in sorted(self._center_shard.items())
            if sid == shard_id
        )

    # -- info fan-out (cached) ----------------------------------------------

    def _infos(self, fresh: bool = False) -> Dict[int, Dict]:
        """Per-shard ``info`` snapshots; short-TTL cached, dead shards skipped."""
        with self._info_lock:
            if (
                not fresh
                and self._info_cache is not None
                and time.monotonic() - self._info_stamp < _INFO_TTL_S
            ):
                return self._info_cache
        infos: Dict[int, Dict] = {}
        for sid in self._supervisor.shard_ids:
            try:
                infos[sid] = self._supervisor.call(sid, "info")
            except (ShardCrashed, ShardFailed, ShardBusy, ShardRPCError):
                continue
        with self._info_lock:
            self._info_cache = infos
            self._info_stamp = time.monotonic()
        return infos

    def _invalidate_info(self) -> None:
        with self._info_lock:
            self._info_cache = None

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, advance_hours: float = 0.0, commit: bool = True) -> RoundResult:
        """Run one round across every shard and merge the results.

        Admission control sheds beyond ``queue_bound`` concurrently
        admitted calls (:class:`ServiceOverloaded` → HTTP 503 +
        ``Retry-After``); admitted calls serialise on the round lock.
        The round's ``duration_seconds`` runs from this call's entry to
        the end of its telemetry (see :meth:`_record`), as in the
        single-process engine.
        """
        start = time.perf_counter()
        if self._draining:
            raise EngineDraining(
                "dispatch engine is draining; no new rounds accepted"
            )
        if not self._admission.acquire(blocking=False):
            METRICS.counter("service.shard.shed").add(1)
            raise ServiceOverloaded(
                f"dispatch queue is full ({self._queue_bound} in flight); "
                "retry later",
                retry_after_s=self._supervisor.retry_after_s,
            )
        try:
            with self._dispatch_lock:
                if self._draining:
                    raise EngineDraining(
                        "dispatch engine is draining; no new rounds accepted"
                    )
                return self._dispatch_round(float(advance_hours), commit, start)
        finally:
            self._admission.release()

    def _dispatch_round(
        self, advance_hours: float, commit: bool, start: float
    ) -> RoundResult:
        index = self._round
        prev_now = self._now
        target_now = prev_now + advance_hours
        self._maybe_kill_for_chaos(index)
        futures = {
            sid: self._pool.submit(
                self._supervisor.call,
                sid,
                "solve_round",
                index=index,
                advance_hours=advance_hours,
                prev_now=prev_now,
                target_now=target_now,
                commit=commit,
            )
            for sid in self._supervisor.shard_ids
        }
        wires: Dict[int, Dict] = {}
        failed: Dict[int, Exception] = {}
        for sid, future in futures.items():
            try:
                wires[sid] = future.result()
            except (ShardCrashed, ShardFailed, ShardBusy, ShardRPCError) as exc:
                _LOG.error("round %d: shard %d failed: %s", index, sid, exc)
                failed[sid] = exc
        self._round = index + 1
        self._now = target_now
        self._invalidate_info()
        result = self._record(
            self._merge(index, target_now, commit, wires, failed), start
        )
        self._supervisor.set_retry_after(2.0 * max(0.05, result.duration_seconds))
        return result

    def _maybe_kill_for_chaos(self, index: int) -> None:
        plan = self._faults
        if (
            plan is None
            or plan.shard_kill_round is None
            or self._chaos_killed
            or index != plan.shard_kill_round
        ):
            return
        shard_ids = self._supervisor.shard_ids
        victim = shard_ids[plan.shard_kill_index % len(shard_ids)]
        _LOG.warning(
            "chaos plan: killing shard %d before round %d", victim, index
        )
        self._chaos_killed = True
        self._supervisor.kill_shard(victim)

    def _merge(
        self,
        index: int,
        now: float,
        commit: bool,
        wires: Dict[int, Dict],
        failed: Dict[int, Exception],
    ) -> RoundResult:
        """Fold the per-shard round results into one global RoundResult.

        The global payoff aggregates must be *bit*-identical to the
        single-process engine's, whose ``average_payoff`` is an
        order-sensitive ``np.mean`` over payoffs in sorted-center →
        assignment-pair order — so that exact order is reconstructed here
        before any aggregate is computed.
        """
        assignments: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        payoffs: Dict[str, float] = {}
        ordered: List[float] = []
        degraded: Dict[str, str] = {}
        assigned = expired = pending = available = 0
        cache_hits = cache_misses = verified = 0
        center_ids: List[str] = []
        for sid in sorted(wires):
            wire = wires[sid]
            assigned += int(wire["assigned_tasks"])
            expired += int(wire["expired_tasks"])
            pending += int(wire["pending_tasks"])
            available += int(wire["available_workers"])
            cache_hits += int(wire["cache"]["hits"])
            cache_misses += int(wire["cache"]["misses"])
            verified += int(wire["verified_centers"])
            degraded.update(wire.get("degraded") or {})
            center_ids.extend(wire.get("centers") or [])
        for cid in sorted(c.center_id for c in self._centers):
            sid = self._center_shard[cid]
            wire = wires.get(sid)
            if wire is None:
                continue
            routes = wire["assignments"].get(cid)
            if routes is None:
                continue
            assignments[cid] = {
                wid: tuple(dps) for wid, dps in routes.items()
            }
            for wid in routes:
                value = float(wire["payoffs"][wid])
                payoffs[wid] = value
                ordered.append(value)
        for sid in sorted(failed):
            # The whole partition sat the round out: same contract as the
            # in-worker ladder's terminal rung — tasks stay pending, the
            # shard's clock catches up on its next successful round.
            for cid in self.centers_of(sid):
                degraded[cid] = "skip"
        return RoundResult(
            round_index=index,
            now=now,
            committed=commit,
            center_ids=tuple(sorted(center_ids)),
            assigned_tasks=assigned,
            expired_tasks=expired,
            pending_tasks=pending,
            available_workers=available,
            payoff_difference=payoff_difference(ordered) if ordered else 0.0,
            average_payoff=average_payoff(ordered) if ordered else 0.0,
            payoffs=payoffs,
            assignments=assignments,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            verified_centers=verified,
            degraded=degraded,
        )

    def _record(self, result: RoundResult, start: float) -> RoundResult:
        """Mirror of the single-process engine's telemetry contract.

        The worker processes feed their *own* metric registries, which
        the facade process cannot see — so the service-level names the
        dashboards and SLOs consume are re-emitted here.  As there, the
        result is stamped with its ``duration_seconds`` after the rest of
        the telemetry, and ``service.dispatch_seconds`` observes it last.
        """
        if result.committed:
            METRICS.counter("service.rounds.committed").add(1)
        METRICS.counter("service.rounds").add(1)
        METRICS.gauge("service.pending_tasks").set(result.pending_tasks)
        METRICS.gauge("service.available_workers").set(result.available_workers)
        METRICS.gauge("service.round.payoff_difference").set(
            result.payoff_difference
        )
        if result.payoffs:
            values = [max(0.0, float(v)) for v in result.payoffs.values()]
            METRICS.gauge("fairness.round_gini").set(gini_coefficient(values))
            METRICS.gauge("fairness.round_jain").set(jain_index(values))
            payoff_hist = METRICS.histogram("fairness.worker_payoff")
            for value in values:
                payoff_hist.observe(value)
        for rung in result.degraded.values():
            if rung != "primary":
                METRICS.counter("dispatch.degraded_total").add(1)
                METRICS.counter(f"dispatch.degraded_{rung}").add(1)
        result = dataclasses.replace(
            result, duration_seconds=time.perf_counter() - start
        )
        self._history.append(result)
        if len(self._history) > self._history_limit:
            del self._history[: -self._history_limit]
        if result.committed:
            self._last_committed = result
        METRICS.histogram("service.dispatch_seconds").observe(
            result.duration_seconds
        )
        return result

    # -- shutdown ------------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new rounds; stop auto-reviving shards."""
        self._draining = True
        self._supervisor.begin_drain()

    def drain(self) -> None:
        """Block until the in-flight round finishes, then stop the pool."""
        with self._dispatch_lock:
            pass
        self._pool.shutdown(wait=True)
        self._supervisor.close()

    def __enter__(self) -> "ShardedDispatchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.begin_drain()
        self.drain()
