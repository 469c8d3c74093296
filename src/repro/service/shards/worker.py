"""The shard worker process of the supervised dispatch pool.

One worker owns a partition of the center layout: a
:class:`~repro.service.state.WorldState` over its centers, its own journal
segment, and a :class:`~repro.service.engine.DispatchEngine` configured
with the *same* root seed and solve knobs as the facade.  Because per-round
solve seeds depend only on ``(seed, round index, solver name, center id)``,
a round solved here is bit-identical to the same round solved by the
single-process engine — shard layout never changes results.

The worker speaks a tiny RPC protocol over a duplex pipe (one request in
flight at a time; the supervisor serialises) and pushes heartbeats onto a
shared events queue from a dedicated thread, so a long solve never looks
like a hang.

**Exactly-once rounds.**  During a ``solve_round`` RPC the partition
journal is suspended (:meth:`WorldState.capture_journal`); the round's
records are captured in memory and the whole round is then made durable as
one fsynced ``shard_round`` record carrying the round index, the inner
ops, and the JSON result.  A crash *before* that append loses only
in-memory state — the supervisor's retry re-runs the round
deterministically on the respawned worker.  A crash *after* it replays the
ops on recovery and the retry returns the journaled result instead of
applying the round twice.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.entities import DistributionCenter
from repro.geo.travel import TravelModel
from repro.service.engine import DispatchEngine
from repro.service.faults import FaultPlan
from repro.service.journal import WorldJournal
from repro.service.state import WorldState
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike

_LOG = get_logger("service.shards.worker")


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard worker needs to (re)build itself.

    Picklable by construction: it crosses the process boundary with the
    ``spawn`` start method, both at pool start and on every respawn.
    """

    shard_id: int
    centers: Tuple[DistributionCenter, ...]
    travel: Optional[TravelModel] = None
    solver: object = None
    epsilon: Optional[float] = None
    seed: SeedLike = None
    verify: bool = False
    solve_deadline_s: Optional[float] = None
    solve_retries: int = 1
    backoff_base_s: float = 0.05
    faults: Optional[FaultPlan] = None
    journal_path: Optional[str] = None
    journal_fsync: bool = True
    journal_compact_every: Optional[int] = None
    heartbeat_interval_s: float = 0.25

    @property
    def center_ids(self) -> Tuple[str, ...]:
        return tuple(c.center_id for c in self.centers)


class _ShardService:
    """The in-process request handlers behind the worker's RPC loop."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        path = Path(spec.journal_path) if spec.journal_path else None
        if path is not None and path.exists() and path.stat().st_size > 0:
            # Respawn (or warm restart): replay the segment back to the
            # last fsynced record — fingerprint-identical by the journal
            # layer's contract — and resume journaling in place.
            self.state = WorldState.recover(
                path,
                travel=spec.travel,
                resume=True,
                fsync=spec.journal_fsync,
                compact_every=spec.journal_compact_every,
            )
        else:
            self.state = WorldState(spec.centers, travel=spec.travel)
            if path is not None:
                self.state.attach_journal(
                    WorldJournal(
                        path,
                        fsync=spec.journal_fsync,
                        compact_every=spec.journal_compact_every,
                    )
                )
        self.engine = DispatchEngine(
            self.state,
            spec.solver,
            epsilon=spec.epsilon,
            verify=spec.verify,
            seed=spec.seed,
            solve_deadline_s=spec.solve_deadline_s,
            solve_retries=spec.solve_retries,
            backoff_base_s=spec.backoff_base_s,
            faults=spec.faults,
        )

    # -- RPC handlers -------------------------------------------------------

    def handle(self, op: str, msg: Dict) -> object:
        if op == "ping":
            return self.ping()
        if op == "info":
            return self.info()
        if op == "add_tasks":
            return self.state.add_tasks(msg["tasks"])
        if op == "add_workers":
            return self.state.add_workers(msg["workers"])
        if op == "worker_stats":
            return self.state.worker_stats()
        if op == "solve_round":
            return self.solve_round(
                int(msg["index"]),
                float(msg["advance_hours"]),
                msg.get("prev_now"),
                msg.get("target_now"),
                bool(msg.get("commit", True)),
            )
        if op == "drain":
            self.engine.drain()
            return True
        raise ValueError(f"unknown shard RPC op {op!r}")

    def ping(self) -> Dict:
        last = self.state.last_round
        return {
            "shard_id": self.spec.shard_id,
            "centers": list(self.spec.center_ids),
            "last_round": None if last is None else int(last["index"]),
        }

    def info(self) -> Dict:
        last = self.state.last_round
        journal = self.state.journal
        return {
            "shard_id": self.spec.shard_id,
            "centers": list(self.spec.center_ids),
            "now": self.state.now,
            "version": self.state.version,
            "pending_tasks": self.state.pending_task_count,
            "workers": self.state.worker_count,
            "available_workers": self.state.available_worker_count(),
            "fingerprint": self.state.fingerprint(),
            "last_round": None if last is None else int(last["index"]),
            "breakers": self.engine.breakers.snapshot(),
            "journal": None
            if journal is None
            else {"path": str(journal.path), "next_seq": journal.next_seq},
        }

    def solve_round(
        self,
        index: int,
        advance_hours: float,
        prev_now: Optional[float],
        target_now: Optional[float],
        commit: bool,
    ) -> Dict:
        last = self.state.last_round
        if last is not None and int(last["index"]) == index:
            # Retried RPC for a round this partition already applied (the
            # crash-after-append case): answer from the journaled record.
            return last["result"]
        if last is not None and int(last["index"]) > index:
            raise ValueError(
                f"shard {self.spec.shard_id} already applied round "
                f"{last['index']}, cannot run round {index}"
            )
        hours = float(advance_hours)
        if (
            prev_now is not None
            and target_now is not None
            and self.state.now != float(prev_now)
        ):
            # The partition clock lags (this shard skipped degraded
            # rounds): catch up to the facade's target instead of applying
            # the delta — clocks converge, late tasks expire correctly.
            hours = max(0.0, float(target_now) - self.state.now)
        self.engine.resume_at(index)
        if self.state.journal is None:
            result = self.engine.dispatch(advance_hours=hours, commit=commit)
            wire = result.as_dict()
            self.state.note_round(index, wire, commit)
            return wire
        with self.state.capture_journal() as recorder:
            result = self.engine.dispatch(advance_hours=hours, commit=commit)
        wire = result.as_dict()
        self.state.append_shard_round(index, commit, recorder.ops, wire)
        return wire

    def shutdown(self) -> None:
        self.engine.drain()
        journal = self.state.journal
        if journal is not None:
            journal.close()


def shard_worker_main(spec: ShardSpec, conn, events) -> None:
    """Entry point of one shard worker process (``spawn`` start method).

    ``conn`` is the worker end of the supervisor's duplex RPC pipe;
    ``events`` is the shared heartbeat queue.  The loop answers one
    request at a time and exits on ``stop``, EOF, or a closed pipe — the
    supervisor owns every other lifecycle decision (including SIGKILL).
    """
    # The supervisor drives shutdown; a terminal Ctrl-C must not tear the
    # pool down ahead of the facade's drain sequence.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    service = _ShardService(spec)
    stop = threading.Event()

    def _beat() -> None:
        seq = 0
        while not stop.is_set():
            try:
                events.put(("heartbeat", spec.shard_id, seq))
            except (OSError, ValueError):
                return
            seq += 1
            stop.wait(spec.heartbeat_interval_s)

    beater = threading.Thread(
        target=_beat, name=f"shard-{spec.shard_id}-heartbeat", daemon=True
    )
    beater.start()
    try:
        events.put(("ready", spec.shard_id, None))
    except (OSError, ValueError):
        pass

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = str(msg.get("op"))
            msg_id = msg.get("id")
            if op == "stop":
                try:
                    service.shutdown()
                finally:
                    try:
                        conn.send({"id": msg_id, "ok": True, "value": True})
                    except (OSError, ValueError):
                        pass
                break
            try:
                value = service.handle(op, msg)
            except Exception as exc:  # answer, never die: supervisor decides
                _LOG.exception("shard %d rpc %r failed", spec.shard_id, op)
                reply = {
                    "id": msg_id,
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            else:
                reply = {"id": msg_id, "ok": True, "value": value}
            try:
                conn.send(reply)
            except (OSError, ValueError):
                break
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass
