"""The dispatch engine: windowed micro-batch solves over the live world.

Each call to :meth:`DispatchEngine.dispatch` is one *round* of the paper's
one-shot FTA problem over whatever the world holds right now, run the way
the ROADMAP's production system must:

1. **Snapshot** — atomically advance the clock, expire dead tasks, and
   freeze a :class:`~repro.service.state.WorldSnapshot` (solving happens
   outside the state lock, so churn keeps landing during a solve and is
   picked up next round).
2. **Solve** — walk each of the snapshot's per-center sub-problems down
   the degradation ladder (Section VII-A: centers are independent), with
   catalogs served by the :class:`~repro.service.cache.SnapshotCatalogCache`
   so unchanged centers skip the C-VDPS rebuild.
3. **Commit** — apply routes: workers go busy until their route
   completes and reappear at the last drop-off, delivered tasks leave the
   queue.  ``commit=False`` turns the round into a what-if preview that
   leaves the world untouched.

This is the one round loop in the library: the service calls it per
``POST /dispatch``, and :class:`~repro.sim.platform.DispatchSimulator`
drives it over a working day of seeded arrivals.

Determinism contract: round ``i`` solves with seed :meth:`round_seed`\\ (i)
and per-center streams ``"<solver.name>:<center_id>"`` — the exact streams
:func:`repro.experiments.runner.run_algorithms` derives — so an offline
``run_algorithms(snapshot.instance(), ..., seed=engine.round_seed(i))``
reproduces the service's committed routes, payoffs, and Equation 2
``P_dif`` bit-for-bit whenever every center's primary rung succeeds.

With ``verify=True`` every per-center assignment passes the Definition 8 /
Equations 1-2 checkers of :mod:`repro.verify` (catalog membership
included) before it is committed.  Every round emits a ``service.round``
tracer event and feeds the ``service.dispatch_seconds`` latency histogram
with its ``duration_seconds``, timed from :meth:`DispatchEngine.dispatch`'s
entry to the end of the round's telemetry.  Catalogs are derived state of
the world and live only in the running engine: a restarted or
journal-recovered engine rebuilds them on its first round.

Fault tolerance (``docs/fault_tolerance.md``): the ladder is the primary
solver with retries + seeded-jitter backoff, then GTA greedy, then
skip-the-center (tasks carry to the next round), with a per-center circuit
breaker that routes repeatedly-failing centers straight to the greedy
rung.  Without a ``solve_deadline_s`` the primary rung runs inline on the
dispatch thread; with one, each attempt runs on a budgeted thread.  When a
deadline or a :class:`~repro.service.faults.FaultPlan` is set, every
rung's output is re-verified against the snapshot before use, so a
corrupted cached catalog can only cost a rebuild, never a bad commit.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from contextlib import nullcontext

from repro.baselines.gta import GTASolver
from repro.core.assignment import Assignment, WorkerAssignment
from repro.core.fairness import (
    DEFAULT_EQUITY_STRENGTH,
    gini_coefficient,
    jain_index,
)
from repro.core.instance import SubProblem
from repro.games.base import equity_copy
from repro.obs.metrics import METRICS
from repro.obs.tracer import (
    NullTracer,
    attach_context,
    current_context,
    resolve_tracer,
    start_trace,
)
from repro.parallel import InstanceSolution, solve_subproblem
# Unused here; perfbench/launcher.py still wraps this name as a span boundary.
from repro.parallel import solve_instance  # noqa: F401
from repro.service.breaker import BreakerBoard, BreakerConfig
from repro.service.cache import SnapshotCatalogCache
from repro.service.faults import FaultPlan, InjectedFault, resolve_faults
from repro.service.state import WorldSnapshot, WorldState
from repro.utils.rng import RngFactory, SeedLike
from repro.verify.checkers import verify_assignment


#: Reusable no-op scope for ``with span if tracer.enabled else _NULL_SCOPE``
#: sites — keeps the disabled path from even building the span's kwargs.
_NULL_SCOPE = nullcontext()


class EngineDraining(RuntimeError):
    """The engine is shutting down and accepts no new dispatch rounds."""


class ServiceOverloaded(RuntimeError):
    """Admission control shed the request; retry after ``retry_after_s``.

    Raised when a bounded queue (the sharded engine's dispatch admission
    slots or a shard's RPC slots) is full.  The API layer maps it to
    ``503`` with a ``Retry-After`` header instead of queueing without
    bound — the backpressure contract of ``docs/fault_tolerance.md``.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class SolveTimeout(RuntimeError):
    """A per-center solve exceeded its ``solve_deadline_s`` budget."""


#: Upper bound on abandoned (timed-out but still running) solve threads one
#: center may accumulate before further deadline-bounded attempts for it are
#: refused outright.  A timed-out solve cannot be killed, only detached; the
#: cap keeps a persistently hung solver from leaking one thread per attempt
#: per round without bound — attempts past the cap fail fast with
#: :class:`SolveTimeout` and the ladder degrades as usual.
MAX_ABANDONED_SOLVES = 3

#: The degradation ladder, most faithful rung first: the configured solver,
#: the always-fast fairness-blind GTA greedy, then the null assignment that
#: carries the center's tasks to the next round.
LADDER = ("primary", "greedy", "skip")


@dataclass(frozen=True)
class RoundResult:
    """What one dispatch round saw, decided, and (maybe) committed.

    :class:`~repro.sim.platform.DispatchSimulator` reports keep one per
    round too.  The pending-task and available-worker counts are read
    after the commit.
    """

    round_index: int
    now: float
    committed: bool
    center_ids: Tuple[str, ...]
    assigned_tasks: int
    expired_tasks: int
    pending_tasks: int
    available_workers: int
    payoff_difference: float
    average_payoff: float
    payoffs: Mapping[str, float] = field(default_factory=dict)
    assignments: Mapping[str, Mapping[str, Tuple[str, ...]]] = field(
        default_factory=dict
    )
    cache_hits: int = 0
    cache_misses: int = 0
    verified_centers: int = 0
    duration_seconds: float = 0.0
    #: ``center_id -> ladder rung`` (one of :data:`LADDER`) that produced
    #: the assignment of every solved center.
    degraded: Mapping[str, str] = field(default_factory=dict)
    #: Whether the round solved with ledger-weighted equity utilities.
    equity_mode: bool = False
    #: Rolling-window fairness from the equity ledger, when one is
    #: attached to the world (``None`` otherwise — including dry-run
    #: rounds, which do not advance the ledger).
    rolling_gini: Optional[float] = None
    rolling_jain: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view served by ``POST /dispatch``."""
        data = {
            "round": self.round_index,
            "now": self.now,
            "committed": self.committed,
            "centers": list(self.center_ids),
            "assigned_tasks": self.assigned_tasks,
            "expired_tasks": self.expired_tasks,
            "pending_tasks": self.pending_tasks,
            "available_workers": self.available_workers,
            "payoff_difference": self.payoff_difference,
            "average_payoff": self.average_payoff,
            "payoffs": dict(self.payoffs),
            "assignments": {
                center: {w: list(dps) for w, dps in routes.items()}
                for center, routes in self.assignments.items()
            },
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "verified_centers": self.verified_centers,
            "duration_seconds": self.duration_seconds,
            "degraded": dict(self.degraded),
        }
        if self.rolling_gini is not None:
            data["equity"] = {
                "mode": self.equity_mode,
                "rolling_gini": self.rolling_gini,
                "rolling_jain": self.rolling_jain,
            }
        return data


class DispatchEngine:
    """Runs dispatch rounds over a :class:`WorldState` (see module doc).

    Parameters
    ----------
    state:
        The mutable world the engine snapshots and commits into.
    solver:
        Any one-shot solver from the library (GTA/MPTA/FGT/IEGT/...).
    epsilon:
        VDPS pruning threshold for every center's catalog.
    verify:
        Run the assignment-level invariant checkers (catalog membership
        included) on every center of every round.
    seed:
        Root seed of the engine's per-round streams.
    trace:
        ``False``/``True``/tracer instance, resolved like the solvers'
        ``trace=`` field.
    solve_deadline_s:
        Per-center wall-clock budget for each solve attempt, run on its
        own thread; ``None`` runs every attempt inline.  The round's
        first catalog miss refreshes every stale center in one batch, so
        that attempt's budget covers the whole batch.  If it times out,
        every miss while the abandoned refresh still runs builds its
        catalog on the side within its own budget, so a slow batch
        degrades only the center whose attempt ran it.
    solve_retries:
        Extra attempts of the *primary* rung after its first failure,
        separated by exponential backoff with seeded jitter.
    backoff_base_s:
        Base of the retry backoff (doubled per retry, jittered ×[0.5, 1.5)).
    breaker:
        Per-center circuit-breaker tuning (``None`` = defaults); centers
        whose breaker is open skip straight to the greedy rung.
    breaker_clock:
        Injectable monotonic clock for the breakers (tests).
    faults:
        Deterministic chaos plan; ``None`` falls back to the
        ``REPRO_FAULTS`` environment variable.
    delta_catalog:
        Serve catalog-cache misses by incremental
        :class:`~repro.vdps.delta.DeltaCatalog` refresh (bit-identical to
        a rebuild, proven by the differential suites).  ``False`` rebuilds
        on every miss; it exists only as the control arm of the delta and
        batch engine tests, and no serving path sets it.
    equity_mode:
        Solve rounds with ledger-weighted equity utilities
        (``docs/temporal_fairness.md``): each round the solver receives
        the world's :class:`~repro.equity.ledger.EquityLedger` cumulative
        baselines, so envy/guilt act on long-run income, not just this
        round's payoffs.  The engine attaches a ledger to the world if it
        has none.  With ``equity_mode=False`` the engine still *records*
        rounds into an already-attached ledger (observer mode — how the
        per-round arm of a comparison keeps rolling metrics without
        changing its assignments).
    equity_strength:
        IAU amplification for equity rounds (see
        :func:`repro.core.fairness.equity_model`).
    """

    def __init__(
        self,
        state: WorldState,
        solver,
        epsilon: Optional[float] = None,
        verify: bool = False,
        seed: SeedLike = None,
        trace: object = False,
        history_limit: int = 256,
        solve_deadline_s: Optional[float] = None,
        solve_retries: int = 1,
        backoff_base_s: float = 0.05,
        breaker: Optional[BreakerConfig] = None,
        breaker_clock=time.monotonic,
        faults: Optional[FaultPlan] = None,
        delta_catalog: bool = True,
        equity_mode: bool = False,
        equity_strength: float = DEFAULT_EQUITY_STRENGTH,
    ) -> None:
        if history_limit < 1:
            raise ValueError(f"history_limit must be >= 1, got {history_limit}")
        if solve_deadline_s is not None and not solve_deadline_s > 0:
            raise ValueError(
                f"solve_deadline_s must be > 0 or None, got {solve_deadline_s!r}"
            )
        if solve_retries < 0:
            raise ValueError(f"solve_retries must be >= 0, got {solve_retries}")
        if backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        if not equity_strength > 0:
            raise ValueError(
                f"equity_strength must be > 0, got {equity_strength!r}"
            )
        self._state = state
        self._solver = solver
        self._name = str(getattr(solver, "name", type(solver).__name__))
        self._epsilon = epsilon
        self._verify = verify
        self._trace = trace
        self._rng = RngFactory(seed)
        self._cache = SnapshotCatalogCache(epsilon, delta=delta_catalog)
        self._dispatch_lock = threading.Lock()
        self._round = 0
        self._history: List[RoundResult] = []
        self._history_limit = history_limit
        self._last_committed: Optional[RoundResult] = None
        self._solve_deadline_s = solve_deadline_s
        self._solve_retries = solve_retries
        self._backoff_base_s = backoff_base_s
        self._faults = resolve_faults(faults)
        self._breakers = BreakerBoard(breaker, breaker_clock)
        # Timed-out solves that are still running, per center (centers are
        # solved one at a time on the dispatch thread, so no extra locking).
        self._abandoned: Dict[str, List[Future]] = {}
        self._greedy = GTASolver(epsilon=epsilon)
        # Which accepted rungs are re-verified.  Two hazards make a rung's
        # output untrustworthy: a timed-out attempt is abandoned, not
        # killed, and keeps running (its catalog refresh included) while
        # the retry solves the same center; and injected faults tamper
        # with cache hits.  An inline solve without faults has neither, so
        # it pays for verification only when ``verify=True`` asks for it.
        self._verify_rungs = (
            verify or solve_deadline_s is not None or self._faults is not None
        )
        self._equity_mode = bool(equity_mode)
        self._equity_strength = float(equity_strength)
        if self._equity_mode:
            state.enable_equity()
        self._draining = False

    # -- introspection ------------------------------------------------------

    @property
    def state(self) -> WorldState:
        return self._state

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
    def cache(self) -> SnapshotCatalogCache:
        return self._cache

    @property
    def history(self) -> List[RoundResult]:
        return list(self._history)

    @property
    def last_committed(self) -> Optional[RoundResult]:
        return self._last_committed

    @property
    def breakers(self) -> BreakerBoard:
        return self._breakers

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self._faults

    @property
    def equity_mode(self) -> bool:
        """Whether rounds solve with ledger-weighted equity utilities."""
        return self._equity_mode

    @property
    def equity_strength(self) -> float:
        return self._equity_strength

    @property
    def draining(self) -> bool:
        return self._draining

    def round_seed(self, index: int) -> int:
        """The root seed round ``index`` solves with (the fidelity hook)."""
        return self._rng.seed_for(f"round:{index}")

    def resume_at(self, index: int) -> None:
        """Align the round counter so the next dispatch runs round ``index``.

        Used by shard workers: the supervisor owns the global round
        counter and passes the index with every round RPC, so a respawned
        worker (whose own counter restarted at the journal's last round)
        re-derives exactly the per-round seeds of the round it is asked to
        run — the bit-identity contract across crashes and shard counts.
        """
        if index < 0:
            raise ValueError(f"round index must be >= 0, got {index}")
        self._round = int(index)

    # -- the dispatch loop --------------------------------------------------

    def dispatch(self, advance_hours: float = 0.0, commit: bool = True) -> RoundResult:
        """Run one micro-batch round; see the module doc for the phases.

        Raises :class:`EngineDraining` once :meth:`begin_drain` has been
        called: shutdown lets the in-flight round finish committing but
        admits no new ones (the half-committed-round race fix).

        The round's ``duration_seconds`` runs from this call's entry to
        the end of its telemetry (see :meth:`_record`).
        """
        start = time.perf_counter()
        if self._draining:
            raise EngineDraining(
                "dispatch engine is draining; no new rounds accepted"
            )
        with self._dispatch_lock:
            tracer = resolve_tracer(self._trace)
            # Each round belongs to exactly one trace: adopt the ambient
            # context (the HTTP request's, carrying X-Repro-Trace-Id) when
            # present, otherwise open a per-round trace so offline callers
            # get complete trees — and head sampling — too.
            trace_scope = (
                start_trace()
                if tracer.enabled and current_context() is None
                else nullcontext()
            )
            with trace_scope, tracer.span("service.round") as round_span:
                result = self._dispatch_round(
                    advance_hours, commit, start, tracer, round_span
                )
            return result

    def _dispatch_round(
        self,
        advance_hours: float,
        commit: bool,
        start: float,
        tracer: NullTracer,
        round_span,
    ) -> RoundResult:
        """The body of one round, run under the round's span context."""
        with self._state.lock:
            self._state.advance(advance_hours)
            expired = self._state.expire()
            snapshot = self._state.snapshot()
        index = self._round
        self._round += 1
        hits_before = METRICS.counter("service.catalog_cache.hits").value
        misses_before = METRICS.counter("service.catalog_cache.misses").value
        # Equity baselines are read once per round from the committed
        # ledger state, so every center of the round sees the same
        # cumulative picture regardless of solve order.  All-equal
        # baselines (cold start, or a history of all-idle rounds) carry
        # no cross-round signal — the amplified IAU then degenerates to
        # per-round differences with beta' > 1, where the all-null
        # assignment is a Nash equilibrium that dispersed-payoff worlds
        # cascade into — so those rounds solve with plain per-round IAU.
        baselines = (
            self._state.equity.baselines()
            if self._equity_mode and self._state.equity is not None
            else None
        )
        if baselines is not None:
            values = baselines.values()
            if not baselines or min(values) == max(values):
                baselines = None

        payoffs: Dict[str, float] = {}
        assignments: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        degraded: Dict[str, str] = {}
        assigned = 0
        verified = 0
        p_dif = 0.0
        avg_p = 0.0
        if snapshot.subproblems:
            solution, degraded, verified = self._solve_centers(
                snapshot, index, tracer, baselines
            )
            for center_id, assignment in solution.assignments.items():
                assignments[center_id] = dict(assignment.as_mapping())
                for pair in assignment:
                    payoffs[pair.worker.worker_id] = pair.payoff
            p_dif = solution.payoff_difference
            avg_p = solution.average_payoff
            if commit:
                assigned = self._state.commit(snapshot, solution.assignments)

        rolling_gini: Optional[float] = None
        rolling_jain: Optional[float] = None
        ledger = self._state.equity
        if commit and ledger is not None:
            # Recorded whenever a ledger is attached, not just in equity
            # mode: observer-mode worlds (the per-round arm of an equity
            # comparison) keep rolling metrics without changing routes.
            # Empty rounds record an empty payoff map so idle time still
            # decays every balance.
            self._state.record_equity(payoffs)
            rolling_gini = ledger.rolling_gini()
            rolling_jain = ledger.rolling_jain()
            if tracer.enabled:
                tracer.event(
                    "equity.record",
                    round=index,
                    workers=len(payoffs),
                    ledger_rounds=ledger.rounds,
                    rolling_gini=rolling_gini,
                )

        result = RoundResult(
            round_index=index,
            now=snapshot.now,
            committed=commit,
            center_ids=tuple(snapshot.center_ids),
            assigned_tasks=assigned,
            expired_tasks=len(expired),
            pending_tasks=self._state.pending_task_count,
            available_workers=self._state.available_worker_count(),
            payoff_difference=p_dif,
            average_payoff=avg_p,
            payoffs=payoffs,
            assignments=assignments,
            cache_hits=METRICS.counter("service.catalog_cache.hits").value
            - hits_before,
            cache_misses=METRICS.counter("service.catalog_cache.misses").value
            - misses_before,
            verified_centers=verified,
            degraded=degraded,
            equity_mode=self._equity_mode,
            rolling_gini=rolling_gini,
            rolling_jain=rolling_jain,
        )
        if tracer.enabled:
            round_span.add(
                round=result.round_index,
                now=result.now,
                committed=result.committed,
                centers=len(result.center_ids),
                assigned=result.assigned_tasks,
                expired=result.expired_tasks,
                p_dif=result.payoff_difference,
                cache_hits=result.cache_hits,
                cache_misses=result.cache_misses,
                degraded=sum(
                    1 for rung in result.degraded.values() if rung != "primary"
                ),
            )
        return self._record(result, start)

    def begin_drain(self) -> None:
        """Refuse new dispatch rounds (in-flight rounds keep committing).

        Shutdown order matters: flip this first, then :meth:`drain` — a
        SIGTERM arriving mid-round thus finishes the round's commit
        atomically instead of racing the server teardown.
        """
        self._draining = True

    def drain(self) -> None:
        """Block until any in-flight dispatch round has finished."""
        with self._dispatch_lock:
            pass

    # -- the degradation ladder ---------------------------------------------

    def _with_equity(self, solver, baselines):
        """The :func:`~repro.games.base.equity_copy` of ``solver`` with
        ``baselines`` (``None``: no equity round), or ``solver`` unchanged.

        Solvers without equity fields (the GTA greedy rung) stay
        equity-blind: a degraded center falls back to exactly the same
        fairness-blind greedy it would without equity mode.
        """
        if baselines is None:
            return solver
        copy = equity_copy(solver, self._equity_strength, baselines)
        return solver if copy is None else copy

    def _solve_centers(
        self,
        snapshot: WorldSnapshot,
        index: int,
        tracer: NullTracer,
        baselines: Optional[Mapping[str, float]] = None,
    ) -> Tuple[InstanceSolution, Dict[str, str], int]:
        """Solve each center down the ladder, one after another; never raises.

        Seeds are derived exactly like :func:`repro.parallel.solve_instance`
        (``RngFactory(round_seed).seed_for(f"{name}:{center}")``), so a
        center whose primary rung succeeds is bit-identical to the offline
        solve of the snapshot.

        Returns ``(solution, center -> rung, centers actually verified)``.
        """
        round_rng = RngFactory(self.round_seed(index))
        subs = snapshot.subproblems
        METRICS.counter("dispatch.center_solves").add(len(subs))
        assignments: Dict[str, Assignment] = {}
        degraded: Dict[str, str] = {}
        # The round's first catalog miss builds every stale center at once.
        self._cache.stage(snapshot)
        try:
            for sub in subs:
                cid = sub.center.center_id
                seed = round_rng.seed_for(f"{self._name}:{cid}")
                if tracer.enabled:
                    with tracer.span(
                        "service.center_solve", round=index, center=cid
                    ) as span:
                        assignment, rung = self._solve_center(
                            sub, snapshot, index, cid, seed, tracer, baselines
                        )
                        span.add(rung=rung)
                else:
                    assignment, rung = self._solve_center(
                        sub, snapshot, index, cid, seed, tracer, baselines
                    )
                assignments[cid] = assignment
                degraded[cid] = rung
                if rung != "primary" and tracer.enabled:
                    tracer.event(
                        "service.degraded", round=index, center=cid, rung=rung
                    )
        finally:
            self._cache.stage(None)
        verified = len(subs) if self._verify_rungs else 0
        return InstanceSolution(assignments), degraded, verified

    def _solve_center(
        self,
        sub: SubProblem,
        snapshot: WorldSnapshot,
        round_index: int,
        cid: str,
        seed: int,
        tracer: NullTracer,
        baselines: Optional[Mapping[str, float]] = None,
    ) -> Tuple[Assignment, str]:
        """One center's walk down the ladder: ``(assignment, rung)``.

        Every rung, skip included, verifies what it accepts exactly when
        ``_verify_rungs`` is set, so ``verified_centers`` stays honest.
        """
        breaker = self._breakers.for_center(cid)
        start = 0
        if not breaker.allow_primary():
            start = LADDER.index("greedy")
            METRICS.counter("dispatch.breaker_shortcuts").add(1)
        for rung_index in range(start, len(LADDER)):
            rung_name = LADDER[rung_index]
            if rung_name == "skip":
                METRICS.counter("dispatch.centers_skipped").add(1)
                return self._skip_assignment(sub), rung_name
            # Read per attempt, not captured at construction: a solver
            # swapped on a live engine is the one that runs.
            solver = self._solver if rung_name == "primary" else self._greedy
            attempts = 1 + (self._solve_retries if rung_name == "primary" else 0)
            for attempt in range(attempts):
                if attempt:
                    METRICS.counter("dispatch.solve_retries").add(1)
                    self._backoff(round_index, cid, attempt)
                try:
                    # Each ladder rung attempt is a child span of the
                    # center solve; a failing attempt's span still lands
                    # (with an ``error`` field), so critical paths show
                    # time burned on rungs that did not produce the route.
                    with tracer.span(
                        "service.rung",
                        round=round_index,
                        center=cid,
                        rung=rung_name,
                        attempt=attempt,
                    ) if tracer.enabled else _NULL_SCOPE:
                        assignment = self._attempt_solve(
                            sub, snapshot,
                            self._with_equity(solver, baselines),
                            seed, round_index, cid, rung_index, attempt,
                        )
                except Exception as exc:  # noqa: BLE001 — the ladder absorbs all
                    METRICS.counter("dispatch.solve_failures").add(1)
                    if isinstance(exc, SolveTimeout):
                        METRICS.counter("dispatch.solve_timeouts").add(1)
                    # A failure may stem from a rotten cache entry; evicting
                    # costs one rebuild and guarantees the retry is clean.
                    self._cache.invalidate(cid)
                    if tracer.enabled:
                        tracer.event(
                            "service.solve_failure",
                            round=round_index,
                            center=cid,
                            rung=rung_name,
                            attempt=attempt,
                            error=type(exc).__name__,
                        )
                    continue
                if rung_name == "primary":
                    breaker.record_success()
                return assignment, rung_name
            if rung_name == "primary":
                breaker.record_failure()
        raise AssertionError("degradation ladder must end with the skip rung")

    def _attempt_solve(
        self,
        sub: SubProblem,
        snapshot: WorldSnapshot,
        solver,
        seed: int,
        round_index: int,
        cid: str,
        rung_index: int,
        attempt: int,
    ) -> Assignment:
        """One solve attempt under the deadline, fault hooks, and verify gate.

        The catalog fetch runs *inside* the budgeted thread (a cold C-VDPS
        build is usually the slow part).  Whenever rungs are verified (see
        ``_verify_rungs``) the returned assignment is re-checked against
        the snapshot's sub-problem, so a tampered catalog cannot smuggle an
        infeasible route past the ladder; ``verify=True`` also checks it
        against the attempt's catalog.
        """
        action = (
            self._faults.solver_action(round_index, cid, rung_index, attempt)
            if self._faults is not None
            else None
        )

        def run() -> Tuple[Assignment, object]:
            if action is not None:
                kind, seconds = action
                if kind == "error":
                    METRICS.counter("dispatch.injected_errors").add(1)
                    raise InjectedFault(
                        f"injected solver error (round {round_index}, "
                        f"center {cid}, rung {rung_index}, attempt {attempt})"
                    )
                METRICS.counter("dispatch.injected_delays").add(1)
                time.sleep(seconds)
            catalog, hit = self._cache.get_with_status(sub, snapshot.keys[cid])
            if (
                hit
                and self._faults is not None
                and self._faults.corrupt_catalog(round_index, cid)
            ):
                METRICS.counter("dispatch.injected_corruptions").add(1)
                catalog = FaultPlan.tamper(catalog)
            assignment = solve_subproblem(
                sub, solver, epsilon=self._epsilon, seed=seed, catalog=catalog
            )
            return assignment, catalog

        deadline = self._solve_deadline_s
        if deadline is None:
            assignment, catalog = run()
        else:
            abandoned = self._abandoned.setdefault(cid, [])
            abandoned[:] = [f for f in abandoned if not f.done()]
            if len(abandoned) >= MAX_ABANDONED_SOLVES:
                METRICS.counter("dispatch.hung_solve_rejections").add(1)
                raise SolveTimeout(
                    f"center {cid} still has {len(abandoned)} abandoned "
                    f"solves running; refusing to start another "
                    f"(rung {rung_index}, attempt {attempt})"
                )
            pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"solve-{cid}"
            )
            # The solve runs on a fresh thread; carry the rung span's
            # context over so catalog spans nest under it.
            ctx = current_context()

            def run_in_context() -> Tuple[Assignment, object]:
                with attach_context(ctx):
                    return run()

            try:
                future = pool.submit(run_in_context)
                try:
                    assignment, catalog = future.result(timeout=deadline)
                except _FutureTimeout:
                    # The timed-out solve finishes (and is discarded) in
                    # the background; remember it so a persistently hung
                    # solver cannot leak one thread per attempt forever.
                    abandoned.append(future)
                    raise SolveTimeout(
                        f"center {cid} solve exceeded {deadline:g}s "
                        f"(rung {rung_index}, attempt {attempt})"
                    ) from None
            finally:
                # wait=False keeps the round's budget honest.
                pool.shutdown(wait=False)
        if self._verify_rungs:
            verify_assignment(
                assignment,
                sub=sub,
                catalog=catalog if self._verify else None,
                solver=self._name,
            )
        return assignment

    def _backoff(self, round_index: int, cid: str, attempt: int) -> None:
        """Exponential backoff with deterministic seeded jitter."""
        if self._backoff_base_s <= 0:
            return
        jitter = float(
            self._rng.get(f"backoff:{round_index}:{cid}:{attempt}").random()
        )
        time.sleep(self._backoff_base_s * (2 ** (attempt - 1)) * (0.5 + jitter))

    def _skip_assignment(self, sub: SubProblem) -> Assignment:
        """Every worker on the null strategy: the ladder's last resort.

        Verified like every other rung's output so ``verified_centers``
        counts it truthfully; the null assignment is trivially disjoint
        and within capacity, so the check cannot fail and the rung keeps
        the ladder's never-raises contract.
        """
        assignment = Assignment(tuple(WorkerAssignment(w) for w in sub.workers))
        if self._verify_rungs:
            verify_assignment(assignment, sub=sub, solver=self._name)
        return assignment

    # -- internals ----------------------------------------------------------

    def _record(self, result: RoundResult, start: float) -> RoundResult:
        """Record the round's telemetry, then stamp and keep the result.

        ``duration_seconds`` is read after everything else the round does,
        so it covers the same work as a timer around :meth:`dispatch`;
        ``service.dispatch_seconds`` observes it last.
        """
        METRICS.counter("service.rounds").add(1)
        if result.committed:
            METRICS.counter("service.rounds.committed").add(1)
        METRICS.gauge("service.pending_tasks").set(result.pending_tasks)
        METRICS.gauge("service.available_workers").set(result.available_workers)
        METRICS.gauge("service.round.payoff_difference").set(
            result.payoff_difference
        )
        self._record_fairness(result)
        for rung in result.degraded.values():
            if rung != "primary":
                METRICS.counter("dispatch.degraded_total").add(1)
                METRICS.counter(f"dispatch.degraded_{rung}").add(1)
        METRICS.gauge("service.breaker.open").set(self._breakers.open_count())
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

    def _record_fairness(self, result: RoundResult) -> None:
        """Rolling per-round fairness telemetry (the temporal-fairness hook).

        Gini/Jain over the round's per-worker payoffs land in gauges, and
        every payoff feeds a histogram, so an operator can watch equity
        drift across rounds instead of waiting for an end-of-run report.
        Payoffs are clamped at zero for the Gini (which rejects negatives);
        the engine never produces negative payoffs, but a defensive clamp
        beats a crashed round.

        When an equity ledger is attached (equity *or* observer mode) the
        rolling-window indices it maintains land in the
        ``fairness.rolling_*`` gauges and every worker's decayed
        cumulative payoff feeds the income-trajectory histogram — the
        long-horizon counterparts of the per-round gauges.
        """
        if result.rolling_gini is not None:
            METRICS.gauge("fairness.rolling_gini").set(result.rolling_gini)
            METRICS.gauge("fairness.rolling_jain").set(result.rolling_jain)
            ledger = self._state.equity
            if ledger is not None:
                cumulative_hist = METRICS.histogram(
                    "fairness.worker_cumulative_payoff"
                )
                for value in ledger.baselines().values():
                    cumulative_hist.observe(max(0.0, value))
        if not result.payoffs:
            return
        values = [max(0.0, float(v)) for v in result.payoffs.values()]
        METRICS.gauge("fairness.round_gini").set(gini_coefficient(values))
        METRICS.gauge("fairness.round_jain").set(jain_index(values))
        payoff_hist = METRICS.histogram("fairness.worker_payoff")
        for value in values:
            payoff_hist.observe(value)
