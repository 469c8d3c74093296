"""Fairness-aware Game-Theoretic approach (FGT) — Algorithm 2.

FTA is cast as an n-player strategic game whose utilities are the Inequity
Aversion based Utilities (Equations 5-7).  Lemma 2 shows the game is an
exact potential game (potential = sum of IAUs), so sequential asynchronous
best response converges to a pure Nash equilibrium: workers take turns
switching to the available VDPS (or null) with maximal IAU, and the play
stops when a full round changes nobody's strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Optional

import numpy as np

from repro.core.fairness import (
    DEFAULT_EQUITY_STRENGTH,
    InequityAversion,
    equity_model,
)
from repro.core.instance import SubProblem
from repro.core.priority import PriorityModel
from repro.games.base import SCAN_MAX, GameResult, GameState, random_initial_state
from repro.games.potential import (
    iau_scores,
    iau_utilities,
    potential_value,
    sequential_best,
)
from repro.games.trace import ConvergenceTrace
from repro.obs.metrics import METRICS
from repro.obs.tracer import NullTracer, resolve_tracer
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike, ensure_rng
from repro.vdps.catalog import NULL_STRATEGY, VDPSCatalog, build_catalog
from repro.verify.verifier import (
    NULL_VERIFIER,
    NullVerifier,
    PotentialGameVerifier,
    verification_enabled,
)

logger = get_logger("games.fgt")


def _effective(payoffs: np.ndarray, scales: np.ndarray, base) -> np.ndarray:
    """Effective payoffs: scaled round payoffs, plus the equity base if set.

    The ``base is None`` branch keeps the non-equity expression literally
    unchanged so existing solves stay byte-for-byte identical; the equity
    branch's ``payoffs * scales + base`` is the exact elementwise op order
    the round replicates when it updates single entries.
    """
    return payoffs * scales if base is None else payoffs * scales + base


@dataclass(frozen=True)
class FGTSolver:
    """Best-response solver for the FTA game.

    Parameters
    ----------
    alpha, beta:
        IAU weights (Equation 5); the paper fixes both at 0.5.
    max_rounds:
        Budget of full best-response rounds.  The potential argument of
        Lemma 2 makes cycling unlikely; the budget guards degenerate cases,
        and exceeding it is reported via ``GameResult.converged``.
    tol:
        A switch requires at least this much IAU improvement, which keeps
        floating-point noise from producing livelock.  Exact-utility ties
        among the accepted best candidates are broken by a seeded uniform
        draw (not first-in-catalog order, which would systematically
        favour the same point sets), so the solve stays deterministic per
        seed.
    epsilon:
        Distance-constrained pruning threshold for VDPS generation when the
        solver builds the catalog itself; ``None`` disables pruning.
    trace_granularity:
        ``"round"`` (default) records one trace point per full best-response
        pass; ``"update"`` records one per individual worker update, which
        matches the per-iteration x-axis of the paper's Figure 12.
    early_stop_patience, early_stop_tol:
        Optional early termination (the paper's future-work item on
        iteration efficiency): stop once the potential has improved by less
        than ``early_stop_tol`` over ``early_stop_patience`` consecutive
        rounds.  ``None`` (default) disables it and plays to the exact
        fixed point.  An early-stopped run reports ``converged=False``.
    priorities:
        Optional :class:`~repro.core.priority.PriorityModel` enabling
        priority-aware fairness (the paper's future-work direction): the
        game's utilities become IAU over priority-normalised payoffs, so
        equilibrium payoffs gravitate toward priority-proportional shares.
        ``None`` is the paper's plain IAU game.
    verify:
        Run the :mod:`repro.verify` invariant checkers during the solve:
        every switch must strictly improve the switcher's IAU, the exact
        potential must be non-decreasing per round (Lemma 2), a converged
        final state must be a pure Nash equilibrium, and the final
        assignment must pass all Definition 6/8 checks.  Off by default
        (zero hot-path overhead via a no-op verifier); the global
        ``REPRO_VERIFY=1`` environment hook also enables it.
    trace:
        Emit structured :mod:`repro.obs` events while solving — one
        ``fgt.round`` per best-response pass, one ``fgt.switch`` per
        strategy change, plus solve start/end records.  Accepts ``True``
        (route to the process-wide sink: :func:`repro.obs.set_tracing`
        target, then ``REPRO_TRACE=path.jsonl``, then the shared in-memory
        tracer) or a tracer instance.  Off by default with zero hot-path
        overhead via the shared no-op tracer.
    equity_mode, equity_baselines, equity_strength:
        Ledger-weighted temporal fairness (``docs/temporal_fairness.md``).
        When ``equity_mode`` is on, utilities become the amplified IAU of
        :func:`repro.core.fairness.equity_model` evaluated at *effective*
        payoffs ``P_i * scale_i + C_i``, where ``C_i`` is the worker's
        decayed cumulative payoff from ``equity_baselines`` (a worker-id
        -> float mapping, typically
        :meth:`~repro.equity.ledger.EquityLedger.baselines`; missing
        workers default to 0.0, and ``None`` means an all-zero base — the
        amplified one-shot game ``solve --equity-mode`` plays).  The
        amplified weights void Lemma 2's potential-monotonicity guarantee
        (see :func:`~repro.core.fairness.equity_model`), so the verifier
        skips that one check and convergence is bounded by ``max_rounds``.
    """

    alpha: float = 0.5
    beta: float = 0.5
    max_rounds: int = 200
    tol: float = 1e-9
    epsilon: Optional[float] = None
    trace_granularity: str = "round"
    early_stop_patience: Optional[int] = None
    early_stop_tol: float = 1e-6
    priorities: Optional["PriorityModel"] = None
    verify: bool = False
    trace: object = False
    equity_mode: bool = False
    equity_baselines: Optional[Mapping[str, float]] = None
    equity_strength: float = DEFAULT_EQUITY_STRENGTH

    def __post_init__(self) -> None:
        if self.trace_granularity not in ("round", "update"):
            raise ValueError(
                f"trace_granularity must be 'round' or 'update', "
                f"got {self.trace_granularity!r}"
            )
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError(
                f"early_stop_patience must be >= 1 or None, "
                f"got {self.early_stop_patience!r}"
            )
        if not self.equity_strength > 0:
            raise ValueError(
                f"equity_strength must be > 0, got {self.equity_strength!r}"
            )

    @property
    def name(self) -> str:
        return "FGT" if self.epsilon is not None else "FGT-W"

    def solve(
        self,
        sub: SubProblem,
        catalog: Optional[VDPSCatalog] = None,
        seed: SeedLike = None,
    ) -> GameResult:
        """Run Algorithm 2 on ``sub`` and return the equilibrium assignment."""
        tracer = resolve_tracer(self.trace)
        if catalog is None:
            catalog = build_catalog(sub, epsilon=self.epsilon, tracer=tracer)
        model = InequityAversion(self.alpha, self.beta)
        rng = ensure_rng(seed)
        state = random_initial_state(catalog, rng)
        scales = self._utility_scales(state)
        base = self._equity_base(state)
        if base is not None:
            model = equity_model(model, self.equity_strength)

        def potential_of(payoffs: np.ndarray) -> float:
            return potential_value(_effective(payoffs, scales, base), model)

        trace = ConvergenceTrace(potential_of)
        verifier: NullVerifier = NULL_VERIFIER
        if verification_enabled(self.verify):
            verifier = PotentialGameVerifier(
                model,
                scales=scales,
                tol=self.tol,
                solver=self.name,
                offsets=base,
                # Lemma 2's monotone-potential argument holds for IAU
                # weights <= 1/2; the amplified equity model voids it
                # (see core.fairness.equity_model), so only the
                # recompute/switch/Nash checks apply in equity mode.
                monotone=base is None,
            )
        verifier.on_solve_start(state)
        if tracer.enabled:
            tracer.event(
                "fgt.solve_start",
                solver=self.name,
                center=sub.center.center_id,
                workers=len(state.workers),
                strategies=catalog.total_strategy_count,
                epsilon=self.epsilon,
            )

        converged = False
        rounds = 0
        total_switches = 0
        stall = 0
        # The potential is read during the solve only by the verifier, the
        # tracer and early stop; otherwise the trace derives it on demand.
        eager = (
            verifier.enabled
            or tracer.enabled
            or self.early_stop_patience is not None
        )
        last_potential = potential_of(state.payoffs()) if eager else None
        # Vectorized-filter batch statistics, flushed to METRICS once per
        # solve: [batches, strategies screened, candidates surviving].
        batch_stats = [0, 0, 0]
        with METRICS.timer("fgt.solve_seconds"):
            for rounds in range(1, self.max_rounds + 1):
                switches = self._best_response_round(
                    state, model, trace, scales, rng, verifier, rounds,
                    tracer, batch_stats, base,
                )
                total_switches += switches
                payoffs = state.payoffs()
                potential = potential_of(payoffs) if eager else None
                if self.trace_granularity == "round":
                    trace.record(rounds, payoffs, switches, potential)
                verifier.on_round(rounds, payoffs, potential, switches)
                if tracer.enabled:
                    tracer.event(
                        "fgt.round",
                        round=rounds,
                        switches=switches,
                        potential=potential,
                    )
                if switches == 0:
                    converged = True
                    break
                if self.early_stop_patience is not None:
                    if potential - last_potential < self.early_stop_tol:
                        stall += 1
                        if stall >= self.early_stop_patience:
                            break
                    else:
                        stall = 0
                last_potential = potential
        if not converged:
            logger.warning(
                "FGT did not reach a Nash equilibrium within %d rounds", self.max_rounds
            )
        METRICS.counter("fgt.rounds").add(rounds)
        METRICS.counter("fgt.switches").add(total_switches)
        if batch_stats[0]:
            METRICS.counter("engine.filter_batches").add(batch_stats[0])
            METRICS.counter("engine.candidates_screened").add(batch_stats[1])
            METRICS.counter("engine.candidates_available").add(batch_stats[2])
        assignment = state.to_assignment()
        verifier.on_final(state, assignment, sub=sub, converged=converged)
        if tracer.enabled:
            tracer.event(
                "fgt.solve_end",
                solver=self.name,
                center=sub.center.center_id,
                rounds=rounds,
                switches=total_switches,
                converged=converged,
            )
        return GameResult(assignment, trace, converged, rounds)

    def _utility_scales(self, state: GameState) -> np.ndarray:
        """Per-worker payoff scaling for the utility computation.

        All ones for the plain IAU game; ``1 / priority_i`` under the
        priority-aware extension, which turns the utilities into IAU over
        priority-normalised payoffs.
        """
        if self.priorities is None:
            return np.ones(len(state.workers))
        return np.array(
            [1.0 / self.priorities.priority_of(w.worker_id) for w in state.workers]
        )

    def _equity_base(self, state: GameState) -> Optional[np.ndarray]:
        """Per-worker cumulative-payoff offsets, or ``None`` when equity is off.

        Workers missing from ``equity_baselines`` (newly joined since the
        ledger last recorded) start from a zero base, which is exactly the
        envied-at position the equity game should put a newcomer in.
        """
        if not self.equity_mode:
            return None
        baselines = self.equity_baselines or {}
        return np.array(
            [float(baselines.get(w.worker_id, 0.0)) for w in state.workers]
        )

    def _best_response_round(
        self,
        state: GameState,
        model: InequityAversion,
        trace: ConvergenceTrace,
        scales: np.ndarray,
        rng,
        verifier: NullVerifier,
        round_index: int,
        tracer: NullTracer,
        batch_stats: list,
        base: Optional[np.ndarray] = None,
    ) -> int:
        """One pass of sequential asynchronous best responses; returns switches.

        Each worker in turn switches to the available VDPS (or null) with
        maximal IAU, if that beats its current utility by more than
        ``tol``.  Availability is one ``masks & claimed`` pass over the
        catalog index; the IAUs of null, of the current strategy and of
        every available one are evaluated in one sorted-others/prefix-sum
        batch (:func:`iau_utilities`); the scaled payoff vector is
        maintained incrementally (the focal entry is masked out via slice
        copies into a reusable buffer); and a switch is made by position,
        building no strategy object.  The winning candidate is chosen by
        :func:`sequential_best`, which replays the per-candidate
        tol-thresholded accept scan exactly.  When several available
        strategies share the accepted best utility *exactly*, one is drawn
        uniformly from ``rng`` instead of keeping the first in catalog
        order: the catalog lists VDPSs in a fixed canonical order, so
        first-wins would systematically favour the same point sets across
        rounds and workers.  Tied strategies have equal utility by
        definition, so the draw never changes the switch decision or the
        potential, only *which* equally-good VDPS the worker claims.
        :class:`repro.oracle.ScalarFGTSolver` is the per-strategy reference
        loop this pass must equal bit for bit.
        """
        switches = 0
        payoffs = state.payoffs()
        scaled = _effective(payoffs, scales, base).tolist()
        unit = self.priorities is None and base is None
        for idx, worker in enumerate(state.workers):
            wid = worker.worker_id
            wi = state.indexes[idx]
            others = scaled[:idx] + scaled[idx + 1 :]
            others.sort()
            prefix = [0.0, *accumulate(others)]
            # One IAU evaluation per visit: null, current, then every
            # available strategy, in catalog order.
            null_value = (
                NULL_STRATEGY.payoff
                if base is None
                else NULL_STRATEGY.payoff * scales[idx] + base[idx]
            )
            if wi.n_strategies <= SCAN_MAX:
                available = state.open_positions(idx)
                if unit:
                    # Unit scales: ``payoff * 1.0`` is the payoff itself.
                    worker_values = wi.payoff_list
                else:
                    worker_values = _effective(
                        wi.payoffs, scales[idx], None if base is None else base[idx]
                    ).tolist()
                values = [null_value, scaled[idx]]
                values += map(worker_values.__getitem__, available)
                utilities = iau_scores(others, prefix, values, model)
                candidates = utilities[2:]
            else:
                available = state.available(idx)
                values = np.empty(available.size + 2, dtype=np.float64)
                values[0] = null_value
                values[1] = scaled[idx]
                values[2:] = (
                    wi.payoffs[available]
                    if unit
                    else _effective(
                        wi.payoffs[available],
                        scales[idx],
                        None if base is None else base[idx],
                    )
                )
                scores = iau_utilities(
                    np.array(others), np.array(prefix), values, model
                )
                candidates = scores[2:]
                utilities = scores[:2].tolist()
            n_available = len(available)
            batch_stats[0] += 1
            batch_stats[1] += wi.n_strategies
            batch_stats[2] += n_available
            best_utility, current_utility = utilities[0], utilities[1]
            # Position of the best available strategy; -1 is null.
            best_pos = -1
            if n_available:
                pos, accepted = sequential_best(candidates, best_utility, self.tol)
                if pos >= 0:
                    best_utility = accepted
                    if isinstance(candidates, list):
                        ties = [i for i, u in enumerate(candidates) if u == accepted]
                    else:
                        ties = np.flatnonzero(candidates == accepted)
                    if len(ties) > 1:
                        pos = int(ties[int(rng.integers(len(ties)))])
                    best_pos = int(available[pos])
            switched = 0
            if best_utility > current_utility + self.tol:
                verifier.on_switch(wid, round_index, current_utility, best_utility)
                state.switch(idx, best_pos)
                payoff = (
                    NULL_STRATEGY.payoff
                    if best_pos < 0
                    else float(wi.payoffs[best_pos])
                )
                if tracer.enabled:
                    tracer.event(
                        "fgt.switch",
                        worker=wid,
                        round=round_index,
                        utility_before=current_utility,
                        utility_after=best_utility,
                        payoff=payoff,
                    )
                payoffs[idx] = payoff
                value = payoff * scales[idx]
                scaled[idx] = float(value if base is None else value + base[idx])
                switches += 1
                switched = 1
            if self.trace_granularity == "update":
                trace.record(
                    len(trace) + 1,
                    payoffs.copy(),
                    switched,
                    potential_value(scaled, model),
                )
        return switches
