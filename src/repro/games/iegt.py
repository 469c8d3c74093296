"""Improved Evolutionary Game-Theoretic approach (IEGT) — Algorithm 3.

Workers of one distribution center form a population that repeatedly plays
the assignment game with bounded rationality.  Each round evaluates the
replicator dynamics (Equation 11): a strategy's share grows or shrinks with
the gap between its player's payoff ``U_i`` and the population average
``U-bar``.  A worker whose replicator derivative is negative (payoff below
average) must evolve: it switches to a *random* available VDPS with strictly
higher payoff, when one exists.  The play stops at the improved evolutionary
equilibrium — all derivatives zero (equal payoffs) or no worker able to
change strategy — which Definition 10 shows is an IESS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.core.instance import SubProblem
from repro.games.base import SCAN_MAX, GameResult, GameState, random_initial_state
from repro.games.trace import ConvergenceTrace
from repro.obs.metrics import METRICS
from repro.obs.tracer import resolve_tracer
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike, ensure_rng
from repro.vdps.catalog import VDPSCatalog, build_catalog
from repro.verify.verifier import (
    NULL_VERIFIER,
    EvolutionaryGameVerifier,
    NullVerifier,
    verification_enabled,
)

logger = get_logger("games.iegt")


@dataclass(frozen=True)
class IEGTSolver:
    """Replicator-dynamics solver for the FTA evolutionary game.

    Parameters
    ----------
    max_rounds:
        Budget of evolution rounds; exceeding it is reported via
        ``GameResult.converged``.
    tol:
        Payoffs within ``tol`` of the population average are treated as
        average (replicator derivative zero), and a switch target must be
        better than the current payoff by more than ``tol``.
    epsilon:
        Distance-constrained pruning threshold for VDPS generation when the
        solver builds the catalog itself; ``None`` disables pruning.
    trace_granularity:
        ``"round"`` (default) records one trace point per evolution round;
        ``"update"`` records one per individual worker adaptation, matching
        the per-iteration x-axis of the paper's Figure 12.
    early_stop_patience, early_stop_tol:
        Optional early termination (the paper's future-work item): stop
        once the population's total payoff has improved by less than
        ``early_stop_tol`` over ``early_stop_patience`` consecutive rounds.
        ``None`` (default) disables it.  An early-stopped run reports
        ``converged=False``.
    termination:
        ``"improved"`` (default) is the paper's IESS condition — stop when
        all replicator derivatives are zero *or* nobody changed strategy.
        ``"classic"`` keeps only the textbook evolutionary-equilibrium
        condition (all payoffs equal), which in FTA's heterogeneous-
        strategy setting typically never holds; it exists to reproduce the
        paper's motivation for improving the termination (Section VI-C).
    verify:
        Run the :mod:`repro.verify` invariant checkers during the solve:
        a worker may only evolve when its replicator derivative is
        negative (payoff below the population average, Eqs. 11-14), every
        switch must strictly increase its payoff, a converged final state
        must satisfy Definition 10's improved equilibrium condition, and
        the final assignment must pass all Definition 6/8 checks.  Off by
        default (zero hot-path overhead via a no-op verifier); the global
        ``REPRO_VERIFY=1`` environment hook also enables it.
    trace:
        Emit structured :mod:`repro.obs` events while solving — one
        ``iegt.round`` per evolution round, one ``iegt.evolve`` per worker
        adaptation, plus solve start/end records.  Accepts ``True`` (route
        to the process-wide sink: :func:`repro.obs.set_tracing` target,
        then ``REPRO_TRACE=path.jsonl``, then the shared in-memory tracer)
        or a tracer instance.  Off by default with zero hot-path overhead
        via the shared no-op tracer.
    equity_mode, equity_baselines:
        Ledger-weighted temporal fairness (``docs/temporal_fairness.md``).
        When ``equity_mode`` is on, the replicator derivative's sign is
        taken on *effective* payoffs ``P_i + C_i``, where ``C_i`` is the
        worker's decayed cumulative payoff from ``equity_baselines``
        (typically :meth:`~repro.equity.ledger.EquityLedger.baselines`;
        missing workers default to 0.0).  A cumulative-rich worker thus
        sits above the effective average and never evolves, while a
        cumulative-poor worker keeps evolving even when its round payoff
        already matches its peers'.  Switch targets still require a
        strictly better *round* payoff, so every switch increases the raw
        population total — the termination argument survives equity mode
        untouched.
    """

    max_rounds: int = 500
    tol: float = 1e-9
    epsilon: Optional[float] = None
    trace_granularity: str = "round"
    early_stop_patience: Optional[int] = None
    early_stop_tol: float = 1e-6
    termination: str = "improved"
    verify: bool = False
    trace: object = False
    equity_mode: bool = False
    equity_baselines: Optional[Mapping[str, float]] = None

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
        if self.termination not in ("improved", "classic"):
            raise ValueError(
                f"termination must be 'improved' or 'classic', "
                f"got {self.termination!r}"
            )

    @property
    def name(self) -> str:
        return "IEGT" if self.epsilon is not None else "IEGT-W"

    def solve(
        self,
        sub: SubProblem,
        catalog: Optional[VDPSCatalog] = None,
        seed: SeedLike = None,
    ) -> GameResult:
        """Run Algorithm 3 on the population of ``sub``'s workers."""
        tracer = resolve_tracer(self.trace)
        if catalog is None:
            catalog = build_catalog(sub, epsilon=self.epsilon, tracer=tracer)
        rng = ensure_rng(seed)
        state = random_initial_state(catalog, rng)
        trace = ConvergenceTrace(_total_payoff)
        base = self._equity_base(state)
        verifier: NullVerifier = NULL_VERIFIER
        if verification_enabled(self.verify):
            verifier = EvolutionaryGameVerifier(
                tol=self.tol, solver=self.name, offsets=base
            )
        verifier.on_solve_start(state)
        if tracer.enabled:
            tracer.event(
                "iegt.solve_start",
                solver=self.name,
                center=sub.center.center_id,
                workers=len(state.workers),
                strategies=catalog.total_strategy_count,
                epsilon=self.epsilon,
            )

        population = len(state.workers)
        converged = False
        rounds = 0
        total_switches = 0
        stall = 0
        # The total payoff is read during the solve only by the verifier,
        # the tracer and early stop; otherwise the trace derives it on
        # demand.
        eager = (
            verifier.enabled
            or tracer.enabled
            or self.early_stop_patience is not None
        )
        last_total = _total_payoff(state.payoffs()) if eager else None
        # Vectorized-filter batch statistics, flushed to METRICS once per
        # solve: [batches, strategies screened, candidates surviving].
        batch_stats = [0, 0, 0]
        with METRICS.timer("iegt.solve_seconds"):
            for rounds in range(1, self.max_rounds + 1):
                payoffs = state.payoffs()
                effective = payoffs if base is None else payoffs + base
                mean_payoff = float(effective.mean()) if population else 0.0
                switches = 0
                all_average = True
                for idx, worker in enumerate(state.workers):
                    # sigma_km > 0 for a strategy in use, so the sign of the
                    # replicator derivative (Eq. 11) is the sign of U_i - U-bar
                    # — on effective payoffs (round + cumulative base) when
                    # equity mode is on.
                    gap = effective[idx] - mean_payoff
                    switched = False
                    if gap < -self.tol:
                        all_average = False
                        old_payoff = payoffs[idx]
                        old_effective = effective[idx]
                        switched = self._evolve(
                            state, idx, old_payoff, rng, batch_stats
                        )
                        if switched:
                            payoffs = state.payoffs()
                            new_payoff = float(payoffs[idx])
                            verifier.on_switch(
                                worker.worker_id,
                                rounds,
                                (old_effective, mean_payoff),
                                new_payoff
                                if base is None
                                else new_payoff + base[idx],
                            )
                            if tracer.enabled:
                                tracer.event(
                                    "iegt.evolve",
                                    worker=worker.worker_id,
                                    round=rounds,
                                    payoff_before=float(old_payoff),
                                    payoff_after=new_payoff,
                                    mean_payoff=mean_payoff,
                                )
                            switches += 1
                            effective = (
                                payoffs if base is None else payoffs + base
                            )
                            mean_payoff = float(effective.mean())
                    elif abs(gap) > self.tol:
                        all_average = False
                    if self.trace_granularity == "update":
                        trace.record(
                            len(trace) + 1,
                            payoffs,
                            int(switched),
                            potential=_total_payoff(payoffs),
                        )
                total_switches += switches
                total = _total_payoff(payoffs) if eager else None
                if self.trace_granularity == "round":
                    trace.record(rounds, payoffs, switches, potential=total)
                verifier.on_round(rounds, payoffs, total, switches)
                if tracer.enabled:
                    tracer.event(
                        "iegt.round",
                        round=rounds,
                        switches=switches,
                        total_payoff=total,
                        mean_payoff=mean_payoff,
                    )
                stop = (
                    all_average
                    if self.termination == "classic"
                    else (all_average or switches == 0)
                )
                if stop:
                    converged = True
                    break
                if self.early_stop_patience is not None:
                    if total - last_total < self.early_stop_tol:
                        stall += 1
                        if stall >= self.early_stop_patience:
                            break
                    else:
                        stall = 0
                last_total = total
        if not converged:
            logger.warning(
                "IEGT did not reach an evolutionary equilibrium within %d rounds",
                self.max_rounds,
            )
        METRICS.counter("iegt.rounds").add(rounds)
        METRICS.counter("iegt.switches").add(total_switches)
        if batch_stats[0]:
            METRICS.counter("engine.filter_batches").add(batch_stats[0])
            METRICS.counter("engine.candidates_screened").add(batch_stats[1])
            METRICS.counter("engine.candidates_available").add(batch_stats[2])
        assignment = state.to_assignment()
        verifier.on_final(state, assignment, sub=sub, converged=converged)
        if tracer.enabled:
            tracer.event(
                "iegt.solve_end",
                solver=self.name,
                center=sub.center.center_id,
                rounds=rounds,
                switches=total_switches,
                converged=converged,
            )
        return GameResult(assignment, trace, converged, rounds)

    def _equity_base(self, state: GameState) -> Optional[np.ndarray]:
        """Per-worker cumulative-payoff offsets, or ``None`` when equity is off.

        Workers missing from ``equity_baselines`` (newly joined since the
        ledger last recorded) start from a zero base, so the effective
        average immediately treats them as the poorest in the population.
        """
        if not self.equity_mode:
            return None
        baselines = self.equity_baselines or {}
        return np.array(
            [float(baselines.get(w.worker_id, 0.0)) for w in state.workers]
        )

    def _evolve(
        self,
        state: GameState,
        k: int,
        current_payoff: float,
        rng: np.random.Generator,
        batch_stats: list,
    ) -> bool:
        """Switch worker ``k`` (catalog order), whose payoff is
        ``current_payoff``, to a random strictly-better available VDPS.

        Returns whether a switch happened (Algorithm 3, lines 22-25).
        Availability and the strictly-better filter run as two vectorized
        passes over the catalog index that preserve catalog order, so the
        candidate pool, the rng draw and the chosen strategy are those of
        :class:`repro.oracle.ScalarIEGTSolver`'s per-strategy reference
        loop.  The switch is made by position, building no object.
        """
        wi = state.indexes[k]
        floor = current_payoff + self.tol
        if wi.n_strategies <= SCAN_MAX:
            available = state.open_positions(k)
            payoffs = wi.payoff_list
            better = [p for p in available if payoffs[p] > floor]
        else:
            available = state.available(k)
            better = available[wi.payoffs[available] > floor]
        batch_stats[0] += 1
        batch_stats[1] += wi.n_strategies
        batch_stats[2] += len(available)
        if not len(better):
            return False
        state.switch(k, int(better[int(rng.integers(0, len(better)))]))
        return True


def _total_payoff(payoffs: np.ndarray) -> float:
    """IEGT's trace potential: the population's total payoff."""
    return float(payoffs.sum())
