"""Trace-level verifiers the game solvers call while they run.

The solvers are instrumented with four hook points — solve start, strategy
switch, round end, final state — and route them through a verifier object:

* :class:`NullVerifier` (the default) makes every hook a no-op, so solvers
  pay nothing when verification is off.
* :class:`PotentialGameVerifier` certifies FGT: every best-response switch
  strictly improves the switching worker's IAU, the exact potential
  ``Phi = sum IAU`` never decreases across rounds (Lemma 2), the
  solver-reported potential matches a from-scratch recomputation, and a
  converged final state is a pure Nash equilibrium.
* :class:`EvolutionaryGameVerifier` certifies IEGT: a worker only evolves
  when its replicator derivative is negative (payoff below the population
  average, the sign condition of Equations 11-14), every switch strictly
  improves its payoff, and a converged final state satisfies the improved
  evolutionary-equilibrium condition of Definition 10.
* :class:`AssignmentVerifier` covers the one-shot baselines (GTA, MPTA):
  only the final assignment is checked.

All verifiers finish with the assignment-level checkers of
:mod:`repro.verify.checkers`.  Whether verification is on is decided by
:func:`verification_enabled`, which honours a per-solver flag, a global
override (set by ``python -m repro verify``), and the ``REPRO_VERIFY``
environment variable, in that order.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import InvariantViolation
from repro.core.fairness import InequityAversion
from repro.core.instance import SubProblem
from repro.verify.checkers import ABS_TOL, verify_assignment
from repro.verify.stats import STATS

# NOTE: repro.games.potential.is_pure_nash is imported lazily inside
# PotentialGameVerifier.on_final — the game solvers import this module at
# class-definition time, so a top-level import here would be circular.

_TRUTHY = ("1", "true", "yes", "on")

#: Global override installed by ``python -m repro verify`` (None = defer to env).
_OVERRIDE: Optional[bool] = None


def set_verification(enabled: Optional[bool]) -> None:
    """Force verification on/off process-wide; ``None`` restores env control."""
    global _OVERRIDE
    _OVERRIDE = enabled


def verification_enabled(flag: bool = False) -> bool:
    """Whether solvers should verify: ``flag`` or override or ``REPRO_VERIFY``."""
    if flag:
        return True
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_VERIFY", "").strip().lower() in _TRUTHY


class NullVerifier:
    """No-op verifier: the zero-overhead default on every solver hot path."""

    enabled = False

    def on_solve_start(self, state) -> None:
        """Called once before the first round; no-op."""
        pass

    def on_switch(self, worker_id, round_index, before, after) -> None:
        """Called on every strategy switch; no-op."""
        pass

    def on_round(self, round_index, payoffs, potential, switches) -> None:
        """Called at the end of every round; no-op."""
        pass

    def on_final(self, state, assignment, sub=None, converged=True) -> None:
        """Called once with the final state; no-op."""
        pass


#: Shared no-op instance handed to solvers when verification is off.
NULL_VERIFIER = NullVerifier()


def _monotone_slack(reference: float) -> float:
    """Float slack for monotonicity checks, scaled to the value magnitude."""
    return ABS_TOL * max(1.0, abs(reference))


class AssignmentVerifier(NullVerifier):
    """Final-state-only verifier for one-shot solvers (GTA, MPTA, random)."""

    enabled = True

    def __init__(self, solver: str = "") -> None:
        self._solver = solver

    def on_final(self, state, assignment, sub=None, converged=True) -> None:
        """Run every assignment-level checker on the final assignment."""
        verify_assignment(
            assignment, sub=sub, catalog=state.catalog, solver=self._solver
        )


class PotentialGameVerifier(AssignmentVerifier):
    """Lemma 2 certification for FGT's sequential best-response play."""

    def __init__(
        self,
        model: InequityAversion,
        scales: Optional[Sequence[float]] = None,
        tol: float = 1e-9,
        solver: str = "FGT",
        offsets: Optional[Sequence[float]] = None,
        monotone: bool = True,
    ) -> None:
        """``offsets``/``monotone`` support the ledger-weighted equity game.

        ``offsets`` (one addend per worker) makes every potential
        computation and the final Nash check run on *effective* payoffs
        ``payoff * scale + offset``.  ``monotone=False`` disables only the
        Lemma 2 non-decreasing-potential check: the amplified equity
        model's IAU weights exceed 1/2, past which a utility-improving
        switch can legitimately lower ``Phi`` (see
        :func:`repro.core.fairness.equity_model`); the recompute, strict
        switch-improvement, and pure-Nash checks all remain active.
        """
        super().__init__(solver)
        self._model = model
        self._scales = None if scales is None else np.asarray(scales, dtype=float)
        self._offsets = (
            None if offsets is None else np.asarray(offsets, dtype=float)
        )
        self._monotone = monotone
        self._tol = tol
        self._last_potential: Optional[float] = None

    def _scaled(self, payoffs) -> np.ndarray:
        values = np.asarray(payoffs, dtype=float)
        if self._scales is not None:
            values = values * self._scales
        if self._offsets is not None:
            values = values + self._offsets
        return values

    def on_solve_start(self, state) -> None:
        """Record the initial potential as the monotonicity baseline."""
        self._last_potential = self._model.potential(self._scaled(state.payoffs()))

    def on_switch(self, worker_id, round_index, before, after) -> None:
        """A best-response switch must strictly improve the worker's IAU."""
        if after <= before + self._tol:
            raise InvariantViolation(
                "fgt.switch-improving",
                f"switch changed IAU from {before!r} to {after!r} "
                f"(required improvement > {self._tol})",
                solver=self._solver,
                worker_id=worker_id,
                round_index=round_index,
            )
        STATS.record("fgt.switch-improving")

    def on_round(self, round_index, payoffs, potential, switches) -> None:
        """Recompute Phi from scratch; Lemma 2 forbids it ever decreasing."""
        recomputed = self._model.potential(self._scaled(payoffs))
        slack = _monotone_slack(recomputed)
        if potential is not None and abs(recomputed - potential) > slack:
            raise InvariantViolation(
                "fgt.potential-recompute",
                f"solver-reported potential {potential!r} != from-scratch "
                f"recomputation {recomputed!r}",
                solver=self._solver,
                round_index=round_index,
            )
        if (
            self._monotone
            and self._last_potential is not None
            and recomputed < self._last_potential - _monotone_slack(self._last_potential)
        ):
            raise InvariantViolation(
                "fgt.potential-monotone",
                f"potential decreased from {self._last_potential!r} to "
                f"{recomputed!r} across a best-response round (Lemma 2)",
                solver=self._solver,
                round_index=round_index,
            )
        self._last_potential = recomputed
        STATS.record("fgt.potential-monotone")

    def on_final(self, state, assignment, sub=None, converged=True) -> None:
        """Check the assignment and certify the pure-NE claim (Def. 9)."""
        from repro.games.potential import is_pure_nash

        super().on_final(state, assignment, sub=sub, converged=converged)
        # A fixed point of the tol-thresholded best response certifies "no
        # deviation gains more than 2*tol" (the threshold can hide up to tol
        # in the candidate scan and another tol in the switch test).
        if converged and not is_pure_nash(
            state,
            self._model,
            tol=2 * self._tol,
            scales=self._scales,
            offsets=self._offsets,
        ):
            raise InvariantViolation(
                "fgt.pure-nash",
                "solver reported convergence but a worker can strictly improve "
                "its IAU by a unilateral switch",
                solver=self._solver,
            )
        if converged:
            STATS.record("fgt.pure-nash")


class EvolutionaryGameVerifier(AssignmentVerifier):
    """Equations 11-14 certification for IEGT's replicator-driven play."""

    def __init__(
        self,
        tol: float = 1e-9,
        solver: str = "IEGT",
        offsets: Optional[Sequence[float]] = None,
    ) -> None:
        """``offsets`` (one addend per worker) supports equity mode: the
        below-average tests — on switches and in the final Definition 10
        scan — then run on *effective* payoffs ``payoff + offset``, which
        is the quantity the equity-mode replicator derivative is signed
        on.  Switch targets are still required to strictly improve, which
        in effective terms equals strict raw improvement."""
        super().__init__(solver)
        self._tol = tol
        self._offsets = (
            None if offsets is None else np.asarray(offsets, dtype=float)
        )

    def _effective(self, payoffs) -> np.ndarray:
        values = np.asarray(payoffs, dtype=float)
        return values if self._offsets is None else values + self._offsets

    def on_switch(self, worker_id, round_index, before, after) -> None:
        """``before`` is ``(payoff, population mean)``; ``after`` the new payoff.

        The sign of the replicator derivative (Equation 11) is the sign of
        ``U_i - U-bar``, so a switching worker must have been strictly below
        the population average, and Algorithm 3 only ever switches to a
        strictly better-paying strategy.  In equity mode all three values
        arrive as effective payoffs (round + cumulative base).
        """
        payoff, mean_payoff = before
        if payoff >= mean_payoff - self._tol:
            raise InvariantViolation(
                "iegt.replicator-sign",
                f"worker evolved although its payoff {payoff!r} was not below "
                f"the population average {mean_payoff!r} (Eq. 11 derivative "
                f"not negative)",
                solver=self._solver,
                worker_id=worker_id,
                round_index=round_index,
            )
        if after <= payoff + self._tol:
            raise InvariantViolation(
                "iegt.switch-improving",
                f"switch changed payoff from {payoff!r} to {after!r} "
                f"(required improvement > {self._tol})",
                solver=self._solver,
                worker_id=worker_id,
                round_index=round_index,
            )
        STATS.record("iegt.switch-improving")

    def on_round(self, round_index, payoffs, potential, switches) -> None:
        """IEGT reports the population's total payoff as its trace potential."""
        recomputed = float(np.asarray(payoffs, dtype=float).sum())
        if potential is not None and abs(recomputed - potential) > _monotone_slack(
            recomputed
        ):
            raise InvariantViolation(
                "iegt.total-payoff-recompute",
                f"solver-reported total payoff {potential!r} != recomputed "
                f"{recomputed!r}",
                solver=self._solver,
                round_index=round_index,
            )
        STATS.record("iegt.round")

    def on_final(self, state, assignment, sub=None, converged=True) -> None:
        """Check the assignment and the Definition 10 equilibrium claim."""
        super().on_final(state, assignment, sub=sub, converged=converged)
        if not converged:
            return
        payoffs = state.payoffs()
        effective = self._effective(payoffs)
        mean_payoff = float(effective.mean()) if effective.size else 0.0
        if bool(np.all(np.abs(effective - mean_payoff) <= self._tol)):
            STATS.record("iegt.iess")
            return
        # Improved termination (Definition 10): nobody below average may
        # still hold a strictly better available strategy.  The scan runs on
        # the catalog's bitmask conflict index, in catalog order, so the
        # first violation is the one a strategy-by-strategy scan reports.
        # The below-average test uses effective payoffs in equity mode; the
        # better-strategy test stays on raw payoffs, mirroring the solver.
        for idx, worker in enumerate(state.workers):
            if effective[idx] >= mean_payoff - self._tol:
                continue
            current = state.strategy_of(worker.worker_id).payoff
            available = state.available_strategy_indices(worker.worker_id)
            candidates = state.catalog.index.worker(worker.worker_id).payoffs[
                available
            ]
            improving = np.flatnonzero(candidates > current + self._tol)
            better = (
                state.catalog.strategies(worker.worker_id)[
                    int(available[improving[0]])
                ]
                if improving.size
                else None
            )
            if better is not None:
                raise InvariantViolation(
                    "iegt.iess",
                    f"solver reported convergence but the below-average "
                    f"worker still has a strictly better available VDPS "
                    f"(payoff {current!r} -> {better.payoff!r})",
                    solver=self._solver,
                    worker_id=worker.worker_id,
                    strategy=tuple(better.point_ids),
                )
        STATS.record("iegt.iess")


def make_assignment_verifier(enabled: bool, solver: str = "") -> NullVerifier:
    """An :class:`AssignmentVerifier` when ``enabled``, else the shared no-op."""
    if verification_enabled(enabled):
        return AssignmentVerifier(solver=solver)
    return NULL_VERIFIER


def verify_result(
    result,
    sub: Optional[SubProblem] = None,
    catalog=None,
    solver: str = "",
) -> None:
    """Assignment-level verification of a finished :class:`GameResult`.

    Convenience for callers that only hold a result (the experiment runner,
    the differential harness): checks the assignment and cross-checks the
    trace's final ``P_dif`` against a from-scratch recomputation.
    """
    reported = None
    trace = getattr(result, "trace", None)
    if trace is not None and len(trace):
        reported = trace.final.payoff_difference
    verify_assignment(
        result.assignment,
        sub=sub,
        catalog=catalog,
        solver=solver,
        reported_payoff_difference=reported,
    )
