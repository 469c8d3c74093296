"""Convergence traces for the game-theoretic solvers (Figure 12 data)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.payoff import average_payoff, payoff_difference


@dataclass(frozen=True)
class TracePoint:
    """Diagnostics after one full update round.

    Attributes
    ----------
    round_index:
        1-based round counter.
    payoff_difference:
        ``P_dif`` of the joint strategy after the round.
    average_payoff:
        Mean worker payoff after the round.
    switches:
        How many workers changed strategy during the round (0 means the
        round was a fixed point).
    potential:
        The exact potential ``Phi`` (sum of IAUs) for FGT; for IEGT this is
        the sum of payoffs.
    """

    round_index: int
    payoff_difference: float
    average_payoff: float
    switches: int
    potential: float


class ConvergenceTrace:
    """Append-only series of :class:`TracePoint`, one per round.

    Recording is cheap: a round's payoff vector is kept as given, and its
    ``P_dif``, mean and (unless the solver supplied it) potential are
    computed when a point is first read, by the same functions an eager
    record would call.  ``potential`` maps a payoff vector to the round's
    potential for rounds recorded without one.  A recorded payoff vector
    must not be mutated afterwards; it is released once its point exists.
    """

    def __init__(
        self, potential: Optional[Callable[[np.ndarray], float]] = None
    ) -> None:
        self._potential = potential
        self._points: List[TracePoint] = []
        self._pending: List[Tuple[int, Sequence[float], int, Optional[float]]] = []

    def record(
        self,
        round_index: int,
        payoffs: Sequence[float],
        switches: int,
        potential: Optional[float] = None,
    ) -> None:
        """Append the diagnostics of a finished round.

        ``potential`` defaults to the trace's ``potential`` function of
        ``payoffs``, evaluated when the point is read.
        """
        if potential is None and self._potential is None:
            raise ValueError("a trace without a potential function needs potential=")
        self._pending.append((round_index, payoffs, switches, potential))

    def _flush(self) -> List[TracePoint]:
        """Every recorded point, the pending ones computed now."""
        if self._pending:
            for round_index, payoffs, switches, potential in self._pending:
                self._points.append(
                    TracePoint(
                        round_index=round_index,
                        payoff_difference=payoff_difference(payoffs),
                        average_payoff=average_payoff(payoffs),
                        switches=switches,
                        potential=(
                            self._potential(payoffs)
                            if potential is None
                            else potential
                        ),
                    )
                )
            self._pending = []
        return self._points

    def __len__(self) -> int:
        return len(self._points) + len(self._pending)

    def __iter__(self) -> Iterator[TracePoint]:
        return iter(self._flush())

    def __getitem__(self, idx: int) -> TracePoint:
        return self._flush()[idx]

    @property
    def points(self) -> Tuple[TracePoint, ...]:
        return tuple(self._flush())

    @property
    def final(self) -> TracePoint:
        """The last recorded round; raises on an empty trace."""
        points = self._flush()
        if not points:
            raise IndexError("trace is empty")
        return points[-1]

    def series(self, field: str) -> List[float]:
        """The per-round series of one :class:`TracePoint` field."""
        return [getattr(p, field) for p in self._flush()]
