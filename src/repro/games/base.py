"""Shared game machinery: joint-strategy state and random initialisation.

Both Algorithm 2 (FGT) and Algorithm 3 (IEGT) start from the same random
single-point assignment (their lines 6-16) and then iterate strategy updates
over a mutable joint state.  :class:`GameState` owns that state and keeps the
disjointness bookkeeping (which delivery points are claimed by whom) so
solvers stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment, WorkerAssignment
from repro.core.entities import Worker
from repro.games.trace import ConvergenceTrace
from repro.utils.rng import SeedLike, ensure_rng
from repro.vdps.catalog import NULL_STRATEGY, VDPSCatalog, WorkerStrategy


class GameState:
    """The joint strategy of all players plus conflict bookkeeping.

    Invariant: the point sets of all non-null strategies are pairwise
    disjoint (Definition 8); every mutation goes through
    :meth:`set_strategy`, which maintains the claimed-points bitmask over
    the catalog's conflict index.
    """

    def __init__(self, catalog: VDPSCatalog) -> None:
        self.catalog = catalog
        self.workers: Tuple[Worker, ...] = catalog.workers
        self._strategy: Dict[str, WorkerStrategy] = {
            w.worker_id: NULL_STRATEGY for w in self.workers
        }
        # One uint64 word vector for the union of all claimed points, plus
        # each worker's own contribution.
        index = catalog.index
        self._claimed_words = index.empty_mask()
        zero = index.empty_mask()
        self._worker_words: Dict[str, np.ndarray] = {
            w.worker_id: zero for w in self.workers
        }

    def strategy_of(self, worker_id: str) -> WorkerStrategy:
        """The strategy ``worker_id`` currently plays (null if none)."""
        return self._strategy[worker_id]

    def set_strategy(
        self,
        worker_id: str,
        strategy: WorkerStrategy,
        position: Optional[int] = None,
    ) -> None:
        """Switch ``worker_id`` to ``strategy``, updating claimed points.

        ``position`` is the strategy's position in
        ``catalog.strategies(worker_id)`` when the caller knows it; the
        conflict mask is then read from that index row instead of being
        packed point by point.  Raises :class:`ValueError`, leaving the
        state unchanged, if the strategy overlaps points claimed by another
        worker (solvers must only offer available strategies) or uses a
        point the catalog index does not know.
        """
        index = self.catalog.index
        if position is not None:
            new_words = index.worker(worker_id).masks[position]
        else:
            try:
                new_words = index.mask_of(strategy.point_ids)
            except KeyError as exc:
                raise ValueError(
                    f"delivery point {exc.args[0]!r} is in no strategy of the "
                    "catalog"
                ) from None
        clash = new_words & self.claimed_words_except(worker_id)
        if clash.any():
            owners = sorted(
                wid
                for wid, words in self._worker_words.items()
                if wid != worker_id and (words & clash).any()
            )
            raise ValueError(
                f"delivery points of {worker_id!r}'s strategy already claimed "
                f"by {', '.join(map(repr, owners))}"
            )
        # Disjointness (checked above) makes XOR an exact release of the
        # worker's previous bits; OR then claims the new ones.
        self._claimed_words ^= self._worker_words[worker_id]
        self._claimed_words |= new_words
        self._worker_words[worker_id] = new_words
        self._strategy[worker_id] = strategy

    def claimed_words_except(self, worker_id: str) -> np.ndarray:
        """Bitmask of points claimed by every worker but ``worker_id``."""
        return self._claimed_words & ~self._worker_words[worker_id]

    def available_strategies(self, worker_id: str) -> List[WorkerStrategy]:
        """Strategies ``worker_id`` could switch to right now (excl. null),
        in catalog order: the objects at
        :meth:`available_strategy_indices`."""
        strategies = tuple(self.catalog.strategies(worker_id))
        return [
            strategies[i] for i in self.available_strategy_indices(worker_id).tolist()
        ]

    def available_strategy_indices(self, worker_id: str) -> np.ndarray:
        """Positions (into the worker's strategy tuple) available right now:
        one ``masks & claimed`` pass over the catalog index."""
        return self.catalog.index.worker(worker_id).available(
            self.claimed_words_except(worker_id)
        )

    def payoffs(self) -> np.ndarray:
        """Current payoff vector, in worker order."""
        return np.array(
            [self._strategy[w.worker_id].payoff for w in self.workers], dtype=float
        )

    def joint_strategy_key(self) -> Tuple[FrozenSet[str], ...]:
        """A hashable snapshot of the joint strategy (for cycle detection)."""
        return tuple(self._strategy[w.worker_id].point_ids for w in self.workers)

    def to_assignment(self) -> Assignment:
        """Freeze the state into a validated :class:`Assignment`."""
        pairs = []
        for w in self.workers:
            strategy = self._strategy[w.worker_id]
            route = None if strategy.is_null else strategy.route
            pairs.append(WorkerAssignment(w, route))
        return Assignment(pairs)


def random_initial_state(
    catalog: VDPSCatalog, seed: SeedLike = None
) -> GameState:
    """Random single-point initial assignment (Algorithms 2-3, lines 6-16).

    Workers are processed in catalog order; each draws uniformly among its
    size-1 VDPSs whose point is still unclaimed, or plays null when none
    remain.
    """
    rng = ensure_rng(seed)
    state = GameState(catalog)
    index = catalog.index
    for worker in catalog.workers:
        # Filtering the precomputed size-1 positions by the claimed bitmask
        # yields the same candidate list, in the same (catalog) order, as
        # scanning the available strategies for size == 1 (Algorithms 2-3,
        # lines 6-16), so the rng draws stay those of that scan.
        wid = worker.worker_id
        wi = index.worker(wid)
        if not wi.size1.size:
            continue
        claimed = state.claimed_words_except(wid)
        conflict = (wi.masks[wi.size1] & claimed).any(axis=1)
        candidates = wi.size1[~conflict]
        if candidates.size:
            pick = int(candidates[int(rng.integers(0, candidates.size))])
            state.set_strategy(wid, catalog.strategies(wid)[pick], pick)
    return state


@dataclass(frozen=True)
class GameResult:
    """Outcome of a game-theoretic solve.

    Attributes
    ----------
    assignment:
        The final (validated) task assignment.
    trace:
        Per-iteration convergence diagnostics (Figure 12's raw data).
    converged:
        Whether a fixed point was reached before the iteration budget.
    rounds:
        Number of full update rounds executed.
    """

    assignment: Assignment
    trace: ConvergenceTrace
    converged: bool
    rounds: int
