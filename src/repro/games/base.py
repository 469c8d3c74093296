"""Shared game machinery: joint-strategy state and random initialisation.

Both Algorithm 2 (FGT) and Algorithm 3 (IEGT) start from the same random
single-point assignment (their lines 6-16) and then iterate strategy updates
over a mutable joint state.  :class:`GameState` owns that state and keeps the
disjointness bookkeeping (which delivery points are claimed by whom) so
solvers stay small.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment, WorkerAssignment
from repro.core.entities import Worker
from repro.games.trace import ConvergenceTrace
from repro.utils.rng import SeedLike, ensure_rng
from repro.vdps.catalog import (
    NULL_STRATEGY,
    VDPSCatalog,
    WorkerIndex,
    WorkerStrategy,
    mask_int,
    mask_words,
)


#: Workers with at most this many strategies are scanned in plain Python
#: over :attr:`WorkerIndex.bits` (:meth:`GameState.open_positions`); below
#: it numpy's per-call overhead costs more than the scan.
SCAN_MAX = 32


class GameState:
    """The joint strategy of all players plus conflict bookkeeping.

    The state is arrays aligned with ``catalog.workers``: each worker's
    strategy position in ``catalog.strategies(worker_id)`` (``-1`` for
    null), its payoff, and the points it claims as a Python-int bitset over
    the catalog index's bit positions, plus their union.  Solvers switch a
    worker by position (:meth:`switch`) and build no strategy object;
    :meth:`to_assignment` builds the final picks in one batched pass.
    Strategies set as objects through :meth:`set_strategy` (the baselines,
    the oracle) are kept as given.

    The catalog's conflict index is read on first use: a state that only
    ever plays null never reads it.

    Invariant: the point sets of all non-null strategies are pairwise
    disjoint (Definition 8).  :meth:`set_strategy` checks it; :meth:`switch`
    trusts its caller to pick an available position.
    """

    def __init__(self, catalog: VDPSCatalog) -> None:
        self.catalog = catalog
        self.workers: Tuple[Worker, ...] = catalog.workers
        n = len(self.workers)
        self._slot: Dict[str, int] = {
            w.worker_id: k for k, w in enumerate(self.workers)
        }
        # Each worker's strategy position, -1 for null (or for a strategy
        # held as an object, see set_strategy).
        self._positions = np.full(n, -1, dtype=np.intp)
        self._payoffs = np.zeros(n, dtype=np.float64)
        self._objects: Dict[int, WorkerStrategy] = {}
        self._indexes: Optional[Tuple[WorkerIndex, ...]] = None
        # Each worker's claimed points as a bitset, and their union.
        self._words: List[int] = [0] * n
        self._claimed = 0
        self._n_words = 1

    @property
    def indexes(self) -> Tuple[WorkerIndex, ...]:
        """Per worker (catalog order), its :class:`WorkerIndex` arrays; the
        first read reads the catalog index."""
        if self._indexes is None:
            index = self.catalog.index
            self._n_words = index.n_words
            self._indexes = tuple(index.worker(w.worker_id) for w in self.workers)
        return self._indexes

    def strategy_of(self, worker_id: str) -> WorkerStrategy:
        """The strategy ``worker_id`` currently plays (null if none); a
        position's object is built on first read."""
        k = self._slot[worker_id]
        strategy = self._objects.get(k)
        if strategy is not None:
            return strategy
        pos = int(self._positions[k])
        if pos < 0:
            return NULL_STRATEGY
        return self.catalog.strategies(worker_id)[pos]

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
        point outside the center.
        """
        k = self._slot[worker_id]
        if position is not None:
            bits = mask_int(self.indexes[k].masks[position])
        elif strategy.is_null:
            bits = 0
        else:
            try:
                bits = mask_int(self.catalog.index.mask_of(strategy.point_ids))
            except KeyError as exc:
                raise ValueError(
                    f"delivery point {exc.args[0]!r} is not a point of the "
                    "catalog's center"
                ) from None
        clash = bits & self._claimed & ~self._words[k]
        if clash:
            owners = (
                repr(self.workers[j].worker_id)
                for j, words in enumerate(self._words)
                if j != k and words & clash
            )
            raise ValueError(
                f"delivery points of {worker_id!r}'s strategy already claimed "
                "by " + ", ".join(sorted(owners))
            )
        self._assign(k, -1 if position is None else position, bits, strategy.payoff)
        if strategy.is_null:
            self._objects.pop(k, None)
        else:
            self._objects[k] = strategy

    def switch(self, k: int, position: int) -> None:
        """Switch worker ``k`` (catalog order) to its strategy at
        ``position``, ``-1`` for null, building no object.

        The position must be available (:meth:`available`,
        :meth:`open_positions`); disjointness is not re-checked.
        """
        if position < 0:
            self._assign(k, -1, 0, NULL_STRATEGY.payoff)
        else:
            wi = self.indexes[k]
            bits = (
                wi.bits[position]
                if wi.n_strategies <= SCAN_MAX
                else mask_int(wi.masks[position])
            )
            self._assign(k, position, bits, wi.payoffs[position])
        if self._objects:
            self._objects.pop(k, None)

    def _assign(self, k: int, position: int, bits: int, payoff: float) -> None:
        # Disjointness makes XOR an exact release of the worker's previous
        # bits; OR then claims the new ones.
        self._claimed = (self._claimed ^ self._words[k]) | bits
        self._words[k] = bits
        self._positions[k] = position
        self._payoffs[k] = payoff

    def available(self, k: int) -> np.ndarray:
        """Positions worker ``k`` (catalog order) could switch to right
        now: one ``masks & claimed`` pass over its index rows."""
        wi = self.indexes[k]
        claimed = self._claimed & ~self._words[k]
        return wi.available(mask_words(claimed, self._n_words))

    def open_positions(self, k: int) -> List[int]:
        """:meth:`available` as a plain-Python scan over the worker's
        :attr:`WorkerIndex.bits` (for workers with few strategies)."""
        bits = self.indexes[k].bits
        claimed = self._claimed & ~self._words[k]
        if not claimed:
            return list(range(len(bits)))
        return [p for p, mask in enumerate(bits) if not mask & claimed]

    def available_strategies(self, worker_id: str) -> List[WorkerStrategy]:
        """Strategies ``worker_id`` could switch to right now (excl. null),
        in catalog order: the objects at
        :meth:`available_strategy_indices`."""
        strategies = self.catalog.strategies(worker_id)
        return [
            strategies[i] for i in self.available_strategy_indices(worker_id).tolist()
        ]

    def available_strategy_indices(self, worker_id: str) -> np.ndarray:
        """Positions (into the worker's strategy tuple) available right now."""
        return self.available(self._slot[worker_id])

    def payoffs(self) -> np.ndarray:
        """Current payoff vector, in worker order (a copy)."""
        return self._payoffs.copy()

    def joint_strategy_key(self) -> Tuple[FrozenSet[str], ...]:
        """A hashable snapshot of the joint strategy (for cycle detection)."""
        return tuple(s.point_ids for s in self.strategies())

    def strategies(self) -> List[WorkerStrategy]:
        """Every worker's current strategy, in worker order; objects still
        missing are built in one batched pass (:meth:`VDPSCatalog.picks`)."""
        positions = self._positions.tolist()
        for k in self._objects:
            positions[k] = -1
        picks = self.catalog.picks(positions)
        for k, strategy in self._objects.items():
            picks[k] = strategy
        return picks

    def to_assignment(self) -> Assignment:
        """Freeze the state into a validated :class:`Assignment`."""
        return Assignment(
            [
                WorkerAssignment(w, None if s.is_null else s.route)
                for w, s in zip(self.workers, self.strategies())
            ]
        )


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
    for k, wi in enumerate(state.indexes):
        # Filtering the precomputed size-1 positions by the claimed bitmask
        # yields the same candidate list, in the same (catalog) order, as
        # scanning the available strategies for size == 1 (Algorithms 2-3,
        # lines 6-16), so the rng draws stay those of that scan.  Workers
        # before ``k`` are the only claimants, and ``k`` claims nothing yet.
        if not wi.size1.size:
            continue
        claimed = state._claimed
        if not claimed:
            candidates = wi.size1
        elif wi.n_strategies <= SCAN_MAX:
            bits = wi.bits
            candidates = [p for p in wi.size1_list if not bits[p] & claimed]
        else:
            words = mask_words(claimed, state._n_words)
            candidates = wi.size1[~(wi.masks[wi.size1] & words).any(axis=1)]
        if len(candidates):
            pick = candidates[int(rng.integers(0, len(candidates)))]
            state.switch(k, int(pick))
    return state


def equity_copy(
    solver,
    strength: Optional[float] = None,
    baselines: Optional[Mapping[str, float]] = None,
):
    """An equity-mode copy of ``solver``, or ``None`` if it has no equity
    mode (``docs/temporal_fairness.md``).

    Only solvers with an ``equity_mode`` field (FGT, IEGT) have one; the
    others (GTA, MPTA, the random baseline) stay equity-blind.
    ``baselines`` (``None``: the solver's own, by default an all-zero
    base) become its ``equity_baselines``.  ``strength`` (``None``: the
    solver's own) sets ``equity_strength`` where that field exists: IEGT
    has none, since its replicator gate needs no amplification.
    """
    if not dataclasses.is_dataclass(solver):
        return None
    names = {f.name for f in dataclasses.fields(solver)}
    if "equity_mode" not in names:
        return None
    changes: Dict[str, object] = {"equity_mode": True}
    if baselines is not None:
        changes["equity_baselines"] = baselines
    if strength is not None and "equity_strength" in names:
        changes["equity_strength"] = strength
    return dataclasses.replace(solver, **changes)


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
