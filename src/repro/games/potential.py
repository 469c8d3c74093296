"""Potential-game machinery: fast IAU evaluation and Nash checks (Lemma 2).

Best response evaluates the IAU of one worker for many candidate payoffs
while everyone else's payoff stays fixed.  :class:`IAUEvaluator` sorts the
*others* once and answers each candidate in O(log n) via prefix sums, which
turns a round of best responses from O(|W|^2 |ST|) into
O(|W| (|W| log |W| + |ST| log |W|)).
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fairness import InequityAversion


def iau_utilities(
    sorted_others: np.ndarray,
    prefix: np.ndarray,
    own_payoffs: np.ndarray,
    model: InequityAversion,
) -> np.ndarray:
    """IAU of the focal worker for each candidate payoff in ``own_payoffs``.

    ``sorted_others`` are the other workers' payoffs, sorted, and
    ``prefix`` their prefix sums from 0.  One ``np.searchsorted`` plus
    prefix-sum arithmetic over the batch; every operation mirrors the
    scalar formula (:meth:`IAUEvaluator.utility`) in the same order on the
    same float64 values, so each element is bit-identical to it.
    """
    n_others = sorted_others.size
    if n_others == 0:
        return own_payoffs.astype(float, copy=True)
    k = np.searchsorted(sorted_others, own_payoffs, side="right")
    below = prefix[k]
    above = prefix[-1] - below
    lp = own_payoffs * k - below
    mp = above - own_payoffs * (n_others - k)
    return own_payoffs - (model.alpha * mp + model.beta * lp) / n_others


def iau_scores(
    sorted_others: List[float],
    prefix: List[float],
    own_payoffs: Iterable[float],
    model: InequityAversion,
) -> List[float]:
    """:func:`iau_utilities` in plain Python floats, for short inputs.

    ``sorted_others`` and ``prefix`` are the sorted other payoffs and their
    prefix sums from 0 as lists (``np.cumsum`` accumulates left to right,
    as :func:`itertools.accumulate` does).  Each value is computed by the
    scalar formula of :meth:`IAUEvaluator.utility`, operation for
    operation, so it is bit-identical to :func:`iau_utilities`.
    """
    n_others = len(sorted_others)
    if n_others == 0:
        return [float(value) for value in own_payoffs]
    alpha, beta, total = model.alpha, model.beta, prefix[-1]
    out = []
    for value in own_payoffs:
        k = bisect.bisect_right(sorted_others, value)
        below = prefix[k]
        lp = value * k - below
        mp = (total - below) - value * (n_others - k)
        out.append(value - (alpha * mp + beta * lp) / n_others)
    return out


class IAUEvaluator:
    """IAU of a focal worker as a function of its own payoff.

    Parameters
    ----------
    other_payoffs:
        Payoffs of the remaining ``n - 1`` workers (kept fixed).
    model:
        The :class:`InequityAversion` weights.
    """

    def __init__(
        self, other_payoffs: Sequence[float], model: InequityAversion
    ) -> None:
        self._model = model
        # asarray accepts ndarrays without copying; np.sort then makes the
        # evaluator's one private copy (callers may reuse their buffer).
        values = np.sort(np.asarray(other_payoffs, dtype=float))
        self._sorted = values
        self._prefix = np.concatenate(([0.0], np.cumsum(values)))
        self._n_others = values.size

    def utility(self, own_payoff: float) -> float:
        """IAU of the focal worker when its payoff is ``own_payoff``."""
        n_others = self._n_others
        if n_others == 0:
            return float(own_payoff)
        k = bisect.bisect_right(self._sorted, own_payoff)
        below = self._prefix[k]
        above = self._prefix[-1] - below
        lp = own_payoff * k - below  # focal ahead of k poorer workers
        mp = above - own_payoff * (n_others - k)  # richer workers' lead
        return float(
            own_payoff - (self._model.alpha * mp + self._model.beta * lp) / n_others
        )

    def utilities(self, own_payoffs: Sequence[float]) -> np.ndarray:
        """IAU for a whole vector of candidate payoffs in one pass
        (:func:`iau_utilities`), each element bit-identical to
        :meth:`utility` — the property the vectorized best-response
        engine's bit-for-bit replay guarantee rests on."""
        return iau_utilities(
            self._sorted,
            self._prefix,
            np.asarray(own_payoffs, dtype=float),
            self._model,
        )


def potential_value(payoffs: Sequence[float], model: InequityAversion) -> float:
    """The exact potential ``Phi = sum_i IAU_i`` of Lemma 2."""
    return model.potential(payoffs)


def sequential_best(
    utilities: np.ndarray, baseline: float, tol: float
) -> Tuple[int, float]:
    """Replay FGT's sequential accept scan over a precomputed utility batch.

    Algorithm 2's inner loop is *not* an argmax: starting from the null
    strategy's utility, a candidate is accepted only when it beats the
    current best by more than ``tol``, and later candidates within ``tol``
    of an accepted one never displace it.  This helper reproduces that exact
    scan with one vectorized comparison per *accepted* candidate (utilities
    arrive roughly descending, so almost always a single pass) instead of a
    Python-level loop over every candidate.

    Returns ``(position, best_utility)`` where ``position`` is -1 when no
    candidate was accepted (the baseline stands).  A plain list (from
    :func:`iau_scores`) is scanned one candidate at a time.
    """
    if isinstance(utilities, list):
        best, best_pos = baseline, -1
        for pos, utility in enumerate(utilities):
            if utility > best + tol:
                best, best_pos = utility, pos
        return best_pos, best
    best = baseline
    best_pos = -1
    start = 0
    n = utilities.size
    while start < n:
        hits = utilities[start:] > best + tol
        offset = int(np.argmax(hits))
        if not hits[offset]:
            break
        best_pos = start + offset
        best = float(utilities[best_pos])
        start = best_pos + 1
    return best_pos, best


def best_response_index(
    candidate_payoffs: Sequence[float],
    other_payoffs: Optional[Sequence[float]] = None,
    model: Optional[InequityAversion] = None,
    evaluator: Optional[IAUEvaluator] = None,
) -> Tuple[int, float]:
    """Index and utility of the best candidate payoff under IAU.

    Ties are broken toward the lowest index, so passing candidates sorted by
    descending payoff reproduces "highest payoff among utility ties".

    Callers that evaluate many candidate sets against the same fixed
    ``other_payoffs`` should build one :class:`IAUEvaluator` and pass it as
    ``evaluator`` — its O(n log n) sort then happens once instead of per
    call.  When ``evaluator`` is given it takes precedence and
    ``other_payoffs``/``model`` may be omitted.
    """
    if not candidate_payoffs:
        raise ValueError("candidate_payoffs must be non-empty")
    if evaluator is None:
        if other_payoffs is None or model is None:
            raise ValueError(
                "either a prebuilt evaluator or (other_payoffs, model) is required"
            )
        evaluator = IAUEvaluator(other_payoffs, model)
    # np.argmax returns the first position of the maximum, which is exactly
    # the running strictly-greater scan this function used to perform.
    utilities = evaluator.utilities(np.asarray(candidate_payoffs, dtype=float))
    best_idx = int(np.argmax(utilities))
    return best_idx, float(utilities[best_idx])


def is_pure_nash(
    state,
    model: InequityAversion,
    tol: float = 1e-9,
    scales: Optional[Sequence[float]] = None,
    offsets: Optional[Sequence[float]] = None,
) -> bool:
    """Whether no worker can strictly improve its IAU by a unilateral switch.

    "Unilateral" honours the conflict structure: a worker may only move to
    strategies disjoint from the points currently claimed by others.
    ``scales`` (optional, one factor per worker) checks the equilibrium of
    the priority-normalised game instead, where utilities are IAU over
    ``payoff * scale`` (the FGT ``priorities=`` extension).  ``offsets``
    (optional, one addend per worker) checks the ledger-weighted equity
    game, where utilities are IAU over the *effective* payoff
    ``payoff * scale + offset`` — the offset being the worker's decayed
    cumulative payoff from the :class:`~repro.equity.ledger.EquityLedger`
    (null deviation included: idling still leaves the cumulative base).
    """
    payoffs = state.payoffs()
    factors = np.ones(payoffs.size) if scales is None else np.asarray(scales)
    base = None if offsets is None else np.asarray(offsets, dtype=float)
    scaled = payoffs * factors if base is None else payoffs * factors + base
    # The candidate scan runs as one batched IAU evaluation per worker over
    # the catalog's bitmask conflict index.
    for idx, worker in enumerate(state.workers):
        others = np.delete(scaled, idx)
        evaluator = IAUEvaluator(others, model)
        current_utility = evaluator.utility(scaled[idx])
        null_value = 0.0 if base is None else 0.0 * factors[idx] + base[idx]
        if evaluator.utility(null_value) > current_utility + tol:  # null deviation
            return False
        available = state.available_strategy_indices(worker.worker_id)
        if available.size:
            candidates = (
                state.catalog.index.worker(worker.worker_id).payoffs[available]
                * factors[idx]
            )
            if base is not None:
                candidates = candidates + base[idx]
            if bool(np.any(evaluator.utilities(candidates) > current_utility + tol)):
                return False
    return True
