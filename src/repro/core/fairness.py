"""Fairness models: Inequity Aversion based Utility and auxiliary indices.

The FGT game's utility function is the Inequity Aversion based Utility (IAU)
of Equations 5-7, after Fehr & Schmidt: a worker's raw payoff is discounted
both for being behind others (envy, weighted ``alpha``) and for being ahead
of others (guilt, weighted ``beta``).  Gini and Jain indices are provided as
additional descriptive fairness statistics for reports; they play no role in
the algorithms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import require_non_negative


@dataclass(frozen=True)
class InequityAversion:
    """The IAU model ``IAU(w_i) = P_i - (alpha/(n-1)) MP_i - (beta/(n-1)) LP_i``.

    ``MP_i`` sums how far richer workers are ahead of ``w_i`` (Equation 6)
    and ``LP_i`` sums how far ``w_i`` is ahead of poorer workers
    (Equation 7).  The paper fixes ``alpha = beta = 0.5``.
    """

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        require_non_negative(self.alpha, "alpha")
        require_non_negative(self.beta, "beta")

    def utility(self, index: int, payoffs: Sequence[float]) -> float:
        """IAU of the worker at ``index`` given all workers' payoffs."""
        values = np.asarray(payoffs, dtype=float)
        n = values.size
        if not 0 <= index < n:
            raise IndexError(f"index {index} out of range for {n} workers")
        if n == 1:
            return float(values[0])
        mine = values[index]
        others = np.delete(values, index)
        mp = float(np.clip(others - mine, 0.0, None).sum())
        lp = float(np.clip(mine - others, 0.0, None).sum())
        return mine - (self.alpha * mp + self.beta * lp) / (n - 1)

    def utilities(self, payoffs: Sequence[float]) -> np.ndarray:
        """IAU of every worker, vectorised over the population.

        Sorting lets both envy and guilt terms be computed with prefix sums,
        so the cost is O(n log n) rather than the O(n^2) of calling
        :meth:`utility` per worker.
        """
        values = np.asarray(payoffs, dtype=float)
        n = values.size
        if n == 0:
            return np.zeros(0)
        if n == 1:
            return values.copy()
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        prefix = np.concatenate(([0.0], np.cumsum(sorted_vals)))
        total = prefix[-1]
        ranks = np.arange(n)
        # For the k-th smallest value v: LP = k*v - prefix[k] (mass below),
        # MP = (total - prefix[k+1]) - (n-1-k)*v (mass above).
        lp_sorted = ranks * sorted_vals - prefix[:-1]
        mp_sorted = (total - prefix[1:]) - (n - 1 - ranks) * sorted_vals
        iau_sorted = sorted_vals - (self.alpha * mp_sorted + self.beta * lp_sorted) / (
            n - 1
        )
        out = np.empty(n)
        out[order] = iau_sorted
        return out

    def potential(self, payoffs: Sequence[float]) -> float:
        """The exact potential ``Phi = sum_i IAU_i`` used in Lemma 2."""
        return float(self.utilities(payoffs).sum())


#: Default amplification of the IAU weights in ledger-weighted equity mode.
#: With the paper's alpha = beta = 0.5, a strength of 3.0 gives effective
#: guilt weight 1.5 > 1, which is the threshold past which utility becomes
#: *decreasing* in own payoff for a cumulative-rich worker — the property
#: that makes equity mode behaviorally active (see ``equity_model``).
DEFAULT_EQUITY_STRENGTH = 3.0


def equity_model(
    model: InequityAversion, strength: float = DEFAULT_EQUITY_STRENGTH
) -> InequityAversion:
    """The amplified IAU model used by ledger-weighted equity mode.

    Equity mode evaluates ``IAU_t(w_i) = E_i - (a'/(n-1)) MP_i^cum
    - (b'/(n-1)) LP_i^cum`` where ``E_i = C_i + P_i`` is the worker's
    *effective* payoff (decayed cumulative ledger balance ``C_i`` plus the
    round payoff ``P_i``), the envy/guilt masses ``MP^cum``/``LP^cum`` are
    computed on the effective payoffs, and ``(a', b') = strength * (a, b)``.

    The amplification is load-bearing, not cosmetic: plain IAU is strictly
    monotone in own payoff (slope at least ``1 - beta`` > 0 for the
    paper's ``beta = 0.5``), so merely shifting payoffs by the cumulative
    base would never change any best response.  With ``strength * beta``
    > 1 the marginal utility of own payoff turns *negative* once a worker
    is ahead of enough others on cumulative income — such a worker
    voluntarily declines work, freeing tasks for cumulative-poor workers.

    The price is Lemma 2: for ``alpha = beta = a`` a unilateral switch
    changes the potential ``Phi = sum IAU`` by ``2*delta_u - delta_P``,
    which is guaranteed non-negative for utility-improving switches only
    when ``a <= 1/2``.  Amplified weights void that guarantee, so equity
    mode runs FGT with the potential-monotonicity verifier check disabled
    and convergence bounded by ``max_rounds`` (reported honestly via
    ``GameResult.converged``); IEGT keeps its termination argument (raw
    total payoff strictly increases per switch and is bounded).
    """
    require_non_negative(strength, "strength")
    return InequityAversion(strength * model.alpha, strength * model.beta)


def ledger_weighted_utilities(
    payoffs: Sequence[float],
    cumulative: Sequence[float],
    model: InequityAversion = InequityAversion(),
    strength: float = DEFAULT_EQUITY_STRENGTH,
) -> np.ndarray:
    """Reference implementation of the equity-mode utilities ``IAU_t``.

    ``payoffs`` are the round's per-worker payoffs, ``cumulative`` the
    aligned decayed cumulative payoffs from the equity ledger.  The game
    engines compute the same quantity incrementally (bit-identically with
    the per-strategy rounds of :mod:`repro.oracle`); this direct form exists as
    the oracle for their differential tests and for offline analysis.
    """
    effective = np.asarray(payoffs, dtype=float) + np.asarray(
        cumulative, dtype=float
    )
    return equity_model(model, strength).utilities(effective)


def gini_coefficient(payoffs: Sequence[float]) -> float:
    """Gini coefficient of the payoff distribution (0 = equal, 1 = maximal).

    Undefined for an all-zero or empty population; returns 0.0 there, which
    matches the "perfectly equal" reading of an all-idle population.
    """
    values = np.sort(np.asarray(list(payoffs), dtype=float))
    n = values.size
    if n == 0:
        return 0.0
    if np.any(values < 0):
        raise ValueError("gini_coefficient requires non-negative payoffs")
    total = values.sum()
    if total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    gini = float((2.0 * (ranks * values).sum()) / (n * total) - (n + 1.0) / n)
    # Mathematically in [0, 1]; clamp away float cancellation noise.
    return min(1.0, max(0.0, gini))


def jain_index(payoffs: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n sum x^2)``; 1.0 means equal.

    Returns 1.0 for empty or all-zero populations (nothing is unequal).
    """
    values = np.asarray(list(payoffs), dtype=float)
    n = values.size
    if n == 0:
        return 1.0
    scale = float(np.abs(values).max())
    if scale == 0:
        return 1.0
    # The index is scale-invariant; normalising by the largest magnitude
    # keeps the squares out of the subnormal range, where they would lose
    # precision and push the ratio outside [0, 1].
    values = values / scale
    denom = float((values**2).sum())
    return float(values.sum() ** 2 / (n * denom))
