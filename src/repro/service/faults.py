"""Deterministic fault injection for the dispatch service (chaos harness).

A :class:`FaultPlan` is a seeded, purely functional description of which
faults fire where: every decision is drawn from a named
:class:`~repro.utils.rng.RngFactory` stream keyed by the fault kind, the
round index, the center id, and the rung/attempt — so the same plan against
the same engine produces the same chaos on every run, and a failing chaos
test replays exactly.

Supported fault classes (all independent, all rate-controlled):

* **Solver delays** — the per-center solve sleeps ``delay_s`` before
  running, which trips the engine's ``solve_deadline_s`` budget.
* **Solver exceptions** — the solve raises :class:`InjectedFault` instead
  of running, exercising the retry/degradation ladder.
* **Catalog-cache corruption** — a *cache hit* is tampered (the stored
  route arrival times of each worker's best strategy are shifted far past
  every deadline) so the solve either crashes on assignment validation or
  fails the engine's per-rung :func:`repro.verify` check; either way the
  engine must invalidate the entry and rebuild cleanly.
* **Torn journal tails** — :func:`tear_journal_tail` truncates a
  write-ahead journal mid-record, which recovery must survive by dropping
  the torn suffix.

Plans thread into the engine through the ``faults=`` kwarg of
:class:`~repro.service.engine.DispatchEngine` or process-wide through the
``REPRO_FAULTS`` environment variable (the same tiering as ``REPRO_TRACE``
and ``REPRO_VERIFY``), whose value is a comma-separated spec such as
``"seed=7,delay_rate=0.5,delay_s=0.2,error_rate=0.25"``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.utils.rng import RngFactory
from repro.vdps.catalog import VDPSCatalog
from repro.core.routing import Route

#: Environment variable carrying a process-wide fault-plan spec.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Hours added to tampered route arrival times — far past any deadline.
_CORRUPTION_SHIFT_HOURS = 1000.0


class InjectedFault(RuntimeError):
    """A deliberately injected solver failure (chaos testing only)."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic chaos schedule for the dispatch engine.

    Parameters
    ----------
    seed:
        Root seed of the decision streams; two plans with the same seed and
        rates fire identically.
    delay_rate, delay_s:
        Probability that one solve attempt sleeps ``delay_s`` seconds
        before running.
    error_rate:
        Probability that one solve attempt raises :class:`InjectedFault`.
    cache_corruption_rate:
        Probability that a catalog-cache *hit* for a center is tampered.
    max_round:
        When set, faults only fire in rounds ``< max_round`` (lets a chaos
        test end with clean rounds to observe recovery).
    shard_kill_round, shard_kill_index:
        Process-level chaos for the sharded engine: at the start of round
        ``shard_kill_round`` the supervisor SIGKILLs shard
        ``shard_kill_index`` (modulo the shard count) exactly once, so the
        round exercises crash detection, respawn, journal replay, and the
        idempotent round retry.  Ignored by the single-process engine.
    """

    seed: int = 0
    delay_rate: float = 0.0
    delay_s: float = 0.1
    error_rate: float = 0.0
    cache_corruption_rate: float = 0.0
    max_round: Optional[int] = None
    shard_kill_round: Optional[int] = None
    shard_kill_index: int = 0

    def __post_init__(self) -> None:
        for name in ("delay_rate", "error_rate", "cache_corruption_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s!r}")
        if self.max_round is not None and self.max_round < 0:
            raise ValueError(f"max_round must be >= 0, got {self.max_round!r}")
        if self.shard_kill_round is not None and self.shard_kill_round < 0:
            raise ValueError(
                f"shard_kill_round must be >= 0, got {self.shard_kill_round!r}"
            )
        if self.shard_kill_index < 0:
            raise ValueError(
                f"shard_kill_index must be >= 0, got {self.shard_kill_index!r}"
            )

    @property
    def active(self) -> bool:
        """Whether any fault class has a non-zero rate."""
        return bool(
            self.delay_rate or self.error_rate or self.cache_corruption_rate
        )

    # -- deterministic decisions --------------------------------------------

    def _fires(self, rate: float, stream: str, round_index: int) -> bool:
        if rate <= 0.0:
            return False
        if self.max_round is not None and round_index >= self.max_round:
            return False
        draw = float(RngFactory(self.seed).get(stream).random())
        return draw < rate

    def solver_action(
        self, round_index: int, center_id: str, rung: int, attempt: int
    ) -> Optional[Tuple[str, float]]:
        """The fault one solve attempt suffers, or ``None``.

        Returns ``("error", 0.0)`` (raise :class:`InjectedFault`) or
        ``("delay", seconds)`` (sleep before solving).  Errors are drawn
        first so a plan with both rates at 1.0 always errors.
        """
        key = f"{round_index}:{center_id}:{rung}:{attempt}"
        if self._fires(self.error_rate, f"error:{key}", round_index):
            return ("error", 0.0)
        if self._fires(self.delay_rate, f"delay:{key}", round_index):
            return ("delay", self.delay_s)
        return None

    def corrupt_catalog(self, round_index: int, center_id: str) -> bool:
        """Whether this round's cache hit for ``center_id`` is tampered."""
        return self._fires(
            self.cache_corruption_rate,
            f"corrupt:{round_index}:{center_id}",
            round_index,
        )

    # -- corruption mechanics -----------------------------------------------

    @staticmethod
    def tamper(catalog: VDPSCatalog) -> VDPSCatalog:
        """A corrupted copy of ``catalog`` (the cache-rot simulation).

        Each worker's best strategy keeps its advertised payoff but its
        route's stored arrival times are shifted ~1000 h into the future:
        assignment validation (Definition 8 deadline feasibility) or the
        engine's per-rung :func:`repro.verify` payoff re-derivation must
        reject any solve that picks it.  The copy shares the catalog's
        table columns and conflict index; only its object cache differs,
        pre-filled with each worker's shifted strategy at its position 0.
        """
        table = catalog.table
        objects = dict(table.objects)
        for k, worker in enumerate(catalog.workers):
            strategies = catalog.strategies(worker.worker_id)
            if strategies:
                first = strategies[0]
                broken_route = Route(
                    first.route.sequence,
                    tuple(
                        t + _CORRUPTION_SHIFT_HOURS for t in first.route.arrival_times
                    ),
                )
                objects[table.starts[k]] = dataclasses.replace(
                    first, route=broken_route
                )
        # Point sets and payoffs are untouched, so the index is shared.
        return VDPSCatalog(
            catalog.workers,
            dataclasses.replace(table, objects=objects),
            catalog.epsilon,
            catalog.cvdps_count,
            index=catalog.index,
        )

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``"key=value,key=value"`` spec (the ``REPRO_FAULTS`` form)."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs: Dict[str, object] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            key = key.strip()
            if not sep or key not in fields:
                raise ValueError(
                    f"bad fault spec entry {chunk!r}; known keys: "
                    f"{', '.join(sorted(fields))}"
                )
            if key in ("seed", "max_round", "shard_kill_round", "shard_kill_index"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        spec = os.environ.get(FAULTS_ENV_VAR, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)

    def describe(self) -> str:
        """One-line summary for logs and ``/healthz``."""
        parts = [f"seed={self.seed}"]
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}@{self.delay_s:g}s")
        if self.error_rate:
            parts.append(f"error={self.error_rate:g}")
        if self.cache_corruption_rate:
            parts.append(f"cache_corruption={self.cache_corruption_rate:g}")
        if self.max_round is not None:
            parts.append(f"max_round={self.max_round}")
        if self.shard_kill_round is not None:
            parts.append(
                f"shard_kill=#{self.shard_kill_index}@round{self.shard_kill_round}"
            )
        return " ".join(parts)


def resolve_faults(
    flag: Union[None, "FaultPlan"] = None
) -> Optional["FaultPlan"]:
    """The plan an engine should use given its ``faults=`` kwarg.

    An explicit plan wins; otherwise the ``REPRO_FAULTS`` environment
    variable is consulted (mirroring ``REPRO_TRACE``/``REPRO_VERIFY``).
    """
    if flag is not None:
        return flag
    return FaultPlan.from_env()


def tear_journal_tail(path: Union[str, Path], drop_bytes: int = 7) -> int:
    """Truncate ``path`` mid-record, simulating a crash during a write.

    Removes the trailing newline plus ``drop_bytes`` content bytes of the
    final record, leaving a torn last line that journal recovery must drop.
    Returns the new file size.
    """
    target = Path(path)
    size = target.stat().st_size
    new_size = max(0, size - 1 - max(0, drop_bytes))
    with target.open("rb+") as fh:
        fh.truncate(new_size)
    return new_size
