"""Stable center → shard routing via rendezvous (highest-random-weight) hashing.

The sharded dispatch engine partitions the fixed center layout across N
worker processes.  The mapping must be

* **deterministic across processes** — the supervisor, every worker, the
  test harness, and a recovered facade must agree without coordination,
  so weights come from SHA-256, not ``hash()`` (which ``PYTHONHASHSEED``
  perturbs);
* **stable under shard-count changes** — rendezvous hashing moves only
  ~1/N of the centers when N changes, so journal segments written under
  one shard count mostly keep their centers under another;
* **total** — every shard must own at least one center (a
  :class:`~repro.service.state.WorldState` needs a non-empty layout), so
  after the HRW pass a deterministic rebalance moves one center from the
  most-loaded shard to each empty one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple


def _weight(center_id: str, shard_id: int) -> int:
    """The HRW weight of placing ``center_id`` on shard ``shard_id``."""
    digest = hashlib.sha256(f"{center_id}|shard:{shard_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def shard_for(center_id: str, n_shards: int) -> int:
    """The shard that rendezvous hashing assigns ``center_id`` to."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return max(range(n_shards), key=lambda k: (_weight(center_id, k), -k))


def plan_shards(
    center_ids: Iterable[str], n_shards: int
) -> Dict[int, Tuple[str, ...]]:
    """Partition ``center_ids`` into ``n_shards`` non-empty groups.

    Pure HRW assignment first; then, while any shard is empty, the
    lexicographically-largest center of the currently most-loaded shard
    moves over — deterministic, and a no-op whenever HRW already covered
    every shard.  Raises when there are fewer centers than shards.
    """
    ids = sorted(set(str(cid) for cid in center_ids))
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if len(ids) < n_shards:
        raise ValueError(
            f"cannot spread {len(ids)} center(s) across {n_shards} shards; "
            "every shard needs at least one center"
        )
    groups: Dict[int, list] = {k: [] for k in range(n_shards)}
    for cid in ids:
        groups[shard_for(cid, n_shards)].append(cid)
    for k in range(n_shards):
        if groups[k]:
            continue
        donor = max(range(n_shards), key=lambda j: (len(groups[j]), -j))
        groups[k].append(groups[donor].pop())
    return {k: tuple(sorted(group)) for k, group in groups.items()}
