"""Vectorized Section-IV validation: every C-VDPS against one worker.

A catalog build validates every C-VDPS against every worker —
``|W| x |C-VDPS|`` checks.  This module lays the center's entries out once
as contiguous arrays (:class:`EntryArrays`) and turns each worker's scan
into a handful of elementwise passes.  The arrays come straight from the
layered DP (:meth:`EntryArrays.from_layers`); ``Route`` and
``WorkerStrategy`` objects exist only for the entries a worker keeps.

Bit-identity with the scalar scan holds operation for operation:

* feasibility is ``(t + offset) <= earliest_expiry`` per visit, exactly
  the comparison :meth:`repro.core.routing.Route.is_valid_with_offset`
  makes (expiries are evaluated once at array-build time; the property is
  deterministic);
* the completion time is ``last_arrival + offset`` — the same single
  addition ``Route.shifted`` performs on the final element;
* the payoff divides the entry's reward — the same Python ``sum`` over the
  points' rewards ``Route.total_reward`` performs — by that completion,
  one IEEE-754 division either way.

Surviving strategies carry the same sequence tuples, point sets and
shifted arrival times the scalar path builds, so the resulting
:class:`~repro.vdps.catalog.WorkerStrategy` objects are equal field for
field.  Workers with an individual speed (``factor != 1``) and
``strict_revalidation`` builds fall back to the scalar ``validate_entry``
loop over :attr:`EntryArrays.entries` — those paths re-route per worker
and are rare by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import Route
from repro.vdps.catalog import WorkerStrategy, strategy_sort_key, validate_entry
from repro.vdps.generator import CVdpsEntry


class EntryArrays:
    """Flattened, index-aligned view of one center's C-VDPS entries.

    Entries are in the canonical ``(size, sorted ids)`` order.  Row ``e``
    of every per-entry array describes entry ``e``; the per-visit arrays
    concatenate the entries' visits, entry ``e`` owning
    ``seg_start[e] : seg_start[e] + sizes[e]``.  Points are indexed by
    position in :attr:`points`, which is sorted by id.
    """

    def __init__(
        self,
        points: Sequence,
        sizes: np.ndarray,
        path_flat: np.ndarray,
        t_flat: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        #: The center's delivery points, sorted by id (the index space).
        self.points = points
        #: ``(E,)`` int64 — points per entry (always >= 1).
        self.sizes = sizes
        #: ``(F,)`` intp — concatenated visit orders.
        self.path_flat = path_flat
        #: ``(F,)`` float64 — concatenated center-relative arrival times.
        self.t_flat = t_flat
        #: ``(E,)`` float64 — each entry's Python-summed total reward.
        self.rewards = rewards
        deadline = np.array([dp.earliest_expiry for dp in points], dtype=np.float64)
        #: ``(F,)`` float64 — concatenated per-visit earliest task expiries.
        self.expiry_flat = deadline[path_flat]
        #: ``(E,)`` intp — offset of each entry's segment in the flat arrays.
        self.seg_start = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=self.seg_start[1:])
        #: ``(E,)`` float64 — center-relative completion time (last arrival).
        self.last_time = (
            t_flat[self.seg_start + sizes - 1] if sizes.size else t_flat[:0]
        )
        #: ``(E,)`` int64 — rank of ``tuple(sorted(point_ids))`` among all
        #: entries, so the catalog's payoff-tie ordering reduces to an
        #: integer sort key.
        self.ids_rank = _ids_rank(sizes, self.seg_start, path_flat)
        self._sequences: List[Optional[tuple]] = [None] * sizes.size
        self._point_sets: List[Optional[frozenset]] = [None] * sizes.size
        self._built = np.zeros(sizes.size, dtype=bool)
        self._entries: Optional[List[CVdpsEntry]] = None

    @classmethod
    def from_layers(cls, layers: Sequence, points: Sequence) -> "EntryArrays":
        """Each subset's canonical state, straight from the DP layers.

        ``layers`` are :func:`repro.kernels.cvdps.compute_layers` output
        over ``points`` (sorted by id).  Within a layer, entries are put in
        sorted-index order, which is sorted-id order.
        """
        reward_of = [dp.total_reward for dp in points]
        sizes, paths, times, rewards = [], [], [], []
        for layer in layers:
            rows = layer.best
            path = layer.paths[rows]
            order = np.lexsort(np.sort(path, axis=1).T[::-1])
            path = path[order]
            paths.append(path.ravel())
            times.append(layer.times[rows[order]].ravel())
            sizes.append(np.full(rows.size, layer.size, dtype=np.int64))
            # sum() accumulates 0 + r0 + r1 + ... exactly as the
            # Route.total_reward property does (compensated on 3.12+).
            rewards.extend(
                sum(map(reward_of.__getitem__, row)) for row in path.tolist()
            )
        return cls(
            points,
            _concat(sizes, np.int64),
            _concat(paths, np.intp),
            _concat(times, np.float64),
            np.asarray(rewards, dtype=np.float64),
        )

    @classmethod
    def from_entries(cls, entries: Sequence[CVdpsEntry]) -> "EntryArrays":
        """One pass over ``entries``; safe for an empty list."""
        by_id = {dp.dp_id: dp for entry in entries for dp in entry.route.sequence}
        points = [by_id[dp_id] for dp_id in sorted(by_id)]
        index = {dp.dp_id: i for i, dp in enumerate(points)}
        path_flat: List[int] = []
        t_flat: List[float] = []
        for entry in entries:
            path_flat.extend(index[dp.dp_id] for dp in entry.route.sequence)
            t_flat.extend(entry.route.arrival_times)
        arrays = cls(
            points,
            np.array([len(entry.point_ids) for entry in entries], dtype=np.int64),
            np.array(path_flat, dtype=np.intp),
            np.array(t_flat, dtype=np.float64),
            np.array([entry.total_reward for entry in entries], dtype=np.float64),
        )
        arrays._entries = list(entries)
        arrays._sequences = [entry.route.sequence for entry in entries]
        arrays._point_sets = [entry.point_ids for entry in entries]
        arrays._built[:] = True
        return arrays

    @property
    def n_entries(self) -> int:
        return self.sizes.size

    @property
    def entries(self) -> List[CVdpsEntry]:
        """Every entry as a :class:`CVdpsEntry`, built on first access."""
        if self._entries is None:
            sequences, point_sets = self.objects(np.arange(self.n_entries))
            times = self.t_flat.tolist()
            self._entries = [
                CVdpsEntry(pids, Route(seq, tuple(times[a : a + len(seq)])))
                for seq, pids, a in zip(sequences, point_sets, self.seg_start.tolist())
            ]
        return self._entries

    def segments(self, idxs: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """Flat positions of entries ``idxs``' visits, and their bounds.

        Entry ``idxs[k]`` owns ``flat[bounds[k]:bounds[k + 1]]``: for
        entry ``e`` the positions are ``seg_start[e] + (0 .. size - 1)``,
        gathered for all entries at once as a repeat-plus-arange.
        """
        lens = self.sizes[idxs]
        bounds = np.zeros(idxs.size + 1, dtype=np.int64)
        np.cumsum(lens, out=bounds[1:])
        flat = np.repeat(self.seg_start[idxs] - bounds[:-1], lens) + np.arange(
            bounds[-1]
        )
        return flat, bounds.tolist()

    def objects(self, idxs: np.ndarray) -> Tuple[List[tuple], List[frozenset]]:
        """Sequence tuples and point-id sets of entries ``idxs``.

        Each entry's pair is built once and shared by every worker (and
        every catalog) that keeps it.
        """
        sequences, point_sets = self._sequences, self._point_sets
        missing = idxs[~self._built[idxs]]
        if missing.size:
            points = self.points
            flat, bounds = self.segments(missing)
            path = self.path_flat[flat].tolist()
            for e, a, b in zip(missing.tolist(), bounds, bounds[1:]):
                seq = tuple(map(points.__getitem__, path[a:b]))
                sequences[e] = seq
                point_sets[e] = frozenset([dp.dp_id for dp in seq])
            self._built[missing] = True
        idx_list = idxs.tolist()
        return (
            list(map(sequences.__getitem__, idx_list)),
            list(map(point_sets.__getitem__, idx_list)),
        )


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def _ids_rank(
    sizes: np.ndarray, seg_start: np.ndarray, path_flat: np.ndarray
) -> np.ndarray:
    """Rank of each entry's sorted index row, shorter prefixes first.

    Indices follow sorted-id order, so comparing sorted index rows padded
    with ``-1`` is comparing ``tuple(sorted(point_ids))`` tuples.
    """
    n = sizes.size
    rank = np.empty(n, dtype=np.int64)
    if not n:
        return rank
    owner = np.repeat(np.arange(n), sizes)
    pos = np.arange(path_flat.size) - np.repeat(seg_start, sizes)
    rows = np.full((n, int(sizes.max())), -1, dtype=np.intp)
    rows[owner, pos] = path_flat[np.lexsort((path_flat, owner))]
    rank[np.lexsort(rows.T[::-1])] = np.arange(n)
    return rank


def validate_worker_vectorized(
    arrays: EntryArrays,
    worker,
    offset: float,
    factor: float,
    travel_model,
    center_location,
    strict_revalidation: bool = False,
) -> List[WorkerStrategy]:
    """All of one worker's valid strategies, in canonical catalog order.

    The returned list is already sorted by
    :func:`repro.vdps.catalog.strategy_sort_key` (best payoff first, ties
    by point ids) — the sort reduces to ``np.lexsort`` over the payoffs
    and the precomputed :attr:`EntryArrays.ids_rank`, so callers building
    full catalogs skip their own key-function sort.  Falls back to the
    scalar ``validate_entry`` loop for speed-scaled workers and strict
    revalidation (see module doc).
    """
    if factor != 1.0 or strict_revalidation:
        out: List[WorkerStrategy] = []
        for entry in arrays.entries:
            strategy = validate_entry(
                entry,
                worker,
                offset,
                factor,
                travel_model,
                center_location,
                strict_revalidation,
            )
            if strategy is not None:
                out.append(strategy)
        out.sort(key=strategy_sort_key)
        return out
    if not arrays.n_entries:
        return []
    t_shift = arrays.t_flat + offset
    ok = t_shift <= arrays.expiry_flat
    seg_ok = np.add.reduceat(ok.astype(np.int64), arrays.seg_start) == arrays.sizes
    completion = arrays.last_time + offset
    valid = (
        (arrays.sizes <= worker.max_delivery_points)
        & seg_ok
        & (completion > 0)
    )
    idxs = np.flatnonzero(valid)
    if not idxs.size:
        return []
    # Scalar float division overflows to inf silently; match that (the
    # non-finite results are filtered out either way).
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        payoffs = arrays.rewards[idxs] / completion[idxs]
    finite = np.isfinite(payoffs)
    idxs = idxs[finite]
    payoffs = payoffs[finite]
    # Canonical order: payoff descending, ties by point ids ascending.
    # Negating a float is exact, and ids_rank orders exactly as the id
    # tuples do, so this is strategy_sort_key as an integer/float lexsort.
    order = np.lexsort((arrays.ids_rank[idxs], -payoffs))
    idxs = idxs[order]
    payoffs = payoffs[order]
    # Gather only the surviving entries' arrival-time segments (typically a
    # small fraction of the flat array).  The shift itself (t_flat +
    # offset) is the identical IEEE-754 addition Route.shifted performs.
    flat, bl = arrays.segments(idxs)
    vals = t_shift[flat].tolist()
    sequences, point_sets = arrays.objects(idxs)
    # Objects are assembled through __new__ + object.__setattr__: this is
    # exactly what the frozen-dataclass __init__ does minus the
    # __post_init__ length check, which holds by construction here
    # (sizes IS the sequence length) — the instances are field-for-field
    # identical.
    route_new = Route.__new__
    strategy_new = WorkerStrategy.__new__
    set_field = object.__setattr__
    out = []
    append = out.append
    for seq, pid, p, a, b in zip(sequences, point_sets, payoffs.tolist(), bl, bl[1:]):
        route = route_new(Route)
        set_field(route, "sequence", seq)
        set_field(route, "arrival_times", tuple(vals[a:b]))
        strategy = strategy_new(WorkerStrategy)
        set_field(strategy, "point_ids", pid)
        set_field(strategy, "route", route)
        set_field(strategy, "payoff", p)
        append(strategy)
    return out
