"""Vectorized C-VDPS layered DP (Algorithm 1 as numpy array passes).

This is the batched counterpart of
:func:`repro.vdps.generator.compute_states`: the same layered expansion
over ``(subset, endpoint)`` states, with each layer's candidate generation,
deadline filtering, and canonical ``(time, path)`` relaxation executed as
array operations instead of dict loops.  The result stays in arrays — one
:class:`Layer` per subset size — which feed the validation scan
(:meth:`repro.kernels.validate.EntryArrays.from_layers`) directly; the
scalar-shaped state table is derived only on demand
(:func:`states_from_layers`).  It is **bit identical** to the scalar one —
same keys, same floats, same tie-breaks — which is what lets
:class:`repro.vdps.delta.DeltaCatalog` splice deltas over a kernel-built
table and still land on the rebuild's exact result.

How bit-identity is preserved:

* **Travel times** come from :meth:`repro.geo.travel.TravelModel.matrix`,
  which fills the matrix through the same metric calls the scalar path
  makes (``math.hypot`` is correctly rounded; a vectorised ``np.hypot`` is
  not guaranteed to match it bit for bit, so it is never used here).
* **Float evaluation order** matches ``extend_value`` exactly:
  ``(t + service[j]) + T[j, q]``, left-associated, one IEEE-754 operation
  at a time — elementwise array arithmetic performs the identical scalar
  operations.  A state's prefix arrival times are its parent's prefix
  times plus its own, so they are the very floats
  :func:`repro.core.routing.arrival_times` chains along the path.
* **The canonical tie-break** — keep the lexicographically minimal
  ``(time, path)`` per state — reduces to an integer sort.  Each layer is
  kept in path-lexicographic order, so a row's index *is* its path's
  rank; within one layer all paths have equal length, so comparing two
  candidate paths for the same ``(subset, q)`` target is comparing their
  parents' ranks.  Sorting candidates by ``(time, parent_rank)`` and
  keeping the first per target therefore reproduces the scalar
  ``value < cur`` relaxation exactly, and re-sorting winners by
  ``(parent_rank, q)`` restores the path-lexicographic invariant for the
  next layer.  The same argument makes a subset's canonical state the
  minimum by ``(time, row)`` over its endpoints (:attr:`Layer.best`).

Subsets are carried as packed little-endian bitmask rows (one bit per
delivery point in sorted-id order), padded to whole 64-bit words so that
grouping rows by subset compares machine words, and frontier expansion is
chunked so the transient candidate matrices stay bounded regardless of
layer width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geo.travel import TravelMatrix, TravelModel

#: Upper bound on cells in one transient candidate matrix (rows x points).
_CHUNK_CELLS = 1 << 22

_StateKey = Tuple[FrozenSet[str], str]
_StateVal = Tuple[float, Tuple[str, ...]]


@dataclass(frozen=True)
class Layer:
    """Every feasible DP state with ``size`` points, in path-lex order.

    Points are indexed by position in their center's sorted-id order.
    Row ``r`` is the state whose visit order is ``paths[r]``; its value is
    ``times[r, -1]``.  A batched DP (:func:`compute_layers` over several
    centers) keeps each center's states as one contiguous block, blocks in
    batch order, path-lex within a block.
    """

    #: ``(S, size)`` intp — visit order of each state.
    paths: np.ndarray
    #: ``(S, size)`` float64 — center-relative arrival time at each visit.
    times: np.ndarray
    #: ``(S, n_words)`` uint64 — packed subset bitmask of each state.
    masks: np.ndarray
    #: ``(S,)`` int64 — dense id of each state's ``(center, subset)``
    #: within the layer, ascending by center.
    sid: np.ndarray
    #: ``(n_subsets,)`` intp — the canonical state's row, indexed by ``sid``.
    best: np.ndarray
    #: ``(S,)`` intp — batch position of each state's center (ascending).
    center: np.ndarray

    @property
    def size(self) -> int:
        return self.paths.shape[1]


@dataclass(frozen=True)
class CenterDP:
    """One center's share of a batched DP (:func:`compute_layers`)."""

    center_id: str
    #: The center's delivery points in sorted-id order (the index space).
    points: Sequence[object]
    #: ``(n, n)`` bool — ``adjacency[j, q]``: the DP may chain ``j -> q``.
    adjacency: np.ndarray
    #: The sorted-id :func:`center_matrix` of ``points``.
    matrix: TravelMatrix
    #: ``maxDP``: the largest subset size this center's DP expands to.
    cap: int
    #: The center's ``DPStats``; :func:`compute_layers` adds its counts.
    stats: object


def center_matrix(
    points_by_id: Mapping[str, object],
    travel: TravelModel,
    center_location,
    layout: Optional["LayoutMatrix"] = None,
) -> Tuple[List[str], TravelMatrix]:
    """Sorted dp ids plus their travel matrix (kernel index space).

    The kernels index everything by position in the sorted-id order, which
    is also the order the scalar DP seeds in.  ``layout`` serves the
    matrix from a center's cross-round cache instead of refilling it.
    """
    ids = sorted(points_by_id)
    locations = [points_by_id[dp_id].location for dp_id in ids]
    if layout is None:
        return ids, travel.matrix(locations, origin=center_location)
    return ids, layout.matrix(ids, locations, travel, center_location)


class LayoutMatrix:
    """One center's pairwise distances, kept across rounds.

    A center's delivery points keep their locations from round to round,
    so consecutive rebuilds ask for travel matrices over overlapping point
    sets.  This cache holds the distances among every point the center has
    shown, keyed by dp id, and answers by gathering.  Each pair is filled
    as :meth:`repro.geo.travel.TravelModel.matrix` fills it — ``0.0`` for
    equal locations, otherwise the metric called with the lower id's
    location first, as in sorted-id order — and times are the gathered
    distances divided by the speed, so the result is bit-identical to a
    fresh matrix.  A moved point, another metric or origin, or a cache
    grown far past the request starts the cache over.
    """

    #: Points the cache may hold beyond a request before it starts over.
    SLACK = 256

    def __init__(self) -> None:
        self._reset(None)

    def _reset(self, key) -> None:
        self._key = key
        self._ids: List[str] = []
        self._slot: Dict[str, int] = {}
        self._locations: List[object] = []
        self._distances = np.zeros((0, 0), dtype=np.float64)
        self._origin = np.zeros(0, dtype=np.float64)

    def matrix(
        self,
        ids: Sequence[str],
        locations: Sequence[object],
        travel: TravelModel,
        origin,
    ) -> TravelMatrix:
        """The travel matrix of ``ids`` (at ``locations``) from ``origin``."""
        key = (travel.distance_fn, origin)
        slot = self._slot
        if (
            key != self._key
            or len(self._ids) > len(ids) + self.SLACK
            or any(
                dp_id in slot and self._locations[slot[dp_id]] != location
                for dp_id, location in zip(ids, locations)
            )
        ):
            self._reset(key)
            slot = self._slot
        new = [k for k, dp_id in enumerate(ids) if dp_id not in slot]
        if new:
            self._grow(
                [ids[k] for k in new], [locations[k] for k in new], travel, origin
            )
        idx = np.fromiter((self._slot[dp_id] for dp_id in ids), np.intp, len(ids))
        distances = self._distances[np.ix_(idx, idx)]
        return TravelMatrix(
            distances=distances,
            times=distances / travel.speed_kmh,
            origin_times=self._origin[idx] / travel.speed_kmh,
        )

    def _grow(self, ids, locations, travel: TravelModel, origin) -> None:
        fn = travel.distance_fn
        m = len(self._ids)
        all_ids = self._ids + list(ids)
        all_locations = self._locations + list(locations)
        distances = np.zeros((len(all_ids), len(all_ids)), dtype=np.float64)
        distances[:m, :m] = self._distances
        for a in range(m, len(all_ids)):
            id_a, loc_a = all_ids[a], all_locations[a]
            row = distances[a]
            for b in range(a):
                loc_b = all_locations[b]
                if loc_a == loc_b:
                    d = 0.0
                elif id_a < all_ids[b]:
                    d = fn(loc_a, loc_b)
                else:
                    d = fn(loc_b, loc_a)
                row[b] = distances[b, a] = d
        self._origin = np.concatenate(
            (
                self._origin,
                [0.0 if origin == loc else fn(origin, loc) for loc in locations],
            )
        )
        self._distances = distances
        self._ids = all_ids
        self._locations = all_locations
        self._slot = {dp_id: k for k, dp_id in enumerate(all_ids)}


#: Packed subset words: explicitly little-endian, so the byte view that
#: ``np.unpackbits(..., bitorder="little")`` reads puts point ``i`` at bit
#: ``i`` on every host.
_WORD = np.dtype("<u8")


def _make_layer(
    paths: np.ndarray, times: np.ndarray, masks: np.ndarray, center: np.ndarray
) -> Layer:
    """Group a layer's states by (center, subset); pick each group's best row."""
    # One stable sort by (center, subset words, time): among equal
    # (center, subset, time) the lower row — the smaller path — stays
    # first, so the first row of each group is the canonical minimum by
    # (time, path).
    order = np.lexsort((times[:, -1],) + tuple(masks.T) + (center,))
    ranked = masks[order]
    ranked_center = center[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    starts[1:] |= ranked_center[1:] != ranked_center[:-1]
    sid = np.empty(order.size, dtype=np.int64)
    sid[order] = np.cumsum(starts) - 1
    return Layer(paths, times, masks, sid, order[starts], center)


def compute_layers(centers: Sequence[CenterDP], tracer) -> List[Layer]:
    """The layered DP of every center in ``centers`` as one set of array passes.

    Each center keeps its own sorted-id point space, padded to the
    batch's widest center: travel times and chaining flags form
    ``(C, P, P)`` stacks, and every state carries its center's batch
    position (:attr:`Layer.center`).  Relaxation keys are
    ``(center, subset, endpoint)``, so centers never interact and each
    center's states stay a contiguous path-lex block; a center stops
    expanding at its own ``cap``.  Per center this produces exactly the
    states, ``stats`` increments and ``cvdps.layer`` events (emitted
    center by center, in batch order) that the scalar
    :func:`repro.vdps.generator.compute_states` does.  Every center needs
    at least one point and ``cap >= 1``.
    """
    n_centers = len(centers)
    sizes = [len(job.points) for job in centers]
    width = max(sizes)
    n_words = max(1, -(-width // 64))
    # Padding points are unreachable: no seed (infinite center leg, -inf
    # deadline) and no chaining flag into or out of them.
    service_list: List[float] = []
    deadline_list: List[float] = []
    for job, n in zip(centers, sizes):
        service_list.extend([dp.service_hours for dp in job.points])
        deadline_list.extend([dp.earliest_expiry for dp in job.points])
        service_list.extend([0.0] * (width - n))
        deadline_list.extend([-np.inf] * (width - n))
    service = np.array(service_list, dtype=np.float64).reshape(n_centers, width)
    deadline = np.array(deadline_list, dtype=np.float64).reshape(n_centers, width)
    origin = np.full((n_centers, width), np.inf)
    times = np.zeros((n_centers, width, width), dtype=np.float64)
    adjacency = np.zeros((n_centers, width, width), dtype=bool)
    for c, (job, n) in enumerate(zip(centers, sizes)):
        origin[c, :n] = job.matrix.origin_times
        times[c, :n, :n] = job.matrix.times
        adjacency[c, :n, :n] = job.adjacency
    caps = np.array([job.cap for job in centers], dtype=np.int64)
    counts = np.array(sizes, dtype=np.int64)

    # Layer 1: seed every singleton whose center leg meets its deadline.
    # nonzero walks row-major, so the layer starts in (center, path-lex)
    # order.
    seed_center, seed_idx = np.nonzero(origin <= deadline)
    seeds = np.bincount(seed_center, minlength=n_centers)
    masks = np.zeros((seed_idx.size, n_words), dtype=_WORD)
    _set_bits(masks, seed_idx)
    layer = Layer(
        paths=seed_idx.reshape(-1, 1),
        times=origin[seed_center, seed_idx].reshape(-1, 1),
        masks=masks,
        sid=np.arange(seed_idx.size, dtype=np.int64),
        best=np.arange(seed_idx.size, dtype=np.intp),
        center=seed_center,
    )
    layers = [layer] if seed_idx.size else []
    expanded = seeds.copy()
    tried = np.zeros(n_centers, dtype=np.int64)
    rejected = counts - seeds
    # Per expansion: (size, expanding centers, states, candidates,
    # rejections), for the per-center tracer events.
    history = []

    size = 1
    chunk = max(1, _CHUNK_CELLS // width)
    while layer.paths.shape[0]:
        rows = np.flatnonzero(caps[layer.center] > size)
        if not rows.size:
            break
        f_ends = layer.paths[rows, -1]
        f_center = layer.center[rows]
        base = layer.times[rows, -1] + service[f_center, f_ends]
        member_bytes = layer.masks[rows].view(np.uint8)
        parents_parts: List[np.ndarray] = []
        qs_parts: List[np.ndarray] = []
        ts_parts: List[np.ndarray] = []
        tried_parts: List[np.ndarray] = []
        rejected_parts: List[np.ndarray] = []
        for lo in range(0, rows.size, chunk):
            hi = min(lo + chunk, rows.size)
            member = np.unpackbits(
                member_bytes[lo:hi], axis=1, count=width, bitorder="little"
            ).astype(bool)
            allowed = adjacency[f_center[lo:hi], f_ends[lo:hi]] & ~member
            rows_c, qs_c = np.nonzero(allowed)
            if not rows_c.size:
                continue
            local = rows_c + lo
            cand_center = f_center[local]
            t_new = base[local] + times[cand_center, f_ends[local], qs_c]
            feasible = t_new <= deadline[cand_center, qs_c]
            tried_parts.append(cand_center)
            rejected_parts.append(cand_center[~feasible])
            parents_parts.append(rows[local[feasible]])
            qs_parts.append(qs_c[feasible])
            ts_parts.append(t_new[feasible])

        size += 1
        layer_tried = _count(tried_parts, n_centers)
        layer_rejected = _count(rejected_parts, n_centers)
        parents = np.concatenate(parents_parts) if parents_parts else rows[:0]
        if parents.size:
            qs = np.concatenate(qs_parts)
            ts = np.concatenate(ts_parts)
            # Canonical relaxation: stable-sort candidates by (target,
            # time, parent rank) and keep the first per (center, subset,
            # endpoint) target.  Subset ids are unique across centers, and
            # parent rows are ranked center-major, path-lex within a center.
            key = layer.sid[parents] * np.int64(width) + qs
            order = np.lexsort((parents, ts, key))
            ranked = key[order]
            first = np.empty(order.size, dtype=bool)
            first[:1] = True
            np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
            win = order[first]
            # Path-lex invariant: (parent rank, endpoint) order, which
            # also keeps every center's block contiguous.
            win = win[np.lexsort((qs[win], parents[win]))]
            wparents, wqs = parents[win], qs[win]
            new_masks = layer.masks[wparents]
            _set_bits(new_masks, wqs)
            layer = _make_layer(
                np.column_stack((layer.paths[wparents], wqs)),
                np.column_stack((layer.times[wparents], ts[win])),
                new_masks,
                layer.center[wparents],
            )
            layers.append(layer)
            states = np.bincount(layer.center, minlength=n_centers)
        else:
            states = np.zeros(n_centers, dtype=np.int64)
        expanded += states
        tried += layer_tried
        rejected += layer_rejected
        history.append(
            (
                size,
                np.bincount(f_center, minlength=n_centers) > 0,
                states,
                layer_tried,
                layer_rejected,
            )
        )
        if not parents.size:
            break

    for c, job in enumerate(centers):
        stats = job.stats
        if tracer.enabled:
            tracer.event(
                "cvdps.layer",
                center=job.center_id,
                size=1,
                states=int(seeds[c]),
                candidates=sizes[c],
                deadline_rejections=stats.deadline_rejections
                + sizes[c]
                - int(seeds[c]),
            )
            for layer_size, expanding, states, layer_tried, layer_rejected in history:
                if expanding[c]:
                    tracer.event(
                        "cvdps.layer",
                        center=job.center_id,
                        size=layer_size,
                        states=int(states[c]),
                        candidates=int(layer_tried[c]),
                        deadline_rejections=int(layer_rejected[c]),
                    )
        stats.states_expanded += int(expanded[c])
        stats.candidates_tried += int(tried[c])
        stats.deadline_rejections += int(rejected[c])
    return layers


def _count(parts: List[np.ndarray], n_centers: int) -> np.ndarray:
    """``(C,)`` int64 — how many entries of ``parts`` name each center."""
    if not parts:
        return np.zeros(n_centers, dtype=np.int64)
    return np.bincount(np.concatenate(parts), minlength=n_centers)


def _set_bits(masks: np.ndarray, idx: np.ndarray) -> None:
    """Set bit ``idx[r]`` in row ``r`` of the packed ``masks``, in place."""
    if idx.size:
        masks[np.arange(idx.size), idx >> 6] |= np.left_shift(
            np.uint64(1), (idx & 63).astype(np.uint64)
        )


def split_layers(
    layers: Sequence[Layer], n_centers: int
) -> List[List[Tuple[np.ndarray, np.ndarray]]]:
    """Each center's states out of a batched DP, in arrays of its own.

    Returns, per center in batch order, one ``(paths, times)`` pair per
    layer the center reaches: its block's visit orders and final arrival
    times.  They are copies, so a center's share keeps nothing of the
    batch alive.
    """
    blocks: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n_centers)]
    for layer in layers:
        cuts = np.searchsorted(layer.center, np.arange(n_centers + 1)).tolist()
        for c in range(n_centers):
            a, b = cuts[c], cuts[c + 1]
            if a < b:
                blocks[c].append((layer.paths[a:b].copy(), layer.times[a:b, -1].copy()))
    return blocks


def states_from_layers(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray]], ids: Sequence[str]
) -> Dict[_StateKey, _StateVal]:
    """The scalar-shaped state table ``{(subset, end): (time, path)}``.

    ``blocks`` is one center's :func:`split_layers` share; ``ids`` are
    that center's sorted dp ids.
    """
    states: Dict[_StateKey, _StateVal] = {}
    for paths, times in blocks:
        for row, t in zip(paths.tolist(), times.tolist()):
            path = tuple(map(ids.__getitem__, row))
            states[(frozenset(path), path[-1])] = (t, path)
    return states
