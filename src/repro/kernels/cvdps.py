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

    Points are indexed by position in the sorted-id order.  Row ``r`` is
    the state whose visit order is ``paths[r]``; its value is
    ``times[r, -1]``.
    """

    #: ``(S, size)`` intp — visit order of each state.
    paths: np.ndarray
    #: ``(S, size)`` float64 — center-relative arrival time at each visit.
    times: np.ndarray
    #: ``(S, n_words)`` uint64 — packed subset bitmask of each state.
    masks: np.ndarray
    #: ``(S,)`` int64 — dense id of each state's subset within the layer.
    sid: np.ndarray
    #: ``(n_subsets,)`` intp — the canonical state's row, indexed by ``sid``.
    best: np.ndarray

    @property
    def size(self) -> int:
        return self.paths.shape[1]


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
    paths: np.ndarray, times: np.ndarray, masks: np.ndarray
) -> Layer:
    """Group a layer's states by subset and pick each subset's best row."""
    # One stable sort by (subset words, time): among equal (subset, time)
    # the lower row — the smaller path — stays first, so the first row of
    # each subset group is the canonical minimum by (time, path).
    order = np.lexsort((times[:, -1],) + tuple(masks.T))
    ranked = masks[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    sid = np.empty(order.size, dtype=np.int64)
    sid[order] = np.cumsum(starts) - 1
    return Layer(paths, times, masks, sid, order[starts])


def compute_layers(
    points: Sequence[object],
    adjacency: np.ndarray,
    matrix: TravelMatrix,
    cap: int,
    stats,
    tracer,
    center_id: str,
) -> List[Layer]:
    """The full layered DP as array passes; see the module doc.

    ``points`` are the center's delivery points in sorted-id order,
    ``adjacency[j, q]`` says the DP may chain ``j -> q`` (the pruning
    neighbourhood), and ``matrix`` is the sorted-id :func:`center_matrix`.
    Produces the same states as the scalar
    :func:`repro.vdps.generator.compute_states`, the same ``DPStats``
    increments and the same ``cvdps.layer`` tracer events.
    """
    n = len(points)
    service = np.array([dp.service_hours for dp in points], dtype=np.float64)
    deadline = np.array([dp.earliest_expiry for dp in points], dtype=np.float64)
    times = matrix.times
    n_words = max(1, -(-n // 64))

    # Layer 1: seed every singleton whose center leg meets its deadline.
    # flatnonzero ascends, so the layer starts in path-lex order.
    seed_times = matrix.origin_times
    seed_idx = np.flatnonzero(seed_times <= deadline)
    stats.deadline_rejections += n - seed_idx.size
    masks = np.zeros((seed_idx.size, n_words), dtype=_WORD)
    _set_bits(masks, seed_idx)
    layer = Layer(
        paths=seed_idx.astype(np.intp).reshape(-1, 1),
        times=seed_times[seed_idx].reshape(-1, 1),
        masks=masks,
        sid=np.arange(seed_idx.size, dtype=np.int64),
        best=np.arange(seed_idx.size, dtype=np.intp),
    )
    layers = [layer] if seed_idx.size else []
    stats.states_expanded += seed_idx.size
    if tracer.enabled:
        tracer.event(
            "cvdps.layer",
            center=center_id,
            size=1,
            states=int(seed_idx.size),
            candidates=n,
            deadline_rejections=stats.deadline_rejections,
        )

    size = 1
    while layer.paths.shape[0] and size < cap:
        f_ends = layer.paths[:, -1]
        base = layer.times[:, -1] + service[f_ends]
        member_bytes = layer.masks.view(np.uint8)
        chunk = max(1, _CHUNK_CELLS // max(n, 1))
        parents_parts: List[np.ndarray] = []
        qs_parts: List[np.ndarray] = []
        ts_parts: List[np.ndarray] = []
        layer_candidates = 0
        layer_rejections = 0
        for lo in range(0, f_ends.size, chunk):
            hi = min(lo + chunk, f_ends.size)
            member = np.unpackbits(
                member_bytes[lo:hi], axis=1, count=n, bitorder="little"
            ).astype(bool)
            allowed = adjacency[f_ends[lo:hi]] & ~member
            rows_c, qs_c = np.nonzero(allowed)
            layer_candidates += rows_c.size
            if not rows_c.size:
                continue
            rows_g = rows_c + lo
            t_new = base[rows_g] + times[f_ends[rows_g], qs_c]
            feasible = t_new <= deadline[qs_c]
            kept = int(np.count_nonzero(feasible))
            layer_rejections += rows_c.size - kept
            if kept:
                parents_parts.append(rows_g[feasible])
                qs_parts.append(qs_c[feasible])
                ts_parts.append(t_new[feasible])

        size += 1
        states = 0
        if parents_parts:
            parents = np.concatenate(parents_parts)
            qs = np.concatenate(qs_parts)
            ts = np.concatenate(ts_parts)
            # Canonical relaxation: stable-sort candidates by (target,
            # time, parent rank) and keep the first per (subset, endpoint)
            # target.
            key = layer.sid[parents] * np.int64(n) + qs
            order = np.lexsort((parents, ts, key))
            ranked = key[order]
            first = np.empty(order.size, dtype=bool)
            first[:1] = True
            np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
            win = order[first]
            # Path-lex invariant: (parent rank, endpoint) order.
            win = win[np.lexsort((qs[win], parents[win]))]
            wparents, wqs = parents[win], qs[win]
            new_masks = layer.masks[wparents]
            _set_bits(new_masks, wqs)
            layer = _make_layer(
                np.column_stack((layer.paths[wparents], wqs)),
                np.column_stack((layer.times[wparents], ts[win])),
                new_masks,
            )
            layers.append(layer)
            states = win.size

        stats.states_expanded += states
        stats.candidates_tried += layer_candidates
        stats.deadline_rejections += layer_rejections
        if tracer.enabled:
            tracer.event(
                "cvdps.layer",
                center=center_id,
                size=size,
                states=states,
                candidates=layer_candidates,
                deadline_rejections=layer_rejections,
            )
        if not states:
            break
    return layers


def _set_bits(masks: np.ndarray, idx: np.ndarray) -> None:
    """Set bit ``idx[r]`` in row ``r`` of the packed ``masks``, in place."""
    if idx.size:
        masks[np.arange(idx.size), idx >> 6] |= np.left_shift(
            np.uint64(1), (idx & 63).astype(np.uint64)
        )


def states_from_layers(
    layers: Sequence[Layer], ids: Sequence[str]
) -> Dict[_StateKey, _StateVal]:
    """The scalar-shaped state table ``{(subset, end): (time, path)}``."""
    states: Dict[_StateKey, _StateVal] = {}
    for layer in layers:
        for row, t in zip(layer.paths.tolist(), layer.times[:, -1].tolist()):
            path = tuple(map(ids.__getitem__, row))
            states[(frozenset(path), path[-1])] = (t, path)
    return states
