"""Vectorized C-VDPS layered DP (Algorithm 1 as numpy array passes).

The layered expansion over ``(subset, endpoint)`` states, with each
layer's candidate generation, deadline filtering, and canonical ``(time,
path)`` relaxation executed as array operations.  The result stays in
arrays — one :class:`Layer` per subset size — which feed the validation
scan (:meth:`repro.kernels.validate.EntryArrays.from_layers`) directly.
It is **bit identical** to the dict-keyed DP of
:func:`repro.oracle.compute_states` — same states, same floats, same
tie-breaks — and state values are a function of the point set alone,
which is what lets :class:`repro.vdps.delta.DeltaCatalog` splice deltas
over a built table and still land on the rebuild's exact result.

How bit-identity is preserved:

* **Travel times** come from :meth:`repro.geo.travel.TravelModel.matrix`,
  which fills the matrix through the same metric calls
  ``TravelModel.time`` makes (``math.hypot`` is correctly rounded; a
  vectorised ``np.hypot`` is not guaranteed to match it bit for bit, so it
  is never used here).
* **Float evaluation order** matches the dict DP's
  (:func:`repro.oracle.extend_value`) exactly:
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
  keeping the first per target therefore reproduces the dict DP's
  ``value < cur`` relaxation exactly, and re-sorting winners by
  ``(parent_rank, q)`` restores the path-lexicographic invariant for the
  next layer.  The same argument makes a subset's canonical state the
  minimum by ``(time, row)`` over its endpoints (:attr:`Layer.best`).

Subsets are carried as packed little-endian bitmask rows (one bit per
delivery point in sorted-id order), padded to whole 64-bit words so that
grouping rows by subset compares machine words, and frontier expansion is
chunked so the transient candidate matrices stay bounded regardless of
layer width.

One expansion loop (:func:`_grow`) serves every use.  A full build runs
it from the seeds.  A live DP — one center's layers, which
:class:`repro.vdps.delta.DeltaCatalog` keeps across rounds — is edited in
place: :func:`layers_without` drops the states over removed points,
:func:`add_points` runs the loop from the new points' singletons and
merges the new states into each layer, and :func:`deepen_layers` resumes
it from the top layer when the cap grows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.travel import TravelMatrix, TravelModel

#: Upper bound on cells in one transient candidate matrix (rows x points).
_CHUNK_CELLS = 1 << 22


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
    #: The center's :class:`~repro.core.columns.PointColumns`, sorted-id
    #: order (the index space).
    points: object
    #: ``(n, n)`` bool — ``adjacency[j, q]``: the DP may chain ``j -> q``.
    adjacency: np.ndarray
    #: The sorted-id :func:`center_matrix` of ``points``.
    matrix: TravelMatrix
    #: ``maxDP``: the largest subset size this center's DP expands to.
    cap: int
    #: The center's ``DPStats``; :func:`compute_layers` adds its counts.
    stats: object


def center_matrix(
    points,
    travel: TravelModel,
    center_location,
    layout: Optional["LayoutMatrix"] = None,
) -> TravelMatrix:
    """The travel matrix of a center's :class:`~repro.core.columns.PointColumns`.

    The kernels index everything by position in the sorted-id order, which
    is also the order the dict DP seeds in.  ``layout`` serves the
    matrix from a center's cross-round cache instead of refilling it.
    """
    if layout is None:
        return travel.matrix(points.locations, origin=center_location)
    return layout.matrix(points.ids, points.locations, travel, center_location)


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
        self._location_of: Dict[str, object] = {}
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
        if (
            key != self._key
            or len(self._ids) > len(ids) + self.SLACK
            or self._moved(ids, locations)
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

    def _moved(self, ids: Sequence[str], locations: Sequence[object]) -> bool:
        """Whether a known point of ``ids`` now sits at another location.

        Snapshots hand the same location objects over from round to round,
        so an identity pass over C-level ``map`` settles almost every call;
        only a pair that is not the same object is compared by value.  A
        new id is looked up with its own location as the default, so it
        passes both tests.
        """
        known = list(map(self._location_of.get, ids, locations))
        if all(map(operator.is_, known, locations)):
            return False
        return any(map(operator.ne, known, locations))

    def _grow(self, ids, locations, travel: TravelModel, origin) -> None:
        fn = travel.distance_fn
        m = len(self._ids)
        all_ids = self._ids + list(ids)
        all_locations = [*self._location_of.values(), *locations]
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
        self._slot = {dp_id: k for k, dp_id in enumerate(all_ids)}
        self._location_of = dict(zip(all_ids, all_locations))


#: Packed subset words: explicitly little-endian, so the byte view that
#: ``np.unpackbits(..., bitorder="little")`` reads puts point ``i`` at bit
#: ``i`` on every host.
_WORD = np.dtype("<u8")


def narrow(values: np.ndarray, bound: int) -> np.ndarray:
    """``values``, all in ``[0, bound]``, as the narrowest unsigned type.

    A sort key this narrow sorts faster (numpy's stable sort runs radix
    passes on 8- and 16-bit integers), to the same order.
    """
    return values.astype(np.min_scalar_type(bound), copy=False)


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


def _empty_layer(size: int, n_words: int) -> Layer:
    """A layer of ``size``-point states that holds none."""
    return Layer(
        paths=np.empty((0, size), dtype=np.intp),
        times=np.empty((0, size), dtype=np.float64),
        masks=np.empty((0, n_words), dtype=_WORD),
        sid=np.empty(0, dtype=np.int64),
        best=np.empty(0, dtype=np.intp),
        center=np.empty(0, dtype=np.intp),
    )


@dataclass(frozen=True)
class _Stack:
    """A batch's DP inputs, each center padded to the widest one.

    Padding points are unreachable: no seed (infinite center leg, -inf
    deadline) and no chaining flag into or out of them.
    """

    #: ``(C, P)`` — service hours, earliest expiry and center leg per point.
    service: np.ndarray
    deadline: np.ndarray
    origin: np.ndarray
    #: ``(C, P, P)`` — travel times and chaining flags between points.
    times: np.ndarray
    adjacency: np.ndarray
    #: ``(C,)`` — each center's ``maxDP``.
    caps: np.ndarray

    @property
    def width(self) -> int:
        return self.service.shape[1]


def _stack(centers: Sequence[CenterDP]) -> _Stack:
    """Stack ``centers``' inputs (every center needs at least one point)."""
    n_centers = len(centers)
    sizes = [len(job.points) for job in centers]
    width = max(sizes)
    service = np.zeros((n_centers, width), dtype=np.float64)
    deadline = np.full((n_centers, width), -np.inf)
    origin = np.full((n_centers, width), np.inf)
    times = np.zeros((n_centers, width, width), dtype=np.float64)
    adjacency = np.zeros((n_centers, width, width), dtype=bool)
    for c, (job, n) in enumerate(zip(centers, sizes)):
        service[c, :n] = job.points.service
        deadline[c, :n] = job.points.deadline
        origin[c, :n] = job.matrix.origin_times
        times[c, :n, :n] = job.matrix.times
        adjacency[c, :n, :n] = job.adjacency
    return _Stack(
        service=service,
        deadline=deadline,
        origin=origin,
        times=times,
        adjacency=adjacency,
        caps=np.array([job.cap for job in centers], dtype=np.int64),
    )


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
    center by center, in batch order) that the dict-keyed
    :func:`repro.oracle.compute_states` does.  Every center needs
    at least one point and ``cap >= 1``.
    """
    n_centers = len(centers)
    sizes = [len(job.points) for job in centers]
    stack = _stack(centers)
    n_words = max(1, -(-stack.width // 64))

    # Layer 1: seed every singleton whose center leg meets its deadline.
    # nonzero walks row-major, so the layer starts in (center, path-lex)
    # order.
    seed_center, seed_idx = np.nonzero(stack.origin <= stack.deadline)
    seeds = np.bincount(seed_center, minlength=n_centers)
    masks = np.zeros((seed_idx.size, n_words), dtype=_WORD)
    _set_bits(masks, seed_idx)
    layer = Layer(
        paths=seed_idx.reshape(-1, 1),
        times=stack.origin[seed_center, seed_idx].reshape(-1, 1),
        masks=masks,
        sid=np.arange(seed_idx.size, dtype=np.int64),
        best=np.arange(seed_idx.size, dtype=np.intp),
        center=seed_center,
    )
    # Per expansion: (size, expanding centers, states, candidates,
    # rejections), for the per-center tracer events.
    grown, history = _grow(stack, layer, 1)
    layers = ([layer] if seed_idx.size else []) + grown
    expanded = seeds.copy()
    tried = np.zeros(n_centers, dtype=np.int64)
    rejected = np.array(sizes, dtype=np.int64) - seeds
    for _, _, states, layer_tried, layer_rejected in history:
        expanded += states
        tried += layer_tried
        rejected += layer_rejected

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


def _grow(
    stack: _Stack,
    layer: Layer,
    size: int,
    required: Optional[np.ndarray] = None,
    stored: Optional[List[Layer]] = None,
):
    """Close ``layer``, states of ``size`` points, upward one layer a pass.

    The one expansion loop of the DP.  Full builds run it from the seeds
    (:func:`compute_layers`), cap growth from a center's top layer
    (:func:`deepen_layers`), point addition from the new points'
    singletons (:func:`add_points`).  Each pass extends frontier rows by
    one point (:func:`_step`), until each center's ``cap``.

    Without ``stored`` a pass's frontier is the layer the previous pass
    produced, and the new layers are returned.  With ``stored`` — one
    center's path-lex layers, ``stored[k]`` holding its states of
    ``k + 1`` points — every layer the loop produces (``layer`` included)
    is merged into ``stored`` in place, and a pass expands the merged
    layer's new rows plus every stored row whose endpoint chains to a
    ``required`` point (a ``(P,)`` bool mask), keeping only successors
    whose subset holds one.

    Returns the new layers (none with ``stored``) and, per pass, ``(size
    reached, centers expanding, states, candidates, rejections)``, the
    counts per center.
    """
    n_centers = stack.caps.size
    grown: List[Layer] = []
    history = []
    if stored is not None:
        reaches = stack.adjacency[0][:, required].any(axis=1)
    while True:
        if stored is None:
            frontier = layer
            rows = np.flatnonzero(stack.caps[layer.center] > size)
        else:
            if size <= len(stored):
                stored[size - 1], fresh = _merge(stored[size - 1], layer)
            elif layer.paths.shape[0]:
                stored.append(layer)
                fresh = np.arange(layer.paths.shape[0])
            else:
                break
            frontier = stored[size - 1]
            if size >= stack.caps[0]:
                break
            chains = reaches[frontier.paths[:, -1]]
            chains[fresh] = True
            rows = np.flatnonzero(chains)
        if not rows.size:
            break
        layer, layer_tried, layer_rejected = _step(stack, frontier, rows, required)
        size += 1
        history.append(
            (
                size,
                np.bincount(frontier.center[rows], minlength=n_centers) > 0,
                np.bincount(layer.center, minlength=n_centers),
                layer_tried,
                layer_rejected,
            )
        )
        if not layer.paths.shape[0]:
            if stored is None:
                break
        elif stored is None:
            grown.append(layer)
    return grown, history


def _step(
    stack: _Stack,
    layer: Layer,
    rows: np.ndarray,
    required: Optional[np.ndarray] = None,
):
    """One DP pass: rows ``rows`` of ``layer``, each extended by one point.

    Returns the next layer, path-lex when ``layer`` is, and the
    per-center candidate and deadline-rejection counts.  With
    ``required``, a ``(P,)`` bool mask, the only candidates are those
    whose subset holds a required point: a row without one may step to
    one and nowhere else.
    """
    n_centers = stack.caps.size
    width = stack.width
    chunk = max(1, _CHUNK_CELLS // width)
    f_ends = layer.paths[rows, -1]
    f_center = layer.center[rows]
    base = layer.times[rows, -1] + stack.service[f_center, f_ends]
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
        allowed = stack.adjacency[f_center[lo:hi], f_ends[lo:hi]] & ~member
        if required is not None:
            allowed &= (member & required).any(axis=1)[:, None] | required
        rows_c, qs_c = np.nonzero(allowed)
        if not rows_c.size:
            continue
        local = rows_c + lo
        cand_center = f_center[local]
        t_new = base[local] + stack.times[cand_center, f_ends[local], qs_c]
        feasible = t_new <= stack.deadline[cand_center, qs_c]
        tried_parts.append(cand_center)
        rejected_parts.append(cand_center[~feasible])
        parents_parts.append(rows[local[feasible]])
        qs_parts.append(qs_c[feasible])
        ts_parts.append(t_new[feasible])

    tried = _count(tried_parts, n_centers)
    rejected = _count(rejected_parts, n_centers)
    parents = np.concatenate(parents_parts) if parents_parts else rows[:0]
    if not parents.size:
        return _empty_layer(layer.size + 1, layer.masks.shape[1]), tried, rejected
    qs = np.concatenate(qs_parts)
    ts = np.concatenate(ts_parts)
    # Canonical relaxation: stable-sort candidates by (target, time,
    # parent rank) and keep the first per (center, subset, endpoint)
    # target.  Subset ids are unique across centers, and parent rows are
    # ranked center-major, path-lex within a center.
    key = layer.sid[parents] * np.int64(width) + qs
    order = np.lexsort((parents, ts, key))
    ranked = key[order]
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    win = order[first]
    # Path-lex invariant: (parent rank, endpoint) order, which also keeps
    # every center's block contiguous.
    win = win[np.lexsort((qs[win], parents[win]))]
    wparents, wqs = parents[win], qs[win]
    new_masks = layer.masks[wparents]
    _set_bits(new_masks, wqs)
    nxt = _make_layer(
        np.column_stack((layer.paths[wparents], wqs)),
        np.column_stack((layer.times[wparents], ts[win])),
        new_masks,
        layer.center[wparents],
    )
    return nxt, tried, rejected


def _merge(old: Layer, new: Layer) -> Tuple[Layer, np.ndarray]:
    """Two path-lex layers of one center over disjoint subsets, as one.

    Returns the merged layer and the rows ``new``'s rows landed on.
    Subset ids and best rows carry over (``new``'s ids after ``old``'s),
    so no regrouping is needed.
    """
    n_old, n_new = old.paths.shape[0], new.paths.shape[0]
    if not n_new:
        return old, np.empty(0, dtype=np.intp)
    if not n_old:
        return new, np.arange(n_new)
    landed = np.searchsorted(_path_keys(old.paths), _path_keys(new.paths))
    landed += np.arange(n_new)
    is_new = np.zeros(n_old + n_new, dtype=bool)
    is_new[landed] = True
    stays = np.flatnonzero(~is_new)

    def interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((n_old + n_new,) + a.shape[1:], dtype=a.dtype)
        out[stays] = a
        out[landed] = b
        return out

    merged = Layer(
        paths=interleave(old.paths, new.paths),
        times=interleave(old.times, new.times),
        masks=interleave(old.masks, new.masks),
        sid=interleave(old.sid, new.sid + old.best.size),
        best=np.concatenate((stays[old.best], landed[new.best])),
        center=np.zeros(n_old + n_new, dtype=np.intp),
    )
    return merged, landed


def _path_keys(paths: np.ndarray) -> np.ndarray:
    """``(S,)`` opaque keys ordered as the rows of ``paths`` are, path-lex.

    Each row as big-endian unsigned words, viewed as one raw byte string:
    byte strings compare like the index rows they spell.
    """
    rows = np.ascontiguousarray(paths, dtype=">u4")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


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


def point_mask(points: Sequence[int], n_words: int) -> np.ndarray:
    """``(1, n_words)`` — the packed mask of point indices ``points``."""
    mask = np.zeros((1, n_words), dtype=_WORD)
    for point in points:
        mask[0, point >> 6] |= np.uint64(1) << np.uint64(point & 63)
    return mask


def _pack(paths: np.ndarray, n_words: int) -> np.ndarray:
    """``(S, n_words)`` packed subset masks of the visit orders ``paths``."""
    masks = np.zeros((paths.shape[0], n_words), dtype=_WORD)
    for column in paths.T:
        _set_bits(masks, column)
    return masks


def _tally(stats, history, states: int = 0, rejected: int = 0) -> None:
    """Add one center's pass ``history`` (and seed counts) to ``stats``."""
    tried = 0
    for _, _, layer_states, layer_tried, layer_rejected in history:
        states += int(layer_states[0])
        tried += int(layer_tried[0])
        rejected += int(layer_rejected[0])
    stats.states_expanded += states
    stats.candidates_tried += tried
    stats.deadline_rejections += rejected


def layers_without(
    layers: Sequence[Layer], drop: Sequence[int], remap: np.ndarray, n_words: int
) -> List[Layer]:
    """One center's layers without every state over points ``drop``.

    A state depends on a point only if its subset holds it (arrival times
    chain through the state's own points alone), so this is exactly the
    DP over the remaining points: one mask test per layer.  ``remap[i]``
    is old point ``i``'s index in the new sorted-id order; when any index
    moves, paths are re-indexed (a monotone map keeps them path-lex) and
    masks re-packed into ``n_words`` words.
    """
    if not layers:
        return []
    probe = point_mask(drop, layers[0].masks.shape[1])
    moved = n_words != probe.shape[1] or not np.array_equal(
        remap, np.arange(remap.size)
    )
    out: List[Layer] = []
    for layer in layers:
        keep = ~(layer.masks & probe).any(axis=1)
        # A subset's states live or die together.
        alive = keep[layer.best]
        if not alive.any():
            break
        if keep.all():
            paths, times, masks = layer.paths, layer.times, layer.masks
            sid, best = layer.sid, layer.best
        else:
            paths, times = layer.paths[keep], layer.times[keep]
            masks = layer.masks[keep]
            sid = (np.cumsum(alive) - 1)[layer.sid[keep]]
            best = (np.cumsum(keep) - 1)[layer.best[alive]]
        if moved:
            paths = remap[paths]
            masks = _pack(paths, n_words)
        out.append(
            Layer(paths, times, masks, sid, best, np.zeros(sid.size, dtype=np.intp))
        )
    return out


def add_points(layers: List[Layer], job: CenterDP, points: Sequence[int]) -> None:
    """Splice every state whose subset holds one of ``points`` into ``layers``.

    ``layers`` are one center's path-lex DP over ``job``'s points except
    ``points``, up to ``job.cap`` points.  States free of the new points
    never route through them, so ``layers`` are that half of the full DP.
    The other half is the new points' singletons, every state whose
    endpoint chains to a new point extended by it, and the upward closure
    of those: the one expansion loop (:func:`_grow`), with a full build's
    canonical relaxation, merging each new layer into ``layers`` in
    place.  Every parent of a new state is either new or an old state
    stepping to a new point, so the loop tries each candidate adding
    the points one at a time would, once.  Adds the work to
    ``job.stats``.
    """
    if job.cap < 1 or not len(points):
        return
    stack = _stack([job])
    required = np.zeros(stack.width, dtype=bool)
    required[list(points)] = True
    seeds = np.flatnonzero(required & (stack.origin[0] <= stack.deadline[0]))
    paths = seeds.reshape(-1, 1)
    seed = _make_layer(
        paths,
        stack.origin[0, seeds].reshape(-1, 1),
        _pack(paths, max(1, -(-stack.width // 64))),
        np.zeros(seeds.size, dtype=np.intp),
    )
    _, history = _grow(stack, seed, 1, required=required, stored=layers)
    _tally(
        job.stats, history, states=seeds.size, rejected=len(points) - seeds.size
    )


def deepen_layers(layers: List[Layer], job: CenterDP, built: int) -> None:
    """Extend ``layers``, one center's DP complete up to ``built`` points,
    to ``job.cap`` points.

    Resuming the expansion loop from the top layer reproduces exactly the
    layers a full build with the larger cap adds; a DP that ran out of
    states below ``built`` has none to add.
    """
    if not layers or layers[-1].size < built:
        return
    grown, history = _grow(_stack([job]), layers[-1], built)
    layers.extend(grown)
    _tally(job.stats, history)


def layers_from_paths(
    paths: Sequence[np.ndarray], points, matrix: TravelMatrix
) -> List[Layer]:
    """One center's DP as layers, from each layer's path-lex visit orders.

    ``points`` are the center's :class:`~repro.core.columns.PointColumns`
    and ``matrix`` their travel matrix.  Prefix arrival times are
    re-chained along each path with the DP's own float operations —
    ``(t + service) + travel`` from the center leg on — so they are the
    floats the DP produced.
    """
    service = points.service
    n_words = max(1, -(-len(points) // 64))
    layers = []
    for rows in paths:
        times = np.empty(rows.shape, dtype=np.float64)
        times[:, 0] = matrix.origin_times[rows[:, 0]]
        for c in range(1, rows.shape[1]):
            ends, steps = rows[:, c - 1], rows[:, c]
            times[:, c] = (times[:, c - 1] + service[ends]) + matrix.times[ends, steps]
        layers.append(
            _make_layer(
                rows, times, _pack(rows, n_words), np.zeros(len(rows), dtype=np.intp)
            )
        )
    return layers


def split_layers(
    layers: Sequence[Layer], n_centers: int
) -> List[List[np.ndarray]]:
    """Each center's visit orders out of a batched DP, one array per layer.

    Per center in batch order, its block of every layer it reaches, in
    path-lex order.  The blocks are copies, so a center's share keeps
    nothing of the batch alive.
    """
    blocks: List[List[np.ndarray]] = [[] for _ in range(n_centers)]
    for layer in layers:
        cuts = np.searchsorted(layer.center, np.arange(n_centers + 1)).tolist()
        for c in range(n_centers):
            a, b = cuts[c], cuts[c + 1]
            if a < b:
                blocks[c].append(layer.paths[a:b].copy())
    return blocks
