"""Vectorized Section-IV validation: every C-VDPS against every worker.

A catalog build validates every C-VDPS against every worker —
``|W| x |C-VDPS|`` checks.  This module lays each center's entries out
once as contiguous arrays (:class:`EntryArrays`) and checks every
(worker, entry-of-its-center) pair of a whole batch of centers in one
flat pass (:func:`validate_all`).  The arrays come straight from the
batched layered DP (:meth:`EntryArrays.from_layers`), packed subset masks
included.  A scan returns each center's owner-major
:class:`~repro.vdps.catalog.StrategyTable` — the kept entries' rows and
payoffs, worker after worker, each in canonical catalog order — and builds
no objects: the catalog (:class:`~repro.vdps.catalog.VDPSCatalog`) builds a
``Route`` and a ``WorkerStrategy`` only for the strategies a solver picks,
through :meth:`EntryArrays.strategy_objects`.

Bit-identity with the per-entry ``validate_entry`` loop holds operation
for operation:

* feasibility is ``(t + offset) <= earliest_expiry`` per visit, exactly
  the comparison :meth:`repro.core.routing.Route.is_valid_with_offset`
  makes (expiries are evaluated once at array-build time; the property is
  deterministic);
* the completion time is ``last_arrival + offset`` — the same single
  addition ``Route.shifted`` performs on the final element, and a
  materialised arrival tuple is ``t_flat[segment] + offset``, the same
  addition on every element;
* the payoff divides the entry's reward — the same Python ``sum`` over the
  points' rewards ``Route.total_reward`` performs — by that completion,
  one IEEE-754 division either way.

So a materialised strategy equals the ``validate_entry`` loop's field for
field.  Workers with an individual speed (``factor != 1``) run that loop
over :attr:`EntryArrays.entries` instead (:func:`validate_tables`): their
routes are re-timed per worker, so their objects pre-fill the table's
object cache.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import Route
from repro.kernels.cvdps import narrow
from repro.vdps.catalog import (
    StrategyTable,
    WorkerStrategy,
    strategy_sort_key,
    validate_entry,
)
from repro.vdps.generator import CVdpsEntry

#: Packed subset words, little-endian like the DP layers' masks.
_WORD = np.dtype("<u8")

#: One worker's validation result: kept entry rows and their payoffs in
#: canonical catalog order, plus the strategy objects when the
#: ``validate_entry`` loop built them (``None`` from the array scan).
Columns = Tuple[np.ndarray, np.ndarray, Optional[List[WorkerStrategy]]]


class EntryArrays:
    """Flattened, index-aligned view of one center's C-VDPS entries.

    Row ``e`` of every per-entry array describes entry ``e``; the per-visit
    arrays concatenate the entries' visits, entry ``e`` owning
    ``seg_start[e] : seg_start[e] + sizes[e]``.  Points are indexed by
    position in :attr:`points`: the center's
    :class:`~repro.core.columns.PointColumns`, sorted by id, which is also
    the bit space of the catalog's conflict index.  A full build lays
    entries out in the canonical ``(size, sorted ids)`` order; a spliced
    table (:meth:`splice`) appends its new entries instead.  No consumer
    depends on the row order: catalogs order strategies by payoff and
    :attr:`ids_rank`.
    """

    def __init__(
        self,
        points,
        sizes: np.ndarray,
        path_flat: np.ndarray,
        t_flat: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        seg_start = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=seg_start[1:])
        self._set_columns(
            points,
            sizes,
            path_flat,
            t_flat,
            rewards,
            _pack_paths(sizes, seg_start, path_flat, len(points)),
            points.deadline[path_flat],
            seg_start,
            t_flat[seg_start + sizes - 1] if sizes.size else t_flat[:0],
            _ids_rank(sizes, seg_start, path_flat),
            np.zeros(sizes.size, dtype=bool),
        )

    def _set_columns(
        self,
        points,
        sizes,
        path_flat,
        t_flat,
        rewards,
        masks,
        expiry_flat,
        seg_start,
        last_time,
        ids_rank,
        built,
    ) -> None:
        #: The center's points, sorted by id (the index space): a
        #: :class:`~repro.core.columns.PointColumns`, whose objects are
        #: built only for the entries materialised.
        self.points = points
        #: ``(E,)`` int64 — points per entry (always >= 1).
        self.sizes = sizes
        #: ``(F,)`` intp — concatenated visit orders.
        self.path_flat = path_flat
        #: ``(F,)`` float64 — concatenated center-relative arrival times.
        self.t_flat = t_flat
        #: ``(E,)`` float64 — each entry's Python-summed total reward.
        self.rewards = rewards
        #: ``(E, n_words)`` little-endian uint64 — each entry's point set,
        #: bit ``i`` for ``points[i]``.
        self.masks = masks
        #: ``(F,)`` float64 — concatenated per-visit earliest task expiries.
        self.expiry_flat = expiry_flat
        #: ``(E,)`` intp — offset of each entry's segment in the flat arrays.
        self.seg_start = seg_start
        #: ``(E,)`` float64 — center-relative completion time (last arrival).
        self.last_time = last_time
        #: ``(E,)`` int64 — rank of ``tuple(sorted(point_ids))`` among all
        #: entries, so the catalog's payoff-tie ordering reduces to an
        #: integer sort key.
        self.ids_rank = ids_rank
        self._sequences: List[Optional[tuple]] = [None] * sizes.size
        self._point_sets: List[Optional[frozenset]] = [None] * sizes.size
        self._built = built
        self._entries: Optional[List[CVdpsEntry]] = None

    @classmethod
    def from_layers(
        cls, layers: Sequence, centers_points: Sequence[Sequence]
    ) -> List["EntryArrays"]:
        """Each subset's canonical state, straight from a batched DP.

        ``layers`` are :func:`repro.kernels.cvdps.compute_layers` output
        over the centers whose :class:`~repro.core.columns.PointColumns`
        ``centers_points`` lists, in batch order.  Returns one table per
        center, each laid out in the canonical ``(size, sorted ids)``
        order.  Every column is computed once for the whole batch and
        sliced per center; the layers' packed subset masks are gathered as
        they are, and each point's reward and earliest expiry come from
        its center's columns.
        """
        n_centers = len(centers_points)
        width = max(map(len, centers_points))
        centers, sizes, paths, times, masks = [], [], [], [], []
        for layer in layers:
            rows = layer.best
            center = layer.center[rows]
            path = layer.paths[rows]
            # (center, sorted ids) order; lexsort's last key is primary.
            keys = narrow(np.sort(path, axis=1), width)
            order = np.lexsort((*keys.T[::-1], narrow(center, n_centers)))
            path = path[order]
            center = center[order]
            centers.append(center)
            paths.append(path.ravel())
            times.append(layer.times[rows[order]].ravel())
            masks.append(layer.masks[rows[order]])
            sizes.append(np.full(rows.size, layer.size, dtype=np.int64))
        center = _concat(centers, np.intp)
        sizes = _concat(sizes, np.int64)
        path_flat = _concat(paths, np.intp)
        t_flat = _concat(times, np.float64)
        masks = (
            np.concatenate(masks)
            if masks
            else np.zeros((0, max(1, -(-width // 64))), dtype=_WORD)
        )
        seg_start = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=seg_start[1:])
        # Each visit's batch-wide point slot.
        slots = np.repeat(center, sizes) * width + path_flat
        reward_of = [0.0] * (n_centers * width)
        deadline_of = np.zeros(n_centers * width, dtype=np.float64)
        for c, points in enumerate(centers_points):
            base = c * width
            reward_of[base : base + len(points)] = points.reward
            deadline_of[base : base + len(points)] = points.deadline
        # sum() accumulates 0 + r0 + r1 + ... exactly as the
        # Route.total_reward property does (compensated on 3.12+).
        slot_list = slots.tolist()
        rewards = np.array(
            [
                sum(map(reward_of.__getitem__, slot_list[a : a + k]))
                for a, k in zip(seg_start.tolist(), sizes.tolist())
            ],
            dtype=np.float64,
        )
        # Layers come size-major; a stable sort by center makes every
        # center's entries one (size, ids)-ordered block.
        perm = np.argsort(center, kind="stable")
        center, sizes, rewards, masks = (
            center[perm], sizes[perm], rewards[perm], masks[perm]
        )
        source = seg_start[perm]
        np.cumsum(sizes[:-1], out=seg_start[1:])
        flat = np.repeat(source - seg_start, sizes) + np.arange(path_flat.size)
        path_flat, t_flat = path_flat[flat], t_flat[flat]
        expiry_flat = deadline_of[np.repeat(center, sizes) * width + path_flat]
        last_time = t_flat[seg_start + sizes - 1] if sizes.size else t_flat[:0]
        ids_rank = _ids_rank(sizes, seg_start, path_flat, center)
        e_cut = np.searchsorted(center, np.arange(n_centers + 1)).tolist()
        f_cut = np.append(seg_start, path_flat.size)[e_cut].tolist()
        tables = []
        for c, points in enumerate(centers_points):
            a, b = e_cut[c], e_cut[c + 1]
            fa, fb = f_cut[c], f_cut[c + 1]
            table = cls.__new__(cls)
            # Copies, not views: a center's table must not keep the whole
            # batch's columns alive.
            table._set_columns(
                points,
                sizes[a:b].copy(),
                path_flat[fa:fb].copy(),
                t_flat[fa:fb].copy(),
                rewards[a:b].copy(),
                masks[a:b, : max(1, -(-len(points) // 64))].copy(),
                expiry_flat[fa:fb].copy(),
                seg_start[a:b] - fa,
                last_time[a:b].copy(),
                ids_rank[a:b] - a,
                np.zeros(b - a, dtype=bool),
            )
            tables.append(table)
        return tables

    @classmethod
    def from_entries(
        cls, entries: Sequence[CVdpsEntry], points
    ) -> "EntryArrays":
        """One pass over ``entries``, laid out over ``points`` (a
        :class:`~repro.core.columns.PointColumns` holding every entry's
        points); safe for an empty list."""
        index = points.position
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
        ends = lens.cumsum()
        # Method calls, not ``np.`` functions: a solve's final picks are a
        # few rows, where numpy's dispatch overhead is most of the cost.
        flat = (self.seg_start[idxs] - (ends - lens)).repeat(lens) + np.arange(
            ends[-1] if ends.size else 0
        )
        return flat, [0, *ends.tolist()]

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

    def strategy_objects(
        self, rows: np.ndarray, payoffs: np.ndarray, offset
    ) -> List[WorkerStrategy]:
        """The strategies of entries ``rows`` for a worker starting ``offset``
        hours out, in one batched pass.

        Each route's arrival times are its entry's ``t_flat`` segment plus
        ``offset`` (the addition ``Route.shifted`` performs), each payoff
        the matching element of ``payoffs``.  ``offset`` is one float for
        every row, or an array with one per row (rows of several workers).
        """
        if not rows.size:
            return []
        flat, bl = self.segments(rows)
        if np.ndim(offset):
            offset = np.repeat(offset, self.sizes[rows])
        vals = (self.t_flat[flat] + offset).tolist()
        sequences, point_sets = self.objects(rows)
        # Objects are assembled through __new__ + object.__setattr__: this
        # is exactly what the frozen-dataclass __init__ does minus the
        # __post_init__ length check, which holds by construction here
        # (sizes IS the sequence length) — the instances are field-for-field
        # identical.
        route_new = Route.__new__
        strategy_new = WorkerStrategy.__new__
        set_field = object.__setattr__
        out = []
        append = out.append
        for seq, pid, p, a, b in zip(
            sequences, point_sets, payoffs.tolist(), bl, bl[1:]
        ):
            route = route_new(Route)
            set_field(route, "sequence", seq)
            set_field(route, "arrival_times", tuple(vals[a:b]))
            strategy = strategy_new(WorkerStrategy)
            set_field(strategy, "point_ids", pid)
            set_field(strategy, "route", route)
            set_field(strategy, "payoff", p)
            append(strategy)
        return out

    @property
    def position(self) -> Dict[str, int]:
        """``{dp_id: index}`` of :attr:`points`."""
        return self.points.position

    def touching(self, point_ids) -> np.ndarray:
        """``(E,)`` bool — entries whose point set meets ``point_ids``."""
        probe = np.zeros(self.masks.shape[1], dtype=_WORD)
        position = self.position
        for dp_id in point_ids:
            i = position.get(dp_id)
            if i is not None:
                probe[i >> 6] |= np.uint64(1 << (i & 63))
        return (self.masks & probe).any(axis=1)

    def splice(
        self,
        keep: np.ndarray,
        added: Optional["EntryArrays"],
        points,
    ) -> Tuple["EntryArrays", np.ndarray]:
        """The table of rows ``keep`` followed by ``added``'s entries.

        ``points`` (:class:`~repro.core.columns.PointColumns`) is the new
        table's index space: it holds
        every kept and added entry's points, and ``added`` (or ``None``)
        is laid out over it.  Returns the new table and the old→new row
        map (``-1`` for dropped rows); ``added``'s row ``k`` becomes row
        ``count_nonzero(keep) + k``.  Kept visits are re-indexed by id.
        Every array is gathered or recomputed; no entry object is built.
        """
        kept = np.flatnonzero(keep)
        flat, _ = self.segments(kept)
        position = points.position
        remap = np.array(
            [position.get(dp_id, -1) for dp_id in self.points.ids], dtype=np.intp
        )
        parts = [
            (
                self.sizes[kept],
                remap[self.path_flat[flat]],
                self.t_flat[flat],
                self.rewards[kept],
                self.expiry_flat[flat],
                self.last_time[kept],
            )
        ]
        if added is not None:
            parts.append(
                (
                    added.sizes,
                    added.path_flat,
                    added.t_flat,
                    added.rewards,
                    added.expiry_flat,
                    added.last_time,
                )
            )
        sizes, path_flat, t_flat, rewards, expiry_flat, last_time = (
            np.concatenate(column) for column in zip(*parts)
        )
        seg_start = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=seg_start[1:])
        spliced = EntryArrays.__new__(EntryArrays)
        spliced._set_columns(
            points,
            sizes,
            path_flat,
            t_flat,
            rewards,
            _pack_paths(sizes, seg_start, path_flat, len(points)),
            expiry_flat,
            seg_start,
            last_time,
            _ids_rank(sizes, seg_start, path_flat),
            np.zeros(sizes.size, dtype=bool),
        )
        old_to_new = np.full(self.n_entries, -1, dtype=np.intp)
        old_to_new[kept] = np.arange(kept.size)
        return spliced, old_to_new


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def _pack_paths(
    sizes: np.ndarray, seg_start: np.ndarray, path_flat: np.ndarray, n_points: int
) -> np.ndarray:
    """``(E, n_words)`` packed point-set masks, one visit column at a time.

    An entry visits each of its points once, so within one column every
    row is set at most once and a fancy-indexed OR is exact.
    """
    masks = np.zeros((sizes.size, max(1, -(-n_points // 64))), dtype=_WORD)
    for k in range(int(sizes.max()) if sizes.size else 0):
        rows = np.flatnonzero(sizes > k)
        bits = path_flat[seg_start[rows] + k]
        masks[rows, bits >> 6] |= np.left_shift(
            np.uint64(1), (bits & 63).astype(np.uint64)
        )
    return masks


def _ids_rank(
    sizes: np.ndarray,
    seg_start: np.ndarray,
    path_flat: np.ndarray,
    center: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rank of each entry's sorted index row, shorter prefixes first.

    Indices follow sorted-id order, so comparing sorted index rows padded
    with ``-1`` is comparing ``tuple(sorted(point_ids))`` tuples.  With a
    ``center`` column (a batch's entries, center-major) the center is the
    primary key, so each center's ranks are one contiguous range.
    """
    n = sizes.size
    rank = np.empty(n, dtype=np.int64)
    if not n:
        return rank
    bound = int(path_flat.max()) + 1
    owner = np.repeat(np.arange(n), sizes)
    pos = np.arange(path_flat.size) - np.repeat(seg_start, sizes)
    # Indices shifted up by one, so the 0 padding sorts first.
    rows = np.zeros((n, int(sizes.max())), dtype=np.min_scalar_type(bound))
    by_index = np.lexsort((narrow(path_flat, bound), narrow(owner, n)))
    rows[owner, pos] = 1 + path_flat[by_index]
    keys = tuple(rows.T[::-1])
    if center is not None:
        keys += (narrow(center, int(center[-1])),)
    rank[np.lexsort(keys)] = np.arange(n)
    return rank


def validate_tables(
    tables: Sequence[EntryArrays],
    scans: Sequence[Sequence[Tuple[object, float, float]]],
    travels: Sequence,
    locations: Sequence,
) -> List[StrategyTable]:
    """Section IV validation of every center's workers against its entries.

    ``scans[c]`` lists ``(worker, offset, factor)`` (see
    :func:`~repro.vdps.catalog.worker_offset_factor`) for each worker
    validated against ``tables[c]``, whose center lies at
    ``locations[c]`` under ``travels[c]``.  Returns, per center, its
    owner-major :class:`~repro.vdps.catalog.StrategyTable`: the workers in
    scan order, each worker's kept rows and payoffs sorted by
    :func:`repro.vdps.catalog.strategy_sort_key` (best payoff first, ties
    by point ids).  Unit-speed workers are answered by one
    :func:`validate_all` pass over the whole batch and build no objects.
    Speed-scaled workers run the ``validate_entry`` loop, whose objects
    pre-fill the table's cache.
    """
    exact = [[factor != 1.0 for _, _, factor in scan] for scan in scans]
    found = validate_all(
        tables,
        [
            [(w.max_delivery_points, o) for (w, o, _), x in zip(scan, flags) if not x]
            for scan, flags in zip(scans, exact)
        ],
    )
    out = []
    for arrays, scan, flags, travel, location, (rows, payoffs, counts) in zip(
        tables, scans, exact, travels, locations, found
    ):
        offsets = [offset for _, offset, _ in scan]
        cuts = [0, *accumulate(counts.tolist())]
        if not any(flags):
            out.append(
                StrategyTable(arrays, rows, payoffs, cuts, np.array(offsets), {})
            )
            continue
        # The validate_entry loop's workers between the array scan's.
        spans = map(slice, cuts, cuts[1:])
        parts = []
        for each, loop in zip(scan, flags):
            if loop:
                parts.append(_scalar_scan(arrays, *each, travel, location))
            else:
                span = next(spans)
                parts.append((rows[span], payoffs[span], None))
        out.append(table_of(arrays, parts, offsets))
    return out


def table_of(
    arrays: EntryArrays, parts: Sequence[Columns], offsets: Sequence[float]
) -> StrategyTable:
    """The :class:`~repro.vdps.catalog.StrategyTable` of per-worker
    ``(rows, payoffs, objects)`` columns, in worker order; ``objects``
    (``None`` or one per row) pre-fill the table's cache."""
    starts = [0, *accumulate(rows.size for rows, _, _ in parts)]
    objects: Dict[int, WorkerStrategy] = {}
    for start, (_, _, objs) in zip(starts, parts):
        if objs is not None:
            objects.update(enumerate(objs, start))
    return StrategyTable(
        arrays,
        _concat([rows for rows, _, _ in parts], np.intp),
        _concat([payoffs for _, payoffs, _ in parts], np.float64),
        starts,
        np.array(offsets, dtype=np.float64),
        objects,
    )


def _scalar_scan(
    arrays: EntryArrays,
    worker,
    offset: float,
    factor: float,
    travel_model,
    center_location,
) -> Columns:
    """The reference ``validate_entry`` loop over one worker, as columns."""
    found = []
    for row, entry in enumerate(arrays.entries):
        strategy = validate_entry(
            entry, worker, offset, factor, travel_model, center_location
        )
        if strategy is not None:
            found.append((strategy_sort_key(strategy), row, strategy))
    found.sort(key=lambda item: item[0])
    objects = [strategy for _, _, strategy in found]
    return (
        np.array([row for _, row, _ in found], dtype=np.intp),
        np.array([s.payoff for s in objects], dtype=np.float64),
        objects,
    )


#: Upper bound on the (worker, visit) cells one :func:`validate_all` pass
#: holds at once; a batch with more is scanned in consecutive runs of
#: workers (a worker with more visits is scanned alone), which bounds
#: peak memory on large centers without changing any result.
_CHUNK_CELLS = 1 << 14


def validate_all(
    tables: Sequence[EntryArrays],
    scans: Sequence[Sequence[Tuple[int, float]]],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The array scan of many centers' unit-speed workers, in one pass.

    ``scans[c]`` lists ``(max_delivery_points, offset)`` of each worker
    validated against ``tables[c]``; the result holds, per center,
    ``(rows, payoffs, counts)``: the kept rows of ``tables[c]`` and their
    payoffs owner-major (worker ``k`` owning the next ``counts[k]``), each
    worker's in canonical catalog order (payoff descending, ties by point
    ids).  Every (worker, entry-of-its-center) pair is checked in one flat
    pass: a visit is on time when ``(t + offset) <= expiry``, a pair when
    all its visits are (one ``reduceat`` over the pair segments), and the
    payoff is ``reward / (last_time + offset)`` — the same IEEE-754
    operations, element for element, as ``validate_entry``.
    """
    worker_centers = [c for c, scan in enumerate(scans) for _ in scan]
    if not worker_centers:
        return [
            (np.empty(0, dtype=np.intp), np.empty(0), np.zeros(0, dtype=np.intp))
            for _ in tables
        ]
    n_entries = np.array([t.n_entries for t in tables], dtype=np.int64)
    n_visits = np.array([t.t_flat.size for t in tables], dtype=np.int64)
    t_flat = np.concatenate([t.t_flat for t in tables])
    expiry_flat = np.concatenate([t.expiry_flat for t in tables])
    sizes = np.concatenate([t.sizes for t in tables])
    last_time = np.concatenate([t.last_time for t in tables])
    rewards = np.concatenate([t.rewards for t in tables])
    seg_start = np.concatenate([t.seg_start for t in tables]) + np.repeat(
        _starts(n_visits), n_entries
    )
    # Offsetting each center's ranks past the previous centers' keeps the
    # per-center order and makes the center the primary key.
    ids_rank = np.concatenate([t.ids_rank for t in tables]) + np.repeat(
        _starts(n_entries), n_entries
    )
    e_start, f_start = _starts(n_entries), _starts(n_visits)
    all_centers = np.array(worker_centers, dtype=np.intp)
    all_max_size = np.array([m for scan in scans for m, _ in scan], dtype=np.int64)
    all_offsets = np.array([o for scan in scans for _, o in scan], dtype=np.float64)
    row_parts, payoff_parts, count_parts = [], [], []
    for lo, hi in _chunks(n_visits[all_centers].tolist()):
        worker_center = all_centers[lo:hi]
        max_size = all_max_size[lo:hi]
        offset = all_offsets[lo:hi]
        n_workers = hi - lo
        # Pair p = (worker pair_worker[p], global entry pair_entry[p]);
        # each worker scans its center's whole visit block.
        pair_count = n_entries[worker_center]
        pair_start = _starts(pair_count)
        n_pairs = int(pair_start[-1] + pair_count[-1])
        visit_count = n_visits[worker_center]
        visit_start = _starts(visit_count)
        n_flat = int(visit_start[-1] + visit_count[-1])
        pair_worker = np.repeat(np.arange(n_workers), pair_count)
        pair_entry = np.repeat(e_start[worker_center] - pair_start, pair_count) + (
            np.arange(n_pairs)
        )
        visit = np.repeat(f_start[worker_center] - visit_start, visit_count) + (
            np.arange(n_flat)
        )
        ok = t_flat[visit] + np.repeat(offset, visit_count) <= expiry_flat[visit]
        segments = seg_start[pair_entry] + np.repeat(
            visit_start - f_start[worker_center], pair_count
        )
        entry_size = sizes[pair_entry]
        seg_ok = np.add.reduceat(ok.astype(np.int64), segments) == entry_size
        completion = last_time[pair_entry] + offset[pair_worker]
        valid = (entry_size <= max_size[pair_worker]) & seg_ok & (completion > 0)
        idxs = np.flatnonzero(valid)
        # Scalar float division overflows to inf silently; match that (the
        # non-finite results are filtered out either way).
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            payoffs = rewards[pair_entry[idxs]] / completion[idxs]
        finite = np.isfinite(payoffs)
        idxs = idxs[finite]
        payoffs = payoffs[finite]
        entries = pair_entry[idxs]
        owners = pair_worker[idxs]
        # Canonical order per worker: payoff descending, ties by point ids
        # ascending.  Negating a float is exact, and ids_rank orders
        # exactly as the id tuples do, so this is strategy_sort_key as a
        # lexsort.
        order = np.lexsort(
            (
                narrow(ids_rank[entries], ids_rank.size),
                -payoffs,
                narrow(owners, n_workers),
            )
        )
        owners = owners[order]
        row_parts.append(entries[order] - e_start[worker_center[owners]])
        payoff_parts.append(payoffs[order])
        count_parts.append(np.bincount(owners, minlength=n_workers))
    rows = np.concatenate(row_parts)
    payoffs = np.concatenate(payoff_parts)
    counts = np.concatenate(count_parts)
    # Workers are center-major, so each center's rows are one block.
    worker_cut = [0, *accumulate(map(len, scans))]
    row_cut = [0, *accumulate(counts.tolist())]
    return [
        (rows[row_cut[a] : row_cut[b]], payoffs[row_cut[a] : row_cut[b]], counts[a:b])
        for a, b in zip(worker_cut, worker_cut[1:])
    ]


def _chunks(cells: List[int]):
    """Consecutive ``(lo, hi)`` ranges of ``cells`` summing to at most
    :data:`_CHUNK_CELLS`, each holding at least one item."""
    ends = list(accumulate(cells))
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, bisect_right(ends, base + _CHUNK_CELLS, lo))
        yield lo, hi
        lo = hi


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each of ``counts``' blocks starts."""
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts
