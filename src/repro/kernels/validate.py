"""Vectorized Section-IV validation: every C-VDPS against every worker.

A catalog build validates every C-VDPS against every worker —
``|W| x |C-VDPS|`` checks.  This module lays each center's entries out
once as contiguous arrays (:class:`EntryArrays`) and checks every
(worker, entry-of-its-center) pair of a whole batch of centers in one
flat pass (:func:`validate_all`).  The arrays come straight from the
batched layered DP (:meth:`EntryArrays.from_layers`), packed subset masks
included.  A scan returns columns — the kept entries' rows and payoffs in
canonical catalog order — and builds no objects: the catalog
(:class:`~repro.vdps.catalog.VDPSCatalog`) builds a ``Route`` and a
``WorkerStrategy`` only for the strategies a solver picks, through
:meth:`EntryArrays.strategy_objects`.

Bit-identity with the scalar scan holds operation for operation:

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

So a materialised strategy equals the scalar path's field for field.
Workers with an individual speed (``factor != 1``), ``strict_revalidation``
builds and the ``scalar`` tier run the scalar ``validate_entry`` loop over
:attr:`EntryArrays.entries` instead (:func:`validate_tables`); those paths
re-route per worker, so they return their objects along with the columns.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import Route
from repro.vdps.catalog import WorkerStrategy, strategy_sort_key, validate_entry
from repro.vdps.generator import CVdpsEntry

#: Packed subset words, little-endian like the DP layers' masks.
_WORD = np.dtype("<u8")

#: One worker's validation result: kept entry rows and their payoffs in
#: canonical catalog order, plus the strategy objects when the scalar loop
#: built them (``None`` from the array scan).
Columns = Tuple[np.ndarray, np.ndarray, Optional[List[WorkerStrategy]]]


class EntryArrays:
    """Flattened, index-aligned view of one center's C-VDPS entries.

    Row ``e`` of every per-entry array describes entry ``e``; the per-visit
    arrays concatenate the entries' visits, entry ``e`` owning
    ``seg_start[e] : seg_start[e] + sizes[e]``.  Points are indexed by
    position in :attr:`points`, which is sorted by id.  A full build lays
    entries out in the canonical ``(size, sorted ids)`` order; a spliced
    table (:meth:`splice`) appends its new entries instead.  No consumer
    depends on the row order: catalogs order strategies by payoff and
    :attr:`ids_rank`.
    """

    def __init__(
        self,
        points: Sequence,
        sizes: np.ndarray,
        path_flat: np.ndarray,
        t_flat: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        seg_start = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=seg_start[1:])
        deadline = np.array([dp.earliest_expiry for dp in points], dtype=np.float64)
        self._set_columns(
            points,
            sizes,
            path_flat,
            t_flat,
            rewards,
            _pack_paths(sizes, seg_start, path_flat, len(points)),
            deadline[path_flat],
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

    def __reduce__(self):
        # Only the raw columns travel: masks, ranks and the object caches
        # are derived from them on load.
        return (
            EntryArrays,
            (self.points, self.sizes, self.path_flat, self.t_flat, self.rewards),
        )

    @classmethod
    def from_layers(
        cls, layers: Sequence, centers_points: Sequence[Sequence]
    ) -> List["EntryArrays"]:
        """Each subset's canonical state, straight from a batched DP.

        ``layers`` are :func:`repro.kernels.cvdps.compute_layers` output
        over the centers whose points (sorted by id) ``centers_points``
        lists, in batch order.  Returns one table per center, each laid
        out in the canonical ``(size, sorted ids)`` order.  Every column is
        computed once for the whole batch and sliced per center; the
        layers' packed subset masks are gathered as they are.
        """
        n_centers = len(centers_points)
        width = max(map(len, centers_points))
        reward_of: List[float] = []
        deadline_of: List[float] = []
        for points in centers_points:
            reward_of.extend([dp.total_reward for dp in points])
            deadline_of.extend([dp.earliest_expiry for dp in points])
            reward_of.extend([0.0] * (width - len(points)))
            deadline_of.extend([0.0] * (width - len(points)))
        centers, sizes, paths, times, masks, rewards = [], [], [], [], [], []
        for layer in layers:
            rows = layer.best
            center = layer.center[rows]
            path = layer.paths[rows]
            # (center, sorted ids) order; lexsort's last key is primary.
            order = np.lexsort(np.vstack((np.sort(path, axis=1).T[::-1], center)))
            path = path[order]
            center = center[order]
            centers.append(center)
            paths.append(path.ravel())
            times.append(layer.times[rows[order]].ravel())
            masks.append(layer.masks[rows[order]])
            sizes.append(np.full(rows.size, layer.size, dtype=np.int64))
            # sum() accumulates 0 + r0 + r1 + ... exactly as the
            # Route.total_reward property does (compensated on 3.12+).
            rewards.extend(
                sum(map(reward_of.__getitem__, row))
                for row in (path + (center * width)[:, None]).tolist()
            )
        center = _concat(centers, np.intp)
        sizes = _concat(sizes, np.int64)
        path_flat = _concat(paths, np.intp)
        t_flat = _concat(times, np.float64)
        rewards = np.asarray(rewards, dtype=np.float64)
        masks = (
            np.concatenate(masks)
            if masks
            else np.zeros((0, max(1, -(-width // 64))), dtype=_WORD)
        )
        seg_start = np.zeros(sizes.size, dtype=np.intp)
        np.cumsum(sizes[:-1], out=seg_start[1:])
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
        visit_center = np.repeat(center, sizes)
        expiry_flat = np.array(deadline_of, dtype=np.float64)[
            visit_center * width + path_flat
        ]
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

    def strategy_objects(
        self, rows: np.ndarray, payoffs: np.ndarray, offset: float
    ) -> List[WorkerStrategy]:
        """The strategies of entries ``rows`` for a worker starting ``offset``
        hours out, in one batched pass.

        Each route's arrival times are its entry's ``t_flat`` segment plus
        ``offset`` (the addition ``Route.shifted`` performs), each payoff
        the matching element of ``payoffs``.
        """
        if not rows.size:
            return []
        flat, bl = self.segments(rows)
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

    def touching(self, point_ids) -> np.ndarray:
        """``(E,)`` bool — entries whose point set meets ``point_ids``."""
        probe = np.zeros(self.masks.shape[1], dtype=_WORD)
        for i, dp in enumerate(self.points):
            if dp.dp_id in point_ids:
                probe[i >> 6] |= np.uint64(1 << (i & 63))
        return (self.masks & probe).any(axis=1)

    def splice(
        self, keep: np.ndarray, added: Optional["EntryArrays"]
    ) -> Tuple["EntryArrays", np.ndarray]:
        """The table of rows ``keep`` followed by ``added``'s entries.

        Returns the new table and the old→new row map (``-1`` for dropped
        rows); ``added``'s row ``k`` becomes row ``count_nonzero(keep) + k``.
        The point index space is rebuilt from the surviving and added
        entries' points, sorted by id (``added``'s objects win on a shared
        id).  Every array is gathered or recomputed; no entry object is
        built.
        """
        kept = np.flatnonzero(keep)
        flat, _ = self.segments(kept)
        path = self.path_flat[flat]
        by_id = {
            self.points[i].dp_id: self.points[i] for i in np.unique(path).tolist()
        }
        if added is not None:
            by_id.update((dp.dp_id, dp) for dp in added.points)
        ids = sorted(by_id)
        position = {dp_id: k for k, dp_id in enumerate(ids)}

        def remap(points) -> np.ndarray:
            return np.array(
                [position.get(dp.dp_id, -1) for dp in points], dtype=np.intp
            )

        sizes, paths = [self.sizes[kept]], [remap(self.points)[path]]
        times, rewards = [self.t_flat[flat]], [self.rewards[kept]]
        if added is not None:
            sizes.append(added.sizes)
            paths.append(remap(added.points)[added.path_flat])
            times.append(added.t_flat)
            rewards.append(added.rewards)
        old_to_new = np.full(self.n_entries, -1, dtype=np.intp)
        old_to_new[kept] = np.arange(kept.size)
        spliced = EntryArrays(
            [by_id[dp_id] for dp_id in ids],
            _concat(sizes, np.int64),
            _concat(paths, np.intp),
            _concat(times, np.float64),
            _concat(rewards, np.float64),
        )
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
    owner = np.repeat(np.arange(n), sizes)
    pos = np.arange(path_flat.size) - np.repeat(seg_start, sizes)
    rows = np.full((n, int(sizes.max())), -1, dtype=np.intp)
    rows[owner, pos] = path_flat[np.lexsort((path_flat, owner))]
    keys = rows.T[::-1]
    if center is not None:
        keys = np.vstack((keys, center))
    rank[np.lexsort(keys)] = np.arange(n)
    return rank


def validate_tables(
    tables: Sequence[EntryArrays],
    scans: Sequence[Sequence[Tuple[object, float, float]]],
    travels: Sequence,
    locations: Sequence,
    strict_revalidation: bool,
    scalar: Sequence[bool],
) -> List[List[Columns]]:
    """Section IV validation of every center's workers against its entries.

    ``scans[c]`` lists ``(worker, offset, factor)`` (see
    :func:`~repro.vdps.catalog.worker_offset_factor`) for each worker
    validated against ``tables[c]``, whose center lies at
    ``locations[c]`` under ``travels[c]``.  Returns, per center and per
    worker in that order, the worker's columns: kept rows and payoffs
    sorted by :func:`repro.vdps.catalog.strategy_sort_key` (best payoff
    first, ties by point ids).  Unit-speed workers of array tables
    (``scalar[c]`` false, no strict revalidation) are answered by one
    :func:`validate_all` pass over the whole batch and build no objects.
    The ``scalar`` tier, speed-scaled workers and strict revalidation run
    the reference ``validate_entry`` loop and return its objects too.
    """
    out: List[List[Optional[Columns]]] = []
    pending: List[List[Tuple[int, float]]] = []
    for table, scan, travel, location, exact in zip(
        tables, scans, travels, locations, scalar
    ):
        columns: List[Optional[Columns]] = []
        array_scan: List[Tuple[int, float]] = []
        for worker, offset, factor in scan:
            if exact or factor != 1.0 or strict_revalidation:
                columns.append(
                    _scalar_scan(
                        table,
                        worker,
                        offset,
                        factor,
                        travel,
                        location,
                        strict_revalidation,
                    )
                )
            else:
                columns.append(None)
                array_scan.append((worker.max_delivery_points, offset))
        out.append(columns)
        pending.append(array_scan)
    for columns, found in zip(out, validate_all(tables, pending)):
        found = iter(found)
        for k, column in enumerate(columns):
            if column is None:
                columns[k] = (*next(found), None)
    return out


def _scalar_scan(
    arrays: EntryArrays,
    worker,
    offset: float,
    factor: float,
    travel_model,
    center_location,
    strict_revalidation: bool,
) -> Columns:
    """The reference ``validate_entry`` loop over one worker, as columns."""
    found = []
    for row, entry in enumerate(arrays.entries):
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
) -> List[List[Tuple[np.ndarray, np.ndarray]]]:
    """The array scan of many centers' unit-speed workers, in one pass.

    ``scans[c]`` lists ``(max_delivery_points, offset)`` of each worker
    validated against ``tables[c]``; the result holds, per center and per
    worker in that order, the kept rows of ``tables[c]`` and their
    payoffs in canonical catalog order (payoff descending, ties by point
    ids).  Every (worker, entry-of-its-center) pair is checked in one flat
    pass: a visit is on time when ``(t + offset) <= expiry``, a pair when
    all its visits are (one ``reduceat`` over the pair segments), and the
    payoff is ``reward / (last_time + offset)`` — the same IEEE-754
    operations, element for element, as the scalar ``validate_entry``.
    """
    out: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in tables]
    worker_centers = [c for c, scan in enumerate(scans) for _ in scan]
    if not worker_centers:
        return out
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
    found: List[Tuple[np.ndarray, np.ndarray]] = []
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
        order = np.lexsort((ids_rank[entries], -payoffs, owners))
        owners = owners[order]
        rows = entries[order] - e_start[worker_center[owners]]
        payoffs = payoffs[order]
        cuts = np.searchsorted(owners, np.arange(n_workers + 1)).tolist()
        for k in range(n_workers):
            found.append((rows[cuts[k] : cuts[k + 1]], payoffs[cuts[k] : cuts[k + 1]]))
    for c, columns in zip(worker_centers, found):
        out[c].append(columns)
    return out


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
