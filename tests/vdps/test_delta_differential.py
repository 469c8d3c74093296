"""Seeded delta-vs-rebuild differential traces, including the degraded paths.

The Hypothesis machine (``tests/properties/test_catalog_delta.py``) covers
the broad churn space; this suite pins the corner cases a random walk may
miss — an empty center, a center draining to zero tasks and refilling, the
deadline-rejection boundary, a task id returning with a different deadline
— plus the non-surgery paths (rebuild fallback, structural fallback, cap
growth from zero).  Every correctness assertion is the same one:
:func:`catalog_diff` between the maintained catalog and a from-scratch
``build_catalog`` is empty.
"""

import math
import random

import pytest

from repro import oracle
from repro.core.entities import DeliveryPoint, DistributionCenter, SpatialTask, Worker
from repro.core.instance import SubProblem
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.kernels.cvdps import LayoutMatrix
from repro.obs.metrics import METRICS
from repro.vdps.catalog import build_catalog
from repro.vdps.delta import DeltaCatalog, catalog_diff

TRAVEL = TravelModel(speed_kmh=1.0)


def _dp(dp_id, x, y, *expiries, service=0.0):
    tasks = tuple(
        SpatialTask(f"{dp_id}_t{i}", dp_id, e) for i, e in enumerate(expiries)
    )
    return DeliveryPoint(dp_id, Point(x, y), tasks, service)


def _worker(wid, x, y, cap=3):
    return Worker(wid, Point(x, y), max_delivery_points=cap, center_id="dc")


def _sub(points, workers, travel=TRAVEL):
    center = DistributionCenter("dc", Point(0.0, 0.0), tuple(points))
    return SubProblem(center, tuple(workers), travel)


def _assert_equal(delta, sub, epsilon):
    refreshed = delta.refresh(sub)
    rebuilt = build_catalog(sub, epsilon=epsilon)
    diffs = catalog_diff(refreshed, rebuilt)
    assert not diffs, "; ".join(diffs)
    return refreshed


def _churn_script(sub, seed):
    """Four chained single-point churn steps over ``sub``'s center.

    One seeded delivery point changes per step, the live service's common
    case: a task arrives at it, its first deadline moves, that task
    leaves, and the same task id returns with a later deadline.  Each
    yielded sub-problem carries all the churn before it.
    """
    rng = random.Random(seed)
    points = {dp.dp_id: dp for dp in sub.center.delivery_points}

    def emit():
        center = DistributionCenter(
            sub.center.center_id, sub.center.location, tuple(points.values())
        )
        return SubProblem(center, sub.workers, sub.travel)

    target = rng.choice(sorted(p for p, dp in points.items() if dp.tasks))

    dp = points[target]
    arrival = SpatialTask("churn_arrival", target, 1.5 + rng.random())
    points[target] = dp.with_tasks(dp.tasks + (arrival,))
    yield emit()

    dp = points[target]
    first = dp.tasks[0]
    moved = SpatialTask(first.task_id, target, first.expiry * 0.5, first.reward)
    points[target] = dp.with_tasks((moved,) + dp.tasks[1:])
    yield emit()

    dp = points[target]
    departed = dp.tasks[0]
    points[target] = dp.with_tasks(dp.tasks[1:])
    yield emit()

    dp = points[target]
    returned = SpatialTask(
        departed.task_id, target, departed.expiry + 0.75, departed.reward
    )
    points[target] = dp.with_tasks(dp.tasks + (returned,))
    yield emit()


class TestDegradedTraces:
    """The ISSUE's named corner cases, each asserted against the oracle."""

    def test_empty_center(self):
        workers = [_worker("w0", 0.1, 0.1)]
        delta = DeltaCatalog(_sub([], workers), rebuild_fraction=10.0)
        assert delta.catalog.cvdps_count == 0
        # Growing from empty and shrinking back are both delta-served.
        _assert_equal(delta, _sub([_dp("a", 1.0, 0.0, 5.0)], workers), None)
        _assert_equal(delta, _sub([], workers), None)

    def test_center_drains_to_zero_tasks_and_refills(self):
        workers = [_worker("w0", 0.0, 0.0), _worker("w1", 0.5, 0.5, cap=2)]
        full = [_dp("a", 1.0, 0.0, 5.0), _dp("b", 0.0, 1.0, 6.0, 7.0)]
        delta = DeltaCatalog(_sub(full, workers), rebuild_fraction=10.0)
        # Tasks drain point by point; the points stay with empty queues.
        drained = [_dp("a", 1.0, 0.0), _dp("b", 0.0, 1.0, 6.0, 7.0)]
        _assert_equal(delta, _sub(drained, workers), None)
        empty = [_dp("a", 1.0, 0.0), _dp("b", 0.0, 1.0)]
        catalog = _assert_equal(delta, _sub(empty, workers), None)
        # Empty-queue points still form valid (zero-reward) VDPSs — the
        # maintained catalog must agree with the rebuild on that too.
        assert all(
            s.payoff == 0.0
            for w in catalog.workers
            for s in catalog.strategies(w.worker_id)
        )
        _assert_equal(delta, _sub(full, workers), None)

    def test_deadline_rejection_boundary(self):
        """A deadline tighter than the travel time prunes states, exactly
        like the full build, and the rejection is counted."""
        workers = [_worker("w0", 0.0, 0.0)]
        # 2 km at 1 km/h: reachable at t=2.0 only if the deadline allows.
        reachable = [_dp("far", 2.0, 0.0, 2.0)]
        delta = DeltaCatalog(_sub(reachable, workers), rebuild_fraction=10.0)
        assert delta.catalog.cvdps_count == 1
        before = METRICS.counter("cvdps.deadline_rejections").value
        too_tight = [_dp("far", 2.0, 0.0, 1.999)]
        catalog = _assert_equal(delta, _sub(too_tight, workers), None)
        assert catalog.cvdps_count == 0
        assert METRICS.counter("cvdps.deadline_rejections").value > before
        # Back across the boundary: exactly reachable again.
        _assert_equal(delta, _sub(reachable, workers), None)

    def test_points_no_entry_uses_leave_and_arrive(self):
        # "z" and "0" lie too far out for their deadlines, so no C-VDPS
        # holds either.  Removing "z" (or adding "0") drops and adds no
        # entry, yet the index's bit space, the center's points, changes:
        # the entry table must be re-laid over the new points.
        workers = [_worker("w0", 0.0, 0.0, cap=1)]
        near = _dp("a", 1.0, 0.0, 5.0)
        delta = DeltaCatalog(
            _sub([near, _dp("z", 9.0, 0.0, 1.0)], workers), rebuild_fraction=10.0
        )
        assert delta.catalog.cvdps_count == 1
        for points, bits in (
            ([near], {"a": 0}),
            ([_dp("0", -9.0, 0.0, 1.0), near], {"0": 0, "a": 1}),
        ):
            sub = _sub(points, workers)
            refreshed = delta.refresh(sub)
            assert delta._last_path == "delta"
            diffs = catalog_diff(refreshed, build_catalog(sub), check_index=True)
            assert not diffs, "; ".join(diffs)
            assert refreshed.index.point_bits == bits

    def test_task_returns_same_id_changed_deadline(self):
        # The chained churn script on the largest center of a 30-point
        # gMission-like city ends the same way, at the default rebuild
        # fraction.
        instance = generate_gmission_like(
            GMissionConfig(n_tasks=60, n_workers=14, n_delivery_points=30),
            seed=0,
        )
        city = max(
            instance.subproblems(), key=lambda s: len(s.center.delivery_points)
        )
        delta = DeltaCatalog(city, epsilon=0.8)
        # The work each step adds to the counters, pinned: the delta path
        # expands, tries, rejects, validates, adds and drops exactly this.
        names = (
            "cvdps.states_expanded",
            "cvdps.candidates_tried",
            "cvdps.deadline_rejections",
            "catalog.strategies_built",
            "catalog.delta_entries_added",
            "catalog.delta_entries_removed",
        )
        expected = [
            (0, 0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (1, 0, 0, 14, 1, 0),
            (1, 0, 0, 0, 1, 1),
        ]
        for churned, work in zip(_churn_script(city, seed=0), expected):
            before = [METRICS.counter(name).value for name in names]
            refreshed = delta.refresh(churned)
            done = [METRICS.counter(name).value - b for name, b in zip(names, before)]
            assert delta._last_path == "delta"
            assert tuple(done) == work
            diffs = catalog_diff(refreshed, build_catalog(churned, epsilon=0.8))
            assert not diffs, "; ".join(diffs)

        workers = [_worker("w0", 0.0, 0.0)]
        original = [_dp("a", 1.0, 0.0, 4.0), _dp("b", 0.0, 1.5, 5.0)]
        delta = DeltaCatalog(_sub(original, workers), rebuild_fraction=10.0)
        gone = [_dp("b", 0.0, 1.5, 5.0)]
        _assert_equal(delta, _sub(gone, workers), None)
        # Same dp id and task id, different deadline: a changed point, not
        # a stale-cache hit.
        returned = [_dp("a", 1.0, 0.0, 9.0), _dp("b", 0.0, 1.5, 5.0)]
        catalog = _assert_equal(delta, _sub(returned, workers), None)
        strategies = catalog.strategies("w0")
        assert any("a" in s.point_ids for s in strategies)


class TestFallbacks:
    """Rebuild fallbacks must produce the same output as the delta path."""

    def test_rebuild_fraction_zero_always_falls_back(self):
        workers = [_worker("w0", 0.0, 0.0)]
        points = [_dp("a", 1.0, 0.0, 5.0), _dp("b", 0.0, 1.0, 5.0)]
        delta = DeltaCatalog(_sub(points, workers), rebuild_fraction=0.0)
        before = METRICS.counter("catalog.delta_fallbacks").value
        churned = points + [_dp("c", 0.5, 0.5, 4.0)]
        _assert_equal(delta, _sub(churned, workers), None)
        assert METRICS.counter("catalog.delta_fallbacks").value == before + 1

    def test_structural_change_falls_back(self):
        workers = [_worker("w0", 0.0, 0.0)]
        points = [_dp("a", 1.0, 0.0, 5.0)]
        delta = DeltaCatalog(_sub(points, workers), rebuild_fraction=10.0)
        before = METRICS.counter("catalog.delta_fallbacks").value
        # A different travel speed rewrites every arrival time: no delta
        # can express it, so the refresh must rebuild — and still match.
        faster = TravelModel(speed_kmh=2.0)
        sub = _sub(points, workers, travel=faster)
        refreshed = delta.refresh(sub)
        assert METRICS.counter("catalog.delta_fallbacks").value == before + 1
        assert not catalog_diff(refreshed, build_catalog(sub))

    def test_cap_growth_from_zero_falls_back(self):
        points = [_dp("a", 1.0, 0.0, 5.0), _dp("b", 0.0, 1.0, 5.0)]
        delta = DeltaCatalog(_sub(points, []), rebuild_fraction=10.0)
        assert delta.cap_built == 0
        workers = [_worker("w0", 0.0, 0.0, cap=2)]
        _assert_equal(delta, _sub(points, workers), None)
        assert delta.cap_built == 2

    def test_cap_growth_and_shrink(self):
        points = [
            _dp("a", 1.0, 0.0, 8.0),
            _dp("b", 0.0, 1.0, 8.0),
            _dp("c", 1.0, 1.0, 8.0),
        ]
        workers = [_worker("w0", 0.0, 0.0, cap=1)]
        delta = DeltaCatalog(_sub(points, workers), rebuild_fraction=10.0)
        grown = [_worker("w0", 0.0, 0.0, cap=3)]
        _assert_equal(delta, _sub(points, grown), None)
        shrunk = [_worker("w0", 0.0, 0.0, cap=2)]
        catalog = _assert_equal(delta, _sub(points, shrunk), None)
        assert all(len(s.point_ids) <= 2 for s in catalog.strategies("w0"))

    def test_first_delta_after_a_rebuild_reads_one_matrix(self, monkeypatch):
        # The first delta after a rebuild re-times the DP layers over the
        # center's travel matrix; when the churn is new tasks at the same
        # points, the splice reuses that matrix instead of asking again.
        workers = [_worker("w0", 0.0, 0.0), _worker("w1", 0.5, 0.0, cap=2)]
        points = [
            _dp("a", 1.0, 0.0, 5.0),
            _dp("b", 0.0, 1.0, 5.0),
            _dp("c", 1.0, 1.0, 6.0),
        ]
        asked = []
        matrix = LayoutMatrix.matrix

        def counting(self, ids, *args):
            asked.append(list(ids))
            return matrix(self, ids, *args)

        monkeypatch.setattr(LayoutMatrix, "matrix", counting)
        for churned, want in (
            ([points[0], _dp("b", 0.0, 1.0, 5.0, 4.5), points[2]], 1),
            (points + [_dp("d", 0.5, 0.5, 4.0)], 2),
        ):
            delta = DeltaCatalog(_sub(points, workers), rebuild_fraction=10.0)
            asked.clear()
            _assert_equal(delta, _sub(churned, workers), None)
            assert delta._last_path == "delta"
            assert len(asked) == want

    def test_noop_refresh_returns_same_catalog(self):
        points = [_dp("a", 1.0, 0.0, 5.0)]
        workers = [_worker("w0", 0.0, 0.0)]
        delta = DeltaCatalog(_sub(points, workers), rebuild_fraction=10.0)
        first = delta.catalog
        before = METRICS.counter("catalog.delta_noops").value
        assert delta.refresh(_sub(points, workers)) is first
        assert METRICS.counter("catalog.delta_noops").value == before + 1


class TestRandomTraces:
    """Longer seeded walks, every refresh checked against a rebuild."""

    @pytest.mark.parametrize("reference", ["scalar", "vectorized"])
    def test_scalar_path_columns_survive_churn(self, reference):
        # A speed-scaled worker is validated by the validate_entry loop;
        # its column carries that loop's objects through the row remap and
        # the merge of every refresh.  Each step is checked against the
        # oracle's rebuild (scalar) or production's (vectorized).
        rebuild = REBUILDS[reference]
        rng = random.Random(5)
        points = {
            f"p{i}": _dp(
                f"p{i}", rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 6)
            )
            for i in range(6)
        }
        workers = [
            _worker("w0", 0.2, -0.1),
            Worker("slow", Point(-0.4, 0.3), 3, "dc", speed_kmh=0.6),
            _worker("w2", 0.5, 0.5, cap=2),
        ]
        delta = DeltaCatalog(
            _sub(points.values(), workers), epsilon=2.5, rebuild_fraction=10.0
        )
        for step in range(12):
            victim = rng.choice(sorted(points))
            if step % 3 == 0:
                del points[victim]
            else:
                old = points[victim]
                points[victim] = _dp(
                    victim, old.location.x, old.location.y, rng.uniform(1, 6)
                )
            dp_id = f"q{step}"
            points[dp_id] = _dp(
                dp_id, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 6)
            )
            sub = _sub(points.values(), workers)
            refreshed = delta.refresh(sub)
            assert delta._last_path == "delta"
            rebuilt = rebuild(sub, epsilon=2.5)
            diffs = catalog_diff(refreshed, rebuilt)
            assert not diffs, "; ".join(diffs)
            assert refreshed.has_strategies("slow")

    @pytest.mark.parametrize(
        "seed, n_points, side",
        [pytest.param(seed, 5, 2.0, id=str(seed)) for seed in (0, 1, 7, 13)]
        # A center past one 64-bit mask word, with scripted steps: points
        # whose ids sort first and mid-center (every later index shifts),
        # a cap increase, and a deadline that rejects its own singleton.
        + [pytest.param(3, 72, 8.0, id="wide")],
    )
    def test_seeded_churn_walk(self, seed, n_points, side):
        for reference in ("scalar", "vectorized"):
            _churn_walk(seed, n_points, side, reference)


#: The rebuild each reference arm compares a refresh with.
REBUILDS = {"scalar": oracle.build_catalog, "vectorized": build_catalog}


def _churn_walk(seed, n_points, side, reference):
    """A seeded churn walk whose every refresh equals a rebuild: the
    oracle's (``scalar``) or production's (``vectorized``)."""
    rng = random.Random(seed)
    points = {
        f"p{i}": _dp(f"p{i}", rng.uniform(-side, side), rng.uniform(-side, side), 6.0)
        for i in range(n_points)
    }
    workers = {
        f"w{j}": _worker(f"w{j}", rng.uniform(-1, 1), rng.uniform(-1, 1),
                         cap=rng.choice([1, 2, 3]))
        for j in range(3)
    }
    next_id = [n_points]

    def add_first():
        points["a0"] = _dp("a0", 0.5, -0.5, 7.0)

    def add_middle():
        middle = sorted(points)[len(points) // 2]
        points[middle + "x"] = _dp(middle + "x", -0.5, 0.5, 7.0)

    def raise_cap():
        workers["w0"] = _worker("w0", 0.0, 0.0, cap=4)

    def reject_own_singleton():
        dp_id = sorted(points)[len(points) // 3]
        old = points[dp_id]
        # The center leg takes hypot(x, y) hours at 1 km/h.
        reach = math.hypot(old.location.x, old.location.y)
        points[dp_id] = _dp(dp_id, old.location.x, old.location.y, 0.5 * reach)

    script = (
        {}
        if n_points <= 64
        else {3: add_first, 6: add_middle, 9: raise_cap, 12: reject_own_singleton}
    )
    delta = DeltaCatalog(
        _sub(points.values(), workers.values()), epsilon=2.0, rebuild_fraction=10.0
    )

    def refresh():
        sub = _sub(points.values(), workers.values())
        refreshed = delta.refresh(sub)
        diffs = catalog_diff(refreshed, REBUILDS[reference](sub, epsilon=2.0))
        assert not diffs, "; ".join(diffs)

    for step in range(25):
        if step in script:
            script[step]()
            refresh()
            assert delta._last_path == "delta"
            continue
        op = rng.choice(["add", "remove", "change", "worker"])
        if op == "add":
            dp_id = f"p{next_id[0]}"
            next_id[0] += 1
            points[dp_id] = _dp(
                dp_id, rng.uniform(-side, side), rng.uniform(-side, side),
                rng.uniform(0.5, 8.0),
            )
        elif op == "remove" and points:
            del points[rng.choice(sorted(points))]
        elif op == "change" and points:
            dp_id = rng.choice(sorted(points))
            old = points[dp_id]
            points[dp_id] = _dp(
                dp_id, old.location.x, old.location.y, rng.uniform(0.5, 8.0)
            )
        elif op == "worker":
            wid = rng.choice(sorted(workers))
            workers[wid] = _worker(
                wid, rng.uniform(-1, 1), rng.uniform(-1, 1),
                cap=rng.choice([1, 2, 3, 4]),
            )
        refresh()


class TestMergeByPosition:
    """A refresh places each kept worker's added rows among its surviving
    rows by position.  Points one unit from the center (where the workers
    stand) give singletons exactly equal payoffs, so ids_rank alone orders
    a tie group and an added point can land before, between or after the
    old rows of its group; nearer and farther points land ahead of and
    behind the whole group."""

    @staticmethod
    def _ring(*names, radius=1.0):
        """Points on the axes at ``radius``: exact, equal travel times."""
        spots = [(radius, 0.0), (0.0, radius), (-radius, 0.0), (0.0, -radius)]
        return [
            _dp(name, *spots[k % 4], 50.0) for k, name in enumerate(names)
        ]

    @staticmethod
    def _order(catalog, wid):
        return [tuple(sorted(s.point_ids)) for s in catalog.strategies(wid)]

    def _refresh(self, delta, sub, epsilon=None):
        refreshed = delta.refresh(sub)
        assert delta._last_path == "delta"
        rebuilt = build_catalog(sub, epsilon=epsilon)
        diffs = catalog_diff(refreshed, rebuilt)
        assert not diffs, "; ".join(diffs)
        return refreshed

    @pytest.mark.parametrize("cap", [1, 3])
    def test_added_rows_land_before_between_and_after(self, cap):
        workers = [_worker("w0", 0.0, 0.0, cap=cap), _worker("w1", 0.0, 0.0, cap=1)]
        old = self._ring("b", "d") + [_dp("far", 2.0, 0.0, 50.0)]
        delta = DeltaCatalog(_sub(old, workers), rebuild_fraction=10.0)
        added = self._ring("a", "c", "e") + [
            _dp("near", 0.5, 0.0, 50.0),
            _dp("zfar", 0.0, -3.0, 50.0),
        ]
        refreshed = self._refresh(delta, _sub(old + added, workers))
        assert self._order(refreshed, "w1") == [
            ("near",), ("a",), ("b",), ("c",), ("d",), ("e",), ("far",), ("zfar",)
        ]

    def test_ties_broken_by_ids_rank_across_sizes(self):
        # With cap 2 the ring's pairs form tie groups too; in every group
        # the added rows interleave with the survivors by sorted point ids
        # (the rebuild comparison checks each position).
        workers = [_worker("w0", 0.0, 0.0, cap=2)]
        old = self._ring("b", "d", "f", "h")
        delta = DeltaCatalog(_sub(old, workers), rebuild_fraction=10.0)
        refreshed = self._refresh(delta, _sub(old + self._ring("a", "c", "e"), workers))
        order = self._order(refreshed, "w0")
        assert order.index(("a",)) < order.index(("b",)) < order.index(("c",))

    def test_kept_worker_whose_old_rows_all_drop(self):
        # Every old point goes at once, new points arrive: each kept
        # worker's column is its added rows alone.  Then the new points go
        # with nothing added: the columns empty out.
        workers = [_worker("w0", 0.0, 0.0, cap=2), _worker("w1", 0.3, 0.0, cap=1)]
        old = self._ring("b", "d")
        delta = DeltaCatalog(_sub(old, workers), rebuild_fraction=10.0)
        fresh = self._ring("a", "c", "e")
        refreshed = self._refresh(delta, _sub(fresh, workers))
        assert self._order(refreshed, "w1")[0] == ("a",)
        refreshed = self._refresh(delta, _sub([], workers))
        assert not self._order(refreshed, "w0")

    def test_one_worker_drops_everything_the_others_keep(self):
        # w1 starts a unit from the center, so "x" is the only point it
        # reaches in time.  "x" goes and "y" arrives: w1's merged column is
        # empty, between w0's and w2's, which each keep "w" and gain "y".
        workers = [
            _worker("w0", 0.0, 0.0, cap=2),
            _worker("w1", 0.0, -1.0, cap=1),
            _worker("w2", 0.0, 0.0, cap=1),
        ]
        old = [_dp("w", 0.0, 3.0, 3.5), _dp("x", 1.0, 0.0, 2.5)]
        delta = DeltaCatalog(_sub(old, workers), rebuild_fraction=10.0)
        assert self._order(delta.catalog, "w1") == [("x",)]
        new = [_dp("w", 0.0, 3.0, 3.5), _dp("y", -2.0, 0.0, 2.5)]
        refreshed = self._refresh(delta, _sub(new, workers))
        assert self._order(refreshed, "w1") == []
        assert self._order(refreshed, "w2") == [("y",), ("w",)]

    def test_kept_workers_in_a_new_order(self):
        # The table is owner-major in the sub-problem's worker order: when
        # that order changes, the survivors move with their workers, and
        # the added rows still land among them.
        workers = [
            _worker("w0", 0.0, 0.0, cap=2),
            _worker("w1", 0.0, -1.0, cap=1),
            _worker("w2", 0.5, 0.0, cap=1),
        ]
        old = self._ring("b", "d") + [_dp("far", 2.0, 0.0, 50.0)]
        delta = DeltaCatalog(_sub(old, workers), rebuild_fraction=10.0)
        self._refresh(delta, _sub(old + self._ring("a", "c"), workers[::-1]))

    def test_validate_entry_loop_columns_carry_their_objects(self):
        # A speed-scaled worker's column comes from the validate_entry loop
        # and carries its objects; the by-position merge must move each
        # object with its row.
        workers = [
            _worker("w0", 0.0, 0.0, cap=2),
            Worker("slow", Point(0.0, 0.0), 2, "dc", speed_kmh=0.5),
        ]
        old = self._ring("b", "d") + [_dp("far", 2.0, 0.0, 50.0)]
        delta = DeltaCatalog(_sub(old, workers), rebuild_fraction=10.0)
        added = self._ring("a", "c", "e") + [_dp("near", 0.5, 0.0, 50.0)]
        refreshed = self._refresh(delta, _sub(old + added, workers))
        singles = [
            ids for ids in self._order(refreshed, "slow") if len(ids) == 1
        ]
        assert singles[:6] == [("near",), ("a",), ("b",), ("c",), ("d",), ("e",)]
        # A second refresh drops a survivor and adds a tie between others.
        churned = [dp for dp in old + added if dp.dp_id != "c"] + self._ring(
            "bb", radius=1.0
        )
        self._refresh(delta, _sub(churned, workers))

