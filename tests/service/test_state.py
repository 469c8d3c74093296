"""Tests for repro.service.state (the mutable service world)."""

import math

import pytest

from repro.baselines.gta import GTASolver
from repro.geo.point import Point
from repro.parallel import solve_instance
from repro.oracle import _fingerprint, scratch_snapshot
from repro.service.state import WorldState
from repro.sim.arrivals import TaskArrival

from tests.conftest import make_center, make_dp, make_worker
from tests.service.conftest import make_world, seed_tasks, task, two_center_layout


class TestConstruction:
    def test_requires_centers(self):
        with pytest.raises(ValueError, match="at least one"):
            WorldState([])

    def test_duplicate_center_rejected(self):
        a, _ = two_center_layout()
        with pytest.raises(ValueError, match="duplicate center"):
            WorldState([a, a])

    def test_duplicate_delivery_point_rejected(self):
        a = make_center([make_dp("p", 1, 0)], center_id="A")
        b = make_center([make_dp("p", 11, 0)], center_id="B", x=10.0)
        with pytest.raises(ValueError, match="duplicate delivery point"):
            WorldState([a, b])

    def test_center_without_points_rejected(self):
        with pytest.raises(ValueError, match="delivery points"):
            WorldState([make_center([], center_id="A")])

    def test_layout_tasks_are_stripped(self):
        # make_dp attaches a task to each point; the service ignores it,
        # mirroring DispatchSimulator (centers are layout only).
        state = make_world(with_tasks=False)
        assert state.pending_task_count == 0
        for center in state.centers:
            assert all(not dp.tasks for dp in center.delivery_points)

    def test_initial_worker_with_unknown_center_raises(self):
        with pytest.raises(ValueError, match="unknown center"):
            WorldState(
                two_center_layout(),
                workers=[make_worker("w", 0, 0, center_id="nope")],
            )


class TestAddTasks:
    def test_accepts_and_counts(self):
        state = make_world(with_tasks=False)
        accepted, rejected = state.add_tasks(seed_tasks())
        assert len(accepted) == 6 and rejected == []
        assert state.pending_task_count == 6

    def test_duplicate_id_rejected(self):
        state = make_world()
        accepted, rejected = state.add_tasks([task("ta1", "a1", 2.0)])
        assert accepted == []
        assert rejected[0].reason == "duplicate task id"

    def test_unknown_delivery_point_rejected(self):
        state = make_world(with_tasks=False)
        _, rejected = state.add_tasks([task("t", "nowhere", 2.0)])
        assert "unknown delivery point" in rejected[0].reason

    def test_expired_on_arrival_rejected(self):
        state = make_world(with_tasks=False)
        state.advance(1.0)
        _, rejected = state.add_tasks([task("t", "a1", 1.0)])  # expiry == now
        assert "not after now" in rejected[0].reason

    def test_expired_id_stays_burned(self):
        # A task id that ever entered the queue cannot be replayed, even
        # after the original expired and left.
        state = make_world(with_tasks=False)
        state.add_tasks([task("t", "a1", 0.5)])
        state.advance(1.0)
        assert state.expire() == ["t"]
        _, rejected = state.add_tasks([task("t", "a1", 5.0)])
        assert rejected[0].reason == "duplicate task id"

    def test_malformed_dict_rejected_not_raised(self):
        state = make_world(with_tasks=False)
        accepted, rejected = state.add_tasks([{"task_id": "t"}])  # no dp/expiry
        assert accepted == [] and len(rejected) == 1

    def test_accepts_task_arrival_entities(self):
        state = make_world(with_tasks=False)
        arrival = TaskArrival("t", "b1", arrival_time=0.0, expiry=2.0)
        accepted, _ = state.add_tasks([arrival])
        assert accepted == ["t"]

    def test_version_bumps_only_on_acceptance(self):
        state = make_world(with_tasks=False)
        before = state.version
        state.add_tasks([task("t", "nowhere", 2.0)])
        assert state.version == before
        state.add_tasks([task("t", "a1", 2.0)])
        assert state.version == before + 1


class TestAddWorkers:
    def test_accepts_dicts(self):
        state = make_world(with_tasks=False)
        accepted, rejected = state.add_workers(
            [{"worker_id": "w9", "x": 0.3, "y": 0.0, "center_id": "A"}]
        )
        assert accepted == ["w9"] and rejected == []
        assert state.worker_count == 4

    def test_nearest_center_attachment(self):
        state = make_world(with_tasks=False)
        state.add_workers([{"worker_id": "east", "x": 9.8, "y": 0.0}])
        assert state.worker_stats()["east"]["center_id"] == "B"

    def test_duplicate_and_unknown_center_rejected(self):
        state = make_world(with_tasks=False)
        _, rejected = state.add_workers(
            [
                {"worker_id": "wa1", "x": 0, "y": 0},
                {"worker_id": "w9", "x": 0, "y": 0, "center_id": "nope"},
            ]
        )
        reasons = {r.item_id: r.reason for r in rejected}
        assert reasons["wa1"] == "duplicate worker id"
        assert "unknown center" in reasons["w9"]

    def test_malformed_dict_rejected_not_raised(self):
        state = make_world(with_tasks=False)
        accepted, rejected = state.add_workers([{"worker_id": "w"}])
        assert accepted == [] and len(rejected) == 1


class TestClockAndExpiry:
    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            make_world(with_tasks=False).advance(-0.1)

    def test_expiry_at_boundary_is_inclusive(self):
        # expiry == now expires, matching the simulator's `expiry > now`
        # keep-filter at round boundaries.
        state = make_world(with_tasks=False)
        state.add_tasks([task("edge", "a1", 0.5), task("later", "a1", 0.6)])
        state.advance(0.5)
        assert state.expire() == ["edge"]
        assert state.pending_task_count == 1


class TestSnapshot:
    def test_relative_deadline_conversion(self):
        state = make_world(with_tasks=False)
        state.add_tasks([task("t", "a1", 1.5)])
        state.advance(0.25)
        snap = state.snapshot()
        (sub,) = snap.subproblems
        (spatial,) = sub.center.delivery_points[0].tasks
        assert spatial.expiry == pytest.approx(1.25)  # absolute -> relative

    def test_only_active_centers_appear(self):
        state = make_world(with_tasks=False)
        state.add_tasks([task("t", "a1", 1.5)])  # tasks only at A
        snap = state.snapshot()
        assert snap.center_ids == ["A"]
        assert snap.task_ids == {"A": ("t",)}

    def test_center_without_available_workers_skipped(self):
        state = make_world()
        snap = state.snapshot()
        assert snap.center_ids == ["A", "B"]
        # Send every B worker on a long route; B drops out of the snapshot
        # even though its tasks are still pending.
        solution = solve_instance(
            snap.instance(), GTASolver(), seed=0, catalogs=None
        )
        state.commit(snap, {"B": solution.assignments["B"]})
        assert state.snapshot().center_ids == ["A"]
        assert state.pending_task_count > 0

    def test_hopeless_tasks_excluded(self):
        # Remaining time not exceeding the center->dp travel time means no
        # worker could ever deliver (Definition 6): excluded, left to expire.
        state = make_world(with_tasks=False)
        # a1 is 1 km from A; at 5 km/h that is 0.2 h of travel.
        state.add_tasks([task("hopeless", "a1", 0.2), task("fine", "a1", 1.0)])
        snap = state.snapshot()
        assert snap.task_ids == {"A": ("fine",)}
        assert snap.pending_tasks == 2  # still queued, just not offered

    def test_filter_boundaries(self):
        # Kept exactly when remaining > 0 and remaining > the center leg.
        state = make_world(with_tasks=False)
        leg = state.travel.time(Point(0.0, 0.0), Point(1.0, 0.0))  # A -> a1
        state.add_tasks(
            [
                task("at-leg", "a1", leg),
                task("past-leg", "a1", math.nextafter(leg, math.inf)),
                task("at-now", "a2", 0.5),
                task("later", "a2", 2.0),
            ]
        )
        assert state.snapshot().task_ids == {"A": ("at-now", "later", "past-leg")}
        state.advance(0.5)  # "at-now" has 0.0 left, not yet expired
        snap = state.snapshot()
        assert snap.task_ids == {"A": ("later",)}
        assert snap.pending_tasks == 4

    def test_point_at_the_center_has_a_zero_leg(self):
        center = make_center([make_dp("here", 0.0, 0.0)], center_id="A")
        workers = [make_worker("w", 0.0, 0.0, center_id="A")]
        state = WorldState([center], workers=workers)
        state.add_tasks([task("tiny", "here", 5e-324), task("soon", "here", 0.25)])
        (sub,) = state.snapshot().subproblems
        (dp,) = sub.center.delivery_points
        assert [(t.task_id, t.expiry) for t in dp.tasks] == [
            ("soon", 0.25),
            ("tiny", 5e-324),
        ]
        assert sub.center.columns.deadline.tolist() == [5e-324]
        state.advance(0.25)  # "soon" has 0.0 left, "tiny" less
        assert state.snapshot().subproblems == ()

    def test_reward_total_sums_in_task_id_order(self):
        # 1e16 + 1.0 + 1.0 rounds differently from 1.0 + 1.0 + 1e16 under
        # plain left-to-right summation; the total follows task-id order,
        # not arrival order, and equals the built point's total_reward.
        state = make_world(with_tasks=False)
        state.add_tasks(
            [
                task("c", "a1", 2.0, reward=1.0),
                task("b", "a1", 2.0, reward=1.0),
                task("a", "a1", 2.0, reward=1e16),
            ]
        )
        (sub,) = state.snapshot().subproblems
        columns = sub.center.columns
        total = columns.reward[columns.ids.index("a1")]
        assert total.hex() == sum([1e16, 1.0, 1.0]).hex()
        (dp,) = sub.center.delivery_points
        assert [t.task_id for t in dp.tasks] == ["a", "b", "c"]
        assert dp.total_reward.hex() == total.hex()

    def test_clock_moving_snapshot_builds_points_only_when_read(self, monkeypatch):
        from repro.core.entities import DeliveryPoint

        built = []
        post_init = DeliveryPoint.__post_init__

        def counting(self):
            built.append(self.dp_id)
            post_init(self)

        state = make_world()
        state.snapshot().subproblems[0].center.delivery_points
        state.advance(0.1)
        monkeypatch.setattr(DeliveryPoint, "__post_init__", counting)
        snap = state.snapshot()
        assert built == []
        sub = snap.subproblems[0]
        first, last = sub.center.columns[0], sub.center.columns[-1]
        assert built == [first.dp_id, last.dp_id]
        assert last.dp_id == sub.center.columns.ids[-1]
        assert sub.center.delivery_points[0] is first
        assert sub.center.delivery_points[-1] is last
        assert len(built) == len(sub.center.delivery_points)
        sub.center.delivery_points
        assert len(built) == len(sub.center.columns)

    def test_snapshot_center_pickles_as_a_plain_center(self):
        import pickle

        from repro.core.entities import DistributionCenter

        (sub, _) = make_world().snapshot().subproblems
        copy = pickle.loads(pickle.dumps(sub))
        assert type(copy.center) is DistributionCenter
        assert copy.center == sub.center and copy.workers == sub.workers
        assert copy.center.columns.ids == sub.center.columns.ids

    def test_still_clock_keeps_unchanged_point_objects(self):
        def points_of_a(state):
            center = state.snapshot().subproblems[0].center
            return {dp.dp_id: dp for dp in center.delivery_points}

        state = make_world()
        before = points_of_a(state)
        state.add_tasks([task("extra", "a1", 1.3)])
        after = points_of_a(state)
        assert after["a1"] is not before["a1"] and after["a1"] != before["a1"]
        assert after["a2"] is before["a2"] and after["a3"] is before["a3"]
        state.advance(0.1)
        moved = points_of_a(state)
        assert all(moved[p] is not after[p] for p in moved)

    def test_empty_snapshot_has_no_instance(self):
        snap = make_world(with_tasks=False).snapshot()
        assert snap.subproblems == ()
        with pytest.raises(ValueError, match="empty snapshot"):
            snap.instance()

    def test_instance_round_trips_workers_and_centers(self):
        snap = make_world().snapshot()
        instance = snap.instance()
        assert [c.center_id for c in instance.centers] == ["A", "B"]
        assert len(instance.workers) == 3

    def test_counts(self):
        snap = make_world().snapshot()
        assert snap.pending_tasks == 6
        assert snap.available_workers == 3


class TestFingerprints:
    """The per-center catalog keys, ``(center version, now)``, that stand
    in for content fingerprints.

    Keys are minted per world, so two worlds built alike may share keys
    for different content; that equal keys within one world imply equal
    content is checked by the snapshot state machine
    (``tests/properties/test_snapshot_incremental.py``,
    ``keys_imply_equal_content``).
    """

    def test_stable_across_identical_snapshots(self):
        state = make_world()
        a = state.snapshot()
        b = state.snapshot()
        assert a.keys == b.keys

    def test_churn_moves_only_the_touched_center(self):
        state = make_world()
        before = state.snapshot().keys
        state.add_tasks([task("extra", "a1", 1.3)])
        after = state.snapshot().keys
        assert after["A"] != before["A"]
        assert after["B"] == before["B"]

    def test_rejected_churn_moves_nothing(self):
        state = make_world()
        before = state.snapshot().keys
        state.add_tasks([task("ta1", "a1", 2.0), task("late", "b1", 0.0)])
        state.add_workers([{"worker_id": "wa1", "x": 0.0, "y": 0.0}])
        assert state.snapshot().keys == before

    def test_clock_advance_moves_every_center(self):
        # Relative deadlines shift with the clock, so the catalogs of every
        # center with tasks become stale.
        state = make_world()
        before = state.snapshot().keys
        state.advance(0.1)
        after = state.snapshot().keys
        assert after["A"] != before["A"] and after["B"] != before["B"]

    def test_fingerprint_covers_workers(self):
        state = make_world()
        before = state.snapshot().keys
        state.add_workers([{"worker_id": "w9", "x": 0.4, "y": 0.2, "center_id": "A"}])
        after = state.snapshot().keys
        assert after["A"] != before["A"]
        assert after["B"] == before["B"]

    def test_commit_moves_the_centers_it_touched(self):
        state = make_world()
        snap = state.snapshot()
        solution = solve_instance(snap.instance(), GTASolver(), seed=0)
        routed = {
            cid for cid, assignment in solution.assignments.items()
            if any(pair.route is not None and len(pair.route) for pair in assignment)
        }
        assert routed
        state.commit(snap, solution.assignments)
        after = state.snapshot().keys
        for cid in routed:
            assert after.get(cid) != snap.keys[cid]

    def test_commit_that_removes_nothing_still_moves_the_key(self):
        # Every task a route would deliver expires while the round solves:
        # the commit removes nothing but still moves the worker.
        state = make_world(with_tasks=False)
        state.add_tasks([task("soon", "a1", 0.5)])
        snap = state.snapshot()
        solution = solve_instance(snap.instance(), GTASolver(), seed=0)
        state.advance(1.0)
        assert state.expire() == ["soon"]
        state.add_tasks([task("later", "a2", 3.0)])
        before = state.snapshot()
        assert state.commit(snap, solution.assignments) == 1
        after = state.snapshot()
        assert after.keys["A"] != before.keys["A"]
        assert after.subproblems != before.subproblems

    def test_direct_fingerprint_matches_snapshot(self):
        state = make_world()
        state.add_tasks([task("extra", "a1", 1.3)])
        state.snapshot()
        state.advance(0.05)
        state.add_tasks([task("late", "b2", 1.7)])
        snap, ref = state.snapshot(), scratch_snapshot(state)
        assert snap.subproblems == ref.subproblems
        assert snap.task_ids == ref.task_ids
        for sub in snap.subproblems:
            assert ref.keys[sub.center.center_id] == _fingerprint(sub)


class TestCommit:
    def test_commit_record_lists_removed_ids_in_task_id_order(self, tmp_path):
        # Point-major order (a1: t2, t4; a2: t1, t3) differs from task-id
        # order; the journaled commit removes them in task-id order.
        from repro.service.journal import WorldJournal

        state = make_world(with_tasks=False)
        state.attach_journal(WorldJournal(tmp_path / "w.journal", fsync=False))
        state.add_tasks(
            [
                task("t4", "a1", 3.0),
                task("t3", "a2", 3.0),
                task("t2", "a1", 3.0),
                task("t1", "a2", 3.0),
                task("t5", "a3", 3.0),
            ]
        )
        snap = state.snapshot()
        solution = solve_instance(snap.instance(), GTASolver(), seed=0)
        delivered = {
            dp_id
            for pair in solution.assignments["A"]
            for dp_id in pair.delivery_point_ids
        }
        assert {"a1", "a2"} <= delivered
        state.commit(snap, solution.assignments)
        records, _, _ = WorldJournal.read(tmp_path / "w.journal")
        (commit,) = [r for r in records if r.kind == "commit"]
        expected = sorted(
            tid
            for tid, dp in [("t1", "a2"), ("t2", "a1"), ("t3", "a2"),
                            ("t4", "a1"), ("t5", "a3")]
            if dp in delivered
        )
        assert commit.data["removed"] == expected

    def test_commit_applies_routes_like_the_simulator(self):
        state = make_world()
        snap = state.snapshot()
        solution = solve_instance(snap.instance(), GTASolver(), seed=0)
        assigned = state.commit(snap, solution.assignments)
        assert assigned > 0
        assert state.pending_task_count == 6 - assigned
        stats = state.worker_stats()
        routed = [s for s in stats.values() if s["assignments"] > 0]
        assert routed
        for s in routed:
            assert s["available_at"] > 0.0  # busy until the route completes
            assert s["earnings"] > 0.0

    def test_busy_worker_reappears_at_drop_off(self):
        state = make_world()
        snap = state.snapshot()
        solution = solve_instance(snap.instance(), GTASolver(), seed=0)
        state.commit(snap, solution.assignments)
        stats = state.worker_stats()
        wid, worker_stats = next(
            (w, s) for w, s in stats.items() if s["assignments"] > 0
        )
        assert state.available_worker_count() < 3
        state.advance(worker_stats["available_at"] - state.now)
        snap2 = state.snapshot()
        moved = [
            w
            for sub in snap2.subproblems
            for w in sub.workers
            if w.worker_id == wid
        ]
        if moved:  # the worker's center may have no offered tasks left
            assert moved[0].location != Point(0.1, 0.0)

    def test_uncommitted_snapshot_leaves_world_untouched(self):
        state = make_world()
        version = state.version
        snap = state.snapshot()
        solve_instance(snap.instance(), GTASolver(), seed=0)
        assert state.version == version
        assert state.pending_task_count == 6
        assert state.available_worker_count() == 3
