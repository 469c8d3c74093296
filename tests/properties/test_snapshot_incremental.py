"""Hypothesis stateful tests: columnar snapshot ≡ from-scratch snapshot.

:meth:`WorldState.snapshot` computes each center's point columns in vector
passes over the world's pending-task table, builds point objects only when
they are read (keeping a point's object while the clock stands still and
its tasks are unchanged), and keys each center's catalog by ``(center
version, now)``.  The machine below churns one journaled world — task and
worker arrivals (with rejected items among them), clock advances, expiry,
committed rounds, previews, reads of some point objects before the clock
moves, and journal recovery — and checks three invariants after every
rule:

* the snapshot equals :func:`repro.oracle.scratch_snapshot`, which
  re-sorts and re-materialises every pending task: the same sub-problems,
  ``task_ids`` in the same order, and the same counts;
* each center's columns hold the reference's points field by field —
  ids, locations, service hours, earliest deadlines and reward totals,
  and every task's id, relative deadline and reward, floats compared
  bitwise — and the point objects built from them are the reference's;
* equal keys imply equal content: every ``(center, version, now)`` key the
  world ever hands out maps to one :func:`repro.oracle._fingerprint`,
  which is what lets the catalog cache trust a key hit.  Two worlds built
  alike may hand out the same key for different content, so the record is
  per world.

Keys are minted per world, so a recovered world starts a fresh key record.
"""

import shutil
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.baselines.gta import GTASolver
from repro.core.entities import DeliveryPoint, DistributionCenter
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.oracle import _fingerprint, scratch_snapshot
from repro.parallel import solve_instance
from repro.service.journal import WorldJournal
from repro.service.state import WorldState

TRAVEL = TravelModel(speed_kmh=10.0)

#: Two centers; legs from 0.1 h to 0.25 h, so short deadlines go hopeless.
LAYOUT = (
    DistributionCenter(
        "A",
        Point(0.0, 0.0),
        (
            DeliveryPoint("a1", Point(1.0, 0.0)),
            DeliveryPoint("a2", Point(-1.5, 1.0)),
            DeliveryPoint("a3", Point(0.5, 2.0)),
        ),
    ),
    DistributionCenter(
        "B",
        Point(10.0, 0.0),
        (
            DeliveryPoint("b1", Point(11.0, 0.0)),
            DeliveryPoint("b2", Point(9.0, 2.0)),
        ),
    ),
)
DP_IDS = ["a1", "a2", "a3", "b1", "b2", "zz"]  # "zz" is not in the layout

lifetime = st.floats(min_value=-0.2, max_value=1.5, allow_nan=False)
task_item = st.tuples(
    st.integers(0, 40), st.sampled_from(DP_IDS), lifetime, st.sampled_from([1.0, 2.5])
)
worker_item = st.tuples(
    st.integers(0, 12),
    st.floats(min_value=-2.0, max_value=12.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    st.integers(1, 3),
    st.sampled_from([None, "A", "B", "nowhere"]),
)


class SnapshotChurnMachine(RuleBasedStateMachine):
    """Random churn over one journaled world, snapshot vs from scratch."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="snapshot-machine-"))
        self.path = self.root / "world.journal"
        self.state = None
        self.contents = {}

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @initialize(
        tasks=st.lists(task_item, max_size=6),
        workers=st.lists(worker_item, max_size=4),
    )
    def seed_world(self, tasks, workers):
        self.state = WorldState(LAYOUT, travel=TRAVEL)
        self.state.attach_journal(WorldJournal(self.path, fsync=False))
        self.tasks_arrive(tasks)
        self.workers_join(workers)

    # -- churn -------------------------------------------------------------

    @rule(items=st.lists(task_item, max_size=5))
    def tasks_arrive(self, items):
        """Tasks land; duplicates, unknown points and past deadlines are
        rejected and must move no key."""
        now = self.state.now
        self.state.add_tasks(
            [
                {"task_id": f"t{n}", "dp_id": dp, "expiry": now + life, "reward": r}
                for n, dp, life, r in items
            ]
        )

    @rule(items=st.lists(worker_item, max_size=3))
    def workers_join(self, items):
        """Workers join (nearest center when none is named); duplicates and
        unknown centers are rejected."""
        self.state.add_workers(
            [
                {
                    "worker_id": f"w{n}",
                    "x": x,
                    "y": y,
                    "max_delivery_points": cap,
                    "center_id": center,
                }
                for n, x, y, cap, center in items
            ]
        )

    @rule(hours=st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    def advance(self, hours):
        self.state.advance(hours)

    @rule()
    def expire(self):
        self.state.expire()

    @rule(
        commit=st.booleans(),
        hours=st.sampled_from([0.0, 0.2, 2.0]),
        items=st.lists(task_item, max_size=3),
    )
    def dispatch(self, commit, hours, items):
        """Solve the snapshot with GTA; commit it, or preview it only.

        Churn may land while the round solves, as it does in the service:
        the clock moves, tasks expire (possibly every task a route would
        deliver, so the commit moves workers but removes nothing) and new
        tasks arrive, and another reader snapshots the world before the
        commit lands.
        """
        snapshot = self.state.snapshot()
        if not snapshot.subproblems:
            return
        solution = solve_instance(snapshot.instance(), GTASolver(), seed=0)
        self.advance(hours)
        self.expire()
        self.tasks_arrive(items)
        self.keys_imply_equal_content()
        if commit:
            self.state.commit(snapshot, solution.assignments)

    @rule(hours=st.sampled_from([0.0, 0.05, 0.3]), data=st.data())
    def read_then_advance(self, hours, data):
        """Build some centers' point objects, move the clock (or not) and
        snapshot again: no object built for one ``now`` may reach a
        snapshot at another."""
        for sub in self.state.snapshot().subproblems:
            columns = sub.center.columns
            read = data.draw(
                st.sampled_from(["none", "one", "all"]), label=sub.center.center_id
            )
            if read == "one":
                columns[data.draw(st.integers(0, len(columns) - 1), label="point")]
            elif read == "all":
                sub.center.delivery_points
        self.advance(hours)
        self.columns_equal_scratch()

    @rule()
    def recover(self):
        """Crash and recover from the journal: a fresh world, same content."""
        fingerprint = self.state.fingerprint()
        self.state = WorldState.recover(self.path, travel=TRAVEL, fsync=False)
        assert self.state.fingerprint() == fingerprint
        self.contents = {}

    # -- invariants --------------------------------------------------------

    @invariant()
    def snapshot_equals_scratch(self):
        if self.state is None:
            return
        snap = self.state.snapshot()
        ref = scratch_snapshot(self.state)
        assert snap.now == ref.now
        assert snap.subproblems == ref.subproblems
        assert snap.task_ids == ref.task_ids
        assert snap.pending_tasks == ref.pending_tasks
        assert snap.available_workers == ref.available_workers
        assert set(snap.keys) == set(ref.keys) == set(snap.center_ids)

    @invariant()
    def columns_equal_scratch(self):
        if self.state is None:
            return
        snap = self.state.snapshot()
        ref = scratch_snapshot(self.state)
        assert snap.center_ids == ref.center_ids
        for sub, want in zip(snap.subproblems, ref.subproblems):
            columns = sub.center.columns
            points = want.center.delivery_points  # sorted by id
            assert columns.ids == [dp.dp_id for dp in points]
            assert columns.locations == [dp.location for dp in points]
            assert columns.service.tolist() == [dp.service_hours for dp in points]
            assert _hex(columns.deadline.tolist()) == _hex(
                dp.earliest_expiry for dp in points
            )
            assert _hex(columns.reward) == _hex(dp.total_reward for dp in points)
            for i, dp in enumerate(points):
                a, b = columns.starts[i], columns.starts[i + 1]
                assert columns.task_ids[a:b] == [t.task_id for t in dp.tasks]
                assert _hex(columns.expiry[a:b]) == _hex(t.expiry for t in dp.tasks)
                assert _hex(columns.rewards[a:b]) == _hex(t.reward for t in dp.tasks)
            built = sub.center.delivery_points
            assert built == points
            for got, expected in zip(built, points):
                assert _hex(t.expiry for t in got.tasks) == _hex(
                    t.expiry for t in expected.tasks
                )

    @invariant()
    def keys_imply_equal_content(self):
        if self.state is None:
            return
        snap = self.state.snapshot()
        for sub in snap.subproblems:
            cid = sub.center.center_id
            key = (cid, *snap.keys[cid])
            assert self.contents.setdefault(key, _fingerprint(sub)) == _fingerprint(sub)


def _hex(values):
    """Floats as their exact hex spellings (a bitwise comparison)."""
    return [float(value).hex() for value in values]


# Budget comes from the active Hypothesis profile (tests/conftest.py):
# 30 examples x 20 steps locally, 15 x 15 under --hypothesis-profile=ci.
TestSnapshotChurn = SnapshotChurnMachine.TestCase
