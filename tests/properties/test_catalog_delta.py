"""Hypothesis stateful tests: DeltaCatalog ≡ from-scratch rebuild under churn.

The incremental catalog's correctness claim is *exact* equality — same
strategies, same payoffs, same :class:`CatalogIndex` bit layout — with a
``build_catalog`` rebuild after **every** churn step, not just at the end.
The state machine below interleaves task arrivals, expiries, deadline
moves, delivery-point removal/re-insertion, worker churn (join, leave,
move, capacity change) and clock advances, and asserts that invariant
after each rule via :func:`catalog_diff`.  Two catalogs follow the same
world.  ``delta`` uses ``rebuild_fraction=10``, which forces the delta
path even when a rule churns a large fraction of a tiny center, so the
surgery code (not the rebuild fallback) is what gets exercised.
``clocked`` keeps the service default: a clock advance shifts every
relative deadline and sends it to the rebuild fallback, whose surgery
tables are derived lazily when a later sparse rule takes the delta path.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.entities import DeliveryPoint, DistributionCenter, SpatialTask, Worker
from repro.core.instance import SubProblem
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.vdps.catalog import build_catalog
from repro.vdps.delta import DeltaCatalog, catalog_diff

TRAVEL = TravelModel(speed_kmh=1.0)
EPSILON = 2.5

coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
expiry = st.floats(min_value=0.2, max_value=12.0, allow_nan=False)


class CatalogChurnMachine(RuleBasedStateMachine):
    """Random churn over one center, delta-maintained vs rebuilt fresh."""

    def __init__(self):
        super().__init__()
        self.points = {}
        self.workers = {}
        self.next_dp = 0
        self.next_task = 0
        self.next_worker = 0
        self.delta = None
        self.clocked = None

    # -- world assembly ----------------------------------------------------

    def _sub(self):
        center = DistributionCenter(
            "dc", Point(0.0, 0.0), tuple(self.points.values())
        )
        return SubProblem(center, tuple(self.workers.values()), TRAVEL)

    def _task(self, dp_id, exp):
        self.next_task += 1
        return SpatialTask(f"t{self.next_task}", dp_id, exp)

    @initialize(
        xs=st.lists(coordinate, min_size=1, max_size=4),
        wx=coordinate,
        wy=coordinate,
        cap=st.integers(1, 3),
    )
    def seed_world(self, xs, wx, wy, cap):
        for x in xs:
            dp_id = f"p{self.next_dp}"
            self.next_dp += 1
            self.points[dp_id] = DeliveryPoint(
                dp_id, Point(x, 1.0), (self._task(dp_id, 6.0),)
            )
        self.workers["w0"] = Worker(
            "w0", Point(wx, wy), max_delivery_points=cap, center_id="dc"
        )
        self.next_worker = 1
        self.delta = DeltaCatalog(
            self._sub(), epsilon=EPSILON, rebuild_fraction=10.0
        )
        self.clocked = DeltaCatalog(self._sub(), epsilon=EPSILON)

    # -- delivery-point churn ----------------------------------------------

    @rule(x=coordinate, y=coordinate, exp=expiry, data=st.data())
    def task_arrives(self, x, y, exp, data):
        """A task lands: on an existing point, or founding a new one."""
        if self.points and data.draw(st.booleans(), label="existing point"):
            dp_id = data.draw(
                st.sampled_from(sorted(self.points)), label="target"
            )
            dp = self.points[dp_id]
            self.points[dp_id] = dp.with_tasks(
                dp.tasks + (self._task(dp_id, exp),)
            )
        else:
            dp_id = f"p{self.next_dp}"
            self.next_dp += 1
            self.points[dp_id] = DeliveryPoint(
                dp_id, Point(x, y), (self._task(dp_id, exp),)
            )

    @rule(data=st.data())
    def task_expires(self, data):
        """Drop one task; the point stays, possibly with an empty queue."""
        with_tasks = sorted(p for p, dp in self.points.items() if dp.tasks)
        if not with_tasks:
            return
        dp_id = data.draw(st.sampled_from(with_tasks), label="target")
        dp = self.points[dp_id]
        self.points[dp_id] = dp.with_tasks(dp.tasks[1:])

    @rule(exp=expiry, data=st.data())
    def deadline_moves(self, exp, data):
        """Rewrite one task's expiry in place (same id, new deadline)."""
        with_tasks = sorted(p for p, dp in self.points.items() if dp.tasks)
        if not with_tasks:
            return
        dp_id = data.draw(st.sampled_from(with_tasks), label="target")
        dp = self.points[dp_id]
        moved = SpatialTask(dp.tasks[0].task_id, dp_id, exp, dp.tasks[0].reward)
        self.points[dp_id] = dp.with_tasks((moved,) + dp.tasks[1:])

    @rule(data=st.data())
    def point_removed(self, data):
        """A delivery point disappears entirely."""
        if not self.points:
            return
        dp_id = data.draw(st.sampled_from(sorted(self.points)), label="target")
        del self.points[dp_id]

    @rule(x=coordinate, y=coordinate, exp=expiry, data=st.data())
    def point_returns(self, x, y, exp, data):
        """A removed id re-enters at a (possibly) different location."""
        recycled = [f"p{i}" for i in range(self.next_dp)]
        candidates = sorted(set(recycled) - set(self.points))
        if not candidates:
            return
        dp_id = data.draw(st.sampled_from(candidates), label="target")
        self.points[dp_id] = DeliveryPoint(
            dp_id, Point(x, y), (self._task(dp_id, exp),)
        )

    @rule(hours=st.floats(min_value=0.01, max_value=2.0))
    def clock_advances(self, hours):
        """Every relative deadline shrinks; tasks that run out drop.

        ``clocked`` refreshes at once, usually by falling back to a
        rebuild.
        """
        for dp_id, dp in self.points.items():
            self.points[dp_id] = dp.with_tasks(
                tuple(
                    SpatialTask(t.task_id, dp_id, t.expiry - hours, t.reward)
                    for t in dp.tasks
                    if t.expiry - hours > 0
                )
            )
        sub = self._sub()
        diffs = catalog_diff(
            self.clocked.refresh(sub), build_catalog(sub, epsilon=EPSILON)
        )
        assert not diffs, "; ".join(diffs)

    # -- worker churn ------------------------------------------------------

    @rule(x=coordinate, y=coordinate, cap=st.integers(1, 4))
    def worker_joins(self, x, y, cap):
        wid = f"w{self.next_worker}"
        self.next_worker += 1
        self.workers[wid] = Worker(
            wid, Point(x, y), max_delivery_points=cap, center_id="dc"
        )

    @rule(data=st.data())
    def worker_leaves(self, data):
        if len(self.workers) <= 1:
            return  # keep the catalog non-degenerate
        wid = data.draw(st.sampled_from(sorted(self.workers)), label="target")
        del self.workers[wid]

    @rule(x=coordinate, y=coordinate, data=st.data())
    def worker_moves(self, x, y, data):
        if not self.workers:
            return
        wid = data.draw(st.sampled_from(sorted(self.workers)), label="target")
        w = self.workers[wid]
        self.workers[wid] = Worker(
            wid, Point(x, y), w.max_delivery_points, w.center_id
        )

    @rule(cap=st.integers(1, 5), data=st.data())
    def worker_capacity_changes(self, cap, data):
        """maxDP growth exercises deepen_layers; shrink the size filter."""
        if not self.workers:
            return
        wid = data.draw(st.sampled_from(sorted(self.workers)), label="target")
        w = self.workers[wid]
        self.workers[wid] = Worker(wid, w.location, cap, w.center_id)

    # -- the oracle --------------------------------------------------------

    @invariant()
    def delta_equals_rebuild(self):
        """After every rule: refresh ≡ build_catalog, bit for bit."""
        if self.delta is None:
            return
        sub = self._sub()
        rebuilt = build_catalog(sub, epsilon=EPSILON)
        for catalog in (self.delta, self.clocked):
            diffs = catalog_diff(catalog.refresh(sub), rebuilt)
            assert not diffs, "; ".join(diffs)


# Budget comes from the active Hypothesis profile (tests/conftest.py):
# 30 examples x 20 steps locally, 15 x 15 under --hypothesis-profile=ci.
TestCatalogChurn = CatalogChurnMachine.TestCase
