"""The batched catalog build through the dispatch engine, clock advancing.

In delta mode the round's first catalog miss builds every stale center of
the snapshot in one :func:`~repro.vdps.catalog.build_batch` call; each
center's own catalog get then takes its prebuilt catalog (still counted as
a miss).  These tests drive a six-center world through arrivals, clock
advances, planning rounds and commits, and hold the batched engine to the
per-center contracts:

* round for round it equals a ``delta_catalog=False`` engine, whose cache
  builds each center on its own — routes, payoffs, ``cache_hits`` /
  ``cache_misses`` and ``degraded``;
* every round replays offline (:func:`repro.parallel.solve_instance` at
  ``round_seed(i)``), as ``TestOfflineFidelity`` checks on the two-center
  world;
* a seeded :class:`FaultPlan` tampers the same cache hits as the control
  arm (corruption fires on true hits only);
* under ``solve_deadline_s`` the batch runs inside the first missing
  attempt's budgeted thread, injected delays never make a round raise,
  and a batch too slow for that budget degrades only the center whose
  attempt ran it.
"""

import random
import sys
import threading
import time
from unittest import mock

import pytest

from repro.games.fgt import FGTSolver
from repro.geo.travel import TravelModel
from repro.obs.metrics import METRICS
from repro.parallel import solve_instance
from repro.service import cache as cache_module
from repro.service.engine import LADDER, DispatchEngine
from repro.service.cache import SnapshotCatalogCache
from repro.service.faults import FaultPlan
from repro.service.state import WorldState
from repro.vdps import catalog as catalog_module
from repro.vdps.catalog import build_catalog
from repro.vdps.delta import catalog_diff

from tests.conftest import make_center, make_dp, make_worker
from tests.service.conftest import task

N_CENTERS = 6
ROUNDS = 8


def make_city():
    """Six centers 10 km apart, five delivery points and two couriers each."""
    centers, workers = [], []
    for c in range(N_CENTERS):
        x0 = 10.0 * c
        points = [
            make_dp(f"c{c}p{i}", x0 + 0.3 * (i - 2), 0.2 * ((i * 3) % 5 - 2))
            for i in range(5)
        ]
        centers.append(make_center(points, center_id=f"C{c}", x=x0))
        workers += [
            make_worker(f"c{c}w0", x0 + 0.1, 0.0, max_dp=3, center_id=f"C{c}"),
            make_worker(f"c{c}w1", x0 - 0.1, 0.1, max_dp=2, center_id=f"C{c}"),
        ]
    return WorldState(centers, workers=workers, travel=TravelModel())


def arrivals(i, now):
    """Round ``i``'s task batch: seeded, on a few centers only."""
    rng = random.Random(1000 + i)
    batch = []
    for c in rng.sample(range(N_CENTERS), 3):
        for k in range(rng.randint(1, 3)):
            dp = f"c{c}p{rng.randrange(5)}"
            batch.append(task(f"r{i}c{c}t{k}", dp, now + rng.uniform(0.4, 1.6)))
    return batch


def schedule(i):
    """``(advance_hours, commit)`` of round ``i``.

    Every third round holds the clock after a planning round, so unchanged
    centers hit the cache; the rest advance it, and every center with
    pending work misses.
    """
    if i % 3 == 2:
        return 0.0, True
    return 0.05, i % 3 == 0


def _engine(**kwargs):
    return DispatchEngine(
        make_city(), FGTSolver(epsilon=0.8), epsilon=0.8, seed=4, **kwargs
    )


def _drive(engine, rounds=ROUNDS, on_snapshot=None):
    """Run the script; returns each round's comparable outcome."""
    outcomes = []
    for i in range(rounds):
        advance, commit = schedule(i)
        engine.state.add_tasks(arrivals(i, engine.state.now + advance))
        if on_snapshot is not None:
            # Advance here instead, so the test sees the snapshot the
            # engine is about to solve.
            engine.state.advance(advance)
            engine.state.expire()
            on_snapshot(i, engine.state.snapshot())
            advance = 0.0
        result = engine.dispatch(advance_hours=advance, commit=commit)
        outcomes.append(
            (
                result.assignments,
                result.payoffs,
                result.cache_hits,
                result.cache_misses,
                dict(result.degraded),
            )
        )
    return outcomes


def _batch_sizes():
    """Patch the cache's batch build to record how many centers each built."""
    sizes = []
    real = cache_module.build_batch

    def recording(subs, *args, **kwargs):
        sizes.append(len(subs))
        return real(subs, *args, **kwargs)

    return sizes, mock.patch.object(cache_module, "build_batch", recording)


def _join_detached_solves():
    """Wait for timed-out solves, which are detached, not killed.

    Left running, they would bump the process-wide counters of a later test.
    """
    stop = time.monotonic() + 15.0
    for thread in threading.enumerate():
        if thread.name.startswith("solve-"):
            thread.join(timeout=max(0.0, stop - time.monotonic()))


class TestBatchedEngine:
    def test_rounds_match_the_per_center_control(self):
        sizes, patch = _batch_sizes()
        with patch:
            batched = _drive(_engine())
        control = _drive(_engine(delta_catalog=False))
        assert batched == control
        # The script exercised the batch on several centers at once, and
        # both hits and misses.
        assert max(sizes) > 1
        assert sum(o[2] for o in batched) > 0
        assert sum(o[3] for o in batched) > 0

    def test_every_round_replays_offline(self):
        engine = _engine()
        offline = {}

        def solve_offline(i, snapshot):
            offline[i] = solve_instance(
                snapshot.instance(),
                FGTSolver(epsilon=0.8),
                epsilon=0.8,
                seed=engine.round_seed(i),
                seed_stream="FGT",
            )

        outcomes = _drive(engine, on_snapshot=solve_offline)
        for i, (assignments, *_rest) in enumerate(outcomes):
            solution = offline[i]
            assert set(assignments) == set(solution.assignments)
            for center_id, assignment in solution.assignments.items():
                assert assignments[center_id] == dict(assignment.as_mapping())

    def test_seeded_corruption_fires_on_the_same_hits(self):
        plan = FaultPlan(seed=2, cache_corruption_rate=0.5)
        counts = []
        results = []
        for delta in (True, False):
            before = METRICS.counter("dispatch.injected_corruptions").value
            results.append(_drive(_engine(faults=plan, delta_catalog=delta)))
            counts.append(
                METRICS.counter("dispatch.injected_corruptions").value - before
            )
        assert results[0] == results[1]
        # Pinned: the count the per-center build produced before batching.
        assert counts == [2, 2]

    @pytest.mark.parametrize(
        "delay_s, deadline_s", [(0.01, 30.0), (0.3, 0.1)], ids=["in-budget", "timeouts"]
    )
    def test_deadline_with_injected_delays_never_raises(self, delay_s, deadline_s):
        plan = FaultPlan(seed=5, delay_rate=0.4, delay_s=delay_s, max_round=4)
        before = METRICS.counter("dispatch.solve_timeouts").value
        engine = _engine(faults=plan, solve_deadline_s=deadline_s, backoff_base_s=0.0)
        try:
            outcomes = _drive(engine)
        finally:
            _join_detached_solves()
        timeouts = METRICS.counter("dispatch.solve_timeouts").value - before
        for _, _, _, _, degraded in outcomes:
            assert set(degraded.values()) <= set(LADDER)
        if delay_s < deadline_s:
            # Nothing timed out: the batch ran in the first missing
            # attempt's thread and every round equals the inline control.
            assert timeouts == 0
            assert outcomes == _drive(_engine(delta_catalog=False))
        else:
            assert timeouts > 0


    @pytest.mark.parametrize(
        "retries, first_rung",
        [(0, "greedy"), (1, "primary")],
        ids=["no-retry", "retry"],
    )
    def test_a_slow_batch_degrades_only_the_center_that_ran_it(
        self, retries, first_rung
    ):
        # Every build sleeps UNIT per center it builds, so one center's
        # build fits the deadline and the round's six-center batch does
        # not.  The batch times out the first center's attempt; every
        # other center, still held by the abandoned batch, builds its
        # catalog on the side within its own budget instead of waiting.
        unit = 0.2
        sizes = []
        real = catalog_module.generate_tables

        def slow(centers, *args, **kwargs):
            sizes.append(len(centers))
            time.sleep(unit * len(centers))
            return real(centers, *args, **kwargs)

        engine = _engine(
            solve_deadline_s=2 * unit, solve_retries=retries, backoff_base_s=0.0
        )
        now = engine.state.now
        engine.state.add_tasks(
            [task(f"t{c}", f"c{c}p0", now + 1.0) for c in range(N_CENTERS)]
        )
        try:
            with mock.patch.object(catalog_module, "generate_tables", slow):
                result = engine.dispatch(commit=False)
        finally:
            _join_detached_solves()
        centers = [f"C{c}" for c in range(N_CENTERS)]
        assert sizes[0] == N_CENTERS
        assert result.degraded == {
            cid: first_rung if cid == "C0" else "primary" for cid in centers
        }


class TestConcurrentGets:
    def test_racing_gets_build_every_center_once(self):
        # More threads than cores, a short switch interval: every center's
        # get races the round's batch.  Whichever side builds a center,
        # its delta catalog is built exactly once (a get that finds its
        # center held by the batch builds on the side, outside it), and
        # every get is a miss with the catalog a per-center build produces.
        state = make_city()
        for i in range(4):
            state.add_tasks(arrivals(i, 0.0))
        snapshot = state.snapshot()
        assert len(snapshot.subproblems) > 2
        cache = SnapshotCatalogCache()
        got = {}

        def get(sub):
            fingerprint = snapshot.fingerprints[sub.center.center_id]
            got[sub.center.center_id] = cache.get_with_status(sub, fingerprint, 0.8)

        before = METRICS.counter("catalog.delta_rebuilds").value
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            cache.stage(snapshot)
            threads = [
                threading.Thread(target=get, args=(sub,))
                for sub in snapshot.subproblems
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            cache.stage(None)
        assert not any(thread.is_alive() for thread in threads)
        built = METRICS.counter("catalog.delta_rebuilds").value - before
        assert built == len(snapshot.subproblems)
        for sub in snapshot.subproblems:
            catalog, hit = got[sub.center.center_id]
            assert not hit
            assert not catalog_diff(catalog, build_catalog(sub, epsilon=0.8))
