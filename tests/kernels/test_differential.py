"""Differential suite: the array kernels vs the dict-loop references.

Bit-identity — not approximate equality — is the kernels' contract
(``docs/performance.md``): the layered-DP state tables must match
:func:`repro.oracle.compute_states` value for value (arrival times compared
via ``float.hex``, so ``-0.0`` or a 1-ulp drift fails), the ``CVdpsEntry``
lists and catalogs must equal the oracle's via ``==`` and
:func:`catalog_diff`, each set's recorded route must match brute force, and
:class:`DeltaCatalog` surgery must stay identical to oracle rebuilds under
churn. Each comparison keeps a ``scalar`` arm (the
oracle) and a ``vectorized`` arm (production). The sweep deliberately
covers the axes where the kernels take different code paths: epsilon
pruning on/off, ``service_hours > 0`` (exercises the ``(t + service) +
travel`` association), ``max_size`` caps, and degenerate empty/singleton
centers.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import oracle
from repro.core.entities import (
    DeliveryPoint,
    DistributionCenter,
    SpatialTask,
    Worker,
)
from repro.core.instance import SubProblem
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.kernels.cvdps import (
    CenterDP,
    LayoutMatrix,
    center_matrix,
    compute_layers,
)
from repro.obs.tracer import NULL_TRACER
from repro.vdps.catalog import build_catalog
from repro.vdps.delta import DeltaCatalog, catalog_diff
from repro.vdps.generator import (
    DPStats,
    chain_adjacency,
    generate_cvdps,
    generate_tables,
    neighbor_id_map,
)

from tests.conftest import minimal_route

SEEDS = [0, 1, 7, 42]
EPSILONS = [0.8, None]

#: gMission-like (tasks, workers, delivery points) shapes: the sweep's
#: small shape, a 30-point smoke shape, and a large one (800 tasks, 120
#: workers, about 2.4k strategies) that the oracle still builds in a
#: fraction of a second.
SWEEP_SHAPE = (70, 9, 16)
SMOKE_SHAPE = (60, 14, 30)
LARGE_SHAPE = (800, 120, 60)

#: The catalog comparison: the sweep shape at every seed and epsilon, plus
#: the smoke and large shapes at seed 0 with pruning on.
CATALOG_CASES = [
    pytest.param(epsilon, seed, SWEEP_SHAPE, id=f"{epsilon}-{seed}")
    for epsilon in EPSILONS
    for seed in SEEDS
] + [
    pytest.param(0.8, 0, SMOKE_SHAPE, id="0.8-smoke-0"),
    pytest.param(0.8, 0, LARGE_SHAPE, id="0.8-large-0"),
]


def _gm_sub(seed, shape=SWEEP_SHAPE):
    n_tasks, n_workers, n_points = shape
    instance = generate_gmission_like(
        GMissionConfig(
            n_tasks=n_tasks, n_workers=n_workers, n_delivery_points=n_points
        ),
        seed=seed,
    )
    return next(iter(instance.subproblems()))


def _state_tables(sub, epsilon, cap):
    """The DP table and counters of the oracle (``scalar``) and the kernel
    (``vectorized``), same inputs.

    Also checks that the kernel's retained visit orders
    (:attr:`CvdpsTable.paths`, what the delta layer's surgery starts
    from) are the oracle table's, laid out per layer.
    """
    center = sub.center
    points_by_id = {dp.dp_id: dp for dp in center.delivery_points}
    location = center.location
    scalar_stats, vector_stats = DPStats(), DPStats()
    scalar = oracle.compute_states(
        points_by_id,
        neighbor_id_map(center.delivery_points, epsilon),
        sub.travel,
        location,
        cap,
        scalar_stats,
        NULL_TRACER,
        center.center_id,
    )
    points = center.columns
    ids = points.ids
    matrix = center_matrix(points, sub.travel, location)
    job = CenterDP(
        center.center_id,
        points,
        chain_adjacency(points, matrix, sub.travel, epsilon),
        matrix,
        cap,
        vector_stats,
    )
    vectorized = oracle.states_from_layers(compute_layers([job], NULL_TRACER), ids)
    (table,) = generate_tables([center], [sub.travel], [cap], epsilon, NULL_TRACER)
    expected = oracle.paths_from_states(scalar, ids)
    assert len(table.paths) == len(expected)
    for got, want in zip(table.paths, expected):
        assert np.array_equal(got, want)
    stats = {
        tier: (s.states_expanded, s.candidates_tried, s.deadline_rejections)
        for tier, s in (("scalar", scalar_stats), ("vectorized", vector_stats))
    }
    return {"scalar": scalar, "vectorized": vectorized}, stats


def _assert_tables_bit_identical(scalar, vectorized):
    assert set(scalar) == set(vectorized)
    for key, (t_s, path_s) in scalar.items():
        t_v, path_v = vectorized[key]
        assert path_s == path_v, key
        # hex equality is bit equality: a 1-ulp drift or -0.0 fails here
        # where plain == would not.
        assert float(t_s).hex() == float(t_v).hex(), key


class TestCvdpsDifferential:
    """Oracle vs kernel over GM instances and hand-built edge cases."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_gm_state_tables_and_counters(self, seed, epsilon):
        sub = _gm_sub(seed)
        cap = max(w.max_delivery_points for w in sub.online_workers)
        tables, stats = _state_tables(sub, epsilon, cap)
        _assert_tables_bit_identical(tables["scalar"], tables["vectorized"])
        # The kernel mirrors the dict DP's counters exactly.
        assert stats["scalar"] == stats["vectorized"]

    @pytest.mark.parametrize("epsilon, seed, shape", CATALOG_CASES)
    def test_gm_entries_and_catalogs(self, epsilon, seed, shape):
        sub = _gm_sub(seed, shape)
        cap = max(w.max_delivery_points for w in sub.online_workers)
        entries_s = oracle.generate_cvdps(sub.center, sub.travel, epsilon, cap)
        entries_v = generate_cvdps(sub.center, sub.travel, epsilon, cap)
        assert entries_s == entries_v
        catalog_s = oracle.build_catalog(sub, epsilon=epsilon)
        catalog_v = build_catalog(sub, epsilon=epsilon)
        assert not catalog_diff(catalog_s, catalog_v)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("epsilon", [1.5, None])
    def test_service_hours_center(self, cap, epsilon):
        # service_hours > 0 exercises the kernels' (t + service) + travel
        # association; the GM surrogate always has service_hours == 0.
        sub = _service_hours_sub()
        tables, stats = _state_tables(sub, epsilon, cap)
        _assert_tables_bit_identical(tables["scalar"], tables["vectorized"])
        assert stats["scalar"] == stats["vectorized"]
        entries_s = oracle.generate_cvdps(sub.center, sub.travel, epsilon, cap)
        entries_v = generate_cvdps(sub.center, sub.travel, epsilon, cap)
        assert entries_s == entries_v
        if cap > 1:
            assert any(len(e.point_ids) > 1 for e in entries_v)
        assert not catalog_diff(
            oracle.build_catalog(sub, epsilon=epsilon),
            build_catalog(sub, epsilon=epsilon),
        )

    def test_max_size_cap_sweep(self):
        sub = _gm_sub(0)
        for cap in (1, 2, 3):
            tables, _ = _state_tables(sub, 0.8, cap)
            _assert_tables_bit_identical(tables["scalar"], tables["vectorized"])
            assert all(len(subset) <= cap for subset, _ in tables["vectorized"])

    def test_empty_center(self):
        center = DistributionCenter("dc", Point(0.0, 0.0), ())
        travel = TravelModel(speed_kmh=5.0)
        for generate in (oracle.generate_cvdps, generate_cvdps):
            assert generate(center, travel, 0.8, 3) == []
        sub = SubProblem(center, (_worker(0),), travel)
        assert not catalog_diff(
            oracle.build_catalog(sub, epsilon=0.8),
            build_catalog(sub, epsilon=0.8),
        )

    def test_singleton_center(self):
        dp = _dp(0, 0.4, 0.3, expiry=4.0, service=0.25)
        center = DistributionCenter("dc", Point(0.0, 0.0), (dp,))
        travel = TravelModel(speed_kmh=5.0)
        entries = {
            "scalar": oracle.generate_cvdps(center, travel, None, 3),
            "vectorized": generate_cvdps(center, travel, None, 3),
        }
        assert entries["scalar"] == entries["vectorized"]
        assert len(entries["vectorized"]) == 1


class TestBestRouteDifferential:
    """A set's best route is the order the C-VDPS DP records for it, which
    Section IV delays by a worker's start offset."""

    @staticmethod
    def _assert_matches_brute_force(sub, pts, offset):
        scalar, vectorized = (
            minimal_route(pts, sub.travel, sub.center.location, generate)
            for generate in (oracle.generate_cvdps, generate_cvdps)
        )
        assert scalar == vectorized
        route = vectorized
        brute = oracle.brute_force_best_route(
            sub.center.location, pts, sub.travel, offset
        )
        if brute is not None:
            # Feasible with a delay, so feasible without one.
            assert route is not None
        if offset == 0.0:
            assert (brute is None) == (route is None)
            if brute is not None:
                assert brute.completion_time == route.completion_time
        elif route is not None and route.is_valid_with_offset(offset):
            # The delayed recorded order is feasible, so no order beats it.
            assert brute.completion_time == pytest.approx(
                route.completion_time + offset
            )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("offset", [0.0, 0.1])
    def test_matches_scalar_and_brute_force(self, seed, offset):
        sub = _gm_sub(seed)
        for size in (1, 2, 4, 6):
            pts = sub.center.delivery_points[:size]
            self._assert_matches_brute_force(sub, pts, offset)

    def test_service_hours_routes(self):
        sub = _service_hours_sub()
        self._assert_matches_brute_force(sub, sub.center.delivery_points[:5], 0.0)


# -- DeltaCatalog surgery vs oracle rebuilds ----------------------------------

_TRAVEL = TravelModel(speed_kmh=1.0)
_EPSILON = 2.5

coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
expiry = st.floats(min_value=0.2, max_value=12.0, allow_nan=False)


def _dp(i, x, y, expiry=6.0, service=0.0, n_tasks=1):
    tasks = tuple(
        SpatialTask(f"t{i}_{k}", f"dp{i}", expiry + 0.1 * k)
        for k in range(n_tasks)
    )
    return DeliveryPoint(f"dp{i}", Point(x, y), tasks, service)


def _worker(i, cap=3):
    return Worker(f"w{i}", Point(0.1 * i, -0.2), cap, center_id="dc")


def _service_hours_sub():
    points = tuple(
        _dp(i, 0.3 * (i + 1), 0.2 * (i % 3), expiry=3.0 + 0.5 * i,
            service=0.05 * (i + 1), n_tasks=1 + i % 2)
        for i in range(6)
    )
    center = DistributionCenter("dc", Point(0.0, 0.0), points)
    workers = tuple(_worker(i, cap=1 + i % 3) for i in range(4))
    return SubProblem(center, workers, TravelModel(speed_kmh=5.0))


def _churn_sub(points, workers):
    center = DistributionCenter("dc", Point(0.0, 0.0), tuple(points.values()))
    return SubProblem(center, tuple(workers), _TRAVEL)


class TestDeltaOverVectorizedBase:
    """Delta surgery on a kernel-built table ≡ oracle rebuilds, always."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_churn_stays_identical_to_scalar_rebuild(self, data):
        points = {
            f"dp{i}": _dp(
                i,
                data.draw(coordinate, label=f"x{i}"),
                data.draw(coordinate, label=f"y{i}"),
                expiry=data.draw(expiry, label=f"e{i}"),
            )
            for i in range(4)
        }
        workers = [_worker(i) for i in range(3)]
        # rebuild_fraction=10 forces the surgery path even when one churn
        # step touches a large share of this tiny center.
        delta = DeltaCatalog(
            _churn_sub(points, workers),
            epsilon=_EPSILON,
            rebuild_fraction=10,
        )
        delta.refresh(_churn_sub(points, workers))
        next_task = [100]

        def add_task(dp_id):
            next_task[0] += 1
            task = SpatialTask(
                f"t{next_task[0]}", dp_id, data.draw(expiry, label="new expiry")
            )
            dp = points[dp_id]
            points[dp_id] = dp.with_tasks(dp.tasks + (task,))

        def move_deadline(dp_id):
            dp = points[dp_id]
            if not dp.tasks:
                return
            moved = SpatialTask(
                dp.tasks[0].task_id,
                dp_id,
                data.draw(expiry, label="moved expiry"),
                dp.tasks[0].reward,
            )
            points[dp_id] = dp.with_tasks((moved,) + dp.tasks[1:])

        def drop_task(dp_id):
            dp = points[dp_id]
            points[dp_id] = dp.with_tasks(dp.tasks[1:])

        ops = [add_task, move_deadline, drop_task]
        for step in range(data.draw(st.integers(2, 5), label="steps")):
            op = data.draw(st.sampled_from(ops), label=f"op{step}")
            dp_id = data.draw(
                st.sampled_from(sorted(points)), label=f"dp{step}"
            )
            op(dp_id)
            sub = _churn_sub(points, workers)
            refreshed = delta.refresh(sub)
            rebuilt = oracle.build_catalog(sub, epsilon=_EPSILON)
            assert not catalog_diff(refreshed, rebuilt)

    def test_worker_churn_and_cross_tier_equality(self):
        points = {f"dp{i}": _dp(i, 0.5 * i, 0.3, expiry=5.0) for i in range(3)}
        workers = [_worker(i) for i in range(2)]
        delta = DeltaCatalog(
            _churn_sub(points, workers),
            epsilon=_EPSILON,
            rebuild_fraction=10,
        )
        delta.refresh(_churn_sub(points, workers))
        workers.append(_worker(7, cap=1))
        sub = _churn_sub(points, workers)
        refreshed = delta.refresh(sub)
        for build in (oracle.build_catalog, build_catalog):
            assert not catalog_diff(refreshed, build(sub, epsilon=_EPSILON))


# -- The array-native catalog build vs the oracle ---------------------------


def _assert_array_native_matches_scalar(sub, epsilon):
    """Both array-native builds ≡ :func:`repro.oracle.build_catalog`.

    The array-native path serves ``build_catalog`` and ``DeltaCatalog``'s
    rebuild; the latter is also checked under seeded churn through the
    surgery path (:func:`_assert_delta_churn_matches_scalar`), whose first
    delta derives the surgery tables from that rebuild.
    """
    expected = oracle.build_catalog(sub, epsilon=epsilon)
    for catalog in (
        build_catalog(sub, epsilon=epsilon),
        DeltaCatalog(sub, epsilon=epsilon).catalog,
    ):
        diffs = catalog_diff(catalog, expected, check_index=True)
        assert not diffs, diffs
    _assert_delta_churn_matches_scalar(sub, epsilon)
    return expected


def _churn_step(sub, rng, step):
    """``sub`` with one or two delivery points' tasks churned.

    Each picked point gains a task, has its first deadline moved, or
    loses its first task.  Workers, service times and the layout stay as
    they are, so every unchanged worker (speed-scaled ones included) is
    patched by surgery rather than revalidated.
    """
    points = list(sub.center.delivery_points)
    expiries = [t.expiry for dp in points for t in dp.tasks] or [1.0]
    low, high = min(expiries), max(expiries)
    for k in rng.choice(len(points), size=min(2, len(points)), replace=False):
        dp = points[k]
        op = int(rng.integers(3))
        if op == 0 or not dp.tasks:
            task = SpatialTask(
                f"churn{step}_{k}",
                dp.dp_id,
                float(rng.uniform(low, high)),
                float(rng.uniform(0.5, 2.0)),
            )
            points[k] = dp.with_tasks(dp.tasks + (task,))
        elif op == 1:
            moved = dataclasses.replace(
                dp.tasks[0], expiry=float(rng.uniform(low, high))
            )
            points[k] = dp.with_tasks((moved,) + dp.tasks[1:])
        else:
            points[k] = dp.with_tasks(dp.tasks[1:])
    center = DistributionCenter(
        sub.center.center_id, sub.center.location, tuple(points)
    )
    return SubProblem(center, sub.workers, sub.travel)


def _assert_delta_churn_matches_scalar(sub, epsilon, steps=4):
    """Surgery refreshes ≡ oracle (``scalar``) and production
    (``vectorized``) rebuilds at every step.

    ``rebuild_fraction=10`` keeps every churned refresh on the delta path,
    so the added entries of each step go through the unchanged workers'
    scan — the array scan, or the speed-scaled workers' ``validate_entry``
    loop.
    """
    if not sub.center.delivery_points:
        return
    rng = np.random.default_rng(len(sub.center.delivery_points))
    delta = DeltaCatalog(sub, epsilon=epsilon, rebuild_fraction=10)
    current = sub
    for step in range(steps):
        current = _churn_step(current, rng, step)
        refreshed = delta.refresh(current)
        assert delta._last_path == "delta"
        for tier, build in (
            ("scalar", oracle.build_catalog),
            ("vectorized", build_catalog),
        ):
            diffs = catalog_diff(
                refreshed, build(current, epsilon=epsilon), check_index=True
            )
            assert not diffs, (tier, step, diffs)


def _with_service_hours(sub, seed):
    """Handover times at every point, and uneven task rewards.

    Uneven rewards make a route's reward depend on summation order, so a
    reward summed in any order other than ``Route.total_reward``'s shows.
    """
    rng = np.random.default_rng(seed)
    points = tuple(
        dataclasses.replace(
            dp,
            service_hours=float(rng.uniform(0.0, 0.02)),
            tasks=tuple(
                dataclasses.replace(t, reward=float(rng.uniform(0.1, 3.0)))
                for t in dp.tasks
            ),
        )
        for dp in sub.center.delivery_points
    )
    center = DistributionCenter(sub.center.center_id, sub.center.location, points)
    return SubProblem(center, sub.workers, sub.travel)


def _with_speeds(sub, seed):
    """Every other worker moves at its own speed (factor != 1)."""
    rng = np.random.default_rng(seed)
    workers = tuple(
        dataclasses.replace(w, speed_kmh=float(rng.uniform(2.0, 9.0)))
        if k % 2 else w
        for k, w in enumerate(sub.workers)
    )
    return SubProblem(sub.center, workers, sub.travel)


class TestArrayNativeBuild:
    """Seed-swept: the array-native build is the oracle build, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_gm_centers(self, seed, epsilon):
        expected = _assert_array_native_matches_scalar(_gm_sub(seed), epsilon)
        assert expected.total_strategy_count > 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_service_hours(self, seed, epsilon):
        sub = _with_service_hours(_gm_sub(seed), seed)
        expected = _assert_array_native_matches_scalar(sub, epsilon)
        # Unpruned, chains form, so (t + service) + travel really runs.
        assert epsilon is not None or expected.max_vdps_size > 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_speed_scaled_workers(self, seed):
        sub = _with_speeds(_with_service_hours(_gm_sub(seed), seed), seed)
        _assert_array_native_matches_scalar(sub, 0.8)
        _assert_array_native_matches_scalar(_with_speeds(_gm_sub(seed), seed), None)

    def test_empty_center(self):
        center = DistributionCenter("dc", Point(0.0, 0.0), ())
        sub = SubProblem(center, (_worker(0), _worker(1)), _TRAVEL)
        expected = _assert_array_native_matches_scalar(sub, 0.8)
        assert expected.cvdps_count == 0

    def test_cap_zero(self):
        # No online worker: maxDP over an empty pool is 0, so no C-VDPS
        # is generated even though the center has points.
        sub = _gm_sub(0)
        offline = tuple(dataclasses.replace(w, online=False) for w in sub.workers)
        sub = SubProblem(sub.center, offline, sub.travel)
        expected = _assert_array_native_matches_scalar(sub, 0.8)
        assert expected.cvdps_count == 0 and not expected.workers


def _lopsided(a, b):
    """An asymmetric metric: the pair order a cache uses shows in its bits."""
    return abs(a.x - b.x) + 2.0 * max(a.y - b.y, 0.0) + 0.7 * max(b.y - a.y, 0.0)


class TestLayoutMatrix:
    """The cross-round travel-matrix cache ≡ a fresh ``TravelModel.matrix``."""

    @pytest.mark.parametrize("metric", ["euclidean", _lopsided])
    def test_gathers_equal_fresh_matrices(self, metric):
        travel = TravelModel(speed_kmh=4.0, metric=metric)
        rng = np.random.default_rng(3)
        pool = {
            f"dp{i:02d}": Point(*map(float, rng.uniform(-3.0, 3.0, 2)))
            for i in range(30)
        }
        pool["dp07"] = pool["dp03"]  # co-located points are 0.0 apart
        origin = Point(0.1, -0.2)
        layout = LayoutMatrix()
        for step in range(14):
            if step == 6:
                pool["dp03"] = Point(2.5, 2.5)  # a point moved: start over
            if step == 10:
                origin = Point(-1.0, 0.4)  # another origin: start over
            size = int(rng.integers(1, 20))
            ids = sorted(rng.choice(sorted(pool), size=size, replace=False))
            locations = [pool[dp_id] for dp_id in ids]
            got = layout.matrix(ids, locations, travel, origin)
            want = travel.matrix(locations, origin=origin)
            for name in ("distances", "times", "origin_times"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_equal_locations_keep_the_cache(self):
        # Locations are compared by identity first, then by value: equal
        # points in new objects keep every cached distance, and one point
        # that moved starts the cache over.
        travel = TravelModel(speed_kmh=1.0)
        origin = Point(0.0, 0.0)
        ids = ["a", "b", "c"]
        first = [Point(0.0, 1.0), Point(1.0, 0.0), Point(2.0, 2.0)]
        layout = LayoutMatrix()
        layout.matrix(ids, first, travel, origin)
        cached = layout._distances
        copies = [Point(p.x, p.y) for p in first]
        layout.matrix(ids, copies, travel, origin)
        assert layout._distances is cached
        moved = copies[:2] + [Point(2.0, 2.5)]
        got = layout.matrix(ids, moved, travel, origin)
        assert layout._distances is not cached
        want = travel.matrix(moved, origin=origin)
        assert got.distances.tobytes() == want.distances.tobytes()
