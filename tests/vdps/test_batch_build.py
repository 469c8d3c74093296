"""Differential tests: a stacked multi-center build ≡ one build per center.

:func:`~repro.vdps.catalog.build_batch` runs one C-VDPS DP, one entry
layout and one validation scan over every center of a batch, then splits
the result back into per-center catalogs.  Each of those catalogs must be
bit-identical to the center's own ``build_catalog``: an empty
:func:`catalog_diff` (strategies, routes, payoffs and the
:class:`CatalogIndex` bit layout), the same ``cvdps.*`` and
``catalog.strategies_built`` counts, and the same per-center
``cvdps.layer`` tracer events.  Hypothesis draws random multi-center
worlds; the seeded cases pin what a random draw may miss: centers with
different ``maxDP`` caps, a center with no feasible state, a center wider
than one 64-bit mask word, no pruning, a non-Euclidean metric,
speed-scaled workers and strict revalidation.  Every case runs under the
process kernel tier (CI runs this file under both ``REPRO_KERNEL`` tiers).
"""

import hypothesis.strategies as st
from hypothesis import given

from repro.core.entities import DeliveryPoint, DistributionCenter, SpatialTask, Worker
from repro.core.instance import SubProblem
from repro.geo.point import Point
from repro.geo.travel import TravelModel
from repro.kernels.cvdps import LayoutMatrix
from repro.obs.metrics import METRICS
from repro.obs.tracer import MemoryTracer
from repro.vdps.catalog import build_batch, build_catalog
from repro.vdps.delta import DeltaCatalog, catalog_diff

COUNTERS = (
    "cvdps.states_expanded",
    "cvdps.candidates_tried",
    "cvdps.deadline_rejections",
    "cvdps.pruned_pairs",
    "catalog.strategies_built",
)
LAYER_FIELDS = ("center", "size", "states", "candidates", "deadline_rejections")


def _counts():
    return {name: METRICS.counter(name).value for name in COUNTERS}


def _layer_events(tracer):
    return [
        tuple(record[field] for field in LAYER_FIELDS)
        for record in tracer.records
        if record["kind"] == "cvdps.layer"
    ]


def _assert_batch_matches(subs, epsilon, strict=False):
    """Build ``subs`` as one batch and one by one; both must agree exactly."""
    batch_tracer = MemoryTracer()
    before = _counts()
    built = build_batch(subs, epsilon, strict, tracer=batch_tracer)
    batch_counts = {k: v - before[k] for k, v in _counts().items()}

    single_tracer = MemoryTracer()
    before = _counts()
    singles = [
        build_catalog(
            sub, epsilon=epsilon, strict_revalidation=strict, tracer=single_tracer
        )
        for sub in subs
    ]
    single_counts = {k: v - before[k] for k, v in _counts().items()}

    assert len(built) == len(subs)
    for sub, (catalog, _), single in zip(subs, built, singles):
        diffs = catalog_diff(catalog, single)
        assert not diffs, f"center {sub.center.center_id}: " + "; ".join(diffs)
    assert batch_counts == single_counts
    assert _layer_events(batch_tracer) == _layer_events(single_tracer)
    return built


def _dp(dp_id, x, y, *expiries, service=0.0, reward=1.0):
    tasks = tuple(
        SpatialTask(f"{dp_id}_t{i}", dp_id, e, reward) for i, e in enumerate(expiries)
    )
    return DeliveryPoint(dp_id, Point(x, y), tasks, service)


def _sub(center_id, origin, points, workers, travel):
    center = DistributionCenter(center_id, Point(*origin), tuple(points))
    return SubProblem(center, tuple(workers), travel)


def _worker(wid, center_id, x, y, cap, speed=None):
    return Worker(
        wid, Point(x, y), max_delivery_points=cap, center_id=center_id, speed_kmh=speed
    )


def _ring(center_id, origin, n, expiry=6.0, radius=1.0):
    """``n`` points around ``origin``, deterministic, two tasks each."""
    ox, oy = origin
    points = []
    for i in range(n):
        dx = radius * ((i * 37) % 11 - 5) / 5.0
        dy = radius * ((i * 53) % 13 - 6) / 6.0
        points.append(
            _dp(f"{center_id}-p{i:02d}", ox + dx, oy + dy, expiry, expiry + 1.0)
        )
    return points


def _fleet(center_id, origin, caps, speed=None, tag="w"):
    ox, oy = origin
    return [
        _worker(
            f"{center_id}-{tag}{k}", center_id, ox + 0.1 * k, oy - 0.05 * k, cap, speed
        )
        for k, cap in enumerate(caps)
    ]


TRAVEL = TravelModel(speed_kmh=1.0)


def _plain(center_id, origin, n, caps, travel=TRAVEL):
    """A ring of ``n`` points served by a fleet with ``caps``."""
    points = _ring(center_id, origin, n)
    return _sub(center_id, origin, points, _fleet(center_id, origin, caps), travel)


class TestSeededBatches:
    """The named corner cases, each against per-center builds."""

    def test_centers_with_different_caps(self):
        subs = [
            _plain("a", (0, 0), 6, [1]),
            _plain("b", (9, 0), 7, [4, 2]),
            _plain("c", (0, 9), 5, [2]),
        ]
        _assert_batch_matches(subs, 1.5)

    def test_center_without_feasible_state(self):
        # Every deadline of "dead" is shorter than any center leg, so its DP
        # seeds nothing while its batch neighbours expand normally.
        dead = [_dp("d0", 5.0, 5.0, 0.1), _dp("d1", 5.5, 4.0, 0.2)]
        subs = [
            _plain("a", (0, 0), 5, [3]),
            _sub("dead", (0, 0), dead, _fleet("dead", (0, 0), [3]), TRAVEL),
            _plain("z", (4, 4), 4, [2]),
        ]
        built = _assert_batch_matches(subs, 2.0)
        assert built[1][0].cvdps_count == 0
        assert built[0][0].cvdps_count and built[2][0].cvdps_count

    def test_center_wider_than_one_mask_word(self):
        # 70 points on a line, each a pruning neighbour of the next only:
        # two-word subset masks beside a one-word center.
        line = [
            _dp(f"l{i:02d}", 0.1 * (i + 1), 0.0, 20.0, reward=1.0 + i % 3)
            for i in range(70)
        ]
        subs = [
            _sub("line", (0, 0), line, _fleet("line", (0, 0), [3, 1]), TRAVEL),
            _plain("s", (3, 3), 4, [2]),
        ]
        built = _assert_batch_matches(subs, 0.15)
        assert built[0][0].index.n_words == 2

    def test_without_pruning(self):
        subs = [
            _plain("a", (0, 0), 5, [3]),
            _plain("b", (5, 0), 4, [2, 4]),
        ]
        _assert_batch_matches(subs, None)

    def test_non_euclidean_metric(self):
        travel = TravelModel(speed_kmh=1.0, metric="manhattan")
        subs = [
            _plain("a", (0, 0), 6, [3], travel),
            _plain("b", (5, 0), 5, [2], travel),
        ]
        _assert_batch_matches(subs, 1.2)

    def test_speed_scaled_workers(self):
        # Speed-scaled workers take the scalar loop, unit-speed ones the
        # batch scan, within the same centers.
        subs = [
            _sub(
                "a",
                (0, 0),
                _ring("a", (0, 0), 6, expiry=3.0),
                _fleet("a", (0, 0), [3], speed=2.0) + _fleet("a", (0, 0), [2], tag="u"),
                TRAVEL,
            ),
            _sub(
                "b",
                (5, 0),
                _ring("b", (5, 0), 5, expiry=3.0),
                _fleet("b", (5, 0), [2], speed=0.5),
                TRAVEL,
            ),
        ]
        _assert_batch_matches(subs, 1.5)

    def test_strict_revalidation(self):
        subs = [
            _sub(
                "a",
                (0, 0),
                _ring("a", (0, 0), 6, expiry=2.5),
                _fleet("a", (0, 0), [3, 3]),
                TRAVEL,
            ),
            _plain("b", (5, 0), 4, [2]),
        ]
        _assert_batch_matches(subs, 1.5, strict=True)

    def test_centers_without_points_or_workers(self):
        subs = [
            _sub("empty", (0, 0), [], _fleet("empty", (0, 0), [2]), TRAVEL),
            _plain("a", (0, 0), 5, [2]),
            _sub("idle", (3, 0), _ring("idle", (3, 0), 3), [], TRAVEL),
        ]
        _assert_batch_matches(subs, 1.5)

    def test_scan_split_into_worker_chunks(self, monkeypatch):
        # A budget smaller than one worker's visits scans every worker
        # alone; a middling one groups a few.  Neither changes a result.
        from repro.kernels import validate

        subs = [
            _plain("a", (0, 0), 6, [3, 2, 1]),
            _plain("b", (9, 0), 5, [4, 2]),
        ]
        for budget in (1, 40):
            monkeypatch.setattr(validate, "_CHUNK_CELLS", budget)
            _assert_batch_matches(subs, 1.5)

    def test_batched_table_serves_delta_surgery(self):
        # A DeltaCatalog adopting a batch-built table (not the batch's
        # first center) must derive the same surgery state as its own
        # build: a sparse refresh afterwards equals a rebuild.
        subs = [
            _plain("a", (0, 0), 5, [3]),
            _plain("b", (5, 0), 6, [3]),
        ]
        layouts = [LayoutMatrix(), LayoutMatrix()]
        built = build_batch(subs, 1.5, layouts=layouts)
        catalog, table = built[1]
        delta = DeltaCatalog.from_build(
            subs[1], catalog, table, layouts[1], epsilon=1.5, rebuild_fraction=10.0
        )
        points = list(subs[1].center.delivery_points)
        points[2] = _dp(points[2].dp_id, *points[2].location, 1.0, 7.5)
        churned = _sub("b", (5, 0), points, subs[1].workers, TRAVEL)
        before = METRICS.counter("catalog.delta_applies").value
        refreshed = delta.refresh(churned)
        assert METRICS.counter("catalog.delta_applies").value == before + 1
        diffs = catalog_diff(refreshed, build_catalog(churned, epsilon=1.5))
        assert not diffs, "; ".join(diffs)


# -- Hypothesis: random multi-center worlds ----------------------------------

coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
expiry = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


@st.composite
def centers(draw, index, speed_scaled):
    cid = f"c{index}"
    origin = (10.0 * index, 0.0)
    n_points = draw(st.integers(min_value=0, max_value=7))
    points = []
    for i in range(n_points):
        points.append(
            _dp(
                f"{cid}-p{i}",
                origin[0] + draw(coordinate),
                origin[1] + draw(coordinate),
                *draw(st.lists(expiry, max_size=2)),
                service=draw(st.sampled_from([0.0, 0.1])),
                reward=draw(st.sampled_from([1.0, 2.5])),
            )
        )
    n_workers = draw(st.integers(min_value=0, max_value=3))
    workers = []
    for k in range(n_workers):
        speed = draw(st.sampled_from([None, 0.5, 2.0])) if speed_scaled else None
        workers.append(
            _worker(
                f"{cid}-w{k}",
                cid,
                origin[0] + draw(coordinate),
                origin[1] + draw(coordinate),
                draw(st.integers(min_value=1, max_value=4)),
                speed,
            )
        )
    return cid, origin, points, workers


@st.composite
def worlds(draw):
    metric = draw(st.sampled_from(["euclidean", "manhattan"]))
    travel = TravelModel(speed_kmh=1.0, metric=metric)
    speed_scaled = draw(st.booleans())
    n_centers = draw(st.integers(min_value=1, max_value=4))
    subs = [
        _sub(cid, origin, points, workers, travel)
        for cid, origin, points, workers in (
            draw(centers(i, speed_scaled)) for i in range(n_centers)
        )
    ]
    epsilon = draw(st.one_of(st.none(), st.floats(min_value=0.3, max_value=3.0)))
    return subs, epsilon, draw(st.booleans())


@given(worlds())
def test_random_batches_match_per_center_builds(world):
    subs, epsilon, strict = world
    _assert_batch_matches(subs, epsilon, strict)
