"""Supervised shard pool: hashing, bit-identity, facade surface, HTTP.

The contract under test (``docs/fault_tolerance.md``): routing centers
across N worker processes is an *implementation detail* — every per-center
stream depends only on (seed, round index, solver name, center id), so the
sharded engine must produce bit-identical rounds to the single-process
engine, and the facade must present the same duck-typed surface the HTTP
layer already speaks.

Every arm sets ``solve_deadline_s`` so an inherited ``REPRO_FAULTS`` (the
chaos-smoke CI job exports one) cannot put one arm on the fault-tolerant
ladder and not the other.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.mpta import MPTASolver
from repro.geo.travel import TravelModel
from repro.service import DispatchClient, DispatchEngine, ServiceUnavailable
from repro.service.api import DispatchServer
from repro.service.engine import EngineDraining
from repro.service.shards import (
    ShardedDispatchEngine,
    plan_shards,
    shard_for,
)
from repro.service.state import WorldState

from tests.service.conftest import (
    fleet,
    four_center_city,
    seed_tasks,
    two_center_layout,
)

ROUND_KEYS = (
    "round",
    "now",
    "assigned_tasks",
    "assignments",
    "payoffs",
    "payoff_difference",
    "average_payoff",
    "pending_tasks",
    "available_workers",
)


def make_sharded(shards: int = 2, centers=None, **kw) -> ShardedDispatchEngine:
    """A pool over ``centers`` (default: the standard two-center layout)."""
    kw.setdefault("travel", TravelModel())
    kw.setdefault("seed", 7)
    kw.setdefault("solve_deadline_s", 30.0)
    kw.setdefault("heartbeat_timeout_s", 5.0)
    kw.setdefault("journal_fsync", False)
    return ShardedDispatchEngine(
        centers or two_center_layout(), MPTASolver(), shards=shards, **kw
    )


def seed_sharded(engine: ShardedDispatchEngine) -> None:
    """The same fleet and queue ``make_world`` seeds, through the view."""
    accepted, rejected = engine.state.add_workers(fleet())
    assert len(accepted) == 3 and not rejected
    accepted, rejected = engine.state.add_tasks(seed_tasks())
    assert len(accepted) == 6 and not rejected


class TestHashing:
    """The stable center -> shard map every process must agree on."""

    def test_shard_for_is_deterministic_and_in_range(self):
        for cid in (f"c{i}" for i in range(50)):
            k = shard_for(cid, 4)
            assert 0 <= k < 4
            assert shard_for(cid, 4) == k  # pure function of the inputs

    def test_shard_for_is_minimally_disruptive(self):
        # The rendezvous property: growing the pool only ever moves a
        # center onto the *new* shard, never between survivors.
        for cid in (f"center-{i}" for i in range(80)):
            before = shard_for(cid, 3)
            after = shard_for(cid, 4)
            assert after in (before, 3)

    def test_plan_shards_partitions_every_center(self):
        ids = [f"c{i}" for i in range(11)]
        plan = plan_shards(ids, 3)
        assert sorted(plan) == [0, 1, 2]
        seen = [cid for group in plan.values() for cid in group]
        assert sorted(seen) == sorted(ids)
        assert all(group for group in plan.values())  # no empty shard

    def test_plan_shards_rejects_more_shards_than_centers(self):
        with pytest.raises(ValueError):
            plan_shards(["only"], 2)


class TestBitIdentity:
    """Shard layout must never change results (the tentpole gate)."""

    def test_two_shards_match_single_process(self):
        # The standard two-center world for 3 rounds, then the four-center
        # city for 4 rounds at another seed.
        cases = [
            (two_center_layout(), fleet(), seed_tasks(), 7, 3),
            (*four_center_city(), 0, 4),
        ]
        for centers, workers, tasks, seed, rounds in cases:
            world = WorldState(centers, workers=workers, travel=TravelModel())
            world.add_tasks(tasks)
            single = DispatchEngine(
                world, MPTASolver(), seed=seed, solve_deadline_s=30.0
            )
            want = [
                single.dispatch(advance_hours=0.25).as_dict()
                for _ in range(rounds)
            ]
            sharded = make_sharded(centers=centers, seed=seed)
            try:
                sharded.state.add_workers(workers)
                sharded.state.add_tasks(tasks)
                got = [
                    sharded.dispatch(advance_hours=0.25).as_dict()
                    for _ in range(rounds)
                ]
            finally:
                sharded.begin_drain()
                sharded.drain()
            assert len(got) == rounds
            for round_index, (a, b) in enumerate(zip(want, got)):
                for key in ROUND_KEYS:
                    assert a[key] == b[key], (seed, round_index, key)


class TestFacadeSurface:
    """The view the HTTP layer and CLI speak, fanned out over RPC."""

    def test_view_merges_partition_counts(self):
        engine = make_sharded()
        try:
            seed_sharded(engine)
            view = engine.state
            assert view.pending_task_count == 6
            assert view.worker_count == 3
            assert view.available_worker_count() == 3
            stats = view.worker_stats()
            assert list(stats) == ["wa1", "wa2", "wb1"]
            assert stats["wa1"]["center_id"] == "A"
            assert stats["wb1"]["center_id"] == "B"
            assert view.fingerprint() == view.fingerprint()
            assert view.journal is None  # segments live in the workers
            assert view.equity is None  # documented sharded scope cut
        finally:
            engine.begin_drain()
            engine.drain()

    def test_worker_without_center_attaches_to_nearest(self):
        engine = make_sharded()
        try:
            accepted, rejected = engine.state.add_workers(
                [
                    {"worker_id": "roam", "x": 9.8, "y": 0.2},
                    {"worker_id": "lost", "x": 0.0, "y": 0.0, "center_id": "Z"},
                ]
            )
            assert accepted == ["roam"]
            assert [r.item_id for r in rejected] == ["lost"]
            stats = engine.state.worker_stats()
            assert stats["roam"]["center_id"] == "B"  # nearest on the map
        finally:
            engine.begin_drain()
            engine.drain()

    def test_unknown_delivery_point_is_rejected_locally(self):
        engine = make_sharded()
        try:
            accepted, rejected = engine.state.add_tasks(
                [{"task_id": "tx", "dp_id": "nope", "expiry": 2.0}]
            )
            assert accepted == []
            assert [r.item_id for r in rejected] == ["tx"]
        finally:
            engine.begin_drain()
            engine.drain()

    def test_draining_pool_refuses_dispatch(self):
        engine = make_sharded()
        try:
            seed_sharded(engine)
            engine.begin_drain()
            assert engine.draining
            with pytest.raises(EngineDraining):
                engine.dispatch()
        finally:
            engine.drain()

    def test_shard_health_reports_live_partitions(self):
        engine = make_sharded()
        try:
            health = engine.shard_health()
            assert sorted(health) == ["0", "1"]
            assert all(h["status"] == "live" for h in health.values())
            assert sorted(
                cid for h in health.values() for cid in h["centers"]
            ) == ["A", "B"]
        finally:
            engine.begin_drain()
            engine.drain()


class TestRoundTiming:
    """A round's ``duration_seconds`` covers the same work as a timer
    around :meth:`ShardedDispatchEngine.dispatch`: the merge and the
    telemetry after it included."""

    def test_duration_includes_a_slow_merge(self, monkeypatch):
        delay = 0.05
        marks = {}
        dispatch_round = ShardedDispatchEngine._dispatch_round
        merge = ShardedDispatchEngine._merge

        def marked_round(self, *args):
            marks["entered"] = time.perf_counter()
            return dispatch_round(self, *args)

        def slow_merge(self, *args):
            time.sleep(delay)
            merged = merge(self, *args)
            marks["merged"] = time.perf_counter()
            return merged

        monkeypatch.setattr(ShardedDispatchEngine, "_dispatch_round", marked_round)
        monkeypatch.setattr(ShardedDispatchEngine, "_merge", slow_merge)
        engine = make_sharded()
        try:
            seed_sharded(engine)
            begin = time.perf_counter()
            result = engine.dispatch()
            outer = time.perf_counter() - begin
        finally:
            engine.begin_drain()
            engine.drain()
        assert result.committed and result.assigned_tasks > 0
        covered = marks["merged"] - marks["entered"]
        assert covered >= delay
        assert covered <= result.duration_seconds <= outer
        assert engine.history[-1] is result


class TestShardedHTTP:
    """The HTTP layer over a sharded engine: healthz, SLOs, dispatch."""

    def test_serves_rounds_and_reports_shards(self):
        engine = make_sharded()
        try:
            with DispatchServer(engine, port=0) as server:
                client = DispatchClient(server.url, timeout=10.0, retries=1)
                client.wait_healthy(timeout=15.0)
                seed_sharded(engine)
                record = client.dispatch(advance_hours=0.25)
                assert record["round"] == 0
                health = client.health()
                assert health["status"] == "ok"
                assert sorted(health["shards"]) == ["0", "1"]
                assert health["shards_down"] == []
                slo = client.slo()
                names = [o["name"] for o in slo["objectives"]]
                assert "shard_liveness" in names
        finally:
            engine.begin_drain()
            engine.drain()

    def test_dead_shard_turns_healthz_503(self):
        engine = make_sharded()
        try:
            with DispatchServer(engine, port=0) as server:
                client = DispatchClient(server.url, timeout=10.0, retries=0)
                client.wait_healthy(timeout=15.0)
                engine.supervisor.kill_shard(0)
                health = client.health()  # unwraps the 503 payload
                assert health["status"] == "degraded"
                assert "0" in health["shards_down"]
                # The monitor revives the shard; liveness must recover.
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    health = client.health()
                    if not health["shards_down"]:
                        break
                    time.sleep(0.1)
                assert health["shards_down"] == []
                assert health["status"] == "ok"
        finally:
            engine.begin_drain()
            engine.drain()

    def test_draining_healthz_is_503(self):
        engine = make_sharded()
        try:
            with DispatchServer(engine, port=0) as server:
                client = DispatchClient(server.url, timeout=10.0, retries=0)
                client.wait_healthy(timeout=15.0)
                engine.begin_drain()
                assert client.health()["status"] == "draining"
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.dispatch()
                assert excinfo.value.status == 503
        finally:
            engine.drain()
