"""Shard crash-recovery: SIGKILL, respawn, journal replay, torn tails.

The hard gate of the supervised pool (``docs/fault_tolerance.md``): a
shard process may die at any moment — chaos-killed before a round, OS-
killed between rounds, or mid-append leaving a torn journal line — and
the pool must respawn it, replay its segment, and end bit-identical to a
run where nothing ever died.  "Identical" here is literal: every round
record and the facade fingerprint are compared field by field.

All arms set ``solve_deadline_s`` so an inherited ``REPRO_FAULTS`` puts
every engine on the same fault-tolerant ladder.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.baselines.mpta import MPTASolver
from repro.geo.travel import TravelModel
from repro.service.faults import FaultPlan, tear_journal_tail
from repro.service.shards import ShardedDispatchEngine

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
)


def make_pool(
    journal_dir, faults=None, centers=None, seed=7
) -> ShardedDispatchEngine:
    return ShardedDispatchEngine(
        centers or two_center_layout(),
        MPTASolver(),
        travel=TravelModel(),
        shards=2,
        seed=seed,
        solve_deadline_s=30.0,
        heartbeat_timeout_s=5.0,
        faults=faults,
        journal_dir=journal_dir,
        journal_fsync=False,
    )


def seed_pool(engine: ShardedDispatchEngine, workers=None, tasks=None) -> None:
    engine.state.add_workers(workers or fleet())
    engine.state.add_tasks(tasks or seed_tasks())


def run_rounds(engine: ShardedDispatchEngine, rounds: int):
    return [
        engine.dispatch(advance_hours=0.25).as_dict() for _ in range(rounds)
    ]


def assert_rounds_equal(want, got):
    assert len(want) == len(got)
    for index, (a, b) in enumerate(zip(want, got)):
        for key in ROUND_KEYS:
            assert a[key] == b[key], (index, key)


class TestKillAndRecover:
    """A murdered shard must come back and change nothing."""

    def test_chaos_kill_is_bit_identical(self, tmp_path):
        # The standard two-center world, then the four-center city at
        # another seed.
        cases = [
            ("two", two_center_layout(), fleet(), seed_tasks(), 7),
            ("four", *four_center_city(), 0),
        ]
        for name, centers, workers, tasks, seed in cases:
            clean = make_pool(
                tmp_path / name / "clean", centers=centers, seed=seed
            )
            try:
                seed_pool(clean, workers, tasks)
                want = run_rounds(clean, 4)
                clean_fp = clean.state.fingerprint()
            finally:
                clean.begin_drain()
                clean.drain()

            chaos = make_pool(
                tmp_path / name / "chaos",
                faults=FaultPlan(shard_kill_round=2, shard_kill_index=0),
                centers=centers,
                seed=seed,
            )
            try:
                seed_pool(chaos, workers, tasks)
                got = run_rounds(chaos, 4)
                chaos_fp = chaos.state.fingerprint()
                respawns = sum(
                    h["respawns"] for h in chaos.shard_health().values()
                )
            finally:
                chaos.begin_drain()
                chaos.drain()

            assert respawns >= 1, name
            assert_rounds_equal(want, got)
            assert chaos_fp == clean_fp, name

    def test_os_sigkill_between_rounds_is_bit_identical(self, tmp_path):
        clean = make_pool(tmp_path / "clean")
        try:
            seed_pool(clean)
            want = run_rounds(clean, 4)
            clean_fp = clean.state.fingerprint()
        finally:
            clean.begin_drain()
            clean.drain()

        victim = make_pool(tmp_path / "victim")
        try:
            seed_pool(victim)
            got = run_rounds(victim, 2)
            pid = victim.shard_health()["1"]["pid"]
            os.kill(pid, signal.SIGKILL)
            # The next dispatch finds the corpse, respawns, replays the
            # segment, and re-drives the round on the fresh incarnation.
            got += run_rounds(victim, 2)
            victim_fp = victim.state.fingerprint()
            respawns = sum(
                h["respawns"] for h in victim.shard_health().values()
            )
        finally:
            victim.begin_drain()
            victim.drain()

        assert respawns >= 1
        assert_rounds_equal(want, got)
        assert victim_fp == clean_fp


class TestJournalSegments:
    """Per-shard segments must rebuild the partition exactly."""

    def test_reboot_from_segments_continues_identically(self, tmp_path):
        reference = make_pool(tmp_path / "ref")
        try:
            seed_pool(reference)
            want = run_rounds(reference, 5)
            ref_fp = reference.state.fingerprint()
        finally:
            reference.begin_drain()
            reference.drain()

        first = make_pool(tmp_path / "reboot")
        try:
            seed_pool(first)
            got = run_rounds(first, 3)
        finally:
            first.begin_drain()
            first.drain()

        second = make_pool(tmp_path / "reboot")
        try:
            assert second.rounds_dispatched == 3  # resumed, not reset
            got += run_rounds(second, 2)
            second_fp = second.state.fingerprint()
        finally:
            second.begin_drain()
            second.drain()

        assert_rounds_equal(want, got)
        assert second_fp == ref_fp

    def test_torn_tail_is_replayed_at_boot(self, tmp_path):
        reference = make_pool(tmp_path / "ref")
        try:
            seed_pool(reference)
            want = run_rounds(reference, 5)
            ref_fp = reference.state.fingerprint()
        finally:
            reference.begin_drain()
            reference.drain()

        torn = make_pool(tmp_path / "torn")
        try:
            seed_pool(torn)
            got = run_rounds(torn, 3)
        finally:
            torn.begin_drain()
            torn.drain()

        # Simulate a crash mid-append: shard 0's final shard_round record
        # becomes a torn line that recovery must drop, leaving the shard
        # one round behind its peer at the next boot.
        tear_journal_tail(tmp_path / "torn" / "shard-00.jsonl")

        recovered = make_pool(tmp_path / "torn")
        try:
            got += run_rounds(recovered, 2)
            recovered_fp = recovered.state.fingerprint()
        finally:
            recovered.begin_drain()
            recovered.drain()

        assert_rounds_equal(want, got)
        assert recovered_fp == ref_fp

    def test_segment_behind_by_two_rounds_is_refused(self, tmp_path):
        pool = make_pool(tmp_path / "damaged")
        try:
            seed_pool(pool)
            run_rounds(pool, 4)
        finally:
            pool.begin_drain()
            pool.drain()

        # Drop the final two complete records — damage a torn tail can
        # never cause (each append lands before the next begins), so the
        # boot catch-up must refuse rather than silently skip a round.
        segment = tmp_path / "damaged" / "shard-00.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[:-2]))

        with pytest.raises(RuntimeError, match="behind its peers"):
            make_pool(tmp_path / "damaged")


class TestChaosGate:
    """The degradation ladder is flagged, never silent."""

    def test_unrevivable_shard_is_flagged_skip(self, tmp_path):
        # When a shard cannot be revived mid-round, the merged record
        # must flag its centers on the terminal "skip" rung — degraded
        # dispatch is visible in the round record, never silent.
        from repro.service.shards import ShardFailed

        pool = make_pool(tmp_path / "flagged")
        try:
            seed_pool(pool)
            b_shard = next(
                sid
                for sid in pool.shard_ids
                if "B" in pool.centers_of(sid)
            )
            supervisor = pool.supervisor
            original = supervisor.call

            def failing_call(sid, op, **payload):
                if sid == b_shard and op == "solve_round":
                    raise ShardFailed(f"shard {sid} is gone for good")
                return original(sid, op, **payload)

            supervisor.call = failing_call
            try:
                record = pool.dispatch(advance_hours=0.25)
            finally:
                supervisor.call = original
            assert record.degraded.get("B") == "skip"
            assert record.degraded.get("A") == "primary"
            assert all(wid.startswith("wa") for wid in record.payoffs)
        finally:
            pool.begin_drain()
            pool.drain()
