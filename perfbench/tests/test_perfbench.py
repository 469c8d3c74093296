"""The benchmark's own tests: smoke runs, the outcome check, the layer split.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from layers import analyze, check, measure, subtract, union, unreached  # noqa: E402
from loop import BenchError, LoopResult, check_round, outcome_digest, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SEED = 9001
#: A smoke run's length: 2 to 9 rounds across the workloads.
SMOKE_SECONDS = "0.3"
METRICS = run.load_metrics()


def _run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SMOKE_SEED), "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, trace=0)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    gated = METRICS["end_to_end"]
    assert set(result["metrics"]) == set(gated)
    for name, unit in {**gated, **run.REPORT_ONLY}.items():
        if name in gated:
            assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name


@pytest.mark.parametrize("workload", ["lunch_rush", "multi_city_sharded"])
def test_smoke_traced_prints_every_per_layer_metric(workload):
    lines, result = _run(workload, trace=1)
    assert result["correct"], lines
    per_layer = METRICS["per_layer"]
    assert set(result["metrics"]) == set(per_layer)
    for name, unit in per_layer.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((CHECKOUT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whatif", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _response():
    world = WORKLOADS["whatif"].make_world()
    center = world.centers[0]
    points = [dp.dp_id for dp in center.delivery_points]
    workers = [w.worker_id for w in world.workers]
    response = {
        "round": 4, "now": 0.0, "committed": True, "assigned_tasks": 3,
        "expired_tasks": 0, "pending_tasks": 10,
        "payoff_difference": 0.5, "average_payoff": 1.5,
        "payoffs": {workers[0]: 1.0, workers[1]: 2.0},
        "assignments": {center.center_id: {workers[0]: points[:2],
                                           workers[1]: points[2:3]}},
    }
    return world, response


def test_outcome_check_accepts_a_valid_round():
    world, response = _response()
    check_round(response, world, commit=True)


@pytest.mark.parametrize("tamper", ["two_routes_one_point", "two_routes_one_worker",
                                    "unknown_worker", "foreign_point"])
def test_outcome_check_trips_on_a_tampered_response(tamper):
    world, response = _response()
    center = world.centers[0].center_id
    routes = response["assignments"][center]
    first, second = list(routes)
    if tamper == "two_routes_one_point":
        routes[second] = routes[second] + routes[first][:1]
    elif tamper == "two_routes_one_worker":
        response["assignments"]["other"] = {first: []}
    elif tamper == "unknown_worker":
        routes["ghost"] = []
    else:
        routes[second] = ["no_such_point"]
    with pytest.raises(BenchError):
        check_round(response, world, commit=True)


def test_digest_sees_every_outcome_field():
    _, response = _response()
    base = outcome_digest(response)
    for key, value in (("payoff_difference", 0.5000001), ("assigned_tasks", 2),
                       ("average_payoff", 1.25)):
        tampered = dict(response, **{key: value})
        assert outcome_digest(tampered) != base
    payoffs = dict(response["payoffs"])
    payoffs[next(iter(payoffs))] += 1e-12
    assert outcome_digest(dict(response, payoffs=payoffs)) != base


def test_digest_store_trips_on_changed_outcomes_or_work_counts(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json")
    counts = {"repro_cvdps_states_expanded": 120.0}
    outcomes = run.digest(["a1", "b2"])
    assert store.check_and_record("k", outcomes, run.digest(counts)) is None
    assert store.check_and_record("k", outcomes, run.digest(counts)) is None
    changed = dict(counts, repro_cvdps_states_expanded=121.0)
    assert "work counts" in store.check_and_record("k", outcomes, run.digest(changed))
    assert "outcomes" in store.check_and_record(
        "k", run.digest(["a1", "b3"]), run.digest(counts))
    assert store.check_and_record("other", outcomes, run.digest(changed)) is None


def test_interval_helpers():
    assert union([(3, 4), (0, 1), (0.5, 2)]) == [(0, 2), (3, 4)]
    assert measure([(0, 2), (3, 4)]) == 3
    assert subtract((0, 10), [(1, 2), (5, 12)]) == [(0, 1), (2, 5)]


def _span(i, name, start, end, round_index, parent=None, **extra):
    return dict(id=i, name=name, start=start, end=end, round=round_index,
                parent=parent, **extra)


def test_layer_split_self_time_and_missing_boundaries():
    spans = [
        _span(0, "state.add_tasks", 0.0, 1.0, 1),
        _span(1, "journal.append", 0.5, 0.9, 1, parent=0),
        _span(2, "engine.round", 2.0, 12.0, 1),
        _span(3, "state.snapshot", 2.0, 4.0, 1, parent=2),
        _span(4, "catalog.refresh", 4.0, 7.0, 1, parent=2),
        _span(5, "solve", 7.0, 10.0, 1, parent=2),
        _span(6, "state.commit", 10.0, 11.5, 1, parent=2),
        _span(7, "journal.append", 11.0, 11.5, 1, parent=6),
        _span(8, "engine.round", 20.0, 30.0, 0),  # outside the window
    ]
    result = analyze(spans, first_round=1, rounds=1, server_round_s=[10.0])
    layers = result["layers"]
    assert layers["state.add_tasks_s"] == pytest.approx(0.6)
    assert layers["journal.append_s"] == pytest.approx(0.9)
    assert layers["state.commit_s"] == pytest.approx(1.0)
    assert result["engine.round_s"] == pytest.approx(10.0)
    assert result["engine.self_s"] == pytest.approx(0.5)
    assert result["trace.coverage_share"] == pytest.approx(0.95)
    assert result["trace.layer_sum_share"] == pytest.approx(1.0)
    assert "state.expire_s" in result["missing"]
    assert "shards.solve_rpc_s" in result["missing"]
    assert "solve.s" not in result["missing"]


def _full_round():
    """One single-process round in which every layer it reaches saw a call."""
    return [
        _span(0, "state.add_tasks", 0.0, 1.0, 1),
        _span(1, "journal.append", 0.5, 0.9, 1, parent=0),
        _span(2, "engine.round", 2.0, 12.0, 1),
        _span(3, "state.advance", 2.0, 2.2, 1, parent=2),
        _span(4, "state.expire", 2.2, 2.5, 1, parent=2),
        _span(5, "state.snapshot", 2.5, 4.0, 1, parent=2),
        _span(6, "catalog.refresh", 4.0, 7.0, 1, parent=2),
        _span(7, "solve", 7.0, 10.0, 1, parent=2),
        _span(8, "state.commit", 10.0, 11.5, 1, parent=2),
        _span(9, "journal.append", 11.0, 11.5, 1, parent=8),
    ]


def test_layer_check_passes_a_complete_split():
    result = analyze(_full_round(), first_round=1, rounds=1, server_round_s=[9.8])
    assert check(result, unreached(shards=1, commit=True)) == []


@pytest.mark.parametrize("dropped", ["catalog.refresh", "state.snapshot", "state.expire"])
def test_layer_check_fails_when_a_layer_is_dropped(dropped):
    spans = [s for s in _full_round() if s["name"] != dropped]
    result = analyze(spans, first_round=1, rounds=1, server_round_s=[9.8])
    problems = check(result, unreached(shards=1, commit=True))
    assert problems and dropped.replace(".", "_") in problems[0].replace(".", "_")


def test_layer_check_fails_when_the_round_is_not_the_one_the_server_timed():
    result = analyze(_full_round(), first_round=1, rounds=1, server_round_s=[12.0])
    problems = check(result, unreached(shards=1, commit=True))
    assert len(problems) == 1 and "server round time" in problems[0]


def test_layer_check_fails_below_the_coverage_floor():
    spans = [s for s in _full_round() if s["id"] not in (6, 7)]
    result = analyze(spans, first_round=1, rounds=1, server_round_s=[9.8])
    allowed = unreached(shards=1, commit=True) | {"catalog.refresh_s", "solve.s"}
    problems = check(result, allowed)
    assert len(problems) == 1 and "coverage" in problems[0]


def test_unreached_layers_by_workload():
    assert unreached(shards=1, commit=True) == {"shards.solve_rpc_s", "shards.ingest_rpc_s"}
    assert "state.commit_s" in unreached(shards=1, commit=False)
    sharded = unreached(shards=2, commit=True)
    assert "solve.s" in sharded and "shards.solve_rpc_s" not in sharded


@pytest.fixture
def service_process(request):
    """A stand-in service process: ``busy`` spins, ``idle`` sleeps."""
    code = "while True: pass" if request.param == "busy" else "import time; time.sleep(60)"
    proc = subprocess.Popen([sys.executable, "-c", code])
    time.sleep(0.3)
    yield request.param, proc.pid
    proc.kill()
    proc.wait()


@pytest.mark.parametrize("service_process", ["busy", "idle"], indirect=True)
def test_host_probe_is_discarded_while_the_service_runs(service_process):
    kind, pid = service_process
    result = LoopResult(rounds=0, wall_s=0.0)
    for _ in range(5):
        probe(result, WORKLOADS["multi_city_sharded"], [pid])
    if kind == "busy":
        assert result.host_probe_misses == 5
        assert result.host_probe_s == []
    else:
        assert result.host_probes_rejected == result.host_probe_misses == 0
        assert len(result.host_probe_s) == 5


def test_thread_activity_sees_this_thread_run():
    import os

    before = hostspeed.thread_activity([os.getpid()])
    hostspeed.slice_seconds()
    after = hostspeed.thread_activity([os.getpid()])
    assert before and after[os.getpid()][0] == "R"
    assert after != before


def test_setup_time_is_scaled_by_the_slowdown_probed_before_it():
    assert run.setup_reference_s([(1.0, 2.0), (0.9, 1.0), (3.0, 1.0)]) == 0.9


def test_parallel_shard_rpcs_count_once():
    spans = [
        _span(0, "engine.round", 0.0, 10.0, 1),
        _span(1, "shards.call", 1.0, 8.0, 1, parent=0, op="solve_round"),
        _span(2, "shards.call", 2.0, 9.0, 1, parent=0, op="solve_round"),
    ]
    result = analyze(spans, first_round=1, rounds=1, server_round_s=[10.0])
    assert result["layers"]["shards.solve_rpc_s"] == pytest.approx(8.0)
    assert result["engine.self_s"] == pytest.approx(2.0)
    assert result["shards.rpcs"] == 2


def test_reference_host_scaling_halves_times_on_a_twice_slower_host():
    raw = {"dispatch_p50_s": 0.2, "rounds_per_s": 5.0, "p_dif_mean": 1.5}
    scaled = run.to_reference_host(raw, 2.0, run._TIMINGS)
    assert scaled == {"dispatch_p50_s": 0.1, "rounds_per_s": 10.0, "p_dif_mean": 1.5}
