"""One ``repro serve`` process and the closed loop that drives it.

:class:`Server` spawns the unmodified service (or the tracing launcher in
front of it), waits until it is healthy and owns its lifetime.

:func:`drive` is the load generator: one client, one request in flight,
one connection per request like :class:`repro.service.DispatchClient`.
Each round POSTs that round's task batch to ``/tasks``, then POSTs
``/dispatch``, and waits for each answer before sending the next request.
Every request is timed at the client.  (Over a kept-alive connection the
server's separate header and body writes meet the client's delayed ACK,
adding about 40 ms to every request.)
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
from workloads import Traffic, Workload

from repro.core.instance import ProblemInstance

#: Server settings every workload shares (``--epsilon`` in km).
ALGORITHM = "fgt"
EPSILON = "0.8"

#: Environment variables that would make a round depend on wall time or
#: change what the service does; never passed to the server.
_SCRUBBED_ENV = (
    "REPRO_FAULTS",
    "REPRO_TRACE",
    "REPRO_TRACE_SAMPLE",
    "REPRO_VERIFY",
    "REPRO_KERNEL",
)

#: Counters whose value follows wall time, not work (heartbeats tick on a
#: timer); left out of the work-count digest.
_TIMED_COUNTERS = ("service.shard.heartbeats",)

#: Attempts per host-speed probe, and the largest share of probes that may
#: find the service busy on every attempt.  A single-process server runs
#: during 0.2-6% of attempts (around the end of a request); shard
#: heartbeats hit about one attempt in four.
PROBE_ATTEMPTS = 3
MAX_BUSY_PROBE_SHARE = 0.5

READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 120.0


#: With two or more cores a single-process server gets its own core and the
#: client another, so neither is scheduled onto the other's caches.  The
#: sharded server is left free to spread its processes.
CLIENT_CPU = 0
SERVER_CPU = 1


def pin(pid: int, cpu: int) -> None:
    """Bind ``pid`` to ``cpu`` when the host has that core (0 = caller)."""
    if hasattr(os, "sched_setaffinity") and cpu < (os.cpu_count() or 1):
        os.sched_setaffinity(pid, {cpu})


class BenchError(RuntimeError):
    """The service misbehaved: a request failed or an outcome is wrong."""


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(
        self,
        checkout: Path,
        workdir: Path,
        instance_dir: Path,
        workload: Workload,
        engine_seed: int,
        spans: Optional[Path] = None,
    ) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.port_file = workdir / "port"
        self.log_path = workdir / "serve.log"
        serve_args = [
            "serve",
            str(instance_dir),
            "--port", "0",
            "--port-file", str(self.port_file),
            "--journal", str(workdir / "journal"),
            "--algorithm", ALGORITHM,
            "--epsilon", EPSILON,
            "--seed", str(engine_seed),
        ]
        if workload.shards > 1:
            serve_args += ["--shards", str(workload.shards)]
        if not workload.initial_queue:
            serve_args.append("--no-initial-tasks")
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "launcher.py"
            command = [sys.executable, str(launcher), str(spans), *serve_args]
        env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
        env["PYTHONPATH"] = str(checkout / "src")
        env["PYTHONHASHSEED"] = "0"
        # One BLAS thread: the host has two cores and the client needs one.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self._log = self.log_path.open("wb")
        # Its own process group, so :meth:`kill` also reaps shard workers.
        self.process = subprocess.Popen(
            command, cwd=checkout, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        if workload.shards == 1:
            pin(self.process.pid, SERVER_CPU)
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        """Block until the port is published and ``/healthz`` says ok."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.port_file.exists() or not self.port_file.read_text().strip():
            if self.process.poll() is not None:
                raise BenchError(f"serve exited early; see {self.log_path}")
            if time.monotonic() > deadline:
                raise BenchError("serve did not publish its port in time")
            time.sleep(0.01)
        self.port = int(self.port_file.read_text().strip())
        while True:
            status, body, _ = self.request("GET", "/healthz")
            if status == 200 and body.get("status") == "ok":
                return
            if time.monotonic() > deadline:
                raise BenchError(f"serve never became healthy: {body}")
            time.sleep(0.02)

    def request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Tuple[int, Dict, float]:
        """``(status, decoded body, client-side seconds)`` of one request."""
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = time.perf_counter()
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        elapsed = time.perf_counter() - start
        kind = response.getheader("Content-Type", "")
        body = json.loads(raw) if raw and "json" in kind else {"text": raw.decode()}
        return response.status, body, elapsed

    def counters(self) -> Dict[str, float]:
        """Every counter ``GET /metrics`` exposes, by Prometheus name."""
        status, body, _ = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
        out: Dict[str, float] = {}
        kinds: Dict[str, str] = {}
        for line in body["text"].splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                kinds[name] = kind
            elif line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                if kinds.get(name) == "counter":
                    out[name] = float(value)
        return out

    def pids(self) -> List[int]:
        """The server's pid plus every shard worker's."""
        pids = [self.process.pid]
        status, body, _ = self.request("GET", "/healthz")
        for entry in (body.get("shards") or {}).values():
            if entry.get("pid"):
                pids.append(int(entry["pid"]))
        return pids

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server and its shard processes."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the server's whole process group and wait for the leader."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()

    def stop(self) -> None:
        """Graceful ``/shutdown``; the process (and its shards) must exit."""
        try:
            if self.port is not None and self.process.poll() is None:
                self.request("POST", "/shutdown", {})
        except (OSError, http.client.HTTPException):
            pass
        finally:
            try:
                self.process.wait(timeout=60)
                self._log.close()
            except subprocess.TimeoutExpired:
                self.kill()
        if self.process.returncode != 0:
            raise BenchError(
                f"serve exited with {self.process.returncode}; see {self.log_path}"
            )


def start_server(
    checkout: Path,
    workdir: Path,
    instance_dir: Path,
    workload: Workload,
    engine_seed: int,
    spans: Optional[Path] = None,
) -> Tuple[Server, Dict, float]:
    """Spawn, wait healthy, run the warm-up preview round.

    Returns ``(server, warm-up response, set-up seconds)``; the warm-up
    ``commit=false`` round pays the cold catalog build outside the timed
    window.
    """
    start = time.perf_counter()
    server = Server(checkout, workdir, instance_dir, workload, engine_seed, spans)
    try:
        server.wait_ready()
        status, warmup, _ = server.request(
            "POST", "/dispatch", {"advance_hours": 0.0, "commit": False}
        )
        if status != 200:
            raise BenchError(f"warm-up dispatch answered {status}: {warmup}")
    except BaseException:
        server.kill()
        raise
    return server, warmup, time.perf_counter() - start


@dataclass
class LoopResult:
    """What the client saw over the timed window."""

    rounds: int
    wall_s: float
    dispatch_s: List[float] = field(default_factory=list)
    ingest_s: List[float] = field(default_factory=list)
    server_round_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    submitted: int = 0
    committed: int = 0
    pending_at_start: int = 0
    would_assign_shares: List[float] = field(default_factory=list)
    p_difs: List[float] = field(default_factory=list)
    avg_payoffs: List[float] = field(default_factory=list)
    round_digests: List[str] = field(default_factory=list)
    host_probe_s: List[float] = field(default_factory=list)
    host_probes_rejected: int = 0
    host_probe_misses: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


def outcome_digest(response: Dict) -> str:
    """Hash of a round's outcome: routes, payoffs and Eq. 2 aggregates."""
    outcome = {
        key: response[key]
        for key in (
            "round",
            "now",
            "committed",
            "assignments",
            "payoffs",
            "payoff_difference",
            "average_payoff",
            "assigned_tasks",
            "expired_tasks",
            "pending_tasks",
        )
    }
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_round(response: Dict, instance: ProblemInstance, commit: bool) -> None:
    """Per-round invariants; raises :class:`BenchError` on a violation.

    No delivery point or worker may appear in two routes, every routed
    worker must be registered, and every routed point must belong to the
    center it was routed from.
    """
    fleet = {w.worker_id for w in instance.workers}
    owner = {
        dp.dp_id: center.center_id
        for center in instance.centers
        for dp in center.delivery_points
    }
    if response.get("committed") is not commit:
        raise BenchError(f"round {response.get('round')}: committed != {commit}")
    seen_workers: set = set()
    seen_points: set = set()
    for center_id, routes in response["assignments"].items():
        for worker_id, points in routes.items():
            if worker_id not in fleet:
                raise BenchError(f"unregistered worker {worker_id} was routed")
            if worker_id in seen_workers:
                raise BenchError(f"worker {worker_id} appears in two routes")
            seen_workers.add(worker_id)
            for dp_id in points:
                if owner.get(dp_id) != center_id:
                    raise BenchError(f"point {dp_id} routed from center {center_id}")
                if dp_id in seen_points:
                    raise BenchError(f"delivery point {dp_id} appears in two routes")
                seen_points.add(dp_id)
    if not set(response["payoffs"]) <= fleet:
        raise BenchError("payoff reported for an unregistered worker")
    if response["assigned_tasks"] < 0 or (not commit and response["assigned_tasks"]):
        raise BenchError(f"bad assigned_tasks {response['assigned_tasks']}")


def work_counts(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Counter movement across the timed window, timer-driven ones dropped."""
    skip = {"repro_" + name.replace(".", "_") for name in _TIMED_COUNTERS}
    return {
        name: after[name] - before.get(name, 0.0)
        for name in sorted(after)
        if name not in skip and after[name] != before.get(name, 0.0)
    }


def host_slowdown(workload: Workload, slices: int = 9) -> float:
    """Host slowdown from ``slices`` slices on the server's core, right now."""
    if workload.shards == 1:
        pin(0, SERVER_CPU)
    probes = [hostspeed.slice_seconds() for _ in range(slices)]
    if workload.shards == 1:
        pin(0, CLIENT_CPU)
    return hostspeed.slowdown(probes)


def probe(result: LoopResult, workload: Workload, pids: List[int]) -> float:
    """One host-speed probe on the server's core; returns its idle seconds.

    The server should be idle here: its last answer is in and the next
    request has not been sent.  An attempt during which any of ``pids``
    ran is discarded (counted in ``host_probes_rejected``) and retried, up
    to :data:`PROBE_ATTEMPTS` times; a probe with no idle attempt is
    counted in ``host_probe_misses``.  Only the idle attempt's time is
    returned for the caller to leave out of the timed window: the time of
    a busy attempt is the service's, and stays in.
    """
    start = time.perf_counter()
    busy_s = 0.0
    if workload.shards == 1:
        pin(0, SERVER_CPU)
    for _ in range(PROBE_ATTEMPTS):
        attempt = time.perf_counter()
        seconds = hostspeed.idle_slice_seconds(pids)
        if seconds is not None:
            result.host_probe_s.append(seconds)
            break
        result.host_probes_rejected += 1
        busy_s += time.perf_counter() - attempt
    else:
        result.host_probe_misses += 1
    if workload.shards == 1:
        pin(0, CLIENT_CPU)
    return time.perf_counter() - start - busy_s


def drive(
    server: Server,
    workload: Workload,
    instance: ProblemInstance,
    seed: int,
    rounds: int,
    warmup: Dict,
) -> LoopResult:
    """Run ``rounds`` closed-loop rounds.

    A failed request ends the loop and is recorded in ``error``; a wrong
    outcome raises :class:`BenchError`.  A host-speed probe runs before the
    first round and after every round, outside the timed window; if more
    than :data:`MAX_BUSY_PROBE_SHARE` of them found the service busy on
    every attempt, the run fails rather than report times scaled by
    probes the service slowed.
    """
    waiting: Dict[str, List[float]] = {}
    if not workload.commit:
        # Previews never remove tasks, so the client can tell which tasks a
        # preview would deliver: everything waiting at its routed points.
        for center in instance.centers:
            for dp in center.delivery_points:
                waiting[dp.dp_id] = [t.expiry for t in dp.tasks]
    traffic = Traffic(workload, instance, seed, rounds)
    result = LoopResult(rounds=rounds, wall_s=0.0)
    result.pending_at_start = int(warmup["pending_tasks"])
    before = server.counters()
    pids = server.pids()
    now = float(warmup["now"])
    probe(result, workload, pids)
    paused = 0.0
    start = time.perf_counter()
    for index in range(1, rounds + 1):
        batch = traffic.batch(index, now)
        result.attempted += 1
        status, body, elapsed = server.request("POST", "/tasks", {"tasks": batch})
        if status != 200 or body.get("rejected") or len(body["accepted"]) != len(batch):
            result.failed += 1
            result.error = f"round {index}: POST /tasks answered {status}: {body}"
            break
        result.ingest_s.append(elapsed)
        result.submitted += len(batch)
        if not workload.commit:
            for task in batch:
                waiting[task["dp_id"]].append(task["expiry"])

        result.attempted += 1
        status, body, elapsed = server.request(
            "POST",
            "/dispatch",
            {"advance_hours": workload.advance_hours, "commit": workload.commit},
        )
        if status != 200:
            result.failed += 1
            result.error = f"round {index}: POST /dispatch answered {status}: {body}"
            break
        result.dispatch_s.append(elapsed)
        result.server_round_s.append(float(body["duration_seconds"]))
        check_round(body, instance, workload.commit)
        result.round_digests.append(outcome_digest(body))
        result.p_difs.append(float(body["payoff_difference"]))
        result.avg_payoffs.append(float(body["average_payoff"]))
        result.committed += int(body["assigned_tasks"])
        if not workload.commit:
            routed = [dp for routes in body["assignments"].values()
                      for points in routes.values() for dp in points]
            live = sum(1 for dp in routed for e in waiting[dp] if e > body["now"])
            result.would_assign_shares.append(live / max(1, body["pending_tasks"]))
        now = float(body["now"])
        paused += probe(result, workload, pids)
    result.wall_s = time.perf_counter() - start - paused
    probes = len(result.host_probe_s) + result.host_probe_misses
    if result.host_probe_misses > MAX_BUSY_PROBE_SHARE * probes:
        raise BenchError(
            f"the service was busy during every attempt of {result.host_probe_misses} "
            f"of {probes} host-speed probes, which time an idle server's core"
        )
    result.counters = work_counts(before, server.counters())
    return result
