"""End-to-end dispatch benchmark through the real ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lunch_rush --seed 1 --seconds 15 --trace 0

Each run generates its workload's city, saves it, starts a fresh
``python -m repro serve`` with a write-ahead journal, and drives it in a
closed loop (one client, one request in flight) with traffic drawn from
``--seed``.  ``--seconds`` becomes a fixed round budget, so the work done,
and every outcome, is the same however fast the host runs; times are
reported in reference-host units (``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice at half the round budget, untraced and then under
``perfbench/launcher.py``, and reports the per-layer split of the traced
run.  Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"

#: Servers started (and timed up to their warm-up round) per untraced
#: run; ``setup_s`` is the median of their reference-host times.
SETUPS = 5

#: Metrics the report prints that BENCHMARK.json does not gate on:
#: ``failed_share`` is carried as ``ok_share`` (a gated metric may never read
#: 0) and ``ingest_p90_s`` swings with millisecond host stalls (README.md).
REPORT_ONLY = {"ingest_p90_s": "s", "failed_share": "ratio"}

#: Per-layer count -> the server counters (Prometheus names) it sums.
_COUNTS = {
    "journal.fsyncs": ("service_journal_fsyncs",),
    "journal.bytes": ("service_journal_bytes",),
    "catalog.gets": ("service_catalog_cache_hits", "service_catalog_cache_misses"),
    "catalog.hits": ("service_catalog_cache_hits",),
    "catalog.deltas": ("catalog_delta_applies",),
    "catalog.noops": ("catalog_delta_noops",),
    "catalog.fallbacks": ("catalog_delta_fallbacks",),
    "catalog.rebuilds": ("catalog_delta_rebuilds",),
    "catalog.strategies_built": ("catalog_strategies_built",),
    "cvdps.states_expanded": ("cvdps_states_expanded",),
    "solve.fgt_rounds": ("fgt_rounds",),
    "solve.switches": ("fgt_switches",),
    "solve.candidates_screened": ("engine_candidates_screened",),
    "shards.rpc_timeouts": ("service_shard_rpc_timeouts",),
    "shards.shed": ("service_shard_shed",),
}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def engine_seed(seed: int) -> int:
    """The serve ``--seed`` derived from the benchmark seed."""
    digest = hashlib.sha256(f"perfbench-engine:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def code_hash() -> str:
    """Hash of the served code and the benchmark, keying stored digests."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *here.glob("*.py")]):
        h.update(str(path.relative_to(CHECKOUT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Outcome and work-count digests of earlier runs in this checkout.

    Keyed by code version, workload, seed and round budget: every run with
    the same key, traced or not, must see the same outcomes and the same
    work counts.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def check_and_record(self, key: str, outcomes: str, counts: str) -> Optional[str]:
        """``None`` if consistent with earlier runs, else the mismatch."""
        data = json.loads(self.path.read_text()) if self.path.exists() else {}
        known = data.setdefault(key, {"outcomes": outcomes, "counts": counts})
        if known["outcomes"] != outcomes:
            return "round outcomes differ from an earlier run of the same seed"
        if known["counts"] != counts:
            return "work counts differ from an earlier run of the same seed"
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, self.path)
        return None


def digest(value: object) -> str:
    """Short hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def count(counters: Dict[str, float], metric: str) -> float:
    """A per-layer count; a counter the service never touched reads 0."""
    return sum(counters.get("repro_" + name, 0.0) for name in _COUNTS[metric])


def load_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


#: End-to-end timings of the timed loop, and whether a slower host makes
#: them larger.  ``setup_s`` is scaled per set-up (:func:`setup_reference_s`).
_TIMINGS = {"dispatch_p50_s": True, "dispatch_p90_s": True, "ingest_p50_s": True,
            "ingest_p90_s": True, "rounds_per_s": False}


def setup_reference_s(setups: List[Tuple[float, float]]) -> float:
    """Median set-up time in reference-host units.

    Each ``(seconds, slowdown)`` pair is one set-up and the host slowdown
    probed just before it: set-ups come before the timed loop, so the
    loop's probes may see a different phase of the host.
    """
    return statistics.median(seconds / slowdown for seconds, slowdown in setups)


def end_to_end(result, setups: List[Tuple[float, float]], rss_mb: float,
               commit: bool) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass, report-only ones included.

    Timings are raw, ``setup_s`` the median raw set-up;
    :func:`to_reference_host` and :func:`setup_reference_s` scale them.
    """
    if commit:
        assigned = result.committed / max(1, result.pending_at_start + result.submitted)
    else:
        assigned = statistics.fmean(result.would_assign_shares)
    return {
        "dispatch_p50_s": percentile(result.dispatch_s, 50),
        "dispatch_p90_s": percentile(result.dispatch_s, 90),
        "ingest_p50_s": percentile(result.ingest_s, 50),
        "ingest_p90_s": percentile(result.ingest_s, 90),
        "rounds_per_s": result.rounds / result.wall_s,
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "peak_rss_mb": rss_mb,
        "ok_share": 1.0 - result.failed / result.attempted,
        "failed_share": result.failed / result.attempted,
        "assigned_share": assigned,
        "p_dif_mean": statistics.fmean(result.p_difs),
        "avg_payoff_mean": statistics.fmean(result.avg_payoffs),
    }


def to_reference_host(values: Dict[str, float], slowdown: float,
                      timings: Dict[str, bool]) -> Dict[str, float]:
    """``values`` with each timing in reference-host units (see hostspeed.py)."""
    scaled = dict(values)
    for name, grows_when_slow in timings.items():
        if name in scaled:
            factor = 1.0 / slowdown if grows_when_slow else slowdown
            scaled[name] *= factor
    return scaled


def per_layer(untraced, traced, analysis: Dict) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.

    A layer no span reached is listed in ``analysis["missing"]``; its JSON
    value is 0 only because every reported value must be a number.
    """
    metrics: Dict[str, float] = {
        "api.dispatch_overhead_s": statistics.fmean(
            c - s for c, s in zip(traced.dispatch_s, traced.server_round_s)
        ),
        "engine.round_s": analysis["engine.round_s"],
        "engine.self_s": analysis["engine.self_s"],
        **analysis["layers"],
        **{name: count(traced.counters, name) for name in _COUNTS},
        "shards.rpcs": analysis["shards.rpcs"],
        "trace.coverage_share": analysis["trace.coverage_share"],
        "trace.layer_sum_share": analysis["trace.layer_sum_share"],
        "trace.overhead_share": (
            traced.wall_s / hostspeed.slowdown(traced.host_probe_s)
            / (untraced.wall_s / hostspeed.slowdown(untraced.host_probe_s)) - 1.0
        ),
        "trace.missing_boundaries": len(analysis["missing"]),
    }
    gets = metrics["catalog.gets"]
    reused = metrics["catalog.hits"] + metrics["catalog.deltas"] + metrics["catalog.noops"]
    metrics["catalog.reuse_share"] = reused / gets if gets else 0.0
    return metrics


def run_pass(workload, instance, instance_dir: Path, seed: int, rounds: int,
             workdir: Path, setups: int, spans: Optional[Path] = None):
    """Start ``setups`` servers (keeping the last), drive it, stop it.

    Returns ``(loop result, [(setup seconds, host slowdown)], peak RSS MB)``.
    """
    from loop import drive, host_slowdown, start_server

    setup_s: List[Tuple[float, float]] = []
    for k in range(setups):
        server_dir = workdir / f"server{k}"
        slowdown = host_slowdown(workload)
        server, warmup, seconds = start_server(
            CHECKOUT, server_dir, instance_dir, workload, engine_seed(seed), spans
        )
        setup_s.append((seconds, slowdown))
        if k < setups - 1:
            server.stop()
            shutil.rmtree(server_dir, ignore_errors=True)
    try:
        result = drive(server, workload, instance, seed, rounds, warmup)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return result, setup_s, rss_mb


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<28} {value:>14.6g} {unit:<7}{note}")


def untraced_run(workload, instance, instance_dir, seed, rounds, workdir,
                 gated: Dict[str, str], passes: List) -> Dict[str, Dict]:
    """One untraced pass after ``SETUPS`` set-ups; the end-to-end metrics."""
    from loop import BenchError

    result, setups, rss_mb = run_pass(workload, instance, instance_dir, seed,
                                      rounds, workdir / "plain", SETUPS)
    passes.append(result)
    if result.error is not None:
        raise BenchError(result.error)
    raw = end_to_end(result, setups, rss_mb, workload.commit)
    slowdown = hostspeed.slowdown(result.host_probe_s)
    values = to_reference_host(raw, slowdown, _TIMINGS)
    values["setup_s"] = setup_reference_s(setups)
    print(f"end-to-end ({len(result.dispatch_s)} dispatch and "
          f"{len(result.ingest_s)} ingest samples, {SETUPS} set-ups; "
          f"host slowdown {slowdown:.3f} over {len(result.host_probe_s)} probes "
          f"({result.host_probes_rejected} attempts discarded: service busy), "
          "timings in reference-host units):")
    for name, unit in {**gated, **REPORT_ONLY}.items():
        timed = name in _TIMINGS or name == "setup_s"
        note = f"  raw {raw[name]:.6g}" if timed else ""
        report(name, values[name], unit, note + ("" if name in gated else "  (not gated)"))
    return {name: {"value": values[name], "unit": unit} for name, unit in gated.items()}


def traced_run(workload, instance, instance_dir, seed, rounds, workdir,
               gated: Dict[str, str], passes: List) -> Dict[str, Dict]:
    """An untraced then a traced pass; the per-layer metrics of the traced one."""
    from layers import analyze, check, unreached
    from loop import BenchError

    spans_path = workdir / "spans.json"
    for name, spans in (("plain", None), ("traced", spans_path)):
        result, _, _ = run_pass(workload, instance, instance_dir, seed, rounds,
                                workdir / name, 1, spans=spans)
        passes.append(result)
        if result.error is not None:
            raise BenchError(result.error)
    untraced, traced = passes
    if traced.round_digests != untraced.round_digests:
        raise BenchError("traced run's outcomes differ from the untraced run's")
    if traced.counters != untraced.counters:
        raise BenchError("traced run's work counts differ from the untraced run's")
    analysis = analyze(json.loads(spans_path.read_text()), 1, rounds,
                       traced.server_round_s)
    slowdown = hostspeed.slowdown(traced.host_probe_s)
    values = per_layer(untraced, traced, analysis)
    values = to_reference_host(values, slowdown, {
        name: True for name, unit in gated.items() if unit == "s"})
    missing = analysis["missing"]
    print(f"per-layer (traced run, {rounds} rounds; seconds are per-round means "
          f"in reference-host units, host slowdown {slowdown:.3f}):")
    for name, unit in gated.items():
        report(name, values[name], unit, "  MISSING" if name in missing else "")
    for name in missing:
        print(f"  missing boundary: {name} saw no calls in the timed window")
    problems = check(analysis, unreached(workload.shards, workload.commit))
    if problems:
        raise BenchError("; ".join(problems))
    return {name: {"value": values[name], "unit": unit} for name, unit in gated.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = workload.rounds_for(args.seconds)
    if args.trace:
        # Two passes (untraced, traced) share the run's time.
        rounds = max(1, rounds // 2)

    from loop import CLIENT_CPU, BenchError, pin
    from repro.datasets import save_instance

    names = load_metrics()
    if workload.shards == 1:
        pin(0, CLIENT_CPU)

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    instance = workload.make_world()
    instance_dir = save_instance(instance, workdir / "world")
    store = DigestStore(WORK / "digests.json")
    key = f"{code_hash()}:{workload.name}:{args.seed}:{rounds}"
    print(f"perfbench {workload.name}: seed={args.seed} rounds={rounds} "
          f"trace={args.trace} shards={workload.shards}")

    passes: List = []
    error: Optional[str] = None
    metrics: Dict[str, Dict] = {}
    try:
        if args.trace == 0:
            metrics = untraced_run(workload, instance, instance_dir, args.seed,
                                   rounds, workdir, names["end_to_end"], passes)
        else:
            metrics = traced_run(workload, instance, instance_dir, args.seed,
                                 rounds, workdir, names["per_layer"], passes)
        for result in passes:
            mismatch = store.check_and_record(
                key, digest(result.round_digests), digest(result.counters))
            if mismatch:
                raise BenchError(mismatch)
    except (BenchError, OSError, http.client.HTTPException, ValueError) as exc:
        error = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if error is not None:
        print(f"error: {error}")
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(json.dumps({
        "correct": error is None,
        "attempted": max(1, attempted),
        "failed": failed if error is None else max(1, failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
