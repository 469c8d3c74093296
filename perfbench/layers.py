"""Split traced rounds into layers, and check the split.

A span's self time is its duration minus the part of it that its child
spans cover.  A layer's time in a round is the measure of the union of
its spans' self intervals, so two shard RPCs running side by side count
once, as the wall time the round spent in them.

:func:`check` fails a traced run whose split cannot be trusted: a layer
the workload must reach saw no calls, the named layers explain too little
of the round, or the traced round is not the round the server timed.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

Interval = Tuple[float, float]

#: Per-layer seconds metric -> (span name, shard RPC op or ``None``).
LAYERS: Dict[str, Tuple[str, Optional[str]]] = {
    "state.add_tasks_s": ("state.add_tasks", None),
    "state.snapshot_s": ("state.snapshot", None),
    "state.commit_s": ("state.commit", None),
    "state.expire_s": ("state.expire", None),
    "state.advance_s": ("state.advance", None),
    "journal.append_s": ("journal.append", None),
    "catalog.refresh_s": ("catalog.refresh", None),
    "solve.s": ("solve", None),
    "shards.solve_rpc_s": ("shards.call", "solve_round"),
    "shards.ingest_rpc_s": ("shards.call", "add_tasks"),
}

#: ``trace.coverage_share`` must reach this on every workload: the named
#: layers, not the engine's own glue, must explain most of a round.
COVERAGE_FLOOR = 0.80

#: The layers' self times plus ``engine.self_s`` must match the round time
#: the server reports within this share (the difference is the dispatch
#: lock, building the result and the tracing itself).
LAYER_SUM_MARGIN = 0.05

#: Layers that run inside shard processes, which the launcher cannot see.
_IN_SHARD = {"state.snapshot_s", "state.commit_s", "state.expire_s",
             "state.advance_s", "journal.append_s", "catalog.refresh_s", "solve.s"}


def unreached(shards: int, commit: bool) -> Set[str]:
    """The layers no call reaches by design on such a workload.

    Shard RPCs need a sharded server; behind one, the in-engine layers
    run in the shard processes; a preview-only workload never commits.
    """
    if shards > 1:
        return set(_IN_SHARD)
    out = {"shards.solve_rpc_s", "shards.ingest_rpc_s"}
    if not commit:
        out.add("state.commit_s")
    return out


def check(analysis: Dict, allowed_missing: Collection[str]) -> List[str]:
    """Why a traced run's layer split is wrong; empty if it holds.

    * every layer outside ``allowed_missing`` saw at least one call, so a
      refactor that moves a call off a wrapped boundary fails the run
      instead of moving its time into ``engine.self_s``;
    * ``trace.coverage_share`` reaches :data:`COVERAGE_FLOOR`;
    * ``trace.layer_sum_share`` is within :data:`LAYER_SUM_MARGIN` of 1.
      The layers and ``engine.self_s`` add up to the traced round span by
      construction, so this compares that span, taken at the boundary the
      launcher wraps, with the server's own ``duration_seconds``.
    """
    problems = [
        f"{name} saw no calls, but this workload reaches it"
        for name in analysis["missing"] if name not in allowed_missing
    ]
    coverage = analysis["trace.coverage_share"]
    if coverage < COVERAGE_FLOOR:
        problems.append(f"trace.coverage_share {coverage:.3f} < {COVERAGE_FLOOR}")
    layer_sum = analysis["trace.layer_sum_share"]
    if abs(layer_sum - 1.0) > LAYER_SUM_MARGIN:
        problems.append(f"layers sum to {layer_sum:.3f} of the server round time "
                        f"(allowed 1 +- {LAYER_SUM_MARGIN})")
    return problems


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, non-overlapping cover of ``intervals``."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def measure(intervals: Sequence[Interval]) -> float:
    """Total length of non-overlapping ``intervals``."""
    return sum(end - start for start, end in intervals)


def subtract(span: Interval, cover: Sequence[Interval]) -> List[Interval]:
    """``span`` minus the sorted, non-overlapping ``cover``."""
    out: List[Interval] = []
    cursor, end = span
    for c_start, c_end in cover:
        if c_end <= cursor or c_start >= end:
            continue
        if c_start > cursor:
            out.append((cursor, c_start))
        cursor = max(cursor, c_end)
    if cursor < end:
        out.append((cursor, end))
    return out


def _shard_op(span: Dict) -> Optional[str]:
    return span.get("op") if span["name"] == "shards.call" else None


def analyze(
    spans: Sequence[Dict],
    first_round: int,
    rounds: int,
    server_round_s: Sequence[float],
) -> Dict[str, object]:
    """Per-round layer means over rounds ``first_round .. first_round+rounds-1``.

    ``server_round_s`` are the ``duration_seconds`` the responses carried
    for those rounds.  Returns the per-layer seconds, ``engine.*``,
    ``trace.coverage_share``, ``trace.layer_sum_share``, the names of
    layers no span reached (``missing``) and ``shards.rpcs``.
    """
    window = [
        s for s in spans
        if first_round <= s["round"] < first_round + rounds and "end" in s
    ]
    children: Dict[int, List[Interval]] = {}
    for s in window:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    self_intervals = {
        s["id"]: subtract((s["start"], s["end"]), union(children.get(s["id"], ())))
        for s in window
    }
    by_id = {s["id"]: s for s in window}

    def in_round(span: Dict) -> bool:
        parent = span.get("parent")
        while parent is not None:
            owner = by_id.get(parent)
            if owner is None:
                return False
            if owner["name"] == "engine.round":
                return True
            parent = owner.get("parent")
        return False

    layer_time: Dict[str, float] = {}
    round_layer_time = 0.0
    missing: List[str] = []
    for metric, (name, op) in LAYERS.items():
        picked = [s for s in window if s["name"] == name and _shard_op(s) == op]
        if not picked:
            missing.append(metric)
        per_round: Dict[int, List[Interval]] = {}
        inside: Dict[int, List[Interval]] = {}
        for s in picked:
            per_round.setdefault(s["round"], []).extend(self_intervals[s["id"]])
            if in_round(s):
                inside.setdefault(s["round"], []).extend(self_intervals[s["id"]])
        layer_time[metric] = sum(measure(union(v)) for v in per_round.values()) / rounds
        round_layer_time += sum(measure(union(v)) for v in inside.values()) / rounds

    round_spans = [s for s in window if s["name"] == "engine.round"]
    if len(round_spans) != rounds:
        raise ValueError(f"expected {rounds} traced rounds, saw {len(round_spans)}")
    round_s = sum(s["end"] - s["start"] for s in round_spans) / rounds
    engine_self = sum(measure(self_intervals[s["id"]]) for s in round_spans) / rounds
    server_s = sum(server_round_s) / rounds
    return {
        "layers": layer_time,
        "engine.round_s": round_s,
        "engine.self_s": engine_self,
        "trace.coverage_share": round_layer_time / round_s,
        "trace.layer_sum_share": (round_layer_time + engine_self) / server_s,
        "shards.rpcs": sum(1 for s in window if s["name"] == "shards.call"),
        "missing": missing,
    }
