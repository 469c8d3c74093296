"""Load JSONL traces back into typed records, trees, and summaries.

The reader is the analysis-side counterpart of
:class:`~repro.obs.tracer.JsonlTracer`: it parses every line the tracer can
emit into a :class:`TraceRecord` and folds a record stream into a
:class:`TraceSummary` — per-phase wall time, rounds, switches, and the final
metrics snapshot — which is what ``python -m repro trace`` prints and what
convergence analyses (Figure 12 style) consume.

Since spans carry causal identity (``trace``/``span``/``parent``),
:func:`build_span_trees` reconstructs each trace's span forest, and
:func:`analyze_trace` walks it into the operator view ``python -m repro
trace analyze`` prints: per-dispatch-round critical paths (which center,
which ladder rung, which catalog path made the round slow) and a
flamegraph-style self-time table per span kind.

A service killed mid-write (the chaos suite's SIGKILL) leaves a torn final
line; :func:`iter_trace` forgives exactly that — damage on the *last*
non-blank line — mirroring the journal's torn-tail semantics, while damage
followed by intact records still raises :class:`TraceFormatError` (it
cannot be a crash artefact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

PathLike = Union[str, Path]

#: Record fields reserved by the tracer envelope.
_ENVELOPE = ("kind", "seq", "ts", "dur", "trace", "span", "parent")


class TraceFormatError(ValueError):
    """A trace line is not a record the tracer could have written."""


@dataclass(frozen=True)
class TraceRecord:
    """One parsed trace line.

    Attributes
    ----------
    kind:
        Dotted event type, e.g. ``fgt.round`` or ``catalog.build``.
    seq:
        Per-tracer monotone sequence number.
    ts:
        Seconds since the tracer was opened.
    dur:
        Span duration in seconds; ``None`` for point events.
    fields:
        All event-specific fields, envelope keys removed.
    """

    kind: str
    seq: int
    ts: float
    dur: Optional[float]
    fields: Mapping[str, Any]
    #: Causal identity; ``None`` on records from pre-context producers.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    @property
    def solver(self) -> str:
        """The component prefix of ``kind`` (``fgt``, ``iegt``, ``cvdps``...)."""
        return self.kind.split(".", 1)[0]

    @property
    def is_span(self) -> bool:
        return self.dur is not None

    @property
    def start_ts(self) -> float:
        """When the record's work began (spans emit at exit)."""
        return self.ts - self.dur if self.dur is not None else self.ts


def parse_record(line: str, lineno: int = 0) -> TraceRecord:
    """Parse one JSONL line into a :class:`TraceRecord`."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise TraceFormatError(f"line {lineno}: expected an object, got {type(raw)}")
    for key in ("kind", "seq", "ts"):
        if key not in raw:
            raise TraceFormatError(f"line {lineno}: record missing {key!r}")
    return TraceRecord(
        kind=str(raw["kind"]),
        seq=int(raw["seq"]),
        ts=float(raw["ts"]),
        dur=None if "dur" not in raw else float(raw["dur"]),
        fields={k: v for k, v in raw.items() if k not in _ENVELOPE},
        trace_id=None if "trace" not in raw else str(raw["trace"]),
        span_id=None if "span" not in raw else str(raw["span"]),
        parent_id=None if "parent" not in raw else str(raw["parent"]),
    )


def iter_trace(
    path: PathLike, tolerate_torn_tail: bool = True
) -> Iterator[TraceRecord]:
    """Lazily parse the trace at ``path``, skipping blank lines.

    A process killed mid-write leaves a torn final line;
    ``tolerate_torn_tail`` forgives a parse failure if and only if no
    intact record follows it — the journal's torn-tail rule.  Damage
    *before* intact records always raises :class:`TraceFormatError`.
    """
    pending: Optional[TraceFormatError] = None
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if pending is not None:
                raise pending  # damage followed by data: real corruption
            try:
                record = parse_record(line, lineno)
            except TraceFormatError as exc:
                if not tolerate_torn_tail:
                    raise
                pending = exc
                continue
            yield record


def read_trace(
    path: PathLike, tolerate_torn_tail: bool = True
) -> List[TraceRecord]:
    """Parse the whole trace at ``path`` into a list of records."""
    return list(iter_trace(path, tolerate_torn_tail=tolerate_torn_tail))


@dataclass
class TraceSummary:
    """Aggregate view of one trace.

    ``rounds``/``switches`` are keyed by solver prefix (``fgt``, ``iegt``,
    ...); ``span_seconds`` totals the duration of every span kind;
    ``events`` counts records per kind; ``metrics`` is the last embedded
    ``metrics.snapshot`` payload, when the producer wrote one.
    """

    events: Dict[str, int] = field(default_factory=dict)
    span_seconds: Dict[str, float] = field(default_factory=dict)
    rounds: Dict[str, int] = field(default_factory=dict)
    switches: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: ``service.degraded`` events folded by ladder rung (greedy/skip).
    degraded: Dict[str, int] = field(default_factory=dict)
    #: ``service.solve_failure`` events folded by error type.
    solve_failures: Dict[str, int] = field(default_factory=dict)

    def total_rounds(self, solver: Optional[str] = None) -> int:
        """Rounds recorded for ``solver`` (all solvers when ``None``)."""
        if solver is not None:
            return self.rounds.get(solver.lower(), 0)
        return sum(self.rounds.values())

    def total_switches(self, solver: Optional[str] = None) -> int:
        """Strategy switches recorded for ``solver`` (all when ``None``)."""
        if solver is not None:
            return self.switches.get(solver.lower(), 0)
        return sum(self.switches.values())

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Catalog-cache hits/misses/hit-rate from the metrics snapshot."""
        hits = self.metrics.get("catalog_cache.hits", 0)
        misses = self.metrics.get("catalog_cache.misses", 0)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    @property
    def robustness_stats(self) -> Dict[str, float]:
        """Fault-tolerance events and counters seen by this trace.

        Merges the ``service.degraded`` / ``service.solve_failure`` event
        folds with any ``dispatch.degraded_*``, ``service.breaker.*``, and
        ``service.journal.*`` counters from the embedded metrics snapshot,
        so ``python -m repro trace`` and BENCH tooling surface robustness
        behaviour without parsing raw events.
        """
        stats: Dict[str, float] = {}
        for rung, count in self.degraded.items():
            stats[f"degraded.{rung}"] = float(count)
        for error, count in self.solve_failures.items():
            stats[f"solve_failure.{error}"] = float(count)
        for name, value in self.metrics.items():
            if name.startswith(
                ("dispatch.degraded", "dispatch.solve", "dispatch.injected",
                 "dispatch.breaker", "dispatch.centers_skipped",
                 "service.breaker.", "service.journal.")
            ):
                stats[name] = float(value)
        return stats

    def format(self) -> str:
        """Human-readable multi-section summary for the CLI."""
        lines: List[str] = []
        if self.rounds:
            lines.append("rounds / switches")
            for solver in sorted(self.rounds):
                lines.append(
                    f"  {solver:<8} rounds={self.rounds[solver]} "
                    f"switches={self.switches.get(solver, 0)}"
                )
        if self.span_seconds:
            lines.append("phase wall time")
            width = max(len(k) for k in self.span_seconds)
            for kind in sorted(self.span_seconds):
                lines.append(
                    f"  {kind.ljust(width)}  {self.span_seconds[kind]:.6f}s"
                )
        cache = self.cache_stats
        if cache["hits"] or cache["misses"]:
            lines.append(
                f"catalog cache: hits={cache['hits']:g} "
                f"misses={cache['misses']:g} hit_rate={cache['hit_rate']:.2f}"
            )
        robustness = self.robustness_stats
        if robustness:
            lines.append("robustness (degradations / breakers / journal)")
            width = max(len(k) for k in robustness)
            for key in sorted(robustness):
                lines.append(f"  {key.ljust(width)}  {robustness[key]:g}")
        if self.events:
            lines.append("events")
            width = max(len(k) for k in self.events)
            for kind in sorted(self.events):
                lines.append(f"  {kind.ljust(width)}  {self.events[kind]}")
        return "\n".join(lines) if lines else "(empty trace)"


def summarize_trace(
    records: Union[Sequence[TraceRecord], PathLike]
) -> TraceSummary:
    """Fold a record stream (or a trace file path) into a :class:`TraceSummary`."""
    if isinstance(records, (str, Path)):
        records = read_trace(records)
    summary = TraceSummary()
    for record in records:
        summary.events[record.kind] = summary.events.get(record.kind, 0) + 1
        if record.dur is not None:
            summary.span_seconds[record.kind] = (
                summary.span_seconds.get(record.kind, 0.0) + record.dur
            )
        solver = record.solver
        if record.kind.endswith(".round"):
            summary.rounds[solver] = summary.rounds.get(solver, 0) + 1
            summary.switches[solver] = summary.switches.get(solver, 0) + int(
                record.fields.get("switches", 0)
            )
        elif record.kind == "metrics.snapshot":
            payload = record.fields.get("metrics", {})
            if isinstance(payload, dict):
                summary.metrics = payload
        elif record.kind == "service.degraded":
            rung = str(record.fields.get("rung", "?"))
            summary.degraded[rung] = summary.degraded.get(rung, 0) + 1
        elif record.kind == "service.solve_failure":
            error = str(record.fields.get("error", "?"))
            summary.solve_failures[error] = (
                summary.solve_failures.get(error, 0) + 1
            )
    return summary


# -- span-tree reconstruction and critical-path analysis ---------------------


@dataclass
class SpanNode:
    """One span (or leaf event) in a reconstructed trace tree."""

    record: TraceRecord
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.record.kind

    @property
    def dur(self) -> float:
        return self.record.dur or 0.0

    @property
    def self_time(self) -> float:
        """The span's duration minus its child spans' durations, floored at 0.

        Children that ran concurrently (the per-center thread pool) can sum
        past the parent's wall time; the floor keeps the flamegraph table
        sane — a fan-out parent simply reports ~0 self time.
        """
        return max(0.0, self.dur - sum(c.dur for c in self.children))

    def walk(self) -> Iterator["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        """``kind`` plus its most identifying fields, for display."""
        bits = [self.kind]
        for key in ("center", "rung", "path", "round", "attempt"):
            value = self.record.fields.get(key)
            if value is not None:
                bits.append(f"{key}={value}")
        return " ".join(bits)


@dataclass
class SpanForest:
    """Every trace's span trees, plus the records that failed to attach."""

    #: ``trace_id -> root nodes`` (roots are spans with no parent).
    roots: Dict[str, List[SpanNode]] = field(default_factory=dict)
    #: Records naming a parent span that the trace never emitted.  A live
    #: tracer cannot produce these (a parent's record always lands, even on
    #: exceptions); their presence means a truncated or corrupted file.
    orphans: List[TraceRecord] = field(default_factory=list)
    #: Records with no causal identity at all (pre-context producers).
    contextless: List[TraceRecord] = field(default_factory=list)

    def iter_spans(self) -> Iterator[SpanNode]:
        """Every node of every tree, depth-first."""
        for trees in self.roots.values():
            for root in trees:
                yield from root.walk()

    def find(self, kind: str) -> List[SpanNode]:
        """Every node whose kind equals ``kind``, in emission order."""
        found = [n for n in self.iter_spans() if n.kind == kind]
        found.sort(key=lambda n: n.record.seq)
        return found


def build_span_trees(
    records: Union[Sequence[TraceRecord], PathLike]
) -> SpanForest:
    """Reconstruct the span forest of a record stream (or trace file).

    Spans become inner nodes; point events become zero-duration leaves
    under their parent span.  Children are ordered by start time so a
    tree reads chronologically.
    """
    if isinstance(records, (str, Path)):
        records = read_trace(records)
    forest = SpanForest()
    nodes: Dict[str, SpanNode] = {}
    spans: List[TraceRecord] = []
    leaves: List[TraceRecord] = []
    for record in records:
        if record.trace_id is None:
            forest.contextless.append(record)
        elif record.span_id is not None:
            nodes[record.span_id] = SpanNode(record)
            spans.append(record)
        else:
            leaves.append(record)
    for record in spans + leaves:
        node = nodes.get(record.span_id) if record.span_id else SpanNode(record)
        if record.parent_id is None:
            forest.roots.setdefault(record.trace_id, []).append(node)
        elif record.parent_id in nodes:
            nodes[record.parent_id].children.append(node)
        else:
            forest.orphans.append(record)
    for node in nodes.values():
        node.children.sort(key=lambda c: (c.record.start_ts, c.record.seq))
    for trees in forest.roots.values():
        trees.sort(key=lambda n: (n.record.start_ts, n.record.seq))
    return forest


@dataclass
class RoundPath:
    """One dispatch round's critical path through its span tree."""

    round_index: int
    dur: float
    #: ``(depth, label, dur)`` down the path of largest child spans.
    steps: List[Any] = field(default_factory=list)


@dataclass
class TraceAnalysis:
    """What ``python -m repro trace analyze`` reports."""

    forest: SpanForest
    rounds: List[RoundPath] = field(default_factory=list)
    #: ``kind -> (count, total wall, total self-time)`` over every span.
    phases: Dict[str, Any] = field(default_factory=dict)

    @property
    def orphan_count(self) -> int:
        return len(self.forest.orphans)

    def format(self, top: int = 10) -> str:
        """Human-readable critical paths + per-phase self-time table."""
        lines: List[str] = []
        trace_count = len(self.forest.roots)
        lines.append(
            f"{trace_count} trace(s), "
            f"{sum(1 for _ in self.forest.iter_spans())} spans/events, "
            f"{self.orphan_count} orphan(s)"
        )
        if self.rounds:
            lines.append("")
            lines.append("per-round critical paths")
            for rp in self.rounds:
                lines.append(f"  round {rp.round_index}  {rp.dur:.6f}s")
                for depth, label, dur in rp.steps:
                    indent = "    " * (depth + 1)
                    lines.append(f"  {indent}{dur:.6f}s  {label}")
        if self.phases:
            lines.append("")
            lines.append("phase self-time (flamegraph totals)")
            ranked = sorted(
                self.phases.items(), key=lambda kv: kv[1][2], reverse=True
            )[:top]
            width = max(len(kind) for kind, _ in ranked)
            lines.append(
                f"  {'kind'.ljust(width)}  {'count':>6}  "
                f"{'total_s':>10}  {'self_s':>10}"
            )
            for kind, (count, total, self_time) in ranked:
                lines.append(
                    f"  {kind.ljust(width)}  {count:>6}  "
                    f"{total:>10.6f}  {self_time:>10.6f}"
                )
        if self.forest.orphans:
            lines.append("")
            lines.append("orphaned records (parent span never emitted)")
            for record in self.forest.orphans[:top]:
                lines.append(
                    f"  seq={record.seq} kind={record.kind} "
                    f"parent={record.parent_id}"
                )
        return "\n".join(lines)


def _critical_path(node: SpanNode) -> List[Any]:
    """Descend into the largest child span at each level."""
    steps: List[Any] = []
    depth = 0
    current = node
    while True:
        span_children = [c for c in current.children if c.record.is_span]
        if not span_children:
            break
        best = max(span_children, key=lambda c: c.dur)
        steps.append((depth, best.label(), best.dur))
        current = best
        depth += 1
    return steps


def analyze_trace(
    records: Union[Sequence[TraceRecord], PathLike]
) -> TraceAnalysis:
    """Reconstruct trees and derive the per-round/per-phase view."""
    forest = build_span_trees(records)
    analysis = TraceAnalysis(forest=forest)
    for node in forest.iter_spans():
        if not node.record.is_span:
            continue
        count, total, self_time = analysis.phases.get(node.kind, (0, 0.0, 0.0))
        analysis.phases[node.kind] = (
            count + 1, total + node.dur, self_time + node.self_time
        )
    for node in forest.find("service.round"):
        analysis.rounds.append(
            RoundPath(
                round_index=int(node.record.fields.get("round", -1)),
                dur=node.dur,
                steps=_critical_path(node),
            )
        )
    analysis.rounds.sort(key=lambda rp: rp.round_index)
    return analysis
