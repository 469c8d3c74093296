"""Process-wide metrics registry: counters, gauges, and histogram timers.

The paper's cost claims (Figures 8-12) are statements about *how* the
algorithms run — how many DP states C-VDPS generation expands, how many
best-response rounds FGT plays, where the CPU time goes.  The registry
collects those quantities as cheap in-process metrics so any run can report
them without tracing overhead:

* :class:`Counter` — monotone tallies (cache hits, DP expansions, switches).
* :class:`Gauge` — last-observed values (catalog size, worker count).
* :class:`Histogram` — bucketed latency distributions: fixed log-spaced
  buckets (:data:`DEFAULT_BUCKETS`) with streaming count/total/min/max,
  p50/p95/p99 estimation by in-bucket linear interpolation, and
  spec-compliant Prometheus ``_bucket``/``_sum``/``_count`` exposition;
  :meth:`MetricsRegistry.timer` feeds one with wall-clock phase durations
  measured via ``time.perf_counter``.

Recording is dictionary-lookup cheap, but the hot loops still avoid
per-iteration calls: they accumulate plain local integers and flush totals
once per solve/build (see :mod:`repro.vdps.generator`).  The process-wide
singleton is :data:`METRICS`; experiment arms snapshot it before/after a run
and attach the delta to their :class:`~repro.experiments.runner.RunRecord`.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Characters Prometheus forbids in metric names, replaced by ``_``.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: One lock shared by every instrument and the registry's get-or-create
#: tables.  The dispatch engine records from solve-deadline threads, some
#: abandoned and still running, so increments and lazy creation must be
#: race-free; recording is rare enough (hot loops batch locally and flush
#: once) that a single uncontended lock costs nothing measurable.
_LOCK = threading.Lock()


def _prom_name(name: str, prefix: str) -> str:
    """A Prometheus-legal metric name for registry key ``name``."""
    sanitised = _PROM_INVALID.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = f"_{sanitised}"
    return f"{prefix}{sanitised}"


def _prom_value(value: float) -> str:
    """Render ``value`` the way Prometheus text exposition expects."""
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _prom_bound(bound: float) -> str:
    """Render a bucket's ``le`` bound (``0.005``, ``1.0``, ...)."""
    return repr(float(bound))


class Counter:
    """Monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the tally by ``amount`` (must be >= 0); thread-safe."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        with _LOCK:
            self.value += amount


class Gauge:
    """Last-observed value of some quantity."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the latest reading, replacing the previous one."""
        self.value = float(value)


#: Default histogram bucket upper bounds, in seconds: log-spaced from
#: 100 µs to a minute, sized for the latencies this codebase produces
#: (journal fsyncs at the fast end, cold C-VDPS builds at the slow end).
#: Observations above the last bound land in the implicit ``+Inf`` bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Histogram:
    """Bucketed distribution of observed samples.

    Fixed upper-bound buckets (Prometheus ``le`` semantics: bucket *i*
    counts samples ``<= bounds[i]``; one implicit ``+Inf`` bucket catches
    the rest) plus the streaming count/total/min/max summary the registry
    has always exposed.  Quantiles are estimated the way
    ``histogram_quantile`` does it — find the bucket holding the target
    rank, interpolate linearly inside it — then clamped to the observed
    ``[min, max]`` so tiny sample counts cannot report a latency nobody
    ever saw.
    """

    __slots__ = ("count", "total", "min", "max", "bounds", "bucket_counts")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(sorted(DEFAULT_BUCKETS if buckets is None else buckets))
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError(f"bucket bounds must be positive, got {bounds!r}")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be distinct, got {bounds!r}")
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bounds = bounds
        # Per-bucket (non-cumulative) tallies; the final slot is +Inf.
        self.bucket_counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        """Fold one sample into the distribution; thread-safe."""
        value = float(value)
        with _LOCK:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Cumulative count per bound (``le`` semantics), +Inf slot last."""
        with _LOCK:
            counts = list(self.bucket_counts)
        out: List[int] = []
        running = 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def count_le(self, threshold: float) -> int:
        """Samples known to be ``<= threshold`` from the buckets alone.

        Conservative: only whole buckets whose upper bound is within the
        threshold are counted, so samples between the last such bound and
        the threshold are treated as violations.  SLO latency compliance
        uses this, which is why objective thresholds should sit on bucket
        bounds.
        """
        cumulative = self.cumulative_counts()
        best = 0
        for bound, cum in zip(self.bounds, cumulative):
            if bound <= threshold:
                best = cum
            else:
                break
        return best

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0.0 with no samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with _LOCK:
            count = self.count
            counts = list(self.bucket_counts)
            lo_seen, hi_seen = self.min, self.max
        if not count:
            return 0.0
        rank = q * count
        cumulative = 0
        for i, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if i >= len(self.bounds):
                    return hi_seen  # the +Inf bucket: all we know is max
                hi = self.bounds[i]
                lo = self.bounds[i - 1] if i else 0.0
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, lo_seen), hi_seen)
        return hi_seen

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """Estimated 95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.quantile(0.99)


class MetricsRegistry:
    """Named counters, gauges, and histograms with get-or-create semantics.

    A name belongs to exactly one metric kind; asking for the same name as a
    different kind raises, which catches typo'd instrumentation early.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and name in table:
                raise ValueError(f"metric {name!r} already registered as a {other}")

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use (thread-safe)."""
        metric = self._counters.get(name)
        if metric is None:
            with _LOCK:
                metric = self._counters.get(name)
                if metric is None:
                    self._check_unique(name, "counter")
                    metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use (thread-safe)."""
        metric = self._gauges.get(name)
        if metric is None:
            with _LOCK:
                metric = self._gauges.get(name)
                if metric is None:
                    self._check_unique(name, "gauge")
                    metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram called ``name``, created on first use (thread-safe).

        ``buckets`` (upper bounds) applies only at creation; an existing
        histogram keeps the bounds it was born with.
        """
        metric = self._histograms.get(name)
        if metric is None:
            with _LOCK:
                metric = self._histograms.get(name)
                if metric is None:
                    self._check_unique(name, "histogram")
                    metric = self._histograms[name] = Histogram(buckets)
        return metric

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the wall-clock duration of the enclosed block.

        Feeds ``histogram(name)`` with ``time.perf_counter`` intervals, so
        ``<name>.total`` in a snapshot is the cumulative phase time.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - start)

    def snapshot(self) -> Dict[str, float]:
        """A flat, JSON-friendly view of every metric.

        Counters and gauges appear under their own name; a histogram ``h``
        expands to ``h.count``, ``h.total``, ``h.min``, ``h.max`` (the
        extrema only once it has samples).
        """
        with _LOCK:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        out: Dict[str, float] = {}
        for name, counter in counters:
            out[name] = counter.value
        for name, gauge in gauges:
            out[name] = gauge.value
        for name, hist in histograms:
            out[f"{name}.count"] = hist.count
            out[f"{name}.total"] = hist.total
            if hist.count:
                out[f"{name}.min"] = hist.min
                out[f"{name}.max"] = hist.max
        return out

    def delta(self, before: Mapping[str, float]) -> Dict[str, float]:
        """Counter/histogram movement since the ``before`` snapshot.

        Gauges are point-in-time readings, not accumulations, so they are
        reported at their current value rather than differenced.  Keys that
        did not move are omitted.
        """
        out: Dict[str, float] = {}
        for key, value in self.snapshot().items():
            base = key.rsplit(".", 1)[0]
            if key in self._gauges:
                if value != before.get(key, value):
                    out[key] = value
                elif key not in before:
                    out[key] = value
                continue
            if base in self._histograms and key.endswith((".min", ".max")):
                continue  # extrema do not difference meaningfully
            moved = value - before.get(key, 0)
            if moved:
                out[key] = moved
        return out

    def reset(self) -> None:
        """Drop every registered metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text-exposition rendering of the registry.

        Counters and gauges keep their kind; a histogram renders as a real
        Prometheus ``histogram`` — cumulative ``_bucket{le="..."}`` series
        ending in ``le="+Inf"``, then ``_sum`` and ``_count`` — plus
        ``_min``/``_max`` gauges once it has samples.  Registry names are
        sanitised (``.`` and ``-`` become ``_``) and prefixed, so
        ``service.dispatch_seconds`` is scraped as
        ``repro_service_dispatch_seconds_bucket{le="0.005"}`` etc.  This is
        what ``GET /metrics`` on the dispatch service serves.
        """
        with _LOCK:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        lines: List[str] = []
        for name in sorted(counters):
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(counters[name].value)}")
        for name in sorted(gauges):
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(gauges[name].value)}")
        for name in sorted(histograms):
            hist = histograms[name]
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = hist.cumulative_counts()
            for bound, cum in zip(hist.bounds, cumulative):
                lines.append(
                    f'{metric}_bucket{{le="{_prom_bound(bound)}"}} {cum}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative[-1]}')
            lines.append(f"{metric}_sum {_prom_value(hist.total)}")
            lines.append(f"{metric}_count {_prom_value(hist.count)}")
            if hist.count:
                lines.append(f"# TYPE {metric}_min gauge")
                lines.append(f"{metric}_min {_prom_value(hist.min)}")
                lines.append(f"# TYPE {metric}_max gauge")
                lines.append(f"{metric}_max {_prom_value(hist.max)}")
        return "\n".join(lines) + "\n" if lines else ""

    def format(self) -> str:
        """Multi-line ``name  value`` table, alphabetical, for CLI output."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics recorded)"
        width = max(len(name) for name in snap)
        lines = []
        for name in sorted(snap):
            value = snap[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{name.ljust(width)}  {rendered}")
        return "\n".join(lines)


#: The process-wide registry every instrumented component records into.
METRICS = MetricsRegistry()

#: The incremental-catalog metric surface (:mod:`repro.vdps.delta` and the
#: service cache).  All counters except the final timer histogram:
#:
#: * ``catalog.delta_applies`` / ``catalog.delta_noops`` — refreshes served
#:   by state surgery vs. recognised as no-change.
#: * ``catalog.delta_fallbacks`` — refreshes that fell back to a rebuild
#:   (churn above ``rebuild_fraction`` or a structural change).
#: * ``catalog.delta_rebuilds`` — full builds: every cold build and every
#:   fallback.
#: * ``catalog.delta_points_added`` / ``catalog.delta_points_removed`` —
#:   delivery-point churn applied as deltas (a changed point counts once in
#:   each).
#: * ``catalog.delta_entries_added`` / ``catalog.delta_entries_removed`` —
#:   C-VDPS entry movement those point deltas caused.
#: * ``catalog.delta_workers_revalidated`` — workers whose own content
#:   changed and were re-validated against the full entry table (untouched
#:   workers get patched incrementally).
#: * ``catalog.delta_refresh_seconds`` — histogram of each center's
#:   refresh wall-clock: its surgery, or the hand-over of its full build
#:   (the build itself is timed by the refresh's ``catalog.batch`` span).
CATALOG_DELTA_METRICS = (
    "catalog.delta_applies",
    "catalog.delta_noops",
    "catalog.delta_fallbacks",
    "catalog.delta_rebuilds",
    "catalog.delta_points_added",
    "catalog.delta_points_removed",
    "catalog.delta_entries_added",
    "catalog.delta_entries_removed",
    "catalog.delta_workers_revalidated",
    "catalog.delta_refresh_seconds",
)


def metrics_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return METRICS


def reset_metrics() -> None:
    """Drop all metrics (start of a ``repro trace`` run or a test)."""
    METRICS.reset()


def render_prometheus(
    registry: MetricsRegistry = None, prefix: str = "repro_"
) -> str:
    """Prometheus text rendering of ``registry`` (default: :data:`METRICS`)."""
    if registry is None:
        registry = METRICS
    return registry.render_prometheus(prefix=prefix)
