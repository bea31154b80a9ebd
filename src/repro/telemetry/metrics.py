"""Metrics registry: counters, gauges and fixed-bucket histograms.

The quantitative side of the telemetry subsystem (the span tracer is the
structural side).  Three instrument kinds, mirroring the Prometheus data
model the rest of the ecosystem speaks:

* :class:`Counter` — monotonically increasing totals (samples drawn, batches
  walked, distinct sparsifier entries);
* :class:`Gauge` — last-written values (hash-table load factor, peak RSS);
* :class:`Histogram` — fixed-bucket distributions (per-batch sampling
  latency, hash-table probe rounds, SVD iteration seconds).

Instruments live in a :class:`MetricsRegistry`; :meth:`MetricsRegistry.snapshot`
returns a plain-dict snapshot (JSON-serializable) and
:meth:`MetricsRegistry.write_json` persists it.  All operations are
thread-safe.

Like tracing, metric *collection* is off by default: the module-level
:func:`counter` / :func:`gauge` / :func:`histogram` helpers return shared
no-op instruments until :func:`repro.telemetry.enable` installs a tracer,
so instrumented hot paths cost one function call when telemetry is off.
They write to :func:`current` — the registry of the calling thread's current
span (one pipeline run's, rolled up into the enclosing registry when the run
ends; see :func:`repro.telemetry.run.run_scope`), else the process-global one.
"""

from __future__ import annotations

import json
import math
import os
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry import tracer as _tracer_mod

# Latency buckets in seconds: sub-millisecond through a minute, roughly
# geometric.  Wide enough for per-batch sampling and per-iteration SVD times.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

# Probe-length buckets for the open-addressing hash table (rounds of linear
# probing; >16 signals a pathological load factor).
PROBE_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 32, 64)


class Counter:
    """Monotonic counter (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """Last-value-wins gauge with a remembered maximum (thread-safe)."""

    __slots__ = ("name", "_value", "_max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record ``value`` as the gauge's current reading."""
        value = float(value)
        with self._lock:
            self._value = value
            if self._max is None or value > self._max:
                self._max = value

    def set_max(self, value: float) -> None:
        """Record ``value`` only if it exceeds the current reading."""
        value = float(value)
        with self._lock:
            if self._value is None or value > self._value:
                self._value = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def value(self) -> Optional[float]:
        """Most recent reading (``None`` before the first ``set``)."""
        return self._value

    @property
    def max(self) -> Optional[float]:
        """Largest value ever set."""
        return self._max


class Histogram:
    """Fixed-bucket histogram (thread-safe).

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    (``+inf``) is appended, so ``counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "buckets", "counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # First bucket whose inclusive upper bound covers the value; values
        # above every bound land in the implicit overflow bucket.
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        """Plain-dict view (bounds, per-bucket counts, summary stats)."""
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "mean": self._sum / self._count if self._count else None,
            }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        The aggregation primitive of :meth:`MetricsRegistry.roll_up`: a
        finished run's histograms merge into the enclosing registry
        bucket-wise.  Bucket bounds must match exactly (same instrument name
        implies same bounds under the fixed-bucket scheme); a mismatch
        raises rather than silently misbinning.
        """
        bounds = tuple(float(b) for b in (snapshot.get("buckets") or ()))
        if bounds != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"{bounds} != {self.buckets}"
            )
        counts = list(snapshot.get("counts") or ())
        if len(counts) != len(self.counts):
            raise ValueError(
                f"cannot merge histogram {self.name!r}: {len(counts)} bucket "
                f"counts != {len(self.counts)}"
            )
        other_count = int(snapshot.get("count") or 0)
        other_sum = float(snapshot.get("sum") or 0.0)
        other_min = snapshot.get("min")
        other_max = snapshot.get("max")
        with self._lock:
            for idx, value in enumerate(counts):
                self.counts[idx] += int(value)
            self._count += other_count
            self._sum += other_sum
            if other_min is not None and float(other_min) < self._min:
                self._min = float(other_min)
            if other_max is not None and float(other_max) > self._max:
                self._max = float(other_max)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op (telemetry disabled)."""

    def set(self, value: float) -> None:
        """No-op (telemetry disabled)."""

    def set_max(self, value: float) -> None:
        """No-op (telemetry disabled)."""

    def observe(self, value: float) -> None:
        """No-op (telemetry disabled)."""


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Create-or-get registry of named instruments with a snapshot API."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------ factories
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """The histogram under ``name`` (``buckets`` only applies at creation)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, buckets)
            return instrument

    # -------------------------------------------------------------- reading
    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        with self._lock:
            return sorted(
                list(self._counters) + list(self._gauges) + list(self._histograms)
            )

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {
                name: {"value": g.value, "max": g.max}
                for name, g in sorted(gauges.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }

    def write_json(self, path: Union[str, "os.PathLike"]) -> None:
        """Persist :meth:`snapshot` to ``path`` as JSON.

        Crash-safe: missing parent directories are created and the payload
        is staged in a temp file then renamed over ``path``, so a killed run
        never leaves a truncated ``metrics.json`` behind.
        """
        from repro.utils.fileio import atomic_write_json

        atomic_write_json(path, self.snapshot(), indent=2)

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        With the semantics each instrument kind calls for: counters **sum**
        (totals across registries), gauges take the **max** (peak semantics
        — the interesting gauges are peaks), histograms merge
        **bucket-wise**.  A malformed instrument is skipped with a warning
        instead of poisoning the rest of the merge.
        """
        from repro.utils.log import get_logger

        logger = get_logger(__name__)
        for name, value in dict(snapshot.get("counters") or {}).items():
            try:
                amount = float(value)  # convert first: no instrument on failure
                self.counter(str(name)).inc(amount)
            except (TypeError, ValueError) as exc:
                logger.warning("metrics merge: counter %r skipped (%s)", name, exc)
        for name, reading in dict(snapshot.get("gauges") or {}).items():
            if not isinstance(reading, Mapping):
                continue
            value = reading.get("max")
            if value is None:
                value = reading.get("value")
            if value is None:
                continue
            try:
                peak = float(value)
                self.gauge(str(name)).set_max(peak)
            except (TypeError, ValueError) as exc:
                logger.warning("metrics merge: gauge %r skipped (%s)", name, exc)
        for name, hist in dict(snapshot.get("histograms") or {}).items():
            if not isinstance(hist, Mapping):
                continue
            bounds = tuple(hist.get("buckets") or DEFAULT_LATENCY_BUCKETS)
            try:
                self.histogram(str(name), bounds).merge(hist)
            except (TypeError, ValueError) as exc:
                logger.warning("metrics merge: histogram %r skipped (%s)", name, exc)

    def roll_up(self, scope: "MetricsRegistry") -> None:
        """Fold the registry of a finished nested scope (one pipeline run)
        into this one, leaving it as if the scope had written here:
        :meth:`merge_snapshot`, except that a gauge ends on the scope's last
        reading (and keeps the larger peak)."""
        snapshot = scope.snapshot()
        self.merge_snapshot(snapshot)
        for name, reading in snapshot["gauges"].items():
            if reading["value"] is not None:
                self.gauge(name).set(reading["value"])

    def reset(self) -> None:
        """Drop every instrument (fresh registry state)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# --------------------------------------------------------------------------
# Process-global registry; gated helpers mirror tracer.span's fast path.
# --------------------------------------------------------------------------

_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry (always available, even when disabled)."""
    return _registry


def reset_metrics() -> None:
    """Clear the process-global registry."""
    _registry.reset()


def current() -> MetricsRegistry:
    """The registry the helpers below write to on the calling thread: the
    one its current span names (a pipeline run's), else the global one."""
    span = _tracer_mod.current_span()
    if span is None or span.metrics is None:
        return _registry
    return span.metrics


def counter(name: str):
    """Current counter, or a shared no-op when telemetry is disabled."""
    if _tracer_mod._tracer is None:
        return NULL_INSTRUMENT
    return current().counter(name)


def gauge(name: str):
    """Current gauge, or a shared no-op when telemetry is disabled."""
    if _tracer_mod._tracer is None:
        return NULL_INSTRUMENT
    return current().gauge(name)


def histogram(name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
    """Current histogram, or a shared no-op when telemetry is disabled."""
    if _tracer_mod._tracer is None:
        return NULL_INSTRUMENT
    return current().histogram(name, buckets)
