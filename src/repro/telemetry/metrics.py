"""Metrics registry: named counters.

The quantitative side of the telemetry subsystem (the span tracer is the
structural side).  One instrument kind, :class:`Counter` — a monotonically
increasing total (draws taken, batches walked, operator passes, SPMM flops).
Durations are span durations, the peak RSS is the ledger record's and probe
values live in the health block; the registry holds only what is counted.

Counters live in a :class:`MetricsRegistry`; :meth:`MetricsRegistry.snapshot`
returns a plain-dict snapshot (``{"counters": {...}}``, JSON-serializable)
and :meth:`MetricsRegistry.write_json` persists it.  All operations are
thread-safe.

Like tracing, metric *collection* is off by default: the module-level
:func:`counter` helper returns a shared no-op counter until
:func:`repro.telemetry.enable` installs a tracer, so instrumented hot paths
cost one function call when telemetry is off.  It writes to :func:`current`
— the registry of the calling thread's current span (one pipeline run's,
rolled up into the enclosing registry when the run ends; see
:func:`repro.telemetry.run.run_scope`), else the process-global one.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Union

from repro.telemetry import tracer as _tracer_mod


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


class _NullInstrument:
    """Shared no-op counter for disabled telemetry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op (telemetry disabled)."""


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Create-or-get registry of named counters with a snapshot API."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def names(self) -> List[str]:
        """All registered counter names, sorted."""
        with self._lock:
            return sorted(self._counters)

    def snapshot(self) -> dict:
        """JSON-serializable snapshot: ``{"counters": {name: total}}``."""
        with self._lock:
            counters = dict(self._counters)
        return {"counters": {name: c.value for name, c in sorted(counters.items())}}

    def write_json(self, path: Union[str, "os.PathLike"]) -> None:
        """Persist :meth:`snapshot` to ``path`` as JSON.

        Crash-safe: missing parent directories are created and the payload
        is staged in a temp file then renamed over ``path``, so a killed run
        never leaves a truncated ``metrics.json`` behind.
        """
        from repro.utils.fileio import atomic_write_json

        atomic_write_json(path, self.snapshot(), indent=2)

    def roll_up(self, scope: "MetricsRegistry") -> None:
        """Fold the registry of a finished nested scope (one pipeline run)
        into this one: each counter adds the scope's total, leaving this
        registry as if the scope had written here."""
        for name, value in scope.snapshot()["counters"].items():
            self.counter(name).inc(value)

    def reset(self) -> None:
        """Drop every counter (fresh registry state)."""
        with self._lock:
            self._counters.clear()


# --------------------------------------------------------------------------
# Process-global registry; the gated helper mirrors tracer.span's fast path.
# --------------------------------------------------------------------------

_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry (always available, even when disabled)."""
    return _registry


def reset_metrics() -> None:
    """Clear the process-global registry."""
    _registry.reset()


def current() -> MetricsRegistry:
    """The registry :func:`counter` writes to on the calling thread: the
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

