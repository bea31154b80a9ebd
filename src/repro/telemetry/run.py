"""What one pipeline run records: a root span, its stages, its own counters.

:func:`run_scope` roots a run in a real :class:`~repro.telemetry.tracer.Span`
— on the installed tracer when tracing is on, on a tracer private to the run
otherwise — and makes it the calling thread's active run (:func:`active_run`).
That root is the only context a run has: :func:`stage` opens a Table-5 stage
as its child, :func:`repro.telemetry.count` adds to its ``counters`` and the
:mod:`repro.telemetry.health` hooks write to its ``health`` recorder, so lower
layers reach the run with nothing threaded down their signatures.  The
finished root is the run's record (``EmbeddingResult.run``; the ledger line
is read off it), and :class:`StageTable` (``EmbeddingResult.timer``) is the
read-only stage breakdown over its children.  With tracing off a run
allocates its root and one span per stage and nothing else: batch / term /
chunk instrumentation stays on the no-op :func:`repro.telemetry.span` path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from numbers import Real
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry import tracer as _tracer
from repro.telemetry.tracer import Span, Tracer

_active = threading.local()


@contextmanager
def run_scope(name: str, **attributes: object) -> Iterator[Span]:
    """Root a pipeline run in a span named ``name``; yields that span.

    With telemetry enabled the span's ``counters`` is a dict of the run's
    own: what it counts, pool threads included, adds there as well as to the
    enclosing runs' and the tracer's totals.
    """
    installed = _tracer.get_tracer()
    previous = active_run()
    with (installed or Tracer()).span(name, **attributes) as root:
        if installed is not None:
            root.counters = {}
        _active.root = root
        try:
            yield root
        finally:
            _active.root = previous


def active_run() -> Optional[Span]:
    """The root span of the calling thread's innermost open run (or None)."""
    return getattr(_active, "root", None)


def stage(name: str, **attributes: object):
    """Open stage ``name`` (a context manager yielding the span): a real child
    span of the active run, tracing on or off; outside any run, whatever
    :func:`repro.telemetry.span` gives."""
    root = active_run()
    if root is None:
        return _tracer.span(name, **attributes)
    return root.tracer.span(name, **attributes)


class StageTable:
    """Read-only Table-5 view over ``spans`` (a run span's ``children``).

    Each finished span is a stage: durations of a repeated name accumulate,
    and a stage's numeric span attributes are its counters (the throughput
    and footprint figures printed under the table).
    """

    def __init__(self, spans: Sequence[Span] = ()) -> None:
        self._spans = spans

    @property
    def stages(self) -> Dict[str, float]:
        """Accumulated seconds per stage, in first-appearance order."""
        out: Dict[str, float] = {}
        for span in self._spans:
            if span.end is not None:
                out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    @property
    def counters(self) -> Dict[str, Dict[str, float]]:
        """``{stage: {counter: value}}`` from numeric span attributes."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self._spans:
            if span.end is None:
                continue
            for key, value in span.attributes.items():
                if isinstance(value, Real) and not isinstance(value, bool):
                    out.setdefault(span.name, {})[key] = float(value)
        return out

    def get_counter(self, stage: str, name: str, default: float = 0.0) -> float:
        """Read back a counter (``default`` when absent)."""
        return self.counters.get(stage, {}).get(name, default)

    @property
    def total(self) -> float:
        """Sum of all stage durations."""
        return sum(self.stages.values())

    def as_rows(self) -> List[Tuple[str, float]]:
        """``(stage, seconds)`` rows in first-appearance order."""
        return list(self.stages.items())

    def format(self) -> str:
        """Human-readable multi-line breakdown (durations, then counters)."""
        stages = self.stages
        if not stages:
            return "(no stages recorded)"
        width = max(len(name) for name in stages)
        lines = [
            f"{name:<{width}}  {seconds:>10.4f} s"
            for name, seconds in [*stages.items(), ("total", self.total)]
        ]
        for stage_name, counters in self.counters.items():
            for name, value in counters.items():
                if value.is_integer():
                    rendered = f"{value:,.0f}"
                else:  # rates keep one decimal, sub-unit figures four digits
                    rendered = f"{value:,.1f}" if abs(value) >= 100 else f"{value:.4g}"
                lines.append(f"  {stage_name}.{name} = {rendered}")
        return "\n".join(lines)
