"""Hierarchical span tracer — the pipeline's structural clock.

A :class:`Span` is a named, timed interval with attributes; spans nest into a
tree (``lightne`` → ``sparsifier`` → ``sparsifier.batch`` …) that mirrors the
call structure of the pipeline, across threads.  A :class:`Tracer` collects
the tree and exports it as Chrome trace-event JSON
(:meth:`Tracer.to_chrome_trace` / :meth:`Tracer.write_chrome_trace`),
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``: one
``"X"`` (complete) event per span, ``tid`` = OS thread id, attributes under
``args``.

Tracing is **off by default** and designed to be left compiled-in: every
instrumentation point calls :func:`span`, which returns a shared no-op
context manager when no tracer is installed — no allocation, no timestamps,
no locks.  Enable with :func:`enable` (or the CLI's ``--trace-out``).

Parenting is thread-aware: each thread keeps its own current-span stack, so
concurrent stages nest correctly.  A fresh thread has an empty stack; whoever
hands work to one captures :func:`current_span` and runs the work under
:func:`adopt` — :func:`repro.utils.parallel.parallel_map` does this for every
pool task, so no caller threads a parent span through its signatures.

Counting rides on the same tree: :func:`count` adds to the tracer's process
totals (:attr:`Tracer.counters`) and to the ``counters`` of every run root
(:func:`repro.telemetry.run.run_scope`) above the calling thread's current
span, so a pool thread (through :func:`adopt`) counts into its run and a run
nested in another counts into both.

A tracer has one listener, :attr:`Tracer.on_close`, called with each span as
it closes; ``--progress`` is drawn from it (:mod:`repro.telemetry.progress`).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union


def _json_safe(value: object) -> object:
    """Coerce numpy scalars (and other oddballs) to JSON-encodable types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except Exception:  # pragma: no cover - defensive
            return str(value)
    return str(value)


class Span:
    """One named, timed interval in the trace tree.

    Spans are context managers: entering records the start timestamp and
    pushes the span onto the owning tracer's per-thread stack; exiting pops
    it and records the end.  Attributes set at construction or via
    :meth:`set_attribute` travel into the export.
    """

    __slots__ = (
        "tracer", "name", "span_id", "parent", "start", "end",
        "pid", "thread_id", "thread_name", "attributes", "children",
        "counters", "health",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = -1
        self.parent: Optional[Span] = None
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.pid = 0
        self.thread_id = 0
        self.thread_name = ""
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.children: List["Span"] = []
        # A run root's own totals (what count() adds to) and health
        # recorder; ``None`` on every other span.  See repro.telemetry.run.
        self.counters: Optional[Dict[str, float]] = None
        self.health = None

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.pid = os.getpid()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self.parent = self.tracer.current_span()
        self.tracer._register(self)
        self.tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        self.tracer._pop(self)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        on_close = self.tracer.on_close
        if on_close is not None:
            on_close(self)
        return False

    # ------------------------------------------------------------ attributes
    def set_attribute(self, key: str, value: object) -> "Span":
        """Attach ``key = value`` to the span (chainable)."""
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes: object) -> "Span":
        """Attach several attributes at once (chainable)."""
        self.attributes.update(attributes)
        return self

    # --------------------------------------------------------------- reading
    @property
    def duration(self) -> Optional[float]:
        """Elapsed seconds, or ``None`` while the span is still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first walk over this span and everything recorded under it."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.end is not None else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> "_NullSpan":
        """No-op (disabled tracing)."""
        return self

    def set_attributes(self, **attributes: object) -> "_NullSpan":
        """No-op (disabled tracing)."""
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a span tree; exports it as Chrome trace JSON.

    Thread-safe: spans may start/finish on any thread.  Each thread sees its
    own current-span stack (:meth:`current_span`); registration into the
    shared tree is guarded by a lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: List[Span] = []
        self._next_id = 0
        # Process totals of every count() since this tracer was enabled.
        self.counters: Dict[str, float] = {}
        # Called with every span as it closes, on the closing thread.
        self.on_close: Optional[Callable[[Span], None]] = None
        # Epochs pair a wall-clock anchor with the perf_counter origin so
        # exported timestamps are stable within the trace.
        self.epoch_wall = time.time()
        self.epoch_perf = time.perf_counter()

    # ---------------------------------------------------------- span control
    def span(self, name: str, **attributes: object) -> Span:
        """Create a span (use as a context manager); its parent is the
        calling thread's current span (see :func:`adopt` across threads)."""
        return Span(self, name, attributes)

    def current_span(self) -> Optional[Span]:
        """The innermost open span on *this* thread (``None`` at top level)."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1]

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    def _register(self, span: Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            if span.parent is None:
                self.roots.append(span)
            else:
                span.parent.children.append(span)

    # --------------------------------------------------------------- reading
    @property
    def span_count(self) -> int:
        """Number of spans started so far."""
        return self._next_id

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first walk over the recorded span tree."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def find_spans(self, name: str) -> List[Span]:
        """All spans with the given ``name`` (depth-first order)."""
        return [span for span in self.iter_spans() if span.name == name]

    def span_tree(self) -> List[dict]:
        """The trace as nested plain dicts (tests, quick inspection)."""

        def render(span: Span) -> dict:
            return {
                "name": span.name,
                "duration_s": span.duration,
                "attributes": {
                    k: _json_safe(v) for k, v in span.attributes.items()
                },
                "children": [render(child) for child in span.children],
            }

        with self._lock:
            roots = list(self.roots)
        return [render(span) for span in roots]

    # ------------------------------------------------------------- exporters
    def to_chrome_trace(self) -> dict:
        """The trace in Chrome trace-event format (Perfetto-loadable).

        ``process_name`` / ``thread_name`` metadata events label the lanes:
        Perfetto shows "main" and the thread names instead of raw numbers.
        A run root's event carries the run's totals under ``args.counters``.
        """
        pid = os.getpid()
        now = time.perf_counter()
        events: List[dict] = []
        threads: Dict[int, str] = {}
        for span in self.iter_spans():
            end = span.end if span.end is not None else now
            args = {k: _json_safe(v) for k, v in span.attributes.items()}
            if span.counters is not None:
                args["counters"] = dict(sorted(span.counters.items()))
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span.start - self.epoch_perf) * 1e6,
                    "dur": max(0.0, (end - span.start) * 1e6),
                    "pid": span.pid,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
            threads.setdefault(span.thread_id, span.thread_name)
        metadata: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": "main"}}
        ]
        metadata.extend(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": tname or f"thread-{tid}"},
            }
            for tid, tname in sorted(threads.items())
        )
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "exporter": "repro.telemetry",
                "epoch_unix_s": self.epoch_wall,
            },
        }

    def write_chrome_trace(self, path: Union[str, "os.PathLike"]) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` as JSON.

        Crash-safe: parents are created and the JSON is staged in a temp
        file then renamed over ``path`` (no truncated traces from killed
        runs).
        """
        from repro.utils.fileio import atomic_write_json

        atomic_write_json(path, self.to_chrome_trace())

# --------------------------------------------------------------------------
# Process-global tracer.  ``None`` means disabled; the module-level helpers
# below collapse to no-ops (shared null objects) in that state.
# --------------------------------------------------------------------------

_state_lock = threading.Lock()
_tracer: Optional[Tracer] = None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (a fresh one by default) as the global tracer."""
    global _tracer
    with _state_lock:
        _tracer = tracer if tracer is not None else Tracer()
        return _tracer


def disable() -> None:
    """Remove the global tracer; :func:`span` becomes a no-op again."""
    global _tracer
    with _state_lock:
        _tracer = None


def is_enabled() -> bool:
    """Whether a global tracer is installed."""
    return _tracer is not None


def get_tracer() -> Optional[Tracer]:
    """The installed global tracer, or ``None`` when tracing is disabled."""
    return _tracer


def span(name: str, **attributes: object) -> Union[Span, _NullSpan]:
    """Open a span on the global tracer (no-op context manager when disabled).

    This is the one call every instrumentation site makes; keep it on the
    hot path only at batch/iteration granularity.
    """
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def count(name: str, amount: float = 1.0) -> None:
    """Add ``amount`` (must be non-negative) to counter ``name``: to the
    tracer's process totals and to every run root above the calling thread's
    current span.  A no-op when tracing is disabled."""
    tracer = _tracer
    if tracer is None:
        return
    if amount < 0:
        raise ValueError(f"counter increments must be >= 0, got {amount}")
    amount = float(amount)
    span = tracer.current_span()
    with tracer._lock:
        tracer.counters[name] = tracer.counters.get(name, 0.0) + amount
        while span is not None:
            if span.counters is not None:
                span.counters[name] = span.counters.get(name, 0.0) + amount
            span = span.parent


def current_span() -> Optional[Span]:
    """The calling thread's innermost open span (``None`` when disabled)."""
    tracer = _tracer
    if tracer is None:
        return None
    return tracer.current_span()


@contextmanager
def adopt(parent: Optional[Span]) -> Iterator[None]:
    """Make ``parent`` the calling thread's current span for a block.

    The cross-thread parenting rule: spans (and counts) recorded on a pool
    or monitor thread land where they would have on the thread that handed
    the work over, whose :func:`current_span` ``parent`` is.  ``None`` (no
    span was open, or tracing is off) is a no-op.
    """
    if parent is None:
        yield
        return
    parent.tracer._push(parent)
    try:
        yield
    finally:
        parent.tracer._pop(parent)
