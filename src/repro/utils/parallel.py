"""Chunked parallel-map helpers — the Python analog of GBBS bulk parallelism.

The paper's C++ substrate executes ``MapEdges`` style primitives with a
work-stealing scheduler.  In Python the heavy lifting happens inside numpy
kernels (which release the GIL), so the default shape is: split the index
space into contiguous chunks, run a vectorized kernel per chunk, optionally
on a thread pool.  ``parallel_map`` degrades gracefully to a serial loop when
``workers <= 1``, which keeps unit tests deterministic and cheap.

Two execution backends are offered:

* ``backend="thread"`` (default) — a ``ThreadPoolExecutor``.  Right for
  numpy-kernel-dominated tasks (the kernels release the GIL) and for tasks
  that close over in-process state.
* ``backend="process"`` — a ``ProcessPoolExecutor``.  Escapes the GIL for
  Python-side batching entirely and keeps large per-task temporaries in the
  worker processes' address spaces (the out-of-core execution mode's
  substrate).  Tasks and their arguments must be picklable; module-level
  functions only, no closures.  ``initializer``/``initargs`` ship per-worker
  context (a memmap path, big read-only arrays) once per worker instead of
  once per task.

Failure semantics (both backends): the first task that raises wins — every
not-yet-started task is cancelled, the pool is torn down, and the original
exception is re-raised.  A worker *process* that dies (killed, out of memory,
failed initializer) surfaces as a typed :class:`~repro.errors.WorkerError`
naming ``label``.

Observability: ``parallel_map`` owns span parenting.  Whatever a task records
— spans, and through them the metrics of the enclosing pipeline run — lands
under the submitting thread's current span: pool threads run each task under
:func:`repro.telemetry.adopt`, and a process pool (when tracing or progress
rendering is on) gets the cross-process shim (:mod:`repro.telemetry.worker`)
in every worker — spans/metrics/memory spool to per-worker files merged under
that same span when the pool finishes, heartbeats feed a stall detector.
``label`` names the stage for progress lines, stall warnings and worker
Perfetto lanes; with telemetry and progress off all of it is one gated call.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro import telemetry
from repro.errors import WorkerError

T = TypeVar("T")

BACKENDS = ("thread", "process")


def default_workers() -> int:
    """Worker count used when callers pass ``workers=None``."""
    return min(8, os.cpu_count() or 1)


def resolve_backend(backend: Optional[str]) -> str:
    """Validate and normalize an execution-backend name.

    ``None`` means "the default" (``"thread"``); anything else must be one of
    :data:`BACKENDS`.
    """
    if backend is None:
        return "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def chunk_ranges(total: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``chunks`` contiguous half-open ranges.

    The first ``total % chunks`` ranges get one extra element so sizes differ
    by at most one.  Empty ranges are never returned.

    >>> chunk_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunks <= 0:
        raise ValueError(f"chunks must be positive, got {chunks}")
    chunks = min(chunks, total) or 1
    base, extra = divmod(total, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        ranges.append((start, start + size))
        start += size
    return ranges


def _attach_progress(futures, label: Optional[str]) -> None:
    """Feed parent-side task completions into the progress renderer."""
    if label is None:
        return
    from repro.telemetry import progress

    if not progress.is_enabled():
        return
    progress.begin(label, total=len(futures))
    for future in futures:
        future.add_done_callback(lambda _f: progress.task_completed(label))


def _collect_fail_fast(pool, futures) -> List[T]:
    """Results in submission order; on first failure cancel the rest, re-raise.

    ``wait(..., FIRST_EXCEPTION)`` returns as soon as any future raises (or
    all complete); pending futures are then cancelled before the original
    exception propagates, so one bad batch does not leave the rest of the
    queue burning CPU behind the traceback.
    """
    done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    failed = next(
        (f for f in futures if f in done and f.exception() is not None), None
    )
    if failed is not None:
        for future in not_done:
            future.cancel()
        pool.shutdown(wait=True, cancel_futures=True)
        raise failed.exception()
    return [future.result() for future in futures]


def _run_adopted(parent, func: Callable[..., T], *args) -> T:
    """Thread-pool task body: ``func(*args)`` under the submitter's span."""
    with telemetry.adopt(parent):
        return func(*args)


def parallel_map(
    func: Callable[..., T],
    argument_tuples: Sequence[tuple],
    *,
    workers: int = 1,
    backend: str = "thread",
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    label: Optional[str] = None,
) -> List[T]:
    """Apply ``func(*args)`` for every tuple, serially or on a worker pool.

    Results are returned in input order regardless of completion order.

    Parameters
    ----------
    workers:
        Pool width; ``None`` resolves to :func:`default_workers`, ``<= 1``
        runs a plain serial loop (after running ``initializer`` once, so the
        serial path sees the same per-worker context).
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module docstring.
        Process tasks must be picklable module-level callables.
    initializer / initargs:
        Run once in every worker before any task (both backends; the serial
        path calls it inline).  The process backend uses this to ship
        per-worker context — e.g. a memmap path reopened in each child —
        once per worker instead of once per task.
    label:
        Stage name for observability: progress lines (``--progress``),
        stall-detector warnings and worker trace lanes.  ``None`` opts the
        call out of progress rendering (telemetry spooling still engages
        for process pools when tracing is on, under the generic
        ``"parallel"`` label).
    """
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(argument_tuples) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [func(*args) for args in argument_tuples]
    if backend == "process":
        # Cross-process telemetry: with tracing or progress on, chain the
        # worker shim in front of the caller's initializer, wrap each task
        # so workers account completions, and merge the spools afterwards.
        from repro.telemetry import worker as worker_telemetry

        collector = worker_telemetry.maybe_collector(label, len(argument_tuples))
        if collector is not None:
            initializer, initargs = collector.initializer(initializer, initargs)
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(argument_tuples)),
            initializer=initializer,
            initargs=initargs,
        )
        try:
            with pool:
                if collector is not None:
                    collector.start()
                    futures = [
                        pool.submit(worker_telemetry.run_task, func, tuple(args))
                        for args in argument_tuples
                    ]
                else:
                    futures = [
                        pool.submit(func, *args) for args in argument_tuples
                    ]
                _attach_progress(futures, label)
                return _collect_fail_fast(pool, futures)
        except BrokenProcessPool as exc:
            raise WorkerError(
                f"{label or 'parallel'}: a pool worker process died before "
                f"finishing its task ({exc})"
            ) from exc
        finally:
            if collector is not None:
                collector.finish()
    # Pool threads start with no current span: run each task under the
    # submitter's, so its spans and metrics land where a serial loop's would.
    parent = telemetry.current_span()
    pool = ThreadPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    )
    with pool:
        futures = [
            pool.submit(_run_adopted, parent, func, *args)
            for args in argument_tuples
        ]
        _attach_progress(futures, label)
        return _collect_fail_fast(pool, futures)
