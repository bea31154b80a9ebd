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
:func:`repro.telemetry.adopt`, and with tracing on a process pool runs each
task as :func:`repro.telemetry.worker.run_task`, whose report of the worker's
spans, metrics and memory comes back with the result and is merged under that
same span as the result is yielded.  ``label`` names the stage for progress
lines (counted from completions in this process, serial path included) and
worker Perfetto lanes; with tracing and progress off all of it is one gated
call.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro import telemetry
from repro.errors import BackendError, WorkerError

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
        raise BackendError(f"backend must be one of {BACKENDS}, got {backend!r}")
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


def _track_progress(label: Optional[str], total: int) -> Optional[Callable]:
    """Start ``label``'s progress line; the callback that counts one task
    into it (also a future done-callback), or ``None`` when progress
    rendering is off."""
    if label is None or not telemetry.progress.is_enabled():
        return None
    telemetry.progress.begin(label, total=total)
    return lambda *_future: telemetry.progress.task_completed(label)


def _ordered_results(
    pool, submit: Callable, argument_tuples: Sequence[tuple],
    window: Optional[int], label: Optional[str],
) -> Iterator[T]:
    """Results in submission order with at most ``window`` tasks submitted
    and not yet yielded; on first failure cancel the rest, re-raise.

    The wait returns as soon as the next result in order is ready *or* any
    task behind it raised, so one bad batch does not leave the rest of the
    queue burning CPU behind the traceback.  The window is refilled before a
    result is handed out: workers stay busy while the consumer works on it.
    """
    on_done = _track_progress(label, len(argument_tuples))
    remaining = iter(argument_tuples)
    in_flight: deque = deque()

    def refill() -> None:
        while window is None or len(in_flight) < window:
            args = next(remaining, None)
            if args is None:
                return
            future = submit(args)
            if on_done is not None:
                future.add_done_callback(on_done)
            in_flight.append(future)

    try:
        refill()
        while in_flight:
            head = in_flight[0]
            running = {f for f in in_flight if not f.done()}
            failed = any(
                f.exception() is not None for f in in_flight if f not in running
            )
            while not failed and head in running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                failed = any(f.exception() is not None for f in done)
            if failed:
                # The earliest failure in submission order wins.
                raise next(
                    f.exception() for f in in_flight
                    if f.done() and f.exception() is not None
                )
            in_flight.popleft()
            refill()
            yield head.result()
    finally:
        # Failure, or a consumer that stopped early: nothing still queued may
        # start, and the pool's own exit then joins what is already running.
        pool.shutdown(wait=True, cancel_futures=True)


def _run_adopted(parent, func: Callable[..., T], *args) -> T:
    """Thread-pool task body: ``func(*args)`` under the submitter's span."""
    with telemetry.adopt(parent):
        return func(*args)


def parallel_imap(
    func: Callable[..., T],
    argument_tuples: Sequence[tuple],
    *,
    workers: int = 1,
    backend: str = "thread",
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    label: Optional[str] = None,
    window: Optional[int] = None,
) -> Iterator[T]:
    """Yield ``func(*args)`` for every tuple in input order, serially or from
    a worker pool — the body of :func:`parallel_map`, as a generator.

    ``window`` bounds how many tasks are submitted and not yet yielded
    (``None``: all of them up front), so a consumer that reduces results as
    they arrive holds at most ``window`` of them however many tasks there
    are.  The serial path computes each result when it is asked for.  The
    pool lives until the generator is exhausted or closed.  Every other
    parameter is :func:`parallel_map`'s.
    """
    backend = resolve_backend(backend)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(argument_tuples) <= 1:
        on_done = _track_progress(label, len(argument_tuples))
        if initializer is not None:
            initializer(*initargs)
        for args in argument_tuples:
            result = func(*args)
            if on_done is not None:
                on_done()
            yield result
        return
    if backend == "process":
        # With tracing on, every task returns (result, report): the worker's
        # spans and metrics come home on the result pipe and are merged here
        # as each result is yielded.
        collector = (
            telemetry.worker.Collector(label or "parallel")
            if telemetry.is_enabled() else None
        )
        if collector is not None:
            initializer, initargs = (
                telemetry.worker.init_worker, (initializer, tuple(initargs))
            )
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(argument_tuples)),
            initializer=initializer,
            initargs=initargs,
        )
        if collector is None:
            def submit(args):
                return pool.submit(func, *args)
        else:
            def submit(args):
                return pool.submit(telemetry.worker.run_task, func, tuple(args))
        try:
            with pool, closing(_ordered_results(
                pool, submit, argument_tuples, window, label
            )) as results:
                for result in results:
                    if collector is not None:
                        result, report = result
                        collector.add(report)
                    yield result
        except BrokenProcessPool as exc:
            raise WorkerError(
                f"{label or 'parallel'}: a pool worker process died before "
                f"finishing its task ({exc})"
            ) from exc
        finally:
            if collector is not None:
                collector.finish()
        return
    # Pool threads start with no current span: run each task under the
    # submitter's, so its spans and metrics land where a serial loop's would.
    parent = telemetry.current_span()
    pool = ThreadPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    )
    with pool:
        yield from _ordered_results(
            pool,
            lambda args: pool.submit(_run_adopted, parent, func, *args),
            argument_tuples, window, label,
        )


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
        Stage name for observability: progress lines (``--progress``) and
        worker trace lanes.  ``None`` opts the call out of progress
        rendering (a traced process pool still reports its workers' spans,
        under the generic ``"parallel"`` label).
    """
    return list(parallel_imap(
        func, argument_tuples, workers=workers, backend=backend,
        initializer=initializer, initargs=initargs, label=label,
    ))
