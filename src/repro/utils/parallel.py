"""Chunked parallel-map helpers — the Python analog of GBBS bulk parallelism.

The paper's C++ substrate executes ``MapEdges`` style primitives with a
work-stealing scheduler.  In Python the heavy lifting happens inside numpy
kernels (which release the GIL), so the default shape is: split the index
space into contiguous chunks, run a vectorized kernel per chunk, optionally
on a thread pool.  ``parallel_map`` degrades gracefully to a serial loop when
``workers <= 1``, which keeps unit tests deterministic and cheap.

Threads are the one substrate, as in the paper's shared-memory system, so a
task may close over in-process state.  A memmapped graph is a residency of
the input, not a second substrate.

Failure semantics: the first task that raises wins — every not-yet-started
task is cancelled, the pool is torn down, and the original exception is
re-raised.

Observability: ``parallel_map`` owns span parenting.  Whatever a task records
— spans, and through them the counters of the enclosing pipeline run — lands
under the submitting thread's current span: pool threads run each task under
:func:`repro.telemetry.adopt`.  ``label`` names the stage for progress lines
(counted from completions, serial path included); with tracing and progress
off all of it is one gated call.

Thread budget: numpy's BLAS keeps a thread pool of its own.  Where this
module's pool runs the big products — the dense stages' sparse products —
:func:`single_blas_thread` holds numpy's BLAS at one thread for the scope,
so ``workers`` is the stages' whole budget: an idle OpenBLAS thread spins
before it sleeps, and on a small machine it steals a core from the next
threaded product.  It also makes a product's bits independent of the BLAS
thread count.  The control is numpy's own OpenBLAS, found through
``ctypes``; with any other BLAS (MKL, Accelerate) the scope does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro import telemetry
from repro.errors import BackendError

T = TypeVar("T")

BACKENDS = ("thread", "process")


def default_workers() -> int:
    """Worker count used when callers pass ``workers=None``: the CPUs this
    process may run on (its affinity mask, where the platform has one),
    capped at 8."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(8, cpus)


# (setter, getter) names of OpenBLAS's thread-count control: the
# symbol-suffixed build numpy wheels bundle, then a plain OpenBLAS.
_OPENBLAS_CONTROLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@lru_cache(maxsize=1)
def _numpy_blas() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """``(set, get)`` for numpy's BLAS thread count, or ``None`` when numpy
    links a BLAS without an OpenBLAS control (MKL, Accelerate, reference).

    The symbols are looked up through numpy's linalg extension, so the
    search covers exactly the libraries it was linked against — numpy's
    OpenBLAS, not scipy's.
    """
    try:
        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for set_name, get_name in _OPENBLAS_CONTROLS:
        setter = getattr(library, set_name, None)
        getter = getattr(library, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


# The BLAS thread count is process-wide, so the hold on it is too.
_BLAS_LOCK = threading.Lock()
_blas_depth = 0  # open single_blas_thread scopes, all threads together
_blas_saved: Optional[int] = None  # the count they restore


def blas_threads() -> Optional[int]:
    """numpy's BLAS thread count as seen outside any
    :func:`single_blas_thread` scope, or ``None`` when it cannot be
    controlled."""
    control = _numpy_blas()
    if control is None:
        return None
    with _BLAS_LOCK:
        return _blas_saved if _blas_depth else control[1]()


def set_blas_threads(count: int) -> None:
    """Set numpy's BLAS thread count (a no-op when it cannot be controlled).

    While a :func:`single_blas_thread` scope is open the scope keeps its one
    thread and ``count`` becomes the value it restores.
    """
    global _blas_saved
    if count < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {count}")
    control = _numpy_blas()
    if control is None:
        return
    with _BLAS_LOCK:
        if _blas_depth:
            _blas_saved = count
        else:
            control[0](count)


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Hold numpy's BLAS at one thread for the scope, then restore the
    caller's count — also when the body raises.

    Scopes are counted process-wide under a lock: nested scopes and scopes
    open in several threads at once share one hold, and the caller's count
    comes back when the last of them exits.  Without a BLAS control
    (:func:`blas_threads` is ``None``) the scope does nothing.
    """
    global _blas_depth, _blas_saved
    control = _numpy_blas()
    if control is None:
        yield
        return
    set_count, get_count = control
    with _BLAS_LOCK:
        if _blas_depth == 0:
            _blas_saved = get_count()
            set_count(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_count(_blas_saved)
                _blas_saved = None


def resolve_backend(backend: Optional[str]) -> str:
    """Validate and normalize a ``backend`` name.

    ``None`` means "the default" (``"thread"``); anything else must be one of
    :data:`BACKENDS`.  The name is recorded and selects nothing: every pool
    in the library is a thread pool and every dense buffer an in-RAM array.
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
    label: Optional[str] = None,
    window: Optional[int] = None,
) -> Iterator[T]:
    """Yield ``func(*args)`` for every tuple in input order, serially or from
    a thread pool — the body of :func:`parallel_map`, as a generator.

    ``window`` bounds how many tasks are submitted and not yet yielded
    (``None``: all of them up front), so a consumer that reduces results as
    they arrive holds at most ``window`` of them however many tasks there
    are.  The serial path computes each result when it is asked for.  The
    pool lives until the generator is exhausted or closed.  Every other
    parameter is :func:`parallel_map`'s.
    """
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(argument_tuples) <= 1:
        on_done = _track_progress(label, len(argument_tuples))
        for args in argument_tuples:
            result = func(*args)
            if on_done is not None:
                on_done()
            yield result
        return
    # Pool threads start with no current span: run each task under the
    # submitter's, so its spans and counts land where a serial loop's would.
    parent = telemetry.current_span()
    with ThreadPoolExecutor(max_workers=workers) as pool:
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
    label: Optional[str] = None,
) -> List[T]:
    """Apply ``func(*args)`` for every tuple, serially or on a thread pool.

    Results are returned in input order regardless of completion order.

    Parameters
    ----------
    workers:
        Pool width; ``None`` resolves to :func:`default_workers`, ``<= 1``
        runs a plain serial loop.
    label:
        Stage name for progress lines (``--progress``).  ``None`` opts the
        call out of progress rendering.
    """
    return list(parallel_imap(
        func, argument_tuples, workers=workers, label=label,
    ))
