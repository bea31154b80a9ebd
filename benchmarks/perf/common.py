"""Shared plumbing: environment hygiene, scratch space, checks, statistics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

# Knobs that would switch on telemetry, health probes or ledger appends
# inside the program under test; the benchmark decides those itself.
SCRUBBED_ENV = (
    "REPRO_TELEMETRY", "REPRO_HEALTH", "REPRO_LEDGER", "REPRO_LEDGER_PATH",
)
BLAS_THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
_SHM_DIR = "/dev/shm"


def scrub_environment() -> Dict[str, str]:
    """Drop the REPRO_* switches; returns what was removed (for the record)."""
    return {
        name: os.environ.pop(name) for name in SCRUBBED_ENV if name in os.environ
    }


def _shm_segments() -> set:
    """Names of the shared-memory segments Python's ``shared_memory`` made."""
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


@contextmanager
def scratch_space() -> Iterator[str]:
    """A private temp directory inside ``results/`` that is also ``TMPDIR``.

    The program spills memmaps and worker spools through :mod:`tempfile`;
    pointing it here keeps every write inside the checkout.  On exit the
    directory is removed, and a shared-memory segment that appeared while it
    was open and is still there fails the run as a leak.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="scratch-", dir=RESULTS_DIR)
    previous_env = os.environ.get("TMPDIR")
    previous_tempdir = tempfile.tempdir
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    shm_before = _shm_segments()
    try:
        yield path
    finally:
        tempfile.tempdir = previous_tempdir
        if previous_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous_env
        shutil.rmtree(path, ignore_errors=True)
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        raise RuntimeError(f"shared-memory segments outlived the run: {leaked}")


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant (Linux subreaper).

    A descendant whose parent dies is then re-parented here instead of to
    init, so :func:`stop_child_processes` can see, stop and wait for it.
    """
    try:
        import ctypes

        pr_set_child_subreaper = 36
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still stopped below


def _child_pids() -> List[int]:
    """Pids whose parent is this process (zombies included), from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces and ')'.
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_child_processes(grace_s: float = 5.0) -> List[int]:
    """Stop every process this run started and wait until each has ended.

    The program's process backend hands its shared-memory segments to
    ``multiprocessing``'s resource tracker, a helper process that normally
    lives until *after* its parent has exited and is then nobody's to reap.
    It is asked to stop first (closing its pipe; it has nothing left to clean
    once the leak check passed); whatever else is still a child after that
    is killed.  Returns the pids that had to be killed, for the record.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes the pipe and waits for the helper to end
    killed: List[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        children = _child_pids()
        if not children:
            return killed
        for pid in children:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    continue  # had already ended; now reaped
                if pid not in killed:
                    os.kill(pid, 9)
                    killed.append(pid)
            except (ChildProcessError, ProcessLookupError):
                pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"child processes would not end: {children}")
        time.sleep(0.01)


def cpu_seconds() -> float:
    """Process CPU seconds so far: user + system, reaped children included."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def embedding_problem(
    vectors: np.ndarray, shape: tuple, reference: Optional[np.ndarray] = None
) -> Optional[str]:
    """Why ``vectors`` is not an acceptable embedding, or ``None`` if it is."""
    if not isinstance(vectors, np.ndarray) or vectors.shape != shape:
        return f"shape {getattr(vectors, 'shape', None)} != {shape}"
    if not np.isfinite(vectors).all():
        return "non-finite entries"
    if reference is not None and not np.array_equal(vectors, reference):
        return "not bit-identical to the first library run"
    return None


def summarise(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and count of ``samples`` (quartiles need >= 2)."""
    values = [float(x) for x in samples]
    out: Dict[str, object] = {
        "value": statistics.median(values), "n": len(values), "samples": values,
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def median_seconds(
    call: Callable[[], object], *, repeats: int = 3, budget_s: float = 0.25
) -> float:
    """Median wall seconds of ``call``; one sample once it costs ``budget_s``.

    Isolated kernel rows are the median of ``repeats`` calls, except that a
    call slower than the budget is measured once: the per-run time cap buys
    either the large operand or the repeats, and the operand is the point.
    """
    samples: List[float] = []
    for _ in range(repeats):
        tic = time.perf_counter()
        call()
        samples.append(time.perf_counter() - tic)
        if samples[0] >= budget_s:
            break
    return statistics.median(samples)


def llc_bytes() -> Optional[int]:
    """Size of the highest-level cache cpu0 reports, or ``None``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, None
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit() and level > best_level:
            best_level, best_size = level, int(digits) * scale
    return best_size


def provenance(params) -> Dict[str, object]:
    """Where and how this run executed (recorded, never gated on)."""
    from repro.telemetry.environment import collect_fingerprint
    from repro.utils.parallel import default_workers

    return {
        "nproc": os.cpu_count(),
        "resolved_workers": int(params.workers or default_workers()),
        "backend": params.backend,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "llc_bytes": llc_bytes(),
        "fingerprint": collect_fingerprint(),
    }
