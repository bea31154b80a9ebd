"""Memory-profiling hooks: a background RSS peak sampler.

The paper's §5.2.4 memory story (how many samples fit in 1.5 TB) is modeled
analytically in :mod:`repro.systems.memory`; this module measures the real
process instead.  A :class:`MemorySampler` polls resident-set size and
anonymous memory on a daemon thread (``/proc/self/statm`` and
``/proc/self/status`` on Linux); :func:`peak_rss_bytes` is the OS lifetime
peak that the CLI prints and the run ledger records.

Usage::

    with MemorySampler(0.005) as sampler:
        result = lightne_embedding(graph, params)
    sampler.profile.anon_peak_bytes

Sampling is stdlib-only and degrades gracefully: on platforms without a
readable RSS source the profile's fields are ``None`` and nothing crashes.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096

_STATM_PATH = "/proc/self/statm"
_STATUS_PATH = "/proc/self/status"


def current_anon_bytes() -> Optional[int]:
    """Anonymous (heap + private-mapping) bytes right now — ``VmData``.

    This is the figure the out-of-core benchmarks compare: file-backed
    memmap pages are resident but reclaimable and do **not** count here,
    so a drop in ``VmData`` peak is genuine working-set reduction rather
    than an artifact of page-cache accounting.  ``None`` off Linux.
    """
    try:
        with open(_STATUS_PATH, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmData:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        return None
    return None


def current_rss_bytes() -> Optional[int]:
    """Resident-set size right now, or ``None`` when unreadable."""
    try:
        with open(_STATM_PATH, "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_bytes() -> Optional[int]:
    """OS-reported lifetime peak RSS (``ru_maxrss``), or ``None``."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to bytes.
    if hasattr(os, "uname") and os.uname().sysname == "Darwin":
        return int(peak)
    return int(peak) * 1024


@dataclass
class MemoryProfile:
    """What a sampling window observed.

    ``rss_*`` fields are ``None`` when the platform exposes no RSS source.
    """

    rss_start_bytes: Optional[int] = None
    rss_peak_bytes: Optional[int] = None
    rss_end_bytes: Optional[int] = None
    anon_peak_bytes: Optional[int] = None
    num_samples: int = 0
    interval_s: float = 0.0
    duration_s: float = 0.0


class MemorySampler:
    """Background RSS / anonymous-memory poller.

    ``start()`` launches a daemon thread sampling every ``interval`` seconds;
    ``stop()`` joins it and returns the :class:`MemoryProfile`.  Also usable
    as a context manager (the profile is available as ``self.profile`` after
    exit).
    """

    def __init__(self, interval: float = 0.01) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.profile: Optional[MemoryProfile] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._peak: Optional[int] = None
        self._anon_peak: Optional[int] = None
        self._rss_start: Optional[int] = None
        self._samples = 0
        self._t0 = 0.0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "MemorySampler":
        """Begin sampling (idempotent start is an error)."""
        if self._thread is not None:
            raise RuntimeError("MemorySampler already started")
        self._t0 = time.perf_counter()
        self._rss_start = current_rss_bytes()
        self._peak = self._rss_start
        self._anon_peak = current_anon_bytes()
        self._thread = threading.Thread(
            target=self._run, name="repro-memory-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            rss = current_rss_bytes()
            if rss is None:
                continue
            self._samples += 1
            if self._peak is None or rss > self._peak:
                self._peak = rss
            anon = current_anon_bytes()
            if anon is not None and (self._anon_peak is None or anon > self._anon_peak):
                self._anon_peak = anon

    def stop(self) -> MemoryProfile:
        """Stop sampling and return the observed profile."""
        if self._thread is None:
            raise RuntimeError("MemorySampler was never started")
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        rss_end = current_rss_bytes()
        peak = self._peak
        if rss_end is not None and (peak is None or rss_end > peak):
            peak = rss_end
        anon_end = current_anon_bytes()
        anon_peak = self._anon_peak
        if anon_end is not None and (anon_peak is None or anon_end > anon_peak):
            anon_peak = anon_end
        self.profile = MemoryProfile(
            rss_start_bytes=self._rss_start,
            rss_peak_bytes=peak,
            anon_peak_bytes=anon_peak,
            rss_end_bytes=rss_end,
            num_samples=self._samples,
            interval_s=self.interval,
            duration_s=time.perf_counter() - self._t0,
        )
        return self.profile

    def __enter__(self) -> "MemorySampler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False
