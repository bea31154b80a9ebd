"""Single-line terminal progress rendering (the CLI's ``--progress`` flag).

Progress has one source: :func:`repro.utils.parallel.parallel_imap` counts
each completed task of its ``label`` (pool futures and the serial loop
alike), and the propagation stage counts its Chebyshev terms the same way.

Rendering is deliberately dumb: one ``\\r``-rewritten stderr line per
active stage, throttled to ~10 Hz, with a newline once a stage with a
known total completes.  Like the rest of the telemetry layer it is off by
default and every hook is a cheap gated call when disabled.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional, TextIO

RENDER_INTERVAL_S = 0.1

_lock = threading.Lock()
_enabled = False
_stream: Optional[TextIO] = None
_stages: Dict[str, Dict[str, object]] = {}
_last_render = 0.0
_last_len = 0


def enable(stream: Optional[TextIO] = None) -> None:
    """Turn on progress rendering (to ``stream``, default stderr)."""
    global _enabled, _stream, _last_render, _last_len
    with _lock:
        _enabled = True
        _stream = stream
        _stages.clear()
        _last_render = 0.0
        _last_len = 0


def disable() -> None:
    """Turn off progress rendering and drop all stage state."""
    global _enabled, _stream, _last_len
    with _lock:
        if _enabled and _last_len:
            out = _stream or sys.stderr
            try:
                out.write("\n")
                out.flush()
            except (OSError, ValueError):
                pass
        _enabled = False
        _stream = None
        _stages.clear()


def is_enabled() -> bool:
    """Whether progress rendering is on."""
    return _enabled


def begin(label: str, total: Optional[int] = None) -> None:
    """Reset ``label``'s completion state (a stage is starting over).

    ``parallel_map`` calls this per invocation so repeated stages with the
    same label (e.g. one SPMM per propagation term) restart at 0 instead of
    sticking at the previous call's maximum.
    """
    if not _enabled:
        return
    with _lock:
        _stages[label] = {"done": 0, "total": None if total is None else int(total)}
        _render_locked(label, force=True)


def task_completed(label: str) -> None:
    """Count one finished task for ``label``."""
    if not _enabled:
        return
    with _lock:
        stage = _stages.setdefault(label, {"done": 0, "total": None})
        stage["done"] = int(stage["done"]) + 1
        total = stage["total"]
        _render_locked(
            label, force=total is not None and int(stage["done"]) >= int(total)
        )


def _render_locked(label: str, force: bool = False) -> None:
    global _last_render, _last_len
    now = time.monotonic()
    if not force and now - _last_render < RENDER_INTERVAL_S:
        return
    _last_render = now
    stage = _stages[label]
    total = stage["total"]
    done = int(stage["done"])
    line = f"{label}: {done}/{total if total is not None else '?'}"
    out = _stream or sys.stderr
    try:
        out.write("\r" + line + " " * max(0, _last_len - len(line)))
        finished = total is not None and done >= int(total)
        if finished:
            out.write("\n")
            _last_len = 0
        else:
            _last_len = len(line)
        out.flush()
    except (OSError, ValueError):  # pragma: no cover - closed stream
        pass
