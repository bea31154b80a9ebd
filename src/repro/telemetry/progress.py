"""Single-line terminal progress rendering (the CLI's ``--progress`` flag).

Progress is drawn from the span stream: :class:`ProgressLines` is a
:attr:`Tracer.on_close <repro.telemetry.tracer.Tracer.on_close>` hook that
counts the closing ``sparsifier.batch`` children of ``sparsifier.sampling``
(one per sampling slab) and the ``propagation.chebyshev_term`` children of
``propagation`` (one per Chebyshev term).  Each close rewrites one stderr
line in place (``\\r``) as ``name: k/?``; the parent's own close ends it on
``name: N/N`` and a newline.  The count belongs to the parent span, so a
second run starts from 0 again.
"""

from __future__ import annotations

import sys
import threading
from typing import Optional, TextIO

# Counted child span name -> the name of the parent span whose line it counts.
COUNTED = {
    "sparsifier.batch": "sparsifier.sampling",
    "propagation.chebyshev_term": "propagation",
}


class ProgressLines:
    """Render progress lines to ``stream`` (default stderr) from span closes.

    Install on a tracer with ``tracer.on_close = ProgressLines()``.  Children
    close on pool threads too, so every write is under one lock.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream
        self._lock = threading.Lock()
        self._parent = None  # the span whose children the open line counts
        self._done = 0
        self._width = 0  # length of the open line, 0 when none is open

    def __call__(self, span) -> None:
        parent = span.parent
        if parent is not None and COUNTED.get(span.name) == parent.name:
            with self._lock:
                if parent is not self._parent:
                    self._parent, self._done = parent, 0
                self._done += 1
                self._write(f"{parent.name}: {self._done}/?", final=False)
        elif span is self._parent:
            with self._lock:
                self._write(f"{span.name}: {self._done}/{self._done}", final=True)
                self._parent = None

    def close(self) -> None:
        """End a line an interrupted run left open."""
        with self._lock:
            if self._width:
                self._write(f"{self._parent.name}: {self._done}/?", final=True)
            self._parent = None

    def _write(self, line: str, final: bool) -> None:
        out = self.stream or sys.stderr
        try:
            out.write("\r" + line + " " * max(0, self._width - len(line)))
            if final:
                out.write("\n")
            self._width = 0 if final else len(line)
            out.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass
