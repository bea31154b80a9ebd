"""Re-export of :func:`repro.linalg.randomized_svd.factorize`.

The single-pass factorizer that lived here is gone.  The benchmark replay
``benchmarks/perf/layers.py``, which changes only together with the
benchmark itself, still imports ``factorize`` from this path; this module
is deleted when that replay imports it from :mod:`repro.linalg.randomized_svd`
(ROADMAP, "Do first" item (i)).
"""

from repro.linalg.randomized_svd import factorize  # noqa: F401
