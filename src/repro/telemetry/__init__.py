"""repro.telemetry — hierarchical tracing, counters and memory profiling.

The observability substrate for the whole pipeline (see
``docs/observability.md``).  Its pieces:

* **Spans** (:mod:`repro.telemetry.tracer`) — nested, thread-aware timed
  intervals forming a trace tree, exportable as Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``);
* **Counters** (:func:`repro.telemetry.count`) — named totals kept on the
  tracer (the process's, :attr:`Tracer.counters`) and on each run root;
* **Runs** (:mod:`repro.telemetry.run`) — one pipeline run is one root span:
  its child spans are the Table-5 stages (``EmbeddingResult.timer`` is a
  view of them, tracing on or off), its ``counters`` are its own and its
  ``health`` recorder takes the stage digests;
* **Memory** (:mod:`repro.telemetry.memory`) — the OS peak RSS and a
  background RSS / anonymous-memory sampler;
* **Progress** (:mod:`repro.telemetry.progress`) — single-line terminal
  progress drawn from the span stream: a :attr:`Tracer.on_close` hook that
  counts sampling slabs and Chebyshev terms (the CLI's ``--progress`` flag,
  which turns tracing on).

On top of the substrate sits the *persistence* layer:

* **Ledger** (:mod:`repro.telemetry.ledger`) — every pipeline run appends
  one :class:`RunRecord` (params hash, environment fingerprint, Table-5
  stage times, metrics, peak RSS) to ``benchmarks/results/runs.jsonl``;
* **Reports** (:mod:`repro.telemetry.report`, CLI ``lightne report``) —
  terminal trajectories, the latest run's stage breakdown and metrics
  diffs (the span tree itself is drawn by Perfetto from the Chrome trace);
* **Numerical health** (:mod:`repro.telemetry.health`, CLI ``--health``)
  — per-stage content digests plus contract probes (sparsifier mass,
  factorization residual, finiteness), recorded into the ledger's
  ``health``/``digests`` blocks under a configurable
  ``off|record|warn|raise`` policy;
* **Determinism audit** (:mod:`repro.telemetry.audit`, CLI
  ``lightne audit``) — diffs two ledger runs digest by digest and
  localizes the first diverging stage.

The three readers share ``RunLedger.records``, ``ledger.find_run`` and
:func:`repro.utils.format_table`, and mount themselves on the ``lightne``
CLI through their ``init_subparser``.

Everything is **disabled by default** and the instrumentation left in the
hot paths costs a single gated function call in that state.  Typical use::

    from repro import telemetry

    tracer = telemetry.enable()
    result = lightne_embedding(graph, params, seed=0)
    tracer.write_chrome_trace("trace.json")          # open in Perfetto
    print(tracer.counters)                           # process totals
    telemetry.disable()

or from the CLI: ``lightne embed ... --trace-out trace.json
--metrics-out metrics.json``.
"""

from repro.telemetry.tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    adopt,
    count,
    current_span,
    disable,
    enable,
    get_tracer,
    is_enabled,
    span,
)
from repro.telemetry.run import StageTable, run_scope, stage
from repro.telemetry.memory import (
    MemoryProfile,
    MemorySampler,
    current_rss_bytes,
    peak_rss_bytes,
)
from repro.telemetry.environment import collect_fingerprint, fingerprint_key
from repro.telemetry.ledger import RunLedger, RunRecord
from repro.telemetry.health import (
    HealthRecorder,
    ProbeResult,
    StageDigest,
    digest_csr,
    digest_dense,
    fingerprint,
)

# Submodules imported for attribute access (telemetry.progress.ProgressLines
# etc.); ``health`` is also re-imported as a submodule so ``telemetry.health.
# set_policy(...)`` works without a separate import.
from repro.telemetry import health
from repro.telemetry import progress

__all__ = [
    # tracer
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "current_span",
    "adopt",
    "count",
    "enable",
    "disable",
    "is_enabled",
    "get_tracer",
    # runs
    "run_scope",
    "stage",
    "StageTable",
    # memory
    "MemoryProfile",
    "MemorySampler",
    "current_rss_bytes",
    "peak_rss_bytes",
    # environment & ledger
    "collect_fingerprint",
    "fingerprint_key",
    "RunLedger",
    "RunRecord",
    # numerical health
    "HealthRecorder",
    "ProbeResult",
    "StageDigest",
    "digest_csr",
    "digest_dense",
    "fingerprint",
    "health",
    "progress",
]
