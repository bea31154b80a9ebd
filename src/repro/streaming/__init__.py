"""Streaming / dynamic network embedding (paper §6 future work).

The paper closes with: "We also would like to study large-scale network
embedding in a streaming or dynamic setting."  This subpackage prototypes
that direction on top of the existing pipeline: batched edge arrivals and
deletions (:class:`EdgeBatch`, :func:`edge_stream_from_graph`), and a
:class:`DynamicEmbedder` that maintains a current embedding, re-runs the
configured registry method (full params forwarded — aggregator, substrate
and worker knobs included) when a staleness policy triggers, and keeps the
coordinate frame stable across refreshes with a Procrustes alignment.
"""

from repro.streaming.stream import EdgeBatch, edge_stream_from_graph
from repro.streaming.dynamic import DynamicEmbedder, RefreshPolicy

__all__ = [
    "EdgeBatch",
    "edge_stream_from_graph",
    "DynamicEmbedder",
    "RefreshPolicy",
]
