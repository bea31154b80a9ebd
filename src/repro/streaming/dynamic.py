"""A dynamic embedder: apply update batches, refresh when stale.

Models the industrial loop the paper's introduction motivates (Alibaba /
LinkedIn re-embedding their graphs "every few hours"): updates accumulate,
and when the staleness policy fires the graph is re-embedded with the
configured registry method (LightNE by default), reusing the *full* params —
aggregator, substrate and worker knobs included.
Consecutive embeddings are aligned with an orthogonal Procrustes rotation so
downstream consumers (ANN indexes, rankers) see a stable coordinate frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.embedding.base import EmbeddingResult
from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph
from repro.graph.transforms import add_edges, remove_edges
from repro.streaming.stream import EdgeBatch
from repro.utils.rng import SeedLike, derive_seed


@dataclass(frozen=True)
class RefreshPolicy:
    """When to re-embed.

    Attributes
    ----------
    max_pending_fraction:
        Refresh once pending updates exceed this fraction of current edges.
    max_pending_updates:
        Absolute cap on buffered updates (whichever triggers first).
    """

    max_pending_fraction: float = 0.1
    max_pending_updates: int = 1_000_000

    def should_refresh(self, pending: int, current_edges: int) -> bool:
        """Policy decision given buffered-update and edge counts."""
        if pending <= 0:
            return False
        if pending >= self.max_pending_updates:
            return True
        return pending >= self.max_pending_fraction * max(1, current_edges)


class DynamicEmbedder:
    """Maintains a graph and its embedding under streaming updates.

    Parameters
    ----------
    graph:
        Initial graph.
    params:
        Full method configuration, *forwarded verbatim at every refresh* —
        including the aggregator, execution substrate and worker
        knobs (historically refreshes silently fell back to default
        params).  ``None`` uses the method's registry defaults.
    method:
        Any registered embedding method name or alias (default
        ``"lightne"``); resolved through
        :mod:`repro.embedding.registry`, so a stream can exercise e.g.
        ``netsmf`` or an ``aggregator="hash"`` configuration end to end.
    policy:
        Staleness policy; ``None`` means refresh on every batch.
    seed:
        Base seed; refresh ``k`` derives an independent stream from it.
    """

    def __init__(
        self,
        graph: CSRGraph,
        params: Optional[object] = None,
        *,
        method: str = "lightne",
        policy: Optional[RefreshPolicy] = None,
        seed: Optional[int] = 0,
    ) -> None:
        from repro.embedding.registry import get_method, make_params

        spec = get_method(method)
        if params is None:
            params = make_params(method)
        elif not isinstance(params, spec.params_type):
            raise GraphConstructionError(
                f"params {type(params).__name__} does not match method "
                f"{spec.name!r} (expects {spec.params_type.__name__})"
            )
        self.graph = graph
        self.method = spec.name
        self.params = params
        self._builder = spec.builder
        self.policy = policy if policy is not None else RefreshPolicy(0.0, 1)
        self.seed = seed
        self.pending_updates = 0
        self.refresh_count = 0
        self.drift_history: List[float] = []
        self._result = self._builder(
            graph, params, derive_seed(seed, 0) if seed is not None else None
        )

    # ---------------------------------------------------------------- state
    @property
    def vectors(self) -> np.ndarray:
        """The current (possibly slightly stale) embedding."""
        return self._result.vectors

    @property
    def result(self) -> EmbeddingResult:
        """Full result object of the latest refresh."""
        return self._result

    @property
    def is_stale(self) -> bool:
        """True when buffered updates have not yet been embedded."""
        return self.pending_updates > 0

    # --------------------------------------------------------------- updates
    def apply(self, batch: EdgeBatch) -> bool:
        """Apply one update batch; refresh if the policy fires.

        Returns ``True`` when a refresh happened.
        """
        if batch.num_removals:
            self.graph = remove_edges(
                self.graph, batch.remove_sources, batch.remove_targets
            )
        if batch.num_additions:
            self.graph = add_edges(self.graph, batch.add_sources, batch.add_targets)
        self.pending_updates += batch.size
        if self.policy.should_refresh(self.pending_updates, self.graph.num_edges):
            self.refresh()
            return True
        return False

    def refresh(self) -> EmbeddingResult:
        """Re-embed with the *full* configured params and Procrustes-align."""
        self.refresh_count += 1
        seed = (
            derive_seed(self.seed, self.refresh_count)
            if self.seed is not None
            else None
        )
        new_result = self._builder(self.graph, self.params, seed)
        aligned, drift = _procrustes_align(self._result.vectors, new_result.vectors)
        new_result.vectors = aligned
        new_result.info["aligned_to_previous"] = True
        new_result.info["drift"] = drift
        self.drift_history.append(drift)
        self._result = new_result
        self.pending_updates = 0
        return new_result


def _procrustes_align(
    previous: np.ndarray, current: np.ndarray
) -> tuple:
    """Rotate ``current`` onto ``previous`` over the shared vertex prefix.

    Returns ``(rotated_current, drift)`` where drift is the mean row-wise
    distance between the aligned frames on the shared prefix (0 = frozen).
    """
    shared = min(previous.shape[0], current.shape[0])
    if shared == 0 or previous.shape[1] != current.shape[1]:
        return current, float("nan")
    m = current[:shared].T @ previous[:shared]
    u, _, vt = np.linalg.svd(m)
    rotation = u @ vt
    rotated = current @ rotation
    scale = np.linalg.norm(previous[:shared], axis=1).mean() or 1.0
    drift = float(
        np.linalg.norm(rotated[:shared] - previous[:shared], axis=1).mean() / scale
    )
    return rotated, drift
