"""Random-number-generator plumbing.

All stochastic code in the library accepts a ``seed`` argument that may be an
``int``, ``None`` or an already-constructed :class:`numpy.random.Generator`.
:func:`ensure_rng` normalises the three forms so call sites stay short, and
:func:`spawn_batch_rngs` derives independent child generators for sampling
batches (the Python analog of per-thread RNG streams in the paper's C++
implementation).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, an
        existing ``Generator`` (returned unchanged) or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_batch_rngs(seed: SeedLike, count: int) -> Sequence[np.random.Generator]:
    """Derive ``count`` generators, one per *batch index*, stably.

    A Generator input consumes exactly one draw from the parent stream (a
    root entropy value) regardless of ``count``; child ``i`` is then
    ``SeedSequence(root).spawn(...)[i]``.  Because
    ``SeedSequence.spawn`` children are indexed, stream ``i`` is the same no
    matter how the batches are later distributed over workers — this is what
    makes chunked sampling bit-identical across worker counts.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]
