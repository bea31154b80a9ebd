"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An on-disk or in-memory graph representation is malformed."""


class GraphConstructionError(ReproError):
    """Invalid arguments while building a graph (e.g. negative vertex ids)."""


class SamplingError(ReproError):
    """Invalid parameters for the PathSampling / downsampling stage."""


class UnsupportedGraphError(ReproError):
    """The graph shape/weighting is outside what the sparsifier serves."""


class HashTableFullError(ReproError):
    """The open-addressing hash table ran out of free slots."""


class FactorizationError(ReproError):
    """Randomized SVD or spectral propagation received invalid input."""


class NumericalHealthError(ReproError):
    """A numerical-health probe failed under the ``raise`` policy.

    Raised by :mod:`repro.telemetry.health` when a stage output contains
    non-finite entries or a contract probe (sparsifier total mass,
    factorization residual) trips and the active policy is ``"raise"``.
    """


class BackendError(ReproError, ValueError):
    """An unknown ``backend`` name (also a ``ValueError``)."""


class EvaluationError(ReproError):
    """Invalid evaluation setup (e.g. empty test split, label mismatch)."""


class DatasetError(ReproError):
    """Unknown dataset name or invalid dataset parameters."""


class UnknownMethodError(ReproError):
    """A method name is not present in the embedding-method registry."""


class MethodParameterError(ReproError):
    """A parameter override is invalid or unsupported for the chosen method."""
