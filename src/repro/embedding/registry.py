"""Declarative registry of embedding methods — the single dispatch spine.

Before this module existed, ``cli.py``, ``experiments/runner.py`` and the
benchmark harness each kept an if/elif chain with diverging method names
(``prone`` vs ``prone+``, ``deepwalk`` vs ``graphvite``) and diverging knob
support.  Now each method is described once by a :class:`MethodSpec` —
canonical name, aliases, params dataclass, builder function, pinned values —
and every layer resolves names and builds params through
:func:`get_method` / :func:`make_params` / :func:`run_method`.  Which
generic knobs a method takes is not declared: it is read off the fields of
its params dataclass (:data:`GENERIC_KNOBS`).

Registering a new method is a single :func:`register` call at the bottom of
this file (CI enforces that every ``*_embedding`` entry point in
``repro.embedding`` is registered).

``README.md``'s method table is ``print(format_methods_table())``
(``python -c "from repro.embedding.registry import format_methods_table as
t; print(t())"``); a tier-1 test keeps the two equal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.embedding.base import EmbeddingResult
from repro.embedding.deepwalk import DeepWalkSGDParams, deepwalk_sgd_embedding
from repro.embedding.lightne import (
    NETSMF_PINS,
    LightNEParams,
    lightne_embedding,
    netsmf_embedding,
)
from repro.embedding.netmf import NetMFParams, netmf_embedding
from repro.embedding.nrp import NRPParams, nrp_embedding
from repro.embedding.pbg import PBGParams, pbg_embedding
from repro.embedding.prone import ProNEParams, prone_embedding
from repro.errors import MethodParameterError, UnknownMethodError
from repro.utils.rng import SeedLike

# The generic knobs every dispatch layer offers uniformly, as knob -> the
# params-dataclass field it sets.  A method supports a knob iff its params
# dataclass has that field and its preset does not pin it.  The CLI's flag
# forwarding and the README table are derived from this one list.
GENERIC_KNOBS: Dict[str, str] = {
    "window": "window",
    "workers": "workers",
    "multiplier": "sample_multiplier",
    "propagate": "propagate",
    "downsample": "downsample",
    "precision": "precision",
}
# Gated the same way without being listed as a knob of its own:
# ``sample_multiplier`` is the field-name spelling of ``multiplier``.
_KNOB_FIELD: Dict[str, str] = {
    **GENERIC_KNOBS,
    "sample_multiplier": "sample_multiplier",
}


@dataclass(frozen=True)
class MethodSpec:
    """One embedding method, declaratively.

    Attributes
    ----------
    name:
        Canonical method name (what ``EmbeddingResult.method`` reports).
    builder:
        ``builder(graph, params, seed=...) -> EmbeddingResult``.
    params_type:
        The frozen params dataclass the builder accepts.
    description:
        One-line summary (README table, ``--help``).
    aliases:
        Alternate names accepted everywhere (paper-facing spellings like
        ``prone+`` / ``graphvite``).
    pins:
        Field values the method fixes (``netsmf``: no downsampling, no
        propagation).  A pinned field is not a knob of the method:
        :func:`make_params` treats an override aimed at it like any other
        unsupported knob and always builds the pinned value.
    stages:
        The Table-5 stage names this method opens (``result.timer.stages``).
    """

    name: str
    builder: Callable[..., EmbeddingResult]
    params_type: type
    description: str = ""
    aliases: Tuple[str, ...] = ()
    pins: Mapping[str, object] = dataclass_field(default_factory=dict)
    stages: Tuple[str, ...] = ()

    def supports(self, knob: str) -> bool:
        """Whether the generic ``knob`` applies to this method: its field
        exists on the params dataclass and is not pinned.  Unsupported knobs
        are rejected (``strict=True``) or dropped (``strict=False``) by
        :func:`make_params`."""
        field_name = _KNOB_FIELD.get(knob)
        return field_name in self.param_fields and field_name not in self.pins

    @property
    def capabilities(self) -> Dict[str, bool]:
        """Generic knob -> supported, for flag derivation and docs."""
        return {knob: self.supports(knob) for knob in GENERIC_KNOBS}

    @property
    def param_fields(self) -> Tuple[str, ...]:
        """Field names of the params dataclass."""
        return tuple(f.name for f in dataclasses.fields(self.params_type))


_REGISTRY: Dict[str, MethodSpec] = {}
_ALIASES: Dict[str, str] = {}


def register(spec: MethodSpec) -> MethodSpec:
    """Add ``spec`` to the registry; rejects name/alias collisions."""
    for name in (spec.name, *spec.aliases):
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"method name {name!r} already registered")
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def canonical_name(name: str) -> str:
    """Resolve ``name`` (canonical or alias) to the canonical method name."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise UnknownMethodError(
        f"unknown method {name!r}; known methods: {', '.join(method_names())}"
    )


def get_method(name: str) -> MethodSpec:
    """Look up a :class:`MethodSpec` by canonical name or alias."""
    return _REGISTRY[canonical_name(name)]


def list_methods() -> List[MethodSpec]:
    """All registered specs, in registration order."""
    return list(_REGISTRY.values())


def method_names(include_aliases: bool = True) -> List[str]:
    """Canonical names (registration order), optionally plus aliases."""
    names = list(_REGISTRY)
    if include_aliases:
        names.extend(_ALIASES)
    return names


def make_params(name: str, *, strict: bool = True, **overrides: object):
    """Build a validated params dataclass for ``name`` from plain values.

    ``overrides`` values of ``None`` mean "not set" and are skipped (so CLI
    flags with ``default=None`` sentinels pass through verbatim).  A generic
    knob (:data:`GENERIC_KNOBS`) the method does not
    support — no such field, or the method pins it — raises
    :class:`MethodParameterError` when ``strict`` (the CLI) and is silently
    dropped otherwise (comparison sweeps sharing one knob set across
    methods).  Names that are neither generic knobs nor fields of the params
    dataclass always raise.
    """
    spec = get_method(name)
    fields = set(spec.param_fields)
    merged: Dict[str, object] = {}
    for key, value in overrides.items():
        if value is None:
            continue
        field_name = _KNOB_FIELD.get(key, key)
        if key in _KNOB_FIELD and not spec.supports(key):
            if strict:
                raise MethodParameterError(
                    f"method {spec.name!r} does not support {key!r} "
                    f"(supported knobs: "
                    f"{', '.join(k for k, on in spec.capabilities.items() if on) or 'none'})"
                )
            continue
        if field_name not in fields:
            raise MethodParameterError(
                f"method {spec.name!r} ({spec.params_type.__name__}) has no "
                f"parameter {field_name!r}"
            )
        merged[field_name] = value
    merged.update(spec.pins)
    return spec.params_type(**merged)


def run_method(
    name: str,
    graph,
    *,
    seed: SeedLike = None,
    strict: bool = True,
    **overrides: object,
) -> EmbeddingResult:
    """Resolve ``name``, build params from ``overrides``, run the builder."""
    spec = get_method(name)
    params = make_params(name, strict=strict, **overrides)
    return spec.builder(graph, params, seed=seed)


def format_methods_table() -> str:
    """The README's method table, generated from :func:`list_methods`."""
    rows = [
        "| method | aliases | knobs | stages (Table 5) | description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in list_methods():
        aliases = ", ".join(f"`{a}`" for a in spec.aliases) or "—"
        knobs = ", ".join(k for k, on in spec.capabilities.items() if on) or "—"
        stages = ", ".join(spec.stages)
        rows.append(
            f"| `{spec.name}` | {aliases} | {knobs} | {stages} "
            f"| {spec.description} |"
        )
    return "\n".join(rows)


register(
    MethodSpec(
        name="lightne",
        builder=lightne_embedding,
        params_type=LightNEParams,
        description="the paper's system: downsampled sparsifier + rSVD + spectral propagation",
        stages=("sparsifier", "svd", "propagation"),
    )
)
register(
    MethodSpec(
        name="netsmf",
        builder=netsmf_embedding,
        params_type=LightNEParams,
        description="NetSMF baseline: PathSampling sparsifier + rSVD, no downsampling/propagation",
        pins=NETSMF_PINS,
        stages=("sparsifier", "svd"),
    )
)
register(
    MethodSpec(
        name="prone",
        builder=prone_embedding,
        params_type=ProNEParams,
        description="ProNE(+): modulated-Laplacian factorization + Chebyshev propagation",
        aliases=("prone+",),
        stages=("svd", "propagation"),
    )
)
register(
    MethodSpec(
        name="netmf",
        builder=netmf_embedding,
        params_type=NetMFParams,
        description="exact dense NetMF (small graphs; the sparsifier's oracle)",
        stages=("matrix", "svd"),
    )
)
register(
    MethodSpec(
        name="deepwalk",
        builder=deepwalk_sgd_embedding,
        params_type=DeepWalkSGDParams,
        description="DeepWalk trained by skip-gram SGD (the GraphVite stand-in)",
        aliases=("graphvite",),
        stages=("walks", "sgd"),
    )
)
register(
    MethodSpec(
        name="pbg",
        builder=pbg_embedding,
        params_type=PBGParams,
        description="PyTorch-BigGraph stand-in: Adagrad edge-ranking loss (E1 comparator)",
        stages=("sgd",),
    )
)
register(
    MethodSpec(
        name="nrp",
        builder=nrp_embedding,
        params_type=NRPParams,
        description="NRP/NPR: implicit PPR-polynomial factorization (no entry-wise log)",
        stages=("svd",),
    )
)
