"""Shared fixtures: small deterministic graphs used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builders import from_edges
from repro.graph.generators import dcsbm_graph, erdos_renyi_graph
from repro.telemetry import StageTable, Tracer


def write_metis(graph, path) -> None:
    """Write ``graph`` in the METIS format :func:`repro.graph.io.read_metis`
    reads (unweighted; weights are dropped; an isolated vertex is a blank
    line)."""
    n = graph.num_vertices
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{n} {graph.num_edges}\n")
        for u in range(n):
            line = " ".join(str(int(v) + 1) for v in graph.neighbors(u))
            handle.write(line + "\n")


@pytest.fixture
def rng():
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def stage_table():
    """Factory: a :class:`StageTable` over synthetic finished stage spans,
    one per ``(name, seconds[, attributes])`` row, laid end to end."""

    def build(*rows):
        tracer = Tracer()
        clock = 0.0
        for name, seconds, *attributes in rows:
            with tracer.span(name, **(attributes[0] if attributes else {})) as span:
                pass
            span.start, span.end = clock, clock + seconds
            clock += seconds
        return StageTable(tracer.roots)

    return build


@pytest.fixture
def triangle():
    """The 3-cycle."""
    return from_edges([0, 1, 2], [1, 2, 0])


@pytest.fixture
def path4():
    """Path graph 0-1-2-3."""
    return from_edges([0, 1, 2], [1, 2, 3])


@pytest.fixture
def star():
    """Star with center 0 and 5 leaves."""
    return from_edges([0] * 5, [1, 2, 3, 4, 5])


@pytest.fixture
def weighted_triangle():
    """Triangle with weights 1, 2, 3."""
    return from_edges([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])


@pytest.fixture(scope="session")
def er_graph():
    """A connected-ish Erdős–Rényi graph (session-scoped: generated once)."""
    return erdos_renyi_graph(60, 0.15, seed=7)


@pytest.fixture(scope="session")
def sbm_bundle():
    """A small labeled DC-SBM (graph, labels) for end-to-end tests."""
    return dcsbm_graph(200, 4, avg_degree=12, mixing=0.1, seed=3)
