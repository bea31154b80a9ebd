"""Package-surface tests: the public API is importable, documented and
consistent with ``__all__``."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

import repro

SUBPACKAGES = [
    "repro.graph",
    "repro.graph.csr",
    "repro.graph.builders",
    "repro.graph.generators",
    "repro.graph.io",
    "repro.graph.walks",
    "repro.graph.algorithms",
    "repro.graph.stats",
    "repro.sparsifier",
    "repro.sparsifier.path_sampling",
    "repro.sparsifier.downsampling",
    "repro.sparsifier.aggregation",
    "repro.sparsifier.builder",
    "repro.linalg",
    "repro.linalg.kernels",
    "repro.linalg.randomized_svd",
    "repro.linalg.spectral",
    "repro.linalg.operators",
    "repro.embedding",
    "repro.embedding.lightne",
    "repro.embedding.prone",
    "repro.embedding.netmf",
    "repro.embedding.deepwalk",
    "repro.embedding.pbg",
    "repro.embedding.nrp",
    "repro.embedding.base",
    "repro.embedding.registry",
    "repro.eval",
    "repro.eval.metrics",
    "repro.eval.logistic",
    "repro.eval.node_classification",
    "repro.eval.link_prediction",
    "repro.datasets",
    "repro.systems",
    "repro.systems.cost",
    "repro.systems.memory",
    "repro.experiments",
    "repro.experiments.runner",
    "repro.utils",
    "repro.telemetry",
    "repro.telemetry.tracer",
    "repro.telemetry.run",
    "repro.telemetry.memory",
    "repro.cli",
    "repro.errors",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} is missing a module docstring"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"


def test_version_string():
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize(
    "module_name",
    ["repro.graph", "repro.sparsifier", "repro.linalg", "repro.embedding",
     "repro.eval"],
)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


def test_public_functions_have_docstrings():
    """Every public callable exported at the top level carries a docstring."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"repro.{name} is missing a docstring"


def test_embedding_params_are_frozen_dataclasses():
    """Hyper-parameter containers are immutable (safe to share/reuse)."""
    from repro import (
        DeepWalkSGDParams,
        LightNEParams,
        NRPParams,
        NetMFParams,
        PBGParams,
        ProNEParams,
    )

    for cls in (LightNEParams, ProNEParams, NetMFParams,
                DeepWalkSGDParams, PBGParams, NRPParams):
        assert dataclasses.is_dataclass(cls)
        instance = cls()
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.dimension = 1


def test_errors_inherit_base():
    from repro import errors

    for name in dir(errors):
        obj = getattr(errors, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            if obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name


def test_encoding_stays_out_of_the_library():
    """Layering: the library has one graph container, :class:`CSRGraph`.

    The Ligra+ codec is a benchmark fixture (``benchmarks/ligra.py``): no
    module under ``repro`` names it, its container or the either-container
    alias, calls a ``flat()`` view, or imports anything from ``benchmarks``.
    """
    root = pathlib.Path(repro.__file__).parent
    banned = re.compile(
        r"flat\(\)|GraphLike|CompressedGraph|compress_graph|CompressionError"
        r"|graph\.compression|graph\.primitives"
    )
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        text = path.read_text()
        offenders += [
            f"{relative}:{number}: {match.group()}"
            for number, line in enumerate(text.splitlines(), 1)
            for match in banned.finditer(line)
        ]
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{relative}:{node.lineno}: import {module}"
                for module in modules
                if module.split(".")[0] == "benchmarks" or "compression" in module
            ]
    assert offenders == []
    for gone in ("repro.graph.compression", "repro.graph.primitives"):
        with pytest.raises(ImportError):
            importlib.import_module(gone)


def test_the_span_tree_is_the_only_stage_clock():
    """Layering: one run, one clock, one parenting rule.

    ``repro.utils.timer`` / ``StageTimer`` are gone from the package; no
    embedding module reads ``time.perf_counter`` (stages are spans); and only
    ``repro.telemetry`` and ``utils/parallel.py`` handle a parent span —
    nobody else names ``parent_span`` or calls ``current_span()``.
    """
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        owns_parenting = (
            relative.startswith("telemetry/") or relative == "utils/parallel.py"
        )
        source = path.read_text()
        offenders += [  # not even in prose
            f"{relative}: {word}"
            for word in ("StageTimer", "utils.timer") if word in source
        ]
        banned = set()
        if not owns_parenting:
            banned |= {"parent_span", "current_span"}
        if relative.startswith("embedding/"):
            banned.add("perf_counter")
        for node in ast.walk(ast.parse(source, filename=str(path))):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.arg):
                names = [node.arg]
            elif isinstance(node, ast.keyword):
                names = [node.arg or ""]
            offenders += [
                f"{relative}:{node.lineno}: {name}"
                for name in names if name in banned
            ]
    assert offenders == []
    assert not (root / "utils" / "timer.py").exists()


def test_deleted_api_stays_deleted(capsys):
    """Layering: performance verdicts come from ``benchmarks/perf`` alone
    (no ``lightne regress``), modules nothing outside their own tests
    called are gone, the rSVD is the one factorizer (no single-pass
    sketch, no ``sketchne``, no ``--factorizer``), downsampled
    PathSampling the one sampler (no ``ppr``, no ``sparsifier`` switch) and
    the whole-graph embedding the one workflow (no streaming refresh, no
    partition-then-embed, no ``lightne stream``, one walk step), the
    sort-reduce kernel the one aggregator (no hash table) and threads
    the one substrate (no process pool, no worker telemetry) and counters
    the one metrics instrument (no gauges, no histograms)."""
    import numpy as np

    import repro
    import repro.embedding
    import repro.graph
    import repro.graph.io
    import repro.linalg
    import repro.sparsifier
    import repro.sparsifier.builder
    import repro.sparsifier.downsampling
    from repro.cli import main
    from repro.embedding.lightne import LightNEParams
    from repro.embedding.registry import GENERIC_KNOBS, make_params, method_names
    from repro.errors import MethodParameterError
    from repro.graph.builders import from_edges
    from repro.graph.walks import step_random_walk

    for name in ("repro.telemetry.regression", "repro.eval.retrieval",
                 "repro.utils.validation",
                 "repro.linalg.sketch", "repro.sparsifier.ppr", "repro.analysis",
                 "repro.streaming", "repro.graph.partition",
                 "repro.graph.transforms", "repro.telemetry.worker",
                 "repro.telemetry.metrics", "repro.sparsifier.hashtable"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    for module in (repro, repro.graph):
        for name in ("DynamicEmbedder", "RefreshPolicy", "EdgeBatch",
                     "edge_stream_from_graph", "bfs_partition",
                     "embed_partitioned", "partition_edge_cut", "add_edges",
                     "remove_edges", "induced_subgraph", "permute_vertices",
                     "reorder_by_degree"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(repro.graph.io, "write_metis")
    for name in ("expected_kept_edges", "downsample_graph_laplacian_sample"):
        assert not hasattr(repro.sparsifier.downsampling, name), name
    with pytest.raises(TypeError):
        step_random_walk(from_edges([0], [1]), np.array([0]), np.array([1]),
                         strategy="direct")
    for module in (repro, repro.embedding, repro.linalg):
        for name in ("single_pass_svd", "sketchne_embedding", "FACTORIZERS"):
            assert not hasattr(module, name), (module.__name__, name)
    for module in (repro, repro.sparsifier, repro.sparsifier.builder):
        for name in ("SPARSIFIER_SAMPLERS", "build_netmf_sparsifier",
                     "sparsifier_backend_names", "sample_ppr_counts"):
            assert not hasattr(module, name), (module.__name__, name)
    # One aggregator: the §4.2 hash family is the fixture benchmarks/hashing.py.
    import repro.sparsifier.aggregation

    for module in (repro.sparsifier, repro.sparsifier.aggregation):
        for name in ("SparseParallelHashTable", "hash_partition",
                     "aggregate_hash", "aggregate_hash_sharded",
                     "aggregate_histogram"):
            assert not hasattr(module, name), (module.__name__, name)
    for module in (repro, repro.errors):
        assert not hasattr(module, "HashTableFullError"), module.__name__
    import repro.errors
    from repro.graph.csr import CSRGraph
    from repro.utils.parallel import parallel_imap, parallel_map

    assert not hasattr(repro.errors, "WorkerError")
    assert not hasattr(CSRGraph, "mmap_source")
    assert not hasattr(from_edges([0], [1]), "mmap_source")
    for knob in ({"initializer": print}, {"backend": "thread"},
                 {"label": "stage"}):
        with pytest.raises(TypeError):
            parallel_map(abs, [(-1,)], **knob)
        with pytest.raises(TypeError):
            list(parallel_imap(abs, [(-1,)], **knob))
    assert "sparsifier" not in {f.name for f in dataclasses.fields(LightNEParams)}
    assert "sparsifier" not in GENERIC_KNOBS
    with pytest.raises(MethodParameterError):
        make_params("lightne", sparsifier="path")
    assert not {"sketchne", "netmf+", "netmfplus"} & set(method_names())
    # Counters are the tracer's one instrument: no registry beside it.
    import repro.telemetry
    import repro.telemetry.tracer

    for module in (repro.telemetry, repro.telemetry.tracer):
        for name in ("Gauge", "Histogram", "gauge", "histogram",
                     "DEFAULT_LATENCY_BUCKETS", "PROBE_BUCKETS",
                     "MetricsRegistry", "counter", "get_metrics",
                     "reset_metrics"):
            assert not hasattr(module, name), (module.__name__, name)
    # One view per signal: Perfetto draws the trace, the ledger holds the
    # peak RSS and the health record; test-only helpers live in the tests.
    import repro.graph.csr
    import repro.telemetry.health
    import repro.telemetry.ledger
    import repro.telemetry.memory
    import repro.telemetry.report
    import repro.utils.rng

    for module, name in (
        (repro.telemetry, "profile_memory"),
        (repro.telemetry.memory, "profile_memory"),
        (repro.telemetry.report, "render_html"),
        (repro.telemetry.report, "flame_boxes"),
        (repro.telemetry.ledger, "validate_record"),
        (repro.telemetry.ledger, "REQUIRED_FIELDS"),
        (repro.telemetry.health.StageDigest, "from_dict"),
        (repro.utils.rng, "derive_seed"),
        (repro.graph.csr, "row_weight_sums"),
        (repro.graph.csr.CSRGraph, "iter_edges"),
        # One CSR check (csr.csr_fault), one stage order (the run's).
        (repro.graph.csr.CSRGraph, "_validate"),
        (repro.graph.io, "_check_v2_arrays"),
        (repro.telemetry.StageTable, "ordered_stages"),
        (repro.telemetry.ledger, "_registry_stage_order"),
    ):
        assert not hasattr(module, name), (module.__name__, name)
    with pytest.raises(TypeError):
        repro.telemetry.MemorySampler(0.01, trace_allocations=True)
    for argv, flag in ((["regress"], "invalid choice: 'regress'"),
                       (["embed", "--method", "sketchne"], "invalid choice: 'sketchne'"),
                       (["embed", "--factorizer", "rsvd"], "--factorizer"),
                       (["embed", "--sparsifier", "path"], "--sparsifier"),
                       (["stream"], "invalid choice: 'stream'"),
                       (["embed", "--profile-memory"], "--profile-memory"),
                       (["report", "--html", "r.html"], "--html"),
                       (["report", "--trace", "t.json"], "--trace"),
                       (["report", "--last", "5"], "--last")):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
