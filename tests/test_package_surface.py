"""Package-surface tests: the public API is importable, documented and
consistent with ``__all__``."""

from __future__ import annotations

import ast
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
    "repro.graph.transforms",
    "repro.graph.stats",
    "repro.sparsifier",
    "repro.sparsifier.path_sampling",
    "repro.sparsifier.downsampling",
    "repro.sparsifier.hashtable",
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
    "repro.streaming",
    "repro.analysis",
    "repro.analysis.spectral",
    "repro.experiments",
    "repro.experiments.runner",
    "repro.utils",
    "repro.telemetry",
    "repro.telemetry.tracer",
    "repro.telemetry.metrics",
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
     "repro.eval", "repro.streaming", "repro.analysis"],
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
    import dataclasses

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
    called are gone, and the rSVD is the one factorizer (no single-pass
    sketch, no ``sketchne``, no ``--factorizer``)."""
    import repro
    import repro.embedding
    import repro.linalg
    from repro.cli import main
    from repro.embedding.registry import method_names

    for name in ("repro.telemetry.regression", "repro.eval.retrieval",
                 "repro.streaming.temporal", "repro.utils.validation",
                 "repro.linalg.sketch"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    for module in (repro, repro.embedding, repro.linalg):
        for name in ("single_pass_svd", "sketchne_embedding", "FACTORIZERS"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not {"sketchne", "netmf+", "netmfplus"} & set(method_names())
    for argv, flag in ((["regress"], "invalid choice: 'regress'"),
                       (["embed", "--method", "sketchne"], "invalid choice: 'sketchne'"),
                       (["embed", "--factorizer", "rsvd"], "--factorizer")):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
