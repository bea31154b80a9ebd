"""Tests for the declarative method registry (repro.embedding.registry)."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import typing

import numpy as np
import pytest

from repro.cli import build_parser
from repro.embedding.registry import (
    GENERIC_KNOBS,
    MethodSpec,
    canonical_name,
    format_methods_table,
    get_method,
    list_methods,
    make_params,
    method_names,
    register,
    run_method,
)
from repro.errors import MethodParameterError, UnknownMethodError
from repro.graph.generators import dcsbm_graph


@pytest.fixture(scope="module")
def graph():
    g, _ = dcsbm_graph(80, 2, avg_degree=6, seed=1)
    return g


class TestLookup:
    def test_canonical_names_resolve_to_themselves(self):
        for spec in list_methods():
            assert canonical_name(spec.name) == spec.name
            assert get_method(spec.name) is spec

    def test_aliases_resolve_to_canonical(self):
        assert canonical_name("prone+") == "prone"
        assert canonical_name("graphvite") == "deepwalk"
        assert get_method("prone+") is get_method("prone")

    def test_unknown_method_raises(self):
        with pytest.raises(UnknownMethodError, match="unknown method"):
            get_method("word2vec")
        with pytest.raises(UnknownMethodError):
            make_params("nope", dimension=8)

    def test_method_names_cover_aliases(self):
        names = method_names()
        for spec in list_methods():
            assert spec.name in names
            for alias in spec.aliases:
                assert alias in names
        assert set(method_names(include_aliases=False)) == {
            s.name for s in list_methods()
        }

    def test_register_rejects_collisions(self):
        spec = get_method("lightne")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)
        with pytest.raises(ValueError, match="already registered"):
            register(dataclasses.replace(spec, name="brand-new", aliases=("prone+",)))


class TestMakeParams:
    def test_builds_from_plain_dict(self):
        overrides = {"dimension": 8, "window": 2, "multiplier": 2.0}
        params = make_params("lightne", **overrides)
        assert params.dimension == 8
        assert params.window == 2
        assert params.sample_multiplier == 2.0  # multiplier -> sample_multiplier

    def test_none_means_not_set(self):
        params = make_params("lightne", dimension=8, window=None)
        assert params.window == type(params)().window

    def test_registry_defaults_applied(self):
        assert make_params("pbg", dimension=8).epochs == 20
        assert make_params("lightne").factorizer == "rsvd"

    def test_strict_rejects_unsupported_knob(self):
        with pytest.raises(MethodParameterError, match="does not support 'window'"):
            make_params("pbg", dimension=8, window=5)

    def test_non_strict_drops_unsupported_knob(self):
        params = make_params("pbg", strict=False, dimension=8, window=5,
                             multiplier=2.0, propagate=False, workers=4)
        assert params == make_params("pbg", dimension=8)

    def test_pinned_field_is_not_a_knob(self):
        # netsmf is lightne with downsample/propagate pinned off: it samples
        # in batch_size slabs like every other sampling method ...
        params = make_params("netsmf", dimension=8, batch_size=2000)
        assert params.batch_size == 2000
        assert (params.downsample, params.propagate) == (False, False)
        assert type(params) is type(make_params("lightne"))
        # ... and a knob aimed at a pin is rejected (strict) or dropped.
        for knob in ("propagate", "downsample"):
            with pytest.raises(MethodParameterError, match=f"does not support '{knob}'"):
                make_params("netsmf", **{knob: True})
        assert make_params(
            "netsmf", strict=False, propagate=True, downsample=True
        ) == make_params("netsmf")

    def test_unknown_field_always_raises(self):
        with pytest.raises(MethodParameterError, match="no parameter"):
            make_params("lightne", strict=False, dimension=8, wat=3)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [s.name for s in list_methods()])
    def test_every_method_runs_with_standard_info(self, graph, name):
        spec = get_method(name)
        params = make_params(name, dimension=8)
        result = spec.builder(graph, params, seed=0)
        assert result.vectors.shape == (graph.num_vertices, 8)
        assert result.method == spec.name
        # Standardized info keys owned by run_pipeline.
        assert result.info["method"] == spec.name
        assert result.info["n"] == graph.num_vertices
        assert result.info["m"] == graph.num_edges
        assert result.info["params"] == dataclasses.asdict(params)
        assert result.run.counters is None  # telemetry is off
        # Table-5 stage names: the default run records exactly the declared set.
        assert set(result.timer.stages) == set(spec.stages)

    @pytest.mark.parametrize("name", method_names())
    def test_a_run_is_recorded_once(self, graph, name):
        """``info`` holds the four standard keys and nothing the run's root
        span already holds; the ledger record is read off that span."""
        from repro import telemetry
        from repro.telemetry import health, ledger

        result = run_method(name, graph, seed=0, dimension=8)
        assert set(result.info) == {"method", "params", "n", "m"}
        assert result.run.name == result.method == canonical_name(name)
        assert result.run.counters is None
        telemetry.enable()
        try:
            with health.policy_scope("record"):
                result = run_method(name, graph, seed=0, dimension=8)
        finally:
            telemetry.disable()
        record = ledger.build_record(result, dataset="d", seed=0)
        assert record.metrics["counters"] == dict(sorted(result.run.counters.items()))
        assert record.digests == result.run.health.digest_map()
        assert record.digests["final"]

    @pytest.mark.parametrize("alias,canonical", [("prone+", "prone"),
                                                 ("graphvite", "deepwalk")])
    def test_alias_runs_identically(self, graph, alias, canonical):
        a = run_method(alias, graph, seed=3, dimension=8)
        b = run_method(canonical, graph, seed=3, dimension=8)
        assert a.method == b.method == canonical
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_run_method_strict_surfaces_knob_errors(self, graph):
        with pytest.raises(MethodParameterError):
            run_method("pbg", graph, dimension=8, window=5)


class TestConsistency:
    def _embed_subparser(self) -> argparse.ArgumentParser:
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return sub.choices["embed"]

    def test_cli_method_choices_match_registry(self):
        embed = self._embed_subparser()
        action = next(a for a in embed._actions if a.dest == "method")
        assert list(action.choices) == method_names()

    def test_cli_offers_every_supported_knob_flag(self):
        embed = self._embed_subparser()
        dests = {a.dest for a in embed._actions}
        offered = {
            knob
            for spec in list_methods()
            for knob, on in spec.capabilities.items()
            if on
        }
        assert offered <= dests

    def test_every_embedding_entry_point_is_registered(self):
        """No method may bypass the registry (mirrors the CI check)."""
        import repro.embedding as pkg

        builders = {spec.builder for spec in list_methods()}
        unregistered = []
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"repro.embedding.{info.name}")
            for attr in dir(mod):
                if not attr.endswith("_embedding"):
                    continue
                fn = getattr(mod, attr)
                if not callable(fn) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if fn not in builders:
                    unregistered.append(f"{mod.__name__}.{attr}")
        assert not unregistered, f"unregistered entry points: {unregistered}"

    def test_every_builder_has_one_calling_convention(self):
        """``builder(graph, params, seed)``, with annotations that resolve:
        no legacy bare-int params, no keyword overrides of params fields."""
        for spec in list_methods():
            hints = typing.get_type_hints(spec.builder)
            assert hints["params"] is spec.params_type, spec.name
            signature = inspect.signature(spec.builder)
            assert list(signature.parameters) == ["graph", "params", "seed"], spec.name

    def test_methods_table_lists_every_method(self):
        table = format_methods_table()
        for spec in list_methods():
            assert f"`{spec.name}`" in table

    def test_spec_capability_introspection(self):
        """A method's knobs are the unpinned fields of its params class."""
        for spec in list_methods():
            assert isinstance(spec, MethodSpec)
            fields = {f.name for f in dataclasses.fields(spec.params_type)}
            assert set(spec.param_fields) == fields
            assert set(spec.pins) <= fields
            assert spec.capabilities == {
                knob: field in fields and field not in spec.pins
                for knob, field in GENERIC_KNOBS.items()
            }, spec.name
            for knob, on in spec.capabilities.items():
                assert spec.supports(knob) is on
            assert not spec.supports("backend")  # a recorded field, not a knob
            assert spec.supports("sample_multiplier") is spec.supports("multiplier")
            assert not spec.supports("not-a-knob")
            assert not spec.supports("dimension")  # a field, not a generic knob
        assert get_method("lightne").supports("downsample")
        assert not get_method("netsmf").supports("downsample")

    def test_readme_method_table_is_generated(self):
        """README's table is ``format_methods_table()`` verbatim."""
        from pathlib import Path

        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert format_methods_table() in readme.read_text(encoding="utf-8")
