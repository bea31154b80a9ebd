"""Tests for the command-line interface."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.generators import dcsbm_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    graph, _ = dcsbm_graph(120, 3, avg_degree=8, seed=0)
    path = tmp_path / "graph.edges"
    write_edge_list(graph, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_defaults(self):
        args = build_parser().parse_args(["embed", "--dataset", "blogcatalog_like"])
        assert args.method == "lightne"
        assert args.dim == 128

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["embed", "--method", "magic"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["embed", "--dataset", "nope"])

    def test_workers_option(self):
        args = build_parser().parse_args(
            ["embed", "--dataset", "blogcatalog_like", "--workers", "4"]
        )
        assert args.workers == 4
        default = build_parser().parse_args(["embed", "--dataset", "blogcatalog_like"])
        assert default.workers is None


class TestCommands:
    def test_info_on_file(self, edge_file, capsys):
        assert main(["info", "--input", edge_file]) == 0
        out = capsys.readouterr().out
        assert "|V|" in out and "|E|" in out

    def test_info_on_dataset(self, capsys):
        assert main(["info", "--dataset", "blogcatalog_like"]) == 0
        assert "labels" in capsys.readouterr().out

    def test_embed_file(self, edge_file, tmp_path, capsys):
        out_path = str(tmp_path / "vec.npy")
        code = main(
            [
                "embed", "--input", edge_file, "--method", "lightne",
                "--dim", "16", "--window", "3", "--output", out_path,
            ]
        )
        assert code == 0
        vectors = np.load(out_path)
        assert vectors.shape[1] == 16
        assert "sparsifier" in capsys.readouterr().out

    def test_embed_missing_source(self):
        with pytest.raises(SystemExit):
            main(["embed"])

    def test_embed_workers_identical_output(self, edge_file, tmp_path, capsys):
        # --workers must not change the saved vectors (determinism guarantee).
        paths = {w: str(tmp_path / f"vec_w{w}.npy") for w in (1, 4)}
        for w, out_path in paths.items():
            code = main(
                [
                    "embed", "--input", edge_file, "--method", "lightne",
                    "--dim", "8", "--window", "2", "--seed", "5",
                    "--workers", str(w), "--output", out_path,
                ]
            )
            assert code == 0
        np.testing.assert_array_equal(np.load(paths[1]), np.load(paths[4]))
        assert "sparsifier.samples_per_sec" in capsys.readouterr().out

    def test_convert_keeps_trailing_isolated_vertices(self, tmp_path):
        from repro.graph.builders import from_edges
        from repro.graph.io import load_csr

        edges = str(tmp_path / "iso.edges")
        write_edge_list(from_edges([0, 1], [1, 2], num_vertices=6), edges)
        v2_path = str(tmp_path / "iso.csrv2")
        assert main(["convert", "--input", edges, "--output", v2_path]) == 0
        assert load_csr(v2_path).num_vertices == 6

    def test_convert_then_embed_memmapped(self, edge_file, tmp_path, capsys):
        # convert → embed on the memmapped container must reproduce the
        # in-memory embedding bit for bit.
        v2_path = str(tmp_path / "graph.csrv2")
        assert main(["convert", "--input", edge_file, "--output", v2_path]) == 0
        assert "csr-v2" in capsys.readouterr().out
        memory_out = str(tmp_path / "memory.npy")
        mapped_out = str(tmp_path / "mapped.npy")
        for inp, out_path in ((edge_file, memory_out), (v2_path, mapped_out)):
            code = main(
                [
                    "embed", "--input", inp, "--method", "lightne",
                    "--dim", "8", "--window", "2", "--seed", "3",
                    "--workers", "2", "--output", out_path,
                ]
            )
            assert code == 0
        np.testing.assert_array_equal(np.load(memory_out), np.load(mapped_out))

    def test_corrupt_container_is_a_one_line_error(self, edge_file, tmp_path):
        # A target id set to n: the load's check raises GraphFormatError,
        # which the CLI must print as one line and exit 1 on, no traceback.
        import json
        import os
        import subprocess
        import sys

        import repro

        v2_path = tmp_path / "graph.csrv2"
        assert main(["convert", "--input", edge_file, "--output", str(v2_path)]) == 0
        n = json.loads((v2_path / "header.json").read_text())["num_vertices"]
        targets = np.load(v2_path / "targets.npy", mmap_mode="r+")
        targets[targets.size // 2] = n
        targets.flush()
        del targets
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "embed", "--input", str(v2_path),
             "--dim", "8", "--window", "2", "--output", str(tmp_path / "v.npy")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "GraphFormatError" in lines[0], proc.stderr
        assert "Traceback" not in proc.stderr

    def test_embed_then_eval_nc(self, tmp_path, capsys):
        out_path = str(tmp_path / "vec.npy")
        main(
            [
                "embed", "--dataset", "blogcatalog_like", "--method", "prone",
                "--dim", "16", "--output", out_path,
            ]
        )
        code = main(
            [
                "eval-nc", "--dataset", "blogcatalog_like",
                "--embeddings", out_path, "--train-ratio", "0.3",
                "--repeats", "1",
            ]
        )
        assert code == 0
        assert "micro=" in capsys.readouterr().out

    def test_eval_nc_needs_labels(self, edge_file, tmp_path):
        vec = tmp_path / "v.npy"
        np.save(vec, np.zeros((120, 4)))
        with pytest.raises(SystemExit):
            main(["eval-nc", "--input", edge_file, "--embeddings", str(vec)])

    def test_eval_lp(self, edge_file, capsys):
        code = main(
            [
                "eval-lp", "--input", edge_file, "--method", "netmf",
                "--dim", "16", "--test-fraction", "0.05", "--negatives", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MRR" in out


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _telemetry_teardown(self):
        from repro import telemetry

        yield
        telemetry.disable()

    def test_flags_registered_on_every_subcommand(self):
        # "every subcommand" that runs a pipeline; TestFrontDoor pins the
        # rest of the split.
        for argv in (
            ["embed", "--dataset", "blogcatalog_like"],
            ["eval-lp", "--dataset", "blogcatalog_like"],
        ):
            args = build_parser().parse_args(argv)
            assert args.trace_out is None
            assert args.metrics_out is None
            assert args.verbose is False

    def test_trace_and_metrics_outputs(self, edge_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "embed", "--input", edge_file, "--method", "lightne",
                "--dim", "8", "--window", "2", "--workers", "2",
                "--output", str(tmp_path / "v.npy"),
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert {"cli", "lightne", "sparsifier", "svd"} <= names
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) == {"counters"} and metrics["counters"]
        # Per-iteration, per-term and per-batch times are span durations.
        durations = {
            name: [e["dur"] for e in trace["traceEvents"]
                   if e.get("ph") == "X" and e["name"] == name]
            for name in ("svd.power_iteration", "propagation.chebyshev_term",
                         "sparsifier.batch")
        }
        assert len(durations["svd.power_iteration"]) == 2
        assert durations["propagation.chebyshev_term"]
        assert durations["sparsifier.batch"]
        assert all(d > 0 for spans in durations.values() for d in spans)
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out

    def test_run_prints_peak_rss(self, edge_file, tmp_path, capsys):
        # One line, no flag: the OS lifetime peak the ledger records.
        code = main(
            [
                "embed", "--input", edge_file, "--method", "lightne",
                "--dim", "8", "--window", "2",
                "--output", str(tmp_path / "v.npy"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert len(re.findall(r"^peak RSS [\d,]+\.\d MiB$", out, re.M)) == 1

    def test_progress_on_the_serial_path(self, edge_file, tmp_path, capsys):
        code = main(
            [
                "embed", "--input", edge_file, "--method", "lightne",
                "--dim", "8", "--window", "2", "--workers", "1", "--progress",
                "--output", str(tmp_path / "v.npy"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert re.search(r"sparsifier\.sampling: (\d+)/\1\b", err), err

    def test_telemetry_disabled_after_run(self, edge_file, tmp_path):
        from repro import telemetry

        main(
            [
                "embed", "--input", edge_file, "--method", "lightne",
                "--dim", "8", "--window", "2",
                "--output", str(tmp_path / "v.npy"),
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        assert not telemetry.is_enabled()

    def test_verbose_emits_debug_logs(self, edge_file, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro"):
            code = main(
                [
                    "embed", "--input", edge_file, "--method", "lightne",
                    "--dim", "8", "--window", "2",
                    "--output", str(tmp_path / "v.npy"), "--verbose",
                ]
            )
            assert code == 0
            assert logging.getLogger("repro").level == logging.DEBUG
        messages = " ".join(r.message for r in caplog.records)
        assert "sparsifier nnz" in messages
        # Drop the handler configure_logging attached so later tests'
        # caplog/capsys assertions see a quiet logger again.
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)


class TestFormats:
    def test_metis_input(self, tmp_path, capsys):
        from repro.graph.generators import dcsbm_graph
        from tests.conftest import write_metis

        graph, _ = dcsbm_graph(60, 3, avg_degree=6, seed=0)
        path = tmp_path / "g.metis"
        write_metis(graph, path)  # may contain isolated-vertex blank lines
        assert main(["info", "--input", str(path)]) == 0
        assert "|V|" in capsys.readouterr().out

    def test_csr_input(self, tmp_path, capsys):
        from repro.graph.generators import dcsbm_graph
        from repro.graph.io import save_csr

        graph, _ = dcsbm_graph(60, 3, avg_degree=6, seed=0)
        path = tmp_path / "g.npz"
        save_csr(graph, path)
        assert main(["info", "--input", str(path)]) == 0

    def test_format_override(self, tmp_path, capsys):
        path = tmp_path / "weird_extension.xyz"
        path.write_text("0 1\n1 2\n")
        assert main(["info", "--input", str(path), "--format", "edgelist"]) == 0

    def test_adjacency_input(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0 1 2\n1 2\n")
        assert main(["info", "--input", str(path)]) == 0


class TestNewMethods:
    def test_unsupported_knob_is_a_clean_error(self, edge_file, tmp_path):
        """pbg has no window knob: strict CLI dispatch must reject it."""
        with pytest.raises(SystemExit, match="does not support 'window'"):
            main(
                ["embed", "--input", edge_file, "--method", "pbg",
                 "--dim", "8", "--window", "2",
                 "--output", str(tmp_path / "v.npy")]
            )

    def test_netsmf_takes_batch_size_and_equals_pinned_lightne(
        self, edge_file, tmp_path
    ):
        """``--method netsmf --batch-size N`` used to exit with "NetSMFParams
        has no parameter 'batch_size'"; netsmf is lightne with two flags."""
        shared = ["embed", "--input", edge_file, "--dim", "8", "--window", "2",
                  "--seed", "3", "--batch-size", "400"]
        smf, light = str(tmp_path / "smf.npy"), str(tmp_path / "light.npy")
        assert main(shared + ["--method", "netsmf", "--output", smf]) == 0
        assert main(shared + ["--method", "lightne", "--no-downsample",
                              "--no-propagate", "--output", light]) == 0
        np.testing.assert_array_equal(np.load(smf), np.load(light))
        with pytest.raises(SystemExit, match="does not support 'propagate'"):
            main(shared + ["--method", "netsmf", "--no-propagate",
                           "--output", smf])

    @pytest.mark.parametrize(
        "method, flag, value",
        [
            ("pbg", "--batch-size", "0"),
            ("deepwalk", "--batch-size", "0"),
            ("lightne", "--batch-size", "0"),
            ("netmf", "--window", "0"),
        ],
    )
    def test_rejected_value_is_a_one_line_error(
        self, method, flag, value, edge_file, tmp_path
    ):
        """A value the builder rejects exits with its one-line message, the
        way an unsupported knob does, not with a traceback."""
        with pytest.raises(SystemExit) as caught:
            main(
                ["embed", "--input", edge_file, "--method", method,
                 "--dim", "8", flag, value, "--output", str(tmp_path / "v.npy")]
            )
        message = caught.value.code
        assert isinstance(message, str) and "\n" not in message
        assert flag.lstrip("-").replace("-", "_") in message

    @pytest.mark.parametrize("alias,canonical", [("prone+", "prone"),
                                                 ("graphvite", "deepwalk")])
    def test_embed_accepts_registry_aliases(self, alias, canonical, edge_file,
                                            tmp_path, capsys):
        out_path = str(tmp_path / "v.npy")
        code = main(
            ["embed", "--input", edge_file, "--method", alias,
             "--dim", "8", "--output", out_path]
        )
        assert code == 0
        assert f"method={canonical}" in capsys.readouterr().out
        assert np.load(out_path).shape == (120, 8)


class TestCompare:
    def test_compare_prints_table(self, capsys):
        code = main(
            ["compare", "--dataset", "blogcatalog_like",
             "--methods", "prone+,lightne", "--ratios", "0.3",
             "--dim", "8", "--window", "2", "--repeats", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "micro@0.3" in out
        assert "lightne" in out and "prone+" in out

    def test_compare_requires_dataset(self):
        with pytest.raises(SystemExit):
            main(["compare", "--methods", "lightne"])


RUN_ARGUMENTS = {
    "workers", "progress", "trace_out", "metrics_out",
    "ledger", "ledger_out", "health",
}
PIPELINE_SUBCOMMANDS = {"embed", "eval-lp", "compare"}
GRAPH_SUBCOMMANDS = (
    "embed", "info", "eval-nc", "eval-lp", "convert", "compare",
)
READER_SUBCOMMANDS = {"report", "audit"}


class TestFrontDoor:
    """One ``lightne``: run arguments only where a pipeline runs, and every
    one a subcommand accepts is consumed; the readers mount themselves."""

    @staticmethod
    def _subparsers():
        import argparse

        (action,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    def test_run_arguments_exactly_on_pipeline_subcommands(self):
        subparsers = self._subparsers()
        assert set(subparsers) == (
            PIPELINE_SUBCOMMANDS | READER_SUBCOMMANDS
            | {"info", "eval-nc", "convert"}
        )
        for name, parser in subparsers.items():
            dests = {a.dest for a in parser._actions}
            if name in PIPELINE_SUBCOMMANDS:
                assert RUN_ARGUMENTS <= dests, name
            elif name in READER_SUBCOMMANDS:
                assert dests & RUN_ARGUMENTS == {"ledger"}, name
            else:
                assert not dests & RUN_ARGUMENTS, name

    def test_ledger_is_a_path_on_readers_and_a_switch_on_pipelines(self, tmp_path):
        parser = build_parser()
        for name in READER_SUBCOMMANDS:
            args = parser.parse_args([name, "--ledger", str(tmp_path / "r.jsonl")])
            assert args.ledger == str(tmp_path / "r.jsonl")
        for name in PIPELINE_SUBCOMMANDS:
            args = parser.parse_args([name, "--ledger"])
            assert args.ledger is True

    @pytest.mark.parametrize(
        "argv", [["info"], ["eval-nc", "--embeddings", "v.npy"], ["convert"]]
    )
    def test_inert_run_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dataset", "blogcatalog_like", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_compare_forwards_workers(self, tmp_path, capsys):
        from repro.telemetry.ledger import RunLedger

        path = tmp_path / "runs.jsonl"
        code = main(
            ["compare", "--dataset", "blogcatalog_like", "--methods", "lightne",
             "--ratios", "0.3", "--dim", "8", "--window", "2", "--repeats", "1",
             "--workers", "1",
             "--ledger-out", str(path)]
        )
        assert code == 0
        (record,) = RunLedger(path).records()
        assert record.params["workers"] == 1
        assert record.extra["resolved_workers"] == 1
        assert record.extra["backend"] == "thread"

    @pytest.mark.parametrize("command", GRAPH_SUBCOMMANDS)
    def test_input_and_dataset_are_exclusive(self, command, edge_file, capsys):
        argv = [command, "--input", edge_file, "--dataset", "blogcatalog_like"]
        if command == "eval-nc":
            argv += ["--embeddings", "v.npy"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_graph_subcommands_are_the_ones_taking_input(self):
        assert {
            name for name, parser in self._subparsers().items()
            if "input" in {a.dest for a in parser._actions}
        } == set(GRAPH_SUBCOMMANDS)


class TestEnvironmentKnobs:
    """A bad environment value is checked like the flag it stands for: one
    line on stderr, not a traceback or a silent fallback."""

    def test_bad_repro_log_is_a_one_line_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "loud")
        with pytest.raises(SystemExit) as exc:
            main(["info", "--dataset", "blogcatalog_like"])
        assert str(exc.value.code).startswith("REPRO_LOG: ")
        assert "'loud'" in str(exc.value.code)

    def test_bad_repro_health_stops_the_run_before_any_work(
        self, monkeypatch, edge_file, tmp_path
    ):
        monkeypatch.setenv("REPRO_HEALTH", "warm")
        output = tmp_path / "v.npy"
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--input", edge_file, "--dim", "8",
                  "--output", str(output)])
        assert "REPRO_HEALTH" in str(exc.value.code)
        assert "'warm'" in str(exc.value.code)
        assert not output.exists()
