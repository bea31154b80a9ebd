"""Command-line interface: ``lightne`` (or ``python -m repro.cli``).

Subcommands
-----------
``embed``
    Embed an edge-list file (or a registered synthetic dataset) with any of
    the implemented methods and save the vectors as ``.npy``.
``info``
    Print dataset-statistics rows (Table 3 style) for a graph file or a
    registered dataset.
``eval-nc`` / ``eval-lp``
    Run the node-classification / link-prediction protocols on saved
    embeddings.
``convert``
    Convert any readable graph into the memmappable CSR v2 container
    (``*.csrv2``), which ``--input`` loads without materializing the arrays
    in RAM.
``compare``
    Side-by-side method comparison on a labeled dataset (the experiments
    runner, :func:`repro.experiments.run_method_comparison`).
``report`` / ``audit``
    The readers of finished runs, mounted by their modules'
    ``init_subparser``: the trajectory report
    (:mod:`repro.telemetry.report`) and the stage-digest diff that localizes
    the first diverging stage (:mod:`repro.telemetry.audit`; pair with
    ``--health record`` on the runs being compared).  Here ``--ledger PATH``
    names the file to read.  Timing verdicts come from the committed
    benchmark (``benchmarks/perf``), not from the ledger.

``--verbose`` (every subcommand that loads a graph) turns on the library's
DEBUG log lines (:func:`repro.utils.log.configure_logging`; ``REPRO_LOG``
also works).  Run flags (only the subcommands that run a pipeline: ``embed``,
``eval-lp``, ``compare``; see ``docs/observability.md``):
``--trace-out t.json`` writes a Chrome/Perfetto trace of the run,
``--metrics-out m.json`` writes the process's counter totals,
``--progress`` renders a single-line live progress indicator on stderr
(stage completion counts),
``--ledger`` / ``--ledger-out runs.jsonl`` append one
:class:`~repro.telemetry.ledger.RunRecord` per pipeline run to the run
ledger (``REPRO_LEDGER=1`` enables the same without a flag), and
``--health {off,record,warn,raise}`` sets the numerical-health policy
(stage digests + contract probes; ``REPRO_HEALTH`` works too).  Each of
these subcommands ends with one ``peak RSS … MiB`` line: the OS lifetime
peak (:func:`repro.telemetry.peak_rss_bytes`) that the ledger records.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro import telemetry
from repro.datasets import dataset_names, load_dataset
from repro.embedding.registry import (
    GENERIC_KNOBS,
    get_method,
    make_params,
    method_names,
)
from repro.errors import ReproError
from repro.eval import (
    evaluate_link_prediction,
    evaluate_node_classification,
    train_test_split_edges,
)
from repro.graph import graph_io
from repro.graph.stats import summarize
from repro.telemetry import audit, health, ledger, progress, report
from repro.utils.fileio import atomic_write_json
from repro.utils.log import configure_logging

_READERS = {
    "edgelist": graph_io.read_edge_list,
    "metis": graph_io.read_metis,
    "adjacency": graph_io.read_adjacency_list,
    "csr": graph_io.load_csr,
}


def _detect_format(path: str) -> str:
    """Pick a reader from the file extension (``--format`` overrides)."""
    lowered = path.lower()
    if lowered.endswith((".npz", graph_io.CSR_V2_SUFFIX)) or graph_io.is_csr_v2(path):
        return "csr"
    if lowered.endswith((".metis", ".graph")):
        return "metis"
    if lowered.endswith(".adj"):
        return "adjacency"
    return "edgelist"


def _load_graph(args: argparse.Namespace):
    """Resolve ``--input`` (file) or ``--dataset`` (registry) to a graph."""
    if args.dataset:
        bundle = load_dataset(args.dataset, seed=args.seed)
        ledger.set_dataset(bundle.name)
        return bundle.graph, bundle.labels
    if args.input:
        fmt = getattr(args, "format", None) or _detect_format(args.input)
        ledger.set_dataset(os.path.splitext(os.path.basename(args.input))[0])
        return _READERS[fmt](args.input), None
    raise SystemExit("one of --input or --dataset is required")


# Flags forwarded to make_params: the registry's generic knobs plus one plain
# field.  Only values the user explicitly set (default=None sentinels) are
# forwarded, so each method keeps its own defaults for everything else.
_KNOB_ARGS = (*GENERIC_KNOBS, "batch_size")


def _embed(graph, args: argparse.Namespace):
    """Resolve ``--method`` through the registry and run it.

    Library errors (unknown method, knob the method does not support, a
    parameter value the builder rejects) surface as clean ``SystemExit``
    messages instead of tracebacks.
    """
    overrides = {"dimension": args.dim}
    for knob in _KNOB_ARGS:
        value = getattr(args, knob, None)
        if value is not None:
            overrides[knob] = value
    try:
        spec = get_method(args.method)
        params = make_params(args.method, **overrides)
        return spec.builder(graph, params, seed=args.seed)
    except ReproError as exc:
        raise SystemExit(str(exc))


def _cmd_embed(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args)
    start = time.perf_counter()
    result = _embed(graph, args)
    elapsed = time.perf_counter() - start
    np.save(args.output, result.vectors)
    print(f"method={result.method} n={graph.num_vertices} m={graph.num_edges}")
    print(result.timer.format())
    print(f"wall-clock {elapsed:.2f} s -> {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph, labels = _load_graph(args)
    summary = summarize(graph).as_dict()
    for key, value in summary.items():
        print(f"{key:>10}: {value}")
    if labels is not None:
        print(f"{'labels':>10}: {labels.shape[1]} classes")
    return 0


def _cmd_eval_nc(args: argparse.Namespace) -> int:
    _, labels = _load_graph(args)
    if labels is None:
        raise SystemExit("node classification needs a labeled dataset")
    vectors = np.load(args.embeddings)
    result = evaluate_node_classification(
        vectors, labels, args.train_ratio, repeats=args.repeats, seed=args.seed
    )
    print(
        f"ratio={result.train_ratio:.3f} "
        f"micro={100 * result.micro_f1:.2f} macro={100 * result.macro_f1:.2f}"
    )
    return 0


def _cmd_eval_lp(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args)
    train, pos_u, pos_v = train_test_split_edges(
        graph, args.test_fraction, seed=args.seed
    )
    result = _embed(train, args)
    metrics = evaluate_link_prediction(
        result.vectors, pos_u, pos_v, num_negatives=args.negatives, seed=args.seed
    )
    for key, value in metrics.as_row().items():
        print(f"{key:>8}: {value}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Convert any readable graph into the memmappable CSR v2 container."""
    graph, _ = _load_graph(args)
    path = graph_io.save_csr_v2(graph, args.output)
    print(
        f"csr-v2 n={graph.num_vertices} m={graph.num_edges} "
        f"weighted={graph.weights is not None} -> {path}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Method comparison table via the experiments runner."""
    from repro.experiments import format_table, run_method_comparison

    if not args.dataset:
        raise SystemExit("compare requires --dataset (needs labels)")
    rows = run_method_comparison(
        args.dataset,
        args.methods.split(","),
        ratios=tuple(float(r) for r in args.ratios.split(",")),
        dimension=args.dim,
        window=args.window,
        multiplier=args.multiplier,
        repeats=args.repeats,
        workers=args.workers,
        seed=args.seed,
    )
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="lightne", description="LightNE reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arguments(p: argparse.ArgumentParser) -> None:
        """Which graph, and how loudly: every subcommand that loads one."""
        source = p.add_mutually_exclusive_group()
        source.add_argument(
            "--input",
            help="graph file (edge list / METIS / .adj / .npz / .csrv2 dir)",
        )
        source.add_argument(
            "--dataset", choices=dataset_names(), help="registered synthetic dataset"
        )
        p.add_argument(
            "--format", choices=sorted(_READERS),
            help="input format (default: by file extension)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--verbose", "-v", action="store_true",
            help="emit the library's DEBUG log lines (stage boundaries, "
                 "sample counts); REPRO_LOG=<level> sets a custom level",
        )

    def add_run_arguments(p: argparse.ArgumentParser, command) -> None:
        """How a pipeline runs and what it records: mounted only on the
        subcommands that reach ``run_pipeline``, which execute ``command``
        under :func:`_run_with_telemetry`."""
        p.set_defaults(func=_run_with_telemetry, pipeline=command)
        p.add_argument(
            "--workers", type=int, default=None,
            help="thread-pool width for sparsifier construction and the "
                 "dense linear-algebra kernels (default: one per core, "
                 "capped at 8); output is bit-identical for every value",
        )
        p.add_argument(
            "--progress", action="store_true",
            help="render a single-line live progress indicator on stderr "
                 "(parallel-stage completion counts)",
        )
        p.add_argument(
            "--trace-out", metavar="PATH",
            help="enable span tracing and write a Chrome trace-event JSON "
                 "(open in Perfetto or chrome://tracing)",
        )
        p.add_argument(
            "--metrics-out", metavar="PATH",
            help="enable telemetry and write the counter totals (all runs "
                 "summed) as JSON",
        )
        p.add_argument(
            "--ledger", action="store_true",
            help="append a RunRecord for each pipeline run to the run "
                 "ledger (benchmarks/results/runs.jsonl unless "
                 "--ledger-out or REPRO_LEDGER_PATH says otherwise); "
                 "REPRO_LEDGER=1 does the same without the flag",
        )
        p.add_argument(
            "--ledger-out", metavar="PATH",
            help="run-ledger JSONL path (implies --ledger)",
        )
        p.add_argument(
            "--health", choices=("off", "record", "warn", "raise"),
            default=None,
            help="numerical-health policy: 'record' fingerprints every "
                 "stage output and runs the contract probes (sparsifier "
                 "mass, factorization residual, finiteness) into the "
                 "ledger's health/digests blocks, 'warn' additionally logs "
                 "failed probes, 'raise' turns them into a "
                 "NumericalHealthError; default 'off' (REPRO_HEALTH also "
                 "works)",
        )

    def add_method_arguments(p: argparse.ArgumentParser, dim_default: int) -> None:
        """``--method`` choices and knob flags derived from the registry.

        Knob flags default to ``None`` ("not set"): only explicitly-given
        values are forwarded to ``make_params``, so each method keeps its
        dataclass defaults, and a knob the method does not support is a
        clean error instead of being silently ignored.
        """
        p.add_argument(
            "--method", choices=method_names(), default="lightne",
            help="embedding method (canonical name or registered alias)",
        )
        p.add_argument("--dim", type=int, default=dim_default)
        p.add_argument(
            "--window", type=int, default=None,
            help="context window T (methods with the window knob; "
                 "default: the method's own)",
        )
        p.add_argument(
            "--multiplier", type=float, default=None,
            help="sample multiplier (M = multiplier*T*m) for the "
                 "sampling-based methods",
        )
        p.add_argument(
            "--no-propagate", dest="propagate", action="store_const",
            const=False, default=None,
            help="skip the spectral-propagation stage",
        )
        p.add_argument(
            "--no-downsample", dest="downsample", action="store_const",
            const=False, default=None,
            help="disable the degree-based downsampling coin",
        )
        p.add_argument(
            "--precision", choices=("single", "double"), default=None,
            help="dense-kernel dtype policy: 'single' runs the "
                 "factorize/propagate stages in float32 (about half the "
                 "peak memory), 'double' runs the same kernels in float64 "
                 "(default: the method's own)",
        )
        p.add_argument(
            "--batch-size", dest="batch_size", type=int, default=None,
            help="PathSampling draws (before the downsampling coin) per "
                 "sampling slab (methods with a batch_size parameter): a "
                 "slab holds ~13 arrays of that length per worker while "
                 "it walks, and only its reduced pairs afterwards; "
                 "smaller values mean more, smaller pool tasks — changes "
                 "which RNG stream draws each sample, so keep it fixed "
                 "when comparing runs (default: 65536)",
        )

    p_embed = sub.add_parser("embed", help="compute an embedding")
    add_graph_arguments(p_embed)
    add_run_arguments(p_embed, _cmd_embed)
    add_method_arguments(p_embed, dim_default=128)
    p_embed.add_argument("--output", default="embedding.npy")

    p_info = sub.add_parser("info", help="print graph statistics")
    add_graph_arguments(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_nc = sub.add_parser("eval-nc", help="node-classification evaluation")
    add_graph_arguments(p_nc)
    p_nc.add_argument("--embeddings", required=True, help=".npy vectors")
    p_nc.add_argument("--train-ratio", type=float, default=0.1)
    p_nc.add_argument("--repeats", type=int, default=3)
    p_nc.set_defaults(func=_cmd_eval_nc)

    p_lp = sub.add_parser("eval-lp", help="link-prediction evaluation")
    add_graph_arguments(p_lp)
    add_run_arguments(p_lp, _cmd_eval_lp)
    add_method_arguments(p_lp, dim_default=64)
    p_lp.add_argument("--test-fraction", type=float, default=0.05)
    p_lp.add_argument("--negatives", type=int, default=100)

    p_conv = sub.add_parser(
        "convert",
        help="convert a graph to the memmappable CSR v2 container "
             "(out-of-core input: --input loads it memmapped)",
    )
    add_graph_arguments(p_conv)
    p_conv.add_argument(
        "--output", default="graph" + graph_io.CSR_V2_SUFFIX,
        help="output directory (conventionally *.csrv2)",
    )
    p_conv.set_defaults(func=_cmd_convert)

    p_cmp = sub.add_parser(
        "compare", help="side-by-side method comparison on a labeled dataset"
    )
    add_graph_arguments(p_cmp)
    add_run_arguments(p_cmp, _cmd_compare)
    p_cmp.add_argument(
        "--methods", default="prone+,lightne",
        help="comma-separated subset of: " + ",".join(method_names()),
    )
    p_cmp.add_argument("--ratios", default="0.1", help="comma-separated")
    p_cmp.add_argument("--dim", type=int, default=32)
    p_cmp.add_argument("--window", type=int, default=5)
    p_cmp.add_argument("--multiplier", type=float, default=1.0)
    p_cmp.add_argument("--repeats", type=int, default=2)

    # The readers of finished runs mount themselves (--ledger is a path here).
    report.init_subparser(sub)
    audit.init_subparser(sub)

    return parser


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Run ``args.pipeline`` under the run arguments' instrumentation."""
    if not args.health:
        try:
            health.get_policy()  # a bad REPRO_HEALTH fails before any work
        except ValueError as exc:
            raise SystemExit(str(exc))
    wants_ledger = bool(args.ledger or args.ledger_out)
    if wants_ledger:
        ledger.enable(path=args.ledger_out)

    if args.health:
        health.set_policy(args.health)

    # --progress is independent of span tracing: it only needs the stage
    # labels parallel_map already carries, so it works with telemetry fully
    # disabled.
    if args.progress:
        progress.enable()

    wants_telemetry = bool(args.trace_out or args.metrics_out)
    if wants_telemetry:
        tracer = telemetry.enable()
    try:
        if not wants_telemetry:
            code = args.pipeline(args)
        else:
            with telemetry.span("cli", command=args.command):
                code = args.pipeline(args)
        # The OS lifetime peak: the same figure the ledger records.
        peak = telemetry.peak_rss_bytes()
        if peak is not None:
            print(f"peak RSS {peak / (1 << 20):,.1f} MiB")
        return code
    finally:
        if args.progress:
            progress.disable()
        if args.health:
            health.clear_policy()
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
            print(f"trace ({tracer.span_count} spans) -> {args.trace_out}")
        if args.metrics_out:
            counters = dict(sorted(tracer.counters.items()))
            atomic_write_json(args.metrics_out, {"counters": counters}, indent=2)
            print(f"metrics -> {args.metrics_out}")
        if wants_ledger:
            print(f"run ledger -> {ledger.active_path()}")
            ledger.disable()
        if wants_telemetry:
            telemetry.disable()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    # The readers have no --verbose; REPRO_LOG reaches every subcommand.
    if getattr(args, "verbose", False):
        configure_logging("DEBUG")
    elif os.environ.get("REPRO_LOG"):
        try:
            configure_logging()
        except ValueError as exc:
            raise SystemExit(f"REPRO_LOG: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
