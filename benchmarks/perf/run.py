"""Measure one workload once: the command ``BENCHMARK.json`` names.

    python3 benchmarks/perf/run.py --workload sample_heavy --seed 3 \
        --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; every metric is printed by name with its unit, and the last line of
standard output is one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any run failed a check.  Everything else the run learned (samples, quartiles,
provenance, spans) goes to ``results/`` next to this file.

Start it in a fresh interpreter per measurement (the driver and the suite in
``__main__`` both do): the warm-up run is also the memory probe.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(_HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def bootstrap() -> None:
    """Put the checkout's ``src`` (the program) and root on ``sys.path``.

    The benchmark measures the source tree it sits in and nothing else, so a
    checkout without ``src/repro`` is an error, not a reason to look further.
    """
    package = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"benchmarks/perf: nothing to measure, {package} is missing")
    if sys.path and os.path.abspath(sys.path[0]) == _HERE:
        sys.path.pop(0)  # script mode: siblings must not shadow top-level names
    for entry in (ROOT, os.path.join(ROOT, "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units and bounds this run must honour."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop of --trace 0 measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--runs", type=int, default=3,
                        help="least number of timed runs (--trace 0) [3]")
    parser.add_argument("--rounds", type=int, default=1,
                        help="interleaved off/tracer/health rounds (--trace 1) [1]")
    parser.add_argument("--quick", action="store_true",
                        help="tiny graphs; numbers are NOT comparable")
    return parser.parse_args(argv)


def report(kind: str, spec: dict, outcome: dict, quick: bool) -> Dict[str, dict]:
    """Print every metric of ``kind`` by name and unit; return the JSON block.

    The measured names must be exactly the names ``BENCHMARK.json`` lists: a
    metric missing or extra is a bug in the benchmark, not a result.
    """
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    measured = outcome["metrics"]
    if set(declared) != set(measured):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(measured))}, undeclared "
            f"{sorted(set(measured) - set(declared))}"
        )
    notes = outcome.get("notes", {})
    block = {}
    for name, unit in declared.items():
        row = measured[name]
        extra = ""
        if "q1" in row:
            extra = f"  [q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n={row['n']}]"
        elif "n" in row:
            extra = f"  [n={row['n']}]"
        if notes.get(name) == "unresolved":
            extra += "  unresolved"
        print(f"{name:<48} {row['value']:>16.6g} {unit}{extra}")
        block[name] = {"value": row["value"], "unit": unit}
    if quick:
        print("QUICK RUN: tiny graphs, numbers are not comparable")
    return block


def main(argv: Optional[List[str]] = None) -> int:
    """Measure, then stop whatever the run started, on every way out."""
    args = parse_args(argv)
    bootstrap()
    from benchmarks.perf import common

    # A terminated run must still unwind through the ``finally`` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    common.adopt_orphans()
    try:
        code, result_line = measure(args)
    finally:
        stragglers = common.stop_child_processes()
    if stragglers:
        print(f"FAILED the run left processes behind (killed): {stragglers}")
        return 1
    print(result_line)  # last line of standard output, nothing runs after it
    return code


def measure(args: argparse.Namespace) -> Tuple[int, str]:
    """One measurement: the exit code and the result line to print last."""
    from benchmarks.perf import common, endtoend, layers
    from benchmarks.perf.workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    scrubbed = common.scrub_environment()
    kind = "per_layer" if args.trace else "end_to_end"

    with common.scratch_space() as scratch_dir:
        if args.trace:
            outcome = layers.measure(
                workload, args.seed, args.rounds, scratch_dir, args.quick
            )
        else:
            outcome = endtoend.measure(
                workload, args.seed, args.seconds, args.runs, scratch_dir,
                args.quick,
            )

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"n={outcome['graph']['n']} m={outcome['graph']['m']}  "
          f"workers={outcome['provenance']['resolved_workers']}")
    for problem in outcome["problems"]:
        print(f"FAILED {problem}")
    metrics = report(kind, spec, outcome, args.quick)

    outcome.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        quick=args.quick, comparable=not args.quick, scrubbed_env=scrubbed,
    )
    spans = outcome.pop("spans", None)
    if spans is not None:
        _dump(f"trace_{workload.name}.json", {"run": outcome["seed"], "spans": spans})
    _dump(f"detail_{workload.name}_{kind}.json", outcome)

    correct = outcome["failed"] == 0
    return (0 if correct else 1), json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    })


def _dump(name: str, payload: dict) -> None:
    from benchmarks.perf.common import RESULTS_DIR

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
