"""The whole benchmark in one command, written to one flat result JSON.

    PYTHONPATH=src:. python -m benchmarks.perf --seed 2021

Every (workload, mode) pair runs ``run.py`` in a fresh interpreter, one at a
time, with more repeats than the driver's per-run cap allows (5 timed runs,
3 interleaved overhead rounds).  The result is a list of rows
``{workload, metric, kind, value, unit, ...}`` plus provenance; feed two of
them to ``python -m benchmarks.perf.compare``.  Exit code is non-zero when
any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import List, Optional

from benchmarks.perf import run as single
from benchmarks.perf.common import RESULTS_DIR

TIMED_RUNS = 5
OVERHEAD_ROUNDS = 3
KINDS = {0: "end_to_end", 1: "per_layer"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--quick", action="store_true",
                        help="tiny graphs; numbers are NOT comparable")
    parser.add_argument("--out", default=None,
                        help="result path [results/result_seed<S>.json]")
    args = parser.parse_args(argv)

    spec = single.load_spec()
    rows, runs, failed = [], [], 0
    started = time.time()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in KINDS.items():
            command = [
                sys.executable, os.path.abspath(single.__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                "--runs", str(TIMED_RUNS), "--rounds", str(OVERHEAD_ROUNDS),
            ] + (["--quick"] if args.quick else [])
            print(f"--- {workload} / {kind}", flush=True)
            detail_path = os.path.join(
                RESULTS_DIR, f"detail_{workload}_{kind}.json"
            )
            if os.path.exists(detail_path):
                os.remove(detail_path)  # never read an earlier run's detail
            done = subprocess.run(command, cwd=single.ROOT, check=False)
            if not os.path.exists(detail_path):
                print(f"{workload}/{kind} exited {done.returncode} with no result")
                return done.returncode
            with open(detail_path, encoding="utf-8") as fh:
                detail = json.load(fh)
            failed += detail["failed"]
            units = {m["name"]: m["unit"] for m in spec[kind]}
            for name, row in detail["metrics"].items():
                rows.append({
                    "workload": workload, "metric": name, "kind": kind,
                    "unit": units[name],
                    **{k: row[k] for k in ("value", "q1", "q3", "n", "samples")
                       if k in row},
                })
            runs.append({
                k: detail[k] for k in (
                    "workload", "trace", "attempted", "failed", "problems",
                    "graph", "provenance", "notes",
                ) if k in detail
            })
            rows.append({
                "workload": workload, "metric": "failed_share", "kind": kind,
                "unit": "share",
                "value": detail["failed"] / detail["attempted"],
            })

    result = {
        "schema": 1,
        "seed": args.seed,
        "comparable": not args.quick,
        "wall_seconds": time.time() - started,
        "rows": rows,
        "runs": runs,
    }
    out = args.out or os.path.join(RESULTS_DIR, f"result_seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}  ({len(rows)} rows, {failed} failed runs, "
          f"{result['wall_seconds']:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
