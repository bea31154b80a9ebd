"""Compare two suite results: one row per (end-to-end metric, workload).

    python -m benchmarks.perf.compare A.json B.json

``A`` is the baseline (parent commit), ``B`` the candidate.  For each pair
the row shows both values, the relative change in the *worse* direction, the
bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound.
``regressed``   B is worse than A by more than the bound.
``unresolved``  the run-to-run spread of either side (IQR / median of its
                samples) is wider than the bound, so the medians cannot
                settle it, unless every sample of one side beats every
                sample of the other.

``failed_share`` has bound 0: any failed run on B is a regression.  Exit code
is non-zero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from benchmarks.perf import run as single


def _index(result: dict) -> Dict[Tuple[str, str], dict]:
    return {
        (row["workload"], row["metric"]): row
        for row in result["rows"] if row["kind"] == "end_to_end"
    }


def _spread(row: dict) -> float:
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[float, str]:
    """Relative worsening of ``b`` against ``a`` and what to call it."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["value"])
    worse = sign * (b["value"] - a["value"]) / base if base else (
        0.0 if b["value"] == a["value"] else float("inf")
    )
    if max(_spread(a), _spread(b)) > bound and "samples" in a and "samples" in b:
        a_s = [sign * x for x in a["samples"]]
        b_s = [sign * x for x in b["samples"]]
        if max(b_s) < min(a_s):
            return worse, "ok"
        if min(b_s) > max(a_s) and worse > bound:
            return worse, "regressed"
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    results = []
    for path in (args.baseline, args.candidate):
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    for path, result in zip((args.baseline, args.candidate), results):
        if not result.get("comparable", True):
            print(f"warning: {path} is a --quick run; its numbers are not comparable")
    a_rows, b_rows = _index(results[0]), _index(results[1])

    spec = single.load_spec()
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_share", "share", "lower", 0.0))
    regressed = 0
    print(f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for name, unit, better, bound in metrics:
            key = (workload, name)
            if key not in a_rows or key not in b_rows:
                print(f"{workload:<16} {name:<14} missing from "
                      f"{'A' if key not in a_rows else 'B'}")
                regressed += 1
                continue
            worse, word = verdict(a_rows[key], b_rows[key], better, bound)
            regressed += word == "regressed"
            print(f"{workload:<16} {name:<14} {a_rows[key]['value']:>12.5g} "
                  f"{b_rows[key]['value']:>12.5g} {worse:>+8.1%} {bound:>6.0%}  "
                  f"{word}  [{unit}]")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
