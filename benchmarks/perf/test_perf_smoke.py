"""Smoke test of the benchmark's contract on tiny graphs (not tier-1).

    PYTHONPATH=src:. python -m pytest benchmarks/perf/test_perf_smoke.py -q

Runs ``run.py --quick`` once per (workload, mode) in a fresh interpreter and
checks the shape of what it prints against ``BENCHMARK.json``; the numbers
themselves are flagged non-comparable and are not looked at.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import run as single

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = single.load_spec()
KINDS = {0: "end_to_end", 1: "per_layer"}


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in SPEC["workloads"])
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", sorted(KINDS))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_declared_metric_once(workload, trace):
    done = subprocess.run(
        [sys.executable, single.__file__, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=single.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    assert any("not comparable" in line for line in lines)

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # failed == 0 includes: every run and the traced replay are bit-identical
    # to the first library run.
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC[KINDS[trace]]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        value = result["metrics"][name]
        assert set(value) == {"value", "unit"} and value["unit"] == unit
        assert isinstance(value["value"], (int, float))
        printed = [line for line in lines[:-1] if line.split()[:1] == [name]]
        assert len(printed) == 1 and unit in printed[0].split()
