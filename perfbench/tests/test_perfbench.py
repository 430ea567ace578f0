"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/tests -q

Checks that each run exits 0 with a correct result whose metric names and
units are exactly those BENCHMARK.json declares, that the workload names
match, and that a directory holding only the benchmark fails without a
result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = ["--seed", "3", "--seconds", "0", "--count", "3"]


def _run(root: str, workload: str, trace: int, extra=TINY):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=300)


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_declared_metrics(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "planar_fbm_dichotomy", 0,
                ["--seed", "3", "--seconds", "1"])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
