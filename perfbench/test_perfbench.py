"""Self-tests of the benchmark harness.

Run from the root of the repository (about two minutes; the scan-m6 runs
dominate, because a run always measures whole passes over its points):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_RUNS: dict = {}


def bench(workload, seed, trace, seconds=1):
    """(final JSON, stdout, result file) of one run; cached for the whole test run."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        info = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout, info
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    result, stdout, _ = bench(workload, 1, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    table = stdout.splitlines()
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   and m["better"] in line.split() for line in table), m["name"]
    assert any(line.split()[:1] == ["fail_ratio"] for line in table)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_inputs_not_metric_names(workload):
    first, _, info1 = bench(workload, 1, 0)
    second, _, info2 = bench(workload, 2, 0)
    assert info1["inputs_digest"] != info2["inputs_digest"]
    assert set(first["metrics"]) == set(second["metrics"])


def test_traced_scan_counts_equal_untraced_counts():
    _, _, untraced = bench("scan-m6", 1, 0)
    result, _, traced = bench("scan-m6", 1, 1)
    assert len(traced["point_counts"]) == 8
    assert traced["point_counts"] == traced["untraced_point_counts"] == untraced["point_counts"]
    assert result["correct"]


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(16))) == (5, 100.0 * 6 / 16, 16)
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 3)
