"""Smoke test of the benchmark harness: every workload in short mode.

Each run must exit 0, fail no check, and print every metric that
BENCHMARK.json names, with its unit, on the last stdout line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def short_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_end_to_end(workload):
    result = short_run(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced():
    result = short_run("sim-sweep", 1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["sim.integrate_s"]["value"] > 0
    assert result["metrics"]["network.truncate_s"]["value"] > 0


def test_refuses_without_program(tmp_path):
    """A checkout holding only the benchmark must fail without a result."""
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "shipped", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
