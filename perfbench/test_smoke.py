"""Smoke test of the benchmark: every workload, shrunk to one round, in both
modes, prints a finite value for every metric that BENCHMARK.json names.

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_round_prints_every_metric(workload, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(workloads, "ROUNDS", 1)
    monkeypatch.setattr(bench, "MIN_ROUNDS", 1)
    monkeypatch.setattr(bench, "CONV_REPEATS", 1)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert record["metrics_csv_sha256"] and record["environment"]["seed"] == 3
