"""Smoke test of the benchmark itself (not part of tier-1).

Run with ``python -m pytest bench -q`` from the repo root.  At ``--smoke``
sizes (20/200/12 users, 3 live nodes, 2 rounds) every workload must emit
every metric ``BENCHMARK.json`` declares, with its unit, as the contract's
JSON object on the last line of stdout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_benchmark(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, declared",
                         [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_contract(workload, trace, declared):
    result = run_benchmark("--workload", workload, "--seed", "1",
                           "--seconds", str(CONTRACT["run_seconds"]),
                           "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"]
                for metric in CONTRACT[declared]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if declared == "end_to_end":
            assert metric["value"] > 0, name


def test_catalogue_matches_contract():
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS as catalogue
    assert [(w.name, w.why) for w in catalogue] == [
        (w["name"], w["why"]) for w in CONTRACT["workloads"]]


def test_traced_run_attributes_time_to_layers():
    run_benchmark("--workload", "live_uds_5", "--trace", "1")
    trace = json.loads((ROOT / "bench" / "out" / "live_uds_5.trace.json")
                       .read_text(encoding="utf-8"))
    layers = trace["layers"]
    assert sum(layer["self_s"] for layer in layers.values()) == \
        pytest.approx(trace["profiled_s"])
    assert layers["other"]["share"] < 0.10
    assert layers["idle"]["self_s"] > 0 and layers["transport"]["self_s"] > 0
    assert {span["id"] for span in trace["round_spans"]} >= {
        "run", "round-1", "round-1/proposal", "round-2/final"}
