"""Self-test of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root.

Runs every workload at smoke size (20 rounds, minimum number of operations)
in both passes and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--rounds", "20"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return proc.stdout, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    stdout, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert '"commit"' in stdout and '"numpy"' in stdout and '"nproc"' in stdout


def test_bit_accounting_rejects_a_wrong_expected_value(tmp_path):
    cfg = {"dimension": 10, "clients_per_round": 5, "rounds": 2,
           "uplink_mode": "differential", "uplink_schedule": "constant", "uplink_bits": 4,
           "downlink_mode": "float"}
    assert checks.link_bits_per_round(cfg) == (880, 320)
    header = ",".join(checks.METRICS_HEADER)
    rows = ["0,0.1,4,32,1.0,0.01,880,320", "1,0.1,4,32,1.0,0.01,1760,640"]
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("\n".join([header, *rows]) + "\n")
    assert checks.check_run(0, metrics, cfg) == []

    wrong = {**cfg, "uplink_bits": 5}  # expects 930 bits per client upload
    assert any("uplink_bits_cum" in f for f in checks.check_run(0, metrics, wrong))
    metrics.write_text("\n".join([header, rows[0], "1,0.1,4,32,1.0,0.01,1760,641"]) + "\n")
    assert any("downlink_bits_cum" in f for f in checks.check_run(0, metrics, cfg))


def test_layered_downlink_pays_one_header_per_layer():
    cfg = {"dimension": 40, "clients_per_round": 5, "uplink_mode": "float",
           "downlink_mode": "layered", "downlink_schedule": "constant", "downlink_bits": 6,
           "layer_sizes": "8,32", "rounds": 2000}
    up, down = checks.link_bits_per_round(cfg)
    assert (2000 * up, 2000 * down) == (12_800_000, 1_024_000)
