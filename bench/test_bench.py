"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Each workload runs for about a second, untraced and traced, through the same
command line the benchmark is run with.  The tests check the output
contract: every metric of BENCHMARK.json is printed by name with its unit,
the last line is the result object, traced and untraced outputs agree, and
the CLI's known defect (``zak inverse`` on a binary file) is counted as a
failed op without ending the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ISSUE_METRICS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_fail_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_bench(workload: str, trace: int, *extra: str):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed, done.stdout


def test_benchmark_json_names_the_workloads_and_metrics():
    assert WORKLOADS == ["orbit_transform", "nonabelian_dual", "periodic", "cli_mix"]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert set(ISSUE_METRICS) - {"op_fail_ratio"} <= set(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_metric(workload):
    result, printed, _ = run_bench(workload, 0, "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in {**expected, **ISSUE_METRICS}.items():
        assert printed[name][1] == unit, name
    if workload != "cli_mix":
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_every_layer_metric(workload):
    result, printed, stdout = run_bench(workload, 1, "--smoke")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert {k: unit for k, (_, unit) in printed.items()} == expected
    assert "outputs_identical=True" in stdout
    assert "accounted=True" in stdout
    assert printed["trace.overhead_ratio"][0] > 0


def test_known_cli_defect_counts_as_a_failed_op():
    result, printed, stdout = run_bench("cli_mix", 0, "--smoke")
    kinds = [line for line in stdout.splitlines() if line.startswith("kind ")]
    binary = [line for line in kinds if " zak_inverse_binary:" in line]
    assert binary and "errors=UnicodeDecodeError" in binary[0]
    ops = int(binary[0].split("ops=")[1].split()[0])
    assert result["failed"] == ops >= 1
    assert not result["correct"]
    assert printed["op_fail_ratio"][0] == pytest.approx(ops / result["attempted"])
    others = [line for line in kinds if line not in binary]
    assert all(" failed=0 " in line for line in others)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text((ROOT / "bench" / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "bench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
