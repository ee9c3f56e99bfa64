"""Tests of the benchmark itself; run with `python -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric(workload, trace):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_output_counts_as_failed():
    wl = run._import_workloads()
    seen = []

    def corrupting_runner(job):
        code, stdout = wl.run_job(job)
        seen.append(job)
        return (code, stdout + b" ") if len(seen) == 1 else (code, stdout)

    result = run.run_workload("small_laws", seed=0, seconds=0.5, trace=False, runner=corrupting_runner)
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_wrong_exit_code_counts_as_failed():
    wl = run._import_workloads()
    result = run.run_workload("asym_tail", seed=0, seconds=0.2, trace=False,
                              runner=lambda job: (2, wl.run_job(job)[1]))
    assert result["failed"] == result["attempted"] >= 1


def test_traced_counts_repeat_exactly():
    first, second = (run.run_workload("phase_scan", seed=3, seconds=1, trace=True) for _ in range(2))
    counts = [n for n, (_, unit) in first["metrics"].items() if unit != "s" and n != "trace.overhead_frac"]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_spot_checks_use_closed_forms():
    wl = run._import_workloads()
    header = "quantity,n,param,exact,asym,residual,scaled_residual"
    tnzero = wl.Job(key="", argv=("asym", "tnzero", "--n", "4", "--p", "1/2"))
    assert wl.spot_check(tnzero, f"{header}\nalternating_zero,4,1/2,3/8,0,0,0\n")
    assert not wl.spot_check(tnzero, f"{header}\nalternating_zero,4,1/2,1/4,0,0,0\n")
    wagner = wl.Job(key="", argv=("asym", "wagner", "--n", "3", "--b", "2", "--c", "1"))
    assert wl.spot_check(wagner, f"{header}\nmiddle_coefficient,3,b,20/1,0,0,0\n")
    assert not wl.spot_check(wagner, f"{header}\nmiddle_coefficient,3,b,21/1,0,0,0\n")
    conv = wl.Job(key="", argv=("dist", "conv", "--in", "x"))
    assert wl.spot_check(conv, '{"dim": 1, "atoms": [[[0], "1/3"], [[1], "2/3"]]}')
    assert not wl.spot_check(conv, '{"dim": 1, "atoms": [[[0], "1/3"], [[1], "1/3"]]}')


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
