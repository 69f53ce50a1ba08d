"""Checks of the benchmark itself: declared names, repeatable counts, and
tiny-size smoke runs of every workload.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from run import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stdout
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_declared_workloads_are_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_checks_and_reports_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_runs_report_per_layer_metrics_with_repeatable_counts(workload):
    first, second = result(workload, 1)["metrics"], result(workload, 1)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == declared
    counts = [k for k in COUNT_METRICS if k in declared]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_checks_reject_out_of_range_and_non_finite_exports(tmp_path):
    w = Workload(argv=[], inputs=[], kind="control", updates=2, u_max=3.0)
    (tmp_path / "metrics.json").write_text('{"total": 1.0}\n')
    csv = tmp_path / "timeseries.csv"
    csv.write_text("time_s,y_J1,u_J1,injected_mg\n0,1,2,1\n60,1,2,1\n")
    assert check_outputs(w, str(tmp_path)) == []
    csv.write_text("time_s,y_J1,u_J1,injected_mg\n0,1,3.5,1\n60,nan,2,1\n")
    problems = check_outputs(w, str(tmp_path))
    assert any("outside [0, 3.0]" in p for p in problems)
    assert any("non-finite" in p for p in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("net3_mpc", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
