"""Tiny-size runs of every workload through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from harness import END_TO_END, PER_LAYER
from workloads import WORKLOADS


def _run(cwd, workload, seconds, trace=0):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_clean_and_reports_every_metric(workload):
    result = _result(_run(ROOT, workload, 5))
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name


def test_traced_run_reports_every_layer_metric():
    result = _result(_run(ROOT, "udp-backlog-ctl", 8, trace=1))
    assert set(result["metrics"]) == set(PER_LAYER)
    for name in ("wire.decode_us", "sched.dequeue_us", "obs.hook_us_per_pkt",
                 "control.dispatch_ms.stats", "persist.snapshot_kb"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "udp-small", 1)
    assert done.returncode == 2
    assert done.stdout.strip() == ""
