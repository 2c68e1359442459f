"""Tiny-size smoke test for the benchmark itself.

Runs ``perfbench/run.py`` as a user would, in a subprocess, on every
workload at ``--scale tiny``, traced and untraced, and checks the result
line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric_and_repeats_its_digest(workload):
    plain, plain_detail = _bench(workload, 0)
    traced, traced_detail = _bench(workload, 1)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True, result
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in plain["metrics"].values()), plain
    # Same seed, same reports: untraced, and both halves of the traced run.
    assert plain_detail["digest"] == traced_detail["digest"]
    assert traced_detail["traced_digest"] == traced_detail["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "ratio_sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
