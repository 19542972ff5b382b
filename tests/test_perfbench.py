"""Smoke run of the benchmark, so that it keeps working as the package
changes: one short config-mix run in a temporary copy of the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_config_mix_benchmark_smoke(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config-mix",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout + run.stderr
    assert result["failed"] == 0
