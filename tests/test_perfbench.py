"""Smoke runs of the benchmark, so that it keeps working as the package
changes: short config-mix, strip and indicator runs in a temporary copy of
the checkout, and traced config-mix and flatline runs for the tracer's patch
points."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(tmp_path, workload, trace=0):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout + run.stderr
    assert result["failed"] == 0


def test_config_mix_benchmark_smoke(tmp_path):
    smoke_run(tmp_path, "config-mix")


def test_strip_benchmark_smoke(tmp_path):
    # the strip cells run the quadratic engine, and every run checks it
    # against the 2x refined quadrature
    smoke_run(tmp_path, "strip")


def test_indicator_benchmark_smoke(tmp_path):
    # the indicator cells run the separable engine's closed-form chirp
    # factors; every run checks them against the 2x refined field, which
    # the closed form leaves bit-identical
    smoke_run(tmp_path, "indicator")


def test_traced_config_mix_benchmark_smoke(tmp_path):
    # the tracer wraps LineEvaluator.__init__'s phase argument and calls
    # cell_values(ev, X); a change to either breaks only a traced run
    smoke_run(tmp_path, "config-mix", trace=1)


def test_traced_flatline_benchmark_smoke(tmp_path):
    # the traced atomic engine: the evaluator's row blocks (factored caps and
    # the scattered last cap) handed through the tracer's evaluator wrapper
    # to the accumulator
    smoke_run(tmp_path, "flatline", trace=1)
