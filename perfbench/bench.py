"""The benchmark proper: runs a workload's passes, checks them and prints
the metrics.  `run.py` is the entry point; it pins the BLAS threads and puts
the checkout's `src/` on the import path before this module is imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from declab.fields import AmplitudeField
from declab.grid import cap_level_for
from declab.harness import flat_line_points, measurement_ball
from declab.norms import Sampler, weighted_norm_batch
from tracing import Tracer, layer_metrics
from workloads import ConfigMix, Study, continuous_checks, pass_seed

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("indicator", "strip", "flatline", "config-mix")
MIN_PASSES = 3
SETUP_PROBES = 5
POOL_THREADS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="declab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def make_workload(name: str, threads: int):
    if name == "indicator":
        return Study("indicator", (16, 64, 256), budget=4096, ratio="ratio_lp")
    if name == "strip":
        return Study("strip", (8, 16, 32), budget=2048, ratio="ratio_lp")
    if name == "flatline":
        return Study("flat-line", (64, 1024, 16384), budget=2 ** 18, ratio="ratio_l2")
    return ConfigMix(budget=1024, threads=threads, out_dir=OUT_DIR)


def describe(values, unit: str) -> str:
    """Median, and the highest percentile with at least ten samples beyond
    it on the slow side, when there are enough samples for one."""
    n = len(values)
    text = f"{statistics.median(values):.6g} {unit} (median of {n}"
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        if unit == "s":
            text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
        else:   # a rate: the slow side is the low one
            text += f", p{100 - pct} {statistics.quantiles(values, n=100)[99 - pct]:.6g}"
    return text + ")"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = getattr(workload, "threads", None)
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "declab_threads": (f"{threads} (pool), 1 (serial rerun)" if threads
                           else "unused (harness driven directly)"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(workload) -> list[float]:
    """Wall time of cold processes that import declab and make the first
    cell's first-call set-up."""
    cell = workload.specs[0]
    scale = cell.k_squares if cell.kind == "strip" else cell.n_scale
    cmd = [sys.executable, str(HERE / "setup_probe.py"), cell.kind, repr(float(scale))]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        out.append(perf_counter() - t0)
    return out


def run_passes(workload, seed: int, seconds: float, traced: bool):
    """Passes back to back until the next one would end after `seconds`.
    Traced runs alternate traced and untraced passes, traced first, so the
    first traced pass meets cold set-up caches."""
    plain, tracers = [], []
    start = perf_counter()
    k = 0
    while True:
        tracer = Tracer() if traced and k % 2 == 0 else None
        t0 = perf_counter()
        if tracer is None:
            plain.append(workload.run_pass(pass_seed(seed, k)))
        else:
            tracer.install()
            try:
                tracers.append((workload.run_pass(pass_seed(seed, k), tracer), tracer))
            finally:
                tracer.uninstall()
        k += 1
        took = perf_counter() - t0
        if k >= MIN_PASSES and perf_counter() - start + took > seconds:
            return plain, tracers


def time_to_1pct(passes) -> float:
    """Sum over cells of cell seconds x (ratio_rel_stderr / 0.01)^2: cell
    seconds as the median over passes, squared errors pooled (averaged) over
    passes, which sample with different seeds."""
    total = 0.0
    full = max(len(p.cells) for p in passes)
    for cells in zip(*(p.cells for p in passes if len(p.cells) == full)):
        secs = statistics.median(c[0] for c in cells)
        rel2 = statistics.fmean(c[1] ** 2 for c in cells)
        total += secs * rel2 / 1e-4
    return total


def norms_microbench(seed: int) -> dict[str, float]:
    """`weighted_norm_batch` with evaluators that cost nothing: one series,
    and as many series as the flatline N=16384 cell has (caps + 1)."""

    pts = flat_line_points(16384)
    series = len(AmplitudeField.atomic(pts, np.ones(len(pts)))
                 .support_squares(cap_level_for(16384))) + 1
    ball = measurement_ball(4, 64.0)
    sampler = Sampler(budget=2 ** 17, seed=seed)

    def seconds(n_series):
        ones = np.ones((n_series, sampler.chunk), dtype=complex)
        times = []
        for _ in range(3):
            t0 = perf_counter()
            weighted_norm_batch(lambda x: ones[:, :len(x)], ball, [6.0] * n_series,
                                sampler)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    one = seconds(1)
    many = seconds(series)
    return {"norms.sample_points_per_s": sampler.budget / one,
            "norms.accum_series_samples_per_s":
                (series - 1) * sampler.budget / max(many - one, 1e-9)}


def end_to_end(workload, passes, setup) -> dict[str, tuple]:
    """name -> (value, unit, the per-pass samples it is the median of)."""
    walls = [p.wall_s for p in passes]
    rates = [p.samples / p.wall_s for p in passes]
    return {
        "setup_s": (statistics.median(setup), "s", setup),
        "wall_s": (statistics.median(walls), "s", walls),
        "samples_per_s": (statistics.median(rates), "1/s", rates),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", None),
    }


LAYER_UNITS = {
    "fields.build_s": "s", "fields.kernel_s": "s", "fields.node_samples": "count",
    "fields.separable.node_samples_per_s": "1/s",
    "fields.tensor.node_samples_per_s": "1/s",
    "fields.atomic.node_samples_per_s": "1/s",
    "fields.line.node_samples_per_s": "1/s",
    "fields.tensor.temp_mb": "MB", "geometry.phase_s": "s", "norms.setup_s": "s",
    "norms.batch_self_s": "s", "norms.samples": "count",
    "norms.sample_points_per_s": "1/s", "norms.accum_series_samples_per_s": "1/s",
    "harness.group_s": "s", "harness.aggregate_s": "s", "harness.series": "count",
    "cli.serial_wall_s": "s", "cli.pool_speedup": "ratio",
    "trace.overhead_frac": "ratio",
    "time_to_1pct_s": "s", "failed_frac": "ratio",
}
COUNTS = ("fields.node_samples", "norms.samples", "harness.series",
          "fields.tensor.temp_mb")


def per_layer(workload, plain, tracers, seed, study: dict) -> dict[str, tuple]:
    layers = [layer_metrics(t) for _, t in tracers]
    for name in COUNTS:
        if len({m[name] for m in layers}) != 1:
            print(f"warning: computed count {name} differs between passes: "
                  f"{[m[name] for m in layers]}", file=sys.stderr)
    # The first traced pass is the run's first pass: it alone meets cold
    # set-up caches, which is what norms.setup_s measures, and it is left out
    # of the timings when there are later traced passes.
    warm = slice(1, None) if len(tracers) > 1 else slice(None)
    out = {name: statistics.median(m[name] for m in layers[warm]) for name in layers[0]}
    out["norms.setup_s"] = layers[0]["norms.setup_s"]
    for name in COUNTS:
        out[name] = layers[0][name]
    traced_wall = statistics.median(p.wall_s for p, _ in tracers[warm])
    plain_wall = statistics.median(p.wall_s for p in plain)
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    serial = [p.serial_wall_s for p in plain if p.serial_wall_s is not None]
    out["cli.serial_wall_s"] = statistics.median(serial) if serial else 0.0
    out["cli.pool_speedup"] = out["cli.serial_wall_s"] / plain_wall if serial else 0.0
    out.update(norms_microbench(seed))
    out.update(study)
    layer_s = out["attributed_s"]
    print(f"traced wall_s = {describe([p.wall_s for p, _ in tracers[warm]], 's')}; "
          f"untraced wall_s = {describe([p.wall_s for p in plain], 's')}")
    print(f"layer self times sum to {layer_s:.6g} s = {layer_s / traced_wall:.4f} "
          f"of traced wall_s (benchmark loop and slope fit: "
          f"{out['unattributed_s']:.6g} s)")
    for name in ("fields.kernel_s", "geometry.phase_s", "norms.batch_self_s",
                 "harness.group_s"):
        print(f"{name} / traced wall_s = {out[name] / traced_wall:.4f}")
    return {name: (out[name], unit, None) for name, unit in LAYER_UNITS.items()}


def main(argv) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    threads = min(POOL_THREADS, len(os.sched_getaffinity(0)))
    workload = make_workload(args.workload, threads)
    env = environment(args, workload)
    print("env " + json.dumps(env, sort_keys=True))

    setup = [] if args.trace else setup_seconds(workload)
    plain, tracers = run_passes(workload, args.seed, args.seconds, bool(args.trace))
    checks = continuous_checks(workload.specs, args.seed)
    bad_quadrature = {k for k, ok in checks.items() if not ok}
    for k in sorted(bad_quadrature):
        print(f"check failed: quadrature self-check, cell {k}", file=sys.stderr)
    every = plain + [p for p, _ in tracers]
    attempted = sum(len(workload.specs) for _ in every)
    failed = sum(len(p.failed | bad_quadrature) for p in every)
    print(f"cells: {attempted} attempted, {failed} failed, quadrature checks "
          f"{len(checks) - len(bad_quadrature)}/{len(checks)} passed; "
          f"failed_frac = {failed / attempted:.6g}")
    # Study-level figures that are too noisy for an end-to-end bound: the
    # squared Monte Carlo errors vary ~50% between seeds.
    study = {"time_to_1pct_s": time_to_1pct(every), "failed_frac": failed / attempted}

    if args.trace:
        metrics = per_layer(workload, plain, tracers, args.seed, study)
        spans = [t.spans for _, t in tracers]
        (OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(spans))
    else:
        metrics = end_to_end(workload, plain, setup)
        print(f"time_to_1pct_s = {study['time_to_1pct_s']:.6g} s (over {len(every)} "
              "passes; a per-layer figure, reported with --trace 1)")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = " + (describe(samples, unit) if samples
                              else f"{value:.6g} {unit}"))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, pass_wall_s=[p.wall_s for p in plain],
                        traced_pass_wall_s=[p.wall_s for p, _ in tracers]),
                   indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0
