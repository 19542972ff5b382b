"""The benchmark's workloads: what one pass runs and how its output is
checked.

Every workload is a closed loop with one client: a pass runs its cells back
to back and the next pass starts when the previous one has finished.
Sampler seeds come from the benchmark seed and the pass index, so the same
seed gives the same inputs.

- indicator: indicator scaling study through `measure_linear` and the
  separable engine; kernel-bound (complex exp in the 1-D factors).
- strip: strip scaling study through `measure_trivial` and the tensor engine
  (the flat-line surface is not phase-separable); the largest per-cell
  temporaries.
- flatline: flat-line scaling study at a large budget on the atomic engine;
  sampling, cap grouping and accumulation take a large share, so it is the
  control for kernel changes and the target of norms/harness changes.
- config-mix: `declab measure` on one config holding all seven scenario
  kinds at small N, on the CLI thread pool; many short cells make per-cell
  setup and scheduling count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from declab import cli, harness
from declab.fields import extension_evaluator
from declab.harness import (DecouplingReport, ScenarioSpec, fit_slope,
                            measurement_ball, run_cell)
from declab.norms import Sampler

P = 6.0
# Quadrature self-check: the extension at default nodes must agree with the
# 2x refined quadrature to this fraction of the largest |E g| over the
# check points.
QUAD_TOL = 1e-8
QUAD_POINTS = 16


def pass_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class PassResult:
    """One pass: wall time, sample points drawn, per-cell (seconds,
    ratio_rel_stderr), the indices of the cells that failed a check, and
    for config-mix the time of the one-thread rerun."""

    wall_s: float
    samples: int
    cells: list[tuple[float, float]]
    failed: set[int]
    serial_wall_s: float | None = None


def report_ok(rep) -> bool:
    """Finite ratios and the Cauchy-Schwarz bound `trivial_bound_ok`.  `rep`
    is a DecouplingReport or anything with the attributes that bound reads."""
    ratios = [rep.ratio_lp] + ([] if rep.ratio_l2 is None else [rep.ratio_l2])
    return all(np.isfinite(r) for r in ratios) and DecouplingReport.trivial_bound_ok(rep)


def quadrature_ok(surface, amp_field, ball, seed: int) -> bool:
    """E g at default nodes against the 2x refined quadrature on points
    drawn uniformly inside the ball that holds all but 1e-9 of the sampling
    mass (the evaluators are built for exactly that radius)."""
    x_max = ball.quantile_radius(harness.X_MAX_TAIL)
    rng = np.random.default_rng([seed, 7])
    v = rng.standard_normal((QUAD_POINTS, ball.dim))
    v *= (x_max * rng.random(QUAD_POINTS) ** (1.0 / ball.dim)
          / np.linalg.norm(v, axis=1))[:, None]
    x = np.asarray(ball.center) + v
    base = extension_evaluator(surface, amp_field, x_max).total(x)
    fine = extension_evaluator(surface, amp_field.refine(2), x_max).total(x)
    return bool(np.abs(base - fine).max() <= QUAD_TOL * np.abs(fine).max())


def cell_ball(spec: ScenarioSpec):
    radius = spec.k_squares if spec.kind == "strip" else spec.n_scale
    return measurement_ball(4, float(radius))


def continuous_checks(specs, seed: int) -> dict[int, bool]:
    """Quadrature check per cell index, for cells with continuous fields."""
    out = {}
    for k, spec in enumerate(specs):
        bundle = harness.scenario(spec)
        fields = [f for f in bundle.fields if f.mode == "continuous"]
        if fields:
            out[k] = all(quadrature_ok(bundle.surface, f, cell_ball(spec), seed)
                         for f in fields)
    return out


def _warn(what: str):
    print(f"check failed: {what}", file=sys.stderr)


class Study:
    """A scaling study driven through `declab.harness.run_cell`, finished by
    `fit_slope` over the cell ratios."""

    def __init__(self, kind: str, scales, budget: int, ratio: str):
        self.kind = kind
        self.budget = budget
        self.ratio = ratio
        self.scales = [float(s) for s in scales]
        if kind == "strip":
            self.specs = [ScenarioSpec(kind=kind, n_scale=s, p=P, k_squares=int(s))
                          for s in self.scales]
        else:
            self.specs = [ScenarioSpec(kind=kind, n_scale=s, p=P) for s in self.scales]

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        reports: list[DecouplingReport | None] = []
        span = tracer.span("study") if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with span:
            for k, spec in enumerate(self.specs):
                try:
                    reports.append(run_cell(spec, Sampler(budget=self.budget,
                                                          seed=seed + k)))
                except Exception:  # a failed cell is counted, the study goes on
                    traceback.print_exc()
                    reports.append(None)
            done = [r for r in reports if r is not None]
            slope = None
            if len(done) == len(self.specs):
                slope = fit_slope(self.scales, [getattr(r, self.ratio) for r in done],
                                  [r.ratio_rel_stderr for r in done]).slope
        wall = perf_counter() - t0
        failed = set()
        for k, (spec, rep) in enumerate(zip(self.specs, reports)):
            if rep is None or not report_ok(rep):
                _warn(f"{spec.kind} N={spec.n_scale:g}: ratio not finite or above "
                      "the Cauchy-Schwarz bound")
                failed.add(k)
        if slope is None or not np.isfinite(slope):
            _warn(f"{self.kind}: slope fit not finite")
            failed = set(range(len(self.specs)))
        return PassResult(wall_s=wall, samples=self.budget * len(done),
                          cells=[(r.runtime_ms / 1e3, r.ratio_rel_stderr) for r in done],
                          failed=failed)


# All seven scenario kinds at small N.  Many short cells: per-cell setup,
# the LineEvaluator (curve-bilinear, parabola-2d), the bilinear combiner and
# the thread pool matter here, unlike in the three long studies.
MIX_SCENARIOS = [
    {"kind": "indicator", "N": [16, 64]},
    {"kind": "random-phase", "N": [16, 64]},
    {"kind": "flat-line", "N": [64, 1024]},
    {"kind": "strip", "N": [4], "K": 4},
    {"kind": "bilinear-pair", "N": [16, 64]},
    {"kind": "curve-bilinear", "N": [16, 64]},
    {"kind": "parabola-2d", "N": [16, 64, 256]},
]


class ConfigMix:
    """`declab measure` on the mixed config, on the pool of `threads`
    workers; each untraced pass reruns it on one worker, whose CSV must be
    byte-identical."""

    kind = "config-mix"

    def __init__(self, budget: int, threads: int, out_dir: Path):
        self.budget = budget
        self.threads = threads
        self.out_dir = out_dir
        self.specs = []
        for sc in MIX_SCENARIOS:
            for n in sc["N"]:
                self.specs.append(ScenarioSpec(kind=sc["kind"], n_scale=float(n), p=P,
                                               k_squares=sc.get("K", 8)))

    def config(self, seed: int, tag: str) -> dict:
        return {
            "v": 1, "seed": seed,
            "scenarios": [dict(sc, p=[P]) for sc in MIX_SCENARIOS],
            "sampler": {"strategy": "mc", "budget": self.budget, "seed": seed},
            "outputs": {"report": str(self.out_dir / f"mix-{tag}-report.json"),
                        "csv": str(self.out_dir / f"mix-{tag}-rows.csv"),
                        "slopes": str(self.out_dir / f"mix-{tag}-slopes.json")},
        }

    def measure(self, seed: int, threads: int, tag: str, tracer=None):
        """(seconds, exit code, reports, csv bytes) of one `declab measure`."""
        cfg = self.config(seed, tag)
        path = self.out_dir / f"mix-{tag}.json"
        path.write_text(json.dumps(cfg))
        for out in cfg["outputs"].values():
            Path(out).unlink(missing_ok=True)
        old = os.environ.get("DECLAB_THREADS")
        os.environ["DECLAB_THREADS"] = str(threads)
        span = tracer.span("study") if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                with span:
                    rc = cli.main(["measure", "--config", str(path)])
                wall = perf_counter() - t0
        finally:
            if old is None:
                del os.environ["DECLAB_THREADS"]
            else:
                os.environ["DECLAB_THREADS"] = old
        if rc != cli.EXIT_OK:
            return wall, rc, [], b""
        reports = json.loads(Path(cfg["outputs"]["report"]).read_text())["reports"]
        return wall, rc, reports, Path(cfg["outputs"]["csv"]).read_bytes()

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        wall, rc, reports, csv_pool = self.measure(seed, self.threads, "pool", tracer)
        serial = None
        everything = set(range(len(self.specs)))
        failed = set()
        if rc != cli.EXIT_OK or len(reports) != len(self.specs):
            _warn(f"config-mix: declab measure exited {rc} with {len(reports)} reports")
            failed = everything
        else:
            for k, r in enumerate(reports):
                rep = SimpleNamespace(ratio_lp=r["ratio_lp"],
                                      ratio_l2=r["ratio_l2"] if r["ratio_l2"] != "" else None,
                                      p=r["p"], caps_total=r["caps"],
                                      ratio_rel_stderr=r["ratio_rel_stderr"])
                if not report_ok(rep):
                    _warn(f"config-mix {r['kind']} N={r['N']}: ratio not finite or "
                          "above the Cauchy-Schwarz bound")
                    failed.add(k)
        if tracer is None:
            serial, rc1, _, csv_serial = self.measure(seed, 1, "serial")
            if rc1 != cli.EXIT_OK or csv_serial != csv_pool:
                _warn("config-mix: CSV differs between 1 and "
                      f"{self.threads} DECLAB_THREADS")
                failed = everything
        return PassResult(wall_s=wall, samples=self.budget * len(reports),
                          cells=[(r["runtime_ms"] / 1e3, r["ratio_rel_stderr"])
                                 for r in reports],
                          failed=failed, serial_wall_s=serial)
