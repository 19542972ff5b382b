"""Config-driven experiment runner and command-line interface.

Subcommands: measure, transversality, rescale-check, exponents, example,
smoke.  Artifacts are JSON (structured reports, slope fits, plot series)
and CSV (one row per measurement cell).  Every emitted byte is determined
by (config, seed, version); cells are scheduled over a thread pool capped
by DECLAB_THREADS and emitted in deterministic key order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import harness
from .fields import AmplitudeField, extension_evaluator
from .geometry import (QuadCoeffs, curve_lift, moment_curve, quad_surface,
                       random_admissible)
from .grid import DyadicSquare, cap_level_for
from .harness import (DecouplingReport, Sampler, ScenarioSpec, emit_plotdata,
                      measure_linear, measurement_ball, run_cell, slope_series)
from .norms import PoisonedEstimateError, weight_mass
from .rescale import rescaling_residual
from .transversality import (jacobian_residual, min_abs_form,
                             transversality_graph)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_POISONED = 3


class ConfigError(ValueError):
    pass


_TOP_KEYS = {"v", "seed", "scenarios", "sampler", "ball", "outputs",
             "time_budget_s"}
_SCENARIO_KEYS = {"kind", "N", "p", "K", "nu", "seed", "I1", "I2",
                  "surface", "field"}
_SAMPLER_KEYS = {"strategy", "budget", "seed", "proposal", "chunk"}
_BALL_KEYS = {"E", "T", "center", "shape"}
_OUTPUT_KEYS = {"report", "csv", "slopes", "plotdata"}
_SURFACE_KEYS = {"type", "A", "curve", "I1", "I2"}
_FIELD_KEYS = {"mode", "seed", "kind", "N", "points", "amps"}

CSV_COLUMNS = ["kind", "N", "p", "lhs", "lhs_se", "rhs_lp", "rhs_l2",
               "ratio_lp", "ratio_l2", "caps", "budget", "seed", "runtime_ms"]


def _check_keys(mapping, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("v") != FORMAT_VERSION:
        raise ConfigError(f"config version must be {FORMAT_VERSION}")
    if "seed" not in cfg or not isinstance(cfg["seed"], int):
        raise ConfigError("config requires an integer seed")
    scenarios = cfg.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("config requires a non-empty scenarios list")
    for sc in scenarios:
        _check_keys(sc, _SCENARIO_KEYS, "scenario")
        if sc.get("kind") not in harness.SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {sc.get('kind')!r}")
        if "surface" in sc:
            _check_keys(sc["surface"], _SURFACE_KEYS, "surface")
        if "field" in sc:
            _check_keys(sc["field"], _FIELD_KEYS, "field")
        if ("surface" in sc or "field" in sc) and sc["kind"] not in (
                "indicator", "random-phase", "flat-line"):
            raise ConfigError("surface/field overrides apply to the linear "
                              "measurement kinds only")
    _check_keys(cfg.get("sampler", {}), _SAMPLER_KEYS, "sampler")
    _check_keys(cfg.get("ball", {}), _BALL_KEYS, "ball")
    _check_keys(cfg.get("outputs", {}), _OUTPUT_KEYS, "outputs")
    budget = cfg.get("time_budget_s", 0.0)
    if isinstance(budget, bool) or not isinstance(budget, (int, float)) \
            or not 0 <= budget < np.inf:
        raise ConfigError(f"time_budget_s must be a finite number >= 0, got {budget!r}")
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict):
    """Build every cell's scenario (and overrides), ball and the sampler, and
    the ball's weight mass, so that a value the harness rejects fails here
    and not in the middle of a run."""
    try:
        _sampler_from(cfg, cfg["seed"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    try:
        cells = _expand_cells(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    for cell, spec, raw in cells:
        where = f"scenario {cell.scenario_index} ({cell.kind}, N={spec.n_scale:g})"
        try:
            harness.scenario(spec)
            if "surface" in raw:
                _build_surface(raw["surface"])
            if "field" in raw:
                _build_field(raw["field"], cap_level_for(spec.n_scale), spec.seed)
            ball = _cell_ball(cfg, spec)
            if ball is not None:
                weight_mass(ball)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def _build_surface(spec: dict):
    kind = spec.get("type")
    if kind == "quad":
        return quad_surface(spec["A"])
    if kind == "lift":
        if spec.get("curve", "moment") != "moment":
            raise ConfigError("only the built-in moment curve is configurable")
        return curve_lift(moment_curve(), tuple(spec.get("I1", (0.0, 0.25))),
                          tuple(spec.get("I2", (0.75, 1.0))))
    raise ConfigError(f"unknown surface type {kind!r}")


def _build_field(spec: dict, level: int, default_seed: int) -> AmplitudeField:
    mode = spec.get("mode", "const")
    if mode == "const":
        return AmplitudeField.constant(level)
    if mode == "random-phase":
        return AmplitudeField.random_phase(level, int(spec.get("seed", default_seed)))
    if mode == "atomic":
        if spec.get("kind") == "flat-line":
            flat = ScenarioSpec(kind="flat-line", n_scale=float(spec["N"]))
            return harness.scenario(flat).fields[0]
        pts = np.asarray(spec["points"], dtype=float)
        amps_raw = spec.get("amps")
        if amps_raw is None:
            amps = np.ones(len(pts), dtype=complex)
        else:
            amps = np.array([complex(a[0], a[1]) if isinstance(a, (list, tuple))
                             else complex(a) for a in amps_raw])
        return AmplitudeField.atomic(pts, amps)
    raise ConfigError(f"unknown field mode {mode!r}")


def _ball_for(cfg: dict, dim: int, radius: float):
    bc = cfg.get("ball")
    if not bc:
        return None
    center = bc.get("center")
    if center is not None and len(center) != dim:
        # mixed-dimension scenario lists: the center applies only to cells
        # of the matching dimension
        center = None
    return measurement_ball(dim, radius,
                            decay=float(bc.get("E", 100.0)),
                            trunc=float(bc.get("T", 4.0)),
                            center=center,
                            shape=bc.get("shape", "plateau"))


def _sampler_from(cfg: dict, default_seed: int) -> Sampler:
    sc = cfg.get("sampler", {})
    return Sampler(budget=int(sc.get("budget", 20000)),
                   seed=int(sc.get("seed", default_seed)),
                   strategy=sc.get("strategy", "mc"),
                   proposal=sc.get("proposal", "mixture"),
                   chunk=int(sc.get("chunk", 4096)))


@dataclass(frozen=True)
class _Cell:
    scenario_index: int
    kind: str
    n_scale: float
    p: float

    def key(self):
        return (self.scenario_index, self.kind, self.n_scale, self.p)


def _expand_cells(cfg: dict) -> list[tuple[_Cell, ScenarioSpec, dict]]:
    cells = []
    for idx, sc in enumerate(cfg["scenarios"]):
        kind = sc["kind"]
        n_list = sc.get("N", [64])
        if not isinstance(n_list, list):
            n_list = [n_list]
        p_list = sc.get("p", [6])
        if not isinstance(p_list, list):
            p_list = [p_list]
        for n in n_list:
            for p in p_list:
                spec = ScenarioSpec(kind=kind, n_scale=float(n), p=float(p),
                                    k_squares=sc.get("K", 8),
                                    nu=float(sc.get("nu", 0.25)),
                                    seed=int(sc.get("seed", cfg["seed"])),
                                    i1=tuple(sc.get("I1", (0.0, 0.25))),
                                    i2=tuple(sc.get("I2", (0.75, 1.0))))
                cells.append((_Cell(idx, kind, float(n), float(p)), spec, sc))
    return sorted(cells, key=lambda c: c[0].key())


def _cell_ball(cfg: dict, spec: ScenarioSpec):
    if spec.kind == "parabola-2d":
        return _ball_for(cfg, 2, spec.n_scale)
    if spec.kind == "strip":
        return _ball_for(cfg, 4, float(spec.k_squares))
    return _ball_for(cfg, 4, spec.n_scale)


def _run_custom_cell(spec: ScenarioSpec, raw: dict, sampler: Sampler, ball):
    """Linear measurement over a config-specified surface and/or field; the
    scenario's own surface and field fill in the one not given."""
    bundle = harness.scenario(spec)
    surface = _build_surface(raw["surface"]) if "surface" in raw else bundle.surface
    amp = (_build_field(raw["field"], cap_level_for(spec.n_scale), spec.seed)
           if "field" in raw else bundle.fields[0])
    rep = measure_linear(surface, amp, spec.n_scale, spec.p, sampler, ball=ball)
    rep.kind = spec.kind
    rep.meta["customized"] = sorted(k for k in ("surface", "field") if k in raw)
    return rep


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, reports: list[DecouplingReport]):
    # the CSV is part of the byte-reproducibility contract; wall time is
    # volatile provenance and stays in the JSON report only
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            row = rep.to_row()
            row["runtime_ms"] = ""
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


def cmd_measure(args) -> int:
    try:
        cfg = load_config(args.config)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    threads = os.environ.get("DECLAB_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"config error: DECLAB_THREADS must be an integer >= 1, got {threads!r}",
              file=sys.stderr)
        return EXIT_SCHEMA
    sampler = _sampler_from(cfg, cfg["seed"])
    cells = _expand_cells(cfg)
    time_budget = cfg.get("time_budget_s")

    def run_one(item):
        cell, spec, raw = item
        ball = _cell_ball(cfg, spec)
        if "surface" in raw or "field" in raw:
            rep = _run_custom_cell(spec, raw, sampler, ball)
        else:
            rep = run_cell(spec, sampler, ball=ball)
        if time_budget is not None and rep.runtime_ms / 1e3 > time_budget:
            rep.meta["budget_warning"] = (
                f"cell ran {rep.runtime_ms / 1e3:.1f}s over the "
                f"{time_budget}s budget")
            print(f"warning: {cell.key()}: {rep.meta['budget_warning']}",
                  file=sys.stderr)
        return cell.key(), rep

    results = {}
    try:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for key, rep in pool.map(run_one, cells):
                    results[key] = rep
        else:
            for item in cells:
                key, rep = run_one(item)
                results[key] = rep
    except PoisonedEstimateError as exc:
        print(f"numeric poisoning: {exc}", file=sys.stderr)
        return EXIT_POISONED
    reports = [results[k] for k in sorted(results)]

    outputs = cfg.get("outputs", {})
    report_path = args.out or outputs.get("report")
    csv_path = args.csv or outputs.get("csv")
    slopes_path = outputs.get("slopes")
    plot_path = outputs.get("plotdata")
    if report_path:
        payload = {"v": FORMAT_VERSION, "seed": cfg["seed"],
                   "reports": [r.to_dict() for r in reports]}
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if csv_path:
        write_csv(csv_path, reports)
    if slopes_path:
        with open(slopes_path, "w") as fh:
            json.dump({s.key: {"slope": s.fit.slope, "stderr": s.fit.stderr,
                               "ratio": s.ratio, "points": s.fit.n_points}
                       for s in slope_series(reports)[0] if s.fit is not None},
                      fh, indent=2, sort_keys=True)
    if plot_path:
        with open(plot_path, "w") as fh:
            json.dump(emit_plotdata(reports), fh, indent=2, sort_keys=True)
    for rep in reports:
        print(f"{rep.kind} N={rep.n_scale:g} p={rep.p:g}: "
              f"ratio_lp={rep.ratio_lp:.4g}"
              + (f" ratio_l2={rep.ratio_l2:.4g}" if rep.ratio_l2 else ""))
    return EXIT_OK


def cmd_example(args) -> int:
    # build everything the run needs first, so that bad input fails with a
    # one-line message, as `measure` does at load
    dim = 2 if args.kind == "parabola-2d" else 4
    radius = float(args.K) if args.kind == "strip" else float(args.N)
    try:
        spec = ScenarioSpec(kind=args.kind, n_scale=args.N, p=args.p,
                            k_squares=args.K, nu=args.nu, seed=args.seed)
        harness.scenario(spec)
        sampler = Sampler(budget=args.budget, seed=args.seed)
        center = None
        if args.center:
            center = [float(v) for v in args.center.split(",")]
            if len(center) != dim:
                raise ValueError(f"--center needs {dim} coordinates for {args.kind}, "
                                 f"got {len(center)}")
        ball = measurement_ball(dim, radius, center=center)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        rep = run_cell(spec, sampler, ball=ball)
    except PoisonedEstimateError as exc:
        print(f"numeric poisoning: {exc}", file=sys.stderr)
        return EXIT_POISONED
    json.dump(rep.to_dict(), sys.stdout, indent=2, sort_keys=True, default=str)
    print()
    return EXIT_OK


def _parse_coeffs(text: str) -> QuadCoeffs:
    vals = [float(v) for v in text.split(",")]
    return QuadCoeffs.from_sequence(vals)


def cmd_transversality(args) -> int:
    coeffs = _parse_coeffs(args.A)
    graph = transversality_graph(coeffs, args.K, nu=args.nu)
    sample = []
    rng = np.random.default_rng(0)
    for _ in range(min(args.pairs_sample, args.K ** 2)):
        i1, j1, i2, j2 = rng.integers(0, args.K, size=4)
        sq1 = DyadicSquare(int(np.log2(args.K)), int(i1), int(j1))
        sq2 = DyadicSquare(int(np.log2(args.K)), int(i2), int(j2))
        sample.append({"pair": [[int(i1), int(j1)], [int(i2), int(j2)]],
                       "min_form": min_abs_form(coeffs, sq1, sq2),
                       "transverse": graph.is_transverse(sq1, sq2)})
    payload = {
        "K": graph.K,
        "nu": graph.nu,
        "counts": graph.counts.tolist(),
        "max_count": graph.max_count,
        "strips": {
            "kind": graph.strip.kind,
            "directions": [list(d) for d in graph.strip.directions],
            "half_widths": list(graph.strip.half_widths),
        },
        "prediction_agreement": graph.prediction_agreement,
        "pairs_sample": sample,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_rescale_check(args) -> int:
    coeffs = _parse_coeffs(args.A)
    a, b, delta = (float(v) for v in args.R.split(","))
    rng = np.random.default_rng(args.seed)
    n_pts = 8
    pts = np.column_stack([rng.uniform(a, a + delta, n_pts),
                           rng.uniform(b, b + delta, n_pts)])
    amps = np.exp(2j * np.pi * rng.random(n_pts))
    field = AmplitudeField.atomic(pts, amps)
    res = rescaling_residual(coeffs, field, (a, b, delta),
                             trials=args.trials, seed=args.seed)
    print(json.dumps({"max_residual": res, "trials": args.trials}, indent=2))
    return EXIT_OK


def cmd_exponents(args) -> int:
    from fractions import Fraction

    from .exponents import (contradiction_search, exponent_constants,
                            iterate_growth_bound)
    p = Fraction(args.p).limit_denominator(10 ** 6)
    consts = exponent_constants(p)
    payload = {"p": float(p), "kappa": float(consts["kappa"])}
    if "gamma_candidate" in consts:
        payload["gamma_candidate"] = float(consts["gamma_candidate"])
        payload["gamma_iterate"] = float(iterate_growth_bound(
            p, Fraction(args.eps).limit_denominator(10 ** 9), args.s,
            consts["gamma_candidate"], args.bigO))
        payload["contradiction"] = contradiction_search(p, big_o=args.bigO).to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_smoke(args) -> int:
    """Fast exact-identity checks across the modules."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    failures = []

    def check(name, ok):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    # rescaling identity on random admissible coefficients
    worst = 0.0
    for _ in range(40):
        coeffs = random_admissible(rng)
        corner = rng.uniform(0, 0.7, size=2)
        delta = float(rng.uniform(0.1, 0.3))
        pts = np.column_stack([rng.uniform(corner[0], corner[0] + delta, 6),
                               rng.uniform(corner[1], corner[1] + delta, 6)])
        field = AmplitudeField.atomic(pts, np.exp(2j * np.pi * rng.random(6)))
        worst = max(worst, rescaling_residual(
            coeffs, field, (corner[0], corner[1], delta), trials=40,
            seed=int(rng.integers(2 ** 31))))
    check(f"rescaling identity (max residual {worst:.2e})", worst < 1e-9)

    worst = 0.0
    for _ in range(20):
        coeffs = random_admissible(rng)
        worst = max(worst, jacobian_residual(coeffs, 50, seed=int(rng.integers(2 ** 31))))
    check(f"jacobian identity (max residual {worst:.2e})", worst < 1e-5)

    from .geometry import is_nondegenerate, normal_form
    agree = True
    for _ in range(60):
        coeffs = random_admissible(rng)
        surf = quad_surface(coeffs)
        t, s = rng.uniform(0.2, 0.8, size=2)
        nf = normal_form(surf, t, s)
        agree &= (nf.rank2 == is_nondegenerate(surf, t, s))
    check("rank equivalence (quadratic draws)", agree)

    sym = True
    lev = 3
    for _ in range(40):
        coeffs = random_admissible(rng)
        a = DyadicSquare(lev, *rng.integers(0, 8, size=2))
        b = DyadicSquare(lev, *rng.integers(0, 8, size=2))
        sym &= (min_abs_form(coeffs, a, b) == min_abs_form(coeffs, b, a))
    check("difference-form symmetry", sym)

    surf = quad_surface(harness.SEPARABLE_COEFFS)
    f = AmplitudeField.constant(2)
    val = extension_evaluator(surf, f, 1.0).total(np.zeros((1, 4)))[0]
    check(f"unit amplitude at zero frequency ({val.real:.12f})",
          abs(val - 1.0) < 1e-12)

    # oscillatory-kernel throughput (informational)
    ev = extension_evaluator(surf, AmplitudeField.constant(4), 256.0)
    x = rng.uniform(-64, 64, size=(512, 4))
    ev.cell_values(x[:8])            # warm caches
    done = ev.node_samples
    t1 = time.perf_counter()
    ev.cell_values(x)
    rate = (ev.node_samples - done) / max(time.perf_counter() - t1, 1e-9)
    print(f"[info] oscillatory kernel throughput ~ {rate/1e6:.0f}M node-samples/s")

    print(f"smoke finished in {time.time() - t0:.1f}s")
    return EXIT_OK if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="declab",
                                 description="decoupling measurement laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="run measurement cells from a config")
    m.add_argument("--config", required=True)
    m.add_argument("--out", default=None, help="report JSON path")
    m.add_argument("--csv", default=None, help="CSV rows path")
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("example", help="run a single canonical scenario")
    e.add_argument("--kind", required=True, choices=harness.SCENARIO_KINDS)
    e.add_argument("--N", type=float, default=64)
    e.add_argument("--p", type=float, default=6)
    e.add_argument("--K", type=int, default=8)
    e.add_argument("--nu", type=float, default=0.25)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--budget", type=int, default=20000)
    e.add_argument("--center", default=None,
                   help="comma-separated ball center override")
    e.set_defaults(func=cmd_example)

    t = sub.add_parser("transversality", help="pairwise square classification")
    t.add_argument("--A", required=True, help="six comma-separated coefficients")
    t.add_argument("--K", type=int, default=16)
    t.add_argument("--nu", type=float, default=None)
    t.add_argument("--out", default=None)
    t.add_argument("--pairs-sample", type=int, default=8, dest="pairs_sample")
    t.set_defaults(func=cmd_transversality)

    r = sub.add_parser("rescale-check", help="verify the exact rescaling identity")
    r.add_argument("--A", required=True)
    r.add_argument("--R", required=True, help="a,b,delta")
    r.add_argument("--trials", type=int, default=1000)
    r.add_argument("--seed", type=int, default=42)
    r.set_defaults(func=cmd_rescale_check)

    x = sub.add_parser("exponents", help="exponent bookkeeping")
    x.add_argument("--p", type=float, required=True)
    x.add_argument("--s", type=int, default=12)
    x.add_argument("--eps", type=float, default=1e-3)
    x.add_argument("--bigO", type=float, default=10.0)
    x.set_defaults(func=cmd_exponents)

    s = sub.add_parser("smoke", help="fast exact-identity checks")
    s.set_defaults(func=cmd_smoke)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
