"""Config-driven experiment runner and command-line interface.

Subcommands: measure, transversality, rescale-check, exponents, example,
smoke.  Artifacts are JSON (structured reports, slope fits, plot series)
and CSV (one row per measurement cell).  Every emitted byte is determined
by (config, seed, version): the distinct (scenario, N, p) cells run one
after another in that order, and their rows are emitted in it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import harness
from .fields import AmplitudeField, extension_evaluator
from .geometry import (QuadCoeffs, curve_lift, moment_curve, quad_surface,
                       random_admissible)
from .grid import DyadicSquare, cap_level_for
from .harness import (DecouplingReport, Sampler, ScenarioSpec, emit_plotdata, run_cell,
                      slope_series)
from .harness import measure_linear  # noqa: F401 (perfbench/tracing.py patches this name)
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


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(values, what: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list of numbers, got {values!r}")
    return [_number(v, what) for v in values]


def load_config(path: str) -> tuple[dict, Sampler, list]:
    """(config, sampler, cells): the checked config and every input its cells
    run on, as `_build_cells` builds them once."""
    with open(path) as fh:
        cfg = json.load(fh)
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("v") != FORMAT_VERSION:
        raise ConfigError(f"config version must be {FORMAT_VERSION}")
    _integer(cfg.get("seed"), "config seed")
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
        if ("surface" in sc or "field" in sc) and sc["kind"] not in harness.LINEAR_KINDS:
            raise ConfigError("surface/field overrides apply to the linear "
                              "measurement kinds only")
    _check_keys(cfg.get("sampler", {}), _SAMPLER_KEYS, "sampler")
    _check_keys(cfg.get("ball", {}), _BALL_KEYS, "ball")
    _check_keys(cfg.get("outputs", {}), _OUTPUT_KEYS, "outputs")
    budget = _number(cfg.get("time_budget_s", 0.0), "time_budget_s")
    if not 0 <= budget < np.inf:
        raise ConfigError(f"time_budget_s must be a finite number >= 0, got {budget!r}")
    return cfg, *_build_cells(cfg)


def _build_cells(cfg: dict) -> tuple[Sampler, list]:
    """The sampler and each cell's (scenario index, spec, ball, overrides),
    overrides as `run_cell` takes them, all built once, with the balls'
    weight mass, so that a value the harness rejects fails at load."""
    try:
        sampler = _sampler_from(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    specs = _expand_cells(cfg)
    bc = cfg.get("ball", {})
    weight = {name: _number(bc[key], f"ball {key}")
              for key, name in (("E", "decay"), ("T", "trunc")) if key in bc}
    if "shape" in bc:
        weight["shape"] = bc["shape"]
    center = bc.get("center")
    if center is not None:
        center = _numbers(center, "ball center")
        dims = sorted({spec.dim for _, spec, _ in specs})
        if len(center) not in dims:
            raise ConfigError(f"ball center must list {' or '.join(map(str, dims))} "
                              f"coordinates (the dimension of some cell), got {center!r}")
    cells = []
    for idx, spec, raw in specs:
        part = "scenario"           # the object whose key a KeyError names
        overrides = {}
        try:
            harness.scenario(spec)
            if "surface" in raw:
                part = "surface"
                overrides["surface"] = _build_surface(raw["surface"])
            if "field" in raw:
                part = "field"
                overrides["field"] = _build_field(raw["field"], cap_level_for(spec.n_scale),
                                                  spec.seed)
            # a center applies to the cells of its dimension only
            fits = center is not None and len(center) == spec.dim
            ball = spec.ball(center if fits else None, **weight)
            weight_mass(ball)
        except KeyError as exc:
            raise ConfigError(f"{_where(idx, spec)}: missing key {exc} in {part}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{_where(idx, spec)}: {exc}") from exc
        cells.append((idx, spec, ball, overrides))
    return sampler, cells


def _build_surface(spec: dict):
    kind = spec.get("type")
    if kind == "quad":
        return quad_surface(_numbers(spec["A"], "surface A"))
    if kind == "lift":
        if spec.get("curve", "moment") != "moment":
            raise ConfigError("only the built-in moment curve is configurable")
        i1, i2 = (tuple(_numbers(spec[key], f"surface {key}")) if key in spec else default
                  for key, default in (("I1", ScenarioSpec.i1), ("I2", ScenarioSpec.i2)))
        return curve_lift(moment_curve(), i1, i2)
    raise ConfigError(f"unknown surface type {kind!r}")


def _build_field(spec: dict, level: int, default_seed: int) -> AmplitudeField:
    mode = spec.get("mode", "const")
    if mode == "const":
        return AmplitudeField.constant(level)
    if mode == "random-phase":
        return AmplitudeField.random_phase(level, _integer(spec.get("seed", default_seed),
                                                           "field seed"))
    if mode != "atomic":
        raise ConfigError(f"unknown field mode {mode!r}")
    kind = spec.get("kind")
    if kind == "flat-line":
        flat = ScenarioSpec(kind="flat-line", n_scale=_number(spec["N"], "field N"))
        return harness.scenario(flat).fields[0]
    if kind is not None:
        raise ConfigError(f"unknown atomic field kind {kind!r}")
    pts = [_numbers(pt, "field point") for pt in spec["points"]]
    amps = spec.get("amps")
    return AmplitudeField.atomic(pts, np.ones(len(pts)) if amps is None
                                 else [_amplitude(a) for a in amps])


def _amplitude(a) -> complex:
    """An atomic amplitude: a JSON number, or an [re, im] list of two."""
    parts = a if isinstance(a, list) and len(a) == 2 else [a]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ValueError(f"field amplitude must be a number or [re, im], got {a!r}")
    return complex(*parts)


def _sampler_from(cfg: dict) -> Sampler:
    """The seed defaults to the config's, every other field to `Sampler`'s."""
    sc = cfg.get("sampler", {})
    given = {key: sc[key] for key in ("strategy", "proposal") if key in sc}
    given.update({key: _integer(sc[key], f"sampler {key}")
                  for key in ("budget", "chunk") if key in sc})
    return Sampler(seed=_integer(sc.get("seed", cfg["seed"]), "sampler seed"), **given)


def _expand_cells(cfg: dict) -> list[tuple[int, ScenarioSpec, dict]]:
    """(scenario index, spec, raw scenario) for each distinct (index, N, p)
    cell, sorted by (index, N, p); a repeated N or p runs once.  The seed
    defaults to the config's, every other spec field to `ScenarioSpec`'s."""
    cells = {}
    for idx, sc in enumerate(cfg["scenarios"]):
        kind = sc["kind"]
        n_list, p_list = ([_number(v, key) for v in (vals if isinstance(vals, list) else [vals])]
                          for key, vals in (("N", sc.get("N", ScenarioSpec.n_scale)),
                                            ("p", sc.get("p", ScenarioSpec.p))))
        if not n_list or not p_list:
            raise ConfigError(f"empty {'p' if n_list else 'N'} list in scenario {idx}")
        if kind == "strip" and len(set(n_list)) > 1:
            raise ConfigError(f"strip scenario {idx} gives N={n_list}; its scale is K: give one N")
        given = {"seed": _integer(sc.get("seed", cfg["seed"]), "scenario seed")}
        if "K" in sc:
            given["k_squares"] = _integer(sc["K"], "strip K")
        if "nu" in sc:
            given["nu"] = _number(sc["nu"], "nu")
        for key in ("I1", "I2"):
            if key in sc:
                given[key.lower()] = tuple(_numbers(sc[key], key))
        for n in n_list:
            for p in p_list:
                spec = ScenarioSpec(kind=kind, n_scale=n, p=p, **given)
                cells.setdefault((idx, spec.n_scale, spec.p), (idx, spec, sc))
    return [cells[key] for key in sorted(cells)]


def _where(idx: int, spec: ScenarioSpec) -> str:
    return f"scenario {idx} ({spec.kind}, N={spec.n_scale:g}, p={spec.p:g})"


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


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_SCHEMA


def cmd_measure(args) -> int:
    try:
        cfg, sampler, cells = load_config(args.config)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        return _config_error(exc)
    time_budget = cfg.get("time_budget_s")

    def run_one(idx, spec, ball, overrides):
        rep = run_cell(spec, sampler, ball=ball, **overrides)
        if time_budget is not None and rep.runtime_ms / 1e3 > time_budget:
            warning = f"cell ran {rep.runtime_ms / 1e3:.1f}s over the {time_budget}s budget"
            rep.meta["budget_warning"] = warning
            print(f"warning: {_where(idx, spec)}: {warning}", file=sys.stderr)
        return rep

    try:
        reports = [run_one(*cell) for cell in cells]
    except PoisonedEstimateError as exc:
        print(f"numeric poisoning: {exc}", file=sys.stderr)
        return EXIT_POISONED

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
    try:
        spec = ScenarioSpec(kind=args.kind, n_scale=args.N, p=args.p,
                            k_squares=args.K, nu=args.nu, seed=args.seed)
        harness.scenario(spec)
        sampler = Sampler(budget=args.budget, seed=args.seed)
        ball = spec.ball([float(v) for v in args.center.split(",")] if args.center else None)
    except ValueError as exc:
        return _config_error(exc)
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
    try:
        coeffs = _parse_coeffs(args.A)
        graph = transversality_graph(coeffs, args.K, nu=args.nu)
    except ValueError as exc:
        return _config_error(exc)
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
    try:
        coeffs = _parse_coeffs(args.A)
        a, b, delta = (float(v) for v in args.R.split(","))
        if not 0 < delta < np.inf:
            raise ValueError(f"--R needs a cap side delta > 0, got {delta:g}")
        if args.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        rng = np.random.default_rng(args.seed)
        pts = np.column_stack([rng.uniform(a, a + delta, 8), rng.uniform(b, b + delta, 8)])
        field = AmplitudeField.atomic(pts, np.exp(2j * np.pi * rng.random(8)))
    except (ValueError, OverflowError) as exc:
        return _config_error(exc)
    res = rescaling_residual(coeffs, field, (a, b, delta),
                             trials=args.trials, seed=args.seed)
    print(json.dumps({"max_residual": res, "trials": args.trials}, indent=2))
    return EXIT_OK


def cmd_exponents(args) -> int:
    from fractions import Fraction

    from .exponents import (contradiction_search, exponent_constants,
                            iterate_growth_bound)
    try:
        p = Fraction(args.p).limit_denominator(10 ** 6)
        consts = exponent_constants(p)
        payload = {"p": float(p), "kappa": float(consts["kappa"])}
        if "gamma_candidate" in consts:
            payload["gamma_candidate"] = float(consts["gamma_candidate"])
            payload["gamma_iterate"] = float(iterate_growth_bound(
                p, Fraction(args.eps).limit_denominator(10 ** 9), args.s,
                consts["gamma_candidate"], args.bigO))
            payload["contradiction"] = contradiction_search(p, big_o=args.bigO).to_dict()
    except (ValueError, OverflowError) as exc:
        return _config_error(exc)
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

    # kernel throughput (informational): node-samples of the quadrature on a
    # profiled field, samples of the closed form on a unit one
    x = rng.uniform(-64, 64, size=(512, 4))

    def timed(field):
        ev = extension_evaluator(surf, field, 256.0)
        ev.cell_values(x[:8])            # warm caches
        done = ev.node_samples
        t1 = time.perf_counter()
        ev.cell_values(x)
        return ev.node_samples - done, max(time.perf_counter() - t1, 1e-9)

    work, seconds = timed(AmplitudeField.separable(4, lambda t: 1.0 + t, lambda s: 2.0 - s))
    print(f"[info] oscillatory kernel throughput ~ {work / seconds / 1e6:.0f}M node-samples/s")
    _, seconds = timed(AmplitudeField.constant(4))
    print(f"[info] closed-form chirp throughput ~ {x.shape[0] / seconds / 1e3:.0f}k samples/s")

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
    e.add_argument("--N", type=float, default=ScenarioSpec.n_scale)
    e.add_argument("--p", type=float, default=ScenarioSpec.p)
    e.add_argument("--K", type=int, default=ScenarioSpec.k_squares)
    e.add_argument("--nu", type=float, default=ScenarioSpec.nu)
    e.add_argument("--seed", type=int, default=ScenarioSpec.seed)
    e.add_argument("--budget", type=int, default=Sampler.budget)
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
