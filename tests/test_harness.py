import math

import numpy as np
import pytest

from declab import fields as fields_module
from declab import harness
from declab.fields import AmplitudeField, LineEvaluator, extension_evaluator
from declab.geometry import moment_curve, quad_surface
from declab.grid import CapPartition, DyadicSquare, cap_level_for
from declab.harness import (FLAT_LINE_COEFFS, SEPARABLE_COEFFS,
                            AllCapsEmptyError, DecouplingReport, _CapGroups,
                            NonTransverseError, OverlappingSquaresError,
                            ScenarioSpec, curve_bilinear,
                            curve_product_identity_residual, emit_plotdata,
                            fit_slope, flat_line_points,
                            flatline_l2_reference, measure_bilinear,
                            measure_linear, measure_square_function,
                            measure_trivial, measurement_ball,
                            parabola_reference, predicted_exponent, run_cell,
                            scenario)
from declab.norms import OuterBlock, Sampler, _MixtureProposal

SURF = quad_surface(SEPARABLE_COEFFS)


def small_sampler(seed=0, budget=3072):
    return Sampler(budget=budget, seed=seed)


def test_single_cap_field_gives_unit_ratio():
    f = AmplitudeField.constant(2).restrict(DyadicSquare(2, 1, 2))
    rep = measure_linear(SURF, f, 16, 6.0, small_sampler())
    assert rep.ratio_lp == pytest.approx(1.0, abs=1e-12)
    assert rep.ratio_l2 == pytest.approx(1.0, abs=1e-12)


def test_linear_report_holder_consistency():
    f = AmplitudeField.constant(2)
    rep = measure_linear(SURF, f, 16, 6.0, small_sampler())
    bound = rep.caps_total ** (0.5 - 1.0 / rep.p) * rep.rhs_lp
    assert rep.rhs_l2 <= bound * (1 + 1e-12)
    assert rep.ratio_l2 <= rep.ratio_lp * rep.caps_total ** (0.5 - 1.0 / rep.p) * (1 + 1e-12)


def test_linear_trivial_bound_holds():
    f = AmplitudeField.constant(2)
    rep = measure_linear(SURF, f, 16, 6.0, small_sampler(seed=5))
    assert rep.trivial_bound_ok()


def test_empty_field_rejected():
    f = AmplitudeField.atomic(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(AllCapsEmptyError):
        measure_linear(SURF, f, 16, 6.0, small_sampler())


def test_flat_line_scenario_points():
    pts = flat_line_points(64)
    assert pts.shape == (8, 2)
    np.testing.assert_array_equal(pts[:, 0], 0.0)
    np.testing.assert_allclose(pts[:, 1], np.arange(1, 9) / 8.0)


def test_flat_line_measurement_matches_1d_reference():
    spec = ScenarioSpec(kind="flat-line", n_scale=64, p=6.0)
    rep = run_cell(spec, small_sampler(seed=2, budget=8192))
    ref = flatline_l2_reference(64)
    assert rep.ratio_l2 == pytest.approx(ref, rel=4 * rep.ratio_rel_stderr + 0.02)


def test_predicted_exponent_table():
    from fractions import Fraction
    assert predicted_exponent("indicator", 6)[0] == Fraction(1, 3)
    assert predicted_exponent("indicator", 4)[0] == Fraction(1, 4)
    assert predicted_exponent("flat-line", 6, "l2")[0] == Fraction(1, 6)
    assert predicted_exponent("strip", 6)[0] == Fraction(2, 3)
    assert predicted_exponent("curve-bilinear", 6)[0] == Fraction(-1, 6)
    assert predicted_exponent("parabola-2d", 6, "l2")[0] == 0


def test_scenario_strip_geometry():
    spec = ScenarioSpec(kind="strip", k_squares=8)
    b = scenario(spec)
    assert len(b.squares) == 8
    assert all(sq.i == 0 for sq in b.squares)
    assert b.surface.coeffs == FLAT_LINE_COEFFS


def test_trivial_single_square_unit_ratio():
    f = AmplitudeField.constant(0)
    rep = measure_trivial(SURF, f, [DyadicSquare(0, 0, 0)], 6.0, small_sampler())
    assert rep.ratio_lp == pytest.approx(1.0, abs=1e-12)
    assert rep.meta["ratio_vs_trivial"] == pytest.approx(1.0, abs=1e-12)


def test_trivial_random_phase_below_bound():
    # decohered inputs sit well under the disjoint-support rate
    spec = ScenarioSpec(kind="strip", k_squares=8)
    b = scenario(spec)
    f = AmplitudeField.random_phase(3, seed=3, support=b.squares)
    rep = measure_trivial(b.surface, f, b.squares, 6.0, small_sampler(seed=8))
    assert rep.meta["ratio_vs_trivial"] <= 1.0 + 5.0 * rep.ratio_rel_stderr


def test_trivial_overlap_rejected():
    f = AmplitudeField.constant(2)
    with pytest.raises(OverlappingSquaresError):
        measure_trivial(SURF, f, [DyadicSquare(2, 0, 0), DyadicSquare(2, 0, 0)],
                        6.0, small_sampler())


def test_bilinear_point_mass_branch():
    # |E2| == 1 for a unit point mass, so the bilinear LHS is the L^p norm
    # of |E1|^{1/2}
    r1 = DyadicSquare(2, 0, 0)
    r2 = DyadicSquare(2, 3, 3)
    f1 = AmplitudeField.random_phase(2, seed=5, support=[r1])
    f2 = AmplitudeField.atomic([[0.9, 0.9]], [1.0])
    sampler = small_sampler(seed=9)
    rep = measure_bilinear(SURF, f1, r1, f2, r2, 16, 4.0, sampler, nu=0.25)

    from declab.fields import extension_evaluator
    from declab.norms import weighted_lp_norm
    ball = measurement_ball(4, 16)
    ev = extension_evaluator(SURF, f1.restrict(r1), 1.05 * ball.quantile_radius(1e-9))
    direct = weighted_lp_norm(lambda X: np.sqrt(np.abs(ev.total(X))), ball, 4.0, sampler)
    assert rep.lhs.value == pytest.approx(direct.value, rel=1e-12)


def test_bilinear_rejects_nontransverse():
    r1 = DyadicSquare(2, 0, 0)
    r2 = DyadicSquare(2, 0, 1)   # same column: min |dt ds| = 0
    f = AmplitudeField.constant(2)
    with pytest.raises(NonTransverseError) as err:
        measure_bilinear(SURF, f, r1, f, r2, 16, 4.0, small_sampler(), nu=0.25)
    assert err.value.min_form == 0.0


def test_bilinear_dominated_by_linear_factors():
    # Cauchy-Schwarz on shared samples: the bilinear ratio never exceeds
    # the geometric mean of the per-square linear ratios
    r1 = DyadicSquare(2, 0, 0)
    r2 = DyadicSquare(2, 3, 3)
    f1 = AmplitudeField.random_phase(2, seed=21, support=[r1])
    f2 = AmplitudeField.random_phase(2, seed=22, support=[r2])
    s = small_sampler(seed=23)
    bi = measure_bilinear(SURF, f1, r1, f2, r2, 16, 4.0, s, nu=0.25)
    lin1 = measure_linear(SURF, f1, 16, 4.0, s)
    lin2 = measure_linear(SURF, f2, 16, 4.0, s)
    bound = math.sqrt(lin1.ratio_lp * lin2.ratio_lp)
    slack = 5.0 * max(bi.ratio_rel_stderr, lin1.ratio_rel_stderr,
                      lin2.ratio_rel_stderr)
    assert bi.ratio_lp <= bound * (1.0 + slack)


def test_square_function_single_cap_matches_bilinear():
    r1 = DyadicSquare(2, 0, 0)
    r2 = DyadicSquare(2, 3, 3)
    f1 = AmplitudeField.random_phase(2, seed=1, support=[r1])
    f2 = AmplitudeField.random_phase(2, seed=2, support=[r2])
    s = small_sampler(seed=3)
    bi = measure_bilinear(SURF, f1, r1, f2, r2, 16, 4.0, s, nu=0.25)
    sq = measure_square_function(SURF, f1, r1, f2, r2, 16, 4.0, s, nu=0.25)
    assert sq.lhs.value == pytest.approx(bi.lhs.value, rel=1e-12)


def lp(v, q):
    return (v ** q).sum() ** (1.0 / q)


# one cell per measurement: run_cell on the spec, or for the square function
# measure_square_function on the bilinear pair; rhs_case writes out its rhs
RHS_CASES = {
    "linear": ScenarioSpec(kind="indicator", n_scale=16, p=6.0),
    "trivial": ScenarioSpec(kind="strip", k_squares=4, p=6.0),
    "bilinear": ScenarioSpec(kind="bilinear-pair", n_scale=16, p=4.0, nu=0.25, seed=5),
    "square-function": ScenarioSpec(kind="bilinear-pair", n_scale=16, p=4.0, nu=0.25,
                                    seed=5),
    "curve-bilinear": ScenarioSpec(kind="curve-bilinear", n_scale=64),
    "parabola-2d": ScenarioSpec(kind="parabola-2d", n_scale=16, p=6.0),
}


def rhs_case(name):
    """(report, rhs as a function of the per-cap norms)."""
    spec = RHS_CASES[name]
    sampler = small_sampler(seed=8)
    if name == "square-function":
        b = scenario(spec)
        rep = measure_square_function(b.surface, b.fields[0], b.squares[0], b.fields[1],
                                      b.squares[1], spec.n_scale, spec.p, sampler, nu=spec.nu)
    else:
        rep = run_cell(spec, sampler)
    if name in ("linear", "trivial", "parabola-2d"):
        return rep, lambda v: lp(v, spec.p)
    if name == "curve-bilinear":
        n1 = len(harness._curve_caps(spec.i1, spec.i2, rep.cap_level,
                                     harness.CURVE_MIN_DIST)[0])
        return rep, lambda v: math.sqrt(lp(v[:n1], 6) * lp(v[n1:], 6))
    b = scenario(spec)
    n1 = len(harness._support_caps(b.fields[0].restrict(b.squares[0]), rep.cap_level))
    if name == "bilinear":
        return rep, lambda v: math.sqrt(lp(v[:n1], spec.p) * lp(v[n1:], spec.p))
    return rep, lambda v: spec.n_scale ** (-4.0 / spec.p) * math.sqrt(lp(v[:n1], 2)
                                                                      * lp(v[n1:], 2))


@pytest.mark.parametrize("name", list(RHS_CASES))
def test_rhs_stderr_propagates_cap_errors(name):
    rep, rhs = rhs_case(name)
    v, s = np.array(rep.per_cap), np.array(rep.per_cap_stderr)
    assert len(v) > 1
    assert rhs(v) == pytest.approx(rep.rhs_lp, rel=1e-12)
    # delta method with a central-difference gradient
    grad = np.empty_like(v)
    for k in range(len(v)):
        h = 1e-6 * v[k]
        up, down = v.copy(), v.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (rhs(up) - rhs(down)) / (2 * h)
    assert np.all(s > 0) and rep.rhs_lp_stderr > 0
    assert rep.rhs_lp_stderr == pytest.approx(np.sqrt(((grad * s) ** 2).sum()), rel=1e-6)
    assert rep.ratio_rel_stderr > rep.lhs.rel_stderr


def test_linear_rejects_sup_exponent():
    with pytest.raises(ValueError, match="finite and >= 1, got inf"):
        measure_linear(SURF, AmplitudeField.constant(2), 16, np.inf, small_sampler())


def test_square_function_requires_p_at_least_four():
    r1, r2 = DyadicSquare(2, 0, 0), DyadicSquare(2, 3, 3)
    f = AmplitudeField.constant(2)
    with pytest.raises(ValueError):
        measure_square_function(SURF, f, r1, f, r2, 16, 2.0, small_sampler(), nu=0.25)


def test_parabola_single_cap_unit_ratio():
    # N = 4 gives cap level 1: two caps
    rep = parabola_reference(4, 6.0, small_sampler(seed=7))
    assert rep.caps_total == 2
    # N = 1 gives cap level 0: one cap, which is the whole curve
    rep1 = parabola_reference(1, 6.0, small_sampler(seed=7))
    assert rep1.ratio_l2 == pytest.approx(1.0, abs=1e-12)


def parabola_series(monkeypatch, n_scale):
    """The series function parabola_reference hands to weighted_norm_batch:
    X -> (E g, (caps, B) cap sums)."""
    seen = []

    def capture(series, ball, ps, sampler):
        seen.append(series)
        return orig(series, ball, ps, sampler)

    orig = harness.weighted_norm_batch
    monkeypatch.setattr(harness, "weighted_norm_batch", capture)
    parabola_reference(n_scale, 6.0, small_sampler(seed=1, budget=1024))
    return seen[0]


def parabola_lines(n_scale, node_factor=1):
    """Direct 1-D sums of the parabola's caps on the node ladder (node_factor
    times its nodes), one phase table per interval."""
    side = 2.0 ** -harness.cap_level_for(n_scale)
    intervals = [(k * side, (k + 1) * side) for k in range(round(1 / side))]

    def phase(t_nodes, x_batch):
        return np.outer(t_nodes, x_batch[:, 0]) + np.outer(t_nodes ** 2, x_batch[:, 1])

    x_max = harness._x_max(measurement_ball(2, n_scale))
    return LineEvaluator(intervals, None, phase, x_max, 3.0, node_factor), x_max


def chirp(t):
    return (1.0 + 0.5 * t) * np.exp(3j * t * t)


def test_parabola_default_and_refined_quadrature_agree(monkeypatch):
    # the benchmark's quadrature self-check on the N=256 cell
    series = parabola_series(monkeypatch, 256)
    fine, x_max = parabola_lines(256, node_factor=2)
    x = np.random.default_rng(67).uniform(-x_max, x_max, size=(64, 2))
    x[0] = [x_max, x_max]
    want = fine.total(x)
    assert np.abs(series(x)[0] - want).max() <= 1e-8 * np.abs(want).max()


def test_parabola_reference_does_not_sum_phase_tables(monkeypatch):
    def no_tables(*args):
        raise AssertionError("the parabola's caps go by the closed form")

    monkeypatch.setattr(fields_module, "_interval_sums", no_tables)
    rep = parabola_reference(64, 6.0, small_sampler(seed=7, budget=2048))
    assert np.isfinite(rep.ratio_l2)


def test_parabola_rejects_a_ball_of_another_dimension():
    with pytest.raises(ValueError, match="2-D ball"):
        parabola_reference(16, 6.0, small_sampler(), ball=measurement_ball(4, 16))


def test_curve_product_identity():
    # the lines against the tensor engine, with unit and non-constant amplitudes
    for h1, h2 in ((None, None), (chirp, lambda s: np.cos(5 * s) + 0.3j)):
        res = curve_product_identity_residual(moment_curve(), (0.0, 0.25), (0.75, 1.0),
                                              h1, h2, 16, n_points=40, seed=1)
        assert res < 1e-12


def test_curve_bilinear_rejects_close_intervals():
    with pytest.raises(ValueError):
        curve_bilinear(moment_curve(), (0.0, 0.5), (0.5, 1.0), None, None,
                       16, small_sampler())


def test_curve_bilinear_single_pair_direct_recomputation():
    s = small_sampler(seed=11)
    rep = curve_bilinear(moment_curve(), (0.0, 0.25), (0.75, 1.0), None, None,
                         16, s)
    # at N=16 each interval is one cap, so the RHS is the single-pair
    # geometric mean of sixth-power norms
    assert rep.caps_total == 2
    v1, v2 = rep.per_cap
    assert rep.rhs_lp == pytest.approx((v1 ** 6 * v2 ** 6) ** (1 / 12), rel=1e-12)


def test_fit_slope_recovers_synthetic():
    rng = np.random.default_rng(3)
    scales = [16, 64, 256, 1024]
    truth = 0.37
    ratios = [2.0 * n ** truth * math.exp(rng.normal(0, 0.01)) for n in scales]
    fit = fit_slope(scales, ratios, [0.01] * 4)
    assert fit.slope == pytest.approx(truth, abs=0.03)
    lo, hi = fit.ci95
    assert lo < truth < hi or abs(fit.slope - truth) < 0.03


def test_fit_slope_rejects_equal_scales():
    with pytest.raises(ValueError, match="two distinct scales"):
        fit_slope([8, 8, 8], [1.0, 1.1, 0.9])


def test_equal_scales_give_no_slope():
    # a strip's scale is K: three cells at one K are copies, not a series
    reports = [run_cell(ScenarioSpec(kind="strip", n_scale=n, k_squares=4, p=6.0),
                        small_sampler(budget=1024)) for n in (4.0, 16.0, 64.0)]
    assert {r.n_scale for r in reports} == {4.0}
    (series,), skipped = harness.slope_series(reports)
    assert series.fit is None and len(series.reports) == 3 and not skipped
    assert all("slope" not in s for s in emit_plotdata(reports)["series"])


def test_emit_plotdata_series_and_skips():
    reports = [run_cell(ScenarioSpec(kind="flat-line", n_scale=n, p=6.0),
                        small_sampler(budget=4096)) for n in (16.0, 64.0, 256.0)]
    data = emit_plotdata(reports)
    assert len(data["series"]) == 1
    entry = data["series"][0]
    assert len(entry["points"]) == 3
    assert "slope" in entry
    assert entry["ratio"] == "ratio_l2"

    # two scales give points but no fit
    short = emit_plotdata(reports[:2])["series"]
    assert len(short) == 1 and len(short[0]["points"]) == 2
    assert "slope" not in short[0]

    # flat-line is fitted on ratio_l2, so that is the ratio whose loss skips
    bad = reports[0]
    bad.ratio_l2 = float("inf")
    data2 = emit_plotdata([bad])
    assert data2["notes"] and not data2["series"]


def test_seed_coupling_stability():
    hits = 0
    trials = 12
    base = None
    reps = []
    for k in range(trials):
        rep = measure_linear(SURF, AmplitudeField.constant(2), 16, 6.0,
                             small_sampler(seed=500 + k, budget=2048))
        reps.append(rep)
    for a, b in zip(reps, reps[1:]):
        tol = 3.0 * math.hypot(a.ratio_rel_stderr * a.ratio_lp,
                               b.ratio_rel_stderr * b.ratio_lp)
        if abs(a.ratio_lp - b.ratio_lp) <= tol:
            hits += 1
    assert hits >= trials - 2


def test_proposal_independence_of_linear_ratio():
    # ball-weight sampling and the defensive mixture are independent
    # unbiased estimators of the same weighted integrals; the per-cap
    # aggregates are spread integrands where both are reliable, while the
    # concentrated left-hand side is exactly where the plain ball proposal
    # has heavy-tailed noise (hence the loose comparison)
    f = AmplitudeField.constant(2)
    a = measure_linear(SURF, f, 16, 6.0,
                       Sampler(budget=32768, seed=71, proposal="mixture"))
    b = measure_linear(SURF, f, 16, 6.0,
                       Sampler(budget=32768, seed=72, proposal="ball"))
    rhs_tol = 5.0 * math.hypot(a.rhs_lp_stderr, b.rhs_lp_stderr)
    assert abs(a.rhs_lp - b.rhs_lp) <= max(rhs_tol, 1e-3 * a.rhs_lp)
    assert abs(a.lhs.value - b.lhs.value) <= 0.25 * a.lhs.value


def test_engine_paths_agree_at_measurement_scale():
    # the separable fast path and the general tensor quadrature must give
    # the same measurement when fed the same amplitude
    const = AmplitudeField.constant(2)
    tensor = AmplitudeField.from_function(
        2, lambda t, s: np.ones_like(t, dtype=complex))
    s = small_sampler(seed=81)
    a = measure_linear(SURF, const, 16, 6.0, s)
    b = measure_linear(SURF, tensor, 16, 6.0, s)
    assert b.ratio_lp == pytest.approx(a.ratio_lp, rel=1e-9)
    assert b.lhs.value == pytest.approx(a.lhs.value, rel=1e-9)


def test_run_cell_dispatch_all_kinds():
    for kind, kwargs in (("indicator", {}), ("random-phase", {}),
                         ("flat-line", {}), ("strip", {"k_squares": 4}),
                         ("bilinear-pair", {"nu": 0.25, "p": 4.0}),
                         ("curve-bilinear", {}), ("parabola-2d", {})):
        spec = ScenarioSpec(kind=kind, n_scale=16, **kwargs)
        rep = run_cell(spec, small_sampler(seed=13, budget=2048))
        assert isinstance(rep, DecouplingReport)
        assert rep.kind == kind
        assert np.isfinite(rep.ratio_lp)


def without_runtime(rep):
    row = rep.to_row()
    del row["runtime_ms"]
    return row


@pytest.mark.parametrize("kind", harness.SCENARIO_KINDS)
def test_run_cell_default_ball_is_the_spec_ball(kind):
    # the ball a caller builds from the spec is the one the measurement
    # builds when given none
    spec = ScenarioSpec(kind=kind, n_scale=16, k_squares=4)
    default = run_cell(spec, small_sampler(seed=21, budget=1024))
    given = run_cell(spec, small_sampler(seed=21, budget=1024), ball=spec.ball())
    assert without_runtime(given) == without_runtime(default)


def test_spec_ball_per_kind():
    assert ScenarioSpec(kind="parabola-2d", n_scale=64).ball() == measurement_ball(2, 64.0)
    assert ScenarioSpec(kind="strip", n_scale=64, k_squares=8).ball() == measurement_ball(4, 8.0)
    assert ScenarioSpec(kind="indicator", n_scale=64).ball(
        (1, 0, 0, 0), decay=50.0, trunc=2.0, shape="strict") == measurement_ball(
        4, 64.0, decay=50.0, trunc=2.0, center=(1, 0, 0, 0), shape="strict")
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        ScenarioSpec(kind="parabola-2d").ball((0, 0, 0, 0))


def test_run_cell_field_override_is_the_linear_measurement():
    spec = ScenarioSpec(kind="indicator", n_scale=16)
    field = AmplitudeField.random_phase(cap_level_for(16), 3)
    rep = run_cell(spec, small_sampler(seed=22), field=field)
    want = measure_linear(SURF, field, 16, 6.0, small_sampler(seed=22))
    want.kind = "indicator"
    assert without_runtime(rep) == without_runtime(want)
    assert rep.per_cap == want.per_cap
    # a customised cell measures another input than its kind names
    assert rep.meta == {"customized": ["field"]}


@pytest.mark.parametrize("kind", sorted(set(harness.SCENARIO_KINDS) - set(harness.LINEAR_KINDS)))
def test_run_cell_override_on_a_nonlinear_kind_rejected(kind):
    spec = ScenarioSpec(kind=kind, n_scale=16, k_squares=4)
    with pytest.raises(ValueError, match="overrides apply to the linear"):
        run_cell(spec, small_sampler(), surface=SURF)


def materialised(blocks):
    """The (caps, B) table of `_CapGroups.cap_rows`' row blocks."""
    return np.concatenate([b.dense() if isinstance(b, OuterBlock) else b for b in blocks])


def test_cap_groups_match_scatter_add_bit_for_bit():
    # 16 cells per cap over three caps and one cap without cells: the gather
    # must give np.add.at's sums exactly, and zeros for the empty cap
    cells = [c for c in CapPartition.full(3) if c.i < 4 or c.j < 4]
    field = AmplitudeField.random_phase(3, seed=4, support=cells)
    caps = list(CapPartition.full(1))
    ev = extension_evaluator(SURF, field, 6.0)
    groups = _CapGroups(ev, caps)
    x = np.random.default_rng(8).uniform(-6.0, 6.0, size=(64, 4))
    want = np.zeros((len(caps), len(x)), dtype=complex)
    np.add.at(want, groups.index, ev.cell_values(x))
    got = groups.dense_rows(x)
    np.testing.assert_array_equal(got, want)
    empty = [k for k, c in enumerate(caps) if (c.i, c.j) == (1, 1)]
    assert np.all(got[empty] == 0)
    # the rank-one path computes these caps' dense rows from the factors
    np.testing.assert_array_equal(materialised(groups.cap_rows(x)), want)


def test_default_and_refined_quadrature_agree_off_origin():
    # the quadrature must be resolved for samples around the ball's center,
    # not only for |x| up to the radius
    ball = measurement_ball(4, 16, center=(200.0, 0.0, 200.0, 0.0))
    field = AmplitudeField.constant(2)
    base = measure_linear(SURF, field, 16, 6.0, small_sampler(seed=3, budget=2048), ball=ball)
    fine = measure_linear(SURF, field.refine(4), 16, 6.0, small_sampler(seed=3, budget=2048),
                          ball=ball)
    assert base.ratio_lp == pytest.approx(fine.ratio_lp, rel=1e-9)
    assert base.lhs.value == pytest.approx(fine.lhs.value, rel=1e-9)


@pytest.mark.parametrize("zero", ["atomic", "continuous"])
def test_trivial_zero_field_rejected(zero):
    # the flat-line atoms restricted to a square they miss, and a constant
    # field with no cells: both used to raise IndexError while grouping
    if zero == "atomic":
        bundle = scenario(ScenarioSpec(kind="flat-line", n_scale=64))
        surface, field = bundle.surface, bundle.fields[0].restrict(DyadicSquare(1, 1, 1))
    else:
        surface, field = SURF, AmplitudeField.constant(1, support=[])
    with pytest.raises(AllCapsEmptyError):
        measure_trivial(surface, field, [DyadicSquare(1, 0, 0), DyadicSquare(1, 1, 1)],
                        6.0, small_sampler())


THREE_IN_ONE = np.array([[0.1, 0.1], [0.12, 0.11], [0.13, 0.2], [0.6, 0.7], [0.9, 0.1]])


def cap_case(name):
    """(evaluator, caps, ball) of one case."""
    flat = quad_surface(FLAT_LINE_COEFFS)
    n_scale = 16.0
    if name.startswith("flat-line-"):
        n_scale = float(name.split("-")[-1])
        field = scenario(ScenarioSpec(kind="flat-line", n_scale=n_scale)).fields[0]
        surface, caps = flat, harness._support_caps(field, cap_level_for(n_scale))
    elif name == "three-atoms-one-cap":
        field = AmplitudeField.atomic(THREE_IN_ONE, np.arange(1, 6) * (1 + 0.5j))
        surface, caps = flat, harness._support_caps(field, 2)
    elif name == "unsorted-atoms":
        field = AmplitudeField.atomic(THREE_IN_ONE[::-1].copy(), np.arange(1, 6) * (1 - 0.5j))
        surface, caps = flat, harness._support_caps(field, 2)
    elif name == "empty-cap":
        # atoms in cap order, but the last cap holds none
        field = scenario(ScenarioSpec(kind="flat-line", n_scale=64)).fields[0]
        caps = [DyadicSquare(1, 0, 0), DyadicSquare(1, 0, 1), DyadicSquare(1, 1, 0)]
        surface = flat
    elif name == "strip":
        bundle = scenario(ScenarioSpec(kind="strip", k_squares=8))
        surface, field, caps = bundle.surface, bundle.fields[0], bundle.squares
        n_scale = 8.0
    else:
        n_scale = 64.0
        field = scenario(ScenarioSpec(kind="indicator", n_scale=n_scale)).fields[0]
        surface, caps = SURF, harness._support_caps(field, cap_level_for(n_scale))
    ball = measurement_ball(4, n_scale)
    return extension_evaluator(surface, field, harness._x_max(ball)), caps, ball


@pytest.mark.parametrize("name", ["flat-line-64", "flat-line-1024", "flat-line-16384",
                                  "flat-line-100", "three-atoms-one-cap",
                                  "unsorted-atoms", "empty-cap", "strip", "indicator"])
def test_cap_fold_matches_gather_bit_for_bit(name):
    # E g and the cap rows handed to weighted_norm_batch against np.add.at
    # of the cell values into a (caps, B) table of zeros, byte for byte
    ev, caps, ball = cap_case(name)
    groups = _CapGroups(ev, caps)
    if name == "flat-line-100":
        assert ev._split is None          # the direct atomic path
    x, _ = _MixtureProposal(ball, defensive=True).sample(3, 0, 1000)
    want = np.zeros((len(caps), len(x)), dtype=complex)
    np.add.at(want, groups.index, ev.cell_values(x))
    got = groups.dense_rows(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert harness._total(got).tobytes() == harness._total(want).tobytes()
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def factored_case(name):
    """(measure, its kind's surface or None) of one rank-one case: measure()
    runs the measurement and returns its report."""
    sampler = small_sampler(seed=21, budget=5000)
    if name.startswith(("indicator-", "flat-line-")):
        kind, n = name.rsplit("-", 1)
        return lambda: run_cell(ScenarioSpec(kind=kind, n_scale=float(n)), sampler)
    if name == "random-phase":
        return lambda: run_cell(ScenarioSpec(kind="random-phase", n_scale=256.0), sampler)
    if name == "three-atoms-one-cap":
        # progression atoms (0, k/8) with complex amplitudes: caps of 1, 2, 2
        # and 3 atoms at level 2, so the blocks are a factored run and dense rows
        pts = np.column_stack([np.zeros(8), np.arange(1, 9) / 8])
        field = AmplitudeField.atomic(pts, np.exp(0.9j * np.arange(8)) * np.arange(2, 10))
        surface = quad_surface(FLAT_LINE_COEFFS)
        return lambda: measure_linear(surface, field, 16.0, 6.0, sampler, cap_level=2)
    bundle = scenario(ScenarioSpec(kind="bilinear-pair", n_scale=64.0, nu=0.25))
    # the pair's supports are partial grids of cells
    measure = measure_bilinear if name == "bilinear-pair" else measure_square_function
    return lambda: measure(bundle.surface, bundle.fields[0], bundle.squares[0],
                           bundle.fields[1], bundle.squares[1], 64.0, 6.0, sampler, 0.25)


@pytest.mark.parametrize("name", ["indicator-64", "indicator-1024", "random-phase",
                                  "bilinear-pair", "square-function", "flat-line-64",
                                  "flat-line-1024", "flat-line-16384",
                                  "three-atoms-one-cap"])
def test_factored_cap_norms_match_dense_rows(name, monkeypatch):
    # the factored blocks against the same measurement on dense cap rows
    measure = factored_case(name)
    got = measure()
    monkeypatch.setattr(_CapGroups, "cap_rows", lambda self, x: [self.dense_rows(x)])
    want = measure()
    assert got.lhs.value == pytest.approx(want.lhs.value, rel=1e-12, abs=0)
    assert got.lhs.stderr == pytest.approx(want.lhs.stderr, rel=1e-12, abs=0)
    np.testing.assert_allclose(got.per_cap, want.per_cap, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.per_cap_stderr, want.per_cap_stderr, rtol=1e-12, atol=0)
    assert got.ratio_lp == pytest.approx(want.ratio_lp, rel=1e-12, abs=0)


def test_factored_caps_take_outer_blocks():
    # indicator caps are single cells; flat-line's last cap holds two atoms
    for kind, n, dense in (("indicator", 64.0, []), ("flat-line", 1024.0, [1])):
        bundle = scenario(ScenarioSpec(kind=kind, n_scale=n))
        caps = harness._support_caps(bundle.fields[0], cap_level_for(n))
        ev = extension_evaluator(bundle.surface, bundle.fields[0], 8.0)
        blocks = _CapGroups(ev, caps).cap_rows(np.ones((4, 4)))
        assert isinstance(blocks[0], OuterBlock) and len(blocks[0]) == len(caps) - len(dense)
        assert [len(b) for b in blocks[1:]] == dense
