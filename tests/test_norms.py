import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab.fields import AmplitudeField, extension_evaluator
from declab.geometry import random_admissible, quad_surface
from declab.grid import cap_level_for
from declab.harness import ScenarioSpec, run_cell
from declab.norms import (BallSpec, OuterBlock, PoisonedEstimateError, Sampler,
                          _MixtureProposal, sphere_area, weight_mass,
                          weighted_lp_norm, weighted_norm_batch)


def _plateau_beyond(d, e, c):
    """int_c^inf u^{d-1-e} du for c >= 1 by mpmath.quad, after u = c/s maps
    it onto a smooth integrand on [0, 1] (peaked at s = 1 for large e)."""
    pts = [s for s in (1 - 8 / e, 1 - 2 / e) if s > 0]
    return c ** (d - e) * mp.quad(lambda s: s ** (e - d - 1), [0, *pts, 1])


@mp.workdps(40)
def reference_integrals(d: int, decay: float, trunc: float, shape: str):
    """(radial mass, tail fraction) in 40-digit arithmetic: the strict shape
    by mpmath.betainc, the plateau shape by mpmath.quad."""
    e, t = mp.mpf(decay), mp.mpf(trunc)
    if shape == "strict":
        return (mp.betainc(d, e - d, 0, t / (1 + t)),
                mp.betainc(e - d, d, 0, 1 / (1 + t), regularized=True))
    total = mp.mpf(1) / d + _plateau_beyond(d, e, 1)
    if t <= 1:
        mass = mp.quad(lambda u: u ** (d - 1), [0, t])
        return mass, (mp.quad(lambda u: u ** (d - 1), [t, 1]) + _plateau_beyond(d, e, 1)) / total
    beyond = _plateau_beyond(d, e, t)
    return mp.mpf(1) / d + _plateau_beyond(d, e, 1) - beyond, beyond / total


@mp.workdps(40)
def reference_mass(ball: BallSpec) -> float:
    """weight_mass by `reference_integrals`."""
    d = ball.dim
    radial, _ = reference_integrals(d, ball.decay, ball.trunc, ball.shape)
    return float(2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
                 * mp.mpf(ball.radius) ** d * radial)


@pytest.mark.parametrize("shape", ["strict", "plateau"])
def test_weight_mass_matches_closed_form(shape):
    for dim, radius in ((4, 1.0), (4, 16.0), (2, 5.0)):
        ball = BallSpec.at_origin(dim, radius, shape=shape)
        assert weight_mass(ball) == pytest.approx(reference_mass(ball), rel=1e-13, abs=0)


def _rel_err(got: float, want) -> float:
    """Relative error, with a true value below the smallest normal double
    met exactly by 0."""
    if got == 0.0 and want < sys.float_info.min:
        return 0.0
    return float(abs(mp.mpf(got) - want) / want)


@pytest.mark.parametrize("shape", ["strict", "plateau"])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("decay", ["d+0.5", 12.0, 100.0, 400.0])
def test_radial_integrals_match_mpmath(shape, dim, decay):
    # quad was off by -21.5% on the strict mass at (4, 400, 4); the strict
    # tail at (4, 400, 10) is about 1e-412, which underflows to 0
    e = dim + 0.5 if decay == "d+0.5" else decay
    for t in (0.01, 0.5, 1.0, 4.0, 10.0):
        ball = BallSpec.at_origin(dim, 1.0, decay=e, trunc=t, shape=shape)
        _, tail = reference_integrals(dim, e, t, shape)
        assert _rel_err(weight_mass(ball), reference_mass(ball)) <= 1e-13, (t, "mass")
        assert _rel_err(ball.truncation_tail_fraction(), tail) <= 1e-13, (t, "tail")


def test_weight_mass_dilation_scaling():
    z1 = weight_mass(BallSpec.at_origin(4, 1.0))
    for r in (2.0, 8.0, 64.0):
        zr = weight_mass(BallSpec.at_origin(4, r))
        assert zr == pytest.approx(r ** 4 * z1, rel=1e-10)


def test_weight_mass_monotone_in_decay():
    vals = [weight_mass(BallSpec.at_origin(4, 1.0, decay=e))
            for e in (10, 30, 100, 300)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_weight_mass_rejects_low_decay():
    with pytest.raises(ValueError):
        weight_mass(BallSpec.at_origin(4, 1.0, decay=4.0))


@pytest.mark.parametrize("dim, decay", [(4, 4.0), (4, 3.5), (2, 2.0), (2, -1.0)])
def test_ball_rejects_decay_at_or_below_dimension(dim, decay):
    # the ball checks it when built, before any weight mass is computed
    with pytest.raises(ValueError, match="decay exponent must exceed the dimension"):
        BallSpec.at_origin(dim, 1.0, decay=decay)


def test_truncation_tail_recorded_and_negligible():
    ball = BallSpec.at_origin(4, 8.0)
    est = weighted_lp_norm(lambda X: np.ones(X.shape[0]), ball, 6.0,
                           Sampler(budget=1500, seed=2))
    assert est.truncation_tail is not None
    # (1+T)^{dim-decay} scale (up to the mass normalization): utterly
    # negligible at decay 100
    assert est.truncation_tail < 1e-61
    # a loose decay makes the recorded tail visible
    loose = BallSpec.at_origin(4, 8.0, decay=6.0)
    assert loose.truncation_tail_fraction() > 1e-3


def test_weight_mass_monte_carlo_oracle():
    ball = BallSpec.at_origin(4, 1.0)
    z = weight_mass(ball)
    rng = np.random.default_rng(123)
    n = 400_000
    # radius-uniform importance sampling (volume-uniform draws cannot see
    # the sharply decaying weight)
    r = ball.trunc * rng.random(n)
    vals = sphere_area(4) * ball.trunc * r ** 3 * ball.radial_weight(r)
    mc = vals.mean()
    se = vals.std() / math.sqrt(n)
    assert se / z < 0.02
    assert abs(mc - z) < 3 * se


def test_constant_integrand_exact():
    ball = BallSpec.at_origin(4, 8.0)
    est = weighted_lp_norm(lambda X: np.ones(X.shape[0]), ball, 6.0,
                           Sampler(budget=2000, seed=5, proposal="ball"))
    assert est.value == pytest.approx(weight_mass(ball) ** (1 / 6), rel=1e-12)
    assert est.stderr < 1e-9 * est.value


def test_zero_integrand():
    ball = BallSpec.at_origin(4, 4.0)
    est = weighted_lp_norm(lambda X: np.zeros(X.shape[0]), ball, 6.0,
                           Sampler(budget=1500, seed=1))
    assert est.value == 0.0


def test_plane_wave_matches_constant():
    ball = BallSpec.at_origin(4, 4.0)
    s = Sampler(budget=3000, seed=9)
    const = weighted_lp_norm(lambda X: np.ones(X.shape[0]), ball, 4.0, s)
    wave = weighted_lp_norm(lambda X: np.exp(2j * np.pi * (X @ np.array([1., 2., -1., 0.5]))),
                            ball, 4.0, s)
    assert wave.value == pytest.approx(const.value, rel=1e-12)


def test_batch_of_one_bit_identical():
    ball = BallSpec.at_origin(4, 4.0)
    s = Sampler(budget=2000, seed=11)

    def f(X):
        return 1.0 / (1.0 + (X ** 2).sum(axis=1))

    single = weighted_lp_norm(f, ball, 6.0, s)
    batch = weighted_norm_batch(lambda X: f(X)[None, :], ball, [6.0], s)[0]
    assert single.value == batch.value
    assert single.stderr == batch.stderr


def test_determinism_same_seed():
    ball = BallSpec.at_origin(4, 16.0)
    s = Sampler(budget=4096, seed=21)

    def f(X):
        return np.cos(X.sum(axis=1)) + 1.5

    a = weighted_lp_norm(f, ball, 6.0, s)
    b = weighted_lp_norm(f, ball, 6.0, s)
    assert a.value == b.value and a.stderr == b.stderr


def test_budget_doubling_consistency():
    ball = BallSpec.at_origin(4, 8.0)

    def f(X):
        r2 = (X ** 2).sum(axis=1)
        return 1.0 / (1.0 + 0.3 * r2) + 0.2 * np.sin(X[:, 0])

    hits = 0
    trials = 100
    for k in range(trials):
        a = weighted_lp_norm(f, ball, 6.0, Sampler(budget=1024, seed=1000 + k))
        b = weighted_lp_norm(f, ball, 6.0, Sampler(budget=2048, seed=1000 + k))
        if abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr):
            hits += 1
    assert hits >= 95


def test_jensen_monotonicity_in_p():
    ball = BallSpec.at_origin(4, 4.0)
    s = Sampler(budget=4096, seed=31, proposal="ball")

    def f(X):
        return np.abs(np.cos(X[:, 0]) + 0.5 * np.sin(X[:, 1] * 2)) + 0.05

    z = weight_mass(ball)
    vals = [weighted_lp_norm(f, ball, p, s).value / z ** (1 / p)
            for p in (2.0, 3.0, 4.0, 6.0)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("ps, bad", [([np.inf], "inf"), ([2.0, 6.0, np.inf, 0.5], "inf"),
                                     ([6.0, np.nan], "nan"), ([2.0, 0.5, np.inf], "0.5")],
                         ids=["inf", "inf-among-finite", "nan", "below-one-first"])
def test_exponent_must_be_finite_and_at_least_one(ps, bad):
    # the message names the first bad exponent, and no sample is drawn
    calls = []

    def series(X):
        calls.append(len(X))
        return np.ones((len(ps), X.shape[0]))

    with pytest.raises(ValueError, match=f"finite and >= 1, got {bad}$"):
        weighted_norm_batch(series, BallSpec.at_origin(4, 4.0), ps,
                            Sampler(budget=1500, seed=3))
    assert calls == []


def test_single_norm_rejects_sup_exponent():
    with pytest.raises(ValueError, match="finite and >= 1, got inf"):
        weighted_lp_norm(lambda X: np.ones(X.shape[0]), BallSpec.at_origin(4, 4.0), np.inf,
                         Sampler(budget=1500, seed=3))


@pytest.mark.parametrize("kw, match", [
    ({"strategy": "lattice"}, "strategy must be 'mc', got 'lattice'"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["strategy=lattice", "seed=-1"])
def test_sampler_error_names_the_value(kw, match):
    with pytest.raises(ValueError, match=match):
        Sampler(**kw)


@pytest.mark.parametrize("strategy", ["mc"])
@pytest.mark.parametrize("ps", [[2.0, 2.0], [2.0, 2.0, 2.0, 2.0]], ids=["two", "four"])
def test_exponent_count_must_match_series(strategy, ps):
    # three series: two exponents would drop one, four would index past them
    ball = BallSpec.at_origin(2, 2.0, shape="plateau")
    with pytest.raises(ValueError, match="one exponent per series required"):
        weighted_norm_batch(lambda X: np.ones((3, X.shape[0])), ball, ps,
                            Sampler(budget=1024, seed=0, strategy=strategy))


def test_poisoned_estimate_carries_point():
    ball = BallSpec.at_origin(4, 4.0)

    def bad(X):
        out = np.ones(X.shape[0])
        out[X[:, 0] > 0] = np.nan
        return out

    with pytest.raises(PoisonedEstimateError) as err:
        weighted_lp_norm(bad, ball, 2.0, Sampler(budget=2000, seed=7))
    assert err.value.x.shape == (4,)


def test_l2_almost_orthogonality_at_dual_scale():
    rng = np.random.default_rng(41)
    for n_scale in (16, 64):
        m = cap_level_for(n_scale)
        coeffs = random_admissible(rng, scale=0.8)
        surf = quad_surface(coeffs)
        f = AmplitudeField.random_phase(m, seed=int(rng.integers(2 ** 31)))
        ball = BallSpec.at_origin(4, math.sqrt(n_scale), shape="plateau")
        ev = extension_evaluator(surf, f, 1.05 * ball.quantile_radius(1e-9))

        def series(x_batch):
            vals = ev.cell_values(x_batch)
            return np.vstack([vals.sum(axis=0)[None, :], vals])

        n_caps = ev.n_cells
        ests = weighted_norm_batch(series, ball, [2.0] * (n_caps + 1),
                                   Sampler(budget=4096, seed=17))
        total = ests[0].value
        rss = math.sqrt(sum(e.value ** 2 for e in ests[1:]))
        assert rss / 2.0 <= total <= 2.0 * rss


# -- blocked accumulation -----------------------------------------------------

# 31 series: with 4096-point chunks, blocks of 8 rows with p = 6, p = 3 and
# p = 7.5 throughout, then one mixed block of 7
MIXED_PS = [6.0] * 8 + [3.0] * 8 + [7.5] * 8 + [1.0, 2.0, 3.0, 6.0, 7.5, 4.5, 1.5]


def smooth_rows(X, count):
    """(count, B) complex values with moduli that vary across series and
    points."""
    k = np.arange(count)[:, None]
    r = np.linalg.norm(X, axis=1)
    return (1.0 + 0.05 * k) / (1.0 + 0.01 * r) * (1.2 + np.cos(0.3 * k + X[:, 0])) \
        * np.exp(1j * (k * X[:, 1] - X[:, 2]))


def smooth_series(X):
    """(31, B): one row per exponent of MIXED_PS."""
    return smooth_rows(X, len(MIXED_PS))


def power_reference(evaluator, ball, ps, sampler):
    """Value and stderr per series, from np.power over whole chunks."""
    prop = _MixtureProposal(ball, defensive=(sampler.proposal == "mixture"))
    s1 = s2 = 0.0
    tot = k = 0
    while tot < sampler.budget:
        n = min(sampler.chunk, sampler.budget - tot)
        x, iw = prop.sample(sampler.seed, k, n)
        vals = np.abs(evaluator(x)) ** ps[:, None] * iw
        s1 = s1 + vals.sum(axis=1)
        s2 = s2 + (vals * vals).sum(axis=1)
        tot += n
        k += 1
    integral = s1 / tot
    value = integral ** (1.0 / ps)
    var = np.maximum(s2 / tot - integral ** 2, 0.0) / tot
    return value, np.sqrt(var) * value / (ps * integral)


def assert_matches_power_reference(evaluator, ball, ps, sampler):
    ests = weighted_norm_batch(evaluator, ball, ps, sampler)
    value, stderr = power_reference(evaluator, ball, np.array(ps), sampler)
    for i in range(len(ps)):
        assert ests[i].value == pytest.approx(value[i], rel=1e-14, abs=0)
        assert ests[i].stderr == pytest.approx(stderr[i], rel=1e-12, abs=0)


@pytest.mark.parametrize("sampler", [Sampler(budget=3 * 4096 + 1000, seed=83),
                                     Sampler(budget=2500, seed=89, chunk=1000)],
                         ids=["chunk=4096", "chunk=1000"])
def test_blocked_accumulation_matches_power_reference(sampler):
    # the budgets end on a short chunk
    assert_matches_power_reference(smooth_series, BallSpec.at_origin(4, 16.0), MIXED_PS,
                                   sampler)


# 300 series: 2^18 // 300 = 873 values per row fit the evaluator's table, so
# each 4096-point chunk goes to the evaluator in sub-batches of 512 points;
# blocks of 64 rows with p = 6, 3 and 7.5, then mixed blocks
WIDE_PS = [6.0] * 96 + [3.0] * 96 + [7.5] * 94 + [1.0, 2.0, 3.0, 6.0, 7.5, 4.5, 1.5] * 2
WIDE_BATCH = 512


def test_sub_batched_accumulation_matches_power_reference():
    # the budget ends on a short chunk of one full sub-batch and a short one
    calls = []

    def wide(X):
        calls.append(len(X))
        return smooth_rows(X, len(WIDE_PS))

    sampler = Sampler(budget=2 * 4096 + 700, seed=109)
    assert_matches_power_reference(wide, BallSpec.at_origin(4, 16.0), WIDE_PS, sampler)
    assert calls[:18] == [WIDE_BATCH] * 17 + [700 - WIDE_BATCH]


def test_poisoned_value_named_within_its_sub_batch():
    # non-finite values in the second sub-batch of chunk 1: the error names
    # the first in (series, sample) order, at that sub-batch's own point
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=3 * 4096, seed=113)
    x1, _ = _MixtureProposal(ball, defensive=True).sample(113, 1, 4096)
    targets = [(250, WIDE_BATCH + 10, np.nan), (40, WIDE_BATCH + 400, np.inf),
               (40, WIDE_BATCH + 450, np.nan)]

    def poisoned(X):
        vals = smooth_rows(X, len(WIDE_PS))
        for series, i, bad in targets:
            at = np.flatnonzero((X == x1[i]).all(axis=1))
            vals[series, at] = bad
        return vals

    with pytest.raises(PoisonedEstimateError) as err:
        weighted_norm_batch(poisoned, ball, WIDE_PS, sampler)
    assert err.value.series == 40
    assert np.array_equal(err.value.x, x1[WIDE_BATCH + 400])


def test_poisoned_value_named_in_series_order():
    # non-finite values in the blocks of rows 0-7 and 8-15: the error names
    # the first in (series, sample) order
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=4096, seed=97)
    x, _ = _MixtureProposal(ball, defensive=True).sample(97, 0, 4096)

    def poisoned(X):
        vals = smooth_series(X)
        vals[10, 0] = np.nan
        vals[2, 100] = np.inf
        vals[2, 3000] = np.nan
        return vals

    with pytest.raises(PoisonedEstimateError) as err:
        weighted_norm_batch(poisoned, ball, MIXED_PS, sampler)
    assert err.value.series == 2
    assert np.array_equal(err.value.x, x[100])


def test_evaluator_array_is_left_unchanged():
    # the evaluator returns views of one persistent array
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=2 * 4096 + 1000, seed=101)
    store = smooth_series(np.random.default_rng(103).standard_normal((4096, 4)))
    before = store.copy()
    weighted_norm_batch(lambda X: store[:, :len(X)], ball, MIXED_PS, sampler)
    assert np.array_equal(store, before)


def test_accumulation_memory_stays_within_one_block():
    # Bound fixed beforehand: two scratch tables of a block (8 rows of 4096
    # floats each, 0.5 MB together) plus 1.5 MB for one proposal chunk of
    # 4096 points.  A (129, 4096) table of |F| is 4.2 MB by itself.
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=3 * 4096, seed=107)
    store = np.ones((129, 4096), dtype=complex)
    weighted_norm_batch(lambda X: store[:, :len(X)], ball, [6.0] * 129, sampler)
    tracemalloc.start()
    try:
        weighted_norm_batch(lambda X: store[:, :len(X)], ball, [6.0] * 129, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


# Bound fixed beforehand for an evaluator of 1025 series (4^5 caps and their
# sum): one table of 16 B x max(2^18, 256 x 1025) values, 4.0 MB, the two
# accumulator scratch tables of 2^15 floats, 0.5 MB, and 1.5 MB for one
# proposal chunk of 4096 points.  One (1025, 4096) complex table alone is
# 64 MB.
SUB_BATCH_BOUND = 16 * max(2 ** 18, 256 * 1025) + 2 * 8 * 2 ** 15 + 3 * 2 ** 19


def test_series_tables_stay_within_one_sub_batch():
    # the evaluator allocates a fresh table per call
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=3 * 4096, seed=127)

    def fresh(X):
        return np.full((1025, len(X)), 1.5 + 0.5j)

    weighted_norm_batch(fresh, ball, [6.0] * 1025, sampler)
    tracemalloc.start()
    try:
        weighted_norm_batch(fresh, ball, [6.0] * 1025, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SUB_BATCH_BOUND


def test_indicator_cell_memory_stays_within_one_sub_batch():
    # indicator N=1024 has 1024 caps, one cell each; they are summed on
    # their factor tables, so no more than one sub-batch's table is live
    spec = ScenarioSpec(kind="indicator", n_scale=1024.0, p=6.0)
    sampler = Sampler(budget=4096, seed=131)
    run_cell(spec, sampler)
    tracemalloc.start()
    try:
        rep = run_cell(spec, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.caps_total == 1024
    assert peak < SUB_BATCH_BOUND


# -- factored (rank-one) series ----------------------------------------------

# 13 rank-one series over 4 x 5 factor rows, with complex coefficients, after
# one dense row: series 1 + k is COEFFS[k] left[ROWS[k]] right[COLS[k]]
ROWS = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 0, 2, 3])
COLS = np.array([0, 4, 1, 2, 3, 0, 4, 1, 2, 4, 2, 2, 0])
COEFFS = np.exp(0.7j * np.arange(13)) * (1.0 + 0.1 * np.arange(13))
OUTER_PS = [6.0] + [6.0] * 8 + [3.0] * 3 + [7.5] * 2


def outer_series(X, scale=1.0, poison=None):
    """[a dense row, an OuterBlock of 13 series]; scale multiplies the left
    factor and divides the right one, poison = (row, sample) plants a NaN
    in the left factor."""
    rows = smooth_rows(X, 10)
    left, right = rows[1:5] * scale, rows[5:] / scale
    if poison is not None:
        left[poison[0], poison[1]] = np.nan
    return [rows[0], OuterBlock(left, right, ROWS, COLS, COEFFS)]


def densely(evaluator):
    """The same series with every OuterBlock materialised."""
    return lambda X: [b.dense() if isinstance(b, OuterBlock) else b for b in evaluator(X)]


def test_outer_block_matches_its_dense_rows():
    # the factored sums against the same series summed densely: mixed
    # exponents, non-unit coefficients, and budgets ending on a short chunk
    ball = BallSpec.at_origin(4, 16.0)
    for sampler in (Sampler(budget=2 * 4096 + 700, seed=139),
                    Sampler(budget=2500, seed=149, chunk=1000)):
        got = weighted_norm_batch(outer_series, ball, OUTER_PS, sampler)
        want = weighted_norm_batch(densely(outer_series), ball, OUTER_PS, sampler)
        for g, w in zip(got, want):
            assert g.value == pytest.approx(w.value, rel=1e-12, abs=0)
            assert g.stderr == pytest.approx(w.stderr, rel=1e-12, abs=0)


def test_outer_block_poison_named_as_dense():
    # a NaN in one left-factor entry of chunk 1 poisons every series on that
    # row; the error names the first (series, sample), as the dense path does
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=3 * 4096, seed=151)
    x1, _ = _MixtureProposal(ball, defensive=True).sample(151, 1, 4096)

    def poisoned(X):
        at = np.flatnonzero((X == x1[777]).all(axis=1))
        return outer_series(X, poison=(1, at) if len(at) else None)

    errors = []
    for evaluator in (poisoned, densely(poisoned)):
        with pytest.raises(PoisonedEstimateError) as err:
            weighted_norm_batch(evaluator, ball, OUTER_PS, sampler)
        errors.append(err.value)
    assert errors[0].series == errors[1].series == 1 + 2    # series 2 is row 1's first
    assert np.array_equal(errors[0].x, x1[777]) and np.array_equal(errors[1].x, x1[777])


def test_outer_block_factor_overflow_does_not_poison():
    # |left|^p overflows and |right|^p underflows, but every product is
    # finite: each batch is summed again on its dense rows
    ball = BallSpec.at_origin(4, 16.0)
    sampler = Sampler(budget=4096 + 1000, seed=157)

    def extreme(X):
        return outer_series(X, scale=1e60)

    got = weighted_norm_batch(extreme, ball, OUTER_PS, sampler)
    want = weighted_norm_batch(densely(extreme), ball, OUTER_PS, sampler)
    for g, w in zip(got, want):
        assert math.isfinite(g.value) and g.value > 0
        assert g.value == pytest.approx(w.value, rel=1e-12, abs=0)
        assert g.stderr == pytest.approx(w.stderr, rel=1e-12, abs=0)


# Bound fixed beforehand for an indicator N=16384 cell (128 x 128 cells): the
# two 1-D factor tables at a whole chunk, 16 B x (128 + 128) x 4096 values
# (16.8 MB), and 1.5 MB for one proposal chunk of 4096 points.  Its (cells,
# B) table at 256 samples a call is 67 MB.
FACTORED_BOUND = 16 * (128 + 128) * 4096 + 3 * 2 ** 19


def test_factored_indicator_cell_memory_stays_within_its_factor_tables():
    spec = ScenarioSpec(kind="indicator", n_scale=16384.0, p=6.0)
    sampler = Sampler(budget=4096, seed=163)
    run_cell(spec, Sampler(budget=1000, seed=163))      # warms the caches
    tracemalloc.start()
    try:
        rep = run_cell(spec, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.caps_total == 16384 and len(rep.per_cap) == 16384
    assert peak < FACTORED_BOUND


def reference_sample(prop, seed, chunk_index, n):
    """_MixtureProposal.sample as it was before the inverse-CDF table, the
    oracle of the fast sampler: rng.choice for the component, np.interp over
    the knots for the radius, np.linalg.norm for the row norms, and every
    component's weight over every sample."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
    comp = rng.choice(len(prop.radii), size=n, p=prop.alphas) if len(prop.radii) > 1 \
        else np.zeros(n, dtype=int)
    r = np.interp(rng.random(n), prop.cdf, prop.grid) * prop.radii[comp]
    v = rng.standard_normal((n, prop.ball.dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x = np.asarray(prop.ball.center) + r[:, None] * v
    rr = np.linalg.norm(x - np.asarray(prop.ball.center), axis=1)
    q = np.zeros(n)
    for a, rj, zj in zip(prop.alphas, prop.radii, prop.zs):
        u = rr / rj
        q += a * np.where(u <= prop.ball.trunc * 1.0000001,
                          prop.ball.radial_weight(u) / zj, 0.0)
    w = prop.ball.radial_weight(rr / prop.ball.radius)
    return x, w / q


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_sample_matches_reference(prop, seed, chunk_index, n):
    x, w = prop.sample(seed, chunk_index, n)
    x0, w0 = reference_sample(prop, seed, chunk_index, n)
    assert np.array_equal(x, x0) and np.array_equal(w, w0)
    assert_same_bits(x, x0)       # signed zeros included
    assert_same_bits(w, w0)


@pytest.mark.parametrize("radius, count", [(16.0, 3), (1024.0, 6), (2048.0, 6),
                                           (4096.0, 7), (16384.0, 8), (2.0 ** 20, 11)])
def test_mixture_radii_shrink_to_the_floor_at_every_radius(radius, count):
    # radii R / 4^k down to the floor 0.9, however many that takes: a fixed
    # number of copies left the origin, where |E g| peaks, unsampled at large R
    prop = _MixtureProposal(BallSpec.at_origin(4, radius), defensive=True)
    assert prop.radii.tolist() == [radius / 4.0 ** k for k in range(count)]
    assert prop.radii[-1] > 0.9 >= prop.radii[-1] / 4.0
    assert _MixtureProposal(BallSpec.at_origin(4, radius), defensive=False).radii.tolist() \
        == [radius]


@pytest.mark.parametrize("defensive", [True, False])
@pytest.mark.parametrize("decay", [12.0, 100.0])
@pytest.mark.parametrize("shape", ["strict", "plateau"])
@pytest.mark.parametrize("dim, center", [(2, (0.0, 0.0)), (2, (200.0, -3.5)),
                                         (4, (0.0,) * 4), (4, (200.0, 0.0, 0.0, -3.5))])
def test_sampler_matches_reference_bit_for_bit(dim, center, shape, decay, defensive):
    for radius in (16.0, 1024.0):
        prop = _MixtureProposal(BallSpec(center=center, radius=radius, decay=decay,
                                         shape=shape), defensive)
        for n in (1, 1000, 4096):
            for chunk_index in (0, 7):
                assert_sample_matches_reference(prop, 5, chunk_index, n)


@pytest.mark.parametrize("dim, decay, shape", [(4, 100.0, "plateau"), (4, 100.0, "strict"),
                                                (2, 12.0, "strict"), (2, 100.0, "plateau")])
def test_inverse_cdf_matches_interp_at_and_between_knots(dim, decay, shape):
    # draws exactly at a knot, one ulp either side of it and at the bucket
    # edges, which random draws almost never hit; decay 100 repeats knots
    # in the tail of the CDF
    prop = _MixtureProposal(BallSpec.at_origin(dim, 1.0, decay=decay, shape=shape), False)
    cdf = prop.cdf
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        np.arange(2 ** 14) / 2 ** 14,
                        np.random.default_rng(5).random(20000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert_same_bits(prop._inverse_cdf(u), np.interp(u, cdf, prop.grid))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), chunk_index=st.integers(0, 10 ** 4),
       n=st.integers(1, 4096), dim=st.integers(2, 4),
       radius=st.floats(0.5, 5000.0),
       offset=st.floats(-1000.0, 1000.0),
       decay=st.sampled_from([8.0, 12.0, 100.0]),
       trunc=st.sampled_from([2.0, 4.0]),
       shape=st.sampled_from(["strict", "plateau"]),
       defensive=st.booleans())
def test_sampler_matches_reference_property(seed, chunk_index, n, dim, radius, offset,
                                            decay, trunc, shape, defensive):
    center = (offset,) + (0.0,) * (dim - 1)
    ball = BallSpec(center=center, radius=radius, decay=decay, trunc=trunc, shape=shape)
    assert_sample_matches_reference(_MixtureProposal(ball, defensive), seed,
                                    chunk_index, n)


@pytest.mark.parametrize("field, value", [("center", (0.0, float("nan"))),
                                          ("center", (float("inf"), 0.0)),
                                          ("radius", float("nan")),
                                          ("radius", float("inf")),
                                          ("decay", float("nan")),
                                          ("decay", float("inf")),
                                          ("trunc", float("nan")),
                                          ("trunc", float("inf"))])
def test_ball_rejects_non_finite_values(field, value):
    kw = {"center": (0.0, 0.0), "radius": 4.0, "decay": 12.0, "trunc": 4.0}
    kw[field] = value
    with pytest.raises(ValueError, match="finite"):
        BallSpec(**kw)
