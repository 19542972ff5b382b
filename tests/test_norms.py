import math
import tracemalloc

import numpy as np
import pytest

from declab.fields import AmplitudeField, extension_evaluator
from declab.geometry import random_admissible, quad_surface
from declab.grid import cap_level_for
from declab.norms import (BallSpec, PoisonedEstimateError, Sampler,
                          _MixtureProposal, sphere_area, weight_mass,
                          weighted_lp_norm, weighted_norm_batch)


def closed_form_mass(ball: BallSpec) -> float:
    """Binomial-expansion closed form for the truncated radial integral."""
    d, e, t = ball.dim, ball.decay, ball.trunc
    if ball.shape == "plateau":
        val = 1.0 / d + (1.0 - t ** (d - e)) / (e - d)
        return sphere_area(d) * ball.radius ** d * val
    total = 0.0
    for k in range(d):
        c = math.comb(d - 1, k) * (-1) ** (d - 1 - k)
        expo = k - e + 1
        total += c * ((1 + t) ** expo - 1.0) / expo
    return sphere_area(d) * ball.radius ** d * total


@pytest.mark.parametrize("shape", ["strict", "plateau"])
def test_weight_mass_matches_closed_form(shape):
    for dim, radius in ((4, 1.0), (4, 16.0), (2, 5.0)):
        ball = BallSpec.at_origin(dim, radius, shape=shape)
        assert weight_mass(ball) == pytest.approx(closed_form_mass(ball), rel=1e-9)


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


def test_sup_norm_flagged_approximate():
    ball = BallSpec.at_origin(4, 4.0)
    est = weighted_lp_norm(lambda X: np.ones(X.shape[0]), ball, np.inf,
                           Sampler(budget=1500, seed=3))
    assert est.approximate
    assert est.value == pytest.approx(1.0)
    assert est.stderr is None


def test_lattice_strategy_constant():
    # plateau shape: the strict weight's core is narrower than any feasible
    # grid spacing, which is exactly why the lattice strategy is reserved
    # for smooth-weight low-dimensional reductions
    ball = BallSpec.at_origin(2, 2.0, shape="plateau")
    est = weighted_lp_norm(lambda X: np.ones(X.shape[0]), ball, 2.0,
                           Sampler(budget=40000, seed=0, strategy="lattice"))
    assert est.strategy == "lattice"
    assert est.spacing is not None
    assert est.value == pytest.approx(weight_mass(ball) ** 0.5, rel=2e-3)


@pytest.mark.parametrize("strategy", ["mc", "lattice"])
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
# p = 7.5 throughout, then one mixed block of 7 that includes p = inf
MIXED_PS = [6.0] * 8 + [3.0] * 8 + [7.5] * 8 + [1.0, 2.0, 3.0, 6.0, 7.5, np.inf, np.inf]


def smooth_series(X):
    """(31, B) complex values with moduli that vary across series and points."""
    k = np.arange(len(MIXED_PS))[:, None]
    r = np.linalg.norm(X, axis=1)
    return (1.0 + 0.05 * k) / (1.0 + 0.01 * r) * (1.2 + np.cos(0.3 * k + X[:, 0])) \
        * np.exp(1j * (k * X[:, 1] - X[:, 2]))


def power_reference(evaluator, ball, ps, sampler):
    """Value and stderr per finite-p series, from np.power over whole chunks."""
    prop = _MixtureProposal(ball, defensive=(sampler.proposal == "mixture"))
    finite_p = np.where(np.isfinite(ps), ps, 1.0)[:, None]
    s1 = s2 = 0.0
    tot = k = 0
    while tot < sampler.budget:
        n = min(sampler.chunk, sampler.budget - tot)
        x, iw = prop.sample(sampler.seed, k, n)
        vals = np.abs(evaluator(x)) ** finite_p * iw
        s1 = s1 + vals.sum(axis=1)
        s2 = s2 + (vals * vals).sum(axis=1)
        tot += n
        k += 1
    integral = s1 / tot
    value = integral ** (1.0 / finite_p[:, 0])
    var = np.maximum(s2 / tot - integral ** 2, 0.0) / tot
    return value, np.sqrt(var) * value / (finite_p[:, 0] * integral)


@pytest.mark.parametrize("sampler", [Sampler(budget=3 * 4096 + 1000, seed=83),
                                     Sampler(budget=2500, seed=89, chunk=1000)],
                         ids=["chunk=4096", "chunk=1000"])
def test_blocked_accumulation_matches_power_reference(sampler):
    # the budgets end on a short chunk
    ball = BallSpec.at_origin(4, 16.0)
    ests = weighted_norm_batch(smooth_series, ball, MIXED_PS, sampler)
    value, stderr = power_reference(smooth_series, ball, np.array(MIXED_PS), sampler)
    for i, p in enumerate(MIXED_PS):
        if np.isfinite(p):
            assert ests[i].value == pytest.approx(value[i], rel=1e-14, abs=0)
            assert ests[i].stderr == pytest.approx(stderr[i], rel=1e-12, abs=0)
        else:
            assert ests[i].approximate and ests[i].stderr is None


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
