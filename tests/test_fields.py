import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from declab import fields as fields_module
from declab.fields import (_CIS_BLOCK, _CROSS_THETA_MAX, NODE_BLOCK, QUAD_BLOCK_ELEMENTS,
                           AmplitudeField, AxisFactor, LineEvaluator, _cis, _cross_split,
                           _gauss, _interval_sums, _taylor_rank,
                           extension_evaluator, extension_value,
                           nodes_for_cycles)
from declab.geometry import (QuadCoeffs, curve_lift, moment_curve, quad_surface,
                             random_admissible)
from declab.grid import CapPartition, DyadicSquare
from declab.harness import (FLAT_LINE_COEFFS, X_MAX_TAIL, ScenarioSpec, _x_max,
                            flat_line_points, measurement_ball, scenario)
from declab.norms import (BallSpec, PoisonedEstimateError, Sampler, _MixtureProposal,
                          weighted_norm_batch)

SQUARES = quad_surface((1, 0, 0, 0, 0, 1))


def fresnel_1d(alpha, beta):
    """Adaptive-quadrature oracle for int_0^1 e(alpha t + beta t^2) dt."""
    re, _ = integrate.quad(lambda t: np.cos(2 * np.pi * (alpha * t + beta * t * t)),
                           0, 1, limit=400)
    im, _ = integrate.quad(lambda t: np.sin(2 * np.pi * (alpha * t + beta * t * t)),
                           0, 1, limit=400)
    return re + 1j * im


def test_unit_amplitude_zero_frequency_gives_area():
    f = AmplitudeField.constant(2)
    assert extension_value(SQUARES, f, [0, 0, 0, 0]) == pytest.approx(1.0, abs=1e-13)


def test_single_point_mass_is_unimodular():
    f = AmplitudeField.atomic([[0.37, 0.91]], [1.0])
    rng = np.random.default_rng(0)
    x = rng.uniform(-50, 50, size=(20, 4))
    vals = extension_evaluator(SQUARES, f, 50.0).total(x)
    np.testing.assert_allclose(np.abs(vals), 1.0, rtol=1e-13)


def test_fresnel_factorization_against_adaptive_quadrature():
    f = AmplitudeField.constant(3)
    for x3 in (0.8, 4.6, 11.3):
        got = extension_value(SQUARES, f, [0.0, 0.0, x3, 0.0])
        want = fresnel_1d(0.0, x3)
        assert abs(got - want) <= 1e-6 * max(abs(want), 1e-3)


def test_general_tensor_path_matches_separable():
    # a general-profile field forces tensor quadrature; a constant profile
    # in that path must agree with the separable fast path
    lev = 2
    sep = AmplitudeField.constant(lev)
    gen = AmplitudeField.from_function(lev, lambda t, s: np.ones_like(t, dtype=complex))
    rng = np.random.default_rng(5)
    x = rng.uniform(-6, 6, size=(10, 4))
    ev_sep = extension_evaluator(SQUARES, sep, 6.0)
    ev_gen = extension_evaluator(SQUARES, gen, 6.0)
    np.testing.assert_allclose(ev_sep.total(x), ev_gen.total(x), rtol=1e-10, atol=1e-12)


def test_restrict_then_sum_equals_total():
    rng = np.random.default_rng(7)
    coeffs = random_admissible(rng, scale=0.8)
    surf = quad_surface(coeffs)
    f = AmplitudeField.random_phase(2, seed=3)
    x = rng.uniform(-4, 4, size=(12, 4))
    ev = extension_evaluator(surf, f, 4.0)
    total = ev.total(x)
    acc = np.zeros_like(total)
    for cap in CapPartition.full(2):
        ev_cap = extension_evaluator(surf, f.restrict(cap), 4.0)
        if ev_cap.n_cells:
            acc += ev_cap.total(x)
    np.testing.assert_allclose(acc, total, rtol=1e-12, atol=1e-14)


def test_atomic_flat_line_lands_in_left_column():
    m = 3
    pts = np.column_stack([np.zeros(8), np.arange(1, 9) / 8.0])
    f = AmplitudeField.atomic(pts, np.ones(8))
    for cap in CapPartition.full(m):
        r = f.restrict(cap)
        if cap.i == 0:
            continue
        assert r.points.shape[0] == 0


def test_flat_line_boundary_point_goes_to_top_cap():
    f = AmplitudeField.atomic([[0.0, 1.0]], [1.0])
    top = DyadicSquare(3, 0, 7)
    assert f.restrict(top).points.shape[0] == 1


def test_continuous_restriction_mass():
    f = AmplitudeField.constant(2)
    cap = DyadicSquare(2, 1, 3)
    got = extension_value(SQUARES, f.restrict(cap), [0, 0, 0, 0])
    assert got == pytest.approx(2.0 ** -4, abs=1e-15)


def test_restrict_below_cell_level_rejected():
    f = AmplitudeField.constant(2)
    with pytest.raises(ValueError):
        f.restrict(DyadicSquare(3, 0, 0))


def test_refine_identity_at_zero():
    f = AmplitudeField.constant(2)
    base = extension_value(SQUARES, f, [0, 0, 0, 0])
    fine = extension_value(SQUARES, f.refine(2), [0, 0, 0, 0])
    assert fine == pytest.approx(base, abs=1e-13)


def test_refine_reduces_underresolved_error():
    # evaluate far past the advertised frequency bound so the base rule is
    # under-resolved; refinement must cut the error at least in half (on
    # the tensor engine: the separable engine's unit profile is exact)
    f = generic_copy(AmplitudeField.constant(1))
    x = np.array([[0.0, 0.0, 23.0, 0.0]])
    want = fresnel_1d(0.0, 23.0)
    base = extension_evaluator(SQUARES, f, 1.0).total(x)[0]
    fine = extension_evaluator(SQUARES, f.refine(2), 1.0).total(x)[0]
    assert abs(fine - want) <= abs(base - want) / 2.0
    assert abs(base - want) > 1e-9  # the test would be vacuous otherwise


def test_refine_gate_at_honest_bound():
    f = AmplitudeField.constant(2)
    rng = np.random.default_rng(11)
    x = rng.uniform(-40, 40, size=(8, 4))
    base = extension_evaluator(SQUARES, f, 40.0).total(x)
    fine = extension_evaluator(SQUARES, f.refine(2), 40.0).total(x)
    assert np.max(np.abs(base - fine)) / np.max(np.abs(base)) < 1e-4


def test_refine_rejects_atomic():
    f = AmplitudeField.atomic([[0.5, 0.5]], [1.0])
    with pytest.raises(ValueError):
        f.refine(2)


def test_refine_preserves_cell_masses():
    f = AmplitudeField.random_phase(2, seed=9)
    zero = np.zeros((1, 4))
    base = extension_evaluator(SQUARES, f, 1.0).cell_values(zero)[:, 0]
    fine = extension_evaluator(SQUARES, f.refine(3), 1.0).cell_values(zero)[:, 0]
    np.testing.assert_allclose(base, fine, rtol=1e-13)


def test_linearity_in_amplitudes():
    f = AmplitudeField.constant(2)
    x = np.array([[1.3, -0.4, 2.2, 0.7]])
    one = extension_evaluator(SQUARES, f, 3.0).total(x)[0]
    two = extension_evaluator(SQUARES, f.scaled(2.5 - 1j), 3.0).total(x)[0]
    assert two == pytest.approx((2.5 - 1j) * one, rel=1e-13)


def test_modulation_covariance():
    rng = np.random.default_rng(13)
    coeffs = QuadCoeffs(*rng.uniform(-0.8, 0.8, 6))
    surf = quad_surface(coeffs)
    f = AmplitudeField.constant(2)
    y = rng.uniform(-2, 2, 4)
    x = rng.uniform(-3, 3, size=(6, 4))
    lhs = extension_evaluator(surf, f.modulated(surf, y), 8.0).total(x)
    rhs = extension_evaluator(surf, f, 8.0).total(x + y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


def test_conjugation_symmetry_atomic():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, size=(9, 2))
    amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = AmplitudeField.atomic(pts, amps)
    x = rng.uniform(-20, 20, size=(15, 4))
    ev = extension_evaluator(SQUARES, f, 20.0)
    evc = extension_evaluator(SQUARES, f.conjugated(), 20.0)
    np.testing.assert_allclose(evc.total(-x), np.conj(ev.total(x)), rtol=0, atol=1e-13)


def test_quadrature_weights_sum_to_cell_area():
    gen = AmplitudeField.from_function(2, lambda t, s: np.ones_like(t, dtype=complex))
    ev = extension_evaluator(SQUARES, gen, 10.0)
    for (_tn, _sn, wn) in ev._tensor_nodes:
        assert wn.sum() == pytest.approx(2.0 ** -4, rel=1e-14)


def test_atomic_points_validated():
    for points, amps in (([[1.2, 0.3]], [1.0]),
                         ([[np.nan, 0.5], [0.25, 0.75]], [1.0, 1.0]),
                         ([[0.25, np.inf]], [1.0]),
                         ([[0.25, 0.5]], [np.nan]),
                         ([[0.25, 0.5]], [complex(1.0, np.inf)])):
        with pytest.raises(ValueError):
            AmplitudeField.atomic(points, amps)


def test_nonfinite_evaluation_point_rejected():
    f = AmplitudeField.constant(1)
    with pytest.raises(ValueError):
        extension_value(SQUARES, f, [np.inf, 0, 0, 0])


def test_line_evaluator_matches_quadrature():
    line = LineEvaluator([(0.0, 0.5), (0.5, 1.0)], None,
                         lambda t, X: np.outer(t, X[:, 0]) + np.outer(t * t, X[:, 1]),
                         x_max=12.0, phase_derivative_bound=3.0)
    x = np.array([[2.3, 7.9]])
    got = line.total(x)[0]
    want = fresnel_1d(2.3, 7.9)
    assert abs(got - want) < 1e-9


# -- the e(.) kernel ---------------------------------------------------------

CIS_TOL = 1e-15


def cis_error(ph):
    """Largest deviation of _cis from long double cos/sin of the exactly
    reduced phase 2 pi (ph - rint(ph))."""
    got = _cis(ph)
    x = np.asarray(ph, dtype=np.longdouble)
    angle = 8 * np.arctan(np.longdouble(1)) * (x - np.rint(x))
    err = np.maximum(np.abs(got.real - np.cos(angle)), np.abs(got.imag - np.sin(angle)))
    return float(err.max(initial=0.0))


def test_cis_large_phases_both_signs():
    rng = np.random.default_rng(23)
    uniform = rng.uniform(-1e6, 1e6, 100_000)
    spread = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-3, 6, 50_000)
    assert cis_error(uniform) <= CIS_TOL
    assert cis_error(spread) <= CIS_TOL


def test_cis_reduction_boundaries():
    offsets = np.array([0.0, 7.0, -5.0, 4321.0, -98765.0, 999_999.0])[:, None]
    steps = np.arange(-2048, 2049) / 1024.0
    halves = (np.arange(-2048, 2048) + 0.5) / 1024.0
    for grid in (steps, halves):
        ph = (offsets + grid).ravel()
        for q in (ph, np.nextafter(ph, np.inf), np.nextafter(ph, -np.inf)):
            assert cis_error(q) <= CIS_TOL
    half_integers = np.concatenate([np.arange(-1000, 1000) + 0.5, [123456.5, -999999.5]])
    assert cis_error(half_integers) <= CIS_TOL
    np.testing.assert_allclose(_cis(half_integers).real, -1.0, rtol=0, atol=CIS_TOL)


def test_cis_shapes_and_layouts():
    zero_d = _cis(np.float64(0.125))
    assert zero_d.shape == ()
    assert abs(zero_d - np.exp(0.25j * np.pi)) <= CIS_TOL
    assert _cis(0.25).shape == ()
    assert _cis(np.empty(0)).shape == (0,)
    assert _cis(np.empty((3, 0))).shape == (3, 0)
    a = np.random.default_rng(29).uniform(-1e4, 1e4, size=(64, 33))
    for view in (a[:, ::3], a.T, a[::-2]):
        got = _cis(view)
        assert got.shape == view.shape
        np.testing.assert_array_equal(got, _cis(np.ascontiguousarray(view)))
        assert cis_error(view) <= CIS_TOL


def test_cis_scratch_is_reused_per_thread():
    # one scratch per thread, allocated once: concurrent calls on two
    # threads give the serial values bit for bit, and a later call reuses
    # the first call's tables
    rng = np.random.default_rng(31)
    phases = [rng.uniform(-1e4, 1e4, size=3 * _CIS_BLOCK + 5) for _ in range(2)]
    want = [_cis(ph) for ph in phases]
    first = fields_module._cis_scratch()
    _cis(phases[0][:7])
    assert all(a is b for a, b in zip(first, fields_module._cis_scratch()))
    same, start = [[], []], threading.Barrier(2)

    def run(k):
        start.wait()
        for _ in range(50):
            same[k].append(_cis(phases[k]).tobytes() == want[k].tobytes())

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(same[0]) and all(same[1]) and len(same[0]) == len(same[1]) == 50


def test_cis_nonfinite_phases_give_nan():
    got = _cis(np.array([np.nan, np.inf, -np.inf, 0.0]))
    assert np.all(np.isnan(got.real[:3])) and np.all(np.isnan(got.imag[:3]))
    assert got[3] == 1.0


def test_nan_phase_poisons_the_norm_estimate():
    line = LineEvaluator([(0.0, 0.5), (0.5, 1.0)], None,
                         lambda t, X: np.full((len(t), len(X)), np.nan),
                         x_max=4.0, phase_derivative_bound=3.0)
    with pytest.raises(PoisonedEstimateError):
        weighted_norm_batch(line.interval_values, BallSpec.at_origin(2, 4.0), [6.0, 6.0],
                            Sampler(budget=1000, seed=0))


def test_tensor_cell_memory_stays_within_one_node_block():
    # One cell of 64 x 64 tensor nodes.  Its whole phase table with the
    # complex exponential and scratch, 40 bytes per node-sample, would be 16x
    # the bound, which allows as much for one block of NODE_BLOCK nodes.
    field = AmplitudeField.from_function(0, lambda t, s: np.ones_like(t, dtype=complex))
    n1 = nodes_for_cycles(5.0 * SQUARES.phase_derivative_bound())
    batch = 1024
    bound = 40 * NODE_BLOCK * batch
    assert 40 * n1 ** 2 * batch >= 10 * bound
    ev = extension_evaluator(SQUARES, field, 5.0)
    x = np.random.default_rng(31).uniform(-5.0, 5.0, size=(batch, 4))
    tracemalloc.start()
    try:
        vals = ev.cell_values(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (1, batch)
    assert peak < bound


# -- the quadratic engine ------------------------------------------------------

FLAT = quad_surface(FLAT_LINE_COEFFS)         # not phase-separable (a5 = 0.5)


def g1(t):
    return 1.0 + 0.5 * t * t + 0.25j * t


def g2(s):
    return np.exp(1.5j * s) * (2.0 - s)


def generic_copy(field):
    """The same amplitude with a trivial general profile, which forces the
    generic tensor path."""
    return replace(field, g_extra=lambda t, s: np.ones(np.broadcast_shapes(
        np.shape(t), np.shape(s)), dtype=complex))


def strip_field(k):
    lev = int(np.log2(k))
    return AmplitudeField.constant(lev, support=[DyadicSquare(lev, 0, j) for j in range(k)])


def test_quadratic_engine_selection():
    for f in (AmplitudeField.constant(2), AmplitudeField.random_phase(2, seed=4),
              AmplitudeField.separable(2, g1, g2), strip_field(8)):
        assert extension_evaluator(FLAT, f, 4.0)._mode == "quadratic"
    general = AmplitudeField.from_function(2, lambda t, s: np.ones_like(t, dtype=complex))
    assert extension_evaluator(FLAT, general, 4.0)._mode == "tensor"
    assert extension_evaluator(FLAT, generic_copy(strip_field(8)), 4.0)._mode == "tensor"
    lift = curve_lift(moment_curve(), (0.0, 0.25), (0.75, 1.0))
    assert extension_evaluator(lift, AmplitudeField.constant(2), 4.0)._mode != "quadratic"
    assert extension_evaluator(SQUARES, AmplitudeField.constant(2), 4.0)._mode == "separable"


def test_empty_continuous_field_evaluates_to_nothing():
    empty = AmplitudeField.constant(2, support=[DyadicSquare(2, 0, 0)]).restrict(
        DyadicSquare(1, 1, 1))
    assert not empty.cells
    for surface in (SQUARES, FLAT):
        ev = extension_evaluator(surface, empty, 4.0)
        assert ev.n_cells == 0
        assert ev.cell_values(np.ones((3, 4))).shape == (0, 3)


@pytest.mark.parametrize("x_max", [4.0, 1e3])
@pytest.mark.parametrize("surface, support", [
    (quad_surface(QuadCoeffs(0.7, -0.3, 0.4, 0.2, 0.5, -0.6)),
     [DyadicSquare(5, i, j) for i, j in ((3, 7), (17, 2), (30, 30), (12, 25))]),
    # one column off the origin row: every cell has the same beta slopes
    # and so shares one Vs table unless its s-amplitude differs; the Ut rows
    # step over the gaps between rows 0, 4, 5 and 31
    (FLAT, [DyadicSquare(5, 9, j) for j in (0, 4, 5, 31)]),
    # the whole column: the Ut rows step 31 times from the first (drift)
    (FLAT, [DyadicSquare(5, 9, j) for j in range(32)]),
], ids=["general", "flat-column", "full-column"])
def test_quadratic_engine_matches_tensor_path(x_max, surface, support):
    rng = np.random.default_rng(37)
    fields = (AmplitudeField.random_phase(5, seed=8, support=support),
              AmplitudeField.separable(5, g1, g2, support=support).scaled(0.5 - 2j))
    x = rng.uniform(-x_max, x_max, size=(16, 4))
    x[0] = [x_max, -x_max, x_max, -x_max]
    for f in fields:
        ev = extension_evaluator(surface, f, x_max)
        assert ev._mode == "quadratic"
        got = ev.cell_values(x)
        want = extension_evaluator(surface, generic_copy(f), x_max).cell_values(x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_quadratic_engine_default_and_refined_quadrature_agree():
    # the benchmark's quadrature self-check on the strip K=8 cell: points
    # inside the ball that holds all but X_MAX_TAIL of the sampling mass
    ball = measurement_ball(4, 8.0)
    x_max = ball.quantile_radius(X_MAX_TAIL)
    rng = np.random.default_rng(41)
    v = rng.standard_normal((16, 4))
    x = v * (x_max * rng.random(16) ** 0.25 / np.linalg.norm(v, axis=1))[:, None]
    f = strip_field(8)
    base = extension_evaluator(FLAT, f, x_max).total(x)
    fine = extension_evaluator(FLAT, f.refine(2), x_max).total(x)
    assert np.abs(base - fine).max() <= 1e-8 * np.abs(fine).max()


def test_quadratic_engine_memory_stays_within_one_sample_block():
    # A block holds at most three complex tables of QUAD_BLOCK_ELEMENTS
    # elements (16 bytes each) and the e(.) kernel's scratch; the bound allows
    # 80 bytes per element.  The whole (batch, n, n) table of the refined
    # strip K=8 cell would be more than 10x that.
    f = strip_field(8).refine(2)
    x_max = measurement_ball(4, 8.0).quantile_radius(X_MAX_TAIL)
    n1 = nodes_for_cycles(x_max * FLAT.phase_derivative_bound() / 8, 2)
    batch = 2048
    bound = 80 * QUAD_BLOCK_ELEMENTS
    assert 16 * batch * n1 ** 2 >= 10 * bound
    ev = extension_evaluator(FLAT, f, x_max)
    x = np.random.default_rng(43).uniform(-x_max, x_max, size=(batch, 4))
    tracemalloc.start()
    try:
        vals = ev.cell_values(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (8, batch)
    assert peak < bound


def strip_chunk(k, n=2048, seed=83):
    """The strip K=k field, the benchmark's frequency bound for it and a
    chunk of its sampling proposal."""
    ball = measurement_ball(4, float(k))
    x, _ = _MixtureProposal(ball, defensive=True).sample(seed, 0, n)
    return strip_field(k), 1.05 * ball.quantile_radius(X_MAX_TAIL), x


def count_splits(monkeypatch):
    """Counts the quadratic engine's calls of the Taylor split."""
    calls = []

    def spy(*args):
        calls.append(args[2].shape[1])
        return _cross_split(*args)

    monkeypatch.setattr(fields_module, "_cross_split", spy)
    return calls


@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0, 2.0, _CROSS_THETA_MAX, 10.0])
def test_taylor_rank_is_the_smallest_below_2_pow_minus_60(theta):
    r = _taylor_rank(theta)
    assert theta ** r / math.factorial(r) <= 2.0 ** -60
    assert r == 1 or theta ** (r - 1) / math.factorial(r - 1) > 2.0 ** -60


@pytest.mark.parametrize("n", [33, 66], ids=["n=33", "refined"])
@pytest.mark.parametrize("theta", [0.25, 2.0, _CROSS_THETA_MAX])
def test_cross_split_matches_longdouble(n, theta):
    # sum_j W[j] e(2B u_i u_j) on the Gauss nodes of a cell of side 1/8, 2B
    # spread over [-theta, theta] / (2 pi h^2) with both ends present.  The
    # reference takes the phase and its reduction mod 1 in long double, cos
    # and sin of the reduced angle in double.  Bound fixed beforehand:
    # 1e-14 of sum_j |W[j]| per row.
    h = 0.125
    rng = np.random.default_rng(89 + n)
    xg, _ = _gauss(n)
    u = h / 2 * (xg + 1.0)
    two_b = theta / (2 * np.pi * h * h) * np.concatenate([[1.0, -1.0],
                                                          rng.uniform(-1, 1, 30)])
    W = rng.standard_normal((32, 3, n)) + 1j * rng.standard_normal((32, 3, n))
    pw = np.vander(u / h, _taylor_rank(theta), increasing=True)
    got = _cross_split(W, 2 * np.pi * h * h * two_b, pw)
    ul = u.astype(np.longdouble)
    ph = np.multiply.outer(two_b.astype(np.longdouble), np.multiply.outer(ul, ul))
    ang = 2 * np.pi * (ph - np.rint(ph)).astype(float)
    E = (np.cos(ang) + 1j * np.sin(ang)).astype(np.clongdouble)
    want = np.einsum("bdj,bij->bdi", W.astype(np.clongdouble), E).astype(complex)
    scale = np.abs(W).sum(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("k", [4, 8, 32])
def test_strip_blocks_take_the_split(monkeypatch, k):
    f, x_max, x = strip_chunk(k)
    calls = count_splits(monkeypatch)
    ev = extension_evaluator(FLAT, f, x_max)
    got = ev.cell_values(x)
    assert len(calls) == -(-x.shape[0] // ev._q_step)
    # theta = 2 pi x_max / K^2 <= 2 at the frequency bound: rank 26 or less
    assert max(calls) <= _taylor_rank(2.0) < 33
    monkeypatch.setattr(fields_module, "_CROSS_THETA_MAX", -1.0)
    want = extension_evaluator(FLAT, f, x_max).cell_values(x)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_quadratic_blocks_fall_back_to_the_direct_table(monkeypatch):
    # strip K=4 has n = 33, refined n = 66, and 24 samples make one block.
    # One far sample sends its whole block to the direct table: at theta =
    # 16 > the cap; at theta = 8, also > the cap, where the refined rank 49
    # is below n; at theta = 3.9, under the cap, where the rank 34 is not
    # below n = 33; and at theta = 1e3, far past x_max, where theta^r / r!
    # would overflow to inf before it fell below 2^-60.
    f, x_max, x = strip_chunk(4, n=24)
    calls = count_splits(monkeypatch)
    assert _taylor_rank(3.9) == 34 and _taylor_rank(8.0) == 49
    h = 0.25
    for field, theta, splits in ((f, 1.0, 1), (f, 3.9, 0), (f, 16.0, 0), (f, 1e3, 0),
                                 (f.refine(2), 3.9, 1), (f.refine(2), 8.0, 0)):
        ev = extension_evaluator(FLAT, field, x_max)
        assert ev._q_u.shape[0] == 33 * field.node_factor and ev._q_step >= 24
        xb = x.copy()
        xb[17, 3] = theta / (2 * np.pi * h * h)
        calls.clear()
        got = ev.cell_values(xb)
        assert len(calls) == splits
        want = extension_evaluator(FLAT, generic_copy(field), x_max).cell_values(xb)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_quadratic_split_memory(monkeypatch):
    # Bound fixed beforehand: the (cells, batch) result and its (batch,
    # cells) blocks, plus one complex table of QUAD_BLOCK_ELEMENTS elements
    # for everything a block builds: its phase, Vs, P and Z tables, the
    # row parts and the e(.) kernel's scratch.  The direct table alone
    # takes that budget in one block, with its phase table on top, so the
    # same cell without the split goes over the bound, but stays within the
    # 80 bytes per element of the sample-block bound.
    f, x_max, x = strip_chunk(8)
    f = f.refine(2)
    bound = 2 * 16 * 8 * x.shape[0] + 16 * QUAD_BLOCK_ELEMENTS
    peaks = []
    for cap in (_CROSS_THETA_MAX, -1.0):
        monkeypatch.setattr(fields_module, "_CROSS_THETA_MAX", cap)
        ev = extension_evaluator(FLAT, f, x_max)
        tracemalloc.start()
        try:
            vals = ev.cell_values(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert vals.shape == (8, x.shape[0])
    assert peaks[0] < bound < peaks[1] < 80 * QUAD_BLOCK_ELEMENTS


# -- the separable engine against direct interval sums -------------------------

# level-3 cells whose rows (1, 3) and columns (0, 2, 5) have gaps and whose
# rows do not start at 0
GAPPED = [DyadicSquare(3, 1, 0), DyadicSquare(3, 3, 2), DyadicSquare(3, 3, 5)]
# the same rows and columns, with the cells of row 3 apart in the field's order
INTERLEAVED = [DyadicSquare(3, 3, 2), DyadicSquare(3, 1, 0), DyadicSquare(3, 3, 5)]


def ladder_levels(nodes, x_max, x):
    """Each sample's ladder level by the rule, written out: the deepest level
    l < len(nodes) with x_max 2^-l >= |x|_inf, and 0 beyond x_max."""
    reach = np.abs(x).max(axis=1)
    level = np.zeros(len(x), dtype=int)
    for k in range(1, len(nodes)):
        level[reach <= x_max * 2.0 ** -k] = k
    return level


def direct_cell_values(surface, field, x_max, x, nodes):
    """Cell values with both 1-D factors summed by `_interval_sums` from the
    surface's own phase_split() tables, each sample on the node count of its
    own ladder level (`nodes` the per-level counts)."""
    part_t, part_s = surface.phase_split()
    side = field.cells[0].side
    level = ladder_levels(nodes, x_max, x)

    def factor(idx, g, part):
        rows = np.array(sorted(set(idx)))
        sums = np.empty((len(rows), len(x)), dtype=complex)
        for k in np.unique(level):
            xg, wg = _gauss(int(nodes[k]))
            u, w = side / 2 * (xg + 1.0), side / 2 * wg
            t = np.add.outer(rows * side, u)
            amp = (g(t) if g is not None else np.ones(t.shape)) * w
            at = level == k
            sums[:, at] = _interval_sums(t, amp.astype(complex), part, x[at])
        return sums[np.searchsorted(rows, idx)]

    ft = factor([c.i for c in field.cells], field.g1, part_t)
    fs = factor([c.j for c in field.cells], field.g2, part_s)
    return field.coeffs[:, None] * ft * fs


@pytest.mark.parametrize("x_max, batch", [(4.0, 37), (4.0, 1), (1e3, 700), (1e3, 1)])
def test_separable_engine_matches_direct_interval_sums(x_max, batch):
    # at x_max = 1e3 a cell has more than NODE_BLOCK nodes, and a batch of
    # 700 is not a multiple of any sample block
    surface = quad_surface((0.9, 0, -0.3, 0.6, 0, 1.1))
    n1 = nodes_for_cycles(x_max * surface.phase_derivative_bound() / 8)
    assert (n1 > NODE_BLOCK) == (x_max > 100)
    rng = np.random.default_rng(47)
    x = rng.uniform(-x_max, x_max, size=(batch, 4))
    if batch > 1:
        # alone, the corner's values are cancellations of about 1e-8 of the
        # cell area, below the rounding of either sum at 1e-12 of their size
        x[0] = [x_max, -x_max, x_max, -x_max]
        # samples on every ladder level
        x[1:] *= 2.0 ** -rng.integers(0, 6, size=batch - 1)[:, None]
    fields = (AmplitudeField.constant(3, 0.5 - 2j, support=GAPPED),
              AmplitudeField.random_phase(3, seed=9, support=GAPPED),
              AmplitudeField.random_phase(3, seed=9, support=INTERLEAVED),
              AmplitudeField.separable(3, g1, g2, support=GAPPED),
              AmplitudeField.separable(3, g1, g2))
    for f in fields:
        ev = extension_evaluator(surface, f, x_max)
        assert ev._mode == "separable"
        got = ev.cell_values(x)
        want = direct_cell_values(surface, f, x_max, x, ev._factors[0].nodes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# -- the node ladder of the separable engine's 1-D factors ----------------------


def test_ladder_levels_of_the_indicator_n256_cell():
    # the 3/4 stopping rule: 23 nodes would keep more than 3/4 of 29
    x_max = _x_max(measurement_ball(4, 256.0))
    ev = extension_evaluator(SQUARES, AmplitudeField.constant(4), x_max)
    for factor in ev._factors:
        assert factor.nodes.tolist() == [210, 113, 65, 41, 29]
    assert ev.nodes_per_sample == 210 * 32


MOMENT = moment_curve()


def parabola_phase(t_nodes, x_batch):
    return np.outer(t_nodes, x_batch[:, 0]) + np.outer(t_nodes ** 2, x_batch[:, 1])


def parabola_factor(x_max, side, node_factor):
    """(factor, per-unit phase bound, sample dimension) of four parabola caps,
    with an amplitude and the parabola's phase table (a unit amplitude with
    the phase's (lin, quad) takes the closed form, not the ladder)."""
    return (AxisFactor(np.arange(4), side, x_max, 3.0, node_factor, g1, parabola_phase,
                       0, None),
            3.0, 2)


def moment_line(x_max, side, node_factor):
    """The same for a moment-curve line over four intervals."""
    intervals = [(k * side, (k + 1) * side) for k in range(4)]
    bound = MOMENT.phase_derivative_bound()
    return (LineEvaluator(intervals, None, MOMENT.phase, x_max, bound, node_factor),
            bound, 4)


@pytest.mark.parametrize("node_factor", [1, 3])
def test_ladder_sums_every_sample_on_enough_nodes(node_factor):
    x_max, side = 700.0, 1 / 16
    for make in (parabola_factor, moment_line):
        factor, bound, dim = make(x_max, side, node_factor)
        assert len(factor.nodes) >= 4
        radii = x_max * 2.0 ** -np.arange(len(factor.nodes))
        # every level's radius, and just inside and outside it, and samples
        # spread over [0, x_max]
        reach = np.concatenate([radii, np.nextafter(radii, 0), radii * (1 + 1e-12),
                                np.random.default_rng(3).uniform(0, x_max, 200), [0.0]])
        reach = reach[reach <= x_max]
        signs = np.random.default_rng(5).choice([-1.0, 1.0], size=(len(reach), dim))
        x = signs * np.multiply.outer(reach, [1.0, 0.3, 0.7, 0.1][:dim])
        level = factor.level_of(x)
        need = [nodes_for_cycles(r * bound * side, node_factor) for r in reach]
        assert np.all(factor.nodes[level] >= need)
        # the deepest level that covers: the next one does not
        deeper = level + 1 < len(factor.nodes)
        assert np.all(reach[deeper] > radii[level[deeper] + 1])
        assert np.array_equal(level, ladder_levels(factor.nodes, x_max, x))


def test_ladder_puts_samples_beyond_x_max_on_level_0():
    for make in (parabola_factor, moment_line):
        factor, _, dim = make(700.0, 1 / 16, 1)
        x = np.zeros((3, dim))
        x[0, 0], x[1, -1], x[2] = np.nextafter(700.0, np.inf), -1e3, 1e9
        assert factor.level_of(x).tolist() == [0, 0, 0]
        assert factor.sums(x)[1] == 3 * 4 * factor.nodes[0]


@pytest.mark.parametrize("intervals", [[(0.0, 0.25), (0.25, 0.375)],
                                       [(0.1, 0.35)],
                                       [(0.0, 0.25), (0.3, 0.55)],
                                       [(0.5, 0.5)], []])
def test_line_evaluator_rejects_intervals_off_one_grid(intervals):
    # unequal sides, off the grid [r h, (r+1) h], no positive side
    with pytest.raises(ValueError, match="intervals must"):
        LineEvaluator(intervals, None, MOMENT.phase, 8.0, 10.0)


def test_moment_curve_lift_keeps_its_level_0_node_count():
    # the lift's bound is the curve's, max |c'(t)|_1 = |c'(1)|_1 = 10
    lift = curve_lift(MOMENT, (0.0, 0.25), (0.75, 1.0))
    assert lift.phase_derivative_bound() == MOMENT.phase_derivative_bound() == 10.0
    f = AmplitudeField.constant(3, support=[DyadicSquare(3, 0, 6), DyadicSquare(3, 1, 7)])
    for x_max in (6.0, 60.0, 700.0):
        ev = extension_evaluator(lift, f, x_max)
        n0 = nodes_for_cycles(x_max * 10.0 / 8)
        assert ev._factors[0].nodes[0] == n0
        assert ev.nodes_per_sample == n0 * (2 + 2)


def test_refine_scales_every_ladder_level():
    x_max = measurement_ball(4, 64.0).quantile_radius(X_MAX_TAIL)
    f = AmplitudeField.separable(3, g1, g2)
    base = extension_evaluator(SQUARES, f, x_max)
    fine = extension_evaluator(SQUARES, f.refine(3), x_max)
    for a, b in zip(base._factors, fine._factors):
        assert b.nodes.tolist() == (3 * a.nodes).tolist()
    x = np.random.default_rng(7).uniform(-x_max, x_max, size=(64, 4))
    x *= 2.0 ** -(np.arange(64) % 6)[:, None]
    assert np.array_equal(base._factors[0].level_of(x), fine._factors[0].level_of(x))
    assert fine.node_samples == 0
    fine.cell_values(x)
    base.cell_values(x)
    assert fine.node_samples == 3 * base.node_samples


def test_ladder_at_zero_radius_and_zero_batch_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x_max in (0.0, 5.0):
            ev = extension_evaluator(SQUARES, AmplitudeField.constant(2), x_max)
            vals = ev.total(np.zeros((3, 4)))
            np.testing.assert_allclose(vals, 1.0, rtol=1e-13)
            assert ev.cell_values(np.zeros((0, 4))).shape == (16, 0)
        zero = extension_evaluator(SQUARES, AmplitudeField.constant(2), 0.0)
        assert zero._factors[0].nodes.tolist() == [16]


def test_node_samples_counts_what_each_engine_sums():
    x_max = measurement_ball(4, 64.0).quantile_radius(X_MAX_TAIL)
    x = np.random.default_rng(11).uniform(-x_max, x_max, size=(40, 4))
    x[:20] /= 8
    ev = extension_evaluator(SQUARES, AmplitudeField.separable(3, g1, g2), x_max)
    ev.cell_values(x)
    ev.total(x[:5])
    level = ev._factors[0].level_of(x)
    per_sample = 16 * ev._factors[0].nodes            # 8 rows + 8 columns
    assert ev.node_samples == per_sample[level].sum() + per_sample[level[:5]].sum()
    assert ev.node_samples < ev.nodes_per_sample * 45
    for field, surface in ((AmplitudeField.constant(2), FLAT),
                           (AmplitudeField.from_function(1, lambda t, s: t + s), SQUARES),
                           (AmplitudeField.atomic([[0.1, 0.2], [0.3, 0.9]], [1, 2]),
                            SQUARES)):
        ev = extension_evaluator(surface, field, x_max)
        ev.cell_values(x)
        assert ev.node_samples == ev.nodes_per_sample * 40
    line = LineEvaluator([(0.0, 0.125), (0.125, 0.25)], None, MOMENT.phase, x_max,
                         MOMENT.phase_derivative_bound())
    line.interval_values(x)
    line.total(x[:5])
    level = line.level_of(x)
    assert line.node_samples == 2 * (line.nodes[level].sum() + line.nodes[level[:5]].sum())
    assert line.node_samples < 2 * line.nodes[0] * 45


def check_curve_lift(x_max, x):
    """A curve lift's separable cell values, summed directly from the
    curve's phase tables, against the tensor path on the x_max nodes;
    returns the evaluator."""
    lift = curve_lift(moment_curve(), (0.0, 0.25), (0.75, 1.0))
    f = AmplitudeField.separable(3, g1, g2, support=[
        DyadicSquare(3, 0, 6), DyadicSquare(3, 1, 7), DyadicSquare(3, 1, 6)])
    ev = extension_evaluator(lift, f, x_max)
    assert ev._mode == "separable"
    assert not any(factor._closed for factor in ev._factors)
    got = ev.cell_values(x)
    want = extension_evaluator(lift, generic_copy(f), x_max).cell_values(x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    return ev


def test_curve_lift_keeps_the_direct_interval_sums():
    x = np.random.default_rng(53).uniform(-6.0, 6.0, size=(9, 4))
    check_curve_lift(6.0, x)


def test_curve_lift_ladder_sums_every_level():
    # at x_max = 60 the curve-lift factors have a five-level node ladder
    rng = np.random.default_rng(53)
    x = rng.uniform(-60.0, 60.0, size=(9, 4)) * 2.0 ** -rng.integers(0, 5, size=9)[:, None]
    ev = check_curve_lift(60.0, x)
    assert len(np.unique(ev._factors[0].level_of(x))) >= 3


def test_separable_engine_default_and_refined_quadrature_agree():
    # the benchmark's quadrature self-check on the indicator N=256 cell
    ball = measurement_ball(4, 256.0)
    x_max = ball.quantile_radius(X_MAX_TAIL)
    rng = np.random.default_rng(59)
    v = rng.standard_normal((16, 4))
    x = v * (x_max * rng.random(16) ** 0.25 / np.linalg.norm(v, axis=1))[:, None]
    f = AmplitudeField.constant(4)
    base = extension_evaluator(SQUARES, f, x_max).total(x)
    fine = extension_evaluator(SQUARES, f.refine(2), x_max).total(x)
    assert np.abs(base - fine).max() <= 1e-8 * np.abs(fine).max()


def longdouble_factor(rows, h, u, amp, lin, quad):
    """sum_j amp[k, j] e(lin t + quad t^2) at t = rows[k] h + u[j], with the
    phase, its reduction mod 1 and the sum in long double; cos and sin of
    the reduced angle (|angle| <= pi) are taken in double, within 1e-16."""
    lin, quad = lin.astype(np.longdouble), quad.astype(np.longdouble)
    out = []
    for k, r in enumerate(rows):
        t = np.longdouble(r) * np.longdouble(h) + u.astype(np.longdouble)
        ph = np.multiply.outer(t, lin) + np.multiply.outer(t * t, quad)
        ang = 2 * np.pi * (ph - np.rint(ph)).astype(float)
        a = amp[k].astype(np.clongdouble)[:, None]
        out.append((a * (np.cos(ang) + 1j * np.sin(ang))).sum(axis=0))
    return np.array(out)


def test_profiled_factor_over_128_rows_matches_longdouble():
    # 128 rows at 32 points: the geometry of an N=16384 cell, where rows far
    # from 0 have the largest phases.  The profiled factor sums each row's
    # own phase table directly; the bound was fixed at 1e-10 of max |value|
    # before measuring.
    lev, x_max = 7, measurement_ball(4, 16384.0).quantile_radius(X_MAX_TAIL)
    f = AmplitudeField.separable(lev, g1, g2,
                                 support=[DyadicSquare(lev, i, 3) for i in range(128)])
    x = np.random.default_rng(61).uniform(-x_max, x_max, size=(32, 4))
    ev = extension_evaluator(SQUARES, f, x_max)
    got = ev.cell_values(x)
    side = 2.0 ** -lev
    n1 = nodes_for_cycles(x_max * SQUARES.phase_derivative_bound() * side)
    assert n1 > 4 * NODE_BLOCK
    xg, wg = _gauss(n1)
    u, w = side / 2 * (xg + 1.0), side / 2 * wg
    rows = np.arange(128)
    ft = longdouble_factor(rows, side, u, g1(np.add.outer(rows * side, u)) * w,
                           x[:, 0], x[:, 2])
    fs = longdouble_factor([3], side, u, g2(3 * side + u)[None] * w, x[:, 1], x[:, 3])
    want = (ft * fs).astype(complex)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_separable_engine_memory_stays_within_one_sample_block():
    # Bounds fixed beforehand.  The constant field's factors take the
    # closed form: a factor returns (rows, batch) sums and builds its
    # edges x samples tables one block of _CIS_BLOCK // (rows + 1) samples
    # at a time.  The bound allows 48 bytes per QUAD_BLOCK_ELEMENTS element
    # for one block's tables and the e(.) kernel's scratch, and 48 bytes
    # per row-sample for the result.  The cell values add the (cells,
    # batch) result and one gathered factor.  A node table of every row at
    # once (32 bytes per node-sample) would be more than 10x the factor
    # bound.
    f = AmplitudeField.constant(4)
    x_max = measurement_ball(4, 256.0).quantile_radius(X_MAX_TAIL)
    batch, rows, cells = 4096, 16, 256
    block = 48 * QUAD_BLOCK_ELEMENTS
    n1 = nodes_for_cycles(x_max * SQUARES.phase_derivative_bound() / 16)
    assert 32 * rows * n1 * batch >= 10 * (block + 48 * rows * batch)
    ev = extension_evaluator(SQUARES, f, x_max)
    x = np.random.default_rng(67).uniform(-x_max, x_max, size=(batch, 4))
    tracemalloc.start()
    try:
        ft = ev._factors[0](x)
        _, factor_peak = tracemalloc.get_traced_memory()
        del ft
        tracemalloc.reset_peak()
        vals = ev.cell_values(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (cells, batch)
    assert factor_peak < block + 48 * rows * batch
    assert peak < block + 48 * 2 * rows * batch + 32 * cells * batch


def test_profiled_factor_memory_stays_within_one_node_block():
    # Bound fixed beforehand.  The profiled factor of an N=16384 cell sums
    # its nodes NODE_BLOCK at a time.  Per block it holds the phase table
    # (two outer products and their float sum, 24 bytes per node-sample)
    # and its e(.) (16 bytes): 40 bytes x NODE_BLOCK x batch.  On top come
    # the (rows, batch) result and one ladder level's part of it (32 bytes
    # per row-sample) and the e(.) kernel's scratch (under 80 bytes per
    # element of one pass).  A table of all the nodes at once would take
    # more than twice the bound.
    lev, x_max = 7, measurement_ball(4, 16384.0).quantile_radius(X_MAX_TAIL)
    rows, batch = 4, 4096
    f = AmplitudeField.separable(lev, g1, g2,
                                 support=[DyadicSquare(lev, i, 3) for i in range(rows)])
    factor = extension_evaluator(SQUARES, f, x_max)._factors[0]
    assert not factor._closed and factor.nodes[0] > 4 * NODE_BLOCK
    bound = 40 * NODE_BLOCK * batch + 32 * rows * batch + 80 * _CIS_BLOCK
    assert 40 * factor.nodes[0] * batch > 2 * bound
    x = np.random.default_rng(73).uniform(-x_max, x_max, size=(batch, 4))
    tracemalloc.start()
    try:
        vals, work = factor.sums(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (rows, batch)
    assert work == rows * factor.nodes[factor.level_of(x)].sum()
    assert peak < bound


# -- the atomic engine's progression split --------------------------------------


def flat_line_field(n_scale):
    pts = flat_line_points(n_scale)
    return AmplitudeField.atomic(pts, np.ones(len(pts)))


def proposal_chunk(n_scale, n=4096, seed=71):
    """A chunk of the sampling proposal of the N = n_scale measurement ball,
    and the frequency bound the evaluator is built for."""
    ball = measurement_ball(4, n_scale)
    x, _ = _MixtureProposal(ball, defensive=True).sample(seed, 0, n)
    return x, ball.quantile_radius(X_MAX_TAIL)


def longdouble_atomic(phi, amps, x):
    """amps[k] e(x.phi[k]) with the phase and its reduction mod 1 in long
    double; cos and sin of the reduced angle (|angle| <= pi) in double."""
    ph = phi.astype(np.longdouble) @ x.T.astype(np.longdouble)
    ang = 2 * np.pi * (ph - np.rint(ph)).astype(float)
    return amps[:, None] * (np.cos(ang) + 1j * np.sin(ang))


def atomic_bound(phi, amps, x):
    """8 pi eps max|x.psi| + 1e-15, relative to the largest amplitude."""
    return (8 * np.pi * np.finfo(float).eps * np.abs(phi @ x.T).max()
            + 1e-15) * np.abs(amps).max()


@pytest.mark.parametrize("n_scale, split", [(64, 3), (1024, 6), (16384, 12), (100, None)])
def test_flat_line_atoms_take_the_split_when_exact(n_scale, split):
    # N = 100 has 10 atoms at k/10, which is inexact, so its surface points
    # are no exact progression and keep the direct sum
    ev = extension_evaluator(FLAT, flat_line_field(n_scale), 1.0)
    assert ev._mode == "atomic"
    assert ev._split == split


def test_progression_split_detection():
    rng = np.random.default_rng(73)
    line = np.column_stack([np.full(12, 0.25), np.arange(12) / 16])
    cases = [
        (rng.random((12, 2)), None),            # random atoms
        (line[:4], None),                       # n <= 4: the split saves nothing
        (line[:5], None),
        (line[:6], 3),
        (line[::-1], 4),                        # reversed order: still exact
        (np.vstack([line[:11], [[0.25, 0.9]]]), None),
    ]
    for pts, split in cases:
        f = AmplitudeField.atomic(pts, np.ones(len(pts)))
        assert extension_evaluator(FLAT, f, 1.0)._split == split


@pytest.mark.parametrize("n, amps", [
    (50, "random"), (50, "constant"), (36, "random"), (7, "constant"), (12, "reversed"),
])
def test_progression_split_matches_longdouble(n, amps):
    # t = 1/4, s = 1/8 + k/64 on the flat-line surface: every psi coordinate
    # is dyadic, so the points are an exact progression with a t^2 and a ts
    # part.  n = 50 is not a multiple of b = 8.
    rng = np.random.default_rng(79 + n)
    pts = np.column_stack([np.full(n, 0.25), 0.125 + np.arange(n) / 64])
    a = {"random": rng.standard_normal(n) + 1j * rng.standard_normal(n),
         "constant": np.full(n, 0.5 - 2j, dtype=complex),
         "reversed": np.ones(n, dtype=complex)}[amps]
    if amps == "reversed":
        pts = pts[::-1]
    x = rng.uniform(-300.0, 300.0, size=(333, 4))
    ev = extension_evaluator(FLAT, AmplitudeField.atomic(pts, a), 300.0)
    assert ev._split is not None
    want = longdouble_atomic(ev._phase, a, x)
    got = ev.cell_values(x)
    assert np.abs(got - want).max() <= atomic_bound(ev._phase, a, x)


def test_flat_line_split_and_direct_sum_are_accurate(monkeypatch):
    # a proposal chunk at N = 16384, where max|x.psi| is about 1.6e4 and the
    # bound (fixed beforehand) about 8.9e-11
    f = flat_line_field(16384)
    x, x_max = proposal_chunk(16384.0)
    split = extension_evaluator(FLAT, f, x_max)
    monkeypatch.setattr(fields_module, "_progression_split", lambda phi: None)
    direct = extension_evaluator(FLAT, f, x_max)
    assert split._split == 12 and direct._split is None
    want = longdouble_atomic(split._phase, f.amplitudes, x)
    bound = atomic_bound(split._phase, f.amplitudes, x)
    assert bound < 1e-10
    for ev in (split, direct):
        assert np.abs(ev.cell_values(x) - want).max() <= bound


def test_progression_split_memory():
    # Bound fixed beforehand: the (n + b + ceil(n/b)) x B complex tables of
    # the values, I and O, plus 2 MB for the phase tables of I and O, c0, c1
    # and the e(.) kernel's 1.2 MB scratch.  The direct sum's n x B phase
    # table alone is 4 MB here.
    f = flat_line_field(16384)
    x, x_max = proposal_chunk(16384.0)
    ev = extension_evaluator(FLAT, f, x_max)
    n, b, batch = 128, ev._split, x.shape[0]
    bound = 16 * (n + b + -(-n // b)) * batch + 2 * 2 ** 20
    tracemalloc.start()
    try:
        vals = ev.cell_values(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (n, batch)
    assert peak < bound


def test_indicator_cell_values_memory_stays_within_its_tables():
    # Bound fixed beforehand: the (cells, B) complex result, the two (16, B)
    # factor tables, the closed form's block tables and the e(.) kernel's
    # scratch (48 bytes per QUAD_BLOCK_ELEMENTS element, as in the separable
    # engine's test above) and 2 MB.  Gathering a factor's rows for every
    # cell at once would add a second (cells, B) table, more than the bound
    # leaves beyond the result.
    bundle = scenario(ScenarioSpec(kind="indicator", n_scale=256.0))
    x, x_max = proposal_chunk(256.0)
    ev = extension_evaluator(bundle.surface, bundle.fields[0], x_max)
    cells, (rows, cols), batch = 256, ev.factor_layout[3], x.shape[0]
    slack = 48 * QUAD_BLOCK_ELEMENTS + 2 * 2 ** 20
    bound = 16 * (cells + rows + cols) * batch + slack
    assert 16 * cells * batch > slack + 16 * (rows + cols) * batch
    tracemalloc.start()
    try:
        vals = ev.cell_values(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev.n_cells == cells and vals.shape == (cells, batch)
    assert peak < bound


# -- the closed form of the unit-profile factors ------------------------------

EPS = np.finfo(float).eps


def chirp_mp(lin, quad, a, b):
    """int_a^b e(lin t + quad t^2) dt to 30 digits, for the doubles given, on
    [a, b] within [0, 1]: by erf after completing the square, or, where
    quad t^2 stays below 1e-20 cycles, by the linear form."""
    lin, quad, a, b = (mp.mpf(float(v)) for v in (lin, quad, a, b))
    if abs(quad) < mp.mpf(10) ** -20:
        if lin == 0:
            return complex(b - a)
        with mp.workdps(32 + int(mp.log10(abs(lin) + 1))):
            return complex((mp.expjpi(2 * lin * b) - mp.expjpi(2 * lin * a))
                           / (2j * mp.pi * lin))
    with mp.workdps(32 + int(mp.log10(abs(lin) + abs(quad) + lin * lin / abs(quad) + 1))):
        t0 = -lin / (2 * quad)
        k = mp.sqrt(-2j * mp.pi * quad)
        return complex(mp.expjpi(-lin * lin / (2 * quad)) * mp.sqrt(mp.pi) / (2 * k)
                       * (mp.erf(k * (b - t0)) - mp.erf(k * (a - t0))))


def chirp_bound(lin, quad, h):
    """The accuracy asked of an interval of side h: 2e-13 h, plus the
    rounding of phases of |lin| + |quad| cycles."""
    return 2e-13 * h + 4 * EPS * (abs(lin) + abs(quad)) * h


SEPARABLE = quad_surface((0.9, 0, -0.3, 0.6, 0, 1.1))


@pytest.mark.parametrize("center", [None, (0.6, -0.45, 0.3, 0.8)])
def test_closed_form_matches_mpmath_on_mixture_draws(center):
    # 820 draws at each N (4100 in all) of the measurement ball's sampling
    # proposal, at the origin and off it (the centre in units of N); even
    # draws check the interval nearest the stationary point, odd ones the
    # rows in turn.  The t factor takes N = 16, 256, 4096, the s factor
    # N = 64, 1024.
    for i, n_scale in enumerate((16, 64, 256, 1024, 4096)):
        level = int(np.log2(n_scale)) // 2
        c = None if center is None else n_scale * np.asarray(center)
        ball = measurement_ball(4, float(n_scale), center=c)
        x, _ = _MixtureProposal(ball, defensive=True).sample(61 + i, 0, 820)
        ev = extension_evaluator(SEPARABLE, AmplitudeField.constant(level), _x_max(ball))
        assert ev._mode == "separable"
        factor = ev._factors[i % 2]
        assert factor._closed
        got = factor.sums(x)[0]
        lin = x[:, factor._lin]
        quad = x[:, -2:] @ factor._quad
        h, rows = factor._side, len(factor.rows)
        for k in range(x.shape[0]):
            r = k % rows
            if k % 2 == 0 and quad[k] != 0:
                r = int(np.clip(np.floor(-lin[k] / (2 * quad[k]) / h), 0, rows - 1))
            want = chirp_mp(lin[k], quad[k], r * h, (r + 1) * h)
            assert abs(got[r, k] - want) <= chirp_bound(lin[k], quad[k], h)


def test_closed_form_matches_mpmath_on_its_branches():
    # stationary points inside an interval, on an edge and just outside it;
    # quad = 0, +-1e-300 and < 0; s h and min |phi'| h on both sides of the
    # cancellation thresholds; a large phase
    h = 1 / 16
    factor = AxisFactor(np.arange(16), h, 1.0, 3.0, 1, None, None, 0, (1.0,))
    coef = []
    for quad in (1e3, -1e3, 37.5, -2.25, 5e4):
        for t0 in (5.3 * h, 5 * h, 5 * h - 1e-12, 6 * h + 1e-9, 0.0, 1.0, 5 * h + 1e-7 * h):
            coef.append((-2 * quad * t0, quad))
    for lin in (0.0, 1e-9, 0.3, 37.0, -1e4):
        coef.append((lin, 0.0))
    for quad in (1e-300, -1e-300):
        for lin in (0.0, 1e-3, 5.0, -700.0):
            coef.append((lin, quad))
    # s h = sqrt(2 pi quad) h from 0.016 to about 0.1; phi' h about 0.01
    for quad in (1e-4, 1e-2, 0.4, 0.1 ** 2 / (2 * np.pi * h * h), 2.6, -0.4):
        for lin in (0.0, 0.16, 0.1599, 0.1601, -0.16 - 2 * quad * 7 * h, 3.0):
            coef.append((lin, quad))
    coef.append((-3.1e4, 1.7e4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = factor.sums(np.array(coef))[0]
    for k, (lin, quad) in enumerate(coef):
        for r in range(16):
            want = chirp_mp(lin, quad, r * h, (r + 1) * h)
            assert abs(got[r, k] - want) <= chirp_bound(lin, quad, h)


def test_unit_profiles_take_the_closed_form_and_others_the_ladder(monkeypatch):
    x = np.random.default_rng(67).uniform(-40.0, 40.0, size=(9, 4))
    calls = []

    def count(name):
        real = getattr(fields_module, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(fields_module, name, wrapped)

    count("_chirp_sums")
    count("_interval_sums")
    closed = (AmplitudeField.constant(3), AmplitudeField.random_phase(3, seed=4),
              AmplitudeField.constant(3, 2.0, support=GAPPED))
    for f in closed:
        calls.clear()
        ev = extension_evaluator(SEPARABLE, f, 40.0)
        assert ev._mode == "separable"
        assert all(factor._closed and not factor._levels for factor in ev._factors)
        vals = ev.cell_values(x)
        assert set(calls) == {"_chirp_sums"}
        # the closed form does not depend on the node count
        assert np.array_equal(extension_evaluator(SEPARABLE, f.refine(3), 40.0).cell_values(x),
                              vals)
    calls.clear()
    parabola = AxisFactor(np.arange(4), 0.25, 40.0, 3.0, 1, None, None, 0, (1.0,))
    assert parabola._closed
    parabola(x[:, :2])
    assert set(calls) == {"_chirp_sums"}
    for f in (AmplitudeField.separable(3, g1, None), AmplitudeField.separable(3, None, g2)):
        calls.clear()
        ev = extension_evaluator(SEPARABLE, f, 40.0)
        ev.cell_values(x)
        assert set(calls) == {"_interval_sums", "_chirp_sums"}
        assert [factor._closed for factor in ev._factors] == [f.g1 is None, f.g2 is None]
    calls.clear()
    lift = curve_lift(MOMENT, (0.0, 0.25), (0.75, 1.0))
    ev = extension_evaluator(lift, AmplitudeField.constant(3, support=[DyadicSquare(3, 0, 6)]),
                             40.0)
    ev.cell_values(x)
    line = LineEvaluator([(0.0, 0.125)], None, MOMENT.phase, 40.0,
                         MOMENT.phase_derivative_bound())
    line.total(x)
    assert set(calls) == {"_interval_sums"}
    assert not any(factor._closed for factor in ev._factors) and not line._closed
    empty = extension_evaluator(SEPARABLE, AmplitudeField.constant(3, support=[]), 40.0)
    assert empty._mode == "tensor"


def test_closed_form_counts_edges_and_keeps_its_block_budget():
    # 64 rows (N = 4096): the (rows, B) result plus the temporaries of one
    # block of _CIS_BLOCK // 65 samples, whose tables of edges x samples
    # elements take about 40 complex values per element in all
    rows, batch = 64, 6000
    factor = AxisFactor(np.arange(rows), 1 / rows, 1e4, 3.0, 1, None, None, 0, (1.0,))
    x = np.random.default_rng(71).uniform(-1e4, 1e4, size=(batch, 2))
    tracemalloc.start()
    try:
        vals, work = factor.sums(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (rows, batch)
    assert work == (rows + 1) * batch
    assert peak < 16 * rows * batch + 40 * 16 * _CIS_BLOCK
    # rows with gaps sum every row from the first to the last
    gapped = AxisFactor(np.array([1, 3, 4, 9]), 1 / 16, 10.0, 3.0, 1, None, None, 0, (1.0,))
    vals, work = gapped.sums(x[:5])
    assert work == 10 * 5
    full = AxisFactor(np.arange(1, 10), 1 / 16, 10.0, 3.0, 1, None, None, 0, (1.0,))
    assert np.array_equal(vals, full.sums(x[:5])[0][[0, 2, 3, 8]])
