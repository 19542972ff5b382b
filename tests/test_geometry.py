import numpy as np
import pytest

from declab import geometry
from declab.geometry import (CurveEvaluator, DegenerateParametrizationError,
                             QuadCoeffs, SurfaceEvaluator, curve_lift,
                             curve_nondegeneracy_det,
                             fd_derivative, is_admissible, is_nondegenerate,
                             lift_det_grid_min, lift_nondegeneracy_det,
                             moment_curve, normal_form, quad_surface,
                             random_admissible)
from declab.transversality import transversality_form


def test_quad_surface_squares_pair():
    surf = quad_surface((1, 0, 0, 0, 0, 1))
    t, s = 0.3, 0.8
    np.testing.assert_allclose(surf.value(t, s), [t, s, t * t, s * s])


def test_quad_surface_twisted_pair():
    surf = quad_surface((1, 0, 0, 0, 0.5, 0))
    t, s = 0.25, 0.6
    np.testing.assert_allclose(surf.value(t, s), [t, s, t * t, t * s])


def test_quad_surface_flat_plane():
    surf = quad_surface((0, 0, 0, 0, 0, 0))
    np.testing.assert_allclose(surf.value(0.7, 0.1), [0.7, 0.1, 0.0, 0.0])


def test_quad_surface_rejects_nonfinite():
    with pytest.raises(ValueError):
        quad_surface((np.nan, 0, 0, 0, 0, 1))


def _fd_partial(surf, t, s, which, h=1e-4):
    if which == "t":
        return fd_derivative(lambda u: surf.value(u, s), t, 1, step=h)
    if which == "s":
        return fd_derivative(lambda u: surf.value(t, u), s, 1, step=h)
    if which == "tt":
        return fd_derivative(lambda u: surf.value(u, s), t, 2, step=h)
    if which == "ss":
        return fd_derivative(lambda u: surf.value(t, u), s, 2, step=h)
    f = surf.value
    return (f(t + h, s + h) - f(t + h, s - h) - f(t - h, s + h) + f(t - h, s - h)) / (4 * h * h)


@pytest.mark.parametrize("which", ["t", "s", "tt", "ts", "ss"])
def test_derivatives_match_finite_differences(which):
    rng = np.random.default_rng(3)
    surfaces = [quad_surface(rng.uniform(-1, 1, 6)) for _ in range(3)]
    surfaces.append(curve_lift(moment_curve(), (0.0, 0.4), (0.6, 1.0)))
    for surf in surfaces:
        (tl, th), (sl, sh) = surf.domain
        t = rng.uniform(tl + 0.05, th - 0.05)
        s = rng.uniform(sl + 0.05, sh - 0.05)
        got = surf.partial(t, s, which)
        want = _fd_partial(surf, t, s, which)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) / scale <= 1e-6


def test_admissibility_examples():
    assert is_admissible(QuadCoeffs(1, 0, 0, 0, 0, 1), 2.0)       # minor 1
    assert is_admissible(QuadCoeffs(1, 0, 0, 0, 0.5, 0), 2.0)     # minor 1/2
    assert not is_admissible(QuadCoeffs(1, 0, 0, 2, 0, 0), 10.0)  # proportional rows
    with pytest.raises(ValueError):
        is_admissible(QuadCoeffs(1, 0, 0, 0, 0, 1), 0.0)


def test_random_admissible_lands_in_class():
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = random_admissible(rng, c_bound=10.0)
        assert is_admissible(coeffs, 10.0)


def test_normal_form_recovers_quadratic_at_origin():
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = QuadCoeffs(*rng.uniform(-1, 1, 6))
        nf = normal_form(quad_surface(coeffs), 0.0, 0.0)
        # the normal frame is free up to an orthogonal mix, which preserves
        # each minor magnitude
        got = sorted(abs(m) for m in nf.coeffs.minors())
        want = sorted(abs(m) for m in coeffs.minors())
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert nf.rank2 == coeffs.rank2()


def test_normal_form_interior_point_taylor_fit():
    surf = quad_surface((1, 0, 0, 0, 0, 1))
    nf = normal_form(surf, 0.5, 0.5)
    assert nf.rank2
    # cubic remainder scales like the cube of the patch radius
    fine = normal_form(surf, 0.5, 0.5, patch_radius=0.05)
    assert nf.residual_bound < 5e-3
    assert fine.residual_bound < nf.residual_bound / 4.0


def test_normal_form_curve_lift_rank2():
    surf = curve_lift(moment_curve(), (0.0, 0.3), (0.7, 1.0))
    nf = normal_form(surf, 0.15, 0.85)
    assert nf.rank2
    assert abs(lift_nondegeneracy_det(moment_curve(), 0.15, 0.85)) > 1e-3


def test_normal_form_rejects_degenerate_parametrization():
    # a curve with vanishing first derivative at an interior point
    curve = CurveEvaluator([[0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]])
    surf = curve_lift(curve, (0.0, 0.4), (0.6, 1.0))
    with pytest.raises(DegenerateParametrizationError):
        # t = 0 kills the first tangent vector
        normal_form(surf, 0.0, 0.8)


def test_normal_form_deterministic_rerun():
    surf = quad_surface((0.3, -0.8, 0.1, 0.9, 0.2, -0.5))
    a = normal_form(surf, 0.4, 0.6)
    b = normal_form(surf, 0.4, 0.6)
    np.testing.assert_array_equal(a.normal, b.normal)
    np.testing.assert_array_equal(a.coeffs.as_array(), b.coeffs.as_array())


def test_form_eigenvalue_magnitudes_rotation_invariant():
    # rotating the parameter plane conjugates both quadratic forms; the
    # minors rotate too, but the eigenvalue magnitudes of the difference
    # form are geometric invariants
    rng = np.random.default_rng(9)
    for _ in range(5):
        coeffs = QuadCoeffs(*rng.uniform(-1, 1, 6))
        theta = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        rows = []
        for (a1, a2, a3) in (coeffs.as_array()[:3], coeffs.as_array()[3:]):
            m = rot.T @ np.array([[a1, a2], [a2, a3]]) @ rot
            rows.extend([m[0, 0], m[0, 1], m[1, 1]])
        rotated = QuadCoeffs(*rows)
        f0 = transversality_form(coeffs)
        f1 = transversality_form(rotated)
        np.testing.assert_allclose(sorted([abs(f0.lam1), abs(f0.lam2)]),
                                   sorted([abs(f1.lam1), abs(f1.lam2)]),
                                   rtol=1e-9, atol=1e-12)


def test_rank_check_examples():
    assert is_nondegenerate(quad_surface((1, 0, 0, 0, 0.5, 0)), 0.77, 0.13)
    assert not is_nondegenerate(quad_surface((0, 0, 0, 0, 0, 0)), 0.5, 0.5)


def test_rank_equivalence_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        coeffs = QuadCoeffs(*rng.uniform(-1, 1, 6))
        surf = quad_surface(coeffs)
        t, s = rng.uniform(0.1, 0.9, 2)
        assert is_nondegenerate(surf, t, s) == normal_form(surf, t, s).rank2


def test_curve_det_moment_diagonal():
    assert curve_nondegeneracy_det(moment_curve(), [0, 0, 0, 0]) == pytest.approx(288.0)


def test_curve_det_matches_fd_oracle():
    rng = np.random.default_rng(23)
    curve = moment_curve()
    for _ in range(10):
        ts = rng.uniform(0, 1, 4)
        want = curve_nondegeneracy_det(curve, ts)
        rows = [fd_derivative(lambda u: curve.value(u), float(ts[i]), i + 1)
                for i in range(4)]
        got = float(np.linalg.det(np.stack(rows)))
        assert abs(got - want) / max(abs(want), 1e-9) < 1e-5


def test_curve_det_zero_component():
    curve = CurveEvaluator([[0, 1], [0, 0, 1], [0, 0, 0, 1], [0]])
    rng = np.random.default_rng(1)
    assert curve_nondegeneracy_det(curve, rng.uniform(0, 1, 4)) == 0.0


def test_lift_det_values():
    curve = moment_curve()
    assert lift_nondegeneracy_det(curve, 0.0, 1.0) == pytest.approx(-24.0)
    assert lift_nondegeneracy_det(curve, 0.37, 0.37) == 0.0


def test_lift_det_grid_min_separated():
    val = lift_det_grid_min(moment_curve(), (0.0, 0.25), (0.75, 1.0), resolution=5e-3)
    assert val > 0.1


def test_curve_lift_values_and_symmetry():
    curve = moment_curve()
    surf = curve_lift(curve, (0.0, 0.25), (0.75, 1.0))
    np.testing.assert_allclose(surf.value(0.0, 1.0), [1, 1, 1, 1])
    rng = np.random.default_rng(2)
    t = rng.uniform(0, 0.25, 50)
    s = rng.uniform(0.75, 1, 50)
    np.testing.assert_allclose(surf.value(t, s), surf.value(s, t), rtol=1e-14)
    # the t-partial is independent of s
    d = surf.partial(t, s, "t")
    np.testing.assert_allclose(d, curve.derivative(t, 1), rtol=1e-14)


def test_curve_lift_separation_flag():
    assert curve_lift(moment_curve(), (0.0, 0.25), (0.75, 1.0)).separated
    assert not curve_lift(moment_curve(), (0.0, 0.6), (0.4, 1.0)).separated


def test_every_surface_defines_its_phase_derivative_bound():
    # the quadrature builders and the benchmark's tracer call it directly
    surfaces = [c for c in vars(geometry).values() if isinstance(c, type)
                and issubclass(c, SurfaceEvaluator) and c is not SurfaceEvaluator]
    assert {c.__name__ for c in surfaces} >= {"QuadSurface", "CurveLiftSurface"}
    for cls in surfaces:
        assert "phase_derivative_bound" in vars(cls), cls.__name__
    with pytest.raises(NotImplementedError):
        SurfaceEvaluator().phase_derivative_bound()
