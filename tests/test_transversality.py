import numpy as np
import pytest

from declab.geometry import QuadCoeffs, random_admissible
from declab.grid import DyadicSquare
from declab.transversality import (bilinear_map, jacobian_determinants_fd,
                                   jacobian_residual, min_abs_form,
                                   min_abs_form_grid, transversality_form,
                                   transversality_graph)


def test_form_coefficients_squares_pair():
    form = transversality_form(QuadCoeffs(1, 0, 0, 0, 0, 1))
    assert (form.c1, form.c2, form.c3) == (0.0, 1.0, 0.0)
    assert sorted([form.lam1, form.lam2]) == [-0.5, 0.5]


def test_form_coefficients_twisted_pair():
    form = transversality_form(QuadCoeffs(1, 0, 0, 0, 0.5, 0))
    assert (form.c1, form.c2, form.c3) == (0.5, 0.0, 0.0)
    assert form.lam1 == 0.5 and form.lam2 == 0.0


def test_form_eigen_consistency_and_lower_bound():
    rng = np.random.default_rng(4)
    for _ in range(50):
        coeffs = random_admissible(rng, c_bound=10.0)
        form = transversality_form(coeffs)
        m = form.matrix
        for lam, v in ((form.lam1, form.v1), (form.lam2, form.v2)):
            assert np.max(np.abs(m @ np.array(v) - lam * np.array(v))) < 1e-10
        # admissibility at bound C forces a spectral floor
        assert abs(form.lam1) >= 1.0 / (2 * 10.0 ** 2)


def test_min_abs_form_same_square_zero():
    coeffs = QuadCoeffs(1, 0.3, -0.4, 0.2, 0.5, 1)
    sq = DyadicSquare(3, 2, 5)
    assert min_abs_form(coeffs, sq, sq) == 0.0


def test_min_abs_form_column_separation():
    coeffs = QuadCoeffs(1, 0, 0, 0, 0.5, 0)     # Q = dt^2 / 2
    r1 = DyadicSquare(3, 0, 0)
    r2 = DyadicSquare(3, 2, 0)
    assert min_abs_form(coeffs, r1, r2) == pytest.approx(0.5 * (1 / 8) ** 2, rel=1e-12)


def test_min_abs_form_diagonal_corner():
    coeffs = QuadCoeffs(1, 0, 0, 0, 0, 1)       # Q = dt ds
    r1 = DyadicSquare(3, 0, 0)
    r2 = DyadicSquare(3, 2, 2)
    assert min_abs_form(coeffs, r1, r2) == pytest.approx(1 / 64, rel=1e-12)
    # dense-grid oracle confirms the corner minimum
    grid = min_abs_form_grid(coeffs, r1, r2, resolution=1024)
    assert grid == pytest.approx(1 / 64, rel=1e-3)


def test_min_abs_form_against_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        coeffs = QuadCoeffs(*rng.uniform(-1.5, 1.5, 6))
        lev = int(rng.integers(1, 4))
        n = 2 ** lev
        r1 = DyadicSquare(lev, int(rng.integers(n)), int(rng.integers(n)))
        r2 = DyadicSquare(lev, int(rng.integers(n)), int(rng.integers(n)))
        exact = min_abs_form(coeffs, r1, r2)
        grid = min_abs_form_grid(coeffs, r1, r2, resolution=512)
        # the analytic value is the true minimum: never above the grid
        # value, and the grid can only overshoot by its resolution error
        assert exact <= grid + 1e-12
        scale = sum(abs(c) for c in transversality_form(coeffs).matrix.ravel())
        assert grid - exact <= 60.0 * scale * (r1.side / 512) ** 1 * max(r1.side, 1.0)


def test_min_abs_form_symmetry_exact():
    rng = np.random.default_rng(13)
    for _ in range(40):
        coeffs = QuadCoeffs(*rng.uniform(-2, 2, 6))
        a = DyadicSquare(3, *map(int, rng.integers(0, 8, 2)))
        b = DyadicSquare(3, *map(int, rng.integers(0, 8, 2)))
        assert min_abs_form(coeffs, a, b) == min_abs_form(coeffs, b, a)


def test_min_abs_form_monotone_under_enlargement():
    rng = np.random.default_rng(19)
    for _ in range(40):
        coeffs = QuadCoeffs(*rng.uniform(-2, 2, 6))
        child = DyadicSquare(3, *map(int, rng.integers(0, 8, 2)))
        parent = DyadicSquare(2, child.i // 2, child.j // 2)
        other = DyadicSquare(3, *map(int, rng.integers(0, 8, 2)))
        assert min_abs_form(coeffs, parent, other) <= min_abs_form(coeffs, child, other) + 1e-15


def test_min_abs_form_scaling_covariance():
    rng = np.random.default_rng(29)
    coeffs = QuadCoeffs(*rng.uniform(-1, 1, 6))
    a = DyadicSquare(3, 1, 6)
    b = DyadicSquare(3, 5, 2)
    base = min_abs_form(coeffs, a, b)
    for s in (0.5, 2.0, 3.0):
        scaled = min_abs_form(coeffs.scaled(s), a, b)
        assert scaled == pytest.approx(s ** 2 * base, rel=1e-12)


def test_graph_column_band_counts():
    # Q = dt^2/2: non-transverse partners fill the |di| <= 2 column band,
    # truncated at the boundary columns
    graph = transversality_graph(QuadCoeffs(1, 0, 0, 0, 0.5, 0), K=8)
    assert graph.strip.kind == "single"
    assert graph.max_count == 5 * 8
    assert graph.counts.min() == 3 * 8
    # counts depend only on the column index for this column-band form
    assert np.all(graph.counts == graph.counts[:, :1])


@pytest.mark.parametrize("nu", [-1.0, 0.0, float("nan"), float("inf")])
def test_graph_rejects_nu_that_is_not_finite_and_positive(nu):
    # a negative nu gave NaN strip half-widths, and nan called every pair
    # transverse
    with pytest.raises(ValueError, match="nu must be finite and > 0"):
        transversality_graph(QuadCoeffs(1, 0, 0, 0, 0, 1), K=8, nu=nu)


def test_graph_two_strips_and_agreement():
    graph = transversality_graph(QuadCoeffs(1, 0, 0, 0, 0, 1), K=8)
    assert graph.strip.kind == "double"
    # Q = dt ds factors exactly, so the eigen-strip prediction is exact
    assert graph.prediction_agreement == pytest.approx(1.0)
    # the two strips run along the parameter axes for this form
    dirs = np.abs(np.array(graph.strip.directions))
    np.testing.assert_allclose(np.sort(dirs.ravel()), [0, 0, 1, 1], atol=1e-12)


def test_graph_self_pair_never_transverse():
    rng = np.random.default_rng(31)
    for _ in range(5):
        coeffs = random_admissible(rng)
        graph = transversality_graph(coeffs, K=8)
        sq = DyadicSquare(3, int(rng.integers(8)), int(rng.integers(8)))
        assert not graph.is_transverse(sq, sq)


def test_graph_matches_direct_classification():
    rng = np.random.default_rng(37)
    coeffs = random_admissible(rng)
    k = 8
    graph = transversality_graph(coeffs, K=k)
    nu = k ** -2
    for _ in range(60):
        a = DyadicSquare(3, int(rng.integers(k)), int(rng.integers(k)))
        b = DyadicSquare(3, int(rng.integers(k)), int(rng.integers(k)))
        assert graph.is_transverse(a, b) == (min_abs_form(coeffs, a, b) >= nu)


def test_graph_rejects_bad_k():
    with pytest.raises(ValueError):
        transversality_graph(QuadCoeffs(1, 0, 0, 0, 0, 1), K=12)


def test_prediction_mismatches_confined_to_boundary_band():
    # when the eigen-strip prediction disagrees with the exact classifier,
    # the pair must sit within a whisker of the transversality threshold
    from declab.transversality import _rect_min_abs
    rng = np.random.default_rng(53)
    for _ in range(10):
        coeffs = random_admissible(rng)
        for k in (8, 16):
            g = transversality_graph(coeffs, K=k)
            mism = g.offset_nontransverse != g.offset_predicted
            if not mism.any():
                continue
            h = 1.0 / k
            off = np.arange(-(k - 1), k)
            di, dj = np.meshgrid(off, off, indexing="ij")
            mins = _rect_min_abs(g.form.c1, g.form.c2, g.form.c3,
                                 di * h - h, di * h + h, dj * h - h, dj * h + h)
            # a mismatch is always predicted-non-transverse with the exact
            # minimum barely over the threshold
            assert np.all(g.offset_predicted[mism])
            assert np.all(mins[mism] >= g.nu)
            assert float((mins[mism] / g.nu).max()) < 2.0


def test_graph_counting_envelope_slope():
    rng = np.random.default_rng(41)
    draws = [random_admissible(rng) for _ in range(8)]
    env = {}
    for k in (8, 16):
        env[k] = max(transversality_graph(c, K=k).max_count for c in draws)
    slope = np.log(env[16] / env[8]) / np.log(2)
    assert 0.6 <= slope <= 1.4


def test_jacobian_identity_signed():
    rng = np.random.default_rng(43)
    for _ in range(10):
        coeffs = QuadCoeffs(*rng.uniform(-1, 1, 6))
        pts = rng.uniform(0, 1, size=(20, 4))
        dets = jacobian_determinants_fd(coeffs, pts)
        form = transversality_form(coeffs)
        q = form(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
        np.testing.assert_allclose(dets, 4.0 * q, rtol=0, atol=5e-7)


def test_jacobian_degenerate_point_both_zero():
    coeffs = QuadCoeffs(0.3, -0.2, 0.9, 1.1, 0.4, -0.6)
    pts = np.array([[0.3, 0.6, 0.3, 0.6]])
    det = jacobian_determinants_fd(coeffs, pts)[0]
    form = transversality_form(coeffs)
    assert abs(det) < 1e-8
    assert form(0.0, 0.0) == 0.0


def test_jacobian_residual_small():
    assert jacobian_residual(QuadCoeffs(1, 0, 0, 0, 0, 1), 200, seed=0) < 1e-5
    rng = np.random.default_rng(47)
    for _ in range(20):
        assert jacobian_residual(random_admissible(rng), 50,
                                 seed=int(rng.integers(2 ** 31))) < 1e-5


def test_bilinear_map_formula():
    coeffs = QuadCoeffs(1, 0, 0, 0, 0.5, 0)
    pts = np.array([[0.1, 0.2, 0.3, 0.4]])
    out = bilinear_map(coeffs, pts)[0]
    np.testing.assert_allclose(out, [0.4, 0.6, 0.01 + 0.09, 0.02 + 0.12])
