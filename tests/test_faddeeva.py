import mpmath as mp
import numpy as np
from scipy.special import wofz

from declab.faddeeva import _W_DEGREE, _W_PIECES, _W_TABLE, _W_TAIL, w_ray

RAY = np.exp(0.25j * np.pi)


def w_mp(x):
    """w(e^{i pi/4} x) = exp(-z^2) erfc(-iz) at 40 digits, for an mpf x;
    beyond x = 1e9 by the asymptotic series, whose next term is below
    1e-120 of the value there."""
    with mp.workdps(40):
        z = mp.expjpi(mp.mpf(1) / 4) * x
        if x > 1e9:
            return 1j / (mp.sqrt(mp.pi) * z) * sum(
                mp.fac2(2 * k - 1) / (2 * z * z) ** k for k in range(7))
        return mp.exp(-z * z) * mp.erfc(-1j * z)


def w_reference(x):
    return complex(w_mp(mp.mpf(float(x))))


def ray_points():
    """Every piece's ends and just inside them, a dense run over the table
    and the start of the tail, and a log-spaced run out to 1e6 and beyond."""
    ends = (np.arange(_W_PIECES + 1) / 4.0) ** 2
    rng = np.random.default_rng(3)
    return np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
                           np.linspace(0.0, 12.0, 700), rng.uniform(0.0, 30.0, 200),
                           np.geomspace(1e-8, 1e6, 300), [1e9, 1e15, 1e300]])


def test_w_ray_matches_mpmath():
    x = ray_points()
    want = np.array([w_reference(v) for v in x])
    got = w_ray(x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


def test_w_ray_matches_scipy_wofz_on_the_ray():
    # scipy's own error on the ray reaches 1.4e-14 relative near x = 8.3
    # (against mpmath, see test_w_ray_matches_mpmath for the tight check)
    x = np.concatenate([np.linspace(0.0, 50.0, 5001), np.geomspace(50.0, 1e6, 2000)])
    want = wofz(RAY * x)
    assert np.max(np.abs(w_ray(x) - want) / np.abs(want)) <= 1.5e-14


def test_w_ray_limits_shapes_and_non_finite_input():
    assert abs(w_ray(np.array([0.0]))[0] - 1.0) <= 1e-16
    got = w_ray(np.array([[np.inf, np.nan], [0.0, 2.0]]))
    assert got.shape == (2, 2)
    assert got[0, 0] == 0.0 and np.isnan(got[0, 1])
    assert w_ray(np.zeros((0, 3))).shape == (0, 3)
    # far out, W is i / (sqrt(pi) z) times (1 + O(x^-2)), with no overflow
    big = np.array([1e150, 1e300])
    np.testing.assert_allclose(w_ray(big), 1j / (np.sqrt(np.pi) * RAY) / big, rtol=1e-15)
    assert np.isfinite(w_ray(np.array([np.finfo(float).max]))).all()


def test_w_ray_table_is_the_chebyshev_interpolant():
    # each piece is the interpolant at 14 Chebyshev nodes in s, the tail's of
    # W(x) / r with r = _W_TAIL / x and s = 2 r^2 - 1, in monomials of s
    n = _W_DEGREE + 1
    with mp.workdps(40):
        nodes = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / n) for j in range(n)]
        vander = mp.matrix([[t ** i for i in range(n)] for t in nodes])
        for k in range(_W_PIECES + 1):
            if k < _W_PIECES:
                vals = [w_mp(((2 * k + 1 + t) / 8) ** 2) for t in nodes]
            else:
                r = [mp.sqrt((1 + t) / 2) for t in nodes]
                vals = [w_mp(_W_TAIL / v) / v for v in r]
            coef = mp.lu_solve(vander, mp.matrix(vals))
            want = np.array([complex(coef[i]) for i in range(n)])
            assert np.max(np.abs(_W_TABLE[k] - want)) <= 1e-16 * np.abs(want[0])
