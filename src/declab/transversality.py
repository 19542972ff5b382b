"""Transversality of parameter squares under the difference quadratic form.

For a quadratic model surface the bilinear change of variables has Jacobian
exactly 4 Q(dt, ds) with Q(x, y) = c1 x^2 + c2 x y + c3 y^2 built from the
2x2 minors of the coefficient matrix.  Two sets are nu-transverse when |Q|
stays >= nu on all difference vectors; this module classifies dyadic square
pairs, predicts the non-transverse strips from the eigen geometry of Q, and
verifies the Jacobian identity by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import QuadCoeffs
from .grid import DyadicSquare

_EIGEN_TIE = 0.0  # exact-zero tie rule for the eigenvector sign convention


@dataclass(frozen=True)
class TransversalityForm:
    """The difference form Q and its eigen data.

    lam1, lam2 are the eigenvalues of [[c1, c2/2], [c2/2, c3]] ordered by
    magnitude (|lam1| >= |lam2|); v1, v2 the matching orthonormal
    eigenvectors with a deterministic sign convention.
    """

    c1: float
    c2: float
    c3: float
    lam1: float
    lam2: float
    v1: tuple[float, float]
    v2: tuple[float, float]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.c1, self.c2 / 2.0], [self.c2 / 2.0, self.c3]])

    def __call__(self, dt, ds):
        dt = np.asarray(dt, dtype=float)
        ds = np.asarray(ds, dtype=float)
        return self.c1 * dt * dt + self.c2 * dt * ds + self.c3 * ds * ds

    @property
    def definite(self) -> bool:
        """True when the eigenvalues do not have strictly opposite signs."""
        return self.lam1 * self.lam2 >= 0.0


def _fix_sign(v: np.ndarray) -> np.ndarray:
    if v[0] > _EIGEN_TIE:
        return v
    if v[0] < -_EIGEN_TIE:
        return -v
    return v if v[1] >= 0 else -v


def transversality_form(coeffs: QuadCoeffs) -> TransversalityForm:
    """Build the difference form from the minors of the coefficient matrix."""
    c1, c2, c3 = coeffs.minors()
    half_tr = (c1 + c3) / 2.0
    rad = np.hypot((c1 - c3) / 2.0, c2 / 2.0)
    lo, hi = half_tr - rad, half_tr + rad
    if abs(hi) >= abs(lo):
        lam1, lam2 = hi, lo
    else:
        lam1, lam2 = lo, hi
    if rad < 1e-300:
        v1 = np.array([1.0, 0.0])
    else:
        # (M - lam1 I) v = 0; take the better conditioned kernel direction
        cand_a = np.array([c2 / 2.0, lam1 - c1])
        cand_b = np.array([lam1 - c3, c2 / 2.0])
        v1 = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
        v1 = v1 / np.linalg.norm(v1)
    v1 = _fix_sign(v1)
    v2 = _fix_sign(np.array([-v1[1], v1[0]]))
    return TransversalityForm(c1=float(c1), c2=float(c2), c3=float(c3),
                              lam1=float(lam1), lam2=float(lam2),
                              v1=(float(v1[0]), float(v1[1])),
                              v2=(float(v2[0]), float(v2[1])))


# ---------------------------------------------------------------------------
# exact minimum of |Q| over a difference rectangle


def _rect_min_abs(c1, c2, c3, xlo, xhi, ylo, yhi):
    """Vectorized min of |Q| over rectangles [xlo,xhi] x [ylo,yhi].

    Q restricted to each edge is a one-variable quadratic, so the minimum is
    attained at a corner, an interior edge vertex, or on the zero set of Q.
    The zero set is a union of lines through the origin, which must cross
    the rectangle boundary, so candidate values bracketing zero (or the
    rectangle containing the origin) detect it exactly.
    """
    xlo, xhi, ylo, yhi = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (xlo, xhi, ylo, yhi)))

    def q(x, y):
        return c1 * x * x + c2 * x * y + c3 * y * y

    cands = [q(xlo, ylo), q(xlo, yhi), q(xhi, ylo), q(xhi, yhi)]
    nan = np.full(xlo.shape, np.nan)
    if c3 != 0.0:
        for xx in (xlo, xhi):
            ystar = -c2 * xx / (2.0 * c3)
            inside = (ystar > ylo) & (ystar < yhi)
            cands.append(np.where(inside, q(xx, ystar), nan))
    if c1 != 0.0:
        for yy in (ylo, yhi):
            xstar = -c2 * yy / (2.0 * c1)
            inside = (xstar > xlo) & (xstar < xhi)
            cands.append(np.where(inside, q(xstar, yy), nan))
    vals = np.stack(cands)
    with np.errstate(invalid="ignore"):
        vmin = np.nanmin(vals, axis=0)
        vmax = np.nanmax(vals, axis=0)
        amin = np.nanmin(np.abs(vals), axis=0)
    zero = ((xlo <= 0) & (xhi >= 0) & (ylo <= 0) & (yhi >= 0)) | ((vmin <= 0) & (vmax >= 0))
    return np.where(zero, 0.0, amin)


def _difference_rectangle(sq1: DyadicSquare, sq2: DyadicSquare):
    a0, a1, b0, b1 = sq1.bounds
    c0, c1_, d0, d1 = sq2.bounds
    return a0 - c1_, a1 - c0, b0 - d1, b1 - d0


def min_abs_form(coeffs_or_form, sq1: DyadicSquare, sq2: DyadicSquare) -> float:
    """min over (p1, p2) in sq1 x sq2 of |Q(p1 - p2)|, computed analytically
    over the Minkowski difference rectangle."""
    form = (coeffs_or_form if isinstance(coeffs_or_form, TransversalityForm)
            else transversality_form(coeffs_or_form))
    xlo, xhi, ylo, yhi = _difference_rectangle(sq1, sq2)
    return float(_rect_min_abs(form.c1, form.c2, form.c3,
                               np.array(xlo), np.array(xhi),
                               np.array(ylo), np.array(yhi)))


class NonTransverseError(ValueError):
    def __init__(self, min_form: float, required: float):
        super().__init__(
            f"squares are not transverse: min |Q| = {min_form:.3g} < {required:.3g}")
        self.min_form = min_form
        self.required = required


def require_transverse(coeffs, sq1: DyadicSquare, sq2: DyadicSquare, nu: float) -> float:
    """min_abs_form of the pair; NonTransverseError if it is below nu."""
    min_form = min_abs_form(coeffs, sq1, sq2)
    if min_form < nu * (1 - 1e-12):
        raise NonTransverseError(min_form, nu)
    return min_form


def min_abs_form_grid(coeffs_or_form, sq1: DyadicSquare, sq2: DyadicSquare,
                      resolution: int = 1024) -> float:
    """Dense-grid fallback over the difference rectangle; the test oracle for
    the analytic minimizer, not the production path."""
    form = (coeffs_or_form if isinstance(coeffs_or_form, TransversalityForm)
            else transversality_form(coeffs_or_form))
    xlo, xhi, ylo, yhi = _difference_rectangle(sq1, sq2)
    x = np.linspace(xlo, xhi, resolution + 1)
    y = np.linspace(ylo, yhi, resolution + 1)
    vals = np.abs(form(x[:, None], y[None, :]))
    return float(vals.min())


# ---------------------------------------------------------------------------
# pairwise classification over the level-m grid


@dataclass(frozen=True)
class StripDescription:
    """Predicted non-transverse geometry: strips around R along the given
    unit directions in the (t,s) plane, of the given half widths."""

    kind: str                      # "single" (definite) or "double" (indefinite)
    directions: tuple[tuple[float, float], ...]
    half_widths: tuple[float, ...]


@dataclass
class TransversalityGraph:
    K: int
    nu: float
    form: TransversalityForm
    counts: np.ndarray             # (K, K) non-transverse partner counts
    offset_nontransverse: np.ndarray   # (2K-1, 2K-1) mask over index offsets
    offset_predicted: np.ndarray       # same shape, eigen-strip prediction
    strip: StripDescription
    prediction_agreement: float    # fraction of ordered pairs where both agree

    def is_transverse(self, sq1: DyadicSquare, sq2: DyadicSquare) -> bool:
        di = sq1.i - sq2.i + (self.K - 1)
        dj = sq1.j - sq2.j + (self.K - 1)
        return not bool(self.offset_nontransverse[di, dj])

    @property
    def max_count(self) -> int:
        return int(self.counts.max())


def _interval_min_abs(w, centers_x, centers_y, hx, hy):
    """min over the rectangle centered at (cx, cy) with half widths (hx, hy)
    of |w . (x, y)| for a linear form w."""
    mid = w[0] * centers_x + w[1] * centers_y
    ext = abs(w[0]) * hx + abs(w[1]) * hy
    return np.maximum(0.0, np.abs(mid) - ext)


def _strip_description(form: TransversalityForm, nu: float) -> StripDescription:
    v1 = np.array(form.v1)
    v2 = np.array(form.v2)
    if form.definite or form.lam2 == 0.0:
        width = float(np.sqrt(nu / abs(form.lam1))) if form.lam1 != 0 else np.inf
        return StripDescription(kind="single",
                                directions=(tuple(v2),),
                                half_widths=(width,))
    r = np.sqrt(-form.lam2 / form.lam1)
    d_plus = r * v1 + v2
    d_minus = -r * v1 + v2
    dirs = []
    widths = []
    # strips run along d_+/- with half width sqrt(nu/|lam1|) measured in the
    # conjugate coordinate (beta1 -+ r beta2)
    for d in (d_plus, d_minus):
        dn = d / np.linalg.norm(d)
        dirs.append((float(dn[0]), float(dn[1])))
        widths.append(float(np.sqrt(nu / abs(form.lam1))))
    return StripDescription(kind="double", directions=tuple(dirs),
                            half_widths=tuple(widths))


def _strip_predicted_min(form: TransversalityForm, xc, yc, h: float,
                         subdivision: int) -> np.ndarray:
    """Eigen-coordinate lower bound for the rectangle minimum of |Q|.

    Each offset rectangle is split into subdivision^2 congruent cells; on
    every cell the bound is built purely from interval ranges of the eigen
    coordinates (definite case) or of the two conjugate strip factors
    (indefinite case), so predicted-transverse always implies transverse.
    """
    best = None
    hh = h / subdivision
    centers = (2.0 * np.arange(subdivision) + 1.0) / subdivision - 1.0
    v1 = np.array(form.v1)
    v2 = np.array(form.v2)
    if not form.definite:
        r = np.sqrt(-form.lam2 / form.lam1)
        wa, wb = v1 - r * v2, v1 + r * v2
    for ox in centers:
        for oy in centers:
            cx = xc + ox * h
            cy = yc + oy * h
            if form.definite:
                u1 = _interval_min_abs(v1, cx, cy, hh, hh)
                u2 = _interval_min_abs(v2, cx, cy, hh, hh)
                pm = abs(form.lam1) * u1 ** 2 + abs(form.lam2) * u2 ** 2
            else:
                # Q factors as lam1 (b1 - r b2)(b1 + r b2)
                ua = _interval_min_abs(wa, cx, cy, hh, hh)
                ub = _interval_min_abs(wb, cx, cy, hh, hh)
                pm = abs(form.lam1) * ua * ub
            best = pm if best is None else np.minimum(best, pm)
    return best


def transversality_graph(coeffs_or_form, K: int, nu: float | None = None,
                         strip_subdivision: int = 4) -> TransversalityGraph:
    """Classify every ordered pair of level-m squares (K = 2^m).

    Classification uses the exact rectangle minimum of |Q|; the eigen-strip
    prediction uses only interval bounds on the eigen coordinates, mirroring
    the strip geometry of the counting argument.  Both depend on the pair
    only through the index offset, so the K^4 pairs reduce to a (2K-1)^2
    offset grid.  nu must be finite and positive; it defaults to K^-2.
    """
    if K < 1 or (K & (K - 1)) != 0:
        raise ValueError("K must be a power of two")
    form = (coeffs_or_form if isinstance(coeffs_or_form, TransversalityForm)
            else transversality_form(coeffs_or_form))
    if nu is None:
        nu = float(K) ** -2
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and > 0, got {nu:g}")
    h = 1.0 / K
    off = np.arange(-(K - 1), K)
    di, dj = np.meshgrid(off, off, indexing="ij")
    xc, yc = di * h, dj * h

    xlo, xhi = xc - h, xc + h
    ylo, yhi = yc - h, yc + h
    mins = _rect_min_abs(form.c1, form.c2, form.c3, xlo, xhi, ylo, yhi)
    nontrans = mins < nu

    pred_min = _strip_predicted_min(form, xc, yc, h, strip_subdivision)
    # the predictor runs through irrational eigenvectors; a relative tie
    # tolerance keeps exact-arithmetic threshold coincidences stable
    predicted = pred_min < nu * (1.0 - 1e-9)

    mult = np.outer(K - np.abs(off), K - np.abs(off)).astype(float)
    agree = float((mult * (nontrans == predicted)).sum() / mult.sum())

    counts = np.zeros((K, K), dtype=int)
    nz = np.argwhere(nontrans)
    for a, b in nz:
        d1, d2 = int(off[a]), int(off[b])
        counts[max(d1, 0):K + min(d1, 0), max(d2, 0):K + min(d2, 0)] += 1

    return TransversalityGraph(K=K, nu=float(nu), form=form, counts=counts,
                               offset_nontransverse=nontrans,
                               offset_predicted=predicted,
                               strip=_strip_description(form, nu),
                               prediction_agreement=agree)


# ---------------------------------------------------------------------------
# Jacobian identity


def bilinear_map(coeffs: QuadCoeffs, pts: np.ndarray) -> np.ndarray:
    """(t1,s1,t2,s2) -> (t1+t2, s1+s2, q1(t1,s1)+q1(t2,s2), q2(..)+q2(..))."""
    t1, s1, t2, s2 = pts[..., 0], pts[..., 1], pts[..., 2], pts[..., 3]
    a = coeffs
    u3 = (a.a1 * (t1 * t1 + t2 * t2) + 2 * a.a2 * (t1 * s1 + t2 * s2)
          + a.a3 * (s1 * s1 + s2 * s2))
    u4 = (a.a4 * (t1 * t1 + t2 * t2) + 2 * a.a5 * (t1 * s1 + t2 * s2)
          + a.a6 * (s1 * s1 + s2 * s2))
    return np.stack([t1 + t2, s1 + s2, u3, u4], axis=-1)


def jacobian_determinants_fd(coeffs: QuadCoeffs, pts: np.ndarray,
                             step: float = 1e-4) -> np.ndarray:
    """Central finite-difference Jacobian determinants of the bilinear map."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    jac = np.empty((n, 4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = step
        jac[:, :, k] = (bilinear_map(coeffs, pts + e) - bilinear_map(coeffs, pts - e)) / (2 * step)
    return np.linalg.det(jac)


def jacobian_residual(coeffs: QuadCoeffs, samples: int, seed: int = 0,
                      step: float = 1e-4, floor: float = 1e-3) -> float:
    """Max over random points of | |det J_fd| - 4|Q(dt,ds)| | relative to
    max(4|Q|, floor).

    The absolute floor guards the degenerate set Q = 0 (e.g. t1=t2, s1=s2)
    where both sides vanish and a pure relative error is ill posed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(samples, 4))
    form = transversality_form(coeffs)
    dets = jacobian_determinants_fd(coeffs, pts, step=step)
    q = form(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
    denom = np.maximum(4.0 * np.abs(q), floor)
    return float(np.max(np.abs(np.abs(dets) - 4.0 * np.abs(q)) / denom))
