"""Model surfaces, curve lifts, and their nondegeneracy invariants.

A model quadratic surface is (t, s) -> (t, s, q1(t,s), q2(t,s)) with a pair
of quadratic forms q1, q2 described by six coefficients.  A curve lift is
(t, s) -> c(t) + c(s) for a curve c: [0,1] -> R^4.  Both expose first and
second partial derivatives, which is all the downstream measurements need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Rank decisions: singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8

_PARTIALS = ("t", "s", "tt", "ts", "ss")


class DegenerateParametrizationError(ValueError):
    """Tangent vectors are linearly dependent at the requested point."""


@dataclass(frozen=True)
class QuadCoeffs:
    """Coefficients of the quadratic pair (a1 t^2 + 2 a2 t s + a3 s^2,
    a4 t^2 + 2 a5 t s + a6 s^2)."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.as_array())):
            raise ValueError("quadratic coefficients must be finite")

    @classmethod
    def from_sequence(cls, a: Sequence[float]) -> "QuadCoeffs":
        a = [float(v) for v in a]
        if len(a) != 6:
            raise ValueError("expected six coefficients")
        return cls(*a)

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3, self.a4, self.a5, self.a6])

    def row_matrix(self) -> np.ndarray:
        """The 2x3 coefficient matrix [[a1,a2,a3],[a4,a5,a6]]."""
        return self.as_array().reshape(2, 3)

    def minors(self) -> tuple[float, float, float]:
        """The three 2x2 minors (a1 a5 - a2 a4, a1 a6 - a3 a4, a2 a6 - a3 a5)."""
        return (
            self.a1 * self.a5 - self.a2 * self.a4,
            self.a1 * self.a6 - self.a3 * self.a4,
            self.a2 * self.a6 - self.a3 * self.a5,
        )

    def rank2(self, rtol: float = RANK_RTOL) -> bool:
        """True when the 2x3 coefficient matrix has rank 2."""
        sv = np.linalg.svd(self.row_matrix(), compute_uv=False)
        return bool(sv[1] > rtol * sv[0])

    def scaled(self, factor: float) -> "QuadCoeffs":
        return QuadCoeffs(*(factor * self.as_array()))


def is_admissible(coeffs: QuadCoeffs, c_bound: float = 10.0) -> bool:
    """Membership in the admissible class: entries bounded by c_bound and at
    least one 2x2 minor of magnitude >= 1/c_bound."""
    if c_bound <= 0:
        raise ValueError("c_bound must be positive")
    a = coeffs.as_array()
    if np.any(np.abs(a) > c_bound):
        return False
    return max(abs(m) for m in coeffs.minors()) >= 1.0 / c_bound


def random_admissible(rng: np.random.Generator, c_bound: float = 10.0,
                      scale: float = 1.5) -> QuadCoeffs:
    """Rejection-sample coefficients admissible at the given bound."""
    for _ in range(1000):
        cand = QuadCoeffs(*rng.uniform(-scale, scale, size=6))
        if is_admissible(cand, c_bound):
            return cand
    raise RuntimeError("failed to draw admissible coefficients")


# ---------------------------------------------------------------------------
# surfaces


class SurfaceEvaluator:
    """Base class: a map [0,1]^2 -> R^4 with derivative access.

    Subclasses implement value() and partial(); both broadcast over numpy
    arrays of parameters and return arrays with a trailing axis of length 4.
    Instances are immutable.
    """

    domain = ((0.0, 1.0), (0.0, 1.0))

    def value(self, t, s) -> np.ndarray:
        raise NotImplementedError

    def partial(self, t, s, which: str) -> np.ndarray:
        raise NotImplementedError

    def derivative_frame(self, t, s) -> dict[str, np.ndarray]:
        return {w: self.partial(t, s, w) for w in _PARTIALS}

    def phase_split(self):
        """For surfaces whose phase x . psi(t,s) separates as f(t) + g(s):
        return (part_t, part_s) where part_t(tt, X) -> (len(tt), len(X))
        phase contributions.  None when no separable structure exists."""
        return None

    def phase_derivative_bound(self) -> float:
        """sup over the domain of |grad_(t,s) (x.psi)| / |x|_inf, used to
        size oscillatory quadratures."""
        raise NotImplementedError


class QuadSurface(SurfaceEvaluator):
    """The model surface (t, s, q1(t,s), q2(t,s))."""

    kind = "quadratic"

    def __init__(self, coeffs: QuadCoeffs):
        self.coeffs = coeffs

    def value(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        a = self.coeffs
        q1 = a.a1 * t * t + 2 * a.a2 * t * s + a.a3 * s * s
        q2 = a.a4 * t * t + 2 * a.a5 * t * s + a.a6 * s * s
        return np.stack(np.broadcast_arrays(t, s, q1, q2), axis=-1)

    def partial(self, t, s, which):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        a = self.coeffs
        zero = np.zeros(np.broadcast_shapes(t.shape, s.shape))
        one = np.ones_like(zero)
        if which == "t":
            comps = (one, zero, 2 * a.a1 * t + 2 * a.a2 * s, 2 * a.a4 * t + 2 * a.a5 * s)
        elif which == "s":
            comps = (zero, one, 2 * a.a2 * t + 2 * a.a3 * s, 2 * a.a5 * t + 2 * a.a6 * s)
        elif which == "tt":
            comps = (zero, zero, 2 * a.a1 * one, 2 * a.a4 * one)
        elif which == "ts":
            comps = (zero, zero, 2 * a.a2 * one, 2 * a.a5 * one)
        elif which == "ss":
            comps = (zero, zero, 2 * a.a3 * one, 2 * a.a6 * one)
        else:
            raise ValueError(f"unknown partial {which!r}")
        return np.stack(np.broadcast_arrays(*comps), axis=-1)

    def phase_split(self):
        a = self.coeffs
        if a.a2 != 0.0 or a.a5 != 0.0:
            return None

        def table(tt, lin, quad):
            # t (lin + t quad), built in the one (len(tt), B) output buffer
            out = np.multiply.outer(tt, quad)
            out += lin
            out *= np.asarray(tt)[:, None]
            return out

        def part_t(tt, X):
            return table(tt, X[:, 0], a.a1 * X[:, 2] + a.a4 * X[:, 3])

        def part_s(ss, X):
            return table(ss, X[:, 1], a.a3 * X[:, 2] + a.a6 * X[:, 3])

        return part_t, part_s

    def phase_derivative_bound(self) -> float:
        """sup over [0,1]^2 of |grad_(t,s) (x.psi)| / |x|_inf, used to size
        oscillatory quadratures."""
        a = np.abs(self.coeffs.as_array())
        return 1.0 + 2.0 * max(a[0] + a[1] + a[3] + a[4], a[1] + a[2] + a[4] + a[5])


def quad_surface(coeffs) -> QuadSurface:
    """Build the model quadratic surface for the given coefficients."""
    if not isinstance(coeffs, QuadCoeffs):
        coeffs = QuadCoeffs.from_sequence(coeffs)
    return QuadSurface(coeffs)


# ---------------------------------------------------------------------------
# curves

# finite-difference steps per derivative order; higher orders need coarser
# steps or float64 cancellation destroys the quotient
_FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 1e-3, 4: 5e-3}


def fd_derivative(f: Callable[[np.ndarray], np.ndarray], t, order: int,
                  step: float | None = None):
    """Central finite differences (5-point) for orders 1..4."""
    t = np.asarray(t, dtype=float)
    h = _FD_STEPS[order] if step is None else step
    pts = np.stack([t + k * h for k in (-2, -1, 0, 1, 2)])
    v = np.stack([np.asarray(f(p)) for p in pts])
    if order == 1:
        coef = np.array([1, -8, 0, 8, -1]) / (12 * h)
    elif order == 2:
        coef = np.array([-1, 16, -30, 16, -1]) / (12 * h * h)
    elif order == 3:
        coef = np.array([-1, 2, 0, -2, 1]) / (2 * h ** 3)
    elif order == 4:
        coef = np.array([1, -4, 6, -4, 1]) / h ** 4
    else:
        raise ValueError("order must be 1..4")
    return np.tensordot(coef, v, axes=(0, 0))


class CurveEvaluator:
    """A curve [0,1] -> R^4 with derivatives up to order 4.

    Polynomial curves carry exact derivatives; callable curves fall back to
    central finite differences with per-order steps.
    """

    def __init__(self, components, name: str = "custom"):
        self.name = name
        if callable(components):
            self._func = components
            self._coeffs = None
        else:
            # coefficient rows, low order first, one per component
            self._coeffs = [np.asarray(c, dtype=float) for c in components]
            if len(self._coeffs) != 4:
                raise ValueError("expected four component polynomials")
            self._func = None

    def value(self, t) -> np.ndarray:
        return self.derivative(t, 0)

    def derivative(self, t, order: int) -> np.ndarray:
        """Componentwise derivative; returns shape t.shape + (4,)."""
        t = np.asarray(t, dtype=float)
        if self._coeffs is not None:
            cols = []
            for c in self._coeffs:
                d = np.polynomial.polynomial.polyder(c, order) if order else c
                cols.append(np.polynomial.polynomial.polyval(t, d) if len(d) else np.zeros_like(t))
            return np.stack(cols, axis=-1)
        if order == 0:
            return np.asarray(self._func(t))
        return fd_derivative(lambda u: np.asarray(self._func(u)), t, order)

    def phase(self, t, X) -> np.ndarray:
        """The (len(t), B) phase table x . c(t) of the samples X."""
        return self.value(np.asarray(t, dtype=float)) @ X.T

    def phase_derivative_bound(self) -> float:
        """max over 257 equispaced t in [0,1] of |c'(t)|_1: the variation of
        x . c(t) per unit t is at most this times |x|_inf."""
        t = np.linspace(0.0, 1.0, 257)
        return float(np.abs(self.derivative(t, 1)).sum(axis=-1).max())


def moment_curve() -> CurveEvaluator:
    """The canonical nondegenerate curve (t, t^2, t^3, t^4)."""
    return CurveEvaluator(
        [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], name="moment")


def curve_nondegeneracy_det(curve: CurveEvaluator, ts: Sequence[float]) -> float:
    """det of the 4x4 matrix whose i-th row is the order-i derivative of the
    curve at ts[i-1]."""
    if len(ts) != 4:
        raise ValueError("expected four parameters")
    rows = [curve.derivative(float(ti), i + 1) for i, ti in enumerate(ts)]
    return float(np.linalg.det(np.stack(rows)))


def lift_nondegeneracy_det(curve: CurveEvaluator, t: float, s: float) -> float:
    """det of [c'(t); c'(s); c''(t); c''(s)]; nonzero iff the sum lift is
    nondegenerate at (t, s)."""
    rows = np.stack([
        curve.derivative(float(t), 1),
        curve.derivative(float(s), 1),
        curve.derivative(float(t), 2),
        curve.derivative(float(s), 2),
    ])
    return float(np.linalg.det(rows))


def lift_det_grid_min(curve: CurveEvaluator, i1, i2, resolution: float = 1e-3) -> float:
    """min |lift determinant| over a grid of (t,s) in i1 x i2 (test oracle)."""
    t = np.arange(i1[0], i1[1] + resolution / 2, resolution)
    s = np.arange(i2[0], i2[1] + resolution / 2, resolution)
    d1t = curve.derivative(t, 1)
    d1s = curve.derivative(s, 1)
    d2t = curve.derivative(t, 2)
    d2s = curve.derivative(s, 2)
    nt, ns = len(t), len(s)
    mat = np.empty((nt, ns, 4, 4))
    mat[:, :, 0, :] = d1t[:, None, :]
    mat[:, :, 1, :] = d1s[None, :, :]
    mat[:, :, 2, :] = d2t[:, None, :]
    mat[:, :, 3, :] = d2s[None, :, :]
    return float(np.abs(np.linalg.det(mat.reshape(-1, 4, 4))).min())


class CurveLiftSurface(SurfaceEvaluator):
    """The sum surface (t,s) -> c(t) + c(s) over i1 x i2."""

    kind = "curve_lift"

    def __init__(self, curve: CurveEvaluator, i1, i2):
        self.curve = curve
        self.i1 = (float(i1[0]), float(i1[1]))
        self.i2 = (float(i2[0]), float(i2[1]))
        self.separated = self.i2[0] - self.i1[1] > 0 or self.i1[0] - self.i2[1] > 0
        self.domain = (self.i1, self.i2)

    def value(self, t, s):
        vt = self.curve.value(np.asarray(t, dtype=float))
        vs = self.curve.value(np.asarray(s, dtype=float))
        return vt + vs

    def partial(self, t, s, which):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        shape = np.broadcast_shapes(t.shape, s.shape) + (4,)
        if which == "t":
            return np.broadcast_to(self.curve.derivative(t, 1), shape).copy()
        if which == "s":
            return np.broadcast_to(self.curve.derivative(s, 1), shape).copy()
        if which == "tt":
            return np.broadcast_to(self.curve.derivative(t, 2), shape).copy()
        if which == "ss":
            return np.broadcast_to(self.curve.derivative(s, 2), shape).copy()
        if which == "ts":
            return np.zeros(shape)
        raise ValueError(f"unknown partial {which!r}")

    def phase_split(self):
        return self.curve.phase, self.curve.phase

    def phase_derivative_bound(self) -> float:
        return self.curve.phase_derivative_bound()


def curve_lift(curve: CurveEvaluator, i1, i2) -> CurveLiftSurface:
    """Lift a curve to the sum surface on i1 x i2.

    Overlapping intervals are allowed but flagged (surface.separated False);
    transversality-dependent measurements should check that flag.
    """
    for iv in (i1, i2):
        if not (0.0 <= iv[0] < iv[1] <= 1.0):
            raise ValueError("intervals must be nondegenerate subintervals of [0,1]")
    return CurveLiftSurface(curve, i1, i2)


# ---------------------------------------------------------------------------
# nondegeneracy and normal forms


def is_nondegenerate(surface: SurfaceEvaluator, t: float, s: float,
                     rtol: float = RANK_RTOL) -> bool:
    """True when the five derivative vectors span R^4 at (t, s)."""
    d = surface.derivative_frame(float(t), float(s))
    mat = np.stack([d[w] for w in _PARTIALS], axis=0)
    sv = np.linalg.svd(mat, compute_uv=False)
    return bool(sv[3] > rtol * sv[0])


def nondegeneracy_margin(surface: SurfaceEvaluator, t: float, s: float) -> float:
    """sigma_4 / sigma_1 of the derivative matrix; used to flag points near
    the rank-decision tolerance band."""
    d = surface.derivative_frame(float(t), float(s))
    mat = np.stack([d[w] for w in _PARTIALS], axis=0)
    sv = np.linalg.svd(mat, compute_uv=False)
    return float(sv[3] / sv[0])


@dataclass(frozen=True)
class NormalForm:
    tangent: np.ndarray        # (2, 4) orthonormal, spans {psi_t, psi_s}
    normal: np.ndarray         # (2, 4) orthonormal, orthogonal to tangent
    coeffs: QuadCoeffs         # quadratic pair in the frame coordinates
    residual_bound: float      # max cubic remainder over the sampled patch
    rank2: bool


def _orthonormal_tangent(d: dict[str, np.ndarray]) -> np.ndarray:
    e1 = d["t"]
    n1 = np.linalg.norm(e1)
    if n1 < 1e-14:
        raise DegenerateParametrizationError("zero tangent vector")
    e1 = e1 / n1
    e2 = d["s"] - (d["s"] @ e1) * e1
    n2 = np.linalg.norm(e2)
    if n2 < 1e-10 * np.linalg.norm(d["s"]) or n2 < 1e-14:
        raise DegenerateParametrizationError("tangent vectors are dependent")
    return np.stack([e1, e2 / n2])


def _orthonormal_normal(tangent: np.ndarray, d: dict[str, np.ndarray]) -> np.ndarray:
    # candidate normal directions from the second derivatives, largest
    # projected norm first, deterministically completed when curvature is
    # rank-deficient
    proj = np.eye(4) - tangent.T @ tangent
    cands = [proj @ d[w] for w in ("tt", "ts", "ss")]
    cands.sort(key=lambda v: -np.linalg.norm(v))
    frame = []
    for v in cands:
        for u in frame:
            v = v - (v @ u) * u
        nv = np.linalg.norm(v)
        if nv > 1e-10:
            frame.append(v / nv)
        if len(frame) == 2:
            break
    if len(frame) < 2:
        # flat directions: complete from the kernel of what we have
        basis = np.vstack([tangent] + frame)
        _, _, vt = np.linalg.svd(basis)
        for v in vt[len(basis):]:
            frame.append(v / np.linalg.norm(v))
            if len(frame) == 2:
                break
    # sign convention: largest-magnitude component positive
    fixed = []
    for v in frame[:2]:
        k = int(np.argmax(np.abs(v)))
        fixed.append(v if v[k] >= 0 else -v)
    return np.stack(fixed)


def normal_form(surface: SurfaceEvaluator, t0: float, s0: float,
                patch_radius: float = 0.1) -> NormalForm:
    """Second-order normal form of the surface at an interior point.

    Returns orthonormal tangent/normal frames and the quadratic pair of the
    graph representation over the tangent plane.  The normal frame (hence
    the coefficient pair) is canonical only up to the documented ordering
    and sign rules; the rank-2 verdict is frame independent.

    residual_bound is the largest deviation between the surface and its
    quadratic model over a parameter patch of the given radius; it scales
    like the cube of the radius for smooth surfaces.
    """
    t0, s0 = float(t0), float(s0)
    d = surface.derivative_frame(t0, s0)
    tangent = _orthonormal_tangent(d)
    normal = _orthonormal_normal(tangent, d)

    jac = np.stack([d["t"], d["s"]], axis=1)      # (4, 2)
    j_uv = tangent @ jac                           # (2, 2): d(u,v)/d(t,s)
    j_inv = np.linalg.inv(j_uv)

    coeff_rows = []
    for nvec in normal:
        s_mat = np.array([
            [d["tt"] @ nvec, d["ts"] @ nvec],
            [d["ts"] @ nvec, d["ss"] @ nvec],
        ])
        hess = j_inv.T @ s_mat @ j_inv
        coeff_rows.extend([hess[0, 0] / 2.0, hess[0, 1] / 2.0, hess[1, 1] / 2.0])
    coeffs = QuadCoeffs(*coeff_rows)

    # empirical cubic remainder over a patch (clipped to the domain)
    (tlo, thi), (slo, shi) = surface.domain
    radii = np.linspace(patch_radius / 4, patch_radius, 4)
    ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    dt = np.concatenate([r * np.cos(ang) for r in radii])
    ds = np.concatenate([r * np.sin(ang) for r in radii])
    tt = np.clip(t0 + dt, tlo, thi)
    ss = np.clip(s0 + ds, slo, shi)
    delta = surface.value(tt, ss) - surface.value(t0, s0)
    u = delta @ tangent[0]
    v = delta @ tangent[1]
    w = delta @ normal.T                           # (n, 2)
    a = coeffs.as_array()
    q1 = a[0] * u * u + 2 * a[1] * u * v + a[2] * v * v
    q2 = a[3] * u * u + 2 * a[4] * u * v + a[5] * v * v
    residual = float(np.max(np.abs(w - np.stack([q1, q2], axis=-1))))

    return NormalForm(tangent=tangent, normal=normal, coeffs=coeffs,
                      residual_bound=residual, rank2=coeffs.rank2())
