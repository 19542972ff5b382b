"""Affine cap rescaling and the exact shear identity for quadratic surfaces.

Rescaling a square R = [a, a+delta] x [b, b+delta] to the unit square sends
the extension modulus of a field supported on R to the modulus of the
rescaled field at a sheared frequency point: |E_R g(x)| equals
delta^2 |E g'(xbar)| exactly, where xbar is an affine shear of x determined
by the quadratic coefficients and the cap corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import AmplitudeField, extension_evaluator
from .geometry import QuadCoeffs, quad_surface
from .grid import DyadicSquare


@dataclass(frozen=True)
class ShearMap:
    """Frequency-side companion of the cap map (t,s) -> (delta t + a, delta s + b)."""

    coeffs: QuadCoeffs
    a: float
    b: float
    delta: float

    def __post_init__(self):
        if self.delta == 0.0:
            raise ValueError("cap side must be nonzero")

    def matrix(self) -> np.ndarray:
        a, b, d = self.a, self.b, self.delta
        c = self.coeffs
        m = np.zeros((4, 4))
        m[0, 0] = d
        m[0, 2] = d * (2 * a * c.a1 + 2 * b * c.a2)
        m[0, 3] = d * (2 * a * c.a4 + 2 * b * c.a5)
        m[1, 1] = d
        m[1, 2] = d * (2 * b * c.a3 + 2 * a * c.a2)
        m[1, 3] = d * (2 * b * c.a6 + 2 * a * c.a5)
        m[2, 2] = d * d
        m[3, 3] = d * d
        return m

    def __call__(self, x) -> np.ndarray:
        return shear_point(self, x)


def shear_point(shear: ShearMap, x) -> np.ndarray:
    """Apply the frequency shear; broadcasts over leading axes of x."""
    x = np.asarray(x, dtype=float)
    return x @ shear.matrix().T


def rescale_field(field: AmplitudeField, square) -> AmplitudeField:
    """Map a field supported on [a,a+delta] x [b,b+delta] to [0,1]^2.

    Atomic points move by the affine cap map and amplitudes pick up the
    1/delta^2 change-of-variables factor, so that the rescaling identity
    |E_R g(x)| = delta^2 |E g'(xbar)| is exact.  Continuous fields remap
    their cells and divide quadrature weights by delta^2.
    """
    if isinstance(square, DyadicSquare):
        a, b = square.corner
        delta = square.side
    else:
        a, b, delta = (float(v) for v in square)
    lo_t, hi_t, lo_s, hi_s = a, a + delta, b, b + delta

    if field.mode == "atomic":
        pts = field.points
        eps = 1e-12
        if np.any(pts[:, 0] < lo_t - eps) or np.any(pts[:, 0] > hi_t + eps) \
                or np.any(pts[:, 1] < lo_s - eps) or np.any(pts[:, 1] > hi_s + eps):
            raise ValueError("field support violates the rescaling square")
        new_pts = np.column_stack([(pts[:, 0] - a) / delta, (pts[:, 1] - b) / delta])
        new_pts = np.clip(new_pts, 0.0, 1.0)
        return AmplitudeField.atomic(new_pts, field.amplitudes / delta ** 2)

    for cell in field.cells:
        t0, t1, s0, s1 = cell.bounds
        if t0 < lo_t - 1e-12 or t1 > hi_t + 1e-12 or s0 < lo_s - 1e-12 or s1 > hi_s + 1e-12:
            raise ValueError("field support violates the rescaling square")
    # the regenerated unit-square quadrature weights already carry the
    # 1/delta^2 change-of-variables factor, so amplitudes stay put
    return field.remapped(offset=(a, b), scale=delta, amplitude_factor=1.0)


def rescaled_cap_index(square: DyadicSquare, cap: DyadicSquare) -> DyadicSquare:
    """Image of a dyadic cap inside a dyadic square under the cap map.

    Both must be dyadic with cap.level >= square.level; the image is again
    dyadic, at level cap.level - square.level.
    """
    if not square.contains_square(cap):
        raise ValueError("cap is not contained in the square")
    shift = cap.level - square.level
    return DyadicSquare(shift, cap.i - (square.i << shift), cap.j - (square.j << shift))


def rescaling_residual(coeffs: QuadCoeffs, field: AmplitudeField, square,
                       trials: int = 100, seed: int = 0,
                       x_scale: float | None = None) -> float:
    """Max relative defect of |E_R g(x)| = delta^2 |E g'(shear x)| over random x.

    The identity is exact; the residual measures floating-point roundoff
    plus (for continuous fields) the shared quadrature rule evaluated on
    both sides, so values should sit near machine precision.
    """
    if isinstance(square, DyadicSquare):
        a, b = square.corner
        delta = square.side
    else:
        a, b, delta = (float(v) for v in square)
    shear = ShearMap(coeffs, a, b, delta)
    surface = quad_surface(coeffs)
    rescaled = rescale_field(field, square)
    if x_scale is None:
        x_scale = delta ** -2
    rng = np.random.default_rng(seed)
    x = rng.uniform(-x_scale, x_scale, size=(trials, 4))
    xbar = shear_point(shear, x)
    x_max = float(np.abs(x).max())
    xbar_max = float(np.abs(xbar).max())
    lhs = np.abs(extension_evaluator(surface, field, x_max).total(x))
    rhs = delta ** 2 * np.abs(extension_evaluator(surface, rescaled, xbar_max).total(xbar))
    return float(np.max(np.abs(lhs - rhs) / (rhs + 1e-30)))
