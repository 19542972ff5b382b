"""Weighted L^p norms over balls in R^d by importance-sampled Monte Carlo.

The weight of a ball of radius R at center c is w(x) = (1+|x-c|/R)^-E in
the strict form, or its plateau variant (1+max(0,|x-c|-R)/R)^-E which is
identically 1 on the ball and shares the polynomial tail.  Sampling draws
from the normalized weight (optionally defended by a mixture of shrunken
copies, which controls the variance of integrands concentrated near the
center); estimates are deterministic given (seed, budget) through fixed
chunked reductions.  Within a chunk, the sums of |F|^p w/q and its square go
over cache-sized blocks of series rows, and a block whose series share an
integer exponent raises by repeated multiplication instead of pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

CHUNK = 4096
_CDF_KNOTS = 2 ** 14


class PoisonedEstimateError(RuntimeError):
    """A norm integrand produced a non-finite sample."""

    def __init__(self, x, series: int):
        super().__init__(f"non-finite integrand value at x={np.asarray(x)} (series {series})")
        self.x = np.asarray(x)
        self.series = series


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class BallSpec:
    """Ball + weight: center, radius, decay exponent, truncation factor.

    shape "strict" uses (1+r/R)^-E; shape "plateau" uses
    (1+max(0, r-R)/R)^-E, which is 1 on the ball itself.  Integrals run
    over the truncated region r <= trunc * R.
    """

    center: tuple[float, ...]
    radius: float
    decay: float = 100.0
    trunc: float = 4.0
    shape: str = "strict"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.trunc <= 0:
            raise ValueError("truncation factor must be positive")
        if self.shape not in ("strict", "plateau"):
            raise ValueError("shape must be 'strict' or 'plateau'")

    @classmethod
    def at_origin(cls, dim: int, radius: float, **kw) -> "BallSpec":
        return cls(center=(0.0,) * dim, radius=float(radius), **kw)

    @property
    def dim(self) -> int:
        return len(self.center)

    def radial_weight(self, u):
        """Weight as a function of r/R."""
        u = np.asarray(u, dtype=float)
        if self.shape == "strict":
            return (1.0 + u) ** (-self.decay)
        return (1.0 + np.maximum(0.0, u - 1.0)) ** (-self.decay)

    def weight(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x - np.asarray(self.center), axis=-1) / self.radius
        return self.radial_weight(r)

    def quantile_radius(self, tail: float = 1e-9) -> float:
        """Radius containing all but the given tail of the sampling mass."""
        grid, cdf = _radial_cdf(self)
        return float(np.interp(1.0 - tail, cdf, grid) * self.radius)

    def truncation_tail_fraction(self) -> float:
        """Weight mass discarded beyond the truncation radius, as a fraction
        of the untruncated total; decays like (1+T)^{dim-decay}."""
        d, e = self.dim, self.decay
        if e <= d:
            raise ValueError("decay exponent must exceed the dimension")
        key = (d, e, self.trunc, self.shape)
        if key not in _tail_cache:

            def radial_tail(lo):
                val, _ = integrate.quad(
                    lambda u: u ** (d - 1) * float(self.radial_weight(u)),
                    lo, np.inf, limit=200)
                return val

            _tail_cache[key] = radial_tail(self.trunc) / radial_tail(0.0)
        return _tail_cache[key]

    def scaled(self, factor: float) -> "BallSpec":
        return BallSpec(center=self.center, radius=self.radius * factor,
                        decay=self.decay, trunc=self.trunc, shape=self.shape)


_mass_cache: dict[tuple, float] = {}


def weight_mass(ball: BallSpec) -> float:
    """Z = int over the truncated region of the weight, by 1-D radial
    quadrature (the weight is spherically symmetric)."""
    d = ball.dim
    if ball.decay <= d:
        raise ValueError("decay exponent must exceed the dimension")
    key = (d, ball.decay, ball.trunc, ball.shape)
    if key not in _mass_cache:
        val, _ = integrate.quad(
            lambda u: u ** (d - 1) * float(ball.radial_weight(u)),
            0.0, ball.trunc, limit=200,
            points=[1.0] if ball.shape == "plateau" else None)
        _mass_cache[key] = val
    return sphere_area(d) * ball.radius ** d * _mass_cache[key]


_cdf_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_tail_cache: dict[tuple, float] = {}


def _radial_cdf(ball: BallSpec) -> tuple[np.ndarray, np.ndarray]:
    key = (ball.dim, ball.decay, ball.trunc, ball.shape)
    if key not in _cdf_cache:
        u = np.linspace(0.0, ball.trunc, _CDF_KNOTS + 1)
        dens = u ** (ball.dim - 1) * ball.radial_weight(u)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
        cdf /= cdf[-1]
        _cdf_cache[key] = (u, cdf)
    return _cdf_cache[key]


@dataclass(frozen=True)
class Sampler:
    """Monte Carlo sampling policy for weighted norms."""

    budget: int = 20000
    seed: int = 0
    strategy: str = "mc"          # "mc" | "lattice"
    proposal: str = "mixture"     # "ball" | "mixture"
    chunk: int = CHUNK

    def __post_init__(self):
        if self.strategy not in ("mc", "lattice"):
            raise ValueError("strategy must be 'mc' or 'lattice'")
        if self.proposal not in ("ball", "mixture"):
            raise ValueError("proposal must be 'ball' or 'mixture'")
        if self.chunk < 1:
            raise ValueError("chunk must be at least 1")
        if self.budget < 1000 and self.strategy == "mc":
            raise ValueError("mc budget must be at least 10^3")


class _MixtureProposal:
    """Defensive mixture of the ball weight and shrunken copies.

    Components share the radial profile; shrinking radii put samples near
    the center where extension operators concentrate, and the per-sample
    density correction keeps every estimate unbiased for the target weight.
    """

    def __init__(self, ball: BallSpec, defensive: bool, floor: float = 0.9):
        self.ball = ball
        radii = [ball.radius]
        if defensive:
            r = ball.radius / 4.0
            while r > floor and len(radii) < 6:
                radii.append(r)
                r /= 4.0
        self.radii = np.array(radii)
        k = len(radii)
        self.alphas = np.array([1.0]) if k == 1 else np.array([0.5] + [0.5 / (k - 1)] * (k - 1))
        self.zs = np.array([weight_mass(ball.scaled(r / ball.radius)) for r in self.radii])
        self.grid, self.cdf = _radial_cdf(ball)
        self.z_target = weight_mass(ball)

    def sample(self, seed: int, chunk_index: int, n: int):
        """Returns (points, target_weight / proposal_density)."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        comp = rng.choice(len(self.radii), size=n, p=self.alphas) if len(self.radii) > 1 \
            else np.zeros(n, dtype=int)
        r = np.interp(rng.random(n), self.cdf, self.grid) * self.radii[comp]
        v = rng.standard_normal((n, self.ball.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        x = np.asarray(self.ball.center) + r[:, None] * v
        rr = np.linalg.norm(x - np.asarray(self.ball.center), axis=1)
        q = np.zeros(n)
        for a, rj, zj in zip(self.alphas, self.radii, self.zs):
            u = rr / rj
            q += a * np.where(u <= self.ball.trunc * 1.0000001,
                              self.ball.radial_weight(u) / zj, 0.0)
        w = self.ball.radial_weight(rr / self.ball.radius)
        return x, w / q


@dataclass(frozen=True)
class NormEstimate:
    """A weighted L^p norm value with sampling metadata.

    truncation_tail records the fraction of weight mass outside the
    truncated integration region (untruncated-total relative)."""

    value: float
    stderr: float | None
    count: int
    strategy: str
    seed: int
    p: float
    spacing: float | None = None
    approximate: bool = False
    truncation_tail: float | None = None

    @property
    def rel_stderr(self) -> float:
        if self.stderr is None or self.value == 0.0:
            return 0.0
        return self.stderr / self.value


# Elements of |F| per accumulation block: a block of series rows of the chunk
# and its powers stay in a 2 MB L2 cache (8 rows of a 4096-point chunk).
_ACCUM_BLOCK = 2 ** 15


def _int_power(a: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """a**p for an integer p >= 1 by left-to-right binary powering into out
    (a itself when p = 1): p = 6 is a*a, times a, squared."""
    if p == 1:
        return a
    np.multiply(a, a, out=out)
    for i, bit in enumerate(bin(p)[3:]):
        if i:
            out *= out
        if bit == "1":
            out *= a
    return out


class _Accumulator:
    """Per-series sums of |F|^p w/q and its square, and the maximum of |F|,
    over chunks of at most n samples.

    Series rows go max(1, _ACCUM_BLOCK // n) at a time through two scratch
    tables allocated once, so no temporary grows with the series count.  A
    block whose series share an integer exponent raises by multiplication;
    other blocks (mixed or non-integer p) use np.power.  p = inf series are
    summed at p = 1 and report only their maximum."""

    def __init__(self, ps: Sequence[float], n: int):
        nser = len(ps)
        finite_p = np.where(np.isfinite(ps), ps, 1.0)
        self.rows = max(1, _ACCUM_BLOCK // n)
        self.blocks = []
        for lo in range(0, nser, self.rows):
            pb = finite_p[lo:lo + self.rows]
            same = np.all(pb == pb[0]) and pb[0] == int(pb[0])
            self.blocks.append((lo, int(pb[0]) if same else pb[:, None]))
        self.mag = np.empty((min(self.rows, nser), n))
        self.powed = np.empty_like(self.mag)
        self.s1, self.s2, self.maxes = np.zeros(nser), np.zeros(nser), np.zeros(nser)
        self._c1, self._c2, self._top = np.empty(nser), np.empty(nser), np.empty(nser)

    def add(self, vals: np.ndarray, iw: np.ndarray, x: np.ndarray) -> None:
        """Adds one (series, n) chunk of values F at the points x with
        importance weights iw.  vals is only read.  A non-finite |F| raises
        PoisonedEstimateError for the first such (series, sample), before
        the chunk reaches the sums."""
        n = vals.shape[1]
        for lo, p in self.blocks:
            hi = min(lo + self.rows, vals.shape[0])
            mag = self.mag[:hi - lo, :n]
            np.abs(vals[lo:hi], out=mag)
            top = np.max(mag, axis=1, out=self._top[lo:hi])   # NaN and inf propagate
            if not np.all(np.isfinite(top)):
                bad = np.argwhere(~np.isfinite(mag))
                raise PoisonedEstimateError(x[bad[0][1]], lo + int(bad[0][0]))
            if isinstance(p, int):
                v = _int_power(mag, p, self.powed[:hi - lo, :n])
            else:
                v = np.power(mag, p, out=self.powed[:hi - lo, :n])
            v *= iw
            np.sum(v, axis=1, out=self._c1[lo:hi])
            v *= v
            np.sum(v, axis=1, out=self._c2[lo:hi])
        self.s1 += self._c1
        self.s2 += self._c2
        np.maximum(self.maxes, self._top, out=self.maxes)


def weighted_norm_batch(evaluator: Callable[[np.ndarray], np.ndarray],
                        ball: BallSpec, ps: Sequence[float],
                        sampler: Sampler) -> list[NormEstimate]:
    """(int |F_k|^{p_k} w)^{1/p_k} for a family of integrands on common
    random numbers.

    evaluator(X) must return an (n_series, B) array (complex or real) for a
    batch X of shape (B, dim).  All series share the sample set, so ratios
    of the returned values have strongly reduced variance.  p = inf series
    return the sample maximum and are flagged approximate.
    """
    ps = [float(p) for p in ps]
    if any(p < 1.0 for p in ps):
        raise ValueError("norm exponents must be >= 1")
    if sampler.strategy == "lattice":
        return _lattice_norm_batch(evaluator, ball, ps, sampler)
    prop = _MixtureProposal(ball, defensive=(sampler.proposal == "mixture"))
    acc = None
    tot = 0
    k = 0
    while tot < sampler.budget:
        n = min(sampler.chunk, sampler.budget - tot)
        x, iw = prop.sample(sampler.seed, k, n)
        vals = np.asarray(evaluator(x))
        if vals.ndim == 1:
            vals = vals[None, :]
        if acc is None:
            if len(ps) != vals.shape[0]:
                raise ValueError("one exponent per series required")
            acc = _Accumulator(ps, n)
        acc.add(vals, iw, x)
        tot += n
        k += 1
    s1, s2, maxes = acc.s1, acc.s2, acc.maxes
    tail = ball.truncation_tail_fraction()
    out = []
    for i, p in enumerate(ps):
        if not np.isfinite(p):
            out.append(NormEstimate(value=float(maxes[i]), stderr=None, count=tot,
                                    strategy="mc", seed=sampler.seed, p=p,
                                    approximate=True, truncation_tail=tail))
            continue
        # E_q[|F|^p w/q] = int |F|^p w, so the weighted mean is the integral
        integral = s1[i] / tot
        var = max(s2[i] / tot - integral * integral, 0.0) / tot
        value = integral ** (1.0 / p)
        stderr = math.sqrt(var) * value / (p * integral) if integral > 0 else 0.0
        out.append(NormEstimate(value=float(value), stderr=float(stderr), count=tot,
                                strategy="mc", seed=sampler.seed, p=p,
                                truncation_tail=tail))
    return out


def weighted_lp_norm(f: Callable[[np.ndarray], np.ndarray], ball: BallSpec,
                     p: float, sampler: Sampler) -> NormEstimate:
    """Single-integrand wrapper; bit-identical to a batch of one."""

    def eval_one(x):
        return np.asarray(f(x))[None, :]

    return weighted_norm_batch(eval_one, ball, [p], sampler)[0]


def _lattice_norm_batch(evaluator, ball: BallSpec, ps, sampler: Sampler) -> list[NormEstimate]:
    """Fixed-spacing grid sum over the truncated ball; practical only in
    low dimension or for small radii."""
    d = ball.dim
    half = ball.trunc * ball.radius
    n_axis = max(3, int(round(sampler.budget ** (1.0 / d))))
    spacing = 2.0 * half / n_axis
    axes = [np.asarray(ball.center)[i] - half + spacing * (np.arange(n_axis) + 0.5)
            for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=-1)
    r = np.linalg.norm(x - np.asarray(ball.center), axis=-1)
    x = x[r <= half]
    w = ball.weight(x)
    sums = None
    maxes = None
    nser = None
    for start in range(0, x.shape[0], sampler.chunk):
        xb = x[start:start + sampler.chunk]
        vals = np.abs(np.asarray(evaluator(xb)))
        if vals.ndim == 1:
            vals = vals[None, :]
        if sums is None:
            nser = vals.shape[0]
            if len(ps) != nser:
                raise ValueError("one exponent per series required")
            sums = np.zeros(nser)
            maxes = np.zeros(nser)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))
            raise PoisonedEstimateError(xb[bad[0][1]], int(bad[0][0]))
        wb = w[start:start + sampler.chunk]
        for i, p in enumerate(ps):
            if np.isfinite(p):
                sums[i] += float((vals[i] ** p * wb).sum())
        maxes = np.maximum(maxes, vals.max(axis=1))
    cell = spacing ** d
    out = []
    for i, p in enumerate(ps):
        if not np.isfinite(p):
            out.append(NormEstimate(value=float(maxes[i]), stderr=None,
                                    count=x.shape[0], strategy="lattice",
                                    seed=sampler.seed, p=p, spacing=spacing,
                                    approximate=True))
        else:
            out.append(NormEstimate(value=float((sums[i] * cell) ** (1.0 / p)),
                                    stderr=None, count=x.shape[0],
                                    strategy="lattice", seed=sampler.seed, p=p,
                                    spacing=spacing))
    return out
