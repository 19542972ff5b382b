"""Weighted L^p norms over balls in R^d by importance-sampled Monte Carlo.

The weight of a ball of radius R at center c is w(x) = (1+|x-c|/R)^-E in
the strict form, or its plateau variant (1+max(0,|x-c|-R)/R)^-E which is
identically 1 on the ball and shares the polynomial tail.  Sampling draws
from the normalized weight (optionally defended by a mixture of shrunken
copies, which controls the variance of integrands concentrated near the
center); estimates are deterministic given (seed, budget) through fixed
chunked reductions.  The weight's mass and truncation tail are closed-form
radial integrals, so the module needs numpy and the standard library only.
Radii come from the radial CDF (tabulated at 2^14 + 1 knots) by a cached
inverse lookup that reproduces np.interp bit for bit: a table of 2^14 equal
buckets of [0, 1) gives each draw its knot after one refinement step, and
np.searchsorted takes the few draws whose bucket holds more than one knot.
Each chunk goes to the integrand evaluator in sub-batches whose tables hold
at most _SERIES_BLOCK values (or 256 samples' worth), dropped before the
next call, so memory stays bounded whatever the series count.  The first
call is sized by the series count; later ones by the rows the evaluator
materialises, where a block of rank-one series (`OuterBlock`, series k =
coeff_k L[row_k] R[col_k]) counts only its two factor tables.  Within a
sub-batch, the sums of |F|^p w/q and its square go over cache-sized blocks
of dense series rows, each a matrix-vector product against w/q and its
square, and a block whose series share an integer exponent raises by
repeated multiplication instead of pow.  An `OuterBlock`'s sums are entries
of two small matrix products of its factors' powers, |coeff L R|^p =
|coeff|^p |L|^p |R|^p, and a batch they cannot sum finitely goes again on
dense rows.  Exponents are finite and at least 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

CHUNK = 4096
_CDF_KNOTS = 2 ** 14
# Equal buckets of [0, 1) in the inverse-CDF table; a power of two, so the
# bucket of u, floor(u * _CDF_BUCKETS), is exact.
_CDF_BUCKETS = 2 ** 14


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
    over the truncated region r <= trunc * R; E must exceed the dimension.
    """

    center: tuple[float, ...]
    radius: float
    decay: float = 100.0
    trunc: float = 4.0
    shape: str = "strict"

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"center must be finite, got {tuple(self.center)}")
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not math.isfinite(self.decay):
            raise ValueError(f"decay exponent must be finite, got {self.decay}")
        if self.decay <= self.dim:
            raise ValueError(f"decay exponent must exceed the dimension, got {self.decay:g}")
        if not math.isfinite(self.trunc):
            raise ValueError(f"truncation factor must be finite, got {self.trunc}")
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

    def quantile_radius(self, tail: float = 1e-9) -> float:
        """Radius containing all but the given tail of the sampling mass."""
        grid, cdf = _radial_cdf(self)
        return float(np.interp(1.0 - tail, cdf, grid) * self.radius)

    def truncation_tail_fraction(self) -> float:
        """Weight mass discarded beyond the truncation radius, as a fraction
        of the untruncated total; decays like (1+T)^{dim-decay}.  Closed
        form: see `_radial_integrals`."""
        return _radial_integrals(self)[1]

    def scaled(self, factor: float) -> "BallSpec":
        return BallSpec(center=self.center, radius=self.radius * factor,
                        decay=self.decay, trunc=self.trunc, shape=self.shape)


def weight_mass(ball: BallSpec) -> float:
    """Z = int over the truncated region of the weight: the area of the unit
    sphere times R^dim times the closed-form radial integral of
    `_radial_integrals` (the weight is spherically symmetric)."""
    return sphere_area(ball.dim) * ball.radius ** ball.dim * _radial_integrals(ball)[0]


_radial_cache: dict[tuple, tuple[float, float]] = {}


def _radial_integrals(ball: BallSpec) -> tuple[float, float]:
    """(M, tail): M = int_0^T u^{d-1} w(u) du, the radial weight mass inside
    the truncation at u = r/R = T, and tail the fraction of the untruncated
    radial integral that lies beyond T.  d is an integer, so both have
    closed forms (DLMF 8.17); cached per (d, decay, T, shape)."""
    d, e, t = ball.dim, ball.decay, ball.trunc
    key = (d, e, t, ball.shape)
    if key not in _radial_cache:
        integrals = _strict_integrals if ball.shape == "strict" else _plateau_integrals
        _radial_cache[key] = integrals(d, e, t)
    return _radial_cache[key]


def _plateau_integrals(d: int, e: float, t: float) -> tuple[float, float]:
    """The plateau weight is 1 on [0, 1] and u^-e beyond, so with a = e - d
    the mass is t^d/d for t <= 1 and 1/d + (1 - t^-a)/a otherwise, out of the
    untruncated e/(d a).  Every sum below has terms of one sign."""
    a = e - d
    if t <= 1.0:
        # tail: ((1 - t^d)/d + 1/a) / (e/(d a))
        return t ** d / d, (d - a * math.expm1(d * math.log(t))) / e
    return 1.0 / d - math.expm1(-a * math.log(t)) / a, d / e * math.pow(t, -a)


def _strict_integrals(d: int, e: float, t: float) -> tuple[float, float]:
    """With a = e - d, y = t/(1+t) and x = 1 - y, u = s/(1-s) turns the mass
    into the incomplete beta function B_y(d, a).  The tail fraction is the
    regularised I_x(a, d), which for integer d is the finite sum
    x^a sum_{k<d} (a)_k/k! y^k of positive terms.  The mass is
    B(a, d) (1 - I_x) with B(a, d) = (d-1)!/(a)_d, and the difference is taken
    as (1 - x^a) - x^a sum_{0<k<d}.  Where that loses more than one bit (t
    below the bulk of the weight, so I_x is near 1) the mass comes from the
    series of positive terms B_y(d, a) = y^d x^a/d sum_k (e)_k/(d+1)_k y^k,
    which converges there in a few dozen terms."""
    a = e - d
    y = t / (1.0 + t)
    x_a = _inv_pow1p(t, a)
    terms = [1.0]
    for k in range(1, d):
        terms.append(terms[-1] * (a + k - 1) / k * y)
    tail = x_a * math.fsum(terms)
    head = -math.expm1(-a * math.log1p(t))          # 1 - x^a
    diff = head - x_a * math.fsum(terms[1:])       # 1 - I_x
    if diff >= 0.5 * head:
        return math.factorial(d - 1) / math.prod(a + k for k in range(d)) * diff, tail
    term = total = 1.0
    for k in itertools.count():
        r = (e + k) / (d + 1 + k) * y
        term *= r
        total += term
        # the ratios tend to y monotonically, so none after this exceeds r_max
        r_max = max(r, y)
        if r_max < 1.0 and term * r_max <= 2.0 ** -56 * total * (1.0 - r_max):
            return y ** d * x_a / d * total, tail


def _inv_pow1p(t: float, a: float) -> float:
    """(1+t)^-a to a few ulp for large a: the power of the rounded sum 1+t,
    corrected for the sum's rounding error (which a would amplify)."""
    s = 1.0 + t
    b = s - 1.0
    err = (1.0 - (s - b)) + (t - b)
    return math.pow(s, -a) * math.exp(-a * err / s)


_cdf_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_lookup_cache: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _radial_cdf(ball: BallSpec) -> tuple[np.ndarray, np.ndarray]:
    key = (ball.dim, ball.decay, ball.trunc, ball.shape)
    if key not in _cdf_cache:
        u = np.linspace(0.0, ball.trunc, _CDF_KNOTS + 1)
        dens = u ** (ball.dim - 1) * ball.radial_weight(u)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
        cdf /= cdf[-1]
        _cdf_cache[key] = (u, cdf)
    return _cdf_cache[key]


def _radial_lookup(ball: BallSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, wide, slope) for inverting `_radial_cdf` (same key):
    first[b] is the last knot at or below b / _CDF_BUCKETS, wide[b] marks
    the buckets that reach past the knot after first[b], and slope[j] is
    np.interp's slope on knot interval j (inf on repeated knots, which no
    draw lands in)."""
    key = (ball.dim, ball.decay, ball.trunc, ball.shape)
    if key not in _lookup_cache:
        grid, cdf = _radial_cdf(ball)
        edges = np.arange(_CDF_BUCKETS + 1) / _CDF_BUCKETS
        first = np.searchsorted(cdf, edges, side="right") - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (grid[1:] - grid[:-1]) / (cdf[1:] - cdf[:-1])
        _lookup_cache[key] = (first[:-1], np.diff(first) > 1, slope)
    return _lookup_cache[key]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v: the squared columns summed in
    column order, then sqrt, which is np.linalg.norm(v, axis=1) bit for
    bit in one pass per column."""
    s = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        s += v[:, k] * v[:, k]
    return np.sqrt(s, out=s)


@dataclass(frozen=True)
class Sampler:
    """Monte Carlo sampling policy for weighted norms."""

    budget: int = 20000
    seed: int = 0
    strategy: str = "mc"          # "mc", the only strategy
    proposal: str = "mixture"     # "ball" | "mixture"
    chunk: int = CHUNK

    def __post_init__(self):
        if self.strategy != "mc":
            raise ValueError(f"strategy must be 'mc', got {self.strategy!r}")
        if self.proposal not in ("ball", "mixture"):
            raise ValueError("proposal must be 'ball' or 'mixture'")
        if self.chunk < 1:
            raise ValueError("chunk must be at least 1")
        if self.budget < 1000:
            raise ValueError("mc budget must be at least 10^3")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class _MixtureProposal:
    """Defensive mixture of the ball weight and shrunken copies.

    Components share the radial profile; radii shrinking by 4 down to the
    floor put samples near the center, where extension operators peak, and
    the per-sample density correction keeps every estimate unbiased.
    """

    def __init__(self, ball: BallSpec, defensive: bool, floor: float = 0.9):
        self.ball = ball
        radii = [ball.radius]
        while defensive and radii[-1] / 4.0 > floor:
            radii.append(radii[-1] / 4.0)
        self.radii = np.array(radii)
        k = len(radii)
        self.alphas = np.array([1.0]) if k == 1 else np.array([0.5] + [0.5 / (k - 1)] * (k - 1))
        # Generator.choice(p=alphas) draws searchsorted(cumsum(p) / total,
        # random(n), side="right"); the same stream gives the same indices
        self._comp_cdf = self.alphas.cumsum()
        self._comp_cdf /= self._comp_cdf[-1]
        self.zs = np.array([weight_mass(ball.scaled(r / ball.radius)) for r in self.radii])
        self.grid, self.cdf = _radial_cdf(ball)
        self._first, self._wide, self._slope = _radial_lookup(ball)

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """np.interp(u, cdf, grid) for u in [0, 1), bit for bit: the knot j
        is the last with cdf[j] <= u, and the value slope[j] (u - cdf[j]) +
        grid[j], or grid[j] itself when u == cdf[j]."""
        cdf = self.cdf
        bucket = (u * _CDF_BUCKETS).astype(np.intp)
        j = self._first[bucket]
        j += cdf[j + 1] <= u
        wide = np.flatnonzero(self._wide[bucket])
        if wide.size:
            j[wide] = np.searchsorted(cdf, u[wide], side="right") - 1
        at = cdf[j]
        knot = self.grid[j]
        r = u - at
        r *= self._slope[j]
        r += knot
        np.copyto(r, knot, where=(u == at))
        return r

    def sample(self, seed: int, chunk_index: int, n: int):
        """Returns (points, target_weight / proposal_density)."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        several = len(self.radii) > 1
        if several:
            comp = self._comp_cdf.searchsorted(rng.random(n), side="right")
        r = self._inverse_cdf(rng.random(n))
        r *= self.radii[comp] if several else self.radii[0]
        x = rng.standard_normal((n, self.ball.dim))
        x /= _row_norms(x)[:, None]
        x *= r[:, None]
        center = np.asarray(self.ball.center)
        x += center
        # x - 0 is x, bit for bit
        rr = _row_norms(x - center if np.any(center) else x)
        # the full-radius component's weight is the target weight
        lim = self.ball.trunc * 1.0000001
        u = rr / self.ball.radius
        w = self.ball.radial_weight(u)
        q = w / self.zs[0]
        q *= self.alphas[0]
        q[u > lim] = 0.0
        for a, rj, zj in zip(self.alphas[1:], self.radii[1:], self.zs[1:]):
            np.divide(rr, rj, out=u)
            inside = np.flatnonzero(u <= lim)
            part = self.ball.radial_weight(u[inside])
            part /= zj
            part *= a
            q[inside] += part
        w /= q
        return x, w


@dataclass(frozen=True)
class NormEstimate:
    """A weighted L^p norm value and its Monte Carlo standard error.

    truncation_tail records the fraction of weight mass outside the
    truncated integration region (untruncated-total relative)."""

    value: float
    stderr: float
    truncation_tail: float

    @property
    def rel_stderr(self) -> float:
        return self.stderr / self.value if self.value else 0.0


# Elements of |F| per accumulation block: a block of series rows of the
# sub-batch and its powers stay in a 2 MB L2 cache (8 rows of 4096 samples).
_ACCUM_BLOCK = 2 ** 15
# Elements per evaluator call: each chunk goes to the evaluator in
# sub-batches of a power of two samples (at least 256), so the rows it
# materialises stay within 4 MB of complex values, or 256 samples' worth.
_SERIES_BLOCK = 2 ** 18
_MIN_SUB_BATCH = 256


@dataclass(frozen=True, eq=False)
class OuterBlock:
    """A block of rank-one series given by two factor tables: series k is
    coeffs[k] left[rows[k]] right[cols[k]] (coeffs None: 1), with left and
    right (rows, B) complex tables.  matrix is the (len(left), len(right))
    coefficient matrix C, C[rows[k], cols[k]] = coeffs[k] and 0 elsewhere,
    which the sums over the series read; blocks that are only normed may
    leave it None."""

    left: np.ndarray
    right: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def elements(self) -> int:
        """Rows the block materialises per sample: its two factor tables."""
        return len(self.left) + len(self.right)

    def dense(self) -> np.ndarray:
        """The (series, B) table, each row (left * right) * coeff, filled in
        blocks of _ACCUM_BLOCK elements so no full-size gather is built."""
        out = np.empty((len(self.rows), self.left.shape[1]), dtype=complex)
        step = max(1, _ACCUM_BLOCK // max(1, out.shape[1]))
        for lo in range(0, len(out), step):
            at = slice(lo, lo + step)
            np.multiply(self.left[self.rows[at]], self.right[self.cols[at]], out=out[at])
            if self.coeffs is not None:
                out[at] *= self.coeffs[at, None]
        return out

    def total(self) -> np.ndarray:
        """The sum of the series: sum_r left_r (C right)_r."""
        out = self.matrix @ self.right
        out *= self.left
        return out.sum(axis=0)

    def abs2_total(self) -> np.ndarray:
        """The sum of |series|^2: sum_r |left_r|^2 (|C|^2 |right|^2)_r."""
        out = _abs2(self.matrix) @ _abs2(self.right)
        out *= _abs2(self.left)
        return out.sum(axis=0)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2."""
    out = z.real * z.real
    out += z.imag * z.imag
    return out


def _abs_power(z: np.ndarray, p: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|z|^p of a complex z into one of the real tables a and b (of z's
    shape), which it returns: |z|^2 = re^2 + im^2, raised to p/2 by
    multiplication when p is even, else its sqrt raised to p, by
    multiplication when p is an integer and np.power otherwise."""
    np.multiply(z.real, z.real, out=a)
    np.multiply(z.imag, z.imag, out=b)
    a += b
    if p % 2 == 0:
        return _int_power(a, int(p) // 2, b)
    np.sqrt(a, out=a)
    if p == int(p):
        return _int_power(a, int(p), b)
    return np.power(a, p, out=a)


def _elements(blocks) -> int:
    """Rows an evaluator's blocks materialise per sample: a dense block's
    rows, a factored block's two factor tables."""
    return sum(b.elements if isinstance(b, OuterBlock) else len(b) for b in blocks)


def _sub_batch(chunk: int, rows: int) -> int:
    """Samples per evaluator call for rows materialised per sample: the
    whole chunk when its table fits in _SERIES_BLOCK elements, else the
    largest power of two b with b * rows <= _SERIES_BLOCK, but at least
    _MIN_SUB_BATCH."""
    fit = _SERIES_BLOCK // max(rows, 1)
    if chunk <= fit:
        return chunk
    return min(chunk, max(_MIN_SUB_BATCH, 1 << max(fit.bit_length() - 1, 0)))


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


def _row_blocks(out) -> list:
    """An evaluator's output as a list of blocks of series rows: a bare
    array or `OuterBlock` is one block, a sequence gives its blocks in
    order, and a 1-D array is one row."""
    blocks = [out] if isinstance(out, (np.ndarray, OuterBlock)) else list(out)
    blocks = [b if isinstance(b, OuterBlock) else np.asarray(b) for b in blocks]
    return [b[None, :] if isinstance(b, np.ndarray) and b.ndim == 1 else b
            for b in blocks]


def _outer_sums(blk: OuterBlock, by_p, step: int, scratch, iw: np.ndarray,
                c1: np.ndarray, c2: np.ndarray) -> None:
    """The two sums of an `OuterBlock`'s series, into c1 and c2: for each
    exponent p and its series `at`, the entries (row, col) of
    (|L|^p w/q) |R|^p^T and (|L|^p w/q)^2 (|R|^p)^2^T summed over blocks of
    step samples, through the scratch tables (two per factor), times
    |coeff|^p and |coeff|^2p."""
    la, lb, ra, rb = scratch
    for p, at in by_p:
        m1 = m2 = 0.0
        for a in range(0, len(iw), step):
            e = min(a + step, len(iw))
            lp = _abs_power(blk.left[:, a:e], p, la[:, :e - a], lb[:, :e - a])
            rp = _abs_power(blk.right[:, a:e], p, ra[:, :e - a], rb[:, :e - a])
            lp *= iw[a:e]                   # |L|^p w/q
            m1 = m1 + lp @ rp.T
            lp *= lp                        # |L|^2p (w/q)^2
            rp *= rp
            m2 = m2 + lp @ rp.T
        rows, cols = blk.rows[at], blk.cols[at]
        c1[at] = m1[rows, cols]
        c2[at] = m2[rows, cols]
        if blk.coeffs is not None:
            k = blk.coeffs[at]
            kp = _abs_power(k, p, np.empty(k.shape), np.empty(k.shape))
            c1[at] *= kp
            kp *= kp
            c2[at] *= kp


class _Accumulator:
    """Per-series sums of |F|^p w/q and its square, over batches of at most
    n samples whose series come in blocks of the kinds and sizes of the
    first batch's.

    Dense series rows go max(1, _ACCUM_BLOCK // n) at a time through two
    scratch tables allocated once, so no temporary grows with the series
    count; a group of rows that spans several dense blocks is filled from
    each in turn, and no sum depends on where the blocks split.  A group
    whose series share an integer exponent raises by multiplication; other
    groups (mixed or non-integer p) use np.power.  Each group's two sums
    are one matrix-vector product each, against w/q and its square.

    An `OuterBlock` is summed on its factors: |coeff L R|^p =
    |coeff|^p |L|^p |R|^p, so for each exponent its series' two sums are
    entries of (|L|^p w/q) |R|^p^T and (|L|^2p (w/q)^2) |R|^2p^T, scaled by
    |coeff|^p and |coeff|^2p.  The products go over blocks of samples whose
    factor rows hold _ACCUM_BLOCK elements, through two scratch tables per
    factor allocated once.  A batch whose sums are not all finite is
    summed again on dense rows (`OuterBlock.dense`): that names the first
    non-finite (series, sample) as a dense batch would, or, when every
    dense value is finite (a factor alone overflowed), sums the batch
    densely."""

    def __init__(self, ps: Sequence[float], blocks: Sequence, n: int):
        self.ps, self.n = ps, n
        ps = np.asarray(ps)
        bounds = np.cumsum([0, *(len(b) for b in blocks)])
        self.outer = []     # (block, first and end series, by p, samples per step, scratch)
        dense = []                      # (block, first series, first dense row)
        nd = 0
        for k, blk in enumerate(blocks):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            if isinstance(blk, OuterBlock):
                pb = ps[lo:hi]
                by_p = [(p, slice(None) if np.all(pb == p) else np.flatnonzero(pb == p))
                        for p in sorted(set(pb.tolist()))]
                step = min(n, max(1, _ACCUM_BLOCK // blk.elements))
                scratch = [np.empty((len(f), step)) for f in (blk.left, blk.left,
                                                              blk.right, blk.right)]
                self.outer.append((k, lo, hi, by_p, step, scratch))
            else:
                dense.append((k, lo, nd))
                nd += hi - lo
        # the dense rows, numbered in series order without the factored ones
        self.full = np.concatenate([np.arange(lo, lo + len(blocks[k]))
                                    for k, lo, _ in dense] or [np.zeros(0, int)])
        dps = ps[self.full]
        self.rows = max(1, _ACCUM_BLOCK // n)
        self.blocks = []
        for lo in range(0, nd, self.rows):
            hi = min(lo + self.rows, nd)
            pb = dps[lo:hi]
            same = np.all(pb == pb[0]) and pb[0] == int(pb[0])
            # (input block, its first and end row, first scratch row)
            segs = [(k, max(lo, d) - d, min(hi, d + len(blocks[k])) - d, max(lo, d) - lo)
                    for k, _, d in dense if max(lo, d) < min(hi, d + len(blocks[k]))]
            self.blocks.append((lo, hi, segs, int(pb[0]) if same else pb[:, None]))
        self.mag = np.empty((min(self.rows, nd), n))
        self.powed = np.empty_like(self.mag)
        nser = len(ps)
        self.s1, self.s2 = np.zeros(nser), np.zeros(nser)
        self._c1, self._c2 = np.empty(nser), np.empty(nser)
        self._d1, self._d2 = np.empty(nd), np.empty(nd)
        self._dense_fallback = None

    def add(self, blocks: Sequence, iw: np.ndarray, x: np.ndarray) -> None:
        """Adds one batch of values F at the points x with importance
        weights iw: the blocks of series, in series order, as the first
        batch's.  The blocks are only read.  A non-finite F raises
        PoisonedEstimateError for the first such (series, sample), before
        the batch reaches the sums."""
        self._sums(blocks, iw)
        # the terms are >= 0, so the total is finite unless a term is not
        # (or the total overflows, which this check lets pass)
        if not math.isfinite(self._c1.sum() + self._c2.sum()):
            if self.outer:
                dense = [b.dense() if isinstance(b, OuterBlock) else b for b in blocks]
                if self._dense_fallback is None:
                    self._dense_fallback = _Accumulator(self.ps, dense, self.n)
                fallback = self._dense_fallback
                fallback._sums(dense, iw)
                fallback._check(dense, x)
                self._c1[:], self._c2[:] = fallback._c1, fallback._c2
            else:
                self._check(blocks, x)
        self.s1 += self._c1
        self.s2 += self._c2

    def _sums(self, blocks, iw) -> None:
        """The batch's two sums per series, into _c1 and _c2."""
        iw2 = iw * iw
        n = len(iw)
        for lo, hi, segs, p in self.blocks:
            mag = self._magnitudes(blocks, lo, hi, segs, n)
            if isinstance(p, int):
                v = _int_power(mag, p, self.powed[:hi - lo, :n])
            else:
                v = np.power(mag, p, out=self.powed[:hi - lo, :n])
            np.dot(v, iw, out=self._d1[lo:hi])
            v *= v
            np.dot(v, iw2, out=self._d2[lo:hi])
        self._c1[self.full] = self._d1
        self._c2[self.full] = self._d2
        # a factor alone may overflow where every product is finite: add()
        # then sums the batch again on dense rows
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for k, lo, hi, by_p, step, scratch in self.outer:
                _outer_sums(blocks[k], by_p, step, scratch, iw,
                            self._c1[lo:hi], self._c2[lo:hi])

    def _check(self, blocks, x) -> None:
        """Raises PoisonedEstimateError for the first non-finite |F| in
        (series, sample) order of dense blocks, if there is one."""
        for lo, hi, segs, _ in self.blocks:
            bad = np.argwhere(~np.isfinite(self._magnitudes(blocks, lo, hi, segs, len(x))))
            if len(bad):
                raise PoisonedEstimateError(x[bad[0][1]], int(self.full[lo + bad[0][0]]))

    def _magnitudes(self, blocks, lo, hi, segs, n) -> np.ndarray:
        """|F| of dense rows lo:hi, in the first scratch table."""
        mag = self.mag[:hi - lo, :n]
        for k, a, e, d in segs:
            np.abs(blocks[k][a:e], out=mag[d:d + e - a])
        return mag


def weighted_norm_batch(evaluator: Callable[[np.ndarray], object],
                        ball: BallSpec, ps: Sequence[float],
                        sampler: Sampler) -> list[NormEstimate]:
    """(int |F_k|^{p_k} w)^{1/p_k} for a family of integrands on common
    random numbers.

    evaluator(X) returns the series on a batch X of shape (B, dim): an
    (n_series, B) array (complex or real), or a sequence of row blocks,
    each (rows, B), a single (B,) row or an `OuterBlock` of rank-one
    series, whose rows in order are the series; every call gives blocks of
    the same kinds and sizes.  B is at most the sampler's chunk: each chunk
    goes to the evaluator in sub-batches, and each returned table is
    dropped before the next call.  The first call takes as many samples as
    fit _SERIES_BLOCK values of the series count (at least 256), which
    bounds any table it returns; the later ones as many as fit the rows
    that call materialised, an `OuterBlock` counting its two factor tables.
    All series share the sample set, so ratios of the returned values have
    strongly reduced variance.  Every exponent must be finite and >= 1:
    a ValueError names the first that is not, before any sample is drawn.
    """
    ps = [float(p) for p in ps]
    bad = next((p for p in ps if not 1.0 <= p < math.inf), None)
    if bad is not None:
        raise ValueError(f"norm exponents must be finite and >= 1, got {bad:g}")
    prop = _MixtureProposal(ball, defensive=(sampler.proposal == "mixture"))
    b = _sub_batch(sampler.chunk, len(ps))
    acc = None
    tot = k = 0
    while tot < sampler.budget:
        n = min(sampler.chunk, sampler.budget - tot)
        x, iw = prop.sample(sampler.seed, k, n)
        lo = 0
        while lo < n:
            xs = x[lo:lo + b]
            blocks = _row_blocks(evaluator(xs))
            if acc is None:
                if len(ps) != sum(len(blk) for blk in blocks):
                    raise ValueError("one exponent per series required")
                first = len(xs)
                b = _sub_batch(sampler.chunk, _elements(blocks))
                acc = _Accumulator(ps, blocks, min(n, max(first, b)))
            acc.add(blocks, iw[lo:lo + len(xs)], xs)
            del blocks
            lo += len(xs)
        tot += n
        k += 1
    tail = ball.truncation_tail_fraction()
    out = []
    for i, p in enumerate(ps):
        # E_q[|F|^p w/q] = int |F|^p w, so the weighted mean is the integral
        integral = acc.s1[i] / tot
        var = max(acc.s2[i] / tot - integral * integral, 0.0) / tot
        value = integral ** (1.0 / p)
        stderr = math.sqrt(var) * value / (p * integral) if integral > 0 else 0.0
        out.append(NormEstimate(float(value), float(stderr), tail))
    return out


def weighted_lp_norm(f: Callable[[np.ndarray], np.ndarray], ball: BallSpec,
                     p: float, sampler: Sampler) -> NormEstimate:
    """Single-integrand wrapper; bit-identical to a batch of one."""
    return weighted_norm_batch(lambda x: np.asarray(f(x)), ball, [p], sampler)[0]
