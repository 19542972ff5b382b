"""Amplitude fields on [0,1]^2 and evaluation of the extension operator.

A field is either atomic (point masses) or continuous (an amplitude sampled
by per-cell tensor Gauss-Legendre quadrature).  Extension values
E g(x) = int g(t,s) e(x . psi(t,s)) dt ds, with e(z) = exp(2 pi i z), are
computed by direct oscillatory summation; node counts scale with the phase
variation across a cell at the largest frequency requested, which keeps the
quadrature converged for every sample the norm estimators draw.

Engines: "atomic" for point masses; for continuous fields with a separable
profile g1(t) g2(s), "separable" when the phase splits as f(t) + g(s) and
"quadratic" on any other quadratic surface; "tensor", the generic per-cell
n^2 sum, for general profiles and other surfaces.  The quadratic engine
shares the cross term e(2B uv) of the cell phase between all cells and,
while theta = 2 pi |2B| h^2 <= _CROSS_THETA_MAX = 4 (h the cell side),
splits it into r < n Taylor terms, r the smallest count with theta^r/r! <=
2^-60 (`_cross_split`, within 7.5e-16 of sum |W| of a long-double reference
at the cap); other sample blocks take the direct n x n table.  Its per-cell
e(alpha u) rows step up each column of cells by a cap shift.  Per sample
that is (2 + columns + distinct Vs tables) n + cells e(.) calls, n^2 more
on the direct table, instead of cells n^2.  On a quadratic surface the
separable engine's 1-D interval factors come from a cap-shift recurrence
(`_shift_sums`): interval r+1's e(.) node table is interval r's times one
step table, so a factor over `rows` intervals of n nodes takes 2n + rows e(.)
calls per sample instead of rows n; over 128 intervals it stays within
1.6e-12 of a long-double reference (direct sums: 4.5e-13).  The planar
parabola's cap sums go through the same factor (`AxisFactor`).  Atoms whose
surface points form an exact arithmetic progression (tested with equality,
no tolerance) have the phase c0 + k c1, and a two-level split
e(c0 + k c1) = e(j b c1) e(c0 + i c1), k = j b + i, b = ceil(sqrt(n)), takes
b + ceil(n/b) e(.) calls per sample instead of n, with no recurrence.
Every engine evaluates e(.) with one table-driven kernel, `_cis`.  Node sums take
NODE_BLOCK nodes at a time, and the quadratic engine and the recurrence a
block of samples sized by QUAD_BLOCK_ELEMENTS, so temporaries stay bounded
whatever the node count.

Node counts follow from the resolution radius x_max, the bound on |x|_inf
of the samples, except on the separable engine's 1-D factors, which resolve
each sample for its own |x|_inf on a node ladder: level l holds
nodes_for_cycles(x_max 2^-l bound side) nodes, levels go down while each
keeps at most 3/4 of the previous one's nodes (210, 113, 65, 41, 29 at
N = 256), and a sample takes the deepest level whose radius x_max 2^-l
covers it, level 0 beyond x_max.  So every sample within x_max is summed on
at least the nodes its own frequency needs, and the mixture sampler's many
samples well inside x_max cost a fraction of level 0's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import QuadSurface, SurfaceEvaluator
from .grid import CapPartition, DyadicSquare, square_at

TWO_PI_I = 2j * np.pi


def _cis_table(steps: int) -> np.ndarray:
    """e(j/steps) for j = 0..steps-1, rounded to complex128 from long double."""
    angle = np.arange(steps, dtype=np.longdouble) * (8 * np.arctan(np.longdouble(1))) / steps
    return np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float)


# e(.) kernel: the table of e(j/1024) and the elements handled per pass (the
# scratch of one pass stays in a 2 MB L2 cache).
_CIS_STEPS = 1024
_CIS_TABLE = _cis_table(_CIS_STEPS)
_CIS_BLOCK = 16384
# Quadrature nodes per phase table: node sums hold at most NODE_BLOCK x batch
# phases at a time, whatever the node count of a cell.
NODE_BLOCK = 256
# Table elements per sample block of the quadratic engine: a block holds
# QUAD_BLOCK_ELEMENTS // (n * max(n, cells)) samples, so its n x n e(.) table
# and its (cells, n) tables stay bounded whatever the node count n.  The
# separable recurrence's P and Z tables share this budget.
QUAD_BLOCK_ELEMENTS = 2 ** 17
# Largest theta = 2 pi |2B| h^2 at which the quadratic engine splits the
# cross term e(2B uv) by Taylor terms; beyond it the terms' cancellation
# costs digits and the engine keeps the direct n x n table.
_CROSS_THETA_MAX = 4.0

_leg_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _leg_cache:
        _leg_cache[n] = leggauss(n)
    return _leg_cache[n]


def _cis(ph) -> np.ndarray:
    """e(ph) = exp(2 pi i ph) elementwise, for a real array of any shape.

    The phase is reduced exactly: y = 1024 ph and k = rint(y) are exact, so
    is y - k, and e(ph) = e(k/1024) e(r) with r = (y - k)/1024, |2 pi r| <=
    pi/1024.  e(k/1024) comes from a constant table indexed by k mod 1024,
    e(r) from Taylor polynomials in 2 pi r (cos to r^4, sin to r^5; the
    truncation is below 1e-17).  The result is within 1e-15 of e(ph) for
    every finite ph, however large: np.exp(2j * np.pi * ph) rounds 2 pi ph
    first and is off by about 1e-11 at |ph| ~ 1.6e4.  Non-finite phases give
    NaN (the index of a NaN wraps into the table; the NaN flows through r).
    Runs in passes of _CIS_BLOCK elements over preallocated scratch.
    """
    ph = np.asarray(ph, dtype=float)
    flat = ph.ravel()
    n = flat.size
    out = np.empty(n, dtype=complex)
    m = max(1, min(n, _CIS_BLOCK))
    y, k, t2, tmp = (np.empty(m) for _ in range(4))
    idx = np.empty(m, dtype=np.int64)
    base = np.empty(m, dtype=complex)
    w = np.empty(m, dtype=complex)
    w_re, w_im = w.real, w.imag
    with np.errstate(invalid="ignore"):         # NaN and inf cast to the index
        for lo in range(0, n, m):
            b = min(m, n - lo)
            yb, kb, t2b, tb, ib, wb = y[:b], k[:b], t2[:b], tmp[:b], idx[:b], w[:b]
            np.multiply(flat[lo:lo + b], float(_CIS_STEPS), out=yb)
            np.rint(yb, out=kb)
            yb -= kb
            yb *= 2.0 * np.pi / _CIS_STEPS      # theta = 2 pi r
            np.multiply(yb, yb, out=t2b)
            np.multiply(t2b, 1.0 / 24.0, out=tb)
            tb -= 0.5
            tb *= t2b
            np.add(tb, 1.0, out=w_re[:b])       # cos theta
            np.multiply(t2b, 1.0 / 120.0, out=tb)
            tb -= 1.0 / 6.0
            tb *= t2b
            tb += 1.0
            np.multiply(tb, yb, out=w_im[:b])   # sin theta
            np.copyto(ib, kb, casting="unsafe")
            ib &= _CIS_STEPS - 1
            np.take(_CIS_TABLE, ib, out=base[:b], mode="clip")
            np.multiply(base[:b], wb, out=out[lo:lo + b])
    return out.reshape(ph.shape)


def _node_sum(amp: np.ndarray, phase: Callable, batch: int) -> np.ndarray:
    """sum_j amp[j] e(phase_j) over quadrature nodes, for a batch of points.

    phase(blk) returns the (nodes in slice blk, batch) phase table.  Nodes go
    NODE_BLOCK at a time, so no temporary grows with the node count."""
    total = np.zeros(batch, dtype=complex)
    for lo in range(0, amp.shape[0], NODE_BLOCK):
        blk = slice(lo, lo + NODE_BLOCK)
        total += amp[blk] @ _cis(phase(blk))
    return total


def _interval_sums(nodes: np.ndarray, amps: np.ndarray, phase: Callable,
                   X: np.ndarray) -> np.ndarray:
    """1-D extension sums over intervals: (n_intervals, B).  nodes[k] and
    amps[k] are interval k's nodes and weighted amplitudes, and
    phase(t_nodes, X) is the (len(t_nodes), B) phase table."""
    out = np.empty((nodes.shape[0], X.shape[0]), dtype=complex)
    for k, (tn, amp) in enumerate(zip(nodes, amps)):
        out[k] = _node_sum(amp, lambda blk, tn=tn: phase(tn[blk], X), X.shape[0])
    return out


def _shift_sums(rows: np.ndarray, h: float, u: np.ndarray, amps: np.ndarray,
                lin: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """1-D extension sums of the phase lin t + quad t^2 over the intervals
    [r h, (r+1) h], r in rows (sorted integers), without their corner factors
    e(lin rh + quad (rh)^2): (len(rows), B).  u holds the local Gauss nodes
    (offsets from an interval's start), amps[k] interval k's weighted
    amplitudes, lin and quad the (B,) coefficients.

    Cap shift: lin (rh + u) + quad (rh + u)^2 = [lin rh + quad (rh)^2]
    + (lin + 2 quad rh) u + quad u^2, so the node part P_r = e((lin + 2 quad
    rh) u + quad u^2) obeys P_{r+1} = P_r Z with Z = e(2 quad h u).  P starts
    exactly at the first row and steps through every row up to the last, gaps
    included; per sample that is 2n e(.) calls, and rows more for the
    corners, instead of rows n.  Nodes go NODE_BLOCK at a time and samples
    in blocks that keep P and Z within QUAD_BLOCK_ELEMENTS elements
    together; one e(.) pass makes both."""
    batch = lin.shape[0]
    out = np.zeros((len(rows), batch), dtype=complex)
    r0 = int(rows[0])
    for lo in range(0, u.shape[0], NODE_BLOCK):
        ub = u[lo:lo + NODE_BLOCK]
        step = max(1, QUAD_BLOCK_ELEMENTS // (2 * ub.shape[0]))
        for b0 in range(0, batch, step):
            sl = slice(b0, b0 + step)
            q = quad[sl]
            ph = np.empty((2, ub.shape[0], q.shape[0]))
            np.multiply.outer(ub, lin[sl] + 2 * r0 * h * q, out=ph[0])
            ph[0] += np.multiply.outer(ub * ub, q)
            np.multiply.outer(2 * h * ub, q, out=ph[1])
            P, Z = _cis(ph)
            del ph
            r = r0
            for k, row in enumerate(rows):
                for _ in range(row - r):
                    P *= Z
                r = row
                out[k, sl] += amps[k, lo:lo + NODE_BLOCK] @ P
    return out


def _taylor_rank(theta: float) -> int:
    """The smallest term count r with theta^r / r! <= 2^-60: the rank of the
    Taylor split of e(2B uv) when |2 pi 2B uv| <= theta.  Only for moderate
    theta: past about 700, theta^r / r! overflows and the loop never ends,
    so callers check theta against _CROSS_THETA_MAX first."""
    r, term = 1, theta
    while term > 2.0 ** -60:
        r += 1
        term *= theta / r
    return r


def _cross_split(W: np.ndarray, z: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """S[b, d, i] = sum_j W[b, d, j] e(2B u_i u_j) for nodes u in [0, h], by
    e(2B u_i u_j) = sum_{k<r} (i z)^k / k! (u_i/h)^k (u_j/h)^k with z the
    (b,) array 2 pi 2B h^2: two contractions through the (n, r) table pw of
    powers (u/h)^k, the first over j, the second over k.  The remainder is
    theta^r / r! of sum |W| (theta = max |z|)."""
    r = pw.shape[1]
    coef = np.ones((z.shape[0], r), dtype=complex)
    coef[:, 1:] = 1j * z[:, None] / np.arange(1, r)
    np.cumprod(coef, axis=1, out=coef)                          # (i z)^k / k!
    M = W @ pw                                                  # (b, distinct, r)
    M *= coef[:, None, :]
    return M @ pw.T


def _progression_split(phi: np.ndarray) -> int | None:
    """The block length b = ceil(sqrt(n)) of the two-level split when the n
    rows of phi form an exact arithmetic progression, phi[k] = phi[0] +
    k (phi[1] - phi[0]) with no tolerance, and the split takes fewer e(.)
    calls than n; None otherwise."""
    n = phi.shape[0]
    if n < 2:
        return None
    b = math.isqrt(n - 1) + 1
    if b + -(-n // b) >= n:
        return None
    k = np.arange(n, dtype=float)
    if not np.array_equal(phi, phi[0] + k[:, None] * (phi[1] - phi[0])):
        return None
    return b


def _progression_values(phi: np.ndarray, amps: np.ndarray, b: int,
                        X: np.ndarray) -> np.ndarray:
    """amps[k] e(x.phi[k]) for the rows of an exact progression (see
    `_progression_split`): (n, B).  The phase is c0 + k c1 with c0 = x.phi[0]
    and c1 = x.(phi[1] - phi[0]), so value k = amps[k] O[k // b] I[k % b]
    with I[i] = e(c0 + i c1) and O[j] = e(j b c1): b + ceil(n/b) e(.) calls
    per sample instead of n, and no recurrence.  Equal amplitudes are folded
    into I."""
    n, batch = phi.shape[0], X.shape[0]
    c0 = X @ phi[0]
    c1 = X @ (phi[1] - phi[0])
    inner = _cis(c0 + np.multiply.outer(np.arange(b, dtype=float), c1))
    constant = bool(np.all(amps == amps[0]))
    if constant:
        inner *= amps[0]
    outer = _cis(np.multiply.outer(np.arange(0, n, b, dtype=float), c1))
    out = np.empty((n, batch), dtype=complex)
    full = n // b
    np.multiply(outer[:full, None], inner, out=out[:full * b].reshape(full, b, batch))
    if full * b < n:
        np.multiply(outer[full], inner[:n - full * b], out=out[full * b:])
    if not constant:
        out *= amps[:, None]
    return out


def nodes_for_cycles(cycles: float, factor: int = 1) -> int:
    """Gauss-Legendre node count resolving the given number of phase cycles."""
    return int(np.ceil(3.2 * max(cycles, 0.0)) + 16) * factor


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=float), dtype=complex)


class AxisFactor:
    """X -> (len(rows), B): the 1-D extension sums over the intervals
    [r side, (r+1) side], r in rows (sorted integers), with amplitude g
    (None: 1).  With quad None the phase is the table part(nodes, X), summed
    directly; otherwise it is lin t + quad t^2 with the coefficient
    lin = X[:, lin] and quad = X[:, -len(quad):] @ quad (the trailing
    coordinates' coefficients in t^2), summed by the cap shift of
    `_shift_sums`.  The phase varies at most bound |x|_inf per unit t.

    Node ladder: level l resolves the radius x_max 2^-l on
    nodes[l] = nodes_for_cycles(x_max 2^-l bound side, node_factor) Gauss
    nodes, and levels are added while the next keeps at most 3/4 of the
    nodes.  A sample is summed on the deepest level whose radius covers its
    |x|_inf, so on at least as many nodes as its own frequency needs;
    samples beyond x_max take level 0."""

    def __init__(self, rows: np.ndarray, side: float, x_max: float, bound: float,
                 node_factor: int, g: Callable | None, part: Callable | None,
                 lin: int, quad):
        self.rows, self._side, self._part, self._lin = rows, side, part, lin
        self._quad = None if quad is None else np.array(quad, dtype=float)
        nodes = [nodes_for_cycles(x_max * bound * side, node_factor)]
        while 4 * (n := nodes_for_cycles(x_max * 2.0 ** -len(nodes) * bound * side,
                                         node_factor)) <= 3 * nodes[-1]:
            nodes.append(n)
        self.nodes = np.array(nodes)
        # -radius by level, ascending, for the placement search
        self._neg_radii = -x_max * 2.0 ** -np.arange(len(nodes))
        amplitude = g if g is not None else _ones
        self._levels = []           # (local nodes u, nodes, weighted amplitudes)
        for n in nodes:
            xg, wg = _gauss(n)
            u = side / 2 * (xg + 1.0)
            t = np.add.outer(rows * side, u)
            amp = np.asarray(amplitude(t), dtype=complex) * (side / 2 * wg)
            self._levels.append((u, t, amp))

    def level_of(self, X: np.ndarray) -> np.ndarray:
        """The ladder level of each sample: the deepest whose radius covers
        its |x|_inf, 0 beyond x_max."""
        reach = np.abs(X).max(axis=1, initial=0.0)
        covered = np.searchsorted(self._neg_radii, -reach, side="right")
        return np.maximum(covered - 1, 0)

    def _level_sums(self, level: int, coef: np.ndarray) -> np.ndarray:
        """Level `level`'s sums at its samples' coefficients: the samples
        themselves for a phase table, the (lin, quad) columns for the cap
        shift, whose corner factors `sums` applies."""
        u, t, amp = self._levels[level]
        if self._quad is None:
            return _interval_sums(t, amp, self._part, coef)
        return _shift_sums(self.rows, self._side, u, amp, coef[:, 0], coef[:, 1])

    def sums(self, X: np.ndarray) -> tuple[np.ndarray, int]:
        """(the (rows, B) sums, the node-samples summed for them).  Each
        level sums its own samples, scattered into the result; the cap
        shift's corner factors go on once, over the whole batch."""
        level = self.level_of(X)
        count = np.bincount(level, minlength=len(self.nodes))
        work = len(self.rows) * int(count @ self.nodes)
        coef = X
        if self._quad is not None:
            coef = np.column_stack([X[:, self._lin], X[:, -len(self._quad):] @ self._quad])
        present = np.flatnonzero(count)
        if len(present) <= 1:
            out = self._level_sums(int(present[0]) if len(present) else 0, coef)
        else:
            out = np.empty((len(self.rows), X.shape[0]), dtype=complex)
            for k in present:
                at = np.flatnonzero(level == k)
                out[:, at] = self._level_sums(int(k), coef[at])
        if self._quad is not None:
            c = self.rows * self._side
            out *= _cis(np.multiply.outer(c, coef[:, 0]) + np.multiply.outer(c * c, coef[:, 1]))
        return out, work

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.sums(X)[0]


@dataclass(frozen=True)
class AmplitudeField:
    """Amplitude input g for the extension operator.

    mode "atomic": point masses (points, amplitudes).
    mode "continuous": cells (disjoint dyadic squares at one level) carrying
    amplitude coeff[k] * g1(t) * g2(s) * g_extra(t, s); factors default to 1.
    Fields are immutable; transforms return new instances.
    """

    mode: str
    points: np.ndarray | None = None
    amplitudes: np.ndarray | None = None
    cells: tuple[DyadicSquare, ...] = ()
    coeffs: np.ndarray | None = None
    g1: Callable | None = None
    g2: Callable | None = None
    g_extra: Callable | None = None
    node_factor: int = 1

    def __post_init__(self):
        if self.mode == "continuous" and self.cells:
            if len({c.level for c in self.cells}) != 1:
                raise ValueError("quadrature cells must share one level")

    # -- constructors -------------------------------------------------------

    @classmethod
    def atomic(cls, points, amplitudes) -> "AmplitudeField":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if pts.shape[1] != 2 or pts.shape[0] != amps.shape[0]:
            raise ValueError("points must be (n,2) with matching amplitudes")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(amps))):
            raise ValueError("atomic points and amplitudes must be finite")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("atomic points must lie in [0,1]^2")
        return cls(mode="atomic", points=pts, amplitudes=amps)

    @classmethod
    def constant(cls, level: int, value: complex = 1.0,
                 support: Sequence[DyadicSquare] | None = None) -> "AmplitudeField":
        cells = tuple(support) if support is not None else tuple(CapPartition.full(level))
        coeffs = np.full(len(cells), complex(value))
        return cls(mode="continuous", cells=cells, coeffs=coeffs)

    @classmethod
    def random_phase(cls, level: int, seed: int,
                     support: Sequence[DyadicSquare] | None = None) -> "AmplitudeField":
        cells = tuple(support) if support is not None else tuple(CapPartition.full(level))
        rng = np.random.default_rng(seed)
        coeffs = np.exp(TWO_PI_I * rng.random(len(cells)))
        return cls(mode="continuous", cells=cells, coeffs=coeffs)

    @classmethod
    def separable(cls, level: int, g1: Callable | None, g2: Callable | None,
                  support: Sequence[DyadicSquare] | None = None) -> "AmplitudeField":
        cells = tuple(support) if support is not None else tuple(CapPartition.full(level))
        return cls(mode="continuous", cells=cells,
                   coeffs=np.ones(len(cells), dtype=complex), g1=g1, g2=g2)

    @classmethod
    def from_function(cls, level: int, g: Callable,
                      support: Sequence[DyadicSquare] | None = None) -> "AmplitudeField":
        cells = tuple(support) if support is not None else tuple(CapPartition.full(level))
        return cls(mode="continuous", cells=cells,
                   coeffs=np.ones(len(cells), dtype=complex), g_extra=g)

    # -- structure ----------------------------------------------------------

    @property
    def separable_profile(self) -> bool:
        return self.mode == "continuous" and self.g_extra is None

    @property
    def cell_level(self) -> int:
        if not self.cells:
            raise ValueError("field has no cells")
        return self.cells[0].level

    def support_squares(self, level: int) -> tuple[DyadicSquare, ...]:
        """Support at the requested level (atomic: occupied caps)."""
        if self.mode == "atomic":
            seen = {}
            for t, s in self.points:
                sq = square_at(level, t, s)
                seen[(sq.i, sq.j)] = sq
            return tuple(seen[k] for k in sorted(seen))
        out = {}
        for cell in self.cells:
            if level <= cell.level:
                sq = DyadicSquare(level, cell.i >> (cell.level - level),
                                  cell.j >> (cell.level - level))
                out[(sq.i, sq.j)] = sq
            else:
                for sub in cell.subdivide(level - cell.level):
                    out[(sub.i, sub.j)] = sub
        return tuple(out[k] for k in sorted(out))

    def amplitude_on_cell(self, k: int, t, s):
        v = np.full(np.broadcast_shapes(np.shape(t), np.shape(s)), self.coeffs[k])
        if self.g1 is not None:
            v = v * self.g1(np.asarray(t, dtype=float))
        if self.g2 is not None:
            v = v * self.g2(np.asarray(s, dtype=float))
        if self.g_extra is not None:
            v = v * self.g_extra(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        return v

    # -- transforms ---------------------------------------------------------

    def restrict(self, square: DyadicSquare) -> "AmplitudeField":
        """Restriction to a dyadic square (half-open cap convention for
        atomic points; whole-cell selection for continuous fields).  An
        empty restriction is a valid zero field."""
        if self.mode == "atomic":
            mask = square.contains(self.points[:, 0], self.points[:, 1])
            return AmplitudeField(mode="atomic", points=self.points[mask],
                                  amplitudes=self.amplitudes[mask])
        if self.cells and square.level > self.cell_level:
            raise ValueError("cannot restrict below the quadrature cell level")
        keep = [k for k, c in enumerate(self.cells) if square.contains_square(c)]
        return replace(self, cells=tuple(self.cells[k] for k in keep),
                       coeffs=self.coeffs[keep])

    def refine(self, factor: int) -> "AmplitudeField":
        """Refined tensor quadrature (continuous only)."""
        if self.mode != "continuous":
            raise ValueError("refine applies to continuous fields only")
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return replace(self, node_factor=self.node_factor * int(factor))

    def scaled(self, factor: complex) -> "AmplitudeField":
        if self.mode == "atomic":
            return AmplitudeField(mode="atomic", points=self.points,
                                  amplitudes=self.amplitudes * factor)
        return replace(self, coeffs=self.coeffs * factor)

    def conjugated(self) -> "AmplitudeField":
        if self.mode == "atomic":
            return AmplitudeField(mode="atomic", points=self.points,
                                  amplitudes=np.conj(self.amplitudes))
        raise ValueError("conjugation helper implemented for atomic mode")

    def modulated(self, surface: SurfaceEvaluator, y) -> "AmplitudeField":
        """Multiply the amplitude by e(y . psi(t,s))."""
        y = np.asarray(y, dtype=float)
        if self.mode == "atomic":
            phase = self.points_phase(surface) @ y
            return AmplitudeField(mode="atomic", points=self.points,
                                  amplitudes=self.amplitudes * np.exp(TWO_PI_I * phase))

        def extra(t, s, _old=self.g_extra):
            v = np.exp(TWO_PI_I * (surface.value(t, s) @ y))
            return v if _old is None else v * _old(t, s)

        return replace(self, g_extra=extra)

    def remapped(self, offset: tuple[float, float], scale: float,
                 amplitude_factor: complex) -> "AmplitudeField":
        """Continuous-field cap rescaling: cells must be dyadic inside the
        dyadic square [a, a+scale] x [b, b+scale]."""
        lev = int(round(-np.log2(scale)))
        if abs(scale - 2.0 ** -lev) > 1e-12:
            raise ValueError("continuous rescaling needs a dyadic side")
        a, b = offset
        region = square_at(lev, min(a, 1 - 1e-12), min(b, 1 - 1e-12))
        if abs(region.corner[0] - a) > 1e-12 or abs(region.corner[1] - b) > 1e-12:
            raise ValueError("continuous rescaling needs a dyadic-aligned square")
        new_cells = []
        for c in self.cells:
            shift = c.level - lev
            new_cells.append(DyadicSquare(shift, c.i - (region.i << shift),
                                          c.j - (region.j << shift)))

        g1 = (lambda u, _g=self.g1: _g(scale * np.asarray(u) + a)) if self.g1 else None
        g2 = (lambda u, _g=self.g2: _g(scale * np.asarray(u) + b)) if self.g2 else None
        g_extra = None
        if self.g_extra is not None:
            g_extra = lambda u, v, _g=self.g_extra: _g(scale * np.asarray(u) + a,
                                                       scale * np.asarray(v) + b)
        return AmplitudeField(mode="continuous", cells=tuple(new_cells),
                              coeffs=self.coeffs * amplitude_factor,
                              g1=g1, g2=g2, g_extra=g_extra,
                              node_factor=self.node_factor)

    def points_phase(self, surface: SurfaceEvaluator) -> np.ndarray:
        return surface.value(self.points[:, 0], self.points[:, 1])


# ---------------------------------------------------------------------------
# extension evaluation


class ExtensionEvaluator:
    """Evaluates per-cell extension values and their sum on sample batches.

    x_max bounds the sup-norm of the frequency points that will be queried;
    quadrature node counts grow linearly with it so that the oscillatory
    integrals stay resolved (on the separable engine, with each sample's own
    sup-norm: see `AxisFactor`).  node_samples counts the node-samples that
    cell_values has summed.
    """

    def __init__(self, surface: SurfaceEvaluator, amp_field: AmplitudeField,
                 x_max: float):
        self.surface = surface
        self.field = amp_field
        self.x_max = float(x_max)
        self.node_samples = 0
        self._mode = None
        if amp_field.mode == "atomic":
            self._mode = "atomic"
            self._phase = amp_field.points_phase(surface)      # (n, 4)
            self._amps = amp_field.amplitudes
            self._nodes_per_sample = self._amps.shape[0]
            self._split = _progression_split(self._phase)
            self.cells = None
            return
        self.cells = amp_field.cells
        split = surface.phase_split()
        # an empty field (a valid zero field) has nothing to build and takes
        # the tensor path
        factorized = amp_field.separable_profile and bool(self.cells)
        if split is not None and factorized:
            self._mode = "separable"
            self._build_separable(split)
        elif isinstance(surface, QuadSurface) and factorized:
            self._mode = "quadratic"
            self._build_quadratic()
        else:
            self._mode = "tensor"
            self._build_tensor()

    # -- cell machinery -----------------------------------------------------

    def _phase_bound(self) -> float:
        surf = self.surface
        if hasattr(surf, "phase_derivative_bound"):
            return surf.phase_derivative_bound()
        # generic bound from sampled first derivatives
        tt = np.linspace(0, 1, 33)
        g = np.meshgrid(tt, tt, indexing="ij")
        dmax = 0.0
        for w in ("t", "s"):
            d = surf.partial(g[0], g[1], w)
            dmax = max(dmax, float(np.abs(d).sum(axis=-1).max()))
        return dmax

    def _build_separable(self, split):
        # The 1-D factors of a QuadSurface (a2 = a5 = 0) go by the cap-shift
        # recurrence of _shift_sums; other splits (curve lifts) are summed
        # directly from the split's phase tables.
        f = self.field
        side = f.cells[0].side
        bound = self._phase_bound()
        ti = np.array(sorted({c.i for c in f.cells}))
        sj = np.array(sorted({c.j for c in f.cells}))
        cell_rows = np.searchsorted(ti, [c.i for c in f.cells])
        cell_cols = np.searchsorted(sj, [c.j for c in f.cells])
        quad_t = quad_s = None
        if isinstance(self.surface, QuadSurface):
            a = self.surface.coeffs
            quad_t, quad_s = (a.a1, a.a4), (a.a3, a.a6)
        self._factors = [
            AxisFactor(ti, side, self.x_max, bound, f.node_factor, f.g1, split[0], 0, quad_t),
            AxisFactor(sj, side, self.x_max, bound, f.node_factor, f.g2, split[1], 1, quad_s)]
        self._nodes_per_sample = int(self._factors[0].nodes[0]) * (len(ti) + len(sj))
        # Cell values go one row of cells at a time: (cells of the row, as a
        # slice when they are contiguous; their columns, a slice when they
        # are every column in order).
        self._row_cells = []
        for r in range(len(ti)):
            at = np.flatnonzero(cell_rows == r)
            cols = cell_cols[at]
            if np.array_equal(cols, np.arange(len(sj))):
                cols = slice(None)
            if at[-1] - at[0] + 1 == len(at):
                at = slice(int(at[0]), int(at[-1]) + 1)
            self._row_cells.append((r, at, cols))
        self._unit_coeffs = bool(np.all(f.coeffs == 1))

    def _build_quadratic(self):
        # Cells share one level, so one local Gauss grid u = v (offsets from
        # the cell corner) and weights w serve every cell.  With
        # x.psi(t0+u, s0+v) = x.psi(t0, s0) + alpha u + beta v
        #                     + A u^2 + 2B uv + C v^2
        # only alpha = x1 + 2A t0 + 2B s0 and beta = x2 + 2B t0 + 2C s0
        # depend on the cell, both linear in (x3, x4) with per-cell slopes.
        f = self.field
        a = self.surface.coeffs
        side = f.cells[0].side
        n1 = nodes_for_cycles(self.x_max * self._phase_bound() * side, f.node_factor)
        xg, wg = _gauss(n1)
        u = side / 2 * (xg + 1.0)
        w = side / 2 * wg
        t0 = np.array([c.bounds[0] for c in f.cells])
        s0 = np.array([c.bounds[2] for c in f.cells])
        g1 = f.g1 if f.g1 is not None else _ones
        g2 = f.g2 if f.g2 is not None else _ones
        self._q_h, self._q_u, self._q_uu, self._q_uv = side, u, u * u, np.outer(u, u)
        # Taylor powers (u/h)^k up to the largest rank the theta cap allows
        self._q_pow = np.vander(u / side, min(n1, _taylor_rank(_CROSS_THETA_MAX)),
                                increasing=True)
        # Cells with the same beta slopes and s-amplitude share one Vs table
        # (every cell of a column strip, on a surface with a3 = a6 = 0).
        beta = np.stack([2 * (a.a2 * t0 + a.a3 * s0), 2 * (a.a5 * t0 + a.a6 * s0)])
        amp_s = w * np.asarray(g2(np.add.outer(s0, u)), dtype=complex)
        keys = np.column_stack([beta.T, amp_s.real, amp_s.imag])
        _, first, vs_of_cell = np.unique(keys, axis=0, return_index=True,
                                         return_inverse=True)
        self._q_beta, self._q_amp_s = beta[:, first], amp_s[first]
        # Ut rows by a cap shift up each column i of cells: P starts at the
        # lowest row j_min with the column's amplitude w g1(t0 + u) and steps
        # through every row to the highest.
        cols, col_of_cell = np.unique([c.i for c in f.cells], return_inverse=True)
        row_of_cell = np.array([c.j for c in f.cells])
        j_min = int(row_of_cell.min())
        tc, sc = cols * side, j_min * side
        self._q_alpha = np.stack([2 * (a.a1 * tc + a.a2 * sc), 2 * (a.a4 * tc + a.a5 * sc)])
        self._q_amp_t = w * np.asarray(g1(np.add.outer(tc, u)), dtype=complex)
        self._q_rows = []                               # (steps, cells, columns, Vs)
        prev = j_min
        for j in np.unique(row_of_cell):
            at = np.flatnonzero(row_of_cell == j)
            self._q_rows.append((int(j) - prev, at, col_of_cell[at], vs_of_cell[at]))
            prev = int(j)
        self._q_coeffs = f.coeffs
        self._q_corner = self.surface.value(t0, s0)            # (cells, 4)
        self._q_step = max(1, QUAD_BLOCK_ELEMENTS // (n1 * max(n1, len(f.cells))))
        self._nodes_per_sample = len(f.cells) * n1 ** 2

    def _quadratic_block(self, xb: np.ndarray) -> np.ndarray:
        """(samples, cells) values coeff e(x.psi(c)) Ut^T E Vs with, per cell,
        Ut = amp_t e(alpha u + A u^2), Vs = amp_s e(beta v + C v^2) and the
        cross table E = e(2B uv), shared by every cell.  E Vs goes by the
        Taylor split of `_cross_split` when theta = 2 pi |2B| h^2 is at most
        _CROSS_THETA_MAX and its rank is below n, else by one batched matmul
        with the n x n table.  The Ut rows go by the cap shift alpha(i, j+1) =
        alpha(i, j) + 2B h: one e(.) row per column and one step table
        Z = e(2B h u), stepped row by row.  Per sample that is (2 + columns
        + distinct) n + cells e(.) calls with the split, n^2 more without."""
        a = self.surface.coeffs
        u, uu, h = self._q_u, self._q_uu, self._q_h
        A = a.a1 * xb[:, 2] + a.a4 * xb[:, 3]
        B = a.a2 * xb[:, 2] + a.a5 * xb[:, 3]
        C = a.a3 * xb[:, 2] + a.a6 * xb[:, 3]
        beta = xb[:, 1, None] + xb[:, 2:] @ self._q_beta
        ph = np.multiply.outer(beta, u)
        ph += np.multiply.outer(C, uu)[:, None, :]
        vs = _cis(ph)                                           # (b, distinct, n)
        vs *= self._q_amp_s
        z = 4 * np.pi * h * h * B
        theta = float(np.abs(z).max())
        if theta <= _CROSS_THETA_MAX and (r := _taylor_rank(theta)) < u.shape[0]:
            ev = _cross_split(vs, z, self._q_pow[:, :r])
        else:
            E = _cis(np.multiply.outer(2.0 * B, self._q_uv))    # (b, n, n), symmetric
            ev = vs @ E
            del E
        del vs
        alpha = xb[:, 0, None] + xb[:, 2:] @ self._q_alpha
        ph = np.multiply.outer(alpha, u)
        ph += np.multiply.outer(A, uu)[:, None, :]
        P = _cis(ph)                                            # (b, columns, n)
        del ph
        P *= self._q_amp_t
        Z = _cis(np.multiply.outer(2.0 * h * B, u))[:, None, :]
        total = np.empty((xb.shape[0], len(self._q_coeffs)), dtype=complex)
        for steps, cells, cols, ds in self._q_rows:
            for _ in range(steps):
                P *= Z
            part = P[:, cols]
            part *= ev[:, ds]
            total[:, cells] = part.sum(axis=-1)
        total *= _cis(xb @ self._q_corner.T)
        total *= self._q_coeffs
        return total

    def _build_tensor(self):
        f = self.field
        bound = self._phase_bound()
        self._tensor_nodes = []
        for cell in f.cells:
            side = cell.side
            n1 = nodes_for_cycles(self.x_max * bound * side, f.node_factor)
            xg, wg = _gauss(n1)
            t0, _, s0, _ = cell.bounds
            tn = t0 + side / 2 * (xg + 1.0)
            sn = s0 + side / 2 * (xg + 1.0)
            T, S = np.meshgrid(tn, sn, indexing="ij")
            W = np.outer(side / 2 * wg, side / 2 * wg)
            self._tensor_nodes.append((T.ravel(), S.ravel(), W.ravel()))
        self._nodes_per_sample = sum(len(wn) for _, _, wn in self._tensor_nodes)

    # -- evaluation ---------------------------------------------------------

    def cell_values(self, X) -> np.ndarray:
        """Extension of each cell restriction at the sample batch X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite evaluation point")
        if self._mode == "separable":
            return self._separable_values(X)
        self.node_samples += self._nodes_per_sample * X.shape[0]
        if self._mode == "atomic":
            if self._split is not None:
                return _progression_values(self._phase, self._amps, self._split, X)
            vals = _cis(self._phase @ X.T)
            vals *= self._amps[:, None]
            return vals
        out = np.empty((len(self.field.cells), X.shape[0]), dtype=complex)
        if self._mode == "quadratic":
            step = self._q_step
            for lo in range(0, X.shape[0], step):
                out[:, lo:lo + step] = self._quadratic_block(X[lo:lo + step]).T
            return out
        for k, (tn, sn, wn) in enumerate(self._tensor_nodes):
            amp = self.field.amplitude_on_cell(k, tn, sn) * wn
            psi = self.surface.value(tn, sn)
            out[k] = _node_sum(amp, lambda blk, psi=psi: psi[blk] @ X.T, X.shape[0])
        return out

    def _separable_values(self, X: np.ndarray) -> np.ndarray:
        """coeff ft[i] fs[j] per cell (i, j), one broadcast multiply per row
        of cells into one (cells, B) array; unit coefficients (x 1 is exact)
        are not multiplied."""
        (ft, work_t), (fs, work_s) = (factor.sums(X) for factor in self._factors)
        self.node_samples += work_t + work_s
        out = np.empty((len(self.field.cells), X.shape[0]), dtype=complex)
        for r, at, cols in self._row_cells:
            if isinstance(at, slice):
                np.multiply(ft[r], fs[cols], out=out[at])
            else:
                out[at] = ft[r] * fs[cols]
        if not self._unit_coeffs:
            out *= self.field.coeffs[:, None]
        return out

    def total(self, X) -> np.ndarray:
        """E g(x) on the batch: sum of the cell values."""
        return self.cell_values(X).sum(axis=0)

    @property
    def nodes_per_sample(self) -> int:
        """Quadrature nodes per sample point at the resolution radius x_max
        (atomic: point masses): n x (t intervals + s intervals) on the
        separable engine, with n its level-0 node count, the sum of the
        cells' n^2 otherwise.  The separable engine sums fewer for samples
        well inside x_max; `node_samples` counts what was summed."""
        return self._nodes_per_sample

    @property
    def n_cells(self) -> int:
        if self._mode == "atomic":
            return self._amps.shape[0]
        return len(self.field.cells)


def extension_evaluator(surface: SurfaceEvaluator, amp_field: AmplitudeField,
                        x_max: float) -> ExtensionEvaluator:
    return ExtensionEvaluator(surface, amp_field, x_max)


def extension_value(surface: SurfaceEvaluator, amp_field: AmplitudeField, x) -> complex | np.ndarray:
    """E g at one or several frequency points (convenience wrapper)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    if not np.all(np.isfinite(xb)):
        raise ValueError("non-finite evaluation point")
    ev = ExtensionEvaluator(surface, amp_field, float(np.abs(xb).max()))
    out = ev.total(xb)
    return complex(out[0]) if single else out


# ---------------------------------------------------------------------------
# 1-D interval extensions of general phases (the moment-curve pipelines;
# the planar parabola takes `AxisFactor`'s cap shift)


class LineEvaluator:
    """Extension of 1-D amplitudes over a family of intervals.

    phase(t_nodes, X) must return the (n_nodes, B) phase table; the
    derivative bound controls the oscillatory node count.
    """

    def __init__(self, intervals, amplitude: Callable | None, phase: Callable,
                 x_max: float, phase_derivative_bound: float,
                 node_factor: int = 1):
        self.intervals = [(float(a), float(b)) for a, b in intervals]
        self._phase = phase
        sides = [b - a for a, b in self.intervals]
        n1 = nodes_for_cycles(x_max * phase_derivative_bound * max(sides), node_factor)
        xg, wg = _gauss(n1)
        nodes, amps = [], []
        for (a, b) in self.intervals:
            tn = a + (b - a) / 2 * (xg + 1.0)
            wn = (b - a) / 2 * wg
            av = np.asarray(amplitude(tn), dtype=complex) if amplitude else np.ones(n1, complex)
            nodes.append(tn)
            amps.append(av * wn)
        self._nodes = np.array(nodes)
        self._amps = np.array(amps)

    def interval_values(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _interval_sums(self._nodes, self._amps, self._phase, X)

    def total(self, X) -> np.ndarray:
        return self.interval_values(X).sum(axis=0)
