"""Decoupling measurement harness.

Assembles the laboratory measurements: linear cap decoupling ratios (l^p and
l^2 aggregation), bilinear and square-function variants over transverse
square pairs, the trivial decoupling of disjoint squares, the planar-curve
calibration, the bilinear curve measurement, canonical scenario builders,
and multi-scale slope fits (`slope_series`, `emit_plotdata`).

Measured ratios are certified lower bounds for the decoupling constant at
the specific amplitude input; the harness never claims to compute the sup
over inputs.  Left and right hand sides are always estimated on common
random numbers so that their ratio is far more stable than either side.

Measurement weights default to the plateau shape (identically 1 on the
ball, polynomial tails): the sharp-example scaling laws are statements
about mass spread over the full ball, which the strict paper-form weight
(concentrated at |x| ~ 3R/decay) only reproduces at much larger scales.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .fields import (AmplitudeField, AxisFactor, ExtensionEvaluator, LineEvaluator,
                     extension_evaluator)
from .geometry import (CurveEvaluator, QuadCoeffs, SurfaceEvaluator, curve_lift,
                       moment_curve, quad_surface)
from .grid import CapPartition, DyadicSquare, cap_level_for, square_at
from .norms import (BallSpec, NormEstimate, OuterBlock, Sampler, sphere_area,
                    weighted_norm_batch)
from .transversality import min_abs_form

DEFAULT_DECAY = 100.0
DEFAULT_TRUNC = 4.0
MEASURE_SHAPE = "plateau"
X_MAX_TAIL = 1e-9


class AllCapsEmptyError(ValueError):
    pass


class NonTransverseError(ValueError):
    def __init__(self, min_form: float, required: float):
        super().__init__(
            f"squares are not transverse: min |Q| = {min_form:.3g} < {required:.3g}")
        self.min_form = min_form
        self.required = required


class OverlappingSquaresError(ValueError):
    pass


def measurement_ball(dim: int, radius: float, decay: float = DEFAULT_DECAY,
                     trunc: float = DEFAULT_TRUNC, center=None,
                     shape: str = MEASURE_SHAPE) -> BallSpec:
    c = (0.0,) * dim if center is None else tuple(float(v) for v in center)
    return BallSpec(center=c, radius=float(radius), decay=decay, trunc=trunc,
                    shape=shape)


def _x_max(ball: BallSpec) -> float:
    """Sup-norm bound, with a 5% margin, of the points the ball's sampler
    draws: the largest center coordinate plus the radius that holds all but
    X_MAX_TAIL of the sampling mass."""
    return 1.05 * (float(np.abs(ball.center).max()) + ball.quantile_radius(X_MAX_TAIL))


# ---------------------------------------------------------------------------
# reports


@dataclass
class DecouplingReport:
    """One measurement cell: norms, aggregates, and provenance."""

    kind: str
    n_scale: float
    p: float
    cap_level: int | None
    lhs: NormEstimate
    rhs_lp: float
    rhs_lp_stderr: float
    ratio_lp: float
    per_cap: list[float]
    per_cap_stderr: list[float]
    caps_total: int
    seed: int
    budget: int
    runtime_ms: float
    rhs_l2: float | None = None
    ratio_l2: float | None = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.rhs_l2 is not None and self.p >= 2 and self.caps_total > 0 and self.rhs_lp > 0:
            bound = self.caps_total ** (0.5 - 1.0 / self.p) * self.rhs_lp
            if self.rhs_l2 > bound * (1 + 1e-9):
                raise ValueError("recorded cap norms violate the l2 <= lp aggregation bound")

    @property
    def ratio_rel_stderr(self) -> float:
        rel = self.lhs.rel_stderr ** 2
        if self.rhs_lp > 0:
            rel += (self.rhs_lp_stderr / self.rhs_lp) ** 2
        return float(np.sqrt(rel))

    def trivial_bound_ok(self, sigmas: float = 5.0) -> bool:
        """Cauchy-Schwarz upper bound: ratio <= (#caps)^{1-1/p}, within noise."""
        if self.caps_total == 0:
            return True
        bound = self.caps_total ** (1.0 - 1.0 / self.p)
        return self.ratio_lp <= bound * (1.0 + sigmas * self.ratio_rel_stderr)

    def to_row(self) -> dict:
        return {
            "kind": self.kind,
            "N": self.n_scale,
            "p": self.p,
            "lhs": self.lhs.value,
            "lhs_se": self.lhs.stderr,
            "rhs_lp": self.rhs_lp,
            "rhs_l2": self.rhs_l2 if self.rhs_l2 is not None else "",
            "ratio_lp": self.ratio_lp,
            "ratio_l2": self.ratio_l2 if self.ratio_l2 is not None else "",
            "caps": self.caps_total,
            "budget": self.budget,
            "seed": self.seed,
            "runtime_ms": round(self.runtime_ms, 3),
        }

    def to_dict(self) -> dict:
        d = self.to_row()
        d.update({
            "cap_level": self.cap_level,
            "per_cap": list(self.per_cap),
            "per_cap_stderr": list(self.per_cap_stderr),
            "ratio_rel_stderr": self.ratio_rel_stderr,
            "meta": {k: (v if not isinstance(v, np.generic) else v.item())
                     for k, v in self.meta.items()},
        })
        return d


def _rhs(q: float, scale: float = 1.0) -> Callable:
    """`_measure`'s rhs for caps in l^q: with k sources and S_i = sum v^q over
    source i's cap norms v, rhs = scale (prod S_i)^{1/(k q)}, its delta-method
    error rhs/(k q) sqrt(sum_i sum_v (q v^{q-1} se_v)^2 / S_i^2), and rhs_l2 =
    sqrt(sum v^2) for one source, None for several."""

    def combine(vals, ses):
        k = len(vals)
        sums = [(v ** q).sum() for v in vals]
        rhs = scale * np.prod(sums) ** (1.0 / (k * q))
        rel = sum(((q * v ** (q - 1) * s) ** 2).sum() / S ** 2
                  for v, s, S in zip(vals, ses, sums)) if rhs > 0 else 0.0
        rhs_l2 = float(np.sqrt((vals[0] ** 2).sum())) if k == 1 else None
        return rhs, rhs / (k * q) * np.sqrt(rel), rhs_l2

    return combine


# ---------------------------------------------------------------------------
# grouped cap evaluation


class _CapGroups:
    """Maps evaluator cells (or atomic points) onto measurement caps.

    On rank-one cells (`ExtensionEvaluator.factors`) `cap_rows` never builds
    the (cells, B) table: a run of one-cell caps is an `OuterBlock` with its
    coefficient matrix C built here once, and other caps (several cells, as
    flat-line's last, or none) are dense rows.  Other evaluators take
    `dense_rows`: with the cells in cap order and no empty cap, each cap's
    cells are added in cell order into its first cell's row of the new
    `cell_values` array, and the cap sums move down to rows 0..caps-1 by
    contiguous copies; other fields are gathered into a new array, each cap
    taking its first cell and then the rest in cell order, one per round,
    and empty caps reading 0.  Both are an in-order scatter-add, bit for
    bit."""

    def __init__(self, ev: ExtensionEvaluator, caps: Sequence[DyadicSquare]):
        self.ev = ev
        self.caps = list(caps)
        lookup = {(sq.level, sq.i, sq.j): k for k, sq in enumerate(self.caps)}
        lev = self.caps[0].level if self.caps else 0
        if ev.field.mode == "atomic":
            keys = [(sq.level, sq.i, sq.j) for sq in (square_at(lev, t, s)
                                                      for t, s in ev.field.points)]
        else:
            if any(cell.level < lev for cell in ev.field.cells):
                raise ValueError("cells coarser than measurement caps")
            keys = [(lev, c.i >> (c.level - lev), c.j >> (c.level - lev))
                    for c in ev.field.cells]
        self.index = np.array([lookup.get(key, -1) for key in keys], dtype=int)
        if not self.index.size:
            raise AllCapsEmptyError("field has no support in the measurement caps")
        if np.any(self.index < 0):
            raise ValueError("field support escapes the requested caps")
        counts = np.bincount(self.index, minlength=len(self.caps))
        order = np.argsort(self.index, kind="stable")    # cells by cap, in order
        starts = np.cumsum(counts) - counts
        self._first = order[np.minimum(starts, len(order) - 1)]
        self._empty = np.flatnonzero(counts == 0)
        self._rounds = [(np.flatnonzero(counts > r), order[starts[counts > r] + r])
                        for r in range(1, int(counts.max()))]
        self._fold = None
        if np.all(np.diff(self.index) >= 0) and not self._empty.size:
            # the cells are in cap order, so order is the identity; cap k
            # moves from row starts[k] >= k, in runs of equal shift
            adds = [(starts[caps], cells) for caps, cells in self._rounds]
            shift = starts - np.arange(len(self.caps))
            cut = np.flatnonzero(np.diff(shift)) + 1
            moves = [(int(lo), int(hi), int(shift[lo]))
                     for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(self.caps)])
                     if shift[lo]]
            self._fold = (adds, moves)
        self._runs = ev.factor_layout and self._factor_runs(counts, order, starts)

    def _factor_runs(self, counts, order, starts) -> list:
        """Per run of caps in cap order: (its cells as a table-less `OuterBlock`,
        with C if the caps hold one cell each; else the cells' caps; cap count)."""
        rows, cols, coeffs, shape = self.ev.factor_layout
        single = counts == 1
        cut = np.flatnonzero(np.diff(single)) + 1
        runs = []
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(self.caps)]):
            cells = order[starts[lo]:starts[hi - 1] + counts[hi - 1]]
            k = None if coeffs is None else coeffs[cells]
            block = OuterBlock(None, None, rows[cells], cols[cells], k)
            if single[lo]:
                block = replace(block, matrix=np.zeros(shape, dtype=complex))
                block.matrix[block.rows, block.cols] = 1.0 if k is None else k
            runs.append((block, None if single[lo] else self.index[cells] - lo, hi - lo))
        return runs

    def gather(self, cell_vals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Writes the (caps, B) sums of the (cells, B) cell values to out."""
        # the indices are valid; mode="raise" would copy through a buffer
        np.take(cell_vals, self._first, axis=0, out=out, mode="clip")
        out[self._empty] = 0.0
        for caps, cells in self._rounds:
            out[caps] += cell_vals[cells]
        return out

    def cap_rows(self, x_batch) -> list:
        """The cap values on the batch as row blocks in cap order (see the
        class docstring); dense rows are an in-order scatter-add."""
        if self._runs is None:
            return [self.dense_rows(x_batch)]
        left, right = self.ev.factors(x_batch)[:2]
        out = []
        for block, at, n_caps in self._runs:
            block = replace(block, left=left, right=right)
            if at is not None:
                vals = np.zeros((n_caps, left.shape[1]), dtype=complex)
                np.add.at(vals, at, block.dense())
                block = vals
            out.append(block)
        return out

    def dense_rows(self, x_batch) -> np.ndarray:
        """(caps, B): the cap values on the batch, folded into the cell
        values' own array when the caps allow it, else gathered."""
        # cell_values returns a new array, which the fold may overwrite
        cell_vals = np.ascontiguousarray(self.ev.cell_values(x_batch))
        if self._fold is None:
            out = np.empty((len(self.caps), cell_vals.shape[1]), dtype=complex)
            return self.gather(cell_vals, out)
        adds, moves = self._fold
        for firsts, cells in adds:
            cell_vals[firsts] += cell_vals[cells]
        flat = cell_vals.reshape(-1)
        b = cell_vals.shape[1]
        for lo, hi, d in moves:
            # a 1-D copy to lower addresses needs no buffer for the overlap
            flat[lo * b:hi * b] = flat[(lo + d) * b:(hi + d) * b]
        return cell_vals[:len(self.caps)]


def _support_caps(field_in: AmplitudeField, level: int) -> list[DyadicSquare]:
    caps = list(field_in.support_squares(level))
    if not caps:
        raise AllCapsEmptyError("field has empty support at the requested cap level")
    return caps


def _cap_source(surface: SurfaceEvaluator, field_in: AmplitudeField,
                caps: Sequence[DyadicSquare], x_max: float):
    """(rows, count): the cap rows of the field's extension and their count."""
    return _CapGroups(extension_evaluator(surface, field_in, x_max), caps).cap_rows, len(caps)


# ---------------------------------------------------------------------------
# the measurement core


def _blocks(caps) -> list:
    """A source's cap values as a list of row blocks."""
    return [caps] if isinstance(caps, np.ndarray) else caps


def _cap_sums(caps, dense: Callable, factored: Callable) -> np.ndarray:
    """Sum of dense(block), factored(block) on an `OuterBlock`, over blocks."""
    parts = [factored(b) if isinstance(b, OuterBlock) else dense(b) for b in _blocks(caps)]
    return sum(parts[1:], parts[0])


def _total(caps) -> np.ndarray:
    """E g: the sum of the caps."""
    return _cap_sums(caps, lambda v: v.sum(axis=0), OuterBlock.total)


def _square_sum(caps) -> np.ndarray:
    """The sum of |cap|^2."""
    return _cap_sums(caps, lambda v: (np.abs(v) ** 2).sum(axis=0), OuterBlock.abs2_total)


def _geometric_mean(v1, v2) -> np.ndarray:
    """|E1 E2|^{1/2} from the cap rows of the two pieces."""
    return np.sqrt(np.abs(_total(v1) * _total(v2)))


def _measure(make_sources: Callable, lhs: Callable, rhs: Callable, p: float, p_caps: float,
             sampler: Sampler, ball: BallSpec | None, *, kind: str, n_scale: float,
             dim: int = 4, cap_level: int | None = None, caps_total: int | None = None,
             meta: dict | None = None) -> DecouplingReport:
    """One measurement cell, on common random numbers.

    make_sources(x_max) builds the cap sources, resolved for samples within
    x_max in sup norm: (rows, count) pairs, rows(x_batch) giving the cap
    values as a (count, B) array or a list of row blocks (`_CapGroups`).
    lhs(*caps) is the left-hand integrand, normed in L^p, and every cap is
    normed in L^p_caps.  rhs(values, stderrs), one array of cap norms per
    source, returns (rhs_lp, se_lp, rhs_l2 or None): a `_rhs` combiner.
    The ball defaults to the measurement ball of radius N in R^dim, the cap
    level to N's and caps_total to the number of caps measured."""
    t0 = time.perf_counter()
    ball = ball or measurement_ball(dim, n_scale)
    if ball.dim != dim:
        raise ValueError(f"{kind} needs a {dim}-D ball, got dimension {ball.dim}")
    sources = make_sources(_x_max(ball))

    def series(x_batch):
        caps = [rows(x_batch) for rows, _ in sources]
        return (lhs(*caps), *(b for c in caps for b in _blocks(c)))

    counts = [count for _, count in sources]
    ests = weighted_norm_batch(series, ball, [p] + [p_caps] * sum(counts), sampler)
    values = np.array([e.value for e in ests[1:]])
    stderrs = np.array([e.stderr for e in ests[1:]])
    cuts = np.cumsum(counts)[:-1]
    rhs_lp, se_lp, rhs_l2 = rhs(np.split(values, cuts), np.split(stderrs, cuts))
    lhs_value = ests[0].value
    return DecouplingReport(
        kind=kind, n_scale=float(n_scale), p=float(p),
        cap_level=cap_level_for(n_scale) if cap_level is None else cap_level,
        lhs=ests[0], rhs_lp=float(rhs_lp), rhs_lp_stderr=float(se_lp),
        ratio_lp=lhs_value / rhs_lp if rhs_lp > 0 else np.inf, rhs_l2=rhs_l2,
        ratio_l2=None if rhs_l2 is None else lhs_value / rhs_l2 if rhs_l2 > 0 else np.inf,
        per_cap=values.tolist(), per_cap_stderr=stderrs.tolist(),
        caps_total=sum(counts) if caps_total is None else caps_total,
        seed=sampler.seed, budget=sampler.budget,
        runtime_ms=(time.perf_counter() - t0) * 1e3, meta=meta or {})


# ---------------------------------------------------------------------------
# linear measurement


def measure_linear(surface: SurfaceEvaluator, field_in: AmplitudeField,
                   n_scale: float, p: float, sampler: Sampler,
                   ball: BallSpec | None = None,
                   cap_level: int | None = None) -> DecouplingReport:
    """Cap decoupling ratio at scale N: caps of side 2^-ceil(log2 sqrt(N)),
    weighted norms over a ball of radius N."""
    m = cap_level_for(n_scale) if cap_level is None else cap_level
    caps = _support_caps(field_in, m)
    return _measure(lambda x_max: [_cap_source(surface, field_in, caps, x_max)], _total,
                    _rhs(p), p, p, sampler, ball, kind="linear", n_scale=n_scale,
                    cap_level=m, caps_total=4 ** m)


# ---------------------------------------------------------------------------
# bilinear measurements


def _pair_sources(surface: SurfaceEvaluator, field1: AmplitudeField, r1: DyadicSquare,
                  field2: AmplitudeField, r2: DyadicSquare, n_scale: float,
                  nu: float) -> tuple[Callable, float]:
    """(make_sources, min |Q|) of a nu-transverse pair of squares, each field
    restricted to its square; make_sources as `_measure` takes it."""
    coeffs = getattr(surface, "coeffs", None)
    if coeffs is None:
        raise ValueError("bilinear transversality is defined for quadratic surfaces")
    min_form = min_abs_form(coeffs, r1, r2)
    if min_form < nu * (1 - 1e-12):
        raise NonTransverseError(min_form, nu)
    m = cap_level_for(n_scale)
    restricted = [field1.restrict(r1), field2.restrict(r2)]
    caps = [_support_caps(f, m) for f in restricted]
    return (lambda x_max: [_cap_source(surface, f, c, x_max)
                           for f, c in zip(restricted, caps)]), min_form


def measure_bilinear(surface: SurfaceEvaluator,
                     field1: AmplitudeField, r1: DyadicSquare,
                     field2: AmplitudeField, r2: DyadicSquare,
                     n_scale: float, p: float, sampler: Sampler, nu: float,
                     ball: BallSpec | None = None) -> DecouplingReport:
    """Bilinear ratio |E1 E2|^{1/2} against the product of per-square cap
    aggregates, for a nu-transverse pair of squares."""
    make_sources, min_form = _pair_sources(surface, field1, r1, field2, r2, n_scale, nu)
    return _measure(make_sources, _geometric_mean, _rhs(p), p, p, sampler, ball,
                    kind="bilinear", n_scale=n_scale,
                    meta={"nu": nu, "min_form": min_form,
                          "r1": (r1.level, r1.i, r1.j), "r2": (r2.level, r2.i, r2.j)})


def measure_square_function(surface: SurfaceEvaluator,
                            field1: AmplitudeField, r1: DyadicSquare,
                            field2: AmplitudeField, r2: DyadicSquare,
                            n_scale: float, p: float, sampler: Sampler,
                            nu: float, ball: BallSpec | None = None) -> DecouplingReport:
    """Square-function bilinear ratio: geometric-mean cap square function in
    L^p against N^{-4/p} times the product of cap L^{p/2} aggregates."""
    if p < 4:
        raise ValueError("square-function measurement needs p >= 4")
    make_sources, min_form = _pair_sources(surface, field1, r1, field2, r2, n_scale, nu)

    def lhs(v1, v2):
        return (_square_sum(v1) * _square_sum(v2)) ** 0.25

    return _measure(make_sources, lhs, _rhs(2, float(n_scale) ** (-4.0 / p)), p, p / 2,
                    sampler, ball, kind="square-function", n_scale=n_scale,
                    meta={"nu": nu, "min_form": min_form})


# ---------------------------------------------------------------------------
# trivial decoupling of disjoint squares


def measure_trivial(surface: SurfaceEvaluator, field_in: AmplitudeField,
                    squares: Sequence[DyadicSquare], p: float, sampler: Sampler,
                    ball: BallSpec | None = None) -> DecouplingReport:
    """Disjoint-square decoupling over a ball of radius K (the inverse side).

    ratio_lp is the plain ratio; meta["ratio_vs_trivial"] divides out the
    sharp K^{1-2/p} factor of the disjoint-support bound.
    """
    squares = list(squares)
    for a, b in combinations(squares, 2):
        if a == b or a.contains_square(b) or b.contains_square(a):
            raise OverlappingSquaresError("squares must be pairwise disjoint")
    k_scale = 2 ** squares[0].level
    trivial_factor = k_scale ** (1.0 - 2.0 / p)
    rep = _measure(lambda x_max: [_cap_source(surface, field_in, squares, x_max)], _total,
                   _rhs(p), p, p, sampler, ball, kind="trivial", n_scale=k_scale,
                   cap_level=squares[0].level,
                   meta={"K": k_scale, "trivial_factor": trivial_factor})
    rep.meta["ratio_vs_trivial"] = rep.ratio_lp / trivial_factor
    return rep


# ---------------------------------------------------------------------------
# planar-curve calibration (dimension 2)


def parabola_reference(n_scale: float, p: float, sampler: Sampler,
                       ball: BallSpec | None = None) -> DecouplingReport:
    """l^2 cap decoupling of the planar curve (t, t^2) at scale N; the known
    planar theorem makes this a calibration of the whole pipeline.  The ball
    must be 2-D."""
    m = cap_level_for(n_scale)

    def make_sources(x_max):
        # the phase x1 t + x2 t^2 varies at most 3 |x|_inf per unit t
        caps = np.arange(2 ** m)
        return [(AxisFactor(caps, 2.0 ** -m, x_max, 3.0, 1, None, None, 0, (1.0,)), 2 ** m)]

    return _measure(make_sources, _total, _rhs(p), p, p, sampler, ball,
                    kind="parabola-2d", n_scale=n_scale, dim=2)


# ---------------------------------------------------------------------------
# bilinear curve measurement


CURVE_MIN_DIST = 0.1


def _dyadic_subintervals(interval, level: int) -> list[tuple[float, float]]:
    lo, hi = (float(v) for v in interval)
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"curve interval {tuple(interval)} is not an increasing "
                         "subinterval of [0, 1]")
    side = 2.0 ** (-level)
    k0 = int(round(lo / side))
    k1 = int(round(hi / side))
    if abs(k0 * side - lo) > 1e-9 or abs(k1 * side - hi) > 1e-9:
        raise ValueError("interval endpoints must align with the cap grid")
    return [(k * side, (k + 1) * side) for k in range(k0, k1)]


def _curve_caps(i1, i2, level: int, min_dist: float) -> list[list[tuple[float, float]]]:
    """The cap subintervals of the two curve intervals, which must lie on
    the cap grid in [0, 1], at least min_dist apart."""
    (a1, b1), (a2, b2) = (tuple(float(v) for v in i) for i in (i1, i2))
    if max(a2 - b1, a1 - b2) < min_dist:
        raise ValueError("intervals are too close for the bilinear measurement")
    return [_dyadic_subintervals(i, level) for i in ((a1, b1), (a2, b2))]


def _curve_lines(curve: CurveEvaluator, caps, amps, x_max: float) -> list[LineEvaluator]:
    """One LineEvaluator of the curve per list of cap subintervals."""
    bound = curve.phase_derivative_bound()
    return [LineEvaluator(c, h, curve.phase, x_max, bound) for c, h in zip(caps, amps)]


def curve_bilinear(curve: CurveEvaluator, i1, i2,
                   h1: Callable | None, h2: Callable | None,
                   n_scale: float, sampler: Sampler,
                   ball: BallSpec | None = None,
                   min_dist: float = CURVE_MIN_DIST) -> DecouplingReport:
    """Bilinear curve measurement: geometric-mean L^12 norm of the two
    interval extensions against the product of per-subinterval l^6 sums at
    cap scale; the reference decay is N^{-1/6}."""
    caps = _curve_caps(i1, i2, cap_level_for(n_scale), min_dist)

    def make_sources(x_max):
        return [(line.interval_values, len(line.intervals))
                for line in _curve_lines(curve, caps, (h1, h2), x_max)]

    return _measure(make_sources, _geometric_mean, _rhs(6), 12.0, 6.0, sampler, ball,
                    kind="curve-bilinear", n_scale=n_scale,
                    meta={"i1": tuple(i1), "i2": tuple(i2), "reference_exponent": -1.0 / 6.0})


def curve_product_identity_residual(curve: CurveEvaluator, i1, i2,
                                    h1, h2, n_scale: float,
                                    n_points: int = 64, seed: int = 0,
                                    x_scale: float = 8.0) -> float:
    """Max relative deviation between the product of the two 1-D interval
    extensions and the extension of h1(t) h2(s) over the lifted surface on
    the tensor engine, which shares no 1-D factor code with the lines."""
    m = cap_level_for(n_scale)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-x_scale, x_scale, size=(n_points, 4))
    caps = [_dyadic_subintervals(i, m) for i in (i1, i2)]
    line1, line2 = _curve_lines(curve, caps, (h1, h2), x_scale)
    prod = line1.total(x) * line2.total(x)

    surface = curve_lift(curve, i1, i2)
    cells = [square_at(m, a + 1e-12, c + 1e-12) for a, _ in caps[0] for c, _ in caps[1]]
    field = AmplitudeField.from_function(
        m, lambda t, s: (h1(t) if h1 else 1.0) * (h2(s) if h2 else 1.0), support=cells)
    tensor = extension_evaluator(surface, field, x_scale).total(x)
    scale = np.abs(prod).max()
    return float(np.max(np.abs(prod - tensor)) / (scale + 1e-300))


# ---------------------------------------------------------------------------
# scenarios


FLAT_LINE_COEFFS = QuadCoeffs(1.0, 0.0, 0.0, 0.0, 0.5, 0.0)   # (t, s, t^2, t s)
SEPARABLE_COEFFS = QuadCoeffs(1.0, 0.0, 0.0, 0.0, 0.0, 1.0)   # (t, s, t^2, s^2)

SCENARIO_KINDS = ("indicator", "flat-line", "strip", "random-phase",
                  "bilinear-pair", "curve-bilinear", "parabola-2d")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    n_scale: float = 64.0
    p: float = 6.0
    k_squares: int = 8
    nu: float = 0.25
    seed: int = 0
    i1: tuple[float, float] = (0.0, 0.25)
    i2: tuple[float, float] = (0.75, 1.0)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")


def predicted_exponent(kind: str, p: float, aggregate: str = "lp"):
    """(exponent, provenance) for the scenario's expected ratio growth in N
    (in K for the strip scenario); None when no prediction is tabulated."""
    pf = Fraction(p).limit_denominator(10 ** 6)
    if kind == "indicator" and aggregate == "lp":
        if pf >= 6:
            return Fraction(1) - Fraction(4) / pf, "sharp-example rate, supercritical branch"
        if pf >= 2:
            return Fraction(1, 2) - Fraction(1) / pf, "sharp-example rate, subcritical branch"
        return None, "untabulated"
    if kind == "flat-line" and aggregate == "l2" and pf == 6:
        return Fraction(1, 6), "dirichlet kernel sixth-moment density"
    if kind == "strip":
        return Fraction(1) - Fraction(2) / pf, "disjoint-support sharpness (exponent in K)"
    if kind == "parabola-2d" and aggregate == "l2":
        return Fraction(0), "planar cap decoupling theorem"
    if kind == "curve-bilinear":
        return Fraction(-1, 6), "bilinear curve reference rate"
    if kind == "bilinear-pair":
        return Fraction(0), "bilinear square bound at fixed transversality"
    return None, "untabulated"


def fit_aggregate(kind: str) -> str:
    """The aggregate, "lp" or "l2", whose ratio a scenario's slope is fitted
    on and its predicted exponent refers to: l^2 for the flat-line failure
    and the planar calibration, l^p for every other kind."""
    return "l2" if kind in ("flat-line", "parabola-2d") else "lp"


def flat_line_points(n_scale: float) -> np.ndarray:
    m_pts = int(np.ceil(np.sqrt(n_scale)))
    return np.column_stack([np.zeros(m_pts), np.arange(1, m_pts + 1) / m_pts])


@dataclass
class ScenarioBundle:
    spec: ScenarioSpec
    surface: SurfaceEvaluator | None
    fields: list[AmplitudeField]
    squares: list[DyadicSquare]
    predicted: object
    provenance: str


def scenario(spec: ScenarioSpec) -> ScenarioBundle:
    """Construct the canonical surface/field configuration for a scenario;
    raises ValueError for a spec that its measurement would reject."""
    kind = spec.kind
    if not 1.0 <= spec.p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {spec.p:g}")
    m = cap_level_for(spec.n_scale)
    surface, fields, squares = None, [], []
    if kind == "indicator":
        surface, fields = quad_surface(SEPARABLE_COEFFS), [AmplitudeField.constant(m)]
    elif kind == "random-phase":
        surface = quad_surface(SEPARABLE_COEFFS)
        fields = [AmplitudeField.random_phase(m, spec.seed)]
    elif kind == "flat-line":
        pts = flat_line_points(spec.n_scale)
        surface = quad_surface(FLAT_LINE_COEFFS)
        fields = [AmplitudeField.atomic(pts, np.ones(len(pts)))]
    elif kind == "strip":
        k = spec.k_squares
        if not isinstance(k, (int, np.integer)) or k < 1 or k & (k - 1):
            raise ValueError(f"strip scenario needs a power-of-two square count, got {k!r}")
        lev = int(k).bit_length() - 1
        squares = [DyadicSquare(lev, 0, j) for j in range(k)]
        surface = quad_surface(FLAT_LINE_COEFFS)
        fields = [AmplitudeField.constant(lev, support=squares)]
    elif kind == "bilinear-pair":
        idx = int(round((0.25 + np.sqrt(spec.nu)) * 4))
        squares = [DyadicSquare(2, 0, 0), DyadicSquare(2, idx, idx)]
        surface = quad_surface(SEPARABLE_COEFFS)
        fields = [AmplitudeField.random_phase(m, spec.seed + k,
                                              support=CapPartition.of_region(m, r).squares)
                  for k, r in enumerate(squares)]
    elif kind == "curve-bilinear":
        # the measurement builds the curve's interval evaluators
        _curve_caps(spec.i1, spec.i2, m, CURVE_MIN_DIST)
    return ScenarioBundle(spec, surface, fields, squares,
                          *predicted_exponent(kind, spec.p, fit_aggregate(kind)))


def run_cell(spec: ScenarioSpec, sampler: Sampler,
             ball: BallSpec | None = None) -> DecouplingReport:
    """Run one (scenario, N, p) measurement cell."""
    bundle = scenario(spec)
    kind = spec.kind
    if kind in ("indicator", "random-phase", "flat-line"):
        rep = measure_linear(bundle.surface, bundle.fields[0], spec.n_scale,
                             spec.p, sampler, ball=ball)
    elif kind == "strip":
        rep = measure_trivial(bundle.surface, bundle.fields[0], bundle.squares,
                              spec.p, sampler, ball=ball)
    elif kind == "bilinear-pair":
        rep = measure_bilinear(bundle.surface, bundle.fields[0], bundle.squares[0],
                               bundle.fields[1], bundle.squares[1],
                               spec.n_scale, spec.p, sampler, spec.nu, ball=ball)
    elif kind == "curve-bilinear":
        rep = curve_bilinear(moment_curve(), spec.i1, spec.i2, None, None,
                             spec.n_scale, sampler, ball=ball)
    else:
        rep = parabola_reference(spec.n_scale, spec.p, sampler, ball=ball)
    rep.kind = kind
    rep.meta.setdefault("predicted_exponent",
                        float(bundle.predicted) if bundle.predicted is not None else None)
    rep.meta.setdefault("prediction_provenance", bundle.provenance)
    return rep


# ---------------------------------------------------------------------------
# scaling studies


@dataclass
class SlopeFit:
    slope: float
    stderr: float
    n_points: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.slope - 1.96 * self.stderr, self.slope + 1.96 * self.stderr)


def fit_slope(scales: Sequence[float], ratios: Sequence[float],
              rel_stderrs: Sequence[float] | None = None) -> SlopeFit:
    """Least-squares slope of log(ratio) against log(scale) with the delta
    method propagating per-point Monte Carlo noise."""
    x = np.log(np.asarray(scales, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    if len(set(x.tolist())) < 2:
        raise ValueError("need at least two distinct scales for a slope")
    xc = x - x.mean()
    sxx = (xc ** 2).sum()
    slope = float((xc * y).sum() / sxx)
    if rel_stderrs is None:
        se = 0.0
    else:
        se_y = np.asarray(rel_stderrs, dtype=float)
        se = float(np.sqrt(((xc / sxx) ** 2 * se_y ** 2).sum()))
    return SlopeFit(slope=slope, stderr=se, n_points=len(x))


@dataclass
class SlopeSeries:
    """The reports of one (kind, p), by N, and the slope of their fitted
    ratio (`fit_aggregate`) when there are three or more at two or more
    distinct N."""
    key: str
    ratio: str
    reports: list[DecouplingReport]
    fit: SlopeFit | None


def slope_series(reports: Sequence[DecouplingReport]
                 ) -> tuple[list[SlopeSeries], list[DecouplingReport]]:
    """(series, skipped): the reports grouped by (kind, p) in key order, and
    those left out: a fitted ratio missing, not finite or not positive, or a
    customised surface or field (meta["customized"]), not the kind's scenario."""
    groups: dict[tuple[str, str], list[DecouplingReport]] = {}
    skipped = []
    for rep in reports:
        ratio = "ratio_" + fit_aggregate(rep.kind)
        value = getattr(rep, ratio)
        if rep.meta.get("customized") or not (value and np.isfinite(value) and value > 0):
            skipped.append(rep)
        else:
            groups.setdefault((f"{rep.kind}:p={rep.p:g}", ratio), []).append(rep)
    series = []
    for (key, ratio), reps in sorted(groups.items()):
        reps.sort(key=lambda r: r.n_scale)
        fit = None
        if len(reps) >= 3 and len({r.n_scale for r in reps}) >= 2:
            fit = fit_slope([r.n_scale for r in reps], [getattr(r, ratio) for r in reps],
                            [r.ratio_rel_stderr for r in reps])
        series.append(SlopeSeries(key, ratio, reps, fit))
    return series, skipped


def emit_plotdata(reports: Sequence[DecouplingReport]) -> dict:
    """Plot-ready series: per (kind, p), log-log coordinates of the fitted
    ratio with error bars and a fitted slope annotation when `slope_series`
    fits one."""
    series, skipped = slope_series(reports)
    why = ("empty or non-finite ratio", "customised surface or field")
    out = {"series": [],
           "notes": [{"kind": r.kind, "N": r.n_scale,
                      "note": "skipped: " + why[bool(r.meta.get("customized"))]}
                     for r in skipped]}
    for s in series:
        entry = {"key": s.key, "ratio": s.ratio,
                 "points": [{"log_N": float(np.log(r.n_scale)),
                             "log_ratio": float(np.log(getattr(r, s.ratio))),
                             "se_log_ratio": r.ratio_rel_stderr} for r in s.reports]}
        if s.fit is not None:
            entry.update(slope=s.fit.slope, slope_stderr=s.fit.stderr)
        out["series"].append(entry)
    return out


# ---------------------------------------------------------------------------
# 1-D reference computation for the flat-line scenario


def weight_marginal_1d(ball: BallSpec, offsets) -> np.ndarray:
    """Marginal of the ball weight over one coordinate, truncation matched
    to the sampling region |x| <= trunc * R."""
    d = ball.dim
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    area = sphere_area(d - 1)
    half = ball.trunc * ball.radius
    out = np.empty(offsets.shape)
    for k, a in enumerate(offsets):
        top = np.sqrt(max(half * half - a * a, 0.0))
        if top == 0.0:
            out[k] = 0.0
            continue
        rho = np.linspace(0.0, top, 2001)
        r = np.sqrt(a * a + rho * rho) / ball.radius
        w = ball.radial_weight(r)
        out[k] = area * np.trapezoid(rho ** (d - 2) * w, rho)
    return out


def flatline_l2_reference(n_scale: float, ball: BallSpec | None = None) -> float:
    """Predicted flat-line l^2 ratio by direct 1-D quadrature of the
    kernel's sixth-power mass against the weight marginal; an independent
    reduction of the same integral the 4-D pipeline estimates."""
    if ball is None:
        ball = measurement_ball(4, n_scale)
    m_pts = int(np.ceil(np.sqrt(n_scale)))
    m_lev = cap_level_for(n_scale)
    sn = np.arange(1, m_pts + 1) / m_pts
    half = ball.trunc * ball.radius
    grid = np.linspace(0.0, half, 120001)
    kernel6 = np.abs(np.exp(2j * np.pi * np.outer(grid, sn)).sum(axis=1)) ** 6
    coarse = np.linspace(0.0, half, 481)
    w1 = np.interp(grid, coarse, weight_marginal_1d(ball, coarse))
    lhs6 = 2.0 * np.trapezoid(kernel6 * w1, grid)

    from .norms import weight_mass
    z = weight_mass(ball)
    idx = np.minimum((sn * 2 ** m_lev).astype(int), 2 ** m_lev - 1)
    rhs_sq = 0.0
    for j in np.unique(idx):
        members = np.nonzero(idx == j)[0]
        if len(members) == 1:
            rhs_sq += z ** (1.0 / 3.0)
        else:
            vals = np.abs(np.exp(2j * np.pi * np.outer(grid, sn[members])).sum(axis=1)) ** 6
            n6 = 2.0 * np.trapezoid(vals * w1, grid)
            rhs_sq += n6 ** (1.0 / 3.0)
    return float(lhs6 ** (1.0 / 6.0) / np.sqrt(rhs_sq))
