"""In-memory span tracing of declab's layers, from the benchmark's side.

The tracer replaces the public callables that the harness and the CLI call
with wrappers that record a span (name, start, end, parent) around each
call; `uninstall` puts the originals back.  The program's source is not
touched.  Spans nest per thread; spans opened on a worker thread of the
CLI pool have no parent.

Span names are layer names.  Kernel spans carry the engine in their name
(`fields.kernel.separable` and so on), so per-engine rates come out of the
same spans as the layer self times.  Work counts (node-samples, sample
points, series) are computed from public inputs at the same boundaries:
`nodes_for_cycles`, cell and interval counts and the batch size of each
kernel call.
"""

from __future__ import annotations

import inspect
import threading
import weakref
from contextlib import contextmanager
from time import perf_counter

from declab import cli, geometry, harness, norms
from declab.fields import ExtensionEvaluator, LineEvaluator, nodes_for_cycles
from declab.norms import BallSpec

ENGINES = ("separable", "tensor", "atomic", "line")

# Peak temporaries of one tensor cell, per node-sample (computed, not
# measured): the float64 phase table, its complex128 product with 2*pi*i
# and the complex128 exponential.
TENSOR_TEMP_BYTES = 8 + 16 + 16

_MEASUREMENTS = ("measure_linear", "measure_trivial", "measure_bilinear",
                 "measure_square_function", "curve_bilinear",
                 "parabola_reference")


def engine_work(surface, field, x_max):
    """(engine, node count per sample point, largest tensor cell node count)
    of the evaluator that `extension_evaluator(surface, field, x_max)`
    builds, from public inputs only."""
    if field.mode == "atomic":
        return "atomic", int(field.points.shape[0]), 0
    bound = surface.phase_derivative_bound()
    if field.separable_profile and surface.phase_split() is not None:
        side = field.cells[0].side
        n1 = nodes_for_cycles(x_max * bound * side, field.node_factor)
        rows = len({c.i for c in field.cells}) + len({c.j for c in field.cells})
        return "separable", n1 * rows, 0
    per_cell = [nodes_for_cycles(x_max * bound * c.side, field.node_factor) ** 2
                for c in field.cells]
    return "tensor", sum(per_cell), max(per_cell)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.tensor_temp_bytes = 0
        self._work = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- spans and counts ----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = [name, perf_counter(), None, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def count(self, name: str, n: int):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        old = getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def install(self):
        wrap = self.wrap
        for name in _MEASUREMENTS:
            self._patch(harness, name, lambda f: wrap("harness.cell", f))
        self._patch(cli, "measure_linear", lambda f: wrap("harness.cell", f))
        self._patch(harness, "weighted_norm_batch", self._traced_batch)
        self._patch(harness, "extension_evaluator", self._traced_build)
        self._patch(ExtensionEvaluator, "cell_values", self._traced_kernel)
        self._patch(LineEvaluator, "__init__", self._traced_line_init)
        self._patch(LineEvaluator, "interval_values", self._traced_kernel)
        for cls in geometry.SurfaceEvaluator.__subclasses__():
            if "value" in vars(cls):
                self._patch(cls, "value", lambda f: wrap("geometry.phase", f))
            if "phase_split" in vars(cls):
                self._patch(cls, "phase_split", self._traced_split)
        self._patch(norms, "weight_mass", lambda f: wrap("norms.setup", f))
        for name in ("quantile_radius", "truncation_tail_fraction"):
            self._patch(BallSpec, name, lambda f: wrap("norms.setup", f))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- wrappers ------------------------------------------------------------

    def _traced_batch(self, orig):
        def batch(evaluator, ball, ps, sampler):
            self.count("norms.samples", sampler.budget)
            self.count("harness.series", len(ps))
            with self.span("norms.batch"):
                return orig(self.wrap("harness.evaluator", evaluator), ball,
                            ps, sampler)
        return batch

    def _traced_build(self, orig):
        def build(surface, field, x_max):
            with self.span("fields.build"):
                ev = orig(surface, field, x_max)
            work = engine_work(surface, field, x_max)
            with self._lock:
                self._work[ev] = work
            return ev
        return build

    def _traced_kernel(self, orig):
        def kernel(ev, X):
            batch = len(X)
            with self._lock:
                engine, nodes, tensor_cell = self._work[ev]
                key = f"fields.{engine}.node_samples"
                self.counts[key] = self.counts.get(key, 0) + nodes * batch
                self.tensor_temp_bytes = max(self.tensor_temp_bytes,
                                             TENSOR_TEMP_BYTES * tensor_cell * batch)
            with self.span(f"fields.kernel.{engine}"):
                return orig(ev, X)
        return kernel

    def _traced_line_init(self, orig):
        sig = inspect.signature(orig)

        def init(ev, *args, **kwargs):
            bound = sig.bind(ev, *args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            a["intervals"] = [(float(lo), float(hi)) for lo, hi in a["intervals"]]
            a["phase"] = self.wrap("geometry.phase", a["phase"])
            with self.span("fields.build"):
                orig(*bound.args, **bound.kwargs)
            longest = max(hi - lo for lo, hi in a["intervals"])
            n1 = nodes_for_cycles(a["x_max"] * a["phase_derivative_bound"] * longest,
                                  a["node_factor"])
            with self._lock:
                self._work[ev] = ("line", n1 * len(a["intervals"]), 0)
        return init

    def _traced_split(self, orig):
        def phase_split(surface):
            split = orig(surface)
            if split is None:
                return None
            return tuple(self.wrap("geometry.phase", part) for part in split)
        return phase_split


def self_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds, inclusive seconds) per span name.  Self time is the
    span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    own: dict[str, float] = {}
    incl: dict[str, float] = {}
    for k, (name, start, end, _) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child[k]
        incl[name] = incl.get(name, 0.0) + (end - start)
    return own, incl


def aggregate_seconds(spans) -> float:
    """Time from each cell's last `weighted_norm_batch` return to the end of
    the cell's measurement call."""
    last_batch_end: dict[int, float] = {}
    for name, _, end, parent in spans:
        if name == "norms.batch" and parent is not None \
                and spans[parent][0] == "harness.cell":
            last_batch_end[parent] = max(last_batch_end.get(parent, 0.0), end)
    return sum(spans[p][2] - end for p, end in last_batch_end.items())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    own, incl = self_times(tracer.spans)
    counts = tracer.counts
    out = {
        "fields.build_s": own.get("fields.build", 0.0),
        "fields.kernel_s": sum(own.get(f"fields.kernel.{e}", 0.0) for e in ENGINES),
        "fields.node_samples": sum(counts.get(f"fields.{e}.node_samples", 0)
                                   for e in ENGINES),
    }
    for e in ENGINES:
        busy = incl.get(f"fields.kernel.{e}", 0.0)
        work = counts.get(f"fields.{e}.node_samples", 0)
        out[f"fields.{e}.node_samples_per_s"] = work / busy if busy > 0 else 0.0
    out.update({
        "fields.tensor.temp_mb": tracer.tensor_temp_bytes / 1e6,
        "geometry.phase_s": own.get("geometry.phase", 0.0),
        "norms.setup_s": own.get("norms.setup", 0.0),
        "norms.batch_self_s": own.get("norms.batch", 0.0),
        "norms.samples": counts.get("norms.samples", 0),
        "harness.group_s": own.get("harness.evaluator", 0.0),
        "harness.aggregate_s": aggregate_seconds(tracer.spans),
        "harness.series": counts.get("harness.series", 0),
        # not per-layer metrics: printed to show how much of the traced wall
        # time the layers account for
        "attributed_s": sum(v for k, v in own.items() if k != "study"),
        "unattributed_s": own.get("study", 0.0),
    })
    return out
