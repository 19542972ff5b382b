"""Cold-process set-up of one workload's first cell.

Run as `python3 perfbench/setup_probe.py <kind> <scale>` from the root of a
checkout: imports declab from `src/`, then makes the first calls of
`weight_mass`, `BallSpec.quantile_radius` and `truncation_tail_fraction` for
the cell's measurement ball and builds the cell's first extension
evaluator.  The benchmark times the whole process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import declab.cli  # noqa: E402,F401  (the CLI workload imports it too)
from declab import harness  # noqa: E402
from declab.fields import extension_evaluator  # noqa: E402
from declab.norms import weight_mass  # noqa: E402


def main(kind: str, scale: float):
    spec = harness.ScenarioSpec(kind=kind, n_scale=scale, p=6.0,
                                k_squares=int(scale) if kind == "strip" else 8)
    ball = harness.measurement_ball(4, scale)
    weight_mass(ball)
    x_max = ball.quantile_radius(harness.X_MAX_TAIL)
    ball.truncation_tail_fraction()
    bundle = harness.scenario(spec)
    extension_evaluator(bundle.surface, bundle.fields[0], x_max)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
