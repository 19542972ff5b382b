"""declab benchmark.

Run from the root of a declab checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: indicator, strip, flatline, config-mix (see workloads.py).  One
process runs the workload's passes back to back for about `--seconds`
seconds (at least three passes), checks every cell's output and prints the
metrics by name and unit; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates traced and untraced passes and reports the per-layer metrics
from the traced ones (see tracing.py), plus the isolated `norms`
microbenchmarks.  Spans and the full result, with an environment record,
are written to .perfbench_out/ in the checkout.
"""

import os

# One BLAS thread: the only parallelism measured is the CLI pool.  Set before
# numpy is imported anywhere in this process or its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path.cwd() / "src"

if __name__ == "__main__":
    if not (SRC / "declab" / "__init__.py").is_file():
        print(f"perfbench: no declab package under {SRC}; run from the root of a "
              "declab checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from bench import main
    sys.exit(main(sys.argv[1:]))
