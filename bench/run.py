"""mmexpr benchmark: one command per workload, metrics as one JSON line.

    python3 bench/run.py --workload train_lstm --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` each stage's timed operation repeats until the stage's share of
``--seconds`` is used, and the last line reports the end-to-end metrics
(medians over operations). With ``--trace 1`` each stage runs once untraced
and once under the span tracer, and the last line reports the per-layer
metrics; the lines above it hold the self-time tables, the unattributed part
of each traced ``train()`` call and the tracing overhead. ``--smoke`` shrinks
every size so the whole harness runs in seconds.

Metric names and units come from ``BENCHMARK.json``. Every run also writes
its full result, with a machine block, to ``<out>/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train_lstm", "train_transformer", "ensemble_eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the schema test")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    return p.parse_args(argv)


def limit_blas_threads() -> None:
    """Pin BLAS/OpenMP threads to the CPUs this process may use (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mmexpr", "__init__.py")):
        print(f"error: no mmexpr sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, SRC)

    import harness  # imports numpy, so it comes after the thread limit

    return harness.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
