"""Ladder of the not-a-knot slope solve: the row-by-row loop against the cached inverse.

For N = 48, 96, 192, 384 and 768 it prints the median time of the
Thomas loop (``thomas_slopes`` of ``tests/test_cubes.py``, the reference
the tests check the cached solve against) and of ``cubes._node_slopes``
(the blocked inverse cached per N), on a 1-D right-hand side of shape
(N+1, 3) and on a grid-wide one of shape (N+1, N+1, 2), as ``bicubic``
solves it.  The cached inverse is built before timing.  BLAS threads are
pinned to 1, as in ``perfbench/run.py``.

Usage: python3 scripts/spline_ladder.py [--repeats 15]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from test_cubes import thomas_slopes  # noqa: E402

from algebroids.cubes import _node_slopes  # noqa: E402


def median_ms(fn, y, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(y)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15, help="timed calls per rung and solver")
    args = ap.parse_args()

    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cores ({usable} usable)")
    print(f"{'N':>5} {'rhs':>16} {'loop ms':>9} {'cached ms':>10} {'cached/loop':>12}")
    rng = np.random.default_rng(0)
    for N in (48, 96, 192, 384, 768):
        for y in (rng.normal(size=(N + 1, 3)), rng.normal(size=(N + 1, N + 1, 2))):
            _node_slopes(y)  # builds the cached inverse
            loop, cached = (median_ms(fn, y, args.repeats) for fn in (thomas_slopes, _node_slopes))
            print(f"{N:>5} {str(y.shape):>16} {loop:>9.3f} {cached:>10.3f} {cached / loop:>12.2f}")


if __name__ == "__main__":
    main()
