"""Work counters of every compiled-program run, per shipped config and benchmark workload.

Runs every ``configs/*.cfg`` and the three benchmark workload configs
of ``perfbench/workloads.py`` at the given seed, in process, with
``expr.Bound.run`` and ``cubes.rk4`` wrapped, and prints one line per
config:

- ``checked`` and ``unchecked``: the number of ``Bound.run`` calls of
  each kind (every RK4 stage and every lift and flow table runs
  unchecked; a transport's one rate-matrix table is checked);
- ``ops``: the ops executed, one op list per call or per block of a
  blocked call;
- ``prelude``: the prelude writes (constant and variable cells copied
  to the output), one prelude per call;
- ``stages``: the RK4 stages, 4N per ``rk4`` call, which count the
  integration's work whether a stage runs a program or not.

The counters do not depend on host load, so two checkouts compare
exactly:

    python3 scripts/sweep_counts.py 11

Usage: python3 scripts/sweep_counts.py SEED
"""

import argparse
import contextlib
import io
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from report_digest import configs  # puts this checkout's package and perfbench first on the path

from algebroids import cli, cubes, expr, fibration

COUNTERS = ("checked", "unchecked", "ops", "prelude", "stages")


def counted(counts: Counter):
    """``Bound.run`` that adds each call's work to ``counts``."""
    run = expr.Bound.run

    def wrapper(self, out=None, checked=True):
        program = self.program
        counts["checked" if checked else "unchecked"] += 1
        counts["prelude"] += len(program.prelude)
        size = program.size * int(np.prod(self.base_shape, dtype=int))
        if size <= expr.BLOCK * program.size:
            counts["ops"] += len(program.ops)
        else:  # as Bound.run blocks it: rows of the leading axis per block
            lead = self.base_shape[0]
            rows = max(1, expr.BLOCK * program.size * lead // size)
            counts["ops"] += len(program.ops) * -(-lead // rows)
        return run(self, out, checked)

    return wrapper


def staged(counts: Counter):
    """``rk4`` that adds each call's 4N stages to ``counts``."""
    rk4 = cubes.rk4

    def wrapper(f, y0, N, stage=None):
        counts["stages"] += 4 * N
        return rk4(f, y0, N, stage)

    return wrapper


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="seed of the benchmark workload configs")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print(f"{'config':<18}" + "".join(f"{c:>11}" for c in COUNTERS))
        run, rk4 = expr.Bound.run, cubes.rk4
        try:
            for label, config in configs(args.seed, tmp):
                counts = Counter()
                expr.Bound.run = counted(counts)
                cubes.rk4 = fibration.rk4 = staged(counts)  # fibration imports rk4 by value
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["run", str(config), "--out", str(tmp / label)])
                print(f"{label:<18}" + "".join(f"{counts[c]:>11,}" for c in COUNTERS) + ("" if rc == 0 else f"  exit {rc}"))
        finally:
            expr.Bound.run, cubes.rk4, fibration.rk4 = run, rk4, rk4


if __name__ == "__main__":
    main()
