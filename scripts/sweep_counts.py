"""Work counters of every compiled-program run, per shipped config and benchmark workload.

Runs every ``configs/*.cfg`` and the three benchmark workload configs
of ``perfbench/workloads.py`` at the given seed, in process, with
``expr.Bound.run``, ``cubes.rk4``, ``cubes.rk4_table``,
``cubes.rk4_levels``, ``cubes.rk4_linear`` and the expression node
constructors wrapped, and prints one line per config:

- ``checked`` and ``unchecked``: the number of ``Bound.run`` calls of
  each kind (every RK4 stage and every lift and flow table runs
  unchecked; a transport's one rate-matrix table is checked);
- ``ops``: the ops executed, one op list per call or per block of a
  blocked call;
- ``prelude``: the prelude writes (constant and variable cells copied
  to the output), one prelude per call;
- ``narrowed``: the input arrays of the runs over more than
  ``expr.BLOCK`` points that have an axis of stride 0 and length > 1,
  which such a run cuts to their compact part: how much broadcast data
  reaches the evaluator on large grids, so a change that hands it a
  dense copy of a compact field shows as a lower count;
- ``compact_out``: the runs without a caller's ``out`` that returned a
  read-only broadcast, read off the result, whose compact part is the
  array ``Bound.run`` wrote; a change that densifies such an output
  shows here without timing (``ops`` counts their blocks at that
  written shape);
- ``stages``: the RK4 stages of the stepped sweeps, 4N per ``rk4``
  call, which count the integration's work whether a stage runs a
  program or not;
- ``table_steps``: the steps of the sweeps whose rate reads no state,
  N per ``rk4_table`` call, which sums them without running a stage;
- ``level_steps``: the steps of the sweeps integrated level by level,
  N per level of each ``rk4_levels`` call (a level runs each of its
  programs once per stage kind over all N steps), the pass over w2's
  integral and the point that a lift sweep makes before its fields
  step by their step matrices included;
- ``linear_steps``: the steps of the linear sweeps (transport, and the
  fields of a lift sweep whose field rows read each other in a cycle),
  N per ``rk4_linear`` call, which builds every step matrix at once and
  then takes one matrix product a step;
  without these three, that work would seem to vanish from ``stages``;
- ``nodes``: the expression nodes (``Const``, ``Var``, ``Unary``,
  ``Binary``, ``Power``) built, counted by wrapping each class's
  ``__init__``: parsing the config, building brackets, curvature and
  programs' trees.

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

from algebroids import cli, cubes, expr

COUNTERS = ("checked", "unchecked", "ops", "prelude", "narrowed", "compact_out", "stages", "table_steps", "level_steps", "linear_steps", "nodes")
NODES = (expr.Const, expr.Var, expr.Unary, expr.Binary, expr.Power)
STEPPERS = (cubes.rk4, cubes.rk4_table, cubes.rk4_levels, cubes.rk4_linear)


def counted(counts: Counter):
    """``Bound.run`` that adds each call's work to ``counts``."""
    run = expr.Bound.run

    def wrapper(self, out=None, checked=True):
        program = self.program
        counts["checked" if checked else "unchecked"] += 1
        counts["prelude"] += len(program.prelude)
        shape = self.base_shape
        if np.prod(shape, dtype=int) > expr.BLOCK:
            inputs = (self.regs[slot] for slot, _ in program.loads)
            counts["narrowed"] += sum(expr.compact_part(v) is not v for v in inputs)
        result = run(self, out, checked)
        if out is None and shape and not result.flags.writeable:  # a broadcast of the compact array the run wrote
            shape = expr.compact_part(result).shape[: len(shape)]
            counts["compact_out"] += 1
        size = program.size * int(np.prod(shape, dtype=int))
        if size <= expr.BLOCK * program.size:
            counts["ops"] += len(program.ops)
        else:  # as Bound.run blocks it: rows of the leading axis per block
            lead = shape[0]
            rows = max(1, expr.BLOCK * program.size * lead // size)
            counts["ops"] += len(program.ops) * -(-lead // rows)
        return result

    return wrapper


def staged(counts: Counter):
    """``rk4``, ``rk4_table``, ``rk4_levels`` and ``rk4_linear`` that add each call's 4N stages, N table steps, N steps a level or N linear steps to ``counts``."""
    rk4, rk4_table, rk4_levels, rk4_linear = STEPPERS

    def stepper(f, y0, N, stage=None):
        counts["stages"] += 4 * N
        return rk4(f, y0, N, stage)

    def quadrature(table, y0, N):
        counts["table_steps"] += N
        return rk4_table(table, y0, N)

    def leveler(rates, levels, y0, N, stages):
        counts["level_steps"] += N * len(levels)
        return rk4_levels(rates, levels, y0, N, stages)

    def propagator(B, c, y0, N):
        counts["linear_steps"] += N
        return rk4_linear(B, c, y0, N)

    return stepper, quadrature, leveler, propagator


def built(counts: Counter) -> dict:
    """An ``__init__`` per Expr node class that adds each node built to ``counts``."""

    def wrap(init):
        def wrapper(self, *args, **kwargs):
            counts["nodes"] += 1
            init(self, *args, **kwargs)

        return wrapper

    return {cls: wrap(cls.__init__) for cls in NODES}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="seed of the benchmark workload configs")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print(f"{'config':<18}" + "".join(f"{c:>13}" for c in COUNTERS))
        run = expr.Bound.run
        inits = {cls: cls.__init__ for cls in NODES}
        try:
            for label, config in configs(args.seed, tmp):
                counts = Counter()
                expr.Bound.run = counted(counts)
                cubes.rk4, cubes.rk4_table, cubes.rk4_levels, cubes.rk4_linear = staged(counts)
                for cls, init in built(counts).items():
                    cls.__init__ = init
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["run", str(config), "--out", str(tmp / label)])
                print(f"{label:<18}" + "".join(f"{counts[c]:>13,}" for c in COUNTERS) + ("" if rc == 0 else f"  exit {rc}"))
        finally:
            expr.Bound.run = run
            cubes.rk4, cubes.rk4_table, cubes.rk4_levels, cubes.rk4_linear = STEPPERS
            for cls, init in inits.items():
                cls.__init__ = init


if __name__ == "__main__":
    main()
