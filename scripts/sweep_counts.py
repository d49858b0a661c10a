"""Work counters of every compiled-program run, per shipped config and benchmark workload.

Runs every ``configs/*.cfg`` and the three benchmark workload configs
of ``perfbench/workloads.py`` at the given seed, in process, with
``expr.Bound.run``, ``cubes.rk4``, ``cubes.rk4_table``,
``cubes.rk4_levels``, ``cubes.rk4_linear``, the expression node
constructors and ``fibration.Fibration`` wrapped, and prints one line
per config:

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
  ``Binary``, ``Power``) built while parsing the config and building
  brackets, curvature and programs' trees: every node built, whatever
  form its class's constructor takes, counted by wrapping each class's
  ``__new__``.  A fold that returns a shared node (``ZERO``, ``ONE``)
  or an operand builds none;
- ``fibrations``: the ``fibration.Fibration`` objects built, counted
  at the class as ``nodes`` are: a run whose monodromy tasks share an
  algebroid and splitting builds their anchor fibration once;
- ``locates``: the calls of ``cubes._locate``, which places spline
  positions on the knots; positions a run samples more than once (the
  RK4 stage times of each N, a resample's grid) are located once per
  run, the first time, and read from a cache after that;
- ``np_helpers``: the calls that the package's own code makes of six
  numpy helpers that do their work in Python before the C operation
  they end in, as ``moveaxis/gradient/tensordot/stack/diff/flatnonzero``
  (a call from within numpy is not counted); the sweeps, splines and
  quadratures use the operations themselves, so the first three read 0.

Every module-level ``lru_cache`` of ``cubes`` and ``transgression`` is
cleared before each config, so each row counts the work of a fresh
process whatever ran before it in this one.

The counters do not depend on host load, so two checkouts compare
exactly:

    python3 scripts/sweep_counts.py 11

``--against OTHER`` also counts with the package of the checkout
``OTHER`` (this script run again in a child process, with that
package imported before this checkout's), prints its row above this
checkout's for each config, and ends with a line naming every config
whose ``ops`` or ``prelude`` differ; it then exits 1.  The other
counters are printed for both checkouts but do not gate.  A change that
should leave every compiled program as it was is checked by one
command:

    python3 scripts/sweep_counts.py 11 --against ../parent

Usage: python3 scripts/sweep_counts.py SEED [--against OTHER]
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

COUNTERS = ("checked", "unchecked", "ops", "prelude", "narrowed", "compact_out", "stages", "table_steps", "level_steps", "linear_steps", "nodes", "fibrations", "locates", "np_helpers")
HELPERS = ("moveaxis", "gradient", "tensordot", "stack", "diff", "flatnonzero")  # the np_helpers column, in order
SAME = ("ops", "prelude")  # equal in two checkouts that compile the same programs


def counted(expr, counts: Counter):
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


def staged(steppers: tuple, counts: Counter):
    """``rk4``, ``rk4_table``, ``rk4_levels`` and ``rk4_linear`` that add each call's 4N stages, N table steps, N steps a level or N linear steps to ``counts``."""
    rk4, rk4_table, rk4_levels, rk4_linear = steppers

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


def located(locate, counts: Counter):
    """``cubes._locate`` that adds each call to ``counts``."""

    def wrapper(t, N):
        counts["locates"] += 1
        return locate(t, N)

    return wrapper


def package_calls(helper, name: str, counts: Counter):
    """``numpy`` helper ``helper`` that adds each call made from a module of the ``algebroids`` package to ``counts[name]``."""

    def wrapper(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__", "").startswith("algebroids."):
            counts[name] += 1
        return helper(*args, **kwargs)

    return wrapper


def fresh(*modules) -> None:
    """Clear every module-level ``functools.lru_cache`` of ``modules``: their state as in a fresh process."""
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def built(counts: Counter, counter: str, new):
    """A ``__new__`` for a class whose ``__new__`` is ``new``, that adds each object built to ``counts[counter]``.

    Calling a class runs its ``__new__`` before any ``__init__``, so this
    counts an object that either of them sets up; ``new`` still makes it
    (``object.__new__`` without the arguments).
    """

    def wrapper(klass, *args, **kwargs):
        counts[counter] += 1
        return new(klass) if new is object.__new__ else new(klass, *args, **kwargs)

    return staticmethod(wrapper)


def rows(seed: int):
    """(config, counters, exit code) of each config, run with the ``algebroids`` package importable now."""
    from report_digest import configs  # puts this checkout's package (unless one is imported) and perfbench first on the path

    from algebroids import cli, cubes, expr, fibration, transgression

    classes = {cls: "nodes" for cls in (expr.Const, expr.Var, expr.Unary, expr.Binary, expr.Power)} | {fibration.Fibration: "fibrations"}
    steppers = (cubes.rk4, cubes.rk4_table, cubes.rk4_levels, cubes.rk4_linear)
    run, news, own = expr.Bound.run, {cls: cls.__new__ for cls in classes}, {cls: cls.__dict__.get("__new__") for cls in classes}
    locate, helpers = cubes._locate, {name: getattr(np, name) for name in HELPERS}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            for label, config in configs(seed, tmp):
                counts = Counter()
                expr.Bound.run = counted(expr, counts)
                cubes.rk4, cubes.rk4_table, cubes.rk4_levels, cubes.rk4_linear = staged(steppers, counts)
                cubes._locate = located(locate, counts)
                for name, helper in helpers.items():
                    setattr(np, name, package_calls(helper, name, counts))
                fresh(cubes, transgression)
                for cls, new in news.items():
                    cls.__new__ = built(counts, classes[cls], new)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["run", str(config), "--out", str(tmp / label)])
                counts["np_helpers"] = "/".join(str(counts[name]) for name in HELPERS)
                yield label, {c: counts[c] for c in COUNTERS}, rc
        finally:
            expr.Bound.run = run
            cubes.rk4, cubes.rk4_table, cubes.rk4_levels, cubes.rk4_linear = steppers
            cubes._locate = locate
            for name, helper in helpers.items():
                setattr(np, name, helper)
            for cls, new in own.items():
                if new is None:
                    del cls.__new__
                else:
                    cls.__new__ = new


def other_rows(checkout: Path, seed: int) -> dict:
    """The rows of the checkout ``checkout``'s package: this script, with ``--package``, in a child process."""
    cmd = [sys.executable, __file__, str(seed), "--package", str(checkout.resolve() / "src")]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return {row["config"]: row for row in map(json.loads, out.splitlines())}


def line(label: str, counts: dict, rc: int) -> str:
    return f"{label:<27}" + "".join(f"{counts[c]:>13,}" for c in COUNTERS[:-1]) + f"{counts['np_helpers']:>20}" + ("" if rc == 0 else f"  exit {rc}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="seed of the benchmark workload configs")
    ap.add_argument("--against", type=Path, metavar="OTHER", help="checkout whose package to count as well")
    ap.add_argument("--package", type=Path, help=argparse.SUPPRESS)  # a child of --against: JSON rows of this package
    args = ap.parse_args()

    if args.package is not None:
        sys.path.insert(0, str(args.package))
        import algebroids  # noqa: F401  (bound first, so report_digest's path entry cannot replace it)

        for label, counts, rc in rows(args.seed):
            print(json.dumps({"config": label, "counts": counts, "rc": rc}))
        return
    other = other_rows(args.against, args.seed) if args.against is not None else None
    print(f"{'config':<27}" + "".join(f"{c:>13}" for c in COUNTERS[:-1]) + f"{COUNTERS[-1]:>20}")
    differ = []
    for label, counts, rc in rows(args.seed):
        if other is not None:
            theirs = other[label]
            print(line(f"{label} (against)", theirs["counts"], theirs["rc"]))
            if any(theirs["counts"][c] != counts[c] for c in SAME):
                differ.append(label)
        print(line(label, counts, rc))
    if other is not None:
        print(f"{' and '.join(SAME)} differ: {', '.join(differ) or 'none'}")
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
