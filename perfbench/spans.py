"""Span and counter recording around the public entry points of ``algebroids``.

The benchmark never edits the package.  ``traced(recorder)`` replaces
each entry point below with a wrapper in every module namespace that
holds it (names imported by value are separate bindings), runs the
body, and puts every original back, even when the body raises.

Each call into a wrapped entry point opens one span holding its name,
start, end and parent span; spans of one run share the recorder's run
id.  Counters (``calls``, ``steps``, ``points``) are updated at the same
boundaries.  Everything stays in memory until :func:`dump`.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from contextlib import contextmanager
from functools import cached_property

from algebroids import cli, core, cubes, expr, fibration, transgression

_NAMESPACES = (cli, expr, core, cubes, fibration, transgression)
MODULES = tuple(ns.__name__.rpartition(".")[2] for ns in _NAMESPACES)
_MARK = "__perfbench_span__"


class Recorder:
    """In-memory spans of one traced run, plus counters keyed by metric name."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent, start, end, nested]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._depth: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        depth = self._depth.get(name, 0)
        span = [name, parent, 0.0, 0.0, depth > 0]
        self.spans.append(span)
        self.count(name + ".calls", 1)
        self._open.append(sid)
        self._depth[name] = depth + 1
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._depth[name] = depth
            self._open.pop()

    def summary(self) -> dict[str, float]:
        """Per-name inclusive and self time, per-module self time, and the counters.

        Inclusive time of a name counts only its outermost spans, so a
        recursive entry point is not counted twice.  Self time is a
        span's duration minus the time covered by its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {k: float(v) for k, v in self.counts.items()}
        for module in MODULES:
            out[module + ".self_s"] = 0.0
        for sid, (name, _, start, end, nested) in enumerate(self.spans):
            dur = end - start
            if not nested:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            own = dur - child[sid]
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own
            module = name.partition(".")[0]
            out[module + ".self_s"] += own
        return out

    def as_dict(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "run_id": self.run_id,
            "fields": ["name", "parent", "start", "end"],
            "names": names,
            "spans": [[index[n], p, a, b] for n, p, a, b, _ in self.spans],
            "counts": self.counts,
        }


def dump(recorders: list[Recorder], path) -> None:
    """Write the spans of every run once, gzip-compressed, keyed by run id."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump([rec.as_dict() for rec in recorders], fh)


# --- counters read off the arguments of a call ------------------------------------


def _eval_points(rec, args, kwargs, out):
    base = kwargs["base_shape"] if "base_shape" in kwargs else args[2]
    rec.count("core.eval_exprs.points", math.prod(base))


def _curvature_points(rec, args, kwargs, out):
    points = kwargs["points"] if "points" in kwargs else args[1]
    rec.count("fibration.Curvature2Form.values.points", math.prod(points.shape[:-1]))


def _transport_steps(rec, args, kwargs, out):
    fib = kwargs["fib"] if "fib" in kwargs else args[0]
    path = kwargs["path"] if "path" in kwargs else args[1]
    # the same test transport_matrix applies before it short-circuits
    if not (fib.transport_is_trivial or fib.kernel_rank == 0):
        rec.count("fibration.transport_matrix.steps", path.N)


def _evolve_steps(rec, args, kwargs, out):
    rec.count("fibration.evolve_cube_system.steps", kwargs["N"] if "N" in kwargs else args[4])


# span name -> (owner, attribute, counter); a module owner means "every
# namespace holding this function", a class owner means that class only.
ENTRY_POINTS = {
    "cli.main": (cli, "main", None),
    "cli.parse_config": (cli, "parse_config", None),
    "cli.inspect_config": (cli, "inspect_config", None),
    "cli.run_task": (cli, "run_task", None),
    "expr.parse": (expr, "parse", None),
    "core.eval_exprs": (core, "eval_exprs", _eval_points),
    "core.Algebroid.anchor_values": (core.Algebroid, "anchor_values", None),
    "core.Algebroid.structure_values": (core.Algebroid, "structure_values", None),
    "core.check_axioms": (core, "check_axioms", None),
    "cubes.Cube": (cubes.Cube, "__post_init__", None),
    "cubes.tangent_lift": (cubes, "tangent_lift", None),
    "cubes.cotangent_lift": (cubes, "cotangent_lift", None),
    "cubes.cube_from_sections": (cubes, "cube_from_sections", None),
    "cubes.coarsen": (cubes, "coarsen", None),
    "cubes.resample": (cubes, "resample", None),
    "cubes.morphism_residual": (cubes, "morphism_residual", None),
    "fibration.transport_matrix": (fibration, "transport_matrix", _transport_steps),
    "fibration.evolve_cube_system": (fibration, "evolve_cube_system", _evolve_steps),
    "fibration.lift_cube": (fibration, "lift_cube", None),
    "fibration.Curvature2Form.values": (fibration.Curvature2Form, "values", _curvature_points),
    "fibration.curvature": (fibration, "curvature", None),
    "fibration.Fibration.frame_inverse": (fibration.Fibration, "frame_inverse", None),
    "fibration.Fibration.action_matrices": (fibration.Fibration, "action_matrices", None),
    "transgression.transgress2_formula": (transgression, "transgress2_formula", None),
    "transgression.transgress_lift": (transgression, "transgress_lift", None),
    "transgression.monodromy_period": (transgression, "monodromy_period", None),
    "transgression.monodromy_group": (transgression, "monodromy_group", None),
    "transgression.decompose_path": (transgression, "decompose_path", None),
    "transgression.kernel_coefficient_values": (
        transgression,
        "kernel_coefficient_values",
        None,
    ),
    "transgression.centrality_residual": (transgression, "centrality_residual", None),
}


def _wrapper(rec: Recorder, name: str, fn, counter):
    def wrapped(*args, **kwargs):
        out = rec.call(name, fn, args, kwargs)
        if counter is not None:
            counter(rec, args, kwargs, out)
        return out

    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.__doc__ = fn.__doc__
    setattr(wrapped, _MARK, name)
    return wrapped


@contextmanager
def traced(rec: Recorder):
    """Install every wrapper for the duration of the block, then restore."""
    undo: list = []
    try:
        for name, (owner, attr, counter) in ENTRY_POINTS.items():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, cached_property):
                fn = original.func
                original.func = _wrapper(rec, name, fn, counter)
                undo.append((original, "func", fn))
                continue
            wrapped = _wrapper(rec, name, original, counter)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:  # every binding, whatever name it was imported under
                holders = [
                    (ns, key)
                    for ns in _NAMESPACES
                    for key, value in vars(ns).items()
                    if value is original
                ]
            for ns, key in holders:
                setattr(ns, key, wrapped)
                undo.append((ns, key, original))
        # expr.evaluate recurses through its own module global, so it is
        # wrapped only where eval_exprs calls it: one span per tree.
        undo.append((core, "evaluate", core.evaluate))
        core.evaluate = _wrapper(rec, "expr.evaluate", core.evaluate, None)
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of any span wrappers still reachable from the package namespaces."""
    found = []
    for ns in _NAMESPACES:
        for attr, value in vars(ns).items():
            if hasattr(value, _MARK):
                found.append(f"{ns.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__.startswith("algebroids"):
                for cattr, cval in vars(value).items():
                    target = cval.func if isinstance(cval, cached_property) else cval
                    if hasattr(target, _MARK):
                        found.append(f"{ns.__name__}.{attr}.{cattr}")
    return found
