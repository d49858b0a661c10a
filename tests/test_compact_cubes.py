"""Cubes whose points and coefficient fields are stored only along the grid axes they vary on.

A tangent lift runs each coordinate, and its velocities, over the time
axes they load and hands the cube a broadcast of each buffer.  Every
consumer must give the same bits on such a cube as on a dense copy of it.
"""

import dataclasses
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from algebroids import cubes, expr
from algebroids.core import Chart, eval_exprs, make_jacobi_extension, make_tangent
from algebroids.cubes import (
    Cube,
    axis_times,
    coarsen,
    concat,
    cotangent_lift,
    degeneracy,
    face,
    morphism_residual,
    reparam_cutoff,
    resample,
    reverse,
    save_cube,
    tangent_lift,
    time_names,
)
from algebroids.expr import as_expr
from algebroids.fibration import Curvature2Form, jacobi_fibration, lift_cube, project_cube, rep_extension_fibration
from algebroids.transgression import TransgressionResult, monodromy_period, transgress2_formula

PI = float(np.pi)
EPS = 1e-3
PLANE = Chart(("x", "y"), ((-3.0, 3.0), (-3.0, 3.0)))
STD_BIV = [["0", "1"], ["-1", "0"]]
SPHERE = Chart(("th", "ph"), ((EPS / 2, PI - EPS / 2), (-0.1, 2 * PI + 0.1)))
SPHERE_SPLITTING = [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]]
# 193^2 grid points pass expr.BLOCK, so programs over these cubes narrow their broadcast inputs; over a
# dense copy nothing narrows, so the bitwise table below compares narrowed runs with runs that are not
N = 192

# an affine map stores n x dim velocities; the mixed one varies along t1 only
SQUARE = {"affine": ["0.2 + 0.5*t1", "-0.3 + 0.4*t2"], "mixed": ["0.5*sin(t1) - 0.2", "0.2*t2 - 0.1"]}
WRAP = {
    "affine": [f"{EPS} + {PI - 2 * EPS}*t1", f"{2 * PI}*t2"],
    "mixed": [f"{EPS} + {PI - 2 * EPS}*t1", f"{2 * PI}*t2 + 0.05*sin({PI}*t1)"],
}


def stacked_velocities(chart, comps, n, N):
    """The coefficient fields built one axis at a time and stacked, as dense arrays."""
    names = time_names(chart, n)
    exprs = [as_expr(c) for c in comps]
    env = dict(zip(names, axis_times(n, N)))
    return np.stack([eval_exprs(tuple(e.diff(t) for e in exprs), env, (N + 1,) * n) for t in names])


def compact_part(a):
    return a[tuple(slice(1) if step == 0 else slice(None) for step in a.strides)]


def bits(x):
    """Everything a result holds, with each float as its bytes."""
    if isinstance(x, Cube):
        return [x.algebroid, bits(x.gamma), bits(x.coeffs)]
    if isinstance(x, TransgressionResult):
        return [bits(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, tuple):
        return [bits(v) for v in x]
    if x is None or isinstance(x, (str, int)):
        return x
    a = np.asarray(x, dtype=float)
    return a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("N", [16, N])
def test_an_affine_lift_stores_each_velocity_once(N):
    comps = WRAP["affine"]
    cube = tangent_lift(SPHERE, comps, n=2, N=N)
    assert cube.coeffs.shape == (2, N + 1, N + 1, 2)
    assert cube.coeffs.strides[1:3] == (0, 0)
    assert cube.coeffs.tobytes() == stacked_velocities(SPHERE, comps, 2, N).tobytes()


def test_a_mixed_map_is_stored_along_the_axis_it_varies_on():
    comps = ["sin(t1)", "0.2*t2"]
    cube = tangent_lift(PLANE, comps, n=2, N=N)
    assert cube.coeffs.strides[1] != 0 and cube.coeffs.strides[2] == 0
    assert compact_part(cube.coeffs).shape == (2, N + 1, 1, 2)
    assert cube.coeffs.tobytes() == stacked_velocities(PLANE, comps, 2, N).tobytes()


def test_a_map_varying_on_every_axis_gets_an_owned_contiguous_buffer():
    comps = ["0.3*sin(t1)*cos(t2)", "0.2*t2 + 0.1*t1*t2"]
    cube = tangent_lift(PLANE, comps, n=2, N=N)
    assert cube.coeffs.flags.owndata and cube.coeffs.flags.c_contiguous
    assert cube.coeffs.tobytes() == stacked_velocities(PLANE, comps, 2, N).tobytes()


@pytest.mark.parametrize("shape", sorted(WRAP))
def test_a_wrap_stores_each_coordinate_along_the_time_axes_it_reads(shape):
    cube = tangent_lift(SPHERE, WRAP[shape], n=2, N=N)
    # theta reads t1 alone; phi reads t2, and in the mixed map t1 too
    want = {"affine": [(N + 1, 1), (1, N + 1)], "mixed": [(N + 1, 1), (N + 1, N + 1)]}[shape]
    assert [compact_part(p).shape for p in cube.points] == want
    assert all(p.shape == (N + 1, N + 1) and not p.flags.writeable for p in cube.points)
    # the bits of the whole map run over the whole grid
    env = dict(zip(time_names(SPHERE, 2), axis_times(2, N)))
    dense = eval_exprs(tuple(as_expr(c) for c in WRAP[shape]), env, (N + 1, N + 1))
    points = cube.points
    assert cube.gamma.tobytes() == dense.tobytes()
    # the dense stack is a new array on each read: the cube keeps its points as they are stored
    assert cube.points is points and [compact_part(p).shape for p in cube.points] == want
    assert not any(np.shares_memory(p, cube.gamma) for p in cube.points)


def test_a_sphere_lift_allocates_little_beyond_its_points():
    comps = WRAP["affine"]
    tangent_lift(SPHERE, comps, n=2, N=16)  # compile and import outside the measurement
    tracemalloc.start()
    try:
        cube = tangent_lift(SPHERE, comps, n=2, N=768)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense (769, 769, 2) point grid would be 9.4 MB
    assert peak < 2**18
    assert [compact_part(p).shape for p in cube.points] == [(769, 1), (1, 769)]


def test_a_sphere_period_never_builds_the_dense_points(monkeypatch):
    cube = tangent_lift(SPHERE, WRAP["affine"], n=2, N=768)
    A = make_jacobi_extension(SPHERE, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]])
    # every input of a run above expr.BLOCK is a broadcast, so the run cuts it to its compact part
    large = []
    run = expr.Bound.run

    def spy(self, *args, **kwargs):
        if np.prod(self.base_shape) > expr.BLOCK:
            inputs = [self.regs[slot] for slot, _ in self.program.loads]
            large.append([any(step == 0 and size > 1 for step, size in zip(v.strides, v.shape)) for v in inputs])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(expr.Bound, "run", spy)
    stacks = []  # the cubes whose points are read as one dense stack
    gamma = Cube.gamma
    monkeypatch.setattr(Cube, "gamma", property(lambda self: stacks.append(self) or gamma.fget(self)))
    assert abs(monodromy_period(A, SPHERE_SPLITTING, cube).scalar() - 4 * PI) < 2e-2
    assert stacks == []
    assert large and all(all(inputs) for inputs in large)


def test_a_warm_sphere_period_allocates_little():
    cube = tangent_lift(SPHERE, WRAP["affine"], n=2, N=768)
    A = make_jacobi_extension(SPHERE, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]])
    monodromy_period(A, SPHERE_SPLITTING, cube)  # compile and import outside the measurement
    tracemalloc.start()
    try:
        monodromy_period(A, SPHERE_SPLITTING, cube)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pairing is written along theta alone and the trapezoid contracts that; one dense (769, 769) grid is 4.7 MB
    assert peak < 2**18


# --- consumers give the same bits on a compact cube as on its dense copy ---------


def _cotangent_square(shape):
    """A cube over the cotangent algebroid of the constant bivector, stored as compactly as its tangent lift."""
    t = tangent_lift(PLANE, SQUARE[shape], n=2, N=N)
    # with the bivector entry 1, the differential-frame coefficients of (v0, v1) are (v1, -v0)
    part = compact_part(t.coeffs)[..., ::-1] * (1.0, -1.0)
    A = jacobi_fibration(PLANE, STD_BIV).base
    return Cube(A, t.points, np.broadcast_to(part, t.coeffs.shape))


def _total_square(shape):
    """A compact cube over the total algebroid of the plane's Jacobi fibration."""
    t = tangent_lift(PLANE, SQUARE[shape], n=2, N=N)
    part = compact_part(t.coeffs)
    part = np.concatenate([0.5 * part[..., :1], part], axis=-1)
    A = jacobi_fibration(PLANE, STD_BIV).total
    return Cube(A, t.points, np.broadcast_to(part, t.coeffs.shape[:-1] + (3,)))


CUBES = {
    "square": lambda shape: tangent_lift(PLANE, SQUARE[shape], n=2, N=N),
    "small": lambda shape: tangent_lift(PLANE, SQUARE[shape], n=2, N=24),  # a grid to add an axis to
    "wrap": lambda shape: tangent_lift(SPHERE, WRAP[shape], n=2, N=N),
    "cotangent": _cotangent_square,
    "total": _total_square,
}


def _twisted():
    """A rank-one kernel over the plane whose action makes transport nontrivial."""
    fib = rep_extension_fibration(make_tangent(PLANE), 1, [[["0"]], [["0.5"]]], twist={(0, 1): ["1"]})
    assert not fib.transport_is_trivial
    return fib


def _saved(cube: Cube) -> str:
    """The text :func:`save_cube` writes for a cube."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cube.json"
        save_cube(cube, path)
        return path.read_text(encoding="utf-8")


OPS = {
    "basepoint": lambda get, shape: get("wrap").basepoint,
    "save_cube": lambda get, shape: _saved(get("square")),
    "coarsen": lambda get, shape: coarsen(get("square")),
    "resample": lambda get, shape: resample(get("square"), 61),
    "face": lambda get, shape: face(get("square"), 0, 1),
    "degeneracy": lambda get, shape: degeneracy(get("small"), 1),
    "reverse": lambda get, shape: reverse(get("square"), 1),
    "concat": lambda get, shape: concat(get("square"), reverse(get("square"), 0), 0),
    "reparam_cutoff": lambda get, shape: reparam_cutoff(get("square")),
    "cotangent_lift": lambda get, shape: cotangent_lift(PLANE, STD_BIV, SQUARE[shape], 2, N),
    "morphism_residual": lambda get, shape: morphism_residual(get("square")),
    "lift_cube": lambda get, shape: lift_cube(_twisted(), get("square")),
    "project_cube": lambda get, shape: project_cube(jacobi_fibration(PLANE, STD_BIV), get("total")),
    "transgress2_formula_flat": lambda get, shape: transgress2_formula(
        jacobi_fibration(PLANE, STD_BIV), get("cotangent")
    ),
    "transgress2_formula_transported": lambda get, shape: transgress2_formula(_twisted(), get("square")),
    "monodromy_period": lambda get, shape: monodromy_period(
        make_jacobi_extension(SPHERE, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]]), SPHERE_SPLITTING, get("wrap")
    ),
}


def _dense(cube: Cube) -> Cube:
    return Cube(cube.algebroid, np.array(cube.gamma), np.array(cube.coeffs))


# the trapezoid of a broadcast pairing multiplies by the summed weights along the axes it is broadcast along,
# which rounds in another order than contracting every node; these rows agree within the shipped reports' pin
# (1e-12 absolute plus 1e-12 relative, tests/test_pinned_reports.py), every other row bit for bit
BROADCAST_PAIRING = {"monodromy_period", "transgress2_formula_flat"}


@pytest.mark.parametrize("shape", sorted(SQUARE))
@pytest.mark.parametrize("op", sorted(OPS))
def test_a_compact_cube_gives_the_bits_of_its_dense_copy(op, shape, monkeypatch):
    def compact(kind):
        cube = CUBES[kind](shape)
        assert 0 in cube.coeffs.strides[1:-1] and 0 in cube.points[0].strides
        return cube

    fields = []
    pairing = Curvature2Form.pairing
    monkeypatch.setattr(Curvature2Form, "pairing", lambda self, *args: fields.append(pairing(self, *args)) or fields[-1])
    want = OPS[op](compact, shape)
    # cotangent_lift builds its own tangent lift; make that one dense too
    monkeypatch.setattr(cubes, "tangent_lift", lambda *args: _dense(tangent_lift(*args)))
    if op not in BROADCAST_PAIRING:
        got = OPS[op](lambda kind: _dense(CUBES[kind](shape)), shape)
        assert bits(got) == bits(want)
        return
    assert len(fields) == 1 and expr.compact_part(fields[0]) is not fields[0]  # the pairing on the compact cube is a broadcast
    got = OPS[op](lambda kind: _dense(CUBES[kind](shape)), shape)
    assert expr.compact_part(fields[1]) is fields[1]
    for name in ("value", "est_error"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-12)
    assert bits(dataclasses.replace(got, value=want.value, est_error=want.est_error)) == bits(want)
