"""Grid cubes over an algebroid chart: construction, calculus and surgery.

A cube of dimension n is a uniform (N+1)-node grid on [0, 1]^n carrying
a base path ``gamma`` into the chart and, for each time axis, a field of
frame coefficients.  The morphism residual measures how far the data is
from an algebroid morphism out of the tangent algebroid of the cube; all
higher operations (faces, degeneracies, reversal, reparametrization and
concatenation) preserve that property up to grid error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import Algebroid, Chart, Section, eval_exprs, make_cotangent_poisson, make_tangent
from .expr import NonFiniteError, as_expr, compile_exprs

__all__ = [
    "Cube",
    "ChartEscapeError",
    "MorphismResidual",
    "morphism_residual",
    "sphere_defect",
    "is_sphere",
    "homotopy_defect",
    "is_homotopy",
    "face",
    "degeneracy",
    "reverse",
    "cutoff",
    "cutoff_prime",
    "reparam_cutoff",
    "concat",
    "commutation_residual",
    "cube_from_sections",
    "tangent_lift",
    "cotangent_lift",
    "path_cube",
    "grid_times",
    "save_cube",
    "load_cube",
]


class ChartEscapeError(ValueError):
    """A constructed base path left the chart box."""


_ESCAPED = "flow left the chart box; shrink the time box or enlarge the chart"


def grid_times(n: int, N: int) -> list[np.ndarray]:
    """Node-value meshes for each time axis, each of shape (N+1,)*n."""
    return [idx / N for idx in np.indices((N + 1,) * n).astype(float)]


@dataclass(frozen=True, eq=False)
class Cube:
    """Sampled cube: base points and per-axis frame coefficients.

    ``gamma`` has shape (N+1,)*n + (dim,), ``coeffs`` has shape
    (n,) + (N+1,)*n + (rank,) with ``coeffs[i]`` the coefficient field of
    time axis i.  Arrays are copied and frozen on construction, and must
    be finite; points outside the chart box raise :class:`ChartEscapeError`.
    """

    algebroid: Algebroid
    gamma: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        c = np.array(self.coeffs, dtype=float)
        n = c.shape[0] if c.ndim > 0 else 0
        if n < 1 or c.ndim != n + 2 or g.ndim != n + 1:
            raise ValueError("gamma must be grid + point, coeffs must be (axes,) + grid + frame")
        axis_sizes = set(g.shape[:-1]) | set(c.shape[1:-1])
        if len(axis_sizes) != 1:
            raise ValueError("all grid axes must have the same node count")
        if axis_sizes.pop() < 3:
            raise ValueError("need at least three nodes per axis")
        if g.shape[-1] != self.algebroid.chart.dim:
            raise ValueError("gamma points do not match the chart dimension")
        if c.shape[-1] != self.algebroid.rank:
            raise ValueError("coefficient fields do not match the algebroid rank")
        if not np.isfinite(c).all():
            raise ValueError("coefficient fields hold NaN or inf")
        if not self.algebroid.chart.contains(g, tol=1e-8):
            raise ChartEscapeError("cube base points leave the chart box")
        g.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def N(self) -> int:
        return self.gamma.shape[0] - 1

    @property
    def basepoint(self) -> np.ndarray:
        return self.gamma[(0,) * self.n]


class MorphismResidual(NamedTuple):
    structure: float
    base: float


def morphism_residual(cube: Cube) -> MorphismResidual:
    """Sup-norm defect of the morphism equations on the grid.

    The base part compares each grid derivative of gamma with the anchor
    image of the matching coefficient field; the structure part compares
    the antisymmetrized grid derivatives of the coefficient fields with
    their pointwise bracket.  Derivatives are second-order differences,
    so exact data shows an O(N^-2) residual.
    """
    n, N = cube.n, cube.N
    h = 1.0 / N
    A = cube.algebroid
    rho = A.anchor_values(cube.gamma)
    base = 0.0
    for i in range(n):
        dgamma = np.gradient(cube.gamma, h, axis=i, edge_order=2)
        img = np.einsum("...p,...pm->...m", cube.coeffs[i], rho)
        if dgamma.size:
            base = max(base, float(np.max(np.abs(dgamma - img))))
    structure = 0.0
    if n >= 2:
        cvals = A.structure_values(cube.gamma)
        for i in range(n):
            for j in range(i + 1, n):
                res = (
                    np.gradient(cube.coeffs[i], h, axis=j, edge_order=2)
                    - np.gradient(cube.coeffs[j], h, axis=i, edge_order=2)
                    - np.einsum("...p,...q,...pql->...l", cube.coeffs[i], cube.coeffs[j], cvals)
                )
                structure = max(structure, float(np.max(np.abs(res))))
    return MorphismResidual(structure=structure, base=base)


# --- boundary classification -------------------------------------------------


def sphere_defect(cube: Cube) -> float:
    """How far the cube is from having a fully collapsed boundary.

    Measures every coefficient field on the boundary slabs of the other
    axes, plus the spread of gamma over the whole boundary relative to
    the basepoint.
    """
    n, N = cube.n, cube.N
    worst = 0.0
    for k in range(n):
        for l in range(n):
            if l == k:
                continue
            for end in (0, N):
                sl = np.take(cube.coeffs[k], end, axis=l)
                worst = max(worst, float(np.max(np.abs(sl))))
    bp = cube.basepoint
    for l in range(n):
        for end in (0, N):
            g = np.take(cube.gamma, end, axis=l)
            worst = max(worst, float(np.max(np.abs(g - bp))))
    return worst


def is_sphere(cube: Cube, tol: float = 1e-8) -> bool:
    return sphere_defect(cube) < tol


def homotopy_defect(cube: Cube) -> float:
    """Boundary defect of the last axis read as a deformation parameter."""
    n, N = cube.n, cube.N
    if n < 2:
        raise ValueError("a homotopy needs at least two axes")
    worst = 0.0
    for k in range(n - 1):
        for end in (0, N):
            sl = np.take(cube.coeffs[n - 1], end, axis=k)
            worst = max(worst, float(np.max(np.abs(sl))))
    return worst


def is_homotopy(cube: Cube, tol: float = 1e-8) -> bool:
    return homotopy_defect(cube) < tol


# --- elementary surgery -------------------------------------------------------


def face(cube: Cube, axis: int, end: int) -> Cube:
    """Restrict to the slab ``t_axis = end`` and drop that axis."""
    if cube.n < 2:
        raise ValueError("faces of a 1-cube are points; compare endpoints instead")
    if end not in (0, 1):
        raise ValueError("end must be 0 or 1")
    idx = 0 if end == 0 else cube.N
    gamma = np.take(cube.gamma, idx, axis=axis)
    coeffs = np.delete(np.take(cube.coeffs, idx, axis=axis + 1), axis, axis=0)
    return Cube(cube.algebroid, gamma, coeffs)


def degeneracy(cube: Cube, axis: int) -> Cube:
    """Insert a constant time axis at position ``axis`` with zero coefficients."""
    n, N = cube.n, cube.N
    if not 0 <= axis <= n:
        raise ValueError(f"axis must be in 0..{n}")
    gamma = np.repeat(np.expand_dims(cube.gamma, axis), N + 1, axis=axis)
    coeffs = np.repeat(np.expand_dims(cube.coeffs, axis + 1), N + 1, axis=axis + 1)
    return Cube(cube.algebroid, gamma, np.insert(coeffs, axis, 0.0, axis=0))


def reverse(cube: Cube, axis: int) -> Cube:
    """Run one time axis backwards; its coefficient field flips sign."""
    if not 0 <= axis < cube.n:
        raise ValueError(f"axis must be in 0..{cube.n - 1}")
    gamma = np.flip(cube.gamma, axis=axis)
    coeffs = np.flip(cube.coeffs, axis=axis + 1).copy()
    coeffs[axis] *= -1.0
    return Cube(cube.algebroid, gamma, coeffs)


def coarsen(cube: Cube) -> Cube:
    """Drop every other grid node along each time axis (requires even N).

    The surviving nodes sit at the same times, so the result is the same map
    sampled on the half-resolution grid.  Comparing a quantity computed at N
    and at N/2 gives a cheap Richardson-style error estimate.
    """
    if cube.N % 2 != 0:
        raise ValueError("coarsen needs an even number of steps")
    sl = (slice(None, None, 2),) * cube.n
    gamma = cube.gamma[sl]
    comps = cube.coeffs[(slice(None),) + sl]
    return Cube(cube.algebroid, gamma, comps)


def resample(cube: Cube, M: int) -> Cube:
    """Sample the same map on a uniform grid with M steps per axis.

    The parametrization is unchanged, so coefficient fields carry no
    reparametrization factor; node values come from cubic splines through
    the existing grid.  On even N with M = N/2 this agrees with
    :func:`coarsen` up to spline evaluation at the knots.
    """
    if M < 3:
        raise ValueError("resampling needs at least three steps")
    ts = np.linspace(0.0, 1.0, M + 1)
    gamma, coeffs = cube.gamma, cube.coeffs
    for axis in range(cube.n):
        gamma = Spline(gamma, axis=axis)(ts)
        coeffs = Spline(coeffs, axis=axis + 1)(ts)
    return Cube(cube.algebroid, gamma, coeffs)


# --- cubic splines on uniform knots ---------------------------------------------


def _tridiagonal_solve(lower, diag, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system for every column of ``rhs`` at once.

    ``lower[i]``, ``diag[i]`` and ``upper[i]`` are the entries of row i
    left of, on and right of the diagonal; ``rhs`` has one row per
    equation along axis 0.  Plain elimination without pivoting: every
    pivot of the spline systems below lies between 0.4 and 4.
    """
    n = len(diag)
    d = list(diag)
    r = rhs.copy()
    for i in range(1, n):
        w = lower[i] / d[i - 1]
        d[i] -= w * upper[i - 1]
        r[i] -= w * r[i - 1]
    r[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        r[i] -= upper[i] * r[i + 1]
        r[i] /= d[i]
    return r


def _node_slopes(y: np.ndarray, ends) -> np.ndarray:
    """Node slopes along axis 0 of the cubic spline through ``y`` on uniform knots of [0, 1].

    ``ends=None`` gives the not-a-knot conditions (with three nodes the
    single parabola through them); otherwise ``ends`` holds the two
    clamped end slopes.
    """
    N = y.shape[0] - 1
    m = np.diff(y, axis=0) * N
    lower, diag, upper = [1.0] * (N + 1), [4.0] * (N + 1), [1.0] * (N + 1)
    rhs = np.empty(y.shape)
    rhs[1:-1] = 3 * (m[:-1] + m[1:])
    if ends is not None:
        upper[0] = lower[N] = 0.0
        diag[0] = diag[N] = 1.0
        rhs[0], rhs[-1] = ends
    elif N == 2:
        upper[0] = lower[N] = diag[0] = diag[N] = 1.0
        rhs[0], rhs[-1] = 2 * m[0], 2 * m[-1]
    else:
        upper[0] = lower[N] = 2.0
        diag[0] = diag[N] = 1.0
        rhs[0] = (5 * m[0] + m[1]) / 2
        rhs[-1] = (m[-2] + 5 * m[-1]) / 2
    return _tridiagonal_solve(lower, diag, upper, rhs)


def _hermite(y0, y1, d0, d1, N: int):
    """Power-form coefficients, about the left end, of the cubic on a 1/N step.

    The cubic takes values ``y0``, ``y1`` and slopes ``d0``, ``d1`` at
    the two ends; the value at offset s is ``c0 + s*(c1 + s*(c2 + s*c3))``.
    """
    m = (y1 - y0) * N
    t = (d0 + d1 - 2 * m) * N
    return y0, d0, (m - d0) * N - t, t * N


def _horner(c, s):
    return c[0] + s * (c[1] + s * (c[2] + s * c[3]))


def _locate(t: np.ndarray, knots: np.ndarray):
    """Interval index of each position (extrapolating past the ends) and its offset."""
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
    return i, t - knots[i]


class Spline:
    """Cubic spline through node values on the uniform knots of [0, 1].

    ``y`` holds N+1 node values along ``axis``; the other axes are
    interpolated independently.  The end conditions are not-a-knot
    unless ``ends`` gives the two clamped end slopes.  The spline is
    solved once; each evaluation reads only the four power-form
    coefficients of the interval a position falls in.  Calling it at
    positions of shape P returns shape ``y.shape[:axis] + P +
    y.shape[axis+1:]``.
    """

    def __init__(self, y, axis: int = 0, ends=None):
        y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
        N = y.shape[0] - 1
        d = _node_slopes(y, ends)
        self.N = N
        self.axis = axis
        self.knots = np.linspace(0.0, 1.0, N + 1)
        self._knot_list = self.knots.tolist()
        # per-interval power-form coefficients, shape (N, 4) + the other axes
        self.coeffs = np.stack(_hermite(y[:-1], y[1:], d[:-1], d[1:], N), axis=1)

    def __call__(self, t) -> np.ndarray:
        if isinstance(t, float):
            # a single position: find its interval in plain Python
            x, N = self._knot_list, self.N
            i = min(max(int(t * N), 0), N - 1)
            if i > 0 and t < x[i]:
                i -= 1
            elif i < N - 1 and t >= x[i + 1]:
                i += 1
            return _horner(self.coeffs[i], t - x[i])
        t = np.asarray(t, dtype=float)
        i, s = _locate(t, self.knots)
        c = np.moveaxis(self.coeffs[i], t.ndim, 0)
        out = _horner(c, s.reshape(s.shape + (1,) * (c.ndim - 1 - s.ndim)))
        return np.moveaxis(out, tuple(range(t.ndim)), tuple(range(self.axis, self.axis + t.ndim)))


def bicubic(data: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tensor-product not-a-knot spline through a square grid, at paired positions.

    ``data`` has shape (N+1, N+1) + F with ``data[i, j]`` at (i/N, j/N);
    returns ``x.shape + F``, the spline at each point (x, y).  The node
    values and y-slopes of each grid column are splined along x; the two
    columns around y then fix one cubic in y.
    """
    N = data.shape[0] - 1
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dy = np.moveaxis(_node_slopes(np.moveaxis(data, 1, 0), None), 0, 1)
    columns = Spline(np.stack([data, dy], axis=2))  # coeffs[i, :, j]: column j over x-step i
    i, u = _locate(x, columns.knots)
    j, v = _locate(y, columns.knots)
    u = u.reshape(u.shape + (1,) * (data.ndim - 1))
    (f0, d0), (f1, d1) = (
        np.moveaxis(_horner(np.moveaxis(columns.coeffs[i, :, j + k], x.ndim, 0), u), x.ndim, 0)
        for k in (0, 1)
    )
    return _horner(_hermite(f0, f1, d0, d1, N), v.reshape(v.shape + (1,) * (data.ndim - 2)))


# --- boundary-flattening reparametrization ------------------------------------

_TABLE_NODES = 8193


def _bump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(-1.0 / (si * (1.0 - si)))
    return out


@lru_cache(maxsize=1)
def _cutoff_table():
    s = np.linspace(0.0, 1.0, _TABLE_NODES)
    f = _bump(s)
    h = s[1] - s[0]
    # composite Simpson per step: the forward three-point formula on even
    # steps, the backward one on odd steps
    forward = h / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)
    backward = h / 3 * (5 * f[2:] / 4 + 2 * f[1:-1] - f[:-2] / 4)
    steps = np.empty(_TABLE_NODES - 1)
    steps[:-1:2] = forward[::2]
    steps[1::2] = backward[::2]
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    total = float(cum[-1])
    return Spline(cum / total, ends=(0.0, 0.0)), total


def cutoff(t) -> np.ndarray:
    """Smooth monotone [0,1] -> [0,1] map, flat to all orders at both ends."""
    spline, _ = _cutoff_table()
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return np.clip(spline(t), 0.0, 1.0)


def cutoff_prime(t) -> np.ndarray:
    _, total = _cutoff_table()
    return _bump(t) / total


def _weigh_own_axis(coeffs: np.ndarray, axis: int, weights: np.ndarray) -> None:
    """Multiply coefficient field ``axis`` in place by ``weights`` along its own time axis."""
    shape = [1] * (coeffs.ndim - 1)
    shape[axis] = weights.size
    coeffs[axis] *= weights.reshape(shape)


def reparam_cutoff(cube: Cube) -> Cube:
    """Reparametrize every axis by the cutoff map.

    The cube sweeps the same geometry but each coefficient field gains a
    factor that vanishes to all orders at the ends of its own axis, so a
    cube whose boundary data merely vanishes becomes one whose boundary
    data vanishes flatly.
    """
    n, N = cube.n, cube.N
    ts = np.linspace(0.0, 1.0, N + 1)
    pos = cutoff(ts)
    weights = cutoff_prime(ts)
    gamma, coeffs = cube.gamma, cube.coeffs
    for axis in range(n):
        gamma = Spline(gamma, axis=axis)(pos)
        coeffs = Spline(coeffs, axis=axis + 1)(pos)
        _weigh_own_axis(coeffs, axis, weights)
    return Cube(cube.algebroid, gamma, coeffs)


def concat(first: Cube, second: Cube, axis: int, tol: float = 1e-6) -> Cube:
    """Glue two cubes along one axis, traversing ``first`` then ``second``.

    The shared face (end of ``first``, start of ``second``) must agree
    within ``tol``.  Each half is slowed to a flat stop at the seam, so
    the result is again a morphism cube up to grid error, on the same
    node count as the inputs.
    """
    if first.algebroid != second.algebroid:
        raise ValueError("cannot concatenate cubes over different algebroids")
    if first.n != second.n or first.N != second.N:
        raise ValueError("cubes must have matching dimension and node count")
    n, N = first.n, first.N
    if not 0 <= axis < n:
        raise ValueError(f"axis must be in 0..{n - 1}")

    if n >= 2:
        f_end = face(first, axis, 1)
        f_start = face(second, axis, 0)
        gap = max(
            float(np.max(np.abs(f_end.gamma - f_start.gamma))),
            float(np.max(np.abs(f_end.coeffs - f_start.coeffs))),
        )
    else:
        gap = float(np.max(np.abs(np.take(first.gamma, N, axis=0) - np.take(second.gamma, 0, axis=0))))
    if gap > tol:
        raise ValueError(f"cubes are not composable along axis {axis}: face gap {gap:.3e}")

    ts = np.linspace(0.0, 1.0, N + 1)
    lo = ts <= 0.5
    pos_first = cutoff(2.0 * ts[lo])
    pos_second = cutoff(2.0 * ts[~lo] - 1.0)
    weights = np.where(lo, 2.0 * cutoff_prime(2.0 * ts), 2.0 * cutoff_prime(2.0 * ts - 1.0))

    def glue(arr_first, arr_second, at):
        halves = [Spline(arr_first, axis=at)(pos_first), Spline(arr_second, axis=at)(pos_second)]
        return np.concatenate(halves, axis=at)

    coeffs = glue(first.coeffs, second.coeffs, axis + 1)
    _weigh_own_axis(coeffs, axis, weights)
    return Cube(first.algebroid, glue(first.gamma, second.gamma, axis), coeffs)


# --- cubes from time-dependent section families --------------------------------


def rk4(f, y0, N: int) -> np.ndarray:
    """Integrate ``y' = f(t, y)`` over [0, 1] with N classical fourth-order steps.

    ``y0`` may be an array of any shape and ``f`` must return one of the
    same shape.  Each step calls ``f`` four times, in stage order, so the
    first call of step s is at node s itself.  Returns the N+1 node
    states stacked on a new leading axis.
    """
    h = 1.0 / N
    y = np.asarray(y0, dtype=float)
    out = np.empty((N + 1,) + y.shape)
    out[0] = y
    for s in range(N):
        t0 = s * h
        k1 = f(t0, y)
        k2 = f(t0 + h / 2, y + (h / 2) * k1)
        k3 = f(t0 + h / 2, y + (h / 2) * k2)
        k4 = f(t0 + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[s + 1] = y
    return out


def _coerce_sections(A: Algebroid, sections: Sequence) -> list[Section]:
    out = []
    for s in sections:
        sec = s if isinstance(s, Section) else Section.of(s)
        if len(sec) != A.rank:
            raise ValueError("each section needs one coefficient per frame element")
        out.append(sec)
    return out


def _time_names(chart: Chart, time_names: Sequence[str] | None, n: int) -> tuple[str, ...]:
    """Names of the n time variables, ``t1 .. tn`` by default.

    Raises ValueError for a wrong count, a name that is also a chart
    coordinate, or a repeated name.
    """
    names = tuple(time_names) if time_names is not None else tuple(f"t{i + 1}" for i in range(n))
    if len(names) != n:
        raise ValueError(f"need one time name per axis ({n}), got {len(names)}")
    clash = set(names) & set(chart.coords)
    if clash:
        raise ValueError(f"time names collide with chart coordinates: {sorted(clash)}")
    if len(set(names)) != len(names):
        raise ValueError("time names must be distinct")
    return names


def commutation_residual(
    A: Algebroid,
    sections: Sequence,
    n_points: int = 50,
    seed: int = 0,
    time_names: Sequence[str] | None = None,
) -> float:
    """Largest curvature of a time-dependent family over sampled (t, x).

    For each pair of axes this evaluates the difference between the
    crossed time derivatives and the pointwise bracket; a commuting
    family (the integrability hypothesis behind ``cube_from_sections``)
    gives zero.
    """
    secs = _coerce_sections(A, sections)
    n = len(secs)
    names = _time_names(A.chart, time_names, n)
    rng = np.random.default_rng(seed)
    pts = A.chart.sample(n_points, rng)
    tvals = rng.uniform(size=(n_points, n))
    env = A.chart.env(pts)
    env.update({names[i]: tvals[:, i] for i in range(n)})
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            kappa = Section(
                tuple(a.diff(names[j]) for a in secs[i].components)
            ) - Section(tuple(a.diff(names[i]) for a in secs[j].components)) - A.bracket(secs[i], secs[j])
            vals = eval_exprs(kappa.components, env, (n_points,))
            worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def cube_from_sections(
    A: Algebroid,
    sections: Sequence,
    basepoint,
    N: int,
    order: Sequence[int] | None = None,
    time_names: Sequence[str] | None = None,
) -> Cube:
    """Sweep a cube by flowing along a family of time-dependent sections.

    Axis k is integrated with a classical fourth-order step along its
    anchor image, compiled into one program, holding already-processed
    axes at their node values and the not-yet-processed ones at zero.
    For a commuting family the result is independent of ``order`` up to
    integration error.
    """
    secs = _coerce_sections(A, sections)
    n = len(secs)
    if n < 1:
        raise ValueError("need at least one section")
    names = _time_names(A.chart, time_names, n)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")

    m = A.chart.dim
    G = np.asarray(basepoint, dtype=float).reshape(m)  # processed axes (in order) + point

    for stage, k in enumerate(order):
        S = G.shape[:-1]
        B = int(np.prod(S, dtype=int)) if S else 1
        t_fixed = np.indices(S, dtype=float).reshape(stage, B) / N if stage else np.zeros((0, B))
        image = compile_exprs(A.anchor_of(secs[k]))

        def field(t: float, X: np.ndarray) -> np.ndarray:
            env = A.chart.env(X)
            for l in range(stage):
                env[names[order[l]]] = t_fixed[l]
            env[names[k]] = t
            for l in range(stage + 1, n):
                env[names[order[l]]] = 0.0
            return eval_exprs(image, env, (B,))

        try:
            X = rk4(field, G.reshape(B, m), N)
        except NonFiniteError as err:  # the flow overflowed on its way out of the chart
            raise ChartEscapeError(_ESCAPED) from err
        G = np.moveaxis(X.reshape((N + 1,) + S + (m,)), 0, -2)

    inv = tuple(int(i) for i in np.argsort(order))
    gamma = np.transpose(G, axes=inv + (n,))
    if not A.chart.contains(gamma, tol=1e-8):
        raise ChartEscapeError(_ESCAPED)

    times = grid_times(n, N)
    env = A.chart.env(gamma)
    env.update({names[i]: times[i] for i in range(n)})
    comps = [eval_exprs(secs[i].program, env, gamma.shape[:-1]) for i in range(n)]
    return Cube(A, gamma, np.stack(comps))


# --- cubes from explicit maps ---------------------------------------------------


def tangent_lift(
    chart: Chart,
    components: Sequence,
    n: int,
    N: int,
    time_names: Sequence[str] | None = None,
) -> Cube:
    """Velocity lift of an explicit map of the cube into the chart.

    ``components`` give the chart coordinates of the map as expressions
    in the time variables; the coefficient fields are the exact partial
    velocities, so the only morphism defect is the grid derivative error.
    """
    names = _time_names(chart, time_names, n)
    exprs = [as_expr(c) for c in components]
    if len(exprs) != chart.dim:
        raise ValueError("need one component per chart coordinate")
    for e in exprs:
        extra = e.variables() - set(names)
        if extra:
            raise ValueError(f"map components may only use time variables, found {sorted(extra)}")
    times = grid_times(n, N)
    env = {names[i]: times[i] for i in range(n)}
    base = times[0].shape if n else ()
    gamma = eval_exprs(tuple(exprs), env, base)
    comps = [
        eval_exprs(tuple(e.diff(names[i]) for e in exprs), env, base)
        for i in range(n)
    ]
    return Cube(make_tangent(chart), gamma, np.stack(comps))


def cotangent_lift(
    chart: Chart,
    bivector,
    components: Sequence,
    n: int,
    N: int,
    time_names: Sequence[str] | None = None,
) -> Cube:
    """Lift a map into a rank-2 chart through an invertible bivector.

    The velocity of the map is rewritten in the coordinate-differential
    frame of the cotangent algebroid of the bivector, which must be
    nowhere zero along the swept region.
    """
    if chart.dim != 2:
        raise ValueError("cotangent lifting is implemented for two-dimensional charts")
    tangent = tangent_lift(chart, components, n, N, time_names=time_names)
    A = make_cotangent_poisson(chart, bivector)
    entry = A.anchor[0][1]  # the single independent bivector entry
    pvals = eval_exprs(entry, chart.env(tangent.gamma), tangent.gamma.shape[:-1])
    if np.any(np.abs(pvals) < 1e-12):
        raise ValueError("bivector vanishes along the swept region; cannot invert")
    # a velocity (v0, v1) has coefficients (v1, -v0) / p in the differential frame, p the bivector entry
    return Cube(A, tangent.gamma, tangent.coeffs[..., ::-1] * (1.0, -1.0) / pvals[..., None])


def path_cube(
    A: Algebroid,
    gamma_components: Sequence,
    coeff_components: Sequence,
    N: int,
    time_name: str = "t1",
) -> Cube:
    """One-dimensional cube from explicit path and coefficient expressions."""
    _time_names(A.chart, (time_name,), 1)
    gexprs = [as_expr(c) for c in gamma_components]
    cexprs = [as_expr(c) for c in coeff_components]
    if len(gexprs) != A.chart.dim or len(cexprs) != A.rank:
        raise ValueError("component counts must match chart dimension and rank")
    ts = np.linspace(0.0, 1.0, N + 1)
    env = {time_name: ts}
    gamma = eval_exprs(tuple(gexprs), env, (N + 1,))
    genv = A.chart.env(gamma)
    genv[time_name] = ts
    coeffs = eval_exprs(tuple(cexprs), genv, (N + 1,))
    return Cube(A, gamma, coeffs[np.newaxis, ...])


# --- serialization ---------------------------------------------------------------


def save_cube(cube: Cube, path) -> None:
    """Write the cube grid as JSON with row-major nested lists."""
    payload = {
        "n": cube.n,
        "N": cube.N,
        "r": cube.algebroid.rank,
        "m": cube.algebroid.chart.dim,
        "basepoint": cube.basepoint.tolist(),
        "gamma": cube.gamma.tolist(),
        "a": cube.coeffs.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_cube(path, A: Algebroid) -> Cube:
    """Read a cube saved by :func:`save_cube` and bind it to an algebroid."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload["r"] != A.rank or payload["m"] != A.chart.dim:
        raise ValueError(
            f"cube file is rank {payload['r']} over a {payload['m']}-dimensional chart, "
            f"algebroid is rank {A.rank} over {A.chart.dim} coordinates"
        )
    gamma = np.asarray(payload["gamma"], dtype=float)
    coeffs = np.asarray(payload["a"], dtype=float)
    cube = Cube(A, gamma, coeffs)
    if cube.n != payload["n"] or cube.N != payload["N"]:
        raise ValueError("cube file header disagrees with its array shapes")
    return cube
