"""Grid cubes over an algebroid chart: construction, calculus and surgery.

A cube of dimension n is a uniform (N+1)-node grid on [0, 1]^n carrying
its base points, one array over the grid per chart coordinate, and, for
each time axis, a field of frame coefficients.  The morphism residual
measures how far the data is from an algebroid morphism out of the
tangent algebroid of the cube; all higher operations (faces,
degeneracies, reversal, reparametrization and concatenation) preserve
that property up to grid error.

Reparametrization has one layer: the closed-form step :func:`cutoff`,
one spline loop shared by :func:`resample` and :func:`reparam_cutoff`,
and :func:`seam`, the two halves of a glued axis, shared by
:func:`concat` and the path-decomposition witness.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Algebroid, Chart, Coordinates, Section, coerce_matrix, eval_exprs, make_cotangent_poisson, make_tangent,
    product_chart, sampled_values, sup_norm, time_names,
)
from .expr import DomainError, NonFiniteError, Program, as_expr, compact_part, compile_exprs, split_exprs, sub

__all__ = [
    "Cube",
    "ChartEscapeError",
    "MorphismResidual",
    "morphism_residual",
    "sphere_defect",
    "homotopy_defect",
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
    "frozen",
    "time_names",
    "save_cube",
    "load_cube",
]


class ChartEscapeError(ValueError):
    """A constructed base path left the chart box."""


_ESCAPED = "flow left the chart box; shrink the time box or enlarge the chart"


@lru_cache(maxsize=8)
def axis_times(n: int, N: int) -> tuple[np.ndarray, ...]:
    """Node times of each time axis, on that axis only: the i-th array has shape (N+1,) + (1,)*(n-1-i).

    The n arrays broadcast to the (N+1,)*n grid, so a program binds them
    without a full mesh and runs a time-only component on N+1 points.
    They are read-only views of one array, built once per (n, N).
    """
    t = frozen(np.arange(N + 1) / N)
    return tuple(t.reshape((N + 1,) + (1,) * (n - 1 - i)) for i in range(n))


def grid_times(n: int, N: int) -> list[np.ndarray]:
    """Node-value meshes for each time axis, each of shape (N+1,)*n: :func:`axis_times` broadcast (read-only)."""
    return [np.broadcast_to(t, (N + 1,) * n) for t in axis_times(n, N)]


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array that no one else holds read-only, so that :class:`Cube` adopts it without a copy.

    Views of it taken afterwards are read-only too; a view that only
    permutes its axes (``frozen(buf).transpose((1, 2, 0))``, say) is
    adopted as well, so a builder may store the array in any axis order.
    """
    a.flags.writeable = False
    return a


def _owned(a: np.ndarray) -> bool:
    """Whether ``a`` is a read-only array that owns its memory, or such an array with its axes permuted.

    A permuted view starts at its base's first byte and has the base's
    (stride, length) pairs in another order, axes of length 1 aside (their
    stride moves no byte, so one cut from a broadcast passes); a reversed
    or sliced view fails that test.
    """
    if a.flags.writeable:
        return False
    if a.flags.owndata:
        return True
    base = a.base
    return (
        type(base) is np.ndarray
        and base.flags.owndata
        and not base.flags.writeable
        and a.ctypes.data == base.ctypes.data
        and _long_axes(a) == _long_axes(base)
    )


def _long_axes(a: np.ndarray) -> list:
    return sorted((step, size) for step, size in zip(a.strides, a.shape) if size > 1)


def _adopt(a) -> tuple[np.ndarray, np.ndarray]:
    """The read-only float64 array a :class:`Cube` holds for ``a``, and its :func:`expr.compact_part`.

    A compact part that :func:`_owned` accepts is held as it stands, in its
    own axis order, and ``a`` with it; anything else is copied.
    """
    if type(a) is not np.ndarray:
        a = frozen(np.array(a, dtype=float))
    part = compact_part(a)
    if part.dtype == np.float64 and _owned(part):
        return a, part
    part = frozen(np.array(part, dtype=float))
    return (part if part.shape == a.shape else np.broadcast_to(part, a.shape)), part


@dataclass(frozen=True, eq=False)
class Cube:
    """Sampled cube: base points and per-axis frame coefficients.

    ``points`` holds one array of shape (N+1,)*n per chart coordinate,
    as a :class:`core.Coordinates` of that grid shape, and is the only
    form the points are stored in; ``coeffs`` has shape (n,) + (N+1,)*n +
    (rank,) with ``coeffs[i]`` the coefficient field of time axis i.
    The points may be given as a tuple, or as one (grid..., dim) array,
    which is adopted whole and split into its last-axis slices; another
    cube's ``points`` are held as they are.  Any array may be a
    broadcast (``np.broadcast_to``): its compact part, one slice along
    each axis of stride 0 and length > 1, is what is stored and checked,
    so a coordinate that reads one time axis is stored along that axis
    only.  A float64 compact part that owns its memory and is already
    read-only, or is such an array with its axes permuted, is adopted as
    it stands (see :func:`frozen`), so a broadcast of such an array is
    held without a copy; anything else is copied and the copy made
    read-only, then broadcast back.  Arrays must be finite; points
    outside the chart box raise :class:`ChartEscapeError`.
    """

    algebroid: Algebroid
    points: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        c, c_part = _adopt(self.coeffs)
        n = c.shape[0] if c.ndim > 0 else 0
        if isinstance(self.points, Coordinates):  # another cube's points, held as they are
            points, parts = self.points, tuple(map(compact_part, self.points))
        elif isinstance(self.points, tuple):
            adopted = [_adopt(p) for p in self.points]
            points, parts = tuple(p for p, _ in adopted), tuple(part for _, part in adopted)
        else:
            g, parts = _adopt(self.points)
            points = tuple(g[..., a] for a in range(g.shape[-1])) if g.ndim else (g,)
        grids = {p.shape for p in points}
        if n < 1 or c.ndim != n + 2 or any(len(grid) != n for grid in grids):
            raise ValueError("gamma must be grid + point, coeffs must be (axes,) + grid + frame")
        axis_sizes = set(c.shape[1:-1]).union(*grids)
        if len(axis_sizes) != 1:
            raise ValueError("all grid axes must have the same node count")
        if axis_sizes.pop() < 3:
            raise ValueError("need at least three nodes per axis")
        if len(points) != self.algebroid.chart.dim:
            raise ValueError("gamma points do not match the chart dimension")
        if c.shape[-1] != self.algebroid.rank:
            raise ValueError("coefficient fields do not match the algebroid rank")
        if not np.isfinite(c_part).all():
            raise ValueError("coefficient fields hold NaN or inf")
        if not self.algebroid.chart.contains(parts, tol=1e-8):  # the compact parts: a tuple, or one array
            raise ChartEscapeError("cube base points leave the chart box")
        object.__setattr__(self, "points", Coordinates(points, c.shape[1:-1]))
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def N(self) -> int:
        return self.coeffs.shape[1] - 1

    def point(self, node: tuple) -> np.ndarray:
        """The chart point at grid node ``node`` (one index per axis), as a new (dim,) array."""
        return np.array([p[node] for p in self.points])

    @property
    def basepoint(self) -> np.ndarray:
        return self.point((0,) * self.n)

    @property
    def gamma(self) -> np.ndarray:
        """The points stacked into a new read-only (grid..., dim) array, coordinate-major: for the splines and :func:`save_cube`."""
        g = np.empty((len(self.points),) + self.points.shape)
        for a, p in enumerate(self.points):
            g[a] = p
        return frozen(g).transpose((*range(1, g.ndim), 0))

    @cached_property
    def half(self) -> Cube:
        """The cube on the half grid: :func:`coarsen` on even N, :func:`resample` to N // 2 on odd N.

        Built once, so every half-grid rerun on this immutable cube shares it.
        """
        return coarsen(self) if self.N % 2 == 0 else resample(self, self.N // 2)


def grid_difference(f: np.ndarray, h: float, axis, out: np.ndarray | None = None, add: bool = False) -> np.ndarray:
    """Second-order difference of node values ``f``, ``h`` apart along ``axis``: bitwise ``np.gradient`` there with ``edge_order=2``.

    numpy's formulas, term for term: (f[i+1] - f[i-1]) / (2h) inside,
    (-1.5/h) f[0] + (2/h) f[1] + (-0.5/h) f[2] at the start and its mirror
    at the end.  Written into ``out`` (a new array by default), or added to
    it with ``add``; ``out`` must not overlap ``f``.  For a sequence of
    axes, the differences along each in turn, on a new leading axis.
    """
    if not isinstance(axis, int):
        out = np.empty((len(axis),) + f.shape) if out is None else out
        for a, into in zip(axis, out):
            grid_difference(f, h, a, into, add)
        return out
    if f.shape[axis] < 3:
        raise ValueError(f"a second-order difference needs at least 3 nodes, not {f.shape[axis]}")
    out = np.empty(f.shape) if out is None else out
    f, d = f.swapaxes(0, axis), out.swapaxes(0, axis)
    inside = (f[2:] - f[:-2]) / (2.0 * h)
    start = (-1.5 / h) * f[:1] + (2.0 / h) * f[1:2] + (-0.5 / h) * f[2:3]
    end = (0.5 / h) * f[-3:-2] + (-2.0 / h) * f[-2:-1] + (1.5 / h) * f[-1:]
    for into, value in ((d[1:-1], inside), (d[:1], start), (d[-1:], end)):
        into[...] = into + value if add else value
    return out


class MorphismResidual(NamedTuple):
    structure: float
    base: float


def morphism_residual(cube: Cube) -> MorphismResidual:
    """Sup-norm defect of the morphism equations on the grid.

    The base part compares each grid derivative of each coordinate with
    the anchor image of the matching coefficient field; the structure part compares
    the antisymmetrized grid derivatives of the coefficient fields with
    their pointwise bracket.  Derivatives are second-order differences,
    so exact data shows an O(N^-2) residual.
    """
    n, N = cube.n, cube.N
    h = 1.0 / N
    A = cube.algebroid
    rho = A.anchor_values(cube.points)
    base = 0.0
    for i in range(n):
        img = np.einsum("...p,...pm->...m", cube.coeffs[i], rho)
        for a, p in enumerate(cube.points):
            base = max(base, sup_norm(grid_difference(p, h, i) - img[..., a]))
    structure = 0.0
    if n >= 2:
        cvals = A.structure_values(cube.points)
        for i in range(n):
            for j in range(i + 1, n):
                ci, cj = cube.coeffs[i], cube.coeffs[j]
                pairs = ci[..., :, None] * cj[..., None, :]  # bitwise the products of the three-operand einsum, which is slower
                res = grid_difference(ci, h, j) - grid_difference(cj, h, i) - np.einsum("...pq,...pql->...l", pairs, cvals)
                structure = max(structure, sup_norm(res))
    return MorphismResidual(structure=structure, base=base)


# --- boundary classification -------------------------------------------------


def sphere_defect(cube: Cube) -> float:
    """How far the cube is from having a fully collapsed boundary.

    Measures every coefficient field on the boundary slabs of the other
    axes, plus the spread of the points over the whole boundary relative
    to the basepoint.
    """
    n, N = cube.n, cube.N
    worst = 0.0
    for k in range(n):
        for l in range(n):
            if l == k:
                continue
            for end in (0, N):
                worst = max(worst, sup_norm(np.take(cube.coeffs[k], end, axis=l)))
    for p, start in zip(cube.points, cube.basepoint):
        for l in range(n):
            for end in (0, N):
                worst = max(worst, sup_norm(np.take(p, end, axis=l) - start))
    return worst


def homotopy_defect(cube: Cube) -> float:
    """Boundary defect of the last axis read as a deformation parameter."""
    n, N = cube.n, cube.N
    if n < 2:
        raise ValueError("a homotopy needs at least two axes")
    worst = 0.0
    for k in range(n - 1):
        for end in (0, N):
            worst = max(worst, sup_norm(np.take(cube.coeffs[n - 1], end, axis=k)))
    return worst


# --- elementary surgery -------------------------------------------------------


def face(cube: Cube, axis: int, end: int) -> Cube:
    """Restrict to the slab ``t_axis = end`` and drop that axis."""
    if cube.n < 2:
        raise ValueError("faces of a 1-cube are points; compare endpoints instead")
    if end not in (0, 1):
        raise ValueError("end must be 0 or 1")
    idx = 0 if end == 0 else cube.N
    points = tuple(frozen(np.take(p, idx, axis=axis)) for p in cube.points)
    coeffs = np.delete(np.take(cube.coeffs, idx, axis=axis + 1), axis, axis=0)
    return Cube(cube.algebroid, points, frozen(coeffs))


def degeneracy(cube: Cube, axis: int) -> Cube:
    """Insert a constant time axis at position ``axis`` with zero coefficients."""
    n, N = cube.n, cube.N
    if not 0 <= axis <= n:
        raise ValueError(f"axis must be in 0..{n}")
    points = tuple(frozen(np.repeat(np.expand_dims(p, axis), N + 1, axis=axis)) for p in cube.points)
    coeffs = np.repeat(np.expand_dims(cube.coeffs, axis + 1), N + 1, axis=axis + 1)
    return Cube(cube.algebroid, points, frozen(np.insert(coeffs, axis, 0.0, axis=0)))


def reverse(cube: Cube, axis: int) -> Cube:
    """Run one time axis backwards; its coefficient field flips sign."""
    if not 0 <= axis < cube.n:
        raise ValueError(f"axis must be in 0..{cube.n - 1}")
    coeffs = np.flip(cube.coeffs, axis=axis + 1).copy()
    coeffs[axis] *= -1.0
    return Cube(cube.algebroid, tuple(np.flip(p, axis=axis) for p in cube.points), coeffs)


def coarsen(cube: Cube) -> Cube:
    """Drop every other grid node along each time axis (requires even N).

    The surviving nodes sit at the same times, so the result is the same map
    sampled on the half-resolution grid.  Comparing a quantity computed at N
    and at N/2 gives a cheap Richardson-style error estimate.
    """
    if cube.N % 2 != 0:
        raise ValueError("coarsen needs an even number of steps")
    sl = (slice(None, None, 2),) * cube.n
    return Cube(cube.algebroid, tuple(p[sl] for p in cube.points), cube.coeffs[(slice(None),) + sl])


def resample(cube: Cube, M: int) -> Cube:
    """Sample the same map on a uniform grid with M steps per axis.

    The parametrization is unchanged, so coefficient fields carry no
    reparametrization factor; node values come from cubic splines through
    the existing grid.  On even N with M = N/2 this agrees with
    :func:`coarsen` up to spline evaluation at the knots.
    """
    if M < 3:
        raise ValueError("resampling needs at least three steps")
    return _respline(cube, _grid_location(M, cube.N), np.ones(M + 1))


# --- cubic splines on uniform knots ---------------------------------------------

# Rows per block of the cached not-a-knot inverse, and columns read either side of a block.
_REACH = 32


@lru_cache(maxsize=8)
def _slope_solver(N: int) -> tuple:
    """The inverse of the not-a-knot slope system on N+1 uniform knots, as read-only ``(rows, cols, block)`` triples.

    The system depends on N alone (de Boor, A Practical Guide to Splines,
    2001), and its inverse falls off like (2 - sqrt 3)^|i - j| (Unser, IEEE
    SPM 16(6), 1999), below 2e-18 by _REACH places off the diagonal.  So
    ``block``, ``inverse[rows, cols]``, is read off the inverse of the
    system cut to ``cols``, which differs from the whole one's by as
    little, and agrees with a direct solve to rounding.
    """
    ends, blocks = ((1.0, 1.0) if N == 2 else (1.0, 2.0)), []
    for start in range(0, N + 1, _REACH):
        rows = slice(start, min(start + _REACH, N + 1))
        cols = slice(max(start - _REACH, 0), min(rows.stop + _REACH, N + 1))
        n = cols.stop - cols.start
        A = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)  # the system's rows and columns ``cols``
        if cols.start == 0:
            A[0, :2] = ends
        if cols.stop == N + 1:
            A[-1, :-3:-1] = ends
        block = np.linalg.inv(A)[start - cols.start : rows.stop - cols.start]
        blocks.append((rows, cols, frozen(block.copy())))
    return tuple(blocks)


def _steps(y: np.ndarray) -> int:
    """The number N of knot steps of node values along axis 0; ValueError unless N >= 2."""
    if len(y) < 3:
        raise ValueError(f"a not-a-knot spline needs at least 3 nodes, not {len(y)}")
    return len(y) - 1


def _node_slopes(y: np.ndarray) -> np.ndarray:
    """Node slopes along axis 0 of the not-a-knot cubic spline through ``y`` on uniform knots of [0, 1], times the step 1/N.

    One matrix product per block of :func:`_slope_solver`.  With three
    nodes the spline is the single parabola through them.
    """
    N = _steps(y)
    m = y[1:] - y[:-1]
    rhs = np.empty(y.shape)
    rhs[1:-1] = 3 * (m[:-1] + m[1:])
    if N == 2:
        rhs[0], rhs[-1] = 2 * m[0], 2 * m[-1]
    else:
        rhs[0] = (5 * m[0] + m[1]) / 2
        rhs[-1] = (m[-2] + 5 * m[-1]) / 2
    rhs = rhs.reshape(N + 1, rhs[0].size)
    d = np.empty(rhs.shape)
    for rows, cols, block in _slope_solver(N):
        np.matmul(block, rhs[cols], out=d[rows])
    return d.reshape(y.shape)


class Location(NamedTuple):
    """Positions located on the N steps of [0, 1]: see :func:`_locate`."""

    steps: int
    index: np.ndarray
    weights: tuple


def _locate(t: np.ndarray, N: int) -> Location:
    """Step index i of each position on the N steps of [0, 1] (extrapolating past the ends), and its Hermite weights.

    ``weights``, ``(a0, a1, b0, b1)``, weigh the values at knots i and i+1
    and the slopes there, in units of the step, at the offset
    ``u = N t - i``.
    """
    i = np.clip(np.floor(t * N), 0, N - 1)
    u = (t - i / N) * N
    v = 1.0 - u
    uu, vv = u * u, v * v
    return Location(N, i.astype(np.intp), ((1.0 + 2.0 * u) * vv, (3.0 - 2.0 * u) * uu, u * vv, -v * uu))


def _shared(location: Location) -> Location:
    """``location`` with its arrays made read-only, for a cache to hand to every caller."""
    return Location(location.steps, frozen(location.index), tuple(map(frozen, location.weights)))


@lru_cache(maxsize=8)
def _grid_location(M: int, N: int) -> Location:
    """The M+1 uniform positions j/M located on N steps, once per (M, N): :func:`resample`'s positions."""
    return _shared(_locate(np.linspace(0.0, 1.0, M + 1), N))


class Spline:
    """Cubic spline through node values on the uniform knots of [0, 1].

    ``y`` holds N+1 node values along ``axis`` (0 <= axis < y.ndim),
    N >= 2; the other axes are interpolated independently.  The end
    conditions are not-a-knot.  The spline keeps ``y`` (not a copy) and its node slopes, solved once; an
    evaluation weighs the two knots around each position (see
    :func:`_locate`).  Positions of any shape P, a scalar included, return
    shape ``y.shape[:axis] + P + y.shape[axis+1:]``.  :meth:`at` takes
    positions already located on the spline's N steps, such as the
    cached :func:`stage_location`; ``spline(t)`` is
    ``spline.at(_locate(t, N))``.
    """

    def __init__(self, y, axis: int = 0):
        y = np.asarray(y, dtype=float)
        y = y.transpose((axis, *range(axis), *range(axis + 1, y.ndim)))  # the spline axis first
        self.axis, self.values, self.slopes = axis, y, _node_slopes(y)

    def __call__(self, t) -> np.ndarray:
        return self.at(_locate(np.asarray(t, dtype=float), len(self.values) - 1))

    def at(self, location: Location) -> np.ndarray:
        """The spline at positions located on its N steps; ValueError for a location on another number of steps."""
        if location.steps != len(self.values) - 1:
            raise ValueError(f"positions located on {location.steps} steps, not the spline's {len(self.values) - 1}")
        i, ndim = location.index, location.index.ndim
        a0, a1, b0, b1 = (c.reshape(c.shape + (1,) * (self.values.ndim - 1)) for c in location.weights)
        y, d, j = self.values, self.slopes, i + 1
        out = a0 * y.take(i, 0) + a1 * y.take(j, 0) + b0 * d.take(i, 0) + b1 * d.take(j, 0)
        # the positions' axes to the spline's place
        rest = tuple(range(ndim, out.ndim))
        return out.transpose(rest[: self.axis] + tuple(range(ndim)) + rest[self.axis :])


def bicubic(data, x: np.ndarray, y: np.ndarray):
    """Tensor-product not-a-knot spline through a square grid, at paired positions.

    ``data`` has shape (N+1, N+1) + F, N >= 2, with ``data[i, j]`` at
    (i/N, j/N); returns ``x.shape + F``, the spline at each point (x, y).
    On each cell it is the bicubic Hermite patch of the values, x-, y- and
    cross slopes at the four corners (those of the splines along the grid
    lines): 16 terms, each weighted by one Hermite weight per axis.  For a
    list of grids, each with its own F, the positions are located and
    weighted once and a list is returned, each entry bitwise that of its
    own call.
    """
    fields = data if isinstance(data, list) else [data]
    N = _steps(fields[0])
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    (_, i, wx), (_, j, wy) = _locate(x.ravel(), N), _locate(y.ravel(), N)
    k = i * (N + 1) + j
    corners = (k, k + 1, k + N + 1, k + N + 2)  # (i, j), (i, j+1), (i+1, j), (i+1, j+1)
    # per corner and position, the weights of the corner's value, x-slope, y-slope and cross slope
    weights = np.empty((4, len(k), 4))
    for w, (a, b) in zip(weights, itertools.product((0, 1), repeat=2)):
        for s, (q, p) in enumerate(itertools.product((0, 2), repeat=2)):
            np.multiply(wx[p + a], wy[q + b], out=w[:, s])
    out = []
    for f in fields:
        fy = _node_slopes(f.swapaxes(0, 1)).swapaxes(0, 1)
        nodes = np.empty((N + 1, N + 1, 4) + f.shape[2:])
        nodes[:, :, 0], nodes[:, :, 1], nodes[:, :, 2], nodes[:, :, 3] = f, _node_slopes(f), fy, _node_slopes(fy)
        nodes = nodes.reshape((N + 1) ** 2, 4, f[0, 0].size)
        # one corner at a time, so that no temporary holds all 16 terms
        value = sum(np.einsum("pq,pqf->pf", w, nodes.take(c, 0)) for w, c in zip(weights, corners))
        out.append(value.reshape(x.shape + f.shape[2:]))
    return out if isinstance(data, list) else out[0]


# --- boundary-flattening reparametrization ------------------------------------


def cutoff(t) -> np.ndarray:
    """Smooth monotone step [0, 1] -> [0, 1], flat to all orders at both ends.

    The closed form f(t) / (f(t) + f(1 - t)) with f(t) = exp(-1/t),
    evaluated as 1 / (1 + exp(1/t - 1/(1 - t))) on t clipped to [0, 1].
    It is exactly 0, 1/2 and 1 at 0, 1/2 and 1, below 1e-40 on [0, 0.01],
    and exactly 0 below t = 1/710, where the exponential overflows.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / t - 1.0 / (1.0 - t)))


def cutoff_prime(t) -> np.ndarray:
    """Exact derivative g (1 - g) (1/t^2 + 1/(1 - t)^2) of ``g = cutoff(t)``.

    Exactly 0 wherever g is 0 or 1, outside (0, 1) included, so the
    rate's overflow near the ends never meets a zero factor.
    """
    t = np.asarray(t, dtype=float)
    g = cutoff(t)
    w = g * (1.0 - g)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rate = 1.0 / t**2 + 1.0 / (1.0 - t) ** 2
        return np.where(w > 0.0, w * rate, 0.0)


def seam(N: int):
    """Positions and speeds of the two halves of an axis of N+1 nodes, glued at t = 1/2.

    Returns ``(first, second, first_speed, second_speed)``: ``cutoff(2t)``
    and ``cutoff(2t - 1)`` at every node t, and their t-derivatives.  Off
    its own half, ``first`` is exactly 1, ``second`` exactly 0 and each
    speed exactly 0, so each half comes to a flat stop at the seam.
    """
    ts = np.linspace(0.0, 1.0, N + 1)
    a, b = 2.0 * ts, 2.0 * ts - 1.0
    return cutoff(a), cutoff(b), 2.0 * cutoff_prime(a), 2.0 * cutoff_prime(b)


def _weigh_own_axis(coeffs: np.ndarray, axis: int, weights: np.ndarray) -> None:
    """Multiply coefficient field ``axis`` in place by ``weights`` along its own time axis."""
    shape = [1] * (coeffs.ndim - 1)
    shape[axis] = weights.size
    coeffs[axis] *= weights.reshape(shape)


def _respline(cube: Cube, pos: Location, speed: np.ndarray) -> Cube:
    """Spline every axis of the cube at ``pos``, located on its N steps; weigh each coefficient field by ``speed`` along its own axis."""
    gamma, coeffs = cube.gamma, cube.coeffs
    for axis in range(cube.n):
        gamma = Spline(gamma, axis=axis).at(pos)
        coeffs = Spline(coeffs, axis=axis + 1).at(pos)
        _weigh_own_axis(coeffs, axis, speed)
    return Cube(cube.algebroid, gamma, coeffs)


def reparam_cutoff(cube: Cube) -> Cube:
    """Reparametrize every axis by the cutoff map.

    The cube sweeps the same geometry but each coefficient field gains a
    factor that vanishes to all orders at the ends of its own axis, so a
    cube whose boundary data merely vanishes becomes one whose boundary
    data vanishes flatly.
    """
    ts = np.linspace(0.0, 1.0, cube.N + 1)
    return _respline(cube, _locate(cutoff(ts), cube.N), cutoff_prime(ts))


CONCAT_TOL = 1e-6  # largest gap between the faces concat glues


def concat(first: Cube, second: Cube, axis: int) -> Cube:
    """Glue two cubes along one axis, traversing ``first`` then ``second``.

    The shared face (end of ``first``, start of ``second``) must agree
    within ``CONCAT_TOL``: its points, and every coefficient field but
    the glued axis's own.  Each half is slowed to a flat stop at the
    seam, so the result is again a morphism cube up to grid error, on
    the same node count as the inputs.
    """
    if first.algebroid != second.algebroid:
        raise ValueError("cannot concatenate cubes over different algebroids")
    if first.n != second.n or first.N != second.N:
        raise ValueError("cubes must have matching dimension and node count")
    n, N = first.n, first.N
    if not 0 <= axis < n:
        raise ValueError(f"axis must be in 0..{n - 1}")

    def slabs(cube: Cube, at: int):
        return *(np.take(p, at, axis) for p in cube.points), np.delete(np.take(cube.coeffs, at, axis + 1), axis, axis=0)

    gap = max(sup_norm(a - b) for a, b in zip(slabs(first, N), slabs(second, 0)))
    if gap > CONCAT_TOL:
        raise ValueError(f"cubes are not composable along axis {axis}: face gap {gap:.3e}")

    pos_first, pos_second, speed_first, speed_second = seam(N)
    k = N // 2 + 1  # the nodes t <= 1/2 run through the first cube

    def glue(arr_first, arr_second, at):
        halves = [Spline(arr_first, axis=at)(pos_first[:k]), Spline(arr_second, axis=at)(pos_second[k:])]
        return np.concatenate(halves, axis=at)

    coeffs = glue(first.coeffs, second.coeffs, axis + 1)
    # each speed is exactly 0 off its own half, so the sum picks the half's own
    _weigh_own_axis(coeffs, axis, speed_first + speed_second)
    return Cube(first.algebroid, frozen(glue(first.gamma, second.gamma, axis)), frozen(coeffs))


# --- cubes from time-dependent section families --------------------------------


@lru_cache(maxsize=8)
def half_steps(N: int) -> np.ndarray:
    """The 2N+1 stage times of :func:`rk4`: the nodes and midpoints of N steps on [0, 1], read-only, built once per N."""
    return frozen(np.linspace(0.0, 1.0, 2 * N + 1))


@lru_cache(maxsize=8)
def stage_location(N: int) -> Location:
    """``half_steps(N)`` located on N steps, once per N: every spline sampled at the stage times reads it (:meth:`Spline.at`)."""
    return _shared(_locate(half_steps(N), N))


def rk4(f, y0, N: int, stage: np.ndarray | None = None) -> np.ndarray:
    """Integrate ``y' = f(t, y)`` over [0, 1] with N classical fourth-order steps.

    ``f(j, y)`` gets the stage time as its index j in ``half_steps(N)``:
    step s calls it at j = 2s, 2s+1, 2s+1 and 2s+2, in stage order, so a
    driver sampled once at those times is read by index.  ``y`` is always
    ``stage``, one float64 buffer of the shape of ``y0`` (a new one by
    default) that each stage state is written into, so a caller can bind
    its program to views of it once.  ``f`` must not keep ``y`` or write
    to it, and returns the rate in the shape of ``y0`` (it may reuse a
    buffer).  Returns the N+1 node states on a new leading axis.  The
    ufuncs run in the textbook formula's order, into preallocated arrays,
    so the result is bitwise that of the out-of-place step.

    Checks, one rule for every sweep (flow, lift and transport), stepped
    here, level by level or by step matrices: the rate cells that read no
    state (:func:`expr.split_exprs`; transport's rate matrix, whose table
    run is checked) are checked per op once per sweep, on every
    stage-time value, in one table run before step 1.  If the other rows
    read each other in no cycle, :func:`rk4_levels` integrates them
    without a stage loop: each level's cells run once per stage kind,
    checked per op on the stage states of every step at once (a sweep
    with no other cells is one level, :func:`rk4_table`).  A sweep that
    is linear in the rows it steps (transport, and lift fields that read
    each other in a cycle, above a level pass over the rows they read)
    takes no stage loop either: its rate matrix runs over all stage
    times at once (a lift's once per stage kind) and :func:`rk4_linear`
    steps by the step matrices it makes.  Only rows in or above a cycle
    that is not linear (a lift's points that read each other) run per op
    on every stage, here.  Every sweep holds one
    ``np.errstate(all="ignore")`` and raises NonFiniteError at its first
    non-finite node state.  Every rate entry enters the node with weight
    h/6 or h/3, and inf - inf is NaN, so ``f`` returns every row its
    programs compute and runs them unchecked.  A domain error on a
    non-finite stage state (a log of -inf, say) is raised as
    NonFiniteError too; a leveled or linear sweep that meets a domain
    error is stepped here, so that it raises in this order.
    """
    h = 1.0 / N
    y0 = np.asarray(y0, dtype=float)
    out = np.empty((N + 1,) + y0.shape)
    out[0] = y0
    if stage is None:
        stage = np.empty(y0.shape)
    acc = np.empty(y0.shape)  # k1 + 2 k2 + 2 k3 + k4, summed as the rates come
    with np.errstate(all="ignore"):
        try:
            for s in range(N):
                y, j = out[s], 2 * s
                np.copyto(stage, y)
                k = f(j, stage)  # k1
                np.copyto(acc, k)
                for dj, dt in ((1, h / 2), (1, h / 2), (2, h)):
                    np.multiply(k, dt, out=stage)  # the next stage state y + dt k
                    np.add(y, stage, out=stage)
                    k = f(j + dj, stage)  # k2, k3, k4
                    if dj == 1:  # k2 and k3 count twice: 2 k goes through the stage buffer, free until the next call
                        np.add(acc, np.multiply(k, 2.0, out=stage), out=acc)
                    else:
                        np.add(acc, k, out=acc)
                np.multiply(acc, h / 6, out=acc)
                node = out[s + 1, ...]  # a view even for a 0-d state
                np.add(y, acc, out=node)
                if not np.isfinite(node).all():
                    _rescale_step(f, y, j, h, stage, acc, node)
                    if not np.isfinite(node).all():
                        raise NonFiniteError(f"non-finite state at step {s + 1} of {N}")
        except DomainError as err:
            if isinstance(err, NonFiniteError) or np.isfinite(stage).all():
                raise
            raise NonFiniteError(f"non-finite stage state in step {s + 1} of {N}") from err
    return out


def _scaled_increment(k1, k2, k3, k4, h: float) -> np.ndarray:
    """A step's increment with each rate scaled before the sum: ((h/6 k1 + h/3 k2) + h/3 k3) + h/6 k4.

    :func:`rk4`'s sum k1 + 2 k2 + 2 k3 + k4 overflows where six times a
    rate passes the largest float, although the node it adds to may not;
    so wherever that sum's increment is not finite, every stepper adds
    this one instead.  A finite increment is never replaced, so a sweep
    that stays finite keeps the textbook formula's bits.
    """
    return ((k1 * (h / 6) + k2 * (h / 3)) + k3 * (h / 3)) + k4 * (h / 6)


def _rescale_step(f, y: np.ndarray, j: int, h: float, stage: np.ndarray, inc: np.ndarray, node: np.ndarray) -> None:
    """Where :func:`rk4`'s increment ``inc`` of the step from ``y`` is not finite, set ``node`` to y plus :func:`_scaled_increment`.

    The step's four stages run again, on the same stage states, so the
    rates are the ones its first run summed.
    """
    bad = ~np.isfinite(inc)
    if not bad.any():
        return
    rates = []
    for q, dt in enumerate((0.0, h / 2, h / 2, h)):
        if q:
            np.multiply(rates[-1], dt, out=stage)
            np.add(y, stage, out=stage)
        else:
            np.copyto(stage, y)
        rates.append(np.array(f(j + (q + 1) // 2, stage)))
    np.add(y, _scaled_increment(*rates, h), out=node, where=bad)


def stage_kinds(a: np.ndarray) -> tuple:
    """``a`` over the 2N+1 stage times of :func:`half_steps` at each step's k1, k2, k3 and k4: times 2s, 2s+1, 2s+1 and 2s+2.

    Views on the leading axis; the k2 and k3 entries are one object.
    """
    k23 = a[1::2]
    return a[0:-1:2], k23, k23, a[2::2]


def _rk4_nodes(k1, k2, k3, k4, out: np.ndarray) -> np.ndarray:
    """Fill ``out[1:]`` with :func:`rk4`'s nodes from ``out[0]`` and the rates at the four stages of each of the N steps.

    Each rate has the shape of ``out[1:]`` (k3 may be k2).  The increments
    are summed in ``rk4``'s order, ((k1 + 2 k2) + 2 k3) + k4 times h/6, and
    ``np.add.accumulate`` adds them onto the nodes in sequence, so the
    nodes are bitwise ``rk4``'s.  If the last node is not finite, an
    increment that is not finite is replaced by :func:`_scaled_increment`,
    as ``rk4`` replaces it, and the nodes are accumulated again.
    """
    _increments(k1, k2, k3, k4, out[1:])
    np.add.accumulate(out, axis=0, out=out)
    if not np.isfinite(out[-1]).all():  # an increment or a node is not finite: the error path
        inc = _increments(k1, k2, k3, k4, np.empty(out[1:].shape))
        np.copyto(inc, _scaled_increment(k1, k2, k3, k4, 1.0 / len(inc)), where=~np.isfinite(inc))
        out[1:] = inc
        np.add.accumulate(out, axis=0, out=out)
    return out


def _increments(k1, k2, k3, k4, inc: np.ndarray) -> np.ndarray:
    """Write (((k1 + 2 k2) + 2 k3) + k4) h/6 of every step into ``inc``, in :func:`rk4`'s order, and return it."""
    twice = np.multiply(k2, 2.0)
    np.add(k1, twice, out=inc)
    np.add(inc, twice if k3 is k2 else np.multiply(k3, 2.0, out=twice), out=inc)
    return np.multiply(np.add(inc, k4, out=inc), 1.0 / len(inc) / 6, out=inc)


def _check_nodes(out: np.ndarray, N: int) -> np.ndarray:
    """``out``, unless a node state past the first is non-finite: then :func:`rk4`'s NonFiniteError at the first."""
    if not np.isfinite(out[1:]).all():  # then find the first bad node
        bad = np.flatnonzero(~np.isfinite(out[1:]).all(axis=tuple(range(1, out.ndim))))
        raise NonFiniteError(f"non-finite state at step {bad[0] + 1} of {N}")
    return out


def rk4_table(table: np.ndarray, y0, N: int) -> np.ndarray:
    """:func:`rk4` of a rate that reads no state, given at all 2N+1 stage times as ``table``.

    Bitwise ``rk4(lambda j, _: table[j], y0, N)``, its error included: the
    level-0 case of :func:`rk4_levels`, one quadrature over the table.
    """
    out = np.empty((N + 1,) + np.shape(y0))
    out[0] = y0
    with np.errstate(all="ignore"):
        _rk4_nodes(*stage_kinds(table), out)
    return _check_nodes(out, N)


def rk4_levels(rates, levels: Sequence, y0, N: int, stages: dict) -> np.ndarray:
    """:func:`rk4` of a rate whose rows read only the states of rows on lower levels: one quadrature per level.

    ``levels`` lists the rows (indices on the leading axis of ``y0``) level
    by level.  ``rates(L)`` returns the rates of level L's rows, in that
    order, each as its k1, k2, k3 and k4 over all N steps (arrays of shape
    (N,) + ``y0.shape[1:]``; see :func:`stage_kinds`).  It is called once
    per level, in order, when the levels below are integrated and each
    ``stages[r]`` (of shape (4, N) + ``y0.shape[1:]``, for the rows r that
    a level reads) holds row r's state at every step's four stages: y,
    y + k1 h/2, y + k2 h/2 and y + k3 h.  So a caller binds each level's
    program to those buffers once.

    Bitwise ``rk4`` of the same rate, its NonFiniteError included: each
    row's nodes are :func:`rk4_table`'s arithmetic, each stage state is
    ``rk4``'s, and the first non-finite node over all rows is reported.
    A domain error of ``rates`` propagates as raised; ``rk4`` might have
    stopped at an earlier stage, so a caller that must raise as ``rk4``
    does steps the sweep again with it.
    """
    h = 1.0 / N
    out = np.empty((N + 1,) + np.shape(y0))
    out[0] = y0
    with np.errstate(all="ignore"):
        for L, rows in enumerate(levels):
            for r, k in zip(rows, rates(L), strict=True):
                y = _rk4_nodes(*k, out[:, r])[:-1]
                if r in stages:
                    S = stages[r]
                    np.copyto(S[0], y)
                    for s, kq, dt in zip(S[1:], k, (h / 2, h / 2, h)):
                        np.add(y, np.multiply(kq, dt, out=s), out=s)
    return _check_nodes(out, N)


def rk4_linear(B: Sequence, c: Sequence | None, y0, N: int) -> np.ndarray:
    """:func:`rk4` of a linear rate ``y' = B(t) y + c(t)``, one step matrix per step instead of four stages.

    ``B`` and ``c`` are given at each step's four stage kinds (see
    :func:`stage_kinds`), of shapes (N,) + lines + (r, r) and (N,) + lines +
    (r, cols); ``c`` may be None (a zero c), and ``y0`` has shape lines +
    (r, cols).  Every step maps y to P y + q.  ``[P | q]`` is one RK4 step
    of X' = B X + [0 | c] from X = [I | 0], taken for all steps and lines
    at once, three batched matrix products, which is

        P = I + h/6 (B1 + 2 B2 + 2 B3 + B4) + h²/6 (B2 B1 + B3 B2 + B4 B3)
            + h³/12 (B3 B2 B1 + B4 B3 B2) + h⁴/24 B4 B3 B2 B1

    and q the same sum without the I and with each term's rightmost B_s
    replaced by c_s.  Then N batched products give the nodes.  In exact
    arithmetic this is ``rk4``; it rounds in another order, so it agrees
    with ``rk4`` to rounding, not bitwise.  Raises ``rk4``'s NonFiniteError
    at the first non-finite node.
    """
    h = 1.0 / N
    y0 = np.asarray(y0, dtype=float)
    r, m = y0.shape[-2], 0 if c is None else y0.shape[-1]
    eye = np.eye(r, r + m)  # X = [I | 0]
    with np.errstate(all="ignore"):
        k = np.concatenate((B[0],) if c is None else (B[0], c[0]), axis=-1)  # k1 = B1 X + [0 | c1]
        acc = k.copy()  # k1 + 2 k2 + 2 k3 + k4
        for q, dt in ((1, h / 2), (2, h / 2), (3, h)):
            k *= dt
            k = np.matmul(B[q], np.add(k, eye, out=k))
            if c is not None:
                k[..., r:] += c[q]
            acc += k
            if q < 3:  # k2 and k3 count twice
                acc += k
        step = np.add(np.multiply(acc, h / 6, out=acc), eye, out=acc)  # [P | q] of every step
        # the nodes stacked on I: [y_{n+1}; I] = [P | q] [y_n; I]
        out = np.empty((N + 1,) + y0.shape[:-2] + (r + m, y0.shape[-1]))
        out[..., r:, :] = np.eye(m, y0.shape[-1])
        out[0, ..., :r, :] = y0
        for n in range(N):
            np.matmul(step[n], out[n], out=out[n + 1, ..., :r, :])
    return _check_nodes(out[..., :r, :], N)


def _coerce_sections(A: Algebroid, sections: Sequence) -> list[Section]:
    return [Section(row) for row in coerce_matrix(sections, len(sections), A.rank, "sections")]


COMMUTATION_POINTS, COMMUTATION_SEED = 50, 0  # the sample commutation_residual draws


def commutation_residual(A: Algebroid, sections: Sequence) -> float:
    """Largest curvature of a family depending on times ``t1 .. tn`` over sampled (x, t).

    For each pair of axes this evaluates the difference between the
    crossed time derivatives and the pointwise bracket; a commuting
    family (the integrability hypothesis behind ``cube_from_sections``)
    gives zero.  All pairs form one program, run at the
    ``COMMUTATION_POINTS`` points of :func:`core.sampled_values` on the
    product of the chart and the time box [0, 1]^n, so the times are
    sampled in [0.01, 0.99].
    """
    secs = _coerce_sections(A, sections)
    names = time_names(A.chart, len(secs))
    kappa = [
        [sub(sub(a.diff(tj), b.diff(ti)), c) for a, b, c in zip(si, sj, A.bracket(si, sj))]
        for (ti, si), (tj, sj) in itertools.combinations(zip(names, secs), 2)
    ]
    chart = product_chart(A.chart, Chart(names, ((0.0, 1.0),) * len(names)))
    return sup_norm(sampled_values(chart, [kappa], COMMUTATION_POINTS, COMMUTATION_SEED)[1][0])


def cube_from_sections(
    A: Algebroid,
    sections: Sequence,
    basepoint,
    N: int,
    order: Sequence[int] | None = None,
) -> Cube:
    """Sweep a cube by flowing along a family of sections depending on times ``t1 .. tn``.

    Axis k is integrated with a classical fourth-order step along its
    anchor image, holding already-processed axes at their node values
    and the not-yet-processed ones at zero.  The image cells that read no
    coordinate are one run over all stage times into a table; each stage
    copies its slice into one rate buffer and runs the rest, bound once
    to the RK4 stage buffer and to a 0-d time that it sets, unchecked
    under :func:`rk4` (or, if nothing is left, :func:`rk4_table` runs).
    For a commuting family the result is independent of ``order`` up to
    integration error.
    """
    secs = _coerce_sections(A, sections)
    n = len(secs)
    if n < 1:
        raise ValueError("need at least one section")
    names = time_names(A.chart, n)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")

    m = A.chart.dim
    G = np.asarray(basepoint, dtype=float).reshape(m)  # processed axes (in order) + point

    for stage, k in enumerate(order):
        S = G.shape[:-1]
        B = int(np.prod(S, dtype=int)) if S else 1
        t_fixed = np.indices(S, dtype=float).reshape(stage, B) / N if stage else np.zeros((0, B))
        held = {names[order[l]]: t_fixed[l] if l < stage else 0.0 for l in range(n) if l != stage}
        X, t, rates = np.empty((B, m)), np.empty(()), np.empty((B, m))
        free, table_program, stage_program = split_exprs(A.anchor_of(secs[k]), set(A.chart.coords))
        table = np.empty((2 * N + 1, B, m))
        ts = np.arange(2 * N + 1) / (2 * N)  # j / (2N), as the stages set it; linspace differs in the last bit at some j
        with np.errstate(all="ignore"):  # unchecked, like every stage
            # the table binds no point: the broadcast only gives it its shape
            over_times = np.broadcast_to(X, table.shape)
            A.chart.bind(table_program, over_times, {**held, names[k]: ts[:, None]}).run(table, checked=False)
        image = A.chart.bind(stage_program, X, {**held, names[k]: t})

        def field(j: int, _) -> np.ndarray:
            np.copyto(rates, table[j])
            t[()] = ts[j]
            return image.run(rates, checked=False)

        try:
            X = rk4_table(table, G.reshape(B, m), N) if free.all() else rk4(field, G.reshape(B, m), N, X)
        except NonFiniteError as err:  # the flow overflowed on its way out of the chart
            raise ChartEscapeError(_ESCAPED) from err
        G = X.reshape((N + 1,) + S + (m,)).transpose((*range(1, stage + 1), 0, stage + 1))

    inv = tuple(int(i) for i in np.argsort(order))
    gamma = np.transpose(G, axes=inv + (n,))
    if not A.chart.contains(gamma, tol=1e-8):
        raise ChartEscapeError(_ESCAPED)

    times = dict(zip(names, axis_times(n, N)))
    coeffs = np.empty((n,) + gamma.shape[:-1] + (A.rank,))
    for sec, field in zip(secs, coeffs):
        A.chart.values(sec.program, gamma, times, out=field)
    return Cube(A, gamma, frozen(coeffs))


# --- cubes from explicit maps ---------------------------------------------------


def tangent_lift(
    chart: Chart,
    components: Sequence,
    n: int,
    N: int,
) -> Cube:
    """Velocity lift of an explicit map of the cube into the chart.

    ``components`` give the chart coordinates of the map as expressions
    in the time variables ``t1 .. tn``; the coefficient fields are the
    exact partial velocities, so the only morphism defect is the grid
    derivative error.  Each coordinate is one program and all n x dim
    velocities are another; each runs over the time axes it loads and
    the cube holds a broadcast of its buffer over the grid, so a
    coordinate that reads one time variable stores N+1 numbers and an
    affine map stores n x dim velocities.  The chart-box check and every
    program run at the points read those buffers along the same axes.
    """
    names = time_names(chart, n)
    exprs = [as_expr(c) for c in components]
    if len(exprs) != chart.dim:
        raise ValueError("need one component per chart coordinate")
    for e in exprs:
        extra = e.variables() - set(names)
        if extra:
            raise ValueError(f"map components may only use time variables, found {sorted(extra)}")
    env = dict(zip(names, axis_times(n, N)))
    grid = (N + 1,) * n

    def loaded(program: Program) -> tuple:
        return np.broadcast_shapes((1,) * n, *(env[name].shape for _, name in program.loads))

    def spread(a: np.ndarray, shape: tuple) -> np.ndarray:
        return frozen(a) if a.shape == shape else np.broadcast_to(frozen(a), shape)

    points = tuple(spread(eval_exprs(p, env, loaded(p)), grid) for p in map(compile_exprs, exprs))
    velocity = compile_exprs([[e.diff(t) for e in exprs] for t in names])
    coeffs = np.empty((n,) + loaded(velocity) + (chart.dim,))
    eval_exprs(velocity, env, loaded(velocity), out=coeffs.transpose((*range(1, n + 1), 0, n + 1)))
    return Cube(make_tangent(chart), points, spread(coeffs, (n,) + grid + (chart.dim,)))


def cotangent_lift(
    chart: Chart,
    bivector,
    components: Sequence,
    n: int,
    N: int,
) -> Cube:
    """Lift a map into a rank-2 chart through an invertible bivector.

    The velocity of the map is rewritten in the coordinate-differential
    frame of the cotangent algebroid of the bivector, which must be
    nowhere zero along the swept region.
    """
    if chart.dim != 2:
        raise ValueError("cotangent lifting is implemented for two-dimensional charts")
    tangent = tangent_lift(chart, components, n, N)
    A = make_cotangent_poisson(chart, bivector)
    entry = A.anchor[0][1]  # the single independent bivector entry
    pvals = chart.values(entry, tangent.points)
    if np.any(np.abs(pvals) < 1e-12):
        raise ValueError("bivector vanishes along the swept region; cannot invert")
    # a velocity (v0, v1) has coefficients (v1, -v0) / p in the differential frame, p the bivector entry
    return Cube(A, tangent.points, frozen(tangent.coeffs[..., ::-1] * (1.0, -1.0) / pvals[..., None]))


def path_cube(
    A: Algebroid,
    gamma_components: Sequence,
    coeff_components: Sequence,
    N: int,
) -> Cube:
    """One-dimensional cube from explicit path and coefficient expressions in ``t1``."""
    (time_name,) = time_names(A.chart, 1)
    gexprs = [as_expr(c) for c in gamma_components]
    cexprs = [as_expr(c) for c in coeff_components]
    if len(gexprs) != A.chart.dim or len(cexprs) != A.rank:
        raise ValueError("component counts must match chart dimension and rank")
    times = {time_name: np.linspace(0.0, 1.0, N + 1)}
    gamma = eval_exprs(tuple(gexprs), times, (N + 1,))
    coeffs = A.chart.values(tuple(cexprs), gamma, times)
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
    if not isinstance(payload, dict) or not {"n", "N", "r", "m", "gamma", "a"} <= payload.keys():
        raise ValueError("cube file must hold an object with keys n, N, r, m, gamma and a")
    if payload["r"] != A.rank or payload["m"] != A.chart.dim:
        raise ValueError(
            f"cube file is rank {payload['r']} over a {payload['m']}-dimensional chart, "
            f"algebroid is rank {A.rank} over {A.chart.dim} coordinates"
        )
    try:
        gamma = np.asarray(payload["gamma"], dtype=float)
        coeffs = np.asarray(payload["a"], dtype=float)
    except TypeError as err:
        raise ValueError(f"cube file gamma and a must be nested lists of numbers ({err})") from None
    cube = Cube(A, gamma, coeffs)
    if cube.n != payload["n"] or cube.N != payload["N"]:
        raise ValueError("cube file header disagrees with its array shapes")
    return cube
