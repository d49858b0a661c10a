"""Charts, sections and brackets for finite-rank Lie algebroids.

An algebroid here is a coordinate-level object: a chart (named base
coordinates over a box), a rank, an anchor matrix of expressions, and
structure functions stored on frame pairs ``i < j``.  Everything else
(brackets of arbitrary sections, axiom checks, the standard examples)
is computed from those three ingredients.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .expr import ONE, ZERO, Bound, Const, Expr, Frozen, Program, add, as_expr, bind, compile_exprs, dot, evaluate, is_zero, mul, neg, np, sub, total, var

__all__ = [
    "Chart",
    "Section",
    "Algebroid",
    "AxiomWitness",
    "AxiomReport",
    "check_axioms",
    "point_chart",
    "product_chart",
    "time_names",
    "make_tangent",
    "make_lie_algebra",
    "make_cotangent_poisson",
    "make_jacobi_extension",
    "make_rep_extension",
    "make_explicit",
    "direct_sum",
    "eval_exprs",
    "fresh",
    "sampled_values",
    "so3_structure",
    "unit_draws",
    "unit_row",
]


class Coordinates(tuple):
    """One float64 array per chart coordinate together with their base shape, which an empty tuple could not show."""

    def __new__(cls, arrays, shape: tuple):
        self = super().__new__(cls, arrays)
        self.shape = shape
        return self


class Chart(Frozen):
    """Named coordinates over an axis-aligned box."""

    _names = ("coords", "box")

    def __init__(self, coords: tuple[str, ...], box: tuple[tuple[float, float], ...]):
        vars(self).update(coords=coords, box=box)
        if len(coords) != len(box):
            raise ValueError("one (lo, hi) pair per coordinate required")
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate names must be distinct")
        for name in coords:
            if not name.isidentifier():
                raise ValueError(f"bad coordinate name {name!r}")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError(f"empty coordinate range ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _coordinates(self, points) -> tuple[tuple[np.ndarray, ...], tuple]:
        """The coordinate arrays of ``points`` and their base shape.

        ``points`` is a tuple of one array per coordinate, whose base shape
        is their broadcast shape (a :class:`Coordinates` gives its own, so
        a chart without coordinates still has one), or an (..., dim) array,
        which is split into its last-axis slices and has the base shape
        ``points.shape[:-1]``.
        """
        dim = len(self.coords)
        if isinstance(points, tuple):
            if len(points) != dim:
                raise ValueError(f"expected {dim} coordinate arrays, not {len(points)}")
            if isinstance(points, Coordinates):
                return points, points.shape
            coords = tuple(np.asarray(p, dtype=float) for p in points)
            return coords, np.broadcast(*coords).shape
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (dim,):
            raise ValueError(f"expected trailing axis of length {dim}")
        return tuple([points[..., a] for a in range(dim)]), points.shape[:-1]

    def env(self, points) -> dict:
        """Environment mapping coordinate names to the coordinate arrays of ``points`` (see :meth:`_coordinates`)."""
        return dict(zip(self.coords, self._coordinates(points)[0]))

    def values(self, program, points, named: Mapping[str, object] | None = None, *, out=None, **fields) -> np.ndarray:
        """Run a Program, or nested Exprs, at points, with the inputs :meth:`bind` gives it.

        ``out`` goes to :func:`eval_exprs`.
        """
        env, base_shape = self._inputs(points, named, fields)
        return eval_exprs(program, env, base_shape, out=out)

    def bind(self, program, points, named: Mapping[str, object] | None = None, **fields) -> Bound:
        """Bind a Program, or nested Exprs, at points: every program at chart points gets its inputs here.

        ``points`` is a tuple of coordinate arrays or an (..., dim) array (see
        :meth:`_coordinates`); either way each coordinate binds to its own
        array, so a coordinate stored along fewer axes than the base shape
        (a broadcast) is read along those axes only.  ``named`` variables bind
        by name, and each field array to the :func:`fresh` variables of its
        tag and its axes past the base shape.  Float64 arrays are bound as
        views (see :class:`expr.Bound`), so a sweep binds its stage buffers
        once and runs the result at every stage.
        """
        return bind(program, *self._inputs(points, named, fields))

    def _inputs(self, points, named, fields: dict) -> tuple[dict, tuple]:
        coords, base_shape = self._coordinates(points)
        env = dict(zip(self.coords, coords))
        env.update(named or ())
        for tag, values in fields.items():
            env.update((name, values[index]) for name, index in _names(tag, values.shape[len(base_shape) :]))
        return env, base_shape

    def contains(self, points, tol: float = 0.0) -> bool:
        """Whether every point lies in the box widened by ``tol``; ``points`` as in :meth:`_coordinates`."""
        return all(
            lo - tol <= c.min() and c.max() <= hi + tol
            for c, (lo, hi) in zip(self._coordinates(points)[0], self.box)
            if c.size
        )

    def sample(self, n: int, rng) -> np.ndarray:
        """Uniform sample of n interior points, shape (n, dim).

        ``rng`` is a numpy ``Generator``, or an int seed of :func:`unit_draws`.
        """
        if self.dim == 0:
            return np.zeros((n, 0))
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        u = unit_draws(rng, (n, self.dim)) if isinstance(rng, int) else rng.uniform(size=(n, self.dim))
        # keep a small margin so derivative checks stay inside the box
        return lo + (0.01 + 0.98 * u) * (hi - lo)


def point_chart() -> Chart:
    """Zero-dimensional chart (a single point)."""
    return Chart(coords=(), box=())


def product_chart(a: Chart, b: Chart) -> Chart:
    if set(a.coords) & set(b.coords):
        raise ValueError("coordinate names must be disjoint for a product chart")
    return Chart(coords=a.coords + b.coords, box=a.box + b.box)


def time_names(chart: Chart, n: int) -> tuple[str, ...]:
    """Names ``t1 .. tn`` of the n time variables; ValueError if one is also a chart coordinate."""
    names = tuple(f"t{i + 1}" for i in range(n))
    clash = set(names) & set(chart.coords)
    if clash:
        raise ValueError(f"time names collide with chart coordinates: {sorted(clash)}")
    return names


def eval_exprs(exprs, env: Mapping[str, object], base_shape: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a nested sequence of Exprs, or its compiled Program, over an array environment.

    Returns one array of shape ``base_shape + nested_shape``; constants
    and point-independent entries are broadcast to the base shape.  A
    nested sequence is compiled on the fly, so callers that evaluate the
    same matrix repeatedly pass the Program their owner holds.  Given
    ``out`` (a float64 array of that shape, or a strided view into a
    larger buffer), the values are written there and ``out`` is returned;
    without it, a run over more than ``BLOCK`` points whose inputs are
    all broadcast along some axis returns a read-only broadcast, as
    :func:`expr.evaluate` says.
    """
    return np.asarray(evaluate(exprs, env, base_shape, out=out))


@lru_cache(maxsize=None)
def _names(tag: str, shape: tuple[int, ...]) -> tuple[tuple[str, tuple], ...]:
    """``(name, index)`` of the variable ``#<tag><i>_<j>...`` for each entry of a trailing block.

    Chart coordinates are identifiers, so these names cannot clash with them.
    """
    return tuple(("#" + tag + "_".join(map(str, i)), (Ellipsis,) + i) for i in np.ndindex(shape))


def fresh(tag: str, shape: tuple[int, ...]) -> np.ndarray:
    """Object array of the variables that :meth:`Chart.values` binds to a field ``tag`` of trailing shape ``shape``."""
    return np.array([var(name) for name, _ in _names(tag, shape)], dtype=object).reshape(shape)


def sampled_values(chart: Chart, families, n_points: int, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``n_points`` seeded interior points of a chart, and each family of Exprs evaluated there.

    Every sampled identity check and the anchor-kernel sample draw their
    points here, once, from :func:`unit_draws` (numpy's
    ``default_rng(seed).uniform`` stream, reproduced in the package); each
    family (a nested sequence of Exprs) is one :meth:`Chart.values` call,
    of shape (n_points,) + its nested shape.
    """
    pts = chart.sample(n_points, seed)
    return pts, [chart.values(exprs, pts) for exprs in families]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """numpy ``SeedSequence``'s 32-bit hashmix, whose constant steps by ``mult`` at each call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


@lru_cache(maxsize=None)
def unit_draws(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only array of numpy's ``default_rng(seed).uniform(size=shape)``, bit for bit, computed in the package.

    The seed goes through numpy's ``SeedSequence`` (pool size 4) to four
    64-bit words; those seed PCG64 (O'Neill 2014): a 128-bit LCG whose
    XSL-RR output ``x`` gives the draw ``(x >> 11) * 2**-53``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        x = (0xCA01F9DD * x - 0x4973F715 * hashmix(y)) & _M32
        return x ^ x >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], pool[src])
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], word)
    state = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool * 2))
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    inc = (i0 << 65 | i1 << 1 | 1) & _M128
    x, draws = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _M128, []
    for _ in range(math.prod(shape)):
        x = x * _PCG_MULT + inc & _M128
        word, rot = (x >> 64 ^ x) & _M64, x >> 122
        draws.append(((word >> rot | word << 64 - rot) & _M64) >> 11)
    out = np.array(draws, dtype=float).reshape(shape) * 2.0**-53
    out.flags.writeable = False
    return out


def unit_row(i: int, n: int) -> tuple[Expr, ...]:
    """``n`` constants, ONE at index ``i`` and ZERO elsewhere (all ZERO for ``i`` out of range)."""
    return tuple(ONE if k == i else ZERO for k in range(n))


def sup_norm(values: np.ndarray) -> float:
    """Largest absolute entry; 0 for an empty array."""
    return float(np.max(np.abs(values))) if values.size else 0.0


class Section(Frozen):
    """A frame-coefficient vector of expressions."""

    _names = ("components",)

    def __init__(self, components: tuple[Expr, ...]):
        vars(self).update(components=components)

    @classmethod
    def of(cls, data: Sequence) -> "Section":
        return cls(tuple(as_expr(c) for c in data))

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    @cached_property
    def program(self) -> Program:
        return compile_exprs(self.components)

    def values(self, chart: Chart, points: np.ndarray) -> np.ndarray:
        return chart.values(self.program, points)

    def __add__(self, other: "Section") -> "Section":
        return Section(tuple(add(a, b) for a, b in zip(self.components, other.components, strict=True)))

    def __sub__(self, other: "Section") -> "Section":
        return Section(tuple(sub(a, b) for a, b in zip(self.components, other.components, strict=True)))

    def scaled(self, f) -> "Section":
        f = as_expr(f)
        return Section(tuple(mul(f, c) for c in self.components))


def coerce_matrix(rows, n_rows: int, n_cols: int, what: str) -> tuple[tuple[Expr, ...], ...]:
    """Rows of expressions, checked to be ``n_rows`` x ``n_cols``; errors name ``what``."""
    out = tuple(tuple(as_expr(v) for v in row) for row in rows)
    if len(out) != n_rows or any(len(r) != n_cols for r in out):
        raise ValueError(f"{what} must be {n_rows} x {n_cols}")
    return out


def antisymmetric_program(entries: Mapping, n: int, width: int) -> Program:
    """Program for the tensor out[..., i, j, :] of shape (..., n, n, width) from vectors on pairs i < j.

    Each stored vector fills its (i, j) slot and its negative the (j, i)
    slot; absent pairs and the diagonal are zero.
    """
    cells = np.full((n, n, width), ZERO, dtype=object)
    for (i, j), vec in entries.items():
        cells[i, j] = vec
        cells[j, i] = [neg(c) for c in vec]
    return compile_exprs(cells)


def antisymmetric_entry(table: Mapping, i: int, j: int, width: int) -> tuple[Expr, ...]:
    """Vector on the pair (i, j) of a table stored on pairs i < j.

    Pairs below the diagonal are the negated transposed entry; the
    diagonal and absent pairs are zero.
    """
    if i == j:
        return (ZERO,) * width
    if i < j:
        return table.get((i, j), (ZERO,) * width)
    return tuple(neg(c) for c in table.get((j, i), (ZERO,) * width))


def pair_table(table: Mapping, n: int, width: int, what: str) -> dict[tuple[int, int], tuple]:
    """Check a pair table: ``width``-vectors of expressions keyed on pairs 0 <= i < j < n.

    Structure functions, twists, bivectors (as one-entry vectors) and
    curvature are all such tables.  Pairs whose vector is zero are
    dropped, so iteration stays sparse; errors name ``what``.
    """
    out: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for (i, j), vec in table.items():
        if not (0 <= i < j < n):
            raise ValueError(f"{what} key ({i}, {j}) must satisfy 0 <= i < j < {n}")
        comps = tuple(as_expr(v) for v in vec)
        if len(comps) != width:
            raise ValueError(f"{what} value for ({i}, {j}) must have {width} components")
        if not all(is_zero(c) for c in comps):
            out[(i, j)] = comps
    return out


def wedge(x, y, table: Mapping, width: int) -> tuple[Expr, ...]:
    """The ``width`` components of ``Σ_{p<q} (x_p y_q - x_q y_p) c_pq``, each pair's coefficient built once."""
    terms = [(sub(mul(x[p], y[q]), mul(x[q], y[p])), c) for (p, q), c in table.items()]
    return tuple(total(mul(w, c[l]) for w, c in terms if not is_zero(w)) for l in range(width))


class Algebroid(Frozen):
    """Anchored bracket data over a chart.

    ``anchor[i][a]`` is the a-th chart component of the anchor image of
    frame section i.  ``structure`` is a pair table (see
    :func:`pair_table`): ``structure[(i, j)]`` (for i < j) holds the frame
    bracket coefficients of [e_i, e_j]; pairs with i > j follow by
    antisymmetry and absent pairs are zero.
    """

    _names = ("chart", "rank", "anchor", "structure")

    def __init__(self, chart: Chart, rank: int, anchor: tuple[tuple[Expr, ...], ...],
                 structure: Mapping[tuple[int, int], tuple[Expr, ...]] | None = None):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(anchor) != rank or any(len(r) != chart.dim for r in anchor):
            raise ValueError("anchor must be rank x dim")
        structure = pair_table({} if structure is None else structure, rank, rank, "structure")
        vars(self).update(chart=chart, rank=rank, anchor=anchor, structure=structure)

    # -- frame access ----------------------------------------------------

    def frame(self, i: int) -> Section:
        if not 0 <= i < self.rank:
            raise IndexError(f"frame index {i} out of range for rank {self.rank}")
        return Section(unit_row(i, self.rank))

    def structure_vector(self, i: int, j: int) -> tuple[Expr, ...]:
        """Coefficients of the frame bracket of e_i and e_j (any i, j)."""
        return antisymmetric_entry(self.structure, i, j, self.rank)

    # -- symbolic operations ----------------------------------------------

    def anchor_of(self, X: Section) -> tuple[Expr, ...]:
        """Chart components of the image vector field of X."""
        self._check_section(X)
        return tuple(dot(X.components, (row[a] for row in self.anchor)) for a in range(self.chart.dim))

    def anchor_apply(self, X: Section, f: Expr) -> Expr:
        """Directional derivative of a chart function along the image of X."""
        f = as_expr(f)
        return dot(self.anchor_of(X), (f.diff(name) for name in self.chart.coords))

    def bracket(self, X: Section, Y: Section) -> Section:
        """Bracket of two sections in frame coefficients; ρ(X)(Y) is built only toward a Y that is not constant."""
        along_X, along_Y = self._along(X, Y), self._along(Y, X)
        wedged = wedge(X, Y, self.structure, self.rank)
        return Section(tuple(add(w, sub(a, b)) for w, a, b in zip(wedged, along_X, along_Y)))

    def _along(self, X: Section, Y: Section) -> tuple[Expr, ...]:
        """ρ(X)(Y_k) for each k, with X's length checked; all ZERO when Y's components are Const."""
        self._check_section(X)
        if all(isinstance(c, Const) for c in Y.components):
            return (ZERO,) * self.rank
        rho = self.anchor_of(X)
        return tuple(dot(rho, (c.diff(x) for x in self.chart.coords)) for c in Y.components)

    # -- vectorized evaluation ---------------------------------------------

    @cached_property
    def anchor_program(self) -> Program:
        return compile_exprs(self.anchor)

    @cached_property
    def structure_program(self) -> Program:
        return antisymmetric_program(self.structure, self.rank, self.rank)

    @cached_property
    def _anchor_fibrations(self) -> dict:
        """The :func:`fibration.anchor_fibration` of each splitting, ``n_samples`` and ``seed`` built over this algebroid."""
        return {}

    def anchor_values(self, points) -> np.ndarray:
        """Anchor matrix at points (see :meth:`Chart.values`), shape (..., rank, dim)."""
        if self.rank == 0:
            return np.zeros(self.chart._coordinates(points)[1] + (0, self.chart.dim))
        return self.chart.values(self.anchor_program, points)

    def structure_values(self, points) -> np.ndarray:
        """Full antisymmetric structure tensor c[..., i, j, k] at points."""
        return self.chart.values(self.structure_program, points)

    def _check_section(self, X: Section):
        if len(X) != self.rank:
            raise ValueError(f"section has {len(X)} components, algebroid rank is {self.rank}")


# --- axiom checking --------------------------------------------------------


class AxiomWitness(Frozen):
    """Location and value of the worst residual found; ``kind`` is "jacobi" or "anchor"."""

    _names = ("kind", "indices", "point", "residual", "values")

    def __init__(self, kind: str, indices: tuple[int, ...], point: tuple[float, ...], residual: float,
                 values: tuple[float, ...]):
        vars(self).update(kind=kind, indices=indices, point=point, residual=residual, values=values)

    def describe(self) -> str:
        if self.kind == "jacobi":
            i, j, k = self.indices
            what = f"jacobi defect on frame triple ({i}, {j}, {k})"
        else:
            i, j = self.indices
            what = f"anchor/bracket mismatch on frame pair ({i}, {j})"
        return f"{what} at point {self.point}: |residual| = {self.residual:.3e}"


class AxiomReport(Frozen):
    _names = ("jacobi_residual", "anchor_residual", "tol", "n_points", "seed", "witness")

    def __init__(self, jacobi_residual: float, anchor_residual: float, tol: float, n_points: int, seed: int,
                 witness: AxiomWitness | None):
        vars(self).update(jacobi_residual=jacobi_residual, anchor_residual=anchor_residual, tol=tol,
                          n_points=n_points, seed=seed, witness=witness)

    @property
    def passed(self) -> bool:
        return max(self.jacobi_residual, self.anchor_residual) < self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}: jacobi residual {self.jacobi_residual:.3e}, "
            f"anchor residual {self.anchor_residual:.3e} "
            f"(tol {self.tol:.1e}, {self.n_points} points)"
        ]
        if not self.passed and self.witness is not None:
            lines.append("  worst offender: " + self.witness.describe())
        return "\n".join(lines)


def check_axioms(A: Algebroid, n_points: int = 200, seed: int = 42, tol: float = 1e-8) -> AxiomReport:
    """Sample the Jacobi identity and anchor compatibility over the chart.

    Both residuals are exact symbolic expressions; all Jacobi triples form
    one program and all anchor pairs another, run at the ``n_points``
    points of :func:`sampled_values`.  The report carries the worst
    offender as a witness (triple or pair, point, and residual
    coefficients): the first largest residual in triple- or pair-major
    order, a triple winning a tie with a pair.
    """
    e, rho, coords = [A.frame(i) for i in range(A.rank)], A.anchor, A.chart.coords
    triples = list(itertools.combinations(range(A.rank), 3))
    pairs = list(itertools.combinations(range(A.rank), 2))

    def cyclic(i: int, j: int, k: int) -> Section:  # [[e_i, e_j], e_k], the inner bracket read off the table
        return A.bracket(Section(A.structure_vector(i, j)), e[k])

    jacobi = [(cyclic(i, j, k) + cyclic(j, k, i) + cyclic(k, i, j)).components for i, j, k in triples]

    grad = [[[f.diff(x) for x in coords] for f in row] for row in rho]  # grad[i][a][b]: ∂ρ(e_i)^a/∂x^b

    def anchor_defect(i: int, j: int, a: int) -> Expr:
        ri, rj, di, dj = rho[i], rho[j], grad[i][a], grad[j][a]
        rhs = total(sub(mul(ri[b], dj[b]), mul(rj[b], di[b])) for b in range(len(coords)))
        return sub(dot(A.structure_vector(i, j), (row[a] for row in rho)), rhs)

    anchor = [[anchor_defect(i, j, a) for a in range(len(coords))] for i, j in pairs]
    best: AxiomWitness | None = None
    sups = []
    pts, values = sampled_values(A.chart, (jacobi, anchor), n_points, seed)  # (point, identity, component)
    for kind, indices, vals in (("jacobi", triples, values[0]), ("anchor", pairs, values[1])):
        if not vals.size:
            sups.append(0.0)
            continue
        norms = np.max(np.abs(vals), axis=-1).T
        f, at = np.unravel_index(np.argmax(norms), norms.shape)
        sups.append(float(norms[f, at]))
        if best is None or sups[-1] > best.residual:
            point, values = tuple(map(float, pts[at])), tuple(map(float, vals[at, f]))
            best = AxiomWitness(kind, indices[f], point, sups[-1], values)
    return AxiomReport(
        jacobi_residual=sups[0],
        anchor_residual=sups[1],
        tol=tol,
        n_points=n_points,
        seed=seed,
        witness=best,
    )


# --- constructors -----------------------------------------------------------


def make_tangent(chart: Chart) -> Algebroid:
    """Tangent algebroid: identity anchor, vanishing structure functions."""
    m = chart.dim
    anchor = tuple(unit_row(i, m) for i in range(m))
    return Algebroid(chart=chart, rank=m, anchor=anchor, structure={})

def make_lie_algebra(rank: int, structure: Mapping, chart: Chart | None = None) -> Algebroid:
    """Lie algebra as an algebroid: zero anchor, constant-ready structure.

    The structure functions may still depend on chart coordinates; with
    the default point chart they must be constants.
    """
    chart = chart if chart is not None else point_chart()
    anchor = tuple((ZERO,) * chart.dim for _ in range(rank))
    return Algebroid(chart=chart, rank=rank, anchor=anchor, structure=structure)


def so3_structure(scale: Expr | float = 1.0) -> dict:
    """Rotation-algebra structure constants, optionally rescaled."""
    s = as_expr(scale)
    z = ZERO
    return {
        (0, 1): (z, z, s),
        (0, 2): (z, neg(s), z),
        (1, 2): (s, z, z),
    }


def _bivector_table(chart: Chart, bivector) -> dict[tuple[int, int], tuple[Expr, ...]]:
    """A bivector, ``{(a, b): entry}`` or a dim x dim matrix, as a table of one-entry vectors."""
    m = chart.dim
    if not isinstance(bivector, Mapping):
        rows = coerce_matrix(bivector, m, m, "bivector matrix")
        bivector = {(a, b): rows[a][b] for a, b in itertools.combinations(range(m), 2)}
    return pair_table({pair: (entry,) for pair, entry in bivector.items()}, m, 1, "bivector")


def make_cotangent_poisson(chart: Chart, bivector) -> Algebroid:
    """Cotangent algebroid of a Poisson bivector.

    Frame section a is the coordinate differential of chart coordinate a.
    The anchor maps it to the Hamiltonian-type vector field with
    components ``pi[a][b]`` and the frame brackets are the coordinate
    differentials of the bivector entries.
    """
    m = chart.dim
    pi = _bivector_table(chart, bivector)
    anchor = tuple(tuple(antisymmetric_entry(pi, a, b, 1)[0] for b in range(m)) for a in range(m))
    structure = {pair: tuple(entry.diff(c) for c in chart.coords) for pair, (entry,) in pi.items()}
    return Algebroid(chart=chart, rank=m, anchor=anchor, structure=structure)


def jacobi_extension_args(chart: Chart, bivector) -> tuple:
    """The Jacobi extension as arguments of :func:`make_rep_extension`.

    It is the rep extension of the cotangent Poisson algebroid by a line
    with the zero action, twisted by the bivector read as a table of
    one-entry vectors.
    """
    pi = _bivector_table(chart, bivector)
    return make_cotangent_poisson(chart, bivector), 1, (((ZERO,),),) * chart.dim, pi


def make_jacobi_extension(chart: Chart, bivector) -> Algebroid:
    """Rank dim+1 central extension of the cotangent Poisson algebroid.

    Frame 0 spans the added line (anchor zero, central); the remaining
    frames are the coordinate differentials.  The bracket of two
    differentials gains the bivector value in the central slot, which is
    what makes the extension curvature visible to transgression.
    """
    return make_rep_extension(*jacobi_extension_args(chart, bivector))


def make_rep_extension(base: Algebroid, fiber_dim: int, action, twist=None) -> Algebroid:
    """Extension of ``base`` by a rank ``fiber_dim`` abelian kernel.

    ``action[i]`` is the fiber_dim x fiber_dim matrix of the covariant
    action along base frame i (columns index the source kernel frame).
    ``twist`` optionally maps base frame pairs (i, j) with i < j to a
    kernel-valued curvature coefficient vector.  Kernel frames come
    first; horizontal copies of the base frames follow.
    """
    d, rB = fiber_dim, base.rank
    mats = [coerce_matrix(M, d, d, "action matrix") for M in action]
    if len(mats) != rB:
        raise ValueError(f"need one action matrix per base frame ({rB})")
    twist = pair_table(twist or {}, rB, d, "twist")

    structure: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for s in range(d):
        for i in range(rB):
            # the horizontal frame acts on the kernel frame: the bracket
            # [u_s, h_i] carries minus the action of frame i on u_s
            col = tuple(neg(mats[i][t][s]) for t in range(d))
            structure[(s, d + i)] = col + (ZERO,) * rB
    for i, j in itertools.combinations(range(rB), 2):
        kernel_part = antisymmetric_entry(twist, i, j, d)
        structure[(d + i, d + j)] = kernel_part + antisymmetric_entry(base.structure, i, j, rB)
    anchor = ((ZERO,) * base.chart.dim,) * d + base.anchor
    return Algebroid(chart=base.chart, rank=d + rB, anchor=anchor, structure=structure)


def make_explicit(chart: Chart, rank: int, anchor, structure: Mapping | None = None) -> Algebroid:
    """Build an algebroid from raw anchor rows and structure functions."""
    return Algebroid(
        chart=chart,
        rank=rank,
        anchor=coerce_matrix(anchor, rank, chart.dim, "anchor"),
        structure=structure or {},
    )


def direct_sum(A: Algebroid, B: Algebroid, shared_chart: bool = False) -> Algebroid:
    """Fiberwise direct sum; brackets between the two summands vanish.

    With ``shared_chart`` both factors must live on the same chart and the
    anchors add on the common base; otherwise the result lives on the
    product chart and each anchor acts on its own block of coordinates.
    """
    if shared_chart:
        if A.chart != B.chart:
            raise ValueError("shared_chart requires identical charts")
        chart = A.chart
        pad_a = lambda row: row
        pad_b = lambda row: row
    else:
        chart = product_chart(A.chart, B.chart)
        pad_a = lambda row: row + (ZERO,) * B.chart.dim
        pad_b = lambda row: (ZERO,) * A.chart.dim + row
    rank = A.rank + B.rank
    anchor = tuple(pad_a(A.anchor[i]) for i in range(A.rank)) + tuple(pad_b(B.anchor[j]) for j in range(B.rank))
    structure: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for (i, j), vec in A.structure.items():
        structure[(i, j)] = tuple(vec) + (ZERO,) * B.rank
    for (i, j), vec in B.structure.items():
        structure[(A.rank + i, A.rank + j)] = (ZERO,) * A.rank + tuple(vec)
    return Algebroid(chart=chart, rank=rank, anchor=anchor, structure=structure)
