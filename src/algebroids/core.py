"""Charts, sections and brackets for finite-rank Lie algebroids.

An algebroid here is a coordinate-level object: a chart (named base
coordinates over a box), a rank, an anchor matrix of expressions, and
structure functions stored on frame pairs ``i < j``.  Everything else
(brackets of arbitrary sections, axiom checks, the standard examples)
is computed from those three ingredients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import ONE, ZERO, Expr, Program, add, as_expr, compile_exprs, evaluate, is_zero, mul, neg, sub

__all__ = [
    "Chart",
    "Section",
    "Algebroid",
    "AxiomWitness",
    "AxiomReport",
    "check_axioms",
    "point_chart",
    "product_chart",
    "make_tangent",
    "make_lie_algebra",
    "make_cotangent_poisson",
    "make_jacobi_extension",
    "make_rep_extension",
    "make_explicit",
    "direct_sum",
    "eval_exprs",
    "so3_structure",
]

@dataclass(frozen=True)
class Chart:
    """Named coordinates over an axis-aligned box."""

    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.coords) != len(self.box):
            raise ValueError("one (lo, hi) pair per coordinate required")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")
        for name in self.coords:
            if not name.isidentifier():
                raise ValueError(f"bad coordinate name {name!r}")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError(f"empty coordinate range ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def env(self, points: np.ndarray) -> dict:
        """Environment mapping coordinate names to the last-axis slices."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.dim,):
            raise ValueError(f"expected trailing axis of length {self.dim}")
        return {name: points[..., a] for a, name in enumerate(self.coords)}

    def contains(self, points: np.ndarray, tol: float = 0.0) -> bool:
        points = np.asarray(points, dtype=float)
        if self.dim == 0:
            return True
        lo = np.array([b[0] for b in self.box]) - tol
        hi = np.array([b[1] for b in self.box]) + tol
        return bool(np.all(points >= lo) and np.all(points <= hi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample of n interior points, shape (n, dim)."""
        if self.dim == 0:
            return np.zeros((n, 0))
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        u = rng.uniform(size=(n, self.dim))
        # keep a small margin so derivative checks stay inside the box
        return lo + (0.01 + 0.98 * u) * (hi - lo)


def point_chart() -> Chart:
    """Zero-dimensional chart (a single point)."""
    return Chart(coords=(), box=())


def product_chart(a: Chart, b: Chart) -> Chart:
    if set(a.coords) & set(b.coords):
        raise ValueError("coordinate names must be disjoint for a product chart")
    return Chart(coords=a.coords + b.coords, box=a.box + b.box)


def eval_exprs(exprs, env: Mapping[str, object], base_shape: tuple) -> np.ndarray:
    """Evaluate a nested sequence of Exprs, or its compiled Program, over an array environment.

    Returns one array of shape ``base_shape + nested_shape``; constants
    and point-independent entries are broadcast to the base shape.  A
    nested sequence is compiled on the fly, so callers that evaluate the
    same matrix repeatedly pass the Program their owner holds.
    """
    return np.asarray(evaluate(exprs, env, base_shape))


@dataclass(frozen=True)
class Section:
    """A frame-coefficient vector of expressions."""

    components: tuple[Expr, ...]

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
        points = np.asarray(points, dtype=float)
        return eval_exprs(self.program, chart.env(points), points.shape[:-1])

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


def _coerce_structure(rank: int, mapping: Mapping) -> dict[tuple[int, int], tuple[Expr, ...]]:
    out: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for (i, j), vec in mapping.items():
        if not (0 <= i < j < rank):
            raise ValueError(f"structure key ({i}, {j}) must satisfy 0 <= i < j < rank")
        comps = tuple(as_expr(v) for v in vec)
        if len(comps) != rank:
            raise ValueError(f"structure value for ({i}, {j}) must have {rank} components")
        # keep iteration sparse: drop pairs whose bracket folded to zero
        if not all(is_zero(c) for c in comps):
            out[(i, j)] = comps
    return out


@dataclass(frozen=True)
class Algebroid:
    """Anchored bracket data over a chart.

    ``anchor[i][a]`` is the a-th chart component of the anchor image of
    frame section i.  ``structure[(i, j)]`` (for i < j) holds the frame
    bracket coefficients of [e_i, e_j]; pairs with i > j follow by
    antisymmetry and absent pairs are zero.
    """

    chart: Chart
    rank: int
    anchor: tuple[tuple[Expr, ...], ...]
    structure: Mapping[tuple[int, int], tuple[Expr, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(self.anchor) != self.rank or any(len(r) != self.chart.dim for r in self.anchor):
            raise ValueError("anchor must be rank x dim")
        for (i, j), vec in self.structure.items():
            if not (0 <= i < j < self.rank) or len(vec) != self.rank:
                raise ValueError("malformed structure functions")

    # -- frame access ----------------------------------------------------

    def frame(self, i: int) -> Section:
        if not 0 <= i < self.rank:
            raise IndexError(f"frame index {i} out of range for rank {self.rank}")
        return Section(tuple(ONE if k == i else ZERO for k in range(self.rank)))

    def structure_vector(self, i: int, j: int) -> tuple[Expr, ...]:
        """Coefficients of the frame bracket of e_i and e_j (any i, j)."""
        if i == j:
            return (ZERO,) * self.rank
        if i < j:
            return self.structure.get((i, j), (ZERO,) * self.rank)
        return tuple(neg(c) for c in self.structure.get((j, i), (ZERO,) * self.rank))

    # -- symbolic operations ----------------------------------------------

    def anchor_of(self, X: Section) -> tuple[Expr, ...]:
        """Chart components of the image vector field of X."""
        self._check_section(X)
        out = []
        for a in range(self.chart.dim):
            acc: Expr = ZERO
            for i in range(self.rank):
                acc = add(acc, mul(X[i], self.anchor[i][a]))
            out.append(acc)
        return tuple(out)

    def anchor_apply(self, X: Section, f: Expr) -> Expr:
        """Directional derivative of a chart function along the image of X."""
        f = as_expr(f)
        acc: Expr = ZERO
        for a, vf in enumerate(self.anchor_of(X)):
            acc = add(acc, mul(vf, f.diff(self.chart.coords[a])))
        return acc

    def bracket(self, X: Section, Y: Section) -> Section:
        """Bracket of two sections in frame coefficients."""
        self._check_section(X)
        self._check_section(Y)
        out = [ZERO] * self.rank
        for (i, j), cvec in self.structure.items():
            w = sub(mul(X[i], Y[j]), mul(X[j], Y[i]))
            for k in range(self.rank):
                out[k] = add(out[k], mul(w, cvec[k]))
        for k in range(self.rank):
            out[k] = add(out[k], sub(self.anchor_apply(X, Y[k]), self.anchor_apply(Y, X[k])))
        return Section(tuple(out))

    # -- vectorized evaluation ---------------------------------------------

    @cached_property
    def anchor_program(self) -> Program:
        return compile_exprs(self.anchor)

    @cached_property
    def structure_program(self) -> Program:
        return antisymmetric_program(self.structure, self.rank, self.rank)

    def anchor_values(self, points: np.ndarray) -> np.ndarray:
        """Anchor matrix at points, shape (..., rank, dim)."""
        points = np.asarray(points, dtype=float)
        base = points.shape[:-1]
        if self.rank == 0 or self.chart.dim == 0:
            return np.zeros(base + (self.rank, self.chart.dim))
        return eval_exprs(self.anchor_program, self.chart.env(points), base)

    def structure_values(self, points: np.ndarray) -> np.ndarray:
        """Full antisymmetric structure tensor c[..., i, j, k] at points."""
        points = np.asarray(points, dtype=float)
        return eval_exprs(self.structure_program, self.chart.env(points), points.shape[:-1])

    def _check_section(self, X: Section):
        if len(X) != self.rank:
            raise ValueError(f"section has {len(X)} components, algebroid rank is {self.rank}")


# --- axiom checking --------------------------------------------------------


@dataclass(frozen=True)
class AxiomWitness:
    """Location and value of the worst residual found."""

    kind: str  # "jacobi" or "anchor"
    indices: tuple[int, ...]
    point: tuple[float, ...]
    residual: float
    values: tuple[float, ...]

    def describe(self) -> str:
        if self.kind == "jacobi":
            i, j, k = self.indices
            what = f"jacobi defect on frame triple ({i}, {j}, {k})"
        else:
            i, j = self.indices
            what = f"anchor/bracket mismatch on frame pair ({i}, {j})"
        return f"{what} at point {self.point}: |residual| = {self.residual:.3e}"


@dataclass(frozen=True)
class AxiomReport:
    jacobi_residual: float
    anchor_residual: float
    tol: float
    n_points: int
    seed: int
    witness: AxiomWitness | None

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

    Both residuals are exact symbolic expressions evaluated at ``n_points``
    uniform chart points; the report carries the worst offender as a
    witness (triple or pair, point, and residual coefficients).
    """
    rng = np.random.default_rng(seed)
    pts = A.chart.sample(n_points, rng)
    env = A.chart.env(pts)
    base = (n_points,)

    best: tuple[float, AxiomWitness] | None = None

    def consider(kind, indices, vals):
        nonlocal best
        # vals has shape (n_points, ncomp)
        norms = np.max(np.abs(vals), axis=-1)
        at = int(np.argmax(norms))
        w = AxiomWitness(
            kind=kind,
            indices=indices,
            point=tuple(float(x) for x in pts[at]),
            residual=float(norms[at]),
            values=tuple(float(v) for v in vals[at]),
        )
        if best is None or w.residual > best[0]:
            best = (w.residual, w)
        return float(norms.max()) if norms.size else 0.0

    jac = 0.0
    for i, j, k in itertools.combinations(range(A.rank), 3):
        ei, ej, ek = A.frame(i), A.frame(j), A.frame(k)
        J = A.bracket(A.bracket(ei, ej), ek) + A.bracket(A.bracket(ej, ek), ei) + A.bracket(A.bracket(ek, ei), ej)
        vals = eval_exprs(J.components, env, base)
        jac = max(jac, consider("jacobi", (i, j, k), vals))

    anc = 0.0
    m = A.chart.dim
    for i, j in itertools.combinations(range(A.rank), 2):
        cvec = A.structure_vector(i, j)
        resid = []
        for a in range(m):
            lhs: Expr = ZERO
            for l in range(A.rank):
                lhs = add(lhs, mul(cvec[l], A.anchor[l][a]))
            rhs: Expr = ZERO
            for b in range(m):
                name = A.chart.coords[b]
                rhs = add(rhs, sub(mul(A.anchor[i][b], A.anchor[j][a].diff(name)), mul(A.anchor[j][b], A.anchor[i][a].diff(name))))
            resid.append(sub(lhs, rhs))
        if m == 0:
            continue
        vals = eval_exprs(tuple(resid), env, base)
        anc = max(anc, consider("anchor", (i, j), vals))

    return AxiomReport(
        jacobi_residual=jac,
        anchor_residual=anc,
        tol=tol,
        n_points=n_points,
        seed=seed,
        witness=None if best is None else best[1],
    )


# --- constructors -----------------------------------------------------------


def make_tangent(chart: Chart) -> Algebroid:
    """Tangent algebroid: identity anchor, vanishing structure functions."""
    m = chart.dim
    anchor = tuple(tuple(ONE if a == i else ZERO for a in range(m)) for i in range(m))
    return Algebroid(chart=chart, rank=m, anchor=anchor, structure={})

def make_lie_algebra(rank: int, structure: Mapping, chart: Chart | None = None) -> Algebroid:
    """Lie algebra as an algebroid: zero anchor, constant-ready structure.

    The structure functions may still depend on chart coordinates; with
    the default point chart they must be constants.
    """
    chart = chart if chart is not None else point_chart()
    anchor = tuple((ZERO,) * chart.dim for _ in range(rank))
    return Algebroid(chart=chart, rank=rank, anchor=anchor, structure=_coerce_structure(rank, structure))


def so3_structure(scale: Expr | float = 1.0) -> dict:
    """Rotation-algebra structure constants, optionally rescaled."""
    s = as_expr(scale)
    z = ZERO
    return {
        (0, 1): (z, z, s),
        (0, 2): (z, neg(s), z),
        (1, 2): (s, z, z),
    }


def _upper_bivector(chart: Chart, bivector) -> dict[tuple[int, int], Expr]:
    """Read the strict upper triangle of a bivector specification."""
    m = chart.dim
    out: dict[tuple[int, int], Expr] = {}
    if isinstance(bivector, Mapping):
        for (a, b), v in bivector.items():
            if not (0 <= a < b < m):
                raise ValueError("bivector keys must satisfy 0 <= a < b < dim")
            out[(a, b)] = as_expr(v)
    else:
        rows = list(bivector)
        if len(rows) != m or any(len(list(r)) != m for r in rows):
            raise ValueError(f"bivector matrix must be {m} x {m}")
        for a in range(m):
            for b in range(a + 1, m):
                out[(a, b)] = as_expr(rows[a][b])
    return out


def _bivector_entry(upper: Mapping[tuple[int, int], Expr], a: int, b: int) -> Expr:
    if a == b:
        return ZERO
    if a < b:
        return upper.get((a, b), ZERO)
    return neg(upper.get((b, a), ZERO))


def make_cotangent_poisson(chart: Chart, bivector) -> Algebroid:
    """Cotangent algebroid of a Poisson bivector.

    Frame section a is the coordinate differential of chart coordinate a.
    The anchor maps it to the Hamiltonian-type vector field with
    components ``pi[a][b]`` and the frame brackets are the coordinate
    differentials of the bivector entries.
    """
    m = chart.dim
    upper = _upper_bivector(chart, bivector)
    anchor = tuple(tuple(_bivector_entry(upper, a, b) for b in range(m)) for a in range(m))
    structure: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for (a, b), entry in upper.items():
        structure[(a, b)] = tuple(entry.diff(chart.coords[c]) for c in range(m))
    return Algebroid(chart=chart, rank=m, anchor=anchor, structure=_coerce_structure(m, structure))


def make_jacobi_extension(chart: Chart, bivector) -> Algebroid:
    """Rank dim+1 central extension of the cotangent Poisson algebroid.

    Frame 0 spans the added line (anchor zero, central); the remaining
    frames are the coordinate differentials.  The bracket of two
    differentials gains the bivector value in the central slot, which is
    what makes the extension curvature visible to transgression.
    """
    m = chart.dim
    upper = _upper_bivector(chart, bivector)
    rank = m + 1
    anchor_rows = [(ZERO,) * m]
    for a in range(m):
        anchor_rows.append(tuple(_bivector_entry(upper, a, b) for b in range(m)))
    structure: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for (a, b), entry in upper.items():
        central = entry
        rest = tuple(entry.diff(chart.coords[c]) for c in range(m))
        structure[(1 + a, 1 + b)] = (central,) + rest
    return Algebroid(chart=chart, rank=rank, anchor=tuple(anchor_rows), structure=_coerce_structure(rank, structure))


def make_rep_extension(base: Algebroid, fiber_dim: int, action, twist=None) -> Algebroid:
    """Extension of ``base`` by a rank ``fiber_dim`` abelian kernel.

    ``action[i]`` is the fiber_dim x fiber_dim matrix of the covariant
    action along base frame i (columns index the source kernel frame).
    ``twist`` optionally maps base frame pairs (i, j) with i < j to a
    kernel-valued curvature coefficient vector.  Kernel frames come
    first; horizontal copies of the base frames follow.
    """
    d = fiber_dim
    rB = base.rank
    m = base.chart.dim
    mats = [coerce_matrix(M, d, d, "action matrix") for M in action]
    if len(mats) != rB:
        raise ValueError(f"need one action matrix per base frame ({rB})")
    twist_vecs: dict[tuple[int, int], tuple[Expr, ...]] = {}
    if twist:
        for (i, j), vec in twist.items():
            if not (0 <= i < j < rB):
                raise ValueError("twist keys must satisfy 0 <= i < j < base rank")
            comps = tuple(as_expr(v) for v in vec)
            if len(comps) != d:
                raise ValueError(f"twist values must have {d} kernel components")
            twist_vecs[(i, j)] = comps

    rank = d + rB
    anchor_rows = [(ZERO,) * m for _ in range(d)]
    anchor_rows += [base.anchor[i] for i in range(rB)]

    structure: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for s in range(d):
        for i in range(rB):
            # the horizontal frame acts on the kernel frame: the bracket
            # [u_s, h_i] carries minus the action of frame i on u_s
            col = tuple(neg(mats[i][t][s]) for t in range(d))
            structure[(s, d + i)] = col + (ZERO,) * rB
    base_struct = dict(base.structure)
    for i in range(rB):
        for j in range(i + 1, rB):
            kernel_part = twist_vecs.get((i, j), (ZERO,) * d)
            base_part = base_struct.get((i, j), (ZERO,) * rB)
            structure[(d + i, d + j)] = tuple(kernel_part) + tuple(base_part)
    return Algebroid(
        chart=base.chart,
        rank=rank,
        anchor=tuple(anchor_rows),
        structure=_coerce_structure(rank, structure),
    )


def make_explicit(chart: Chart, rank: int, anchor, structure: Mapping | None = None) -> Algebroid:
    """Build an algebroid from raw anchor rows and structure functions."""
    return Algebroid(
        chart=chart,
        rank=rank,
        anchor=coerce_matrix(anchor, rank, chart.dim, "anchor"),
        structure=_coerce_structure(rank, structure or {}),
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
    return Algebroid(chart=chart, rank=rank, anchor=anchor, structure=_coerce_structure(rank, structure))
