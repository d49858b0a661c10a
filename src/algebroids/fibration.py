"""Fibrations of algebroids: projections, splittings and connections.

A fibration pairs a total algebroid with a base algebroid on the same
chart, a fiberwise projection written in frame coefficients, a splitting
and a kernel frame.  The splitting induces a covariant derivative on
kernel sections and a kernel-valued curvature two-form; the identity
residuals quantify how honestly a given candidate satisfies the expected
structure equations.  Cubes over the base lift to cubes over the total
algebroid by integrating the morphism equations along the last axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Algebroid,
    Chart,
    Section,
    antisymmetric_entry,
    antisymmetric_program,
    coerce_matrix,
    eval_exprs,
    make_cotangent_poisson,
    make_jacobi_extension,
    make_rep_extension,
    make_tangent,
)
from .cubes import ChartEscapeError, Cube, Spline, face, rk4
from .expr import ONE, ZERO, Expr, NonFiniteError, Program, add, as_expr, compile_exprs, const, div, dot, is_zero, mul, neg, sub, total, var

__all__ = [
    "Fibration",
    "Curvature2Form",
    "covariant_derivative",
    "curvature",
    "identity_residuals",
    "lift_cube",
    "project_cube",
    "transport_matrix",
    "parallel_transport",
    "splitting_from_projection",
    "jacobi_fibration",
    "rep_extension_fibration",
    "anchor_fibration",
    "evolve_cube_system",
]

def _symbolic_inverse(M: Sequence[Sequence[Expr]]) -> tuple[tuple[Expr, ...], ...]:
    """Adjugate inverse of a small symbolic matrix.

    Determinants are Laplace expansions along the first row, with each
    minor built once and shared by every expansion that needs it.
    Division by the determinant is left unevaluated, so a singular point
    surfaces as a domain error at evaluation time.
    """
    n = len(M)
    rows = [tuple(r) for r in M]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")

    @lru_cache(maxsize=None)
    def det(rs: tuple[int, ...], cs: tuple[int, ...]) -> Expr:
        """Determinant of the minor on rows ``rs`` and columns ``cs``."""
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        acc: Expr = ZERO
        for k, c in enumerate(cs):
            head = rows[rs[0]][c]
            if is_zero(head):
                continue
            term = mul(head, det(rs[1:], cs[:k] + cs[k + 1 :]))
            acc = add(acc, term) if k % 2 == 0 else sub(acc, term)
        return acc

    every = tuple(range(n))
    d = det(every, every)
    if is_zero(d):
        raise ValueError("matrix is identically singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = det(every[:j] + every[j + 1 :], every[:i] + every[i + 1 :]) if n > 1 else ONE
            if (i + j) % 2 == 1:
                cof = neg(cof)
            row.append(div(cof, d))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def _names(tag: str, shape: tuple[int, ...]) -> tuple[tuple[str, tuple], ...]:
    """``(name, index)`` of the fresh variable ``#<tag><i>_<j>...`` for each entry of a trailing block.

    Chart coordinates are identifiers, so these names cannot clash with them.
    """
    return tuple(("#" + tag + "_".join(map(str, i)), (Ellipsis,) + i) for i in np.ndindex(shape))


def _fresh(tag: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.array([var(name) for name, _ in _names(tag, shape)], dtype=object).reshape(shape)


def _bind(env: dict, tag: str, values: np.ndarray, shape: tuple[int, ...]) -> dict:
    env.update((name, values[index]) for name, index in _names(tag, shape))
    return env


def _wedge(x, y, pairs, l: int) -> Expr:
    """Component l of ``Σ_{p<q} (x_p y_q - x_q y_p) c_pq`` over the stored pairs ``{(p, q): c_pq}``."""
    return total(mul(sub(mul(x[p], y[q]), mul(x[q], y[p])), c[l]) for (p, q), c in pairs.items())


@dataclass(frozen=True, eq=False)
class Fibration:
    """Projection/splitting data between algebroids on one chart.

    ``projection[i][j]`` is the i-th base coefficient of the image of
    total frame j; ``splitting[j][i]`` the j-th total coefficient of the
    lift of base frame i; ``kernel[s]`` the total coefficients of the
    s-th kernel frame section.
    """

    total: Algebroid
    base: Algebroid
    projection: tuple[tuple[Expr, ...], ...]
    splitting: tuple[tuple[Expr, ...], ...]
    kernel: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        if self.total.chart != self.base.chart:
            raise ValueError("total and base must share one chart")
        rE, rB = self.total.rank, self.base.rank
        object.__setattr__(self, "projection", coerce_matrix(self.projection, rB, rE, "projection"))
        object.__setattr__(self, "splitting", coerce_matrix(self.splitting, rE, rB, "splitting"))
        rK = rE - rB
        if rK < 0:
            raise ValueError("base rank exceeds total rank")
        object.__setattr__(self, "kernel", coerce_matrix(self.kernel, rK, rE, "kernel frame"))

    @property
    def kernel_rank(self) -> int:
        return len(self.kernel)

    @property
    def chart(self) -> Chart:
        return self.total.chart

    @cached_property
    def frame_inverse(self) -> tuple[tuple[Expr, ...], ...]:
        """Inverse of the combined (kernel | splitting) frame matrix.

        Row t < kernel_rank extracts the t-th kernel coefficient of a
        total section; the remaining rows extract horizontal ones.
        """
        rE = self.total.rank
        cols = [list(k) for k in self.kernel] + [
            [self.splitting[j][i] for j in range(rE)] for i in range(self.base.rank)
        ]
        M = [[cols[c][j] for c in range(rE)] for j in range(rE)]
        return _symbolic_inverse(M)

    @cached_property
    def frame_inverse_program(self) -> Program:
        return compile_exprs(self.frame_inverse)

    @cached_property
    def projection_program(self) -> Program:
        return compile_exprs(self.projection)

    def kernel_coefficients(self, X: Section) -> tuple[Expr, ...]:
        """Kernel-frame coefficients of a (kernel-valued) total section."""
        return tuple(dot(row, X.components) for row in self.frame_inverse[: self.kernel_rank])

    def horizontal_lift(self, X: Section) -> Section:
        """Total section with coefficients splitting . X."""
        return Section(tuple(dot(row, X.components) for row in self.splitting))

    def project_section(self, X: Section) -> Section:
        return Section(tuple(dot(row, X.components) for row in self.projection))

    def kernel_section(self, s: int) -> Section:
        return Section(self.kernel[s])

    def from_kernel_coefficients(self, vec: Sequence[Expr]) -> Section:
        """Total section with kernel-frame coefficients ``vec``."""
        return Section(tuple(dot(vec, (row[j] for row in self.kernel)) for j in range(self.total.rank)))

    @cached_property
    def action_matrices(self) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
        """Kernel-frame matrices of the covariant derivative, one per base frame.

        Entry [i][t][s] is the t-th kernel coefficient of the derivative
        of kernel frame s along base frame i.
        """
        rB, rK = self.base.rank, self.kernel_rank
        mats = []
        for i in range(rB):
            hor = self.horizontal_lift(self.base.frame(i))
            cols = []
            for s in range(rK):
                D = self.total.bracket(hor, self.kernel_section(s))
                cols.append(self.kernel_coefficients(D))
            mats.append(tuple(tuple(cols[s][t] for s in range(rK)) for t in range(rK)))
        return tuple(mats)

    @cached_property
    def _lift_programs(self) -> dict[int, Program]:
        return {}

    def lift_program(self, k: int) -> Program:
        """Pointwise part of the lift equations with k transverse fields, compiled on first use.

        Over ``#b<u>`` (the driver in base coefficients) and ``#y<i>_<l>``
        (the fields), it returns ``w2 = splitting . b``, its anchor image
        and, for each field y, ``Σ_{p<q} (y_p w2_q - y_q w2_p) c_pq``.
        """
        if k not in self._lift_programs:
            rE = self.total.rank
            w2 = [dot(row, _fresh("b", (self.base.rank,))) for row in self.splitting]
            out = [*w2, *self.total.anchor_of(Section(tuple(w2)))]
            for y in _fresh("y", (k, rE)):
                out.extend(_wedge(y, w2, self.total.structure, l) for l in range(rE))
            self._lift_programs[k] = compile_exprs(out)
        return self._lift_programs[k]

    def lift_rates(self, b: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Run :meth:`lift_program` on states ``Y`` packing a point and the fields on the last axis."""
        m, rE = self.chart.dim, self.total.rank
        k = (Y.shape[-1] - m) // rE
        env = _bind(self.chart.env(Y[..., :m]), "b", b, (self.base.rank,))
        _bind(env, "y", Y[..., m:].reshape(Y.shape[:-1] + (k, rE)), (k, rE))
        return eval_exprs(self.lift_program(k), env, Y.shape[:-1])

    @cached_property
    def transport_program(self) -> Program:
        """``-Σ_u b_u F_u V`` over ``#b<u>`` (path velocity) and ``#v<s>_<c>`` (V), F the action matrices."""
        rB, rK = self.base.rank, self.kernel_rank
        F, b, V = self.action_matrices, _fresh("b", (rB,)), _fresh("v", (rK, rK))
        M = [[dot(b, (F[u][t][s] for u in range(rB))) for s in range(rK)] for t in range(rK)]
        return compile_exprs([[neg(dot(M[t], V[:, c])) for c in range(rK)] for t in range(rK)])

    def transport_rates(self, points: np.ndarray, b: np.ndarray, V: np.ndarray) -> np.ndarray:
        rK = self.kernel_rank
        env = _bind(_bind(self.chart.env(points), "b", b, (self.base.rank,)), "v", V, (rK, rK))
        return eval_exprs(self.transport_program, env, V.shape[:-2])

    @cached_property
    def transport_is_trivial(self) -> bool:
        """True when every covariant action matrix is identically zero."""
        return all(
            is_zero(entry) for M in self.action_matrices for row in M for entry in row
        )


def covariant_derivative(fib: Fibration, X: Section, kappa: Section) -> Section:
    """Derivative of a kernel-coefficient section along a base section.

    Both the input and the output are written in the kernel frame; the
    derivative acts through the bracket with the horizontal lift of X.
    """
    if len(X) != fib.base.rank or len(kappa) != fib.kernel_rank:
        raise ValueError("X must be a base section and kappa a kernel-coefficient section")
    F = fib.action_matrices
    hor = fib.horizontal_lift(X)
    pairs = list(itertools.product(range(fib.base.rank), range(fib.kernel_rank)))
    out = []
    for t in range(fib.kernel_rank):
        acting = (mul(X[i], mul(F[i][t][s], kappa[s])) for i, s in pairs)
        out.append(total([fib.total.anchor_apply(hor, kappa[t]), *acting]))
    return Section(tuple(out))


@dataclass(frozen=True, eq=False)
class Curvature2Form:
    """Kernel-valued curvature of a splitting, stored on base frame pairs."""

    chart: Chart
    base_rank: int
    kernel_rank: int
    entries: Mapping[tuple[int, int], tuple[Expr, ...]]

    def entry(self, i: int, j: int) -> tuple[Expr, ...]:
        return antisymmetric_entry(self.entries, i, j, self.kernel_rank)

    @cached_property
    def program(self) -> Program:
        return antisymmetric_program(self.entries, self.base_rank, self.kernel_rank)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Antisymmetric value tensor of shape (..., rB, rB, rK)."""
        points = np.asarray(points, dtype=float)
        return eval_exprs(self.program, self.chart.env(points), points.shape[:-1])

    @cached_property
    def pairing_program(self) -> Program:
        """``Σ_{p<q} (c0_p c1_q - c0_q c1_p) Ω_pq`` over the fields ``#c0_<p>`` and ``#c1_<q>``."""
        c0, c1 = _fresh("c", (2, self.base_rank))
        return compile_exprs([_wedge(c0, c1, self.entries, s) for s in range(self.kernel_rank)])

    def pairing(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Curvature paired node by node with the two fields stacked on the leading axis of ``coeffs``."""
        points = np.asarray(points, dtype=float)
        env = _bind(self.chart.env(points), "c", np.moveaxis(coeffs, 0, -2), (2, self.base_rank))
        return eval_exprs(self.pairing_program, env, points.shape[:-1])


def curvature(fib: Fibration) -> Curvature2Form:
    """Failure of the splitting to intertwine brackets, in the kernel frame.

    The value on a frame pair is the bracket of the two horizontal lifts
    minus the lift of the base bracket.
    """
    rB = fib.base.rank
    entries: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for i in range(rB):
        for j in range(i + 1, rB):
            bi, bj = fib.base.frame(i), fib.base.frame(j)
            total_part = fib.total.bracket(fib.horizontal_lift(bi), fib.horizontal_lift(bj))
            lifted = fib.horizontal_lift(fib.base.bracket(bi, bj))
            vec = fib.kernel_coefficients(total_part - lifted)
            if not all(is_zero(v) for v in vec):
                entries[(i, j)] = vec
    return Curvature2Form(
        chart=fib.chart, base_rank=rB, kernel_rank=fib.kernel_rank, entries=entries
    )


# --- structure-equation residuals ----------------------------------------------


def identity_residuals(fib: Fibration, n_points: int = 100, seed: int = 42) -> dict[str, float]:
    """Max-norm residuals of the structure equations over sampled points.

    Keys: ``anchor_match`` (base anchor of the projection against the
    total anchor), ``projection_morphism`` (bracket compatibility of the
    projection), ``splitting_identity`` (projection of the splitting
    against the identity), ``kernel_in_kernel`` (projection of the kernel
    frame), ``curvature_identity`` (covariant curvature against the
    bracket with the curvature form) and ``bianchi`` (cyclic covariant
    derivative of the curvature form).
    """
    E, B = fib.total, fib.base
    rE, rB, rK = E.rank, B.rank, fib.kernel_rank
    m = fib.chart.dim
    rng = np.random.default_rng(seed)
    pts = fib.chart.sample(n_points, rng)
    env = fib.chart.env(pts)
    shape = (n_points,)

    def sup(exprs) -> float:
        flat = list(exprs)
        if not flat:
            return 0.0
        vals = eval_exprs(tuple(flat), env, shape)
        return float(np.max(np.abs(vals)))

    out: dict[str, float] = {}

    anchor = [
        sub(dot((row[j] for row in fib.projection), (row[a] for row in B.anchor)), E.anchor[j][a])
        for j in range(rE)
        for a in range(m)
    ]
    out["anchor_match"] = sup(anchor)

    morph = []
    for i in range(rB):
        for j in range(rE):
            for k in range(j + 1, rE):
                acc = dot(fib.projection[i], E.structure_vector(j, k))
                for u, v in itertools.product(range(rB), repeat=2):
                    acc = sub(acc, mul(mul(fib.projection[u][j], fib.projection[v][k]), B.structure_vector(u, v)[i]))
                acc = sub(acc, E.anchor_apply(E.frame(j), fib.projection[i][k]))
                acc = add(acc, E.anchor_apply(E.frame(k), fib.projection[i][j]))
                morph.append(acc)
    out["projection_morphism"] = sup(morph)

    split = []
    for i in range(rB):
        proj = fib.project_section(fib.horizontal_lift(B.frame(i)))
        for u in range(rB):
            split.append(sub(proj[u], ONE if u == i else ZERO))
    out["splitting_identity"] = sup(split)

    kern = []
    for s in range(rK):
        proj = fib.project_section(fib.kernel_section(s))
        kern.extend(proj.components)
    out["kernel_in_kernel"] = sup(kern)

    omega = curvature(fib)
    F = fib.action_matrices

    curv = []
    for i, j in itertools.combinations(range(rB), 2):
        cB = B.structure_vector(i, j)
        hor_i = fib.horizontal_lift(B.frame(i))
        hor_j = fib.horizontal_lift(B.frame(j))
        w_total = fib.from_kernel_coefficients(omega.entry(i, j))
        for s in range(rK):
            lhs = []
            for t in range(rK):
                acc = total(sub(mul(F[i][t][u], F[j][u][s]), mul(F[j][t][u], F[i][u][s])) for u in range(rK))
                acc = add(acc, E.anchor_apply(hor_i, F[j][t][s]))
                acc = sub(acc, E.anchor_apply(hor_j, F[i][t][s]))
                for u in range(rB):
                    acc = sub(acc, mul(cB[u], F[u][t][s]))
                lhs.append(acc)
            rhs = fib.kernel_coefficients(E.bracket(w_total, fib.kernel_section(s)))
            curv.extend(sub(a, b) for a, b in zip(lhs, rhs))
    out["curvature_identity"] = sup(curv)

    bianchi = []
    for i, j, k in itertools.combinations(range(rB), 3):
        cyclic = []
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            Dw = covariant_derivative(fib, B.frame(a), Section(omega.entry(b, c)))
            cB = B.structure_vector(a, b)
            terms = []
            for t in range(rK):
                term = Dw[t]
                for u in range(rB):
                    term = sub(term, mul(cB[u], omega.entry(u, c)[t]))
                terms.append(term)
            cyclic.append(terms)
        bianchi.extend(total(col) for col in zip(*cyclic))
    out["bianchi"] = sup(bianchi)

    return out


# --- lifting cubes ----------------------------------------------------------------


def _add_gradient(out: np.ndarray, f: np.ndarray, h: float, axis: int) -> None:
    """Add ``np.gradient(f, h, axis=axis, edge_order=2)`` into ``out``, with the same arithmetic but fewer calls."""
    s = (slice(None),) * axis
    out[s + (slice(1, -1),)] += (f[s + (slice(2, None),)] - f[s + (slice(None, -2),)]) / (2.0 * h)
    out[s + (0,)] += -1.5 / h * f[s + (0,)] + 2.0 / h * f[s + (1,)] + -0.5 / h * f[s + (2,)]
    out[s + (-1,)] += 0.5 / h * f[s + (-3,)] + -2.0 / h * f[s + (-2,)] + 1.5 / h * f[s + (-1,)]


def evolve_cube_system(fib: Fibration, b_of, gamma0: np.ndarray, w0: Sequence[np.ndarray], N: int):
    """Integrate the lift equations of a fibration along a fresh last axis.

    ``b_of(eps)`` is the driver at parameter eps in base coefficients
    on the transverse grid.  The points move along the anchor image of
    its lift ``w2``, and each transverse field picks up the transverse
    derivative of ``w2`` plus its bracket with ``w2``.  Each RK4 stage
    runs :meth:`Fibration.lift_rates` once; only the transverse
    difference is taken outside the compiled program.  The first stage
    of each step sees the node state and records ``w2`` there; one more
    run covers the last node.  Returns the point grid, the transverse
    fields and ``w2`` at the nodes.
    """
    h = 1.0 / N
    m, rE = fib.chart.dim, fib.total.rank
    k = len(w0)
    Y0 = np.concatenate([gamma0, *w0], axis=-1)  # the point, then the k fields, on the last axis
    w_last = np.empty(Y0.shape[:-1] + (N + 1, rE))
    stages = itertools.count()

    def rhs(eps: float, Y: np.ndarray) -> np.ndarray:
        out = fib.lift_rates(b_of(eps), Y)
        w2, dY = out[..., :rE], out[..., rE:]
        stage = next(stages)
        if stage % 4 == 0:  # rk4 calls the first stage of step s at node s
            w_last[..., stage // 4, :] = w2
        for i in range(k):
            _add_gradient(dY[..., m + i * rE : m + (i + 1) * rE], w2, h, i)
        return dY

    try:
        Y = rk4(rhs, Y0, N)
        w_last[..., N, :] = fib.lift_rates(b_of(N * h), Y[N])[..., :rE]
    except NonFiniteError as err:  # the lift overflowed on its way out of the chart
        raise ChartEscapeError("cube base points leave the chart box") from err
    Y = np.moveaxis(Y, 0, -2)
    return Y[..., :m], [Y[..., m + i * rE : m + (i + 1) * rE] for i in range(k)], w_last


def lift_cube(fib: Fibration, cube: Cube) -> Cube:
    """Horizontal lift of a base cube through the splitting.

    The initial face is lifted recursively, then the last axis is
    integrated.  The projection of the result deviates from the input by
    the usual second-order grid error.
    """
    if cube.algebroid != fib.base:
        raise ValueError("cube must live over the base algebroid of the fibration")
    N = cube.N
    n = cube.n

    if n == 1:
        gamma0 = cube.gamma[0]
        w0: list[np.ndarray] = []
    else:
        lifted_face = lift_cube(fib, face(cube, axis=n - 1, end=0))
        gamma0 = lifted_face.gamma
        w0 = [lifted_face.coeffs[i] for i in range(n - 1)]

    b_of = Spline(cube.coeffs[n - 1], axis=n - 1)
    gamma, W, w_last = evolve_cube_system(fib, b_of, gamma0, w0, N)
    return Cube(fib.total, gamma, np.stack(W + [w_last]))


def project_cube(fib: Fibration, cube: Cube) -> Cube:
    """Push a total cube down to the base through the projection."""
    if cube.algebroid != fib.total:
        raise ValueError("cube must live over the total algebroid of the fibration")
    pvals = eval_exprs(fib.projection_program, fib.chart.env(cube.gamma), cube.gamma.shape[:-1])
    return Cube(fib.base, cube.gamma, np.einsum("...ij,a...j->a...i", pvals, cube.coeffs))


# --- parallel transport --------------------------------------------------------------


def transport_matrix(fib: Fibration, path: Cube) -> np.ndarray:
    """Fundamental solution of parallel transport along the last axis of a base cube.

    Every line of nodes along the last axis is a base path, driven by
    the last coefficient field; all of them are transported at once.
    Each RK4 stage runs the fibration's compiled
    :attr:`Fibration.transport_program` once on every line.  Returns the
    ``grid + (rK, rK)`` array of matrices carrying a kernel vector at
    the start of each line to each node, so a one-dimensional path gives
    an (N+1, rK, rK) stack.  A trivial covariant action short-circuits
    to identity matrices.
    """
    if path.algebroid != fib.base:
        raise ValueError("transport needs a cube over the base")
    n, N = path.n, path.N
    rK = fib.kernel_rank
    if fib.transport_is_trivial or rK == 0:
        return np.zeros(path.gamma.shape[:-1] + (rK, rK)) + np.eye(rK)

    lines = path.gamma.shape[: n - 1]
    g_spline = Spline(path.gamma, axis=n - 1)
    b_spline = Spline(path.coeffs[n - 1], axis=n - 1)

    def rhs(t: float, V: np.ndarray) -> np.ndarray:
        return fib.transport_rates(g_spline(t), b_spline(t), V)

    V = rk4(rhs, np.broadcast_to(np.eye(rK), lines + (rK, rK)), N)
    return np.moveaxis(V, 0, n - 1)


def parallel_transport(fib: Fibration, path: Cube, v0) -> np.ndarray:
    """Transport a kernel-coefficient vector along the last axis of a base cube.

    Returns the vector at every node, shape ``grid + (rK,)``, starting
    from ``v0`` at the first node of each line.
    """
    v0 = np.asarray(v0, dtype=float).reshape(fib.kernel_rank)
    return transport_matrix(fib, path) @ v0


# --- builders ----------------------------------------------------------------------


def splitting_from_projection(projection: Sequence[Sequence[Expr]]) -> tuple[tuple[Expr, ...], ...]:
    """Least-squares splitting: transpose against the projection Gram matrix."""
    rB = len(projection)
    rE = len(projection[0])
    P = [[as_expr(v) for v in row] for row in projection]
    gram = [[dot(P[u], P[v]) for v in range(rB)] for u in range(rB)]
    ginv = _symbolic_inverse(gram)
    return tuple(
        tuple(dot((row[l] for row in P), (row[i] for row in ginv)) for i in range(rB))
        for l in range(rE)
    )


def jacobi_fibration(chart: Chart, bivector) -> Fibration:
    """Central line extension over the cotangent algebroid of a bivector."""
    total = make_jacobi_extension(chart, bivector)
    base = make_cotangent_poisson(chart, bivector)
    m = chart.dim
    projection = tuple(
        tuple(ONE if j == 1 + a else ZERO for j in range(m + 1)) for a in range(m)
    )
    splitting = tuple(
        tuple(ONE if j == 1 + a else ZERO for a in range(m)) for j in range(m + 1)
    )
    kernel = ((ONE,) + (ZERO,) * m,)
    return Fibration(total=total, base=base, projection=projection, splitting=splitting, kernel=kernel)


def rep_extension_fibration(base: Algebroid, fiber_dim: int, action, twist=None) -> Fibration:
    """Extension of a base algebroid by a represented abelian kernel."""
    total = make_rep_extension(base, fiber_dim, action, twist)
    d, rB = fiber_dim, base.rank
    projection = tuple(
        tuple(ONE if j == d + i else ZERO for j in range(d + rB)) for i in range(rB)
    )
    splitting = tuple(
        tuple(ONE if j == d + i else ZERO for i in range(rB)) for j in range(d + rB)
    )
    kernel = tuple(
        tuple(ONE if j == s else ZERO for j in range(d + rB)) for s in range(d)
    )
    return Fibration(total=total, base=base, projection=projection, splitting=splitting, kernel=kernel)


def null_space(M: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal basis of the null space of M, one vector per column.

    Singular values up to ``rcond`` times the largest count as zero.
    """
    _, sv, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(sv > sv.max(initial=0.0) * rcond))
    return vh[rank:].T


def anchor_fibration(
    A: Algebroid,
    splitting: Sequence[Sequence[Expr]],
    n_samples: int = 25,
    seed: int = 0,
    tol: float = 1e-9,
) -> Fibration:
    """Fibration of an algebroid over the tangent algebroid via its anchor.

    The kernel frame is detected numerically and must be constant: the
    anchor matrices sampled across the chart have to share one null
    space.  Basis vectors are sign-fixed by their largest entry.
    """
    chart = A.chart
    m = chart.dim
    rE = A.rank
    base = make_tangent(chart)
    projection = tuple(tuple(A.anchor[l][a] for l in range(rE)) for a in range(m))

    rng = np.random.default_rng(seed)
    pts = chart.sample(n_samples, rng)
    rho = A.anchor_values(pts)  # (n, rE, m)
    stacked = rho.transpose(0, 2, 1).reshape(n_samples * m, rE)
    ns = null_space(stacked, rcond=1e-10)
    expected = rE - m
    if ns.shape[1] != expected:
        raise ValueError(
            f"anchor kernel is not a constant rank-{expected} subbundle over the sampled chart"
        )
    if ns.size and float(np.max(np.abs(stacked @ ns))) > tol * max(1.0, float(np.max(np.abs(stacked)))):
        raise ValueError("anchor kernel drifts across the chart; no constant frame exists")
    kernel_rows = []
    for s in range(expected):
        col = ns[:, s]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            col = -col
        kernel_rows.append(tuple(const(float(v)) for v in col))
    return Fibration(
        total=A,
        base=base,
        projection=projection,
        splitting=coerce_matrix(splitting, rE, m, "splitting"),
        kernel=tuple(kernel_rows),
    )
