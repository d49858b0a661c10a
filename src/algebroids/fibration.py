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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import null_space

from .core import (
    Algebroid,
    Chart,
    Section,
    antisymmetric_program,
    coerce_matrix,
    eval_exprs,
    make_cotangent_poisson,
    make_jacobi_extension,
    make_rep_extension,
    make_tangent,
)
from .cubes import ChartEscapeError, Cube, face, rk4
from .expr import ONE, ZERO, Expr, NonFiniteError, Program, add, as_expr, compile_exprs, const, div, is_zero, mul, neg, sub

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

def _det(M: list[list[Expr]]) -> Expr:
    if len(M) == 1:
        return M[0][0]
    acc: Expr = ZERO
    for j, head in enumerate(M[0]):
        if is_zero(head):
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = mul(head, _det(minor))
        acc = add(acc, term) if j % 2 == 0 else sub(acc, term)
    return acc


def _symbolic_inverse(M: Sequence[Sequence[Expr]]) -> tuple[tuple[Expr, ...], ...]:
    """Adjugate inverse of a small symbolic matrix.

    Division by the determinant is left unevaluated, so a singular point
    surfaces as a domain error at evaluation time.
    """
    n = len(M)
    rows = [list(r) for r in M]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    d = _det(rows)
    if is_zero(d):
        raise ValueError("matrix is identically singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            cof = _det(minor) if minor else ONE
            if (i + j) % 2 == 1:
                cof = neg(cof)
            row.append(div(cof, d))
        out.append(tuple(row))
    return tuple(out)


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
    def splitting_program(self) -> Program:
        return compile_exprs(self.splitting)

    @cached_property
    def projection_program(self) -> Program:
        return compile_exprs(self.projection)

    def kernel_coefficients(self, X: Section) -> tuple[Expr, ...]:
        """Kernel-frame coefficients of a (kernel-valued) total section."""
        inv = self.frame_inverse
        out = []
        for t in range(self.kernel_rank):
            acc: Expr = ZERO
            for j in range(self.total.rank):
                acc = add(acc, mul(inv[t][j], X[j]))
            out.append(acc)
        return tuple(out)

    def horizontal_lift(self, X: Section) -> Section:
        """Total section with coefficients splitting . X."""
        rE, rB = self.total.rank, self.base.rank
        comps = []
        for j in range(rE):
            acc: Expr = ZERO
            for i in range(rB):
                acc = add(acc, mul(self.splitting[j][i], X[i]))
            comps.append(acc)
        return Section(tuple(comps))

    def project_section(self, X: Section) -> Section:
        rE, rB = self.total.rank, self.base.rank
        comps = []
        for i in range(rB):
            acc: Expr = ZERO
            for j in range(rE):
                acc = add(acc, mul(self.projection[i][j], X[j]))
            comps.append(acc)
        return Section(tuple(comps))

    def kernel_section(self, s: int) -> Section:
        return Section(self.kernel[s])

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
    def action_programs(self) -> tuple[Program, ...]:
        """One compiled program per matrix of :attr:`action_matrices`."""
        return tuple(compile_exprs(M) for M in self.action_matrices)

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
    out = []
    for t in range(fib.kernel_rank):
        acc = fib.total.anchor_apply(hor, kappa[t])
        for i in range(fib.base.rank):
            for s in range(fib.kernel_rank):
                acc = add(acc, mul(X[i], mul(F[i][t][s], kappa[s])))
        out.append(acc)
    return Section(tuple(out))


@dataclass(frozen=True, eq=False)
class Curvature2Form:
    """Kernel-valued curvature of a splitting, stored on base frame pairs."""

    chart: Chart
    base_rank: int
    kernel_rank: int
    entries: Mapping[tuple[int, int], tuple[Expr, ...]]

    def entry(self, i: int, j: int) -> tuple[Expr, ...]:
        if i == j:
            return (ZERO,) * self.kernel_rank
        if i < j:
            return self.entries.get((i, j), (ZERO,) * self.kernel_rank)
        return tuple(neg(e) for e in self.entries.get((j, i), (ZERO,) * self.kernel_rank))

    @cached_property
    def program(self) -> Program:
        return antisymmetric_program(self.entries, self.base_rank, self.kernel_rank)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Antisymmetric value tensor of shape (..., rB, rB, rK)."""
        points = np.asarray(points, dtype=float)
        return eval_exprs(self.program, self.chart.env(points), points.shape[:-1])


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


def _derivative_along(fib: Fibration, i: int, w: Sequence[Expr]) -> tuple[Expr, ...]:
    """Covariant derivative along base frame i of a kernel-coefficient vector."""
    F = fib.action_matrices[i]
    hor = fib.horizontal_lift(fib.base.frame(i))
    out = []
    for t in range(fib.kernel_rank):
        acc = fib.total.anchor_apply(hor, w[t])
        for s in range(fib.kernel_rank):
            acc = add(acc, mul(F[t][s], w[s]))
        out.append(acc)
    return tuple(out)


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

    anchor = []
    for j in range(rE):
        for a in range(m):
            acc: Expr = ZERO
            for u in range(rB):
                acc = add(acc, mul(fib.projection[u][j], B.anchor[u][a]))
            anchor.append(sub(acc, E.anchor[j][a]))
    out["anchor_match"] = sup(anchor)

    morph = []
    for i in range(rB):
        for j in range(rE):
            for k in range(j + 1, rE):
                acc: Expr = ZERO
                for l in range(rE):
                    acc = add(acc, mul(fib.projection[i][l], E.structure_vector(j, k)[l]))
                for u in range(rB):
                    for v in range(rB):
                        acc = sub(
                            acc,
                            mul(
                                mul(fib.projection[u][j], fib.projection[v][k]),
                                B.structure_vector(u, v)[i],
                            ),
                        )
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
        w_total = Section(
            tuple(
                _sum(mul(omega.entry(i, j)[t], fib.kernel[t][l]) for t in range(rK))
                for l in range(rE)
            )
        )
        for s in range(rK):
            lhs = []
            for t in range(rK):
                acc: Expr = ZERO
                for u in range(rK):
                    acc = add(acc, sub(mul(F[i][t][u], F[j][u][s]), mul(F[j][t][u], F[i][u][s])))
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
        total = [ZERO] * rK
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            Dw = _derivative_along(fib, a, omega.entry(b, c))
            cB = B.structure_vector(a, b)
            for t in range(rK):
                term = Dw[t]
                for u in range(rB):
                    term = sub(term, mul(cB[u], omega.entry(u, c)[t]))
                total[t] = add(total[t], term)
        bianchi.extend(total)
    out["bianchi"] = sup(bianchi)

    return out


def _sum(terms) -> Expr:
    acc: Expr = ZERO
    for t in terms:
        acc = add(acc, t)
    return acc


# --- lifting cubes ----------------------------------------------------------------


def evolve_cube_system(
    A: Algebroid,
    w2_of,
    gamma0: np.ndarray,
    w0: Sequence[np.ndarray],
    N: int,
):
    """Integrate the cube morphism equations along a fresh last axis.

    ``w2_of(eps, G)`` returns the driving coefficient field on the
    transverse grid at parameter ``eps`` and current base points ``G``.
    The base points move along its anchor image while each transverse
    coefficient field picks up the transverse derivative of the driver
    plus their pointwise bracket.  Returns the base point grid, the
    evolved transverse fields and the driver recorded at the nodes.
    """
    h = 1.0 / N
    m = A.chart.dim
    r = A.rank
    k = len(w0)
    # the state packs the base point and then the k transverse fields along its last axis
    slots = [slice(m + i * r, m + (i + 1) * r) for i in range(k)]

    def rhs(eps: float, Y: np.ndarray) -> np.ndarray:
        G = Y[..., :m]
        w2 = w2_of(eps, G)
        dY = np.empty_like(Y)
        dY[..., :m] = np.einsum("...p,...pm->...m", w2, A.anchor_values(G))
        cvals = A.structure_values(G) if k else None
        for i, cols in enumerate(slots):
            grad = np.gradient(w2, h, axis=i, edge_order=2)
            dY[..., cols] = grad + np.einsum("...p,...q,...pql->...l", Y[..., cols], w2, cvals)
        return dY

    try:
        Y = np.moveaxis(rk4(rhs, np.concatenate([gamma0, *w0], axis=-1), N), 0, -2)
    except NonFiniteError as err:  # the lift overflowed on its way out of the chart
        raise ChartEscapeError("cube base points leave the chart box") from err
    gamma = Y[..., :m]
    w_last = np.stack([w2_of(s * h, gamma[..., s, :]) for s in range(N + 1)], axis=-2)
    return gamma, [Y[..., cols] for cols in slots], w_last


def _splitting_values(fib: Fibration, G: np.ndarray) -> np.ndarray:
    return eval_exprs(fib.splitting_program, fib.chart.env(G), G.shape[:-1])


def lift_cube(fib: Fibration, cube: Cube) -> Cube:
    """Horizontal lift of a base cube through the splitting.

    The initial face is lifted recursively, then the last axis is
    integrated.  The projection of the result deviates from the input by
    the usual second-order grid error.
    """
    if cube.algebroid != fib.base:
        raise ValueError("cube must live over the base algebroid of the fibration")
    N = cube.N
    ts = np.linspace(0.0, 1.0, N + 1)
    n = cube.n

    if n == 1:
        gamma0 = cube.gamma[0]
        w0: list[np.ndarray] = []
    else:
        lifted_face = lift_cube(fib, face(cube, axis=n - 1, end=0))
        gamma0 = lifted_face.gamma
        w0 = [lifted_face.coeffs[i] for i in range(n - 1)]

    b_spline = CubicSpline(ts, cube.coeffs[n - 1], axis=n - 1)

    def w2_of(eps: float, G: np.ndarray) -> np.ndarray:
        b = b_spline(eps)
        sigma = _splitting_values(fib, G)
        return np.einsum("...er,...r->...e", sigma, b)

    gamma, W, w_last = evolve_cube_system(fib.total, w2_of, gamma0, w0, N)
    return Cube(fib.total, gamma, np.stack(W + [w_last]))


def project_cube(fib: Fibration, cube: Cube) -> Cube:
    """Push a total cube down to the base through the projection."""
    if cube.algebroid != fib.total:
        raise ValueError("cube must live over the total algebroid of the fibration")
    pvals = eval_exprs(fib.projection_program, fib.chart.env(cube.gamma), cube.gamma.shape[:-1])
    comps = [np.einsum("...ij,...j->...i", pvals, cube.coeffs[i]) for i in range(cube.n)]
    return Cube(fib.base, cube.gamma, np.stack(comps))


# --- parallel transport --------------------------------------------------------------


def transport_matrix(fib: Fibration, path: Cube) -> np.ndarray:
    """Fundamental solution of parallel transport along the last axis of a base cube.

    Every line of nodes along the last axis is a base path, driven by
    the last coefficient field; all of them are transported at once.
    Returns the ``grid + (rK, rK)`` array of matrices carrying a kernel
    vector at the start of each line to each node, so a one-dimensional
    path gives an (N+1, rK, rK) stack.  A trivial covariant action
    short-circuits to identity matrices.
    """
    if path.algebroid != fib.base:
        raise ValueError("transport needs a cube over the base")
    n, N = path.n, path.N
    rK = fib.kernel_rank
    if fib.transport_is_trivial or rK == 0:
        return np.zeros(path.gamma.shape[:-1] + (rK, rK)) + np.eye(rK)

    lines = path.gamma.shape[: n - 1]
    ts = np.linspace(0.0, 1.0, N + 1)
    g_spline = CubicSpline(ts, path.gamma, axis=n - 1)
    b_spline = CubicSpline(ts, path.coeffs[n - 1], axis=n - 1)
    F = fib.action_programs

    def rhs(t: float, V: np.ndarray) -> np.ndarray:
        env = fib.chart.env(g_spline(t))
        b = b_spline(t)
        M = np.zeros(lines + (rK, rK))
        for u in range(fib.base.rank):
            M += b[..., u, None, None] * eval_exprs(F[u], env, lines)
        return -M @ V

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
    gram = [
        [_sum(mul(P[u][l], P[v][l]) for l in range(rE)) for v in range(rB)]
        for u in range(rB)
    ]
    ginv = _symbolic_inverse(gram)
    return tuple(
        tuple(_sum(mul(P[u][l], ginv[u][i]) for u in range(rB)) for i in range(rB))
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
