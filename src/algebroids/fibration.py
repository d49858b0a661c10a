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
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import (
    Algebroid,
    Chart,
    Section,
    antisymmetric_entry,
    antisymmetric_program,
    coerce_matrix,
    fresh,
    jacobi_extension_args,
    make_rep_extension,
    make_tangent,
    pair_table,
    sampled_values,
    sup_norm,
    unit_row,
    wedge,
)
from .expr import ONE, ZERO, DomainError, Expr, NonFiniteError, Program, add, as_expr, compile_exprs, const, div, dot, is_zero, mul, neg, np, split_exprs, sub, total

if TYPE_CHECKING:  # the integrators below import cubes when they run, so describe never loads it
    from .cubes import Cube

__all__ = [
    "Fibration",
    "Curvature2Form",
    "covariant_derivative",
    "curvature",
    "identity_residuals",
    "lift_cube",
    "project_cube",
    "transport_matrix",
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
    surfaces as a domain error at evaluation time.  A structurally zero
    cofactor gives a zero entry, so the folds of ``mul`` and ``add`` drop
    it downstream; a matrix that is not identically singular keeps some
    nonzero cofactor, so the determinant is still divided at every point.
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
        del det  # it refers to itself through its closure cell: emptied, the cycle is gone and no collector is needed
        raise ValueError("matrix is identically singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = det(every[:j] + every[j + 1 :], every[:i] + every[i + 1 :]) if n > 1 else ONE
            if (i + j) % 2 == 1:
                cof = neg(cof)
            row.append(ZERO if is_zero(cof) else div(cof, d))
        out.append(tuple(row))
    del det
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
    def curvature_form(self) -> "Curvature2Form":
        """The :func:`curvature` of the splitting, built once and shared by every reader."""
        return curvature(self)

    @cached_property
    def _w2(self) -> tuple[Expr, ...]:
        """``splitting . b``: the lift of the driver ``#b<u>``, in total coefficients."""
        return tuple(dot(row, fresh("b", (self.base.rank,))) for row in self.splitting)

    @cached_property
    def _lift_programs(self) -> dict[tuple[int, bool], object]:
        return {}

    def _lift(self, k: int, split: bool):
        if (k, split) not in self._lift_programs:
            rE, w2 = self.total.rank, self._w2
            out, y = [*w2, *self.total.anchor_of(Section(w2))], fresh("y", (k, rE))
            for row in y:
                out.extend(wedge(row, w2, self.total.structure, rE))
            names = [*self.chart.coords, *(v.name for v in y.flat)]  # of the state rows after w2's integral
            if split:
                free, table, stage = split_exprs(out, set(names))
                self._lift_programs[k, split] = (free, table, stage, _levels(out, names, rE, self.chart.dim, free, stage))
            else:
                self._lift_programs[k, split] = compile_exprs(out)
        return self._lift_programs[k, split]

    def lift_program(self, k: int) -> Program:
        """Pointwise part of the lift equations with k transverse fields, compiled on first use.

        Over ``#b<u>`` (the driver in base coefficients) and ``#y<i>_<l>``
        (the fields), it returns ``w2 = splitting . b``, its anchor image
        and, for each field y, ``Σ_{p<q} (y_p w2_q - y_q w2_p) c_pq``.
        """
        return self._lift(k, False)

    def lift_split(self, k: int) -> tuple[np.ndarray, Program, Program, tuple]:
        """:meth:`lift_program` split by :func:`expr.split_exprs` at the RK4 state (the coordinates and ``#y``), and its levels.

        Row r of the RK4 state (w2's integral, the point, the fields) has
        rate cell r.  A row's level is 0 if its rate reads no state, else
        one more than the highest level of a row it reads; field i's row l
        also reads what w2's row l reads, through the transverse difference.
        A row in or above a cycle of rows that read each other has level -1.
        The levels are each row's level, then, over the rows a level pass
        runs (only w2's integral and the point if some row has level -1),
        the rows that some cell reads, the rows level by level, and one
        program per level from 1 up, over that level's cells.
        """
        return self._lift(k, True)

    @cached_property
    def field_matrix_program(self) -> Program:
        """The (rE, rE) matrix, over the coordinates and ``#b<u>``, whose entry (l, p) is the coefficient of y_p in a lift field's row l.

        Every field row of :meth:`lift_program` is linear in its field: y
        moves at this matrix times y, plus the transverse difference of w2.
        """
        rE = self.total.rank
        cols = [wedge(unit_row(p, rE), self._w2, self.total.structure, rE) for p in range(rE)]
        return compile_exprs([[col[l] for col in cols] for l in range(rE)])

    @cached_property
    def transport_program(self) -> Program:
        """``-Σ_u b_u F_u`` over the coordinates and ``#b<u>`` (path velocity), F the action matrices; V' is it times V."""
        rB, rK = self.base.rank, self.kernel_rank
        F, b = self.action_matrices, fresh("b", (rB,))
        return compile_exprs([[neg(dot(b, (F[u][t][s] for u in range(rB)))) for s in range(rK)] for t in range(rK)])

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
    """Kernel-valued curvature of a splitting, a pair table on base frame pairs."""

    chart: Chart
    base_rank: int
    kernel_rank: int
    entries: Mapping[tuple[int, int], tuple[Expr, ...]]

    def __post_init__(self):
        entries = pair_table(self.entries, self.base_rank, self.kernel_rank, "curvature")
        object.__setattr__(self, "entries", entries)

    def entry(self, i: int, j: int) -> tuple[Expr, ...]:
        return antisymmetric_entry(self.entries, i, j, self.kernel_rank)

    @cached_property
    def program(self) -> Program:
        return antisymmetric_program(self.entries, self.base_rank, self.kernel_rank)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Antisymmetric value tensor of shape (..., rB, rB, rK)."""
        return self.chart.values(self.program, points)

    @cached_property
    def pairing_program(self) -> Program:
        """``Σ_{p<q} (c0_p c1_q - c0_q c1_p) Ω_pq`` over the fields ``#c0_<p>`` and ``#c1_<q>``."""
        c0, c1 = fresh("c", (2, self.base_rank))
        return compile_exprs(wedge(c0, c1, self.entries, self.kernel_rank))

    def pairing(self, points, coeffs: np.ndarray) -> np.ndarray:
        """Curvature paired node by node, at points (see :meth:`core.Chart.values`), with the two fields stacked on the leading axis of ``coeffs``."""
        return self.chart.values(self.pairing_program, points, c=coeffs.transpose((*range(1, coeffs.ndim - 1), 0, coeffs.ndim - 1)))


def curvature(fib: Fibration) -> Curvature2Form:
    """Failure of the splitting to intertwine brackets, in the kernel frame.

    The value on a frame pair is the bracket of the two horizontal lifts
    minus the lift of the base bracket.
    """
    rB = fib.base.rank
    entries = {}
    for i, j in itertools.combinations(range(rB), 2):
        bi, bj = fib.base.frame(i), fib.base.frame(j)
        total_part = fib.total.bracket(fib.horizontal_lift(bi), fib.horizontal_lift(bj))
        lifted = fib.horizontal_lift(fib.base.bracket(bi, bj))
        entries[(i, j)] = fib.kernel_coefficients(total_part - lifted)
    return Curvature2Form(fib.chart, rB, fib.kernel_rank, entries)


# --- structure-equation residuals ----------------------------------------------


IDENTITY_SEED = 42  # of the sample identity_residuals draws


def identity_residuals(fib: Fibration, n_points: int = 100) -> dict[str, float]:
    """Max-norm residuals of the structure equations over sampled points.

    Keys: ``anchor_match`` (base anchor of the projection against the
    total anchor), ``projection_morphism`` (bracket compatibility of the
    projection), ``splitting_identity`` (projection of the splitting
    against the identity), ``kernel_in_kernel`` (projection of the kernel
    frame), ``curvature_identity`` (``D_i D_j e_s - D_j D_i e_s -
    D_[e_i,e_j] e_s`` through :func:`covariant_derivative`, against the
    bracket with the curvature form) and ``bianchi`` (cyclic covariant
    derivative of the curvature form).  Each family is one program, and
    all six run at the same ``n_points`` points of
    :func:`core.sampled_values`, drawn once under ``IDENTITY_SEED``.
    """
    E, B = fib.total, fib.base
    rE, rB, rK = E.rank, B.rank, fib.kernel_rank
    m = fib.chart.dim
    families: dict[str, list] = {}

    anchor = [
        sub(dot((row[j] for row in fib.projection), (row[a] for row in B.anchor)), E.anchor[j][a])
        for j in range(rE)
        for a in range(m)
    ]
    families["anchor_match"] = anchor

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
    families["projection_morphism"] = morph

    lifts = [fib.project_section(fib.horizontal_lift(B.frame(i))) for i in range(rB)]
    families["splitting_identity"] = [sub(a, b) for i, p in enumerate(lifts) for a, b in zip(p, unit_row(i, rB), strict=True)]
    families["kernel_in_kernel"] = [c for s in range(rK) for c in fib.project_section(fib.kernel_section(s))]

    omega = fib.curvature_form

    def D(i: int, kappa: Section) -> Section:
        return covariant_derivative(fib, B.frame(i), kappa)

    curv = []
    for i, j in itertools.combinations(range(rB), 2):
        w_total = fib.from_kernel_coefficients(omega.entry(i, j))
        for s in range(rK):
            e_s = Section(unit_row(s, rK))
            lhs = D(i, D(j, e_s)) - D(j, D(i, e_s)) - covariant_derivative(fib, B.bracket(B.frame(i), B.frame(j)), e_s)
            rhs = fib.kernel_coefficients(E.bracket(w_total, fib.kernel_section(s)))
            curv.extend(sub(a, b) for a, b in zip(lhs.components, rhs))
    families["curvature_identity"] = curv

    bianchi = []
    for i, j, k in itertools.combinations(range(rB), 3):
        cyclic = []
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            Dw = D(a, Section(omega.entry(b, c)))
            cB = B.structure_vector(a, b)
            terms = []
            for t in range(rK):
                term = Dw[t]
                for u in range(rB):
                    term = sub(term, mul(cB[u], omega.entry(u, c)[t]))
                terms.append(term)
            cyclic.append(terms)
        bianchi.extend(total(col) for col in zip(*cyclic))
    families["bianchi"] = bianchi

    _, values = sampled_values(fib.chart, families.values(), n_points, IDENTITY_SEED)
    return dict(zip(families, map(sup_norm, values)))


# --- lifting cubes ----------------------------------------------------------------


def _levels(cells: list, names: list, rE: int, m: int, free: np.ndarray, stage: Program) -> tuple:
    """The levels of :meth:`Fibration.lift_split` (-1 in or above a cycle) over the lift's rate cells, the state rows after w2's integral named by ``names``.

    ``stage`` is the program of the cells outside ``free``, which a level over those same cells reuses.
    """
    row = {name: rE + r for r, name in enumerate(names)}
    reads = [{row[v] for v in e.variables() if v in row} for e in cells]
    read = set().union(*reads)  # the rows that some cell reads
    for c in range(rE + m, len(cells)):
        reads[c] |= reads[(c - rE - m) % rE]
    level: dict[int, int] = {}
    for _ in cells:  # a pass settles one more row at least, unless the rest read each other in a cycle
        for c, rs in enumerate(reads):
            if c not in level and rs <= level.keys():
                level[c] = 1 + max((level[r] for r in rs), default=-1)
    depth = np.array([level.get(c, -1) for c in range(len(cells))], dtype=int)
    swept = depth if (depth >= 0).all() else np.where(np.arange(len(cells)) < rE + m, depth, -1)  # the rows a level pass runs
    masks = (swept == L for L in range(1, swept.max(initial=0) + 1))
    programs = tuple(stage if (mask != free).all() else compile_exprs(cells, mask) for mask in masks)
    rows = tuple(tuple((swept == L).nonzero()[0].tolist()) for L in range(len(programs) + 1))
    return depth, tuple(r for r in sorted(read) if swept[r] >= 0), rows, programs


def evolve_cube_system(fib: Fibration, b: np.ndarray, gamma0, w0: Sequence[np.ndarray], N: int) -> Cube:
    """Integrate the lift equations of a fibration along a fresh last axis.

    ``gamma0`` is the first face's points (a cube's ``points``, or any
    form :meth:`core.Chart.values` reads) and ``w0`` its k fields.  ``b``
    is the driver in base coefficients at the ``half_steps(N)`` stage
    times, shape transverse grid + (2N+1, rB).  The points move
    along the anchor image of its lift ``w2``, and each transverse field
    picks up the transverse derivative of ``w2`` plus its bracket with
    ``w2``.  The state-free cells of :meth:`Fibration.lift_split` are
    one run over all stage times into a table, and so is the transverse
    difference (:func:`cubes.grid_difference`) of a state-free ``w2``.
    If every rate row has a level, :func:`cubes.rk4_levels` integrates them: level 0
    off the table, each higher level's program run once per stage kind
    over all steps, bound to the stage-state buffers; a field row adds
    the difference of w2's row, over the table or over that row's rates
    at each stage kind.  If only field rows are in or above a cycle, a
    level pass integrates w2's integral and the point, and the fields
    step by :func:`cubes.rk4_linear`: every field row is linear in its
    field, with one matrix for all k fields
    (:attr:`Fibration.field_matrix_program`, run once per stage kind on
    the point's stage states) and, as c, the fields' transverse
    difference, taken over w2's rates at every stage kind.  A sweep
    whose point rows read each other in a cycle, or whose level pass or
    field matrix meets a domain error, steps by :func:`cubes.rk4`, which
    raises in its own stage order: each stage copies its table slice
    into one rate buffer, runs the rest, bound once to views of the RK4
    stage buffer and of a driver buffer that it copies ``b[..., j, :]``
    into, and adds the difference of w2's rates.  ``w2`` at the nodes is
    the table's even rows if state-free, else one run of the field-free
    lift program after the sweep.  Returns the cube over the total
    algebroid whose points are views of the state's point rows and whose
    fields are the transverse fields, then ``w2``.

    The RK4 state matches the lift program's outputs row for row: the
    running integral of ``w2`` (zero at t = 0, dropped after the sweep),
    the point, then the k fields.  Every run is unchecked under the sweep
    rule of :func:`cubes.rk4`; a non-finite value (the lift leaving the
    chart) raises ChartEscapeError.
    """
    from .cubes import ChartEscapeError, Cube, frozen, grid_difference, rk4, rk4_levels, rk4_linear, stage_kinds

    h = 1.0 / N
    m, rE = fib.chart.dim, fib.total.rank
    gamma0, lines = fib.chart._coordinates(gamma0)
    k, n = len(w0), len(lines)  # the fields, and the transverse axes
    # every buffer holds one state or rate entry per row, so that each row and each field is contiguous
    Y0 = np.concatenate([np.zeros((rE,) + lines)] + [p[None] for p in gamma0] + [a.transpose((n, *range(n))) for a in w0])
    rows_last, steps_last = (*range(1, n + 1), 0), (*range(1, n + 2), 0)  # rows moved last: of a state, of one per step
    free, table_program, stage_program, (depth, read, levels, programs) = fib.lift_split(k)
    drive = b.transpose((n, *range(n), n + 1))  # the driver at each stage time
    table = np.empty((2 * N + 1,) + Y0.shape)
    with np.errstate(all="ignore"):  # unchecked, like every stage
        # the table binds no point: the broadcast only gives it its shape
        over_times = np.broadcast_to(Y0[rE : rE + m].transpose(rows_last), table.shape[:1] + lines + (m,))
        fib.chart.bind(table_program, over_times, b=drive).run(table.transpose((0, *range(2, n + 2), 1)), checked=False)
        # the transverse difference of a state-free w2 is state-free too: one block per field
        grad = grid_difference(table[:, :rE], h, range(2, 2 + k)) if k and free[:rE].all() else None

    def bound(program: Program, rows: np.ndarray, driver: np.ndarray):
        """``program`` bound to views of the point and field rows of ``rows``, and to ``driver``."""
        state = rows.transpose((*range(1, rows.ndim), 0))
        y = state[..., rE + m :].reshape(state.shape[:-1] + (k, rE))
        return fib.chart.bind(program, state[..., rE : rE + m], b=driver, y=y)

    def level_pass(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rk4_levels`` over the first ``count`` state rows (all, or w2's integral and the point), then their rates K and stage states S."""
        # the rates of the rows above level 0 and the stage states of the rows read, at each stage kind:
        # one contiguous block per row and kind, so a row that is never written is never touched
        K, S = np.empty((2, 4) + Y0.shape[:1] + (N,) + lines)
        runs = [[bound(p, S[q], d) for q, d in enumerate(stage_kinds(drive))] for p in programs]

        def rates(L: int) -> list:
            for q, run in enumerate(runs[L - 1] if L else ()):
                run.run(K[q].transpose(steps_last), checked=False)
            ks = []
            for r in levels[L]:
                kr = K[:, r] if L else stage_kinds(table[:, r])
                if r >= rE + m:  # field i's row l: plus the transverse difference of w2's row l
                    i, l = divmod(r - rE - m, rE)
                    if free[l]:  # w2's row l is state-free: over the table, and at level 0 one sum over all stage times
                        d = grad[i, :, l] if grad is not None else grid_difference(table[:, l], h, i - n)
                        kr = stage_kinds(np.add(table[:, r], d)) if L == 0 else [np.add(kq, dq, out=kq) for kq, dq in zip(kr, stage_kinds(d))]
                    else:  # w2's row l reads the state, so this row is above level 0: the difference of its rates, added in place
                        kr = grid_difference(K[:, l], h, i - n, out=K[:, r], add=True)
                ks.append(kr)
            return ks

        return rk4_levels(rates, levels, Y0[:count], N, {r: S[:, r] for r in read}), K, S

    def stepped() -> np.ndarray:
        stage, driver, rates = np.empty(Y0.shape), np.empty(b.shape[-1:] + lines), np.empty(Y0.shape)
        lift = bound(stage_program, stage, driver.transpose(rows_last))
        w2, dY = rates[:rE], rates[rE + m :]  # w2's and the k fields' rates
        b_rows, out = b.transpose((n + 1, *range(n + 1))), rates.transpose(rows_last)

        def rhs(j: int, Y: np.ndarray) -> np.ndarray:
            np.copyto(rates, table[j])
            np.copyto(driver, b_rows[..., j])
            lift.run(out, checked=False)
            for i in range(k):
                grid_difference(w2, h, 1 + i, out=dY[i * rE : (i + 1) * rE], add=True)
            return rates

        return rk4(rhs, Y0, N, stage)

    def linear_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A level pass's nodes of w2's integral and the point, then B and c of the fields' rate B y + c at each stage kind.

        Each field is one column: B has shape (4, N) + lines + (rE, rE)
        and c (4, N) + lines + (rE, k).  The table's field cells are zero,
        as each is linear in its field.
        """
        Y, K, S = level_pass(rE + m)
        w = np.array([K[:, l] if depth[l] else stage_kinds(table[:, l]) for l in range(rE)])  # w2's rates at each stage kind
        c = grid_difference(w, h, range(3, 3 + k))  # their transverse differences, one block per field
        B = np.empty((4, N) + lines + (rE, rE))
        for q, b_q in enumerate(stage_kinds(drive)):
            fib.chart.bind(fib.field_matrix_program, S[q, rE : rE + m].transpose(steps_last), b=b_q).run(B[q], checked=False)
        return Y, B, c.transpose((2, 3, *range(4, n + 4), 1, 0))

    def swept() -> np.ndarray:
        """The nodes, level by level, or the fields by their step matrices after a level pass over the rest."""
        try:
            if (depth >= 0).all():
                return level_pass(len(Y0))[0]
            Y, B, c = linear_terms()
        except NonFiniteError:
            raise
        except DomainError:  # rk4 raises it too, or an error that it meets at an earlier stage
            return stepped()
        y = rk4_linear(B, c, Y0[rE + m :].reshape((k, rE) + lines).transpose((*range(2, n + 2), 1, 0)), N)
        return np.concatenate([Y, y.transpose((0, n + 2, n + 1, *range(1, n + 1))).reshape((N + 1, k * rE) + lines)], axis=1)

    try:
        Y = swept() if (depth[: rE + m] >= 0).all() else stepped()
        Y = Y.transpose((*range(2, n + 2), 0, 1))[..., rE:]
        w_nodes = table[::2, :rE].transpose((*range(2, n + 2), 0, 1))  # checked by rk4: the integral of w2 is in the state
        if not free[:rE].all():
            w_nodes = fib.chart.values(fib.lift_program(0), Y[..., :m], b=b[..., ::2, :])[..., :rE]
    except NonFiniteError as err:  # the lift overflowed on its way out of the chart
        raise ChartEscapeError("cube base points leave the chart box") from err
    coeffs = np.empty((k + 1,) + w_nodes.shape)  # the transverse fields, then w2
    coeffs[:k], coeffs[k] = Y[..., m:].reshape(w_nodes.shape[:-1] + (k, rE)).transpose((n + 1, *range(n + 1), n + 2)), w_nodes
    return Cube(fib.total, tuple(Y[..., a] for a in range(m)), frozen(coeffs))


def lift_cube(fib: Fibration, cube: Cube) -> Cube:
    """Horizontal lift of a base cube through the splitting.

    The initial face is lifted recursively, then the last axis is
    integrated.  The projection of the result deviates from the input by
    the usual second-order grid error.
    """
    from .cubes import Spline, face, stage_location

    if cube.algebroid != fib.base:
        raise ValueError("cube must live over the base algebroid of the fibration")
    n, N = cube.n, cube.N
    if n == 1:
        gamma0 = tuple(p[0] for p in cube.points)
        w0: list[np.ndarray] = []
    else:
        lifted_face = lift_cube(fib, face(cube, axis=n - 1, end=0))
        gamma0 = lifted_face.points
        w0 = [lifted_face.coeffs[i] for i in range(n - 1)]

    b = Spline(cube.coeffs[n - 1], axis=n - 1).at(stage_location(N))
    return evolve_cube_system(fib, b, gamma0, w0, N)


def project_cube(fib: Fibration, cube: Cube) -> Cube:
    """Push a total cube down to the base through the projection."""
    from .cubes import Cube, frozen

    if cube.algebroid != fib.total:
        raise ValueError("cube must live over the total algebroid of the fibration")
    pvals = fib.chart.values(fib.projection_program, cube.points)
    return Cube(fib.base, cube.points, frozen(np.einsum("...ij,a...j->a...i", pvals, cube.coeffs)))


# --- parallel transport --------------------------------------------------------------


def transport_matrix(fib: Fibration, path: Cube) -> np.ndarray:
    """Fundamental solution of parallel transport along the last axis of a base cube.

    Every line of nodes along the last axis is a base path, driven by
    the last coefficient field; all of them are transported at once.
    The path and its driver are sampled once, at every RK4 stage time,
    and the fibration's :attr:`Fibration.transport_program` (the rate
    matrix M of V' = M V, which reads no V) is one checked run over all
    of them.  :func:`cubes.rk4_linear` then builds every step's RK4 step
    matrix from M at once and takes one matrix product a step: RK4 in
    exact arithmetic, rounded in another order than :func:`cubes.rk4`.
    Returns the ``grid + (rK, rK)`` array of matrices carrying a kernel
    vector at the start of each line to each node, so a one-dimensional
    path gives an (N+1, rK, rK) stack.  A trivial covariant action
    short-circuits to identity matrices.
    """
    from .cubes import Spline, rk4_linear, stage_kinds, stage_location

    if path.algebroid != fib.base:
        raise ValueError("transport needs a cube over the base")
    n, N = path.n, path.N
    rK = fib.kernel_rank
    if fib.transport_is_trivial:
        return np.zeros(path.coeffs.shape[1:-1] + (rK, rK)) + np.eye(rK)

    stages = stage_location(N)
    g = Spline(path.gamma, axis=n - 1).at(stages)
    b = Spline(path.coeffs[n - 1], axis=n - 1).at(stages)
    M = fib.chart.values(fib.transport_program, g.transpose((n - 1, *range(n - 1), n)), b=b.transpose((n - 1, *range(n - 1), n)))
    V = rk4_linear(stage_kinds(M), None, np.broadcast_to(np.eye(rK), M.shape[1:]), N)
    return V.transpose((*range(1, n), 0, n, n + 1))


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
    """Central line extension over the cotangent algebroid of a bivector.

    It is the rep-extension fibration of :func:`jacobi_extension_args`.
    """
    return rep_extension_fibration(*jacobi_extension_args(chart, bivector))


def rep_extension_fibration(base: Algebroid, fiber_dim: int, action, twist=None) -> Fibration:
    """Extension of a base algebroid by a represented abelian kernel."""
    total = make_rep_extension(base, fiber_dim, action, twist)
    d, rB = fiber_dim, base.rank
    projection = tuple(unit_row(d + i, d + rB) for i in range(rB))
    splitting = tuple(unit_row(j - d, rB) for j in range(d + rB))
    kernel = tuple(unit_row(s, d + rB) for s in range(d))
    return Fibration(total=total, base=base, projection=projection, splitting=splitting, kernel=kernel)


def null_space(M: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal basis of the null space of M, one vector per column.

    Singular values up to ``rcond`` times the largest count as zero.
    """
    _, sv, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(sv > sv.max(initial=0.0) * rcond))
    return vh[rank:].T


KERNEL_RCOND = 1e-10  # the anchor-kernel rank test's rcond, and its drift bar per entry (see anchor_fibration)


def anchor_fibration(
    A: Algebroid,
    splitting: Sequence[Sequence[Expr]],
    n_samples: int = 25,
    seed: int = 0,
) -> Fibration:
    """Fibration of an algebroid over the tangent algebroid via its anchor.

    The kernel frame is detected numerically and must be constant: the
    anchor matrices sampled across the chart have to share one null
    space.  Singular values of the stacked samples up to
    ``KERNEL_RCOND`` times the largest count as zero, so a drift that
    the rank test drops leaves the frame a residual of up to
    ``KERNEL_RCOND`` x sqrt(samples x dim x rank) times the largest
    anchor entry.  The frame must also leave no sampled entry a residual
    above ``KERNEL_RCOND`` times that entry, a bar the rank test alone
    does not enforce.  Basis vectors are sign-fixed by their largest
    entry.

    A run derives each anchor fibration once: the fibration is kept on
    the algebroid object, keyed by the checked splitting, ``n_samples``
    and ``seed``, so every later call with equal ones returns it, with
    its kernel frame, curvature and programs already built.  A call
    that raises keeps nothing.
    """
    chart = A.chart
    m = chart.dim
    rE = A.rank
    splitting = coerce_matrix(splitting, rE, m, "splitting")
    key = (splitting, n_samples, seed)
    if key in A._anchor_fibrations:
        return A._anchor_fibrations[key]
    base = make_tangent(chart)
    projection = tuple(tuple(A.anchor[l][a] for l in range(rE)) for a in range(m))

    pts, _ = sampled_values(chart, (), n_samples, seed)
    rho = A.anchor_values(pts)  # (n, rE, m)
    stacked = rho.transpose(0, 2, 1).reshape(n_samples * m, rE)
    ns = null_space(stacked, rcond=KERNEL_RCOND)
    expected = rE - m
    if ns.shape[1] != expected:
        raise ValueError(
            f"anchor kernel is not a constant rank-{expected} subbundle over the sampled chart"
        )
    scale = float(np.abs(stacked).max(initial=1.0))
    if sup_norm(stacked @ ns) > KERNEL_RCOND * scale:
        raise ValueError("anchor kernel drifts across the chart; no constant frame exists")
    kernel_rows = []
    for s in range(expected):
        col = ns[:, s]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            col = -col
        kernel_rows.append(tuple(const(float(v)) for v in col))
    fib = Fibration(total=A, base=base, projection=projection, splitting=splitting, kernel=tuple(kernel_rows))
    A._anchor_fibrations[key] = fib
    return fib
