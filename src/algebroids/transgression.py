"""Kernel-valued surface integrals, their monodromy, and path splitting.

A square in the base of a fibration sweeps out a kernel quantity in two
independent ways.  Lifting the square horizontally and reading the
kernel residue off the final face gives one number per kernel frame;
pairing the curvature of the splitting with the square's coefficient
fields and integrating gives another.  The two agree up to grid error,
and the pair is the main consistency check this module provides.

A monodromy period is the transgression of a square through the
anchor fibration of an algebroid over its tangent algebroid, taken by
the formula route, so there is one flux quadrature.  On top of the
surface integrals sit two consumers: a commensurability report for the
periods of a family of spheres, and a constructive decomposition of a
total-space path into a horizontal path followed by a kernel path,
together with an explicit homotopy witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import Algebroid, sampled_values, sup_norm
from .cubes import Cube, Spline, bicubic, cutoff, cutoff_prime, face, frozen, half_steps, seam
from .expr import compact_part
from .fibration import (
    Fibration,
    anchor_fibration,
    evolve_cube_system,
    lift_cube,
    project_cube,
    transport_matrix,
)

__all__ = [
    "TransgressionResult",
    "kernel_coefficient_values",
    "centrality_residual",
    "transgress_lift",
    "transgress2_formula",
    "monodromy_period",
    "MonodromyReport",
    "monodromy_group",
    "PathDecomposition",
    "decompose_path",
]


@dataclass(frozen=True, eq=False)
class TransgressionResult:
    """One kernel-frame value per slot plus a half-grid error estimate."""

    value: np.ndarray
    est_error: float
    method: str
    N: int
    face: Optional[Cube] = None

    def scalar(self) -> float:
        if self.value.size != 1:
            raise ValueError("scalar() needs a rank-one kernel")
        return float(self.value[0])

    def as_dict(self) -> dict:
        return {
            "value": [float(v) for v in self.value],
            "est_error": float(self.est_error) if math.isfinite(self.est_error) else None,
            "method": self.method,
            "N": self.N,
        }


def kernel_coefficient_values(fib: Fibration, points, w: np.ndarray) -> np.ndarray:
    """Kernel-frame coefficients of total-frame coefficient vectors at points (see :meth:`core.Chart.values`)."""
    inv = fib.chart.values(fib.frame_inverse_program, points)
    rK = fib.kernel_rank
    return np.einsum("...ij,...j->...i", inv[..., :rK, :], w)


def _require_cube(cube: Cube, over: Algebroid, what: str, n: Optional[int] = 2) -> None:
    if n is not None and cube.n != n:
        raise ValueError(f"{what} needs a {n}-dimensional cube")
    if cube.algebroid != over:
        raise ValueError(f"{what} needs a cube over the expected algebroid")


def _trapezoid(field: np.ndarray, N: int, axes: int) -> np.ndarray:
    """Trapezoid rule over the leading ``axes`` grid axes of a node field.

    The field is cut to its :func:`expr.compact_part` first.  An axis it
    varies along is one contraction against the trapezoid weights
    (``1/N``, and ``0.5/N`` at both ends) of the cut field copied to
    contiguous memory, so the value does not depend on the layout: the
    (1, N+1) by (N+1, rest) matrix product that ``np.tensordot`` makes; an
    axis it is broadcast along holds one node, which is multiplied by
    the summed weights.  No temporary is the size of the field, and
    ``field[::2, ::2]`` gives bitwise the value of its compact copy, as a
    rerun on the coarsened cube would.
    """
    w, total = _trapezoid_weights(N)
    field = compact_part(field)
    for _ in range(axes):
        field = total * field[0] if len(field) == 1 else np.dot(w, np.ascontiguousarray(field).reshape(len(field), -1)).reshape(field.shape[1:])
    return field


@lru_cache(maxsize=8)
def _trapezoid_weights(N: int) -> tuple:
    """The read-only trapezoid weights of N steps, as one (1, N+1) row, and their sum, built once per N."""
    w = np.full((1, N + 1), 1.0 / N)
    w[0, [0, -1]] = 0.5 / N
    return frozen(w), w.sum()


def _with_estimate(compute, cube: Cube):
    """Run a grid functional at full and half resolution.

    ``compute(c)`` returns ``(value, face, field)`` on the cube ``c``: the
    value, the face it read (or None), and, when the value is the double
    trapezoid of a pointwise integrand, that integrand's node field (else
    None).  The difference between the values at N and N/2 is the
    reported error estimate, and only degenerate node counts (N < 6)
    leave it undefined.  On even N a node field is sliced: the half-grid
    value is the trapezoid of ``field[::2, ::2]``, which holds the nodes
    of the coarsened cube and, of a broadcast field, is a broadcast along
    the same axes, so it is bitwise the value a rerun on that cube would
    give, without a second cube or evaluation; the finiteness, chart-box
    and domain checks a rerun would make cover a subset of the nodes the
    full cube and evaluation already checked.  The formula
    route with trivial transport or no kernel slices, as every sphere
    monodromy period does.  The lift route and nontrivial transport
    rerun on the coarsened cube, and every route reruns on odd N, on
    the cube respliced onto the half grid; that cube is built once per
    cube (see :attr:`Cube.half`).
    """
    value, face_cube, field = compute(cube)
    if cube.N < 6:
        return value, float("nan"), face_cube
    if field is not None and cube.N % 2 == 0:
        hvalue = _trapezoid(field[::2, ::2], cube.N // 2, 2)
    else:
        hvalue = compute(cube.half)[0]
    return value, sup_norm(value - hvalue), face_cube


CENTRALITY_POINTS, CENTRALITY_SEED = 25, 0  # the sample centrality_residual draws


def centrality_residual(fib: Fibration) -> tuple[float, float]:
    """Sampled failure of the kernel to be abelian and of the curvature to be central.

    Returns the pair (abelian residual, centrality residual): the kernel
    frame brackets and the brackets of the curvature values with the
    kernel frame, each group one program at the ``CENTRALITY_POINTS``
    points of :func:`core.sampled_values`.  The integral formulas below
    summarize a kernel class by its frame coefficients, which is
    meaningful when the kernel is abelian or at least the curvature
    values commute with the kernel; callers gate on the smaller of the
    two numbers.
    """
    rK = fib.kernel_rank
    kernel = [fib.kernel_section(s) for s in range(rK)]
    abelian = [
        fib.total.bracket(kernel[s], kernel[t]).components for s in range(rK) for t in range(s + 1, rK)
    ]
    central = [
        fib.total.bracket(w, k).components
        for w in map(fib.from_kernel_coefficients, fib.curvature_form.entries.values())
        for k in kernel
    ]
    _, values = sampled_values(fib.chart, (abelian, central), CENTRALITY_POINTS, CENTRALITY_SEED)
    return tuple(map(sup_norm, values))


def _check_centrality(fib: Fibration, tol: Optional[float], what: str) -> None:
    if tol is None or fib.kernel_rank <= 1:
        return
    abelian, central = centrality_residual(fib)
    if min(abelian, central) > tol:
        raise ValueError(
            f"{what}: kernel is neither abelian (residual {abelian:.3e}) "
            f"nor curvature-central (residual {central:.3e})"
        )


def transgress_lift(fib: Fibration, cube: Cube) -> TransgressionResult:
    """Kernel residue read off the final face of the horizontal lift.

    The base cube is lifted through the splitting, the face at the end
    of the last axis is extracted, and its kernel coefficients are
    integrated over the remaining axes.  The face itself is returned so
    callers can inspect or compose it.  Works for any cube dimension at
    least two; only the two-dimensional case carries cross-checks
    against the closed formula.
    """
    _require_cube(cube, fib.base, "transgress_lift", n=None)
    if cube.n < 2:
        raise ValueError("transgress_lift needs a cube of dimension at least two")

    def compute(c: Cube):
        lifted = lift_cube(fib, c)
        top = face(lifted, axis=c.n - 1, end=1)
        kappa = kernel_coefficient_values(fib, top.points, top.coeffs[0])
        return _trapezoid(kappa, c.N, c.n - 1), top, None

    value, est, top = _with_estimate(compute, cube)
    return TransgressionResult(value=value, est_error=est, method="lift", N=cube.N, face=top)


def transgress2_formula(
    fib: Fibration,
    cube: Cube,
    centrality_tol: Optional[float] = 1e-6,
) -> TransgressionResult:
    """Surface integral as a transported curvature pairing.

    At every node the curvature of the splitting is paired with the two
    coefficient fields; with a nontrivial covariant action each column
    of values is carried to the end of the last axis by parallel
    transport before the double trapezoid rule is applied.  The
    transport direction matches the lift construction, so the two
    methods agree on any square, not only on collapsed-boundary ones.
    Requires an abelian kernel or central curvature values (checked on
    a sample; pass ``centrality_tol=None`` to skip).
    """
    _require_cube(cube, fib.base, "transgress2_formula")
    _check_centrality(fib, centrality_tol, "transgress2_formula")
    om = fib.curvature_form

    def compute(c: Cube):
        field = om.pairing(c.points, c.coeffs)
        if fib.transport_is_trivial:
            return _trapezoid(field, c.N, 2), None, field
        V = transport_matrix(fib, c)
        back = np.linalg.solve(V, field[..., None])[..., 0]
        return _trapezoid(np.einsum("ist,ijt->ijs", V[:, -1], back), c.N, 2), None, None

    value, est, _ = _with_estimate(compute, cube)
    return TransgressionResult(value=value, est_error=est, method="formula", N=cube.N, face=None)


def monodromy_period(
    A: Algebroid,
    splitting: Sequence[Sequence],
    cube: Cube,
    n_samples: int = 25,
    seed: int = 0,
    centrality_tol: Optional[float] = 1e-6,
) -> TransgressionResult:
    """Kernel period of a tangent square: the transgression through the anchor fibration.

    The algebroid is fibred over its own tangent algebroid via the
    anchor, with the supplied splitting, and the square is transgressed
    by :func:`transgress2_formula`: the curvature pairing, carried by
    parallel transport wherever the covariant action is nonzero.  The
    result is that of the formula route, labelled ``"monodromy"``.  The
    fibration is :func:`fibration.anchor_fibration`'s, derived once per
    algebroid, splitting, ``n_samples`` and ``seed``, so every period
    and group over them shares its curvature and programs.
    """
    fib = anchor_fibration(A, splitting, n_samples=n_samples, seed=seed)
    return replace(transgress2_formula(fib, cube, centrality_tol), method="monodromy")


@dataclass(frozen=True)
class MonodromyReport:
    """Commensurability structure of a family of periods.

    ``relations`` lists accepted rational matches ``(i, j, p, q)`` with
    ``periods[i] approximately equal to (p/q) periods[j]``.  Periods that
    are numerically zero join no class.  The subgroup generated by the
    periods is discrete precisely when all nonzero periods fall into one
    rational class.  The discreteness flag is a sampled heuristic, never
    a verdict.
    """

    basepoint: Optional[tuple[float, ...]]
    labels: tuple[str, ...]
    periods: tuple[float, ...]
    est_errors: tuple[float, ...]
    relations: tuple[tuple[int, int, int, int], ...]
    classes: tuple[tuple[int, ...], ...]
    lattice_rank: int
    discrete: bool
    generator: Optional[float]

    def summary(self) -> str:
        lines = []
        for label, p in zip(self.labels, self.periods):
            lines.append(f"{label}: period {p:.9g}")
        for i, j, p, q in self.relations:
            lines.append(f"  period[{i}] = {p}/{q} * period[{j}]")
        kind = "discrete" if self.discrete else "dense"
        lines.append(f"lattice rank {self.lattice_rank} ({kind} subgroup)")
        if self.generator is not None:
            lines.append(f"generator {self.generator:.9g}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "basepoint": None if self.basepoint is None else list(self.basepoint),
            "labels": list(self.labels),
            "periods": list(self.periods),
            "est_errors": [e if math.isfinite(e) else None for e in self.est_errors],
            "relations": [list(r) for r in self.relations],
            "classes": [list(c) for c in self.classes],
            "lattice_rank": self.lattice_rank,
            "discrete": self.discrete,
            "generator": self.generator,
        }


# tolerance of monodromy_group: PERIOD_ERR_SCALE half-grid error estimates plus PERIOD_ATOL
PERIOD_ATOL = 1e-9
PERIOD_ERR_SCALE = 10.0


def monodromy_group(
    A: Algebroid,
    splitting: Sequence[Sequence],
    cubes: Sequence[Cube],
    labels: Optional[Sequence[str]] = None,
    max_denominator: int = 64,
    n_samples: int = 25,
    seed: int = 0,
) -> MonodromyReport:
    """Rational relations among the periods of a family of squares.

    Each period is the transgression of its square through one anchor
    fibration, as :func:`monodromy_period` takes it, and the same one:
    it is derived once per algebroid, splitting, ``n_samples`` and
    ``seed``.  Each ratio of nonzero periods is matched against its best
    rational approximant with bounded denominator; a match is accepted
    only when it sits within the propagated half-grid error estimates
    (scaled by ``PERIOD_ERR_SCALE``) plus ``PERIOD_ATOL``.  Needs a
    rank-one kernel, where commensurability of scalars is meaningful.
    """
    from fractions import Fraction  # imports decimal; only a monodromy group needs it
    fib = anchor_fibration(A, splitting, n_samples=n_samples, seed=seed)
    if fib.kernel_rank != 1:
        raise ValueError("commensurability analysis needs a rank-one anchor kernel")

    if labels is None:
        labels = tuple(f"S{i}" for i in range(len(cubes)))
    else:
        labels = tuple(labels)
        if len(labels) != len(cubes):
            raise ValueError("need one label per generator")
    basepoint = tuple(float(v) for v in cubes[0].basepoint) if cubes else None

    results = [transgress2_formula(fib, c) for c in cubes]
    periods = tuple(r.scalar() for r in results)
    errors = tuple(r.est_error for r in results)

    finite = [e if math.isfinite(e) else 0.0 for e in errors]
    nonzero = [i for i in range(len(periods)) if abs(periods[i]) > PERIOD_ERR_SCALE * finite[i] + PERIOD_ATOL]

    relations: list[tuple[int, int, int, int]] = []
    for a in range(len(nonzero)):
        for b in range(a + 1, len(nonzero)):
            i, j = nonzero[a], nonzero[b]
            ratio = periods[i] / periods[j]
            frac = Fraction(ratio).limit_denominator(max_denominator)
            if frac == 0:
                continue
            tol = PERIOD_ATOL / abs(periods[j]) + PERIOD_ERR_SCALE * (
                errors[i] + errors[j] * abs(ratio)
            ) / abs(periods[j])
            if not math.isfinite(tol):
                continue
            if abs(ratio - float(frac)) <= tol:
                relations.append((i, j, frac.numerator, frac.denominator))

    # one walk over the relations per class, from its smallest member: each member's period
    # over that member's is the product of the accepted ratios along the walk, exact even for
    # a member related to it only through a third period, whose ratio to it may have a
    # denominator beyond max_denominator
    to_ref: dict[int, Fraction] = {}
    classes = []
    for ref in nonzero:
        if ref in to_ref:
            continue
        to_ref[ref] = Fraction(1)
        members, reached = [ref], [ref]
        while reached:
            u = reached.pop()
            for i, j, p, q in relations:
                for a, b, over in ((i, j, Fraction(q, p)), (j, i, Fraction(p, q))):
                    if a == u and b not in to_ref:
                        to_ref[b] = to_ref[u] * over
                        members.append(b)
                        reached.append(b)
        classes.append(tuple(sorted(members)))
    rank = len(classes)
    discrete = rank <= 1

    generator: Optional[float] = None
    if rank == 1:
        # the gcd of the ratios to the smallest member: of their numerators over the lcm of their denominators
        num, den = math.gcd(*(r.numerator for r in to_ref.values())), math.lcm(*(r.denominator for r in to_ref.values()))
        generator = abs(periods[classes[0][0]]) * (num / den)

    return MonodromyReport(
        basepoint=basepoint,
        labels=labels,
        periods=periods,
        est_errors=errors,
        relations=tuple(relations),
        classes=tuple(classes),
        lattice_rank=rank,
        discrete=discrete,
        generator=generator,
    )


# --- path decomposition -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathDecomposition:
    """A path split into horizontal and kernel parts, with its witness.

    ``witness`` is a square whose deformation faces are the original
    path (slowed to a flat stop, then padded with a constant tail) and
    the concatenation of ``horizontal`` with ``kernel_path``.  Its
    deformation component vanishes identically on both vertical edges,
    so it certifies the two faces as endpoint-fixed deformations of one
    another.  ``kernel_coefficients`` carries the kernel path in the
    kernel frame, one row per node.
    """

    base: Cube
    horizontal: Cube
    kernel_path: Cube
    witness: Cube
    square: Cube
    kernel_coefficients: np.ndarray


def decompose_path(fib: Fibration, cube: Cube) -> PathDecomposition:
    """Split a total-space path into horizontal and kernel factors.

    A deformation square is grown from the path: its driving component
    interpolates between the path's own horizontal shadow at the left
    edge and rest at the right edge, so the base point of each slice
    slides to the endpoint of the path.  Both factors are faces of that
    one square: the left edge is the horizontal lift of the projected
    path, and the top edge, a path with vanishing anchor image, is the
    kernel factor.  Pulling the square back along boundary routes of
    the unit square produces the witness.

    The witness's deformation field ``w_e`` is built as exact zeros on
    its two vertical edges (s = 0 and s = N): the seam positions there
    are exactly (0, 0) and (1, 1), so ``dH_de`` is 0.  Its
    :func:`cubes.homotopy_defect`, which reads only those edges, is
    therefore 0.0 by construction; a non-finite field is refused when
    the witness cube is built.  The defect certifies the construction,
    not the numbers on the interior.
    """
    _require_cube(cube, fib.total, "decompose_path", n=1)

    N = cube.N
    ts = np.linspace(0.0, 1.0, N + 1)
    base = project_cube(fib, cube)

    # the driver at slice t and deformation eps is (1 - t) b(1 - (1 - t)(1 - eps))
    b = (1.0 - ts)[:, None, None] * Spline(base.coeffs[0])(1.0 - np.outer(1.0 - ts, 1.0 - half_steps(N)))
    square = evolve_cube_system(fib, b, cube.points, [cube.coeffs[0]], N)
    horizontal, kernel_path = face(square, 0, 0), face(square, 1, 1)
    kappa = kernel_coefficient_values(fib, kernel_path.points, kernel_path.coeffs[0])

    # boundary routes of the unit square: r0 runs the bottom edge then the right
    # edge, r1 the left edge then the top edge, each half slowed by the seam so
    # the corner is passed at zero speed; off its own half a seam position is
    # exactly 0 or 1 and a seam speed exactly 0, so they serve as they stand
    first, second, first_speed, second_speed = seam(N)
    r0, r1 = (first, second), (second, first)
    d0, d1 = (first_speed, second_speed), (second_speed, first_speed)
    tau = cutoff(ts)
    tau_p = cutoff_prime(ts)
    H = [
        r0[c][:, None] * (1.0 - tau)[None, :] + r1[c][:, None] * tau[None, :]
        for c in range(2)
    ]
    dH_dt = [
        d0[c][:, None] * (1.0 - tau)[None, :] + d1[c][:, None] * tau[None, :]
        for c in range(2)
    ]
    dH_de = [(r1[c] - r0[c])[:, None] * tau_p[None, :] for c in range(2)]

    # H is located once for the three fields, each splined on its own
    w_gamma, xi1, xi2 = bicubic([square.gamma, square.coeffs[0], square.coeffs[1]], H[0], H[1])
    w = np.empty((2,) + xi1.shape)  # the witness's fields w_t and w_e
    for dH, into in zip((dH_dt, dH_de), w):
        np.add(dH[0][..., None] * xi1, dH[1][..., None] * xi2, out=into)
    witness = Cube(fib.total, frozen(w_gamma), frozen(w))

    return PathDecomposition(
        base=base,
        horizontal=horizontal,
        kernel_path=kernel_path,
        witness=witness,
        square=square,
        kernel_coefficients=kappa,
    )
