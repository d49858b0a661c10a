"""Kernel-valued surface integrals, their monodromy, and path splitting.

A square in the base of a fibration sweeps out a kernel quantity in two
independent ways.  Lifting the square horizontally and reading the
kernel residue off the final face gives one number per kernel frame;
pairing the curvature of the splitting with the square's coefficient
fields and integrating gives another.  The two agree up to grid error,
and the pair is the main consistency check this module provides.

On top of the surface integrals sit two consumers: a commensurability
report for the periods of a family of spheres, and a constructive
decomposition of a total-space path into a horizontal path followed by
a kernel path, together with an explicit homotopy witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import Algebroid, Section, eval_exprs
from .cubes import Cube, Spline, bicubic, coarsen, cutoff, cutoff_prime, face, resample
from .fibration import (
    Fibration,
    anchor_fibration,
    curvature,
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


def kernel_coefficient_values(fib: Fibration, points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kernel-frame coefficients of total-frame coefficient vectors at points."""
    points = np.asarray(points, dtype=float)
    inv = eval_exprs(fib.frame_inverse_program, fib.chart.env(points), points.shape[:-1])
    rK = fib.kernel_rank
    return np.einsum("...ij,...j->...i", inv[..., :rK, :], w)


def _require_cube(fib: Fibration, cube: Cube, over: Algebroid, what: str, n: Optional[int] = 2) -> None:
    if n is not None and cube.n != n:
        raise ValueError(f"{what} needs a {n}-dimensional cube")
    if cube.algebroid != over:
        raise ValueError(f"{what} needs a cube over the expected algebroid")


def _trapezoid(field: np.ndarray, N: int, axes: int) -> np.ndarray:
    """Trapezoid rule over the leading ``axes`` grid axes of a node field."""
    for _ in range(axes):
        field = np.trapezoid(field, dx=1.0 / N, axis=0)
    return field


def _with_estimate(compute, cube: Cube):
    """Run a grid functional at full and half resolution.

    The difference across one refinement is the reported error estimate.
    Even grids are thinned exactly; odd grids are respliced onto the
    half grid first.  Only degenerate node counts leave the estimate
    undefined.
    """
    value, face_cube = compute(cube)
    if cube.N >= 6:
        half = coarsen(cube) if cube.N % 2 == 0 else resample(cube, cube.N // 2)
        hvalue, _ = compute(half)
        est = float(np.max(np.abs(value - hvalue))) if value.size else 0.0
    else:
        est = float("nan")
    return value, est, face_cube


def centrality_residual(fib: Fibration, n_points: int = 25, seed: int = 0) -> tuple[float, float]:
    """Sampled failure of the kernel to be abelian and of the curvature to be central.

    Returns the pair (abelian residual, centrality residual).  The
    integral formulas below summarize a kernel class by its frame
    coefficients, which is meaningful when the kernel is abelian or at
    least the curvature values commute with the kernel; callers gate on
    the smaller of the two numbers.
    """
    rK = fib.kernel_rank
    rng = np.random.default_rng(seed)
    pts = fib.chart.sample(n_points, rng)
    env = fib.chart.env(pts)

    def sup(section: Section) -> float:
        vals = eval_exprs(tuple(section.components), env, pts.shape[:-1])
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    abelian = 0.0
    for s in range(rK):
        for t in range(s + 1, rK):
            abelian = max(abelian, sup(fib.total.bracket(fib.kernel_section(s), fib.kernel_section(t))))

    central = 0.0
    for vec in curvature(fib).entries.values():
        w = fib.from_kernel_coefficients(vec)
        for t in range(rK):
            central = max(central, sup(fib.total.bracket(w, fib.kernel_section(t))))
    return abelian, central


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
    _require_cube(fib, cube, fib.base, "transgress_lift", n=None)
    if cube.n < 2:
        raise ValueError("transgress_lift needs a cube of dimension at least two")

    def compute(c: Cube):
        lifted = lift_cube(fib, c)
        top = face(lifted, axis=c.n - 1, end=1)
        kappa = kernel_coefficient_values(fib, top.gamma, top.coeffs[0])
        return _trapezoid(kappa, c.N, c.n - 1), top

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
    _require_cube(fib, cube, fib.base, "transgress2_formula")
    _check_centrality(fib, centrality_tol, "transgress2_formula")
    om = curvature(fib)

    def compute(c: Cube):
        field = om.pairing(c.gamma, c.coeffs)
        if not fib.transport_is_trivial and fib.kernel_rank:
            V = transport_matrix(fib, c)
            back = np.linalg.solve(V, field[..., None])[..., 0]
            field = np.einsum("ist,ijt->ijs", V[:, -1], back)
        return _trapezoid(field, c.N, 2), None

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
    """Kernel period of a tangent square through the anchor fibration.

    The algebroid is fibred over its own tangent algebroid via the
    anchor, the supplied splitting is checked for shape, and the
    curvature pairing is integrated over the square.  No transport enters
    here; the quantity is the raw curvature flux through the surface.
    """
    fib = anchor_fibration(A, splitting, n_samples=n_samples, seed=seed)
    _require_cube(fib, cube, fib.base, "monodromy_period")
    _check_centrality(fib, centrality_tol, "monodromy_period")
    om = curvature(fib)

    def compute(c: Cube):
        return _trapezoid(om.pairing(c.gamma, c.coeffs), c.N, 2), None

    value, est, _ = _with_estimate(compute, cube)
    return TransgressionResult(value=value, est_error=est, method="monodromy", N=cube.N, face=None)


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


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def monodromy_group(
    A: Algebroid,
    splitting: Sequence[Sequence],
    cubes: Sequence[Cube],
    labels: Optional[Sequence[str]] = None,
    max_denominator: int = 64,
    atol: float = 1e-9,
    err_scale: float = 10.0,
    n_samples: int = 25,
    seed: int = 0,
) -> MonodromyReport:
    """Rational relations among the periods of a family of squares.

    Each ratio of nonzero periods is matched against its best rational
    approximant with bounded denominator; a match is accepted only when
    it sits within the propagated half-grid error estimates (scaled by
    ``err_scale``) plus ``atol``.  Needs a rank-one kernel, where
    commensurability of scalars is meaningful.
    """
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

    results = [monodromy_period(A, splitting, c, n_samples=n_samples, seed=seed) for c in cubes]
    periods = tuple(r.scalar() for r in results)
    errors = tuple(r.est_error for r in results)

    n = len(periods)
    nonzero = [i for i in range(n) if abs(periods[i]) > err_scale * (errors[i] if math.isfinite(errors[i]) else 0.0) + atol]

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    relations: list[tuple[int, int, int, int]] = []
    ratio_of: dict[tuple[int, int], Fraction] = {}
    for a in range(len(nonzero)):
        for b in range(a + 1, len(nonzero)):
            i, j = nonzero[a], nonzero[b]
            ratio = periods[i] / periods[j]
            frac = Fraction(ratio).limit_denominator(max_denominator)
            if frac == 0:
                continue
            tol = atol / abs(periods[j]) + err_scale * (
                errors[i] + errors[j] * abs(ratio)
            ) / abs(periods[j])
            if not math.isfinite(tol):
                continue
            if abs(ratio - float(frac)) <= tol:
                relations.append((i, j, frac.numerator, frac.denominator))
                ratio_of[(i, j)] = frac
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in nonzero:
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    rank = len(classes)
    discrete = rank <= 1

    generator: Optional[float] = None
    if rank == 1:
        members = classes[0]
        ref = members[0]
        fracs = [Fraction(1)]
        ok = True
        for i in members[1:]:
            if (i, ref) in ratio_of:
                fracs.append(ratio_of[(i, ref)])
            elif (ref, i) in ratio_of:
                fracs.append(1 / ratio_of[(ref, i)])
            else:
                frac = Fraction(periods[i] / periods[ref]).limit_denominator(max_denominator)
                if frac == 0:
                    ok = False
                    break
                fracs.append(frac)
        if ok:
            g = fracs[0]
            for f in fracs[1:]:
                g = _fraction_gcd(g, abs(f))
            generator = abs(periods[ref]) * float(g)

    return MonodromyReport(
        basepoint=basepoint,
        labels=labels,
        periods=periods,
        est_errors=errors,
        relations=tuple(relations),
        classes=classes,
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


def _two_branch(ts: np.ndarray):
    """Boundary routes of the unit square and their speeds.

    The first route runs the bottom edge then the right edge, the second
    the left edge then the top edge, each half reparametrized by the
    flat-ended cutoff so the corner is passed at zero speed.
    """
    lo = ts <= 0.5
    s_lo = cutoff(np.clip(2.0 * ts, 0.0, 1.0))
    s_hi = cutoff(np.clip(2.0 * ts - 1.0, 0.0, 1.0))
    v_lo = 2.0 * cutoff_prime(np.clip(2.0 * ts, 0.0, 1.0))
    v_hi = 2.0 * cutoff_prime(np.clip(2.0 * ts - 1.0, 0.0, 1.0))
    zero = np.zeros_like(ts)
    one = np.ones_like(ts)
    r0 = (np.where(lo, s_lo, one), np.where(lo, zero, s_hi))
    r1 = (np.where(lo, zero, s_hi), np.where(lo, s_lo, one))
    d0 = (np.where(lo, v_lo, zero), np.where(lo, zero, v_hi))
    d1 = (np.where(lo, zero, v_hi), np.where(lo, v_lo, zero))
    return r0, r1, d0, d1


def decompose_path(fib: Fibration, cube: Cube) -> PathDecomposition:
    """Split a total-space path into horizontal and kernel factors.

    A deformation square is grown from the path: its driving component
    interpolates between the path's own horizontal shadow at the left
    edge and rest at the right edge, so the base point of each slice
    slides to the endpoint of the path.  The top edge is then a path
    with vanishing anchor image, the kernel factor.  Pulling the square
    back along boundary routes of the unit square produces the witness.
    """
    _require_cube(fib, cube, fib.total, "decompose_path", n=1)

    N = cube.N
    ts = np.linspace(0.0, 1.0, N + 1)
    base = project_cube(fib, cube)
    horizontal = lift_cube(fib, base)

    b_spline = Spline(base.coeffs[0])
    fade = (1.0 - ts)[:, None]

    def b_of(eps: float) -> np.ndarray:
        return fade * b_spline(1.0 - (1.0 - ts) * (1.0 - eps))

    sq_gamma, W, w_last = evolve_cube_system(fib, b_of, cube.gamma, [cube.coeffs[0]], N)
    square = Cube(fib.total, sq_gamma, np.stack([W[0], w_last]))

    top_gamma = sq_gamma[:, -1]
    top_w = W[0][:, -1]
    kernel_path = Cube(fib.total, top_gamma, top_w[None])
    kappa = kernel_coefficient_values(fib, top_gamma, top_w)

    r0, r1, d0, d1 = _two_branch(ts)
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

    w_gamma = bicubic(sq_gamma, H[0], H[1])
    xi1 = bicubic(W[0], H[0], H[1])
    xi2 = bicubic(w_last, H[0], H[1])
    w_t = dH_dt[0][..., None] * xi1 + dH_dt[1][..., None] * xi2
    w_e = dH_de[0][..., None] * xi1 + dH_de[1][..., None] * xi2
    witness = Cube(fib.total, w_gamma, np.stack([w_t, w_e]))

    return PathDecomposition(
        base=base,
        horizontal=horizontal,
        kernel_path=kernel_path,
        witness=witness,
        square=square,
        kernel_coefficients=kappa,
    )
