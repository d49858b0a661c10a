import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import cubes, expr, fibration, transgression
from algebroids.cli import Workspace, parse_config
from algebroids.core import Chart, make_jacobi_extension, make_rep_extension, make_tangent
from algebroids.cubes import (
    coarsen,
    concat,
    cotangent_lift,
    cutoff,
    cutoff_prime,
    face,
    homotopy_defect,
    path_cube,
    reverse,
    tangent_lift,
)
from algebroids.fibration import (
    Fibration,
    anchor_fibration,
    evolve_cube_system,
    jacobi_fibration,
    rep_extension_fibration,
)
from algebroids.transgression import (
    decompose_path,
    kernel_coefficient_values,
    monodromy_group,
    monodromy_period,
    transgress2_formula,
    transgress_lift,
)

PI = float(np.pi)

PLANE = Chart(("x", "y"), ((-3.0, 3.0), (-3.0, 3.0)))
STD_BIV = [["0", "1"], ["-1", "0"]]


def plane_fibration():
    return jacobi_fibration(PLANE, STD_BIV)


# --- the two surface integrals -------------------------------------------------


def test_separable_square_equals_swept_area():
    fib = plane_fibration()
    comps = ["0.2 + 0.9*t1^2", "-0.3 + 0.5*t2 + 0.4*t2^2"]
    cube = cotangent_lift(PLANE, STD_BIV, comps, n=2, N=64)
    want = 0.9 * 0.9  # (g1(1)-g1(0)) * (g2(1)-g2(0))
    by_lift = transgress_lift(fib, cube)
    by_formula = transgress2_formula(fib, cube)
    assert by_lift.value.shape == (1,)
    assert abs(by_lift.scalar() - want) < 1e-8
    assert abs(by_formula.scalar() - want) < 1e-10
    assert by_lift.method == "lift" and by_formula.method == "formula"
    assert by_lift.face is not None and by_lift.face.n == 1


def test_methods_agree_under_nontrivial_transport():
    base = make_tangent(PLANE)
    fib = rep_extension_fibration(base, 1, [[["0"]], [["0.5"]]], twist={(0, 1): ["1"]})
    assert not fib.transport_is_trivial
    cube = tangent_lift(PLANE, ["t1 - 0.5", "t2 - 0.5"], n=2, N=64)
    want = 2.0 * (1.0 - np.exp(-0.5))
    by_lift = transgress_lift(fib, cube)
    by_formula = transgress2_formula(fib, cube)
    assert abs(by_lift.scalar() - want) < 1e-8
    assert abs(by_formula.scalar() - want) < 1e-4
    assert abs(by_lift.scalar() - by_formula.scalar()) < 1e-4
    # the half-grid estimate brackets the actual formula error
    assert abs(by_formula.scalar() - want) < 4 * by_formula.est_error


def test_annulus_value_concat_and_reversal():
    fib = plane_fibration()
    rho = "0.6 + 0.4*t1"
    comps = [f"({rho})*cos(2*{PI}*t2)", f"({rho})*sin(2*{PI}*t2)"]
    cube = cotangent_lift(PLANE, STD_BIV, comps, n=2, N=128)
    want = PI * (1.0 - 0.36)
    res = transgress2_formula(fib, cube)
    assert abs(res.scalar() - want) < 1e-6
    lifted = transgress_lift(fib, cube)
    assert abs(lifted.scalar() - want) < 1e-2

    # the angular axis closes up, so the cube composes with itself there
    doubled = concat(cube, cube, axis=1)
    res2 = transgress2_formula(fib, doubled)
    assert abs(res2.scalar() - 2 * want) < 1e-3

    flipped = reverse(cube, axis=1)
    res3 = transgress2_formula(fib, flipped)
    assert abs(res3.scalar() + want) < 1e-6


def test_sphere_value_ignores_choice_of_splitting():
    fib = plane_fibration()
    # second splitting differs by a kernel-valued correction
    tweaked = Fibration(
        total=fib.total,
        base=fib.base,
        projection=fib.projection,
        splitting=(("0.3*y", "0.2*x - 0.1*y"),) + fib.splitting[1:],
        kernel=fib.kernel,
    )
    # two independent bumps keep the image honestly two-dimensional
    comps = [
        "0.1 + 12.8*t1*(1 - t1)*t2*(1 - t2)",
        "-0.2 + 30*t1^2*(1 - t1)*t2*(1 - t2)^2",
    ]
    sphere = cotangent_lift(PLANE, STD_BIV, comps, n=2, N=96)
    a = transgress_lift(fib, sphere)
    b = transgress_lift(tweaked, sphere)
    gap = abs(a.scalar() - b.scalar())
    assert gap <= 2 * (a.est_error + b.est_error) + 1e-9

    # on a square with live boundary the splittings genuinely disagree
    square = cotangent_lift(PLANE, STD_BIV, ["t1 - 0.4", "t2 - 0.3"], n=2, N=64)
    c = transgress_lift(fib, square)
    d = transgress_lift(tweaked, square)
    assert abs(c.scalar() - d.scalar()) > 1e-3


def test_transgression_rejects_paths_and_estimates_on_any_grid():
    fib = plane_fibration()
    path = path_cube(fib.base, ["t1 - 0.5", "0"], ["0", "-1"], N=16)
    with pytest.raises(ValueError):
        transgress_lift(fib, path)
    with pytest.raises(ValueError):
        transgress2_formula(fib, path)
    for N in (32, 33):
        cube = cotangent_lift(PLANE, STD_BIV, ["t1 - 0.4", "t2 - 0.3"], n=2, N=N)
        res = transgress2_formula(fib, cube)
        assert np.isfinite(res.est_error)
        assert res.N == N
        assert abs(res.scalar() - 1.0) < 1e-9
    payload = res.as_dict()
    assert payload["method"] == "formula" and payload["N"] == 33


def test_lift_handles_higher_cubes_and_product_fibrations_vanish():
    fib = rep_extension_fibration(make_tangent(PLANE), 1, [[["0"]], [["0"]]])
    assert fib.transport_is_trivial
    comps = ["0.4*t1 + 0.2*t2*t3", "0.3*t2 - 0.1*t1*t3"]
    cube3 = tangent_lift(PLANE, comps, n=3, N=12)
    res = transgress_lift(fib, cube3)
    assert res.face is not None and res.face.n == 2
    assert np.max(np.abs(res.value)) < 1e-10
    kappa = kernel_coefficient_values(fib, res.face.gamma, res.face.coeffs[0])
    assert np.max(np.abs(kappa)) < 1e-10


def test_centrality_guard_blocks_nonabelian_noncentral_kernels():
    from algebroids.core import make_explicit
    from algebroids.transgression import centrality_residual

    # rank four over the plane: solvable kernel u0, u1 with [u0, u1] = u0,
    # horizontal frames h0, h1 with curvature [h0, h1] = u0 (noncentral)
    zero4 = ("0", "0", "0", "0")
    total = make_explicit(
        PLANE,
        rank=4,
        anchor=[["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
        structure={(0, 1): ("1", "0", "0", "0"), (2, 3): ("1", "0", "0", "0")},
    )
    fib = Fibration(
        total=total,
        base=make_tangent(PLANE),
        projection=(("0", "0", "1", "0"), ("0", "0", "0", "1")),
        splitting=(("0", "0"), ("0", "0"), ("1", "0"), ("0", "1")),
        kernel=(("1", "0", "0", "0"), ("0", "1", "0", "0")),
    )
    abelian, central = centrality_residual(fib)
    assert abelian > 0.5 and central > 0.5
    square = tangent_lift(PLANE, ["t1 - 0.5", "t2 - 0.5"], n=2, N=8)
    with pytest.raises(ValueError, match="neither abelian"):
        transgress2_formula(fib, square)

    jac = plane_fibration()
    assert centrality_residual(jac) == (0.0, 0.0)


def test_each_sampled_identity_family_is_one_program(monkeypatch):
    from algebroids import core
    from algebroids.core import check_axioms, make_rep_extension
    from algebroids.transgression import centrality_residual

    calls = []

    def counting(exprs, env, base_shape, **kwargs):
        calls.append(base_shape)
        return evaluate(exprs, env, base_shape, **kwargs)

    evaluate = core.eval_exprs
    monkeypatch.setattr(core, "eval_exprs", counting)
    # the rank-two kernel of the transport_square workload: a flat rotation action and a twist
    w = 0.7
    rotation = [[["0", "0"], ["0", "0"]], [["0", str(w)], [str(-w), "0"]]]
    R = make_rep_extension(make_tangent(PLANE), 2, rotation, twist={(0, 1): ["1", "x"]})
    assert check_axioms(R, tol=1e-8).passed
    assert len(calls) == 2  # all Jacobi triples, then all anchor pairs
    G = Fibration(
        total=R,
        base=make_tangent(PLANE),
        projection=(("0", "0", "1", "0"), ("0", "0", "0", "1")),
        splitting=(("0.3*y", "0"), ("0", "0.3*x"), ("1", "0"), ("0", "1")),
        kernel=(("1", "0", "0", "0"), ("0", "1", "0", "0")),
    )
    calls.clear()
    abelian, central = centrality_residual(G)
    assert abelian == 0.0 and central < 1e-12
    assert len(calls) == 2  # the abelian brackets, then the central ones


@settings(max_examples=15, deadline=None)
@given(
    b=st.floats(-1.5, 1.5).filter(lambda v: abs(v) > 0.05),
    d=st.floats(-1.5, 1.5).filter(lambda v: abs(v) > 0.05),
)
def test_linear_squares_have_product_values(b, d):
    fib = plane_fibration()
    comps = [f"-0.5 + {b}*t1", f"-0.4 + {d}*t2"]
    cube = cotangent_lift(PLANE, STD_BIV, comps, n=2, N=16)
    res = transgress2_formula(fib, cube)
    assert res.scalar() == pytest.approx(b * d, abs=1e-9)


# --- kernel frame bookkeeping ---------------------------------------------------


def test_kernel_coefficients_invert_the_combined_frame():
    eps = 1e-3
    chart = Chart(("th", "ph"), ((eps / 2, PI - eps / 2), (-0.1, 2 * PI + 0.1)))
    A = make_jacobi_extension(chart, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]])
    splitting = [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]]
    fib = anchor_fibration(A, splitting)
    rng = np.random.default_rng(7)
    pts = chart.sample(20, rng)
    kv = rng.normal(size=(20, fib.kernel_rank))
    hv = rng.normal(size=(20, fib.base.rank))

    from algebroids.core import eval_exprs

    K = eval_exprs(fib.kernel, chart.env(pts), (20,))
    S = eval_exprs(fib.splitting, chart.env(pts), (20,))
    w = np.einsum("nsj,ns->nj", K, kv) + np.einsum("njs,ns->nj", S, hv)
    got = kernel_coefficient_values(fib, pts, w)
    assert np.max(np.abs(got - kv)) < 1e-10


# --- monodromy ------------------------------------------------------------------


def sphere_setup(N):
    eps = 1e-3
    chart = Chart(("th", "ph"), ((eps / 2, PI - eps / 2), (-0.1, 2 * PI + 0.1)))
    A = make_jacobi_extension(chart, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]])
    splitting = [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]]
    comps = [f"{eps} + {PI - 2 * eps}*t1", f"{2 * PI}*t2"]
    cube = tangent_lift(chart, comps, n=2, N=N)
    return A, splitting, cube


def test_round_sphere_period_is_total_area():
    A, splitting, cube = sphere_setup(256)
    res = monodromy_period(A, splitting, cube)
    assert abs(res.scalar() - 4 * PI) < 5e-3
    assert res.est_error < 5e-3


def _calls(monkeypatch, name):
    """Arguments of every call of ``cubes.<name>`` from now on."""
    calls = []
    original = getattr(cubes, name)
    monkeypatch.setattr(cubes, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("route", ["monodromy", "formula"])
def test_even_grids_slice_the_half_grid_bitwise(monkeypatch, route):
    if route == "monodromy":
        A, splitting, cube = sphere_setup(40)
        run = lambda c: monodromy_period(A, splitting, c)
    else:
        fib = plane_fibration()
        assert fib.transport_is_trivial
        comps = ["t1 - 0.4 + 0.1*sin(3*t2)", "t2 - 0.3 + 0.2*t1^2"]
        cube = cotangent_lift(PLANE, STD_BIV, comps, n=2, N=40)
        run = lambda c: transgress2_formula(fib, c)
    # the estimate as a rerun on the coarsened cube gives it
    want = float(np.max(np.abs(run(cube).value - run(coarsen(cube)).value)))
    coarsened, resampled = _calls(monkeypatch, "coarsen"), _calls(monkeypatch, "resample")
    got = run(cube)
    assert got.est_error.hex() == want.hex() and want > 0.0
    assert not coarsened and not resampled


def test_odd_grids_resplice_the_half_grid_once(monkeypatch):
    A, splitting, cube = sphere_setup(41)
    resampled, coarsened = _calls(monkeypatch, "resample"), _calls(monkeypatch, "coarsen")
    res = monodromy_period(A, splitting, cube)
    assert [args[1] for args in resampled] == [20] and not coarsened
    assert 0.0 < res.est_error < 5e-2


@pytest.mark.parametrize("N", [41, 24])
def test_both_routes_build_the_half_grid_cube_once(monkeypatch, N):
    # odd N resplices for both routes; even N under nontrivial transport coarsens for both
    if N % 2:
        fib = plane_fibration()
        make = lambda: cotangent_lift(PLANE, STD_BIV, ["t1 - 0.4 + 0.1*sin(3*t2)", "t2 - 0.3"], n=2, N=N)
    else:
        E = make_rep_extension(make_tangent(PLANE), 1, [[["0"]], [["0.5"]]], twist={(0, 1): ["1"]})
        fib = anchor_fibration(E, [["0", "0"], ["1", "0"], ["0", "1"]])
        assert not fib.transport_is_trivial
        make = lambda: tangent_lift(PLANE, ["t1 - 0.5", "t2 - 0.5"], n=2, N=N)
    # each route alone, each on a cube of its own
    want = [transgress2_formula(fib, make()).est_error, transgress_lift(fib, make()).est_error]
    resampled, coarsened = _calls(monkeypatch, "resample"), _calls(monkeypatch, "coarsen")
    cube = make()
    got = [transgress2_formula(fib, cube).est_error, transgress_lift(fib, cube).est_error]
    assert [e.hex() for e in got] == [e.hex() for e in want]
    assert (len(resampled), len(coarsened)) == ((1, 0) if N % 2 else (0, 1))


@pytest.mark.parametrize("shape", [(9,), (9, 9), (9, 9, 2)])
def test_the_weighted_quadrature_is_the_trapezoid_rule(shape):
    field = np.random.default_rng(3).normal(size=shape)
    axes = min(len(shape), 2)
    want = field
    for _ in range(axes):
        want = np.trapezoid(want, dx=1.0 / 8, axis=0)
    np.testing.assert_allclose(transgression._trapezoid(field, 8, axes), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shape", [(4001,), (41, 41, 1)])
def test_the_quadrature_of_a_strided_field_is_that_of_its_copy(shape):
    # a 1-D dot product over a strided vector takes another summation order unless copied
    field = np.random.default_rng(5).normal(size=shape)
    axes = min(len(shape), 2)
    strided = field[(slice(None, None, 2),) * axes]
    assert not strided.flags.c_contiguous
    N = (shape[0] - 1) // 2
    got = transgression._trapezoid(strided, N, axes)
    want = transgression._trapezoid(np.ascontiguousarray(strided), N, axes)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [128, 192])  # 129^2 points run unblocked, 193^2 pass expr.BLOCK
def test_a_sphere_map_that_is_not_separable_has_period_total_area(N, monkeypatch):
    # the sphere square bent in both angles, so every input of the pairing varies along both axes
    A, splitting, _ = sphere_setup(4)
    eps = 1e-3
    comps = [
        f"{eps} + {PI - 2 * eps}*t1 + 0.01*sin({PI}*t1)*sin({2 * PI}*t2)",
        f"{2 * PI}*t2 + 0.05*sin({PI}*t1)",
    ]
    res = monodromy_period(A, splitting, tangent_lift(A.chart, comps, n=2, N=N))
    assert abs(res.scalar() - 4 * PI) < 2e-2
    assert 0.0 < res.est_error < 2e-2
    if (N + 1) ** 2 > expr.BLOCK:  # blocked: the bits of one whole-grid run
        monkeypatch.setattr(expr, "BLOCK", (N + 1) ** 2)
        whole = monodromy_period(A, splitting, tangent_lift(A.chart, comps, n=2, N=N))
        assert (whole.value.tobytes(), whole.est_error) == (res.value.tobytes(), res.est_error)


def test_a_period_under_a_nonzero_covariant_action_is_the_transgression():
    # the algebroid of configs/rep_transport.cfg, whose anchor fibration transports along y
    E = make_rep_extension(make_tangent(PLANE), 1, [[["0"]], [["0.5"]]], twist={(0, 1): ["1"]})
    splitting = [["0", "0"], ["1", "0"], ["0", "1"]]
    square = tangent_lift(PLANE, ["t1 - 0.5", "t2 - 0.5"], n=2, N=48)
    period = monodromy_period(E, splitting, square)
    lifted = transgress_lift(anchor_fibration(E, splitting), square)
    assert period.method == "monodromy"
    # the untransported curvature flux reads 1.0 here, against 2 (1 - exp(-1/2)) = 0.78694
    assert abs(period.scalar() - lifted.scalar()) <= period.est_error + lifted.est_error
    assert abs(period.scalar() - 2.0 * (1.0 - np.exp(-0.5))) < 1e-3


def test_monodromy_group_classifies_period_families():
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    A = make_jacobi_extension(chart, STD_BIV)
    splitting = [["0", "0"], ["0", "1"], ["-1", "0"]]

    def square(sx, sy):
        return tangent_lift(chart, [f"{sx}*t1 - 1.0", f"{sy}*t2 - 1.0"], n=2, N=32)

    rational = monodromy_group(A, splitting, [square(1, 1), square(1, 2), square(1, 3)])
    assert rational.lattice_rank == 1 and rational.discrete
    assert rational.generator == pytest.approx(1.0, abs=1e-9)
    assert (0, 1, 1, 2) in rational.relations

    dense = monodromy_group(A, splitting, [square(1, 1), square(np.sqrt(2.0), 1)])
    assert dense.lattice_rank == 2 and not dense.discrete
    assert dense.generator is None

    degenerate = tangent_lift(chart, ["t1 - 1.0", "0*t2"], n=2, N=32)
    mixed = monodromy_group(
        A, splitting, [square(1, 1), square(1, 0.5), degenerate], labels=["a", "b", "flat"]
    )
    assert mixed.classes == ((0, 1),)
    assert mixed.generator == pytest.approx(0.5, abs=1e-9)
    assert mixed.labels == ("a", "b", "flat")
    assert mixed.basepoint == pytest.approx((-1.0, -1.0))
    assert "discrete" in mixed.summary()
    assert mixed.as_dict()["lattice_rank"] == 1

    empty = monodromy_group(A, splitting, [])
    assert empty.periods == () and empty.lattice_rank == 0 and empty.discrete
    assert empty.basepoint is None and empty.generator is None


def test_monodromy_group_builds_its_anchor_fibration_once(monkeypatch):
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    A = make_jacobi_extension(chart, STD_BIV)
    splitting = [["0", "0"], ["0", "1"], ["-1", "0"]]
    cubes = [tangent_lift(chart, ["t1 - 1.0", f"{s}*t2 - 1.0"], n=2, N=16) for s in (1, 2, 3)]
    built = []
    monkeypatch.setattr(transgression, "anchor_fibration", lambda *a, **k: built.append(1) or anchor_fibration(*a, **k))
    report = monodromy_group(A, splitting, cubes)
    assert len(built) == 1
    monkeypatch.undo()
    # the shared fibration gives each period bitwise as a lone monodromy_period does
    alone = [monodromy_period(A, splitting, c) for c in cubes]
    assert report.periods == tuple(r.scalar() for r in alone)
    assert report.est_errors == tuple(r.est_error for r in alone)


def test_monodromy_report_writes_undefined_estimates_as_null():
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    A = make_jacobi_extension(chart, STD_BIV)
    splitting = [["0", "0"], ["0", "1"], ["-1", "0"]]
    # N = 4 has no half grid, so the first estimate is undefined; N = 8 has one
    cubes = [tangent_lift(chart, ["t1 - 1.0", f"{s}*t2 - 1.0"], n=2, N=N) for s, N in ((1, 4), (2, 8))]
    report = monodromy_group(A, splitting, cubes)
    assert np.isnan(report.est_errors[0]) and np.isfinite(report.est_errors[1])
    data = json.loads(json.dumps(report.as_dict(), allow_nan=False))
    assert data["est_errors"][0] is None and data["est_errors"][1] == report.est_errors[1]


def test_monodromy_group_needs_a_line_kernel():
    from algebroids.core import make_cotangent_poisson

    A = make_cotangent_poisson(PLANE, STD_BIV)
    # anchor is invertible: kernel rank zero
    with pytest.raises(ValueError):
        monodromy_group(A, [["0", "1"], ["-1", "0"]], [])


def test_a_rank_two_value_has_no_scalar_and_a_label_count_must_match():
    w = 0.7
    rotation = [[["0", "0"], ["0", "0"]], [["0", str(w)], [str(-w), "0"]]]
    R = make_rep_extension(make_tangent(PLANE), 2, rotation, twist={(0, 1): ["1", "x"]})
    G = Fibration(
        total=R,
        base=make_tangent(PLANE),
        projection=(("0", "0", "1", "0"), ("0", "0", "0", "1")),
        splitting=(("0.3*y", "0"), ("0", "0.3*x"), ("1", "0"), ("0", "1")),
        kernel=(("1", "0", "0", "0"), ("0", "1", "0", "0")),
    )
    result = transgress2_formula(G, tangent_lift(PLANE, ["0.5*t1 - 0.2", "0.5*t2 - 0.2"], n=2, N=8))
    assert result.value.shape == (2,)
    with pytest.raises(ValueError, match=r"^scalar\(\) needs a rank-one kernel$"):
        result.scalar()

    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    A = make_jacobi_extension(chart, STD_BIV)
    square = tangent_lift(chart, ["t1 - 1.0", "t2 - 1.0"], n=2, N=8)
    with pytest.raises(ValueError, match="^need one label per generator$"):
        monodromy_group(A, [["0", "0"], ["0", "1"], ["-1", "0"]], [square], labels=["a", "b"])


def test_a_period_ratio_below_the_denominator_bound_relates_nothing():
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    A = make_jacobi_extension(chart, STD_BIV)
    splitting = [["0", "0"], ["0", "1"], ["-1", "0"]]
    # periods 0.005 and 1: their ratio is nearer 0 than any fraction of denominator up to 64
    squares = [tangent_lift(chart, [f"{s}*t1 - 1.0", "t2 - 1.0"], n=2, N=32) for s in (0.005, 1)]
    coarse = monodromy_group(A, splitting, squares)
    assert coarse.periods == pytest.approx((0.005, 1.0), abs=1e-9)
    assert coarse.relations == () and coarse.lattice_rank == 2
    fine = monodromy_group(A, splitting, squares, max_denominator=256)
    assert fine.relations == ((0, 1, 1, 200),) and fine.lattice_rank == 1


# --- path decomposition ----------------------------------------------------------


def jacobi_path(N=128):
    fib = plane_fibration()
    comps = ["t1 - 0.4", f"0.3*sin({PI}*t1)"]
    coeffs = [f"0.3*sin({PI}*t1) + 0.1", f"0.3*{PI}*cos({PI}*t1)", "-1"]
    return fib, path_cube(fib.total, comps, coeffs, N=N)


def test_decompose_splits_into_horizontal_and_kernel():
    fib, path = jacobi_path()
    dec = decompose_path(fib, path)
    # the horizontal factor retraces the base curve to the same endpoint
    assert np.max(np.abs(dec.horizontal.gamma[-1] - path.gamma[-1])) < 1e-8
    assert np.max(np.abs(dec.horizontal.gamma - path.gamma)) < 1e-3
    # the kernel factor sits at the endpoint and has no anchor image
    assert np.max(np.abs(dec.kernel_path.gamma - path.gamma[-1])) < 1e-8
    leak = np.max(np.abs(dec.kernel_path.coeffs[0][:, 1:]))
    assert leak < 1e-3
    assert dec.kernel_coefficients.shape == (path.N + 1, 1)


def test_decompose_witness_joins_the_two_factorizations():
    fib, path = jacobi_path()
    dec = decompose_path(fib, path)
    assert homotopy_defect(dec.witness) < 1e-12

    start = face(dec.witness, axis=1, end=0)
    finish = face(dec.witness, axis=1, end=1)
    N = path.N
    ts = np.linspace(0.0, 1.0, N + 1)
    lo = ts <= 0.5

    # the starting face runs the path with a flat stop, then rests
    from scipy.interpolate import CubicSpline

    positions = cutoff(np.clip(2 * ts[lo], 0.0, 1.0))
    slowed = 2 * cutoff_prime(np.clip(2 * ts[lo], 0.0, 1.0))[:, None] * CubicSpline(
        ts, path.coeffs[0], axis=0
    )(positions)
    assert np.max(np.abs(start.coeffs[0][lo] - slowed)) < 1e-9
    assert np.max(np.abs(start.coeffs[0][~lo])) < 1e-12

    # the finishing face is the glued horizontal-then-kernel path
    glued = concat(dec.horizontal, dec.kernel_path, axis=0)
    assert np.max(np.abs(finish.gamma - glued.gamma)) < 1e-9
    assert np.max(np.abs(finish.coeffs - glued.coeffs)) < 1e-9

    # both vertical edges of the witness stay pinned
    assert np.max(np.abs(dec.witness.gamma[0] - path.gamma[0])) < 1e-12
    assert np.max(np.abs(dec.witness.gamma[-1] - path.gamma[-1])) < 1e-12


def test_decompose_kernel_part_without_curvature_is_exact():
    line = Chart(("x",), ((-2.0, 2.0),))
    base = make_tangent(line)
    fib = rep_extension_fibration(base, 1, [[["0"]]])
    k = f"0.3*sin({PI}*t1) + 0.1"
    path = path_cube(fib.total, ["t1 - 0.5"], [k, "1"], N=128)
    dec = decompose_path(fib, path)
    ts = np.linspace(0.0, 1.0, 129)
    want = 0.3 * np.sin(PI * ts) + 0.1
    assert np.max(np.abs(dec.kernel_coefficients[:, 0] - want)) < 1e-10


def test_decompose_kernel_part_is_transported_to_the_endpoint():
    line = Chart(("x",), ((-2.0, 2.0),))
    base = make_tangent(line)
    fib = rep_extension_fibration(base, 1, [[["1"]]])
    assert not fib.transport_is_trivial
    k = f"0.3*sin({PI}*t1) + 0.1"
    path = path_cube(fib.total, ["t1 - 0.5"], [k, "1"], N=128)
    dec = decompose_path(fib, path)
    ts = np.linspace(0.0, 1.0, 129)
    want = np.exp(-(1.0 - ts)) * (0.3 * np.sin(PI * ts) + 0.1)
    assert np.max(np.abs(dec.kernel_coefficients[:, 0] - want)) < 1e-8


def test_decompose_horizontal_input_has_no_kernel_part():
    fib = plane_fibration()
    # coefficients are exactly the horizontal shadow of the velocity
    comps = ["t1 - 0.4", f"0.3*sin({PI}*t1)"]
    coeffs = ["0", f"0.3*{PI}*cos({PI}*t1)", "-1"]
    path = path_cube(fib.total, comps, coeffs, N=128)
    dec = decompose_path(fib, path)
    assert np.max(np.abs(dec.kernel_coefficients)) < 1e-3
    # and the horizontal factor is the path itself up to grid error
    assert np.max(np.abs(dec.horizontal.gamma - path.gamma)) < 1e-3


def test_decompose_vertical_input_returns_it_verbatim():
    fib = plane_fibration()
    k = f"0.4 + 0.2*cos({PI}*t1)"
    path = path_cube(fib.total, ["0.3", "-0.2"], [k, "0", "0"], N=64)
    dec = decompose_path(fib, path)
    # base shadow is the constant path, so the horizontal factor rests
    assert np.max(np.abs(dec.horizontal.coeffs)) < 1e-12
    assert np.max(np.abs(dec.horizontal.gamma - path.gamma[0])) < 1e-12
    # the kernel factor reproduces the input path exactly
    assert np.max(np.abs(dec.kernel_path.coeffs - path.coeffs)) < 1e-12
    ts = np.linspace(0.0, 1.0, 65)
    assert dec.kernel_coefficients[:, 0] == pytest.approx(0.4 + 0.2 * np.cos(PI * ts))


def test_decompose_rejects_squares_and_foreign_cubes():
    fib, path = jacobi_path(N=16)
    square = cotangent_lift(PLANE, STD_BIV, ["t1 - 0.4", "t2 - 0.3"], n=2, N=16)
    with pytest.raises(ValueError):
        decompose_path(fib, square)
    base_path = path_cube(fib.base, ["t1 - 0.5", "0"], ["0", "-1"], N=16)
    with pytest.raises(ValueError):
        decompose_path(fib, base_path)


def test_a_path_split_runs_one_sweep(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[4])
        return evolve_cube_system(*args)

    # lift_cube reaches the sweep through the fibration module, decompose_path through its own import
    monkeypatch.setattr(fibration, "evolve_cube_system", counted)
    monkeypatch.setattr(transgression, "evolve_cube_system", counted)
    fib, path = jacobi_path(N=32)
    decompose_path(fib, path)
    assert calls == [32]


def test_both_factors_are_faces_of_the_square_the_witness_is_built_from(monkeypatch, tmp_path):
    # the path split of the benchmark's plane_lift config at seed 11
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload_of, N = importlib.import_module("workloads").WORKLOADS["plane_lift"]
    ws = Workspace(parse_config(workload_of(11, N).text), tmp_path)
    fib = ws.build("fibration", "F")
    dec = decompose_path(fib, ws.build("cube", "path"))
    for factor, (axis, end) in ((dec.horizontal, (0, 0)), (dec.kernel_path, (1, 1))):
        edge = face(dec.square, axis, end)
        assert factor.gamma.tobytes() == edge.gamma.tobytes()
        assert factor.coeffs.tobytes() == edge.coeffs.tobytes()
    np.testing.assert_array_equal(
        dec.kernel_coefficients,
        kernel_coefficient_values(fib, dec.kernel_path.gamma, dec.kernel_path.coeffs[0]),
    )


def test_the_kernel_factor_starts_where_the_horizontal_factor_ends_bit_for_bit():
    # a bivector that varies with x, on an odd N, where a lift of the projected
    # path run apart from the square ends some ulps away from its edge
    fib = jacobi_fibration(PLANE, [["0", "1 + x^2"], ["-1 - x^2", "0"]])
    comps = ["t1 - 0.4", f"0.3*sin({PI}*t1)"]
    coeffs = [f"0.3*sin({PI}*t1) + 0.1", f"0.3*{PI}*cos({PI}*t1) + 0.07*t1", "-1 + 0.2*t1^2"]
    dec = decompose_path(fib, path_cube(fib.total, comps, coeffs, N=17))
    assert dec.horizontal.gamma[-1].tobytes() == dec.kernel_path.gamma[0].tobytes()


def test_a_period_related_to_the_first_only_through_a_third_gets_its_exact_ratio():
    chart = Chart(("x", "y"), ((-4.0, 4.0), (-4.0, 4.0)))
    A = make_jacobi_extension(chart, STD_BIV)
    splitting = [["0", "0"], ["0", "1"], ["-1", "0"]]

    def square(sx, sy):
        return tangent_lift(chart, [f"{sx}*t1 - 1.0", f"{sy}*t2 - 1.0"], n=2, N=32)

    # periods 5, 7 and 1: 5/7 has no approximant with denominator at most 4, 5/1 and 7/1 do
    report = monodromy_group(A, splitting, [square(2.5, 2), square(3.5, 2), square(1, 1)], max_denominator=4)
    assert report.periods == pytest.approx((5.0, 7.0, 1.0), abs=1e-9)
    assert [r[:2] for r in report.relations] == [(0, 2), (1, 2)]
    assert report.classes == ((0, 1, 2),) and report.discrete
    # 7/5 read off the periods would be approximated by 4/3, giving the generator 1/3
    assert report.generator == pytest.approx(1.0, abs=1e-9)
