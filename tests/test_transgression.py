import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.core import Chart, make_jacobi_extension, make_tangent
from algebroids.cubes import (
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
    glued = concat(dec.horizontal, dec.kernel_path, axis=0, tol=1e-4)
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
