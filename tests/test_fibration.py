import numpy as np
import pytest

from algebroids.core import Chart, Section, check_axioms, make_jacobi_extension, make_tangent
from algebroids.cubes import ChartEscapeError, Cube, cotangent_lift, morphism_residual, tangent_lift
from algebroids.expr import compile_exprs, evaluate, parse, var
from algebroids.fibration import (
    _symbolic_inverse,
    anchor_fibration,
    covariant_derivative,
    curvature,
    evolve_cube_system,
    identity_residuals,
    jacobi_fibration,
    lift_cube,
    parallel_transport,
    project_cube,
    rep_extension_fibration,
    splitting_from_projection,
    transport_matrix,
)

PLANE = Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))
SPACE = Chart(coords=("x", "y", "z"), box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)))


def test_jacobi_fibration_layout_and_residuals():
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    assert fib.kernel_rank == 1
    res = identity_residuals(fib, n_points=60)
    assert max(res.values()) < 1e-12
    assert fib.transport_is_trivial


def test_jacobi_fibration_variable_bivector_residuals():
    fib = jacobi_fibration(PLANE, {(0, 1): "1 + x^2"})
    res = identity_residuals(fib, n_points=60)
    assert max(res.values()) < 1e-10


def test_curvature_sign_and_value():
    # the curvature of the tautological splitting returns the bivector
    # entry itself, with a positive sign in the kernel slot
    fib = jacobi_fibration(PLANE, {(0, 1): "1 + x^2"})
    omega = curvature(fib)
    ent = omega.entry(0, 1)
    assert float(evaluate(ent[0], {"x": 0.5, "y": -1.0})) == pytest.approx(1.25)
    flipped = omega.entry(1, 0)
    assert float(evaluate(flipped[0], {"x": 0.5, "y": -1.0})) == pytest.approx(-1.25)
    vals = omega.values(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert vals.shape == (2, 2, 2, 1)
    np.testing.assert_allclose(vals[:, 0, 1, 0], [1.0, 2.0])
    np.testing.assert_allclose(vals[:, 1, 0, 0], [-1.0, -2.0])


def test_rep_extension_fibration_flat_closed():
    fib = rep_extension_fibration(make_tangent(PLANE), 1, action=[[["0"]], [["0"]]], twist={(0, 1): ["1"]})
    res = identity_residuals(fib, n_points=50)
    assert max(res.values()) < 1e-12
    omega = curvature(fib)
    assert float(evaluate(omega.entry(0, 1)[0], {"x": 0.0, "y": 0.0})) == pytest.approx(1.0)


def test_rep_extension_action_enters_covariant_derivative():
    fib = rep_extension_fibration(
        make_tangent(Chart(coords=("x",), box=((-2.0, 2.0),))), 1, action=[[["2"]]]
    )
    F = fib.action_matrices
    assert float(evaluate(F[0][0][0], {"x": 0.3})) == pytest.approx(2.0)
    D = covariant_derivative(fib, Section.of(["1"]), Section.of(["x"]))
    # derivative part differentiates along the horizontal image, action
    # part multiplies by the matrix
    assert float(evaluate(D[0], {"x": 0.5})) == pytest.approx(1.0 + 2.0 * 0.5)


def test_covariant_derivative_is_a_derivation():
    fib = rep_extension_fibration(make_tangent(PLANE), 1, action=[[["y"]], [["0"]]])
    X = Section.of(["1", "x"])
    kappa = Section.of(["1"])
    f = parse("x*y + 1")
    lhs = covariant_derivative(fib, X, kappa.scaled(f))
    hor = fib.horizontal_lift(X)
    rhs = covariant_derivative(fib, X, kappa).scaled(f) + kappa.scaled(fib.total.anchor_apply(hor, f))
    env = {"x": 0.4, "y": -0.7}
    assert float(evaluate(lhs[0], env)) == pytest.approx(float(evaluate(rhs[0], env)), abs=1e-12)


def test_curvature_identity_detects_nonflat_action():
    fib = rep_extension_fibration(make_tangent(PLANE), 1, action=[[["y"]], [["0"]]])
    res = identity_residuals(fib, n_points=50)
    assert res["curvature_identity"] == pytest.approx(1.0, abs=1e-12)
    # the total algebroid is equally unhappy
    assert not check_axioms(fib.total, n_points=50).passed


def test_bianchi_detects_nonclosed_twist():
    fib = rep_extension_fibration(
        make_tangent(SPACE), 1, action=[[["0"]], [["0"]], [["0"]]], twist={(0, 1): ["z"]}
    )
    res = identity_residuals(fib, n_points=50)
    assert res["bianchi"] == pytest.approx(1.0, abs=1e-12)
    assert res["curvature_identity"] < 1e-12
    closed = rep_extension_fibration(
        make_tangent(SPACE), 1, action=[[["0"]], [["0"]], [["0"]]], twist={(0, 1): ["x"]}
    )
    assert max(identity_residuals(closed, n_points=50).values()) < 1e-12


def test_anchor_fibration_kernel_detection():
    from algebroids.core import make_jacobi_extension

    A = make_jacobi_extension(PLANE, {(0, 1): "1"})
    sigma = [["0", "0"], ["0", "1"], ["-1", "0"]]
    fib = anchor_fibration(A, sigma)
    assert fib.kernel_rank == 1
    np.testing.assert_allclose(
        [float(evaluate(k, {})) for k in fib.kernel[0]], [1.0, 0.0, 0.0]
    )
    res = identity_residuals(fib, n_points=50)
    assert max(res.values()) < 1e-10
    # curvature in the kernel slot is the bivector entry, positively
    omega = curvature(fib)
    assert float(evaluate(omega.entry(0, 1)[0], {"x": 0.1, "y": 0.2})) == pytest.approx(1.0)


def test_anchor_fibration_rejects_varying_kernel():
    from algebroids.core import make_explicit

    line = Chart(coords=("x",), box=((0.5, 1.5),))
    A = make_explicit(line, 2, [["1"], ["x"]])
    with pytest.raises(ValueError, match="kernel"):
        anchor_fibration(A, [["1"], ["0"]])


def test_splitting_from_projection():
    sigma = splitting_from_projection([["0", "0", "-1"], ["0", "1", "0"]])
    vals = [[float(evaluate(e, {})) for e in row] for row in sigma]
    np.testing.assert_allclose(vals, [[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


# --- lifting ---------------------------------------------------------------------


def test_lift_path_and_project_back():
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    base = cotangent_lift(PLANE, {(0, 1): "1"}, ["t1", "0.5*t1^2"], n=1, N=64)
    lifted = lift_cube(fib, base)
    assert lifted.algebroid == fib.total
    # kernel slot of a horizontal lift stays zero
    assert float(np.max(np.abs(lifted.coeffs[0][..., 0]))) < 1e-12
    back = project_cube(fib, lifted)
    gap = max(
        float(np.max(np.abs(back.gamma - base.gamma))),
        float(np.max(np.abs(back.coeffs - base.coeffs))),
    )
    assert gap < 5.0 / 64**2


def test_lift_square_is_morphism_and_projects_back():
    fib = jacobi_fibration(PLANE, {(0, 1): "1 + x^2"})
    base = cotangent_lift(
        PLANE, {(0, 1): "1 + x^2"}, ["0.2*t1 + 0.3*t1^2", "0.4*sin(t2)"], n=2, N=64
    )
    lifted = lift_cube(fib, base)
    res = morphism_residual(lifted)
    assert res.base < 5.0 / 64**2
    assert res.structure < 5e-3
    back = project_cube(fib, lifted)
    gap = max(
        float(np.max(np.abs(back.gamma - base.gamma))),
        float(np.max(np.abs(back.coeffs - base.coeffs))),
    )
    assert gap < 5.0 / 64**2


def test_overflowing_lift_is_a_chart_escape():
    # a driver whose values overflow as the points move is reported as a chart escape
    A = make_tangent(PLANE)
    driver = Section((parse("exp(1000*x)"), parse("0")))
    gamma0 = np.stack([np.linspace(0.1, 0.5, 9), np.zeros(9)], axis=-1)
    with pytest.raises(ChartEscapeError, match="leave the chart box"):
        evolve_cube_system(A, lambda eps, G: driver.values(PLANE, G), gamma0, [], 8)


def test_lift_rejects_wrong_base():
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    wrong = tangent_lift(PLANE, ["t1", "0"], n=1, N=8)
    with pytest.raises(ValueError, match="base algebroid"):
        lift_cube(fib, wrong)
    with pytest.raises(ValueError, match="total algebroid"):
        project_cube(fib, wrong)


# --- transport -------------------------------------------------------------------


def test_transport_trivial_action_is_identity():
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    base = cotangent_lift(PLANE, {(0, 1): "1"}, ["t1", "t1^2"], n=1, N=16)
    V = transport_matrix(fib, base)
    np.testing.assert_array_equal(V, np.broadcast_to(np.eye(1), (17, 1, 1)))


def test_transport_matches_exponential():
    line = Chart(coords=("x",), box=((-2.0, 2.0),))
    fib = rep_extension_fibration(make_tangent(line), 1, action=[[["1"]]])
    path = tangent_lift(line, ["t1"], n=1, N=128)
    v = parallel_transport(fib, path, [1.0])
    ts = np.linspace(0, 1, 129)
    np.testing.assert_allclose(v[:, 0], np.exp(-ts), atol=1e-9)


def test_transport_with_position_dependent_action():
    line = Chart(coords=("x",), box=((-2.0, 2.0),))
    fib = rep_extension_fibration(make_tangent(line), 1, action=[[["x"]]])
    path = tangent_lift(line, ["t1"], n=1, N=128)
    v = parallel_transport(fib, path, [2.0])
    # v' = -t v along the unit-speed path, so v(1) = 2 exp(-1/2)
    assert v[-1, 0] == pytest.approx(2.0 * np.exp(-0.5), abs=1e-9)


@pytest.mark.parametrize(
    "fiber_dim, action",
    [(2, [[["0", "1.3"], ["-1.3", "0"]]]), (1, [[["x"]]])],
    ids=["rotation", "position_dependent"],
)
def test_transport_on_a_square_matches_its_columns(fiber_dim, action):
    line = Chart(coords=("x",), box=((-2.0, 2.0),))
    fib = rep_extension_fibration(make_tangent(line), fiber_dim, action=action)
    square = tangent_lift(line, ["0.8*t1 - 0.6*t2 + 0.5*t1*t2^2"], n=2, N=8)
    V = transport_matrix(fib, square)
    assert V.shape == (9, 9, fiber_dim, fiber_dim)
    for i in range(9):
        column = Cube(fib.base, square.gamma[i], square.coeffs[1][i][None])
        np.testing.assert_allclose(V[i], transport_matrix(fib, column), rtol=0, atol=1e-14)


_TRANSCENDENTAL = {"sin", "cos", "exp", "log", "sqrt"}


def test_sphere_curvature_compiles_to_two_transcendentals():
    # the monodromy geometry of configs/s2_monodromy.cfg
    sphere = Chart(coords=("th", "ph"), box=((0.0005, 3.141), (-0.1, 6.4)))
    A = make_jacobi_extension(sphere, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]])
    fib = anchor_fibration(A, [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]])
    om = curvature(fib)
    (entry,) = om.entries[(0, 1)]
    assert str(entry).count("sin(") + str(entry).count("cos(") == 21
    assert sum(op[0] in _TRANSCENDENTAL for op in om.program.ops) == 2
    pts = sphere.sample(40, np.random.default_rng(5))
    vals = om.values(pts)
    want = evaluate(entry, sphere.env(pts))
    np.testing.assert_array_equal(vals[:, 0, 1, 0], want)
    np.testing.assert_array_equal(vals[:, 1, 0, 0], -want)
    assert not vals[:, [0, 1], [0, 1]].any()


def test_dense_rank_seven_inverse_is_a_small_program():
    n = 7
    names = [[f"m{i}{j}" for j in range(n)] for i in range(n)]
    program = compile_exprs(_symbolic_inverse([[var(v) for v in row] for row in names]))
    assert len(program.ops) < 5000
    rng = np.random.default_rng(3)
    M = rng.uniform(-0.5, 0.5, size=(100, n, n)) + 4.0 * np.eye(n)
    env = {names[i][j]: M[:, i, j] for i in range(n) for j in range(n)}
    np.testing.assert_allclose(evaluate(program, env, (100,)), np.linalg.inv(M), rtol=0, atol=1e-12)
