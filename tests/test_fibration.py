import numpy as np
import pytest

from algebroids.core import (
    Chart,
    Section,
    check_axioms,
    eval_exprs,
    make_cotangent_poisson,
    make_explicit,
    make_jacobi_extension,
    make_rep_extension,
    make_tangent,
)
from algebroids.cubes import ChartEscapeError, Cube, Spline, cotangent_lift, face, morphism_residual, tangent_lift
from algebroids.expr import ZERO, add, compile_exprs, evaluate, mul, parse, var
from algebroids.fibration import (
    Fibration,
    _add_gradient,
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
    # a driver whose values overflow as the points move is reported as a chart escape:
    # the unit base driver lifts to (exp(1000*x), 0) in the tangent algebroid
    line = make_explicit(PLANE, 1, [["1", "0"]])
    fib = Fibration(make_tangent(PLANE), line, [["1", "0"]], [["exp(1000*x)"], ["0"]], [["0", "1"]])
    gamma0 = np.stack([np.linspace(0.1, 0.5, 9), np.zeros(9)], axis=-1)
    with pytest.raises(ChartEscapeError, match="leave the chart box"):
        evolve_cube_system(fib, lambda eps: np.ones(1), gamma0, [], 8)


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


def _distinct_nodes(rows) -> int:
    seen, stack = set(), [e for row in rows for e in row]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(getattr(e, f) for f in ("arg", "left", "right", "base") if hasattr(e, f))
    return len(seen)


def test_dense_rank_seven_inverse_is_a_small_program():
    n = 7
    names = [[f"m{i}{j}" for j in range(n)] for i in range(n)]
    inverse = _symbolic_inverse([[var(v) for v in row] for row in names])
    # minors are shared, not rebuilt: a plain Laplace expansion makes about 110k node objects
    assert _distinct_nodes(inverse) < 10_000
    program = compile_exprs(inverse)
    assert len(program.ops) < 5000
    rng = np.random.default_rng(3)
    M = rng.uniform(-0.5, 0.5, size=(100, n, n)) + 4.0 * np.eye(n)
    env = {names[i][j]: M[:, i, j] for i in range(n) for j in range(n)}
    np.testing.assert_allclose(evaluate(program, env, (100,)), np.linalg.inv(M), rtol=0, atol=1e-12)


def _fold(pairs):
    acc = ZERO
    for a, b in pairs:
        acc = add(acc, mul(a, b))
    return acc


def test_frame_sums_build_the_same_trees_as_explicit_folds():
    base = make_cotangent_poisson(PLANE, {(0, 1): "1 + x^2"})
    twisted = rep_extension_fibration(
        base, 2, action=[[["x", "y"], ["0", "1"]], [["y", "0"], ["x*y", "2"]]], twist={(0, 1): ["x", "sin(y)"]}
    )
    # shear the splitting by x/y-dependent kernel parts so that the frame inverse is not the identity
    splitting = [list(row) for row in twisted.splitting]
    splitting[0] = [parse("x*y"), parse("1 + y")]
    splitting[1] = [parse("0"), parse("cos(x)")]
    fib = Fibration(twisted.total, base, twisted.projection, splitting, twisted.kernel)
    E, rE, rB, rK = fib.total, fib.total.rank, base.rank, fib.kernel_rank
    X = Section.of(["x", "y^2", "1 + x*y", "sin(x)"])
    Y = Section.of(["x + y", "exp(x)"])
    kappa = Section.of(["y", "x*x"])

    assert fib.horizontal_lift(Y).components == tuple(
        _fold((fib.splitting[j][i], Y[i]) for i in range(rB)) for j in range(rE)
    )
    assert fib.project_section(X).components == tuple(
        _fold((fib.projection[i][j], X[j]) for j in range(rE)) for i in range(rB)
    )
    inv = fib.frame_inverse
    assert fib.kernel_coefficients(X) == tuple(_fold((inv[t][j], X[j]) for j in range(rE)) for t in range(rK))
    assert E.anchor_of(X) == tuple(_fold((X[i], E.anchor[i][a]) for i in range(rE)) for a in range(PLANE.dim))
    F = fib.action_matrices
    for i in range(rB):
        e = base.frame(i)
        hor = fib.horizontal_lift(e)
        reference = []
        for t in range(rK):
            acc = E.anchor_apply(hor, kappa[t])
            for u in range(rB):
                for s in range(rK):
                    acc = add(acc, mul(e[u], mul(F[u][t][s], kappa[s])))
            reference.append(acc)
        assert covariant_derivative(fib, e, kappa).components == tuple(reference)


# --- fused kernels ---------------------------------------------------------------

SPHERE = Chart(coords=("th", "ph"), box=((0.0005, 3.141), (-0.1, 6.4)))


def _rotation_fibration() -> Fibration:
    """Fibration G of the transport_square benchmark: a rotating rank-two kernel, x/y-dependent splitting."""
    T = make_tangent(PLANE)
    action = [[["0", "0"], ["0", "0"]], [["0", "0.7"], ["-0.7", "0"]]]
    R = make_rep_extension(T, 2, action, twist={(0, 1): ["1", "x"]})
    splitting = [["0.3*y", "0"], ["0", "0.3*x"], ["1", "0"], ["0", "1"]]
    return Fibration(R, T, [[0, 0, 1, 0], [0, 0, 0, 1]], splitting, [[1, 0, 0, 0], [0, 1, 0, 0]])


def _sphere_fibration() -> Fibration:
    """The anchor fibration of configs/s2_monodromy.cfg."""
    A = make_jacobi_extension(SPHERE, [["0", "1/sin(th)"], ["-1/sin(th)", "0"]])
    return anchor_fibration(A, [["0", "0"], ["0", "sin(th)"], ["-sin(th)", "0"]])


@pytest.mark.parametrize("make", [_rotation_fibration, _sphere_fibration], ids=["rotation", "sphere"])
def test_fused_kernels_match_the_einsum_forms(make):
    fib = make()
    E, chart = fib.total, fib.chart
    rE, rB, rK = E.rank, fib.base.rank, fib.kernel_rank
    rng = np.random.default_rng(7)
    pts = chart.sample(60, rng)
    env = chart.env(pts)
    b = rng.normal(size=(60, rB))
    fields = rng.normal(size=(60, 2, rE))

    # lift: w2 = sigma . b, its anchor image, and the bracket y . w2 . c of each transverse field
    sigma = eval_exprs(fib.splitting, env, (60,))
    w2 = np.einsum("...er,...r->...e", sigma, b)
    want = [w2, np.einsum("...p,...pm->...m", w2, E.anchor_values(pts))]
    want += [np.einsum("...p,...q,...pql->...l", fields[:, i], w2, E.structure_values(pts)) for i in range(2)]
    got = fib.lift_rates(b, np.concatenate([pts, fields.reshape(60, 2 * rE)], axis=-1))
    np.testing.assert_allclose(got, np.concatenate(want, axis=-1), rtol=1e-12, atol=0)

    # transport: -sum_u b_u F_u(points) V
    F = [eval_exprs(M, env, (60,)) for M in fib.action_matrices]
    V = rng.normal(size=(60, rK, rK))
    M = np.zeros((60, rK, rK))
    for u in range(rB):
        M += b[..., u, None, None] * F[u]
    np.testing.assert_allclose(fib.transport_rates(pts, b, V), -M @ V, rtol=1e-12, atol=0)

    # curvature pairing: sum_pq c0_p c1_q Omega_pqs, without the (rB, rB, rK) tensor
    om = curvature(fib)
    c = rng.normal(size=(2, 60, rB))
    want = np.einsum("...p,...q,...pqs->...s", c[0], c[1], om.values(pts))
    np.testing.assert_allclose(om.pairing(pts, c), want, rtol=1e-12, atol=0)


def test_lift_records_the_driver_at_every_node():
    fib = _rotation_fibration()
    base = tangent_lift(PLANE, ["0.7*t1 + 0.2*sin(3*t2) - 0.5", "0.5*t2 + 0.3*t1*t2 - 0.4"], n=2, N=24)
    lifted_face = lift_cube(fib, face(base, axis=1, end=0))
    b_of = Spline(base.coeffs[1], axis=1)
    N = base.N
    gamma, _, w_last = evolve_cube_system(fib, b_of, lifted_face.gamma, [lifted_face.coeffs[0]], N)
    # the driver re-evaluated after the sweep, at every node
    again = []
    for s in range(N + 1):
        G = gamma[:, s]
        sigma = eval_exprs(fib.splitting, fib.chart.env(G), G.shape[:-1])
        again.append(np.einsum("...er,...r->...e", sigma, b_of(s / N)))
    np.testing.assert_allclose(w_last, np.stack(again, axis=-2), rtol=0, atol=1e-13)


def test_dense_rank_seven_lift_is_a_small_program():
    rE, rB = 7, 3
    rng = np.random.default_rng(4)
    pick = lambda: f"{rng.uniform(0.5, 1.5):.6f}"
    structure = {(p, q): [f"x*{pick()}" for _ in range(rE)] for p in range(rE) for q in range(p + 1, rE)}
    E = make_explicit(PLANE, rE, [[f"y + {pick()}" for _ in range(2)] for _ in range(rE)], structure)
    B = make_explicit(PLANE, rB, [["1", "0"], ["0", "1"], ["1", "1"]])
    splitting = [[f"x - {pick()}" for _ in range(rB)] for _ in range(rE)]
    fib = Fibration(E, B, [[0] * rE] * rB, splitting, [[0] * rE] * (rE - rB))
    program = fib.lift_program(2)
    # each entry is one op: 147 structure, 21 splitting and 14 anchor entries; w2 takes 35 ops
    # and its anchor image 26.  Each field adds 3 ops per stored pair, one product per pair
    # and component, and 20 sums per component: 2 * (21 * 3 + 21 * 7 + 7 * 20) = 700, 943 in all
    assert len(program.ops) < 1000
    pts = PLANE.sample(30, rng)
    b = rng.normal(size=(30, rB))
    fields = rng.normal(size=(30, 2, rE))
    w2 = np.einsum("...er,...r->...e", eval_exprs(fib.splitting, PLANE.env(pts), (30,)), b)
    c = E.structure_values(pts)
    brackets = [np.einsum("...p,...q,...pql->...l", fields[:, i], w2, c) for i in range(2)]
    got = fib.lift_rates(b, np.concatenate([pts, fields.reshape(30, 2 * rE)], axis=-1))
    np.testing.assert_allclose(got[:, rE + 2 :], np.concatenate(brackets, axis=-1), rtol=1e-12)


@pytest.mark.parametrize("shape, axis", [((3, 2), 0), ((97, 3), 0), ((5, 7, 4), 1), ((6, 3, 2), 0)])
def test_transverse_difference_is_numpy_gradient_bitwise(shape, axis):
    rng = np.random.default_rng(11)
    f, out = rng.normal(size=shape), rng.normal(size=shape)
    want = out + np.gradient(f, 1 / 96, axis=axis, edge_order=2)
    _add_gradient(out, f, 1 / 96, axis)
    assert out.tobytes() == want.tobytes()
