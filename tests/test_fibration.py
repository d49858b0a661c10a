import copy
import gc
import pickle
import re

import numpy as np
import pytest

from algebroids import core, fibration
from algebroids import cubes as cubes_module
from algebroids import expr as expr_module
from algebroids.core import (
    Chart,
    Section,
    check_axioms,
    eval_exprs,
    fresh,
    make_cotangent_poisson,
    make_explicit,
    make_jacobi_extension,
    make_lie_algebra,
    make_rep_extension,
    make_tangent,
    point_chart,
)
from algebroids.cubes import ChartEscapeError, Cube, Spline, cotangent_lift, face, half_steps, morphism_residual, rk4, tangent_lift
from algebroids.expr import ZERO, DomainError, NonFiniteError, add, compile_exprs, dot, evaluate, mul, neg, parse, var
from algebroids.transgression import kernel_coefficient_values, transgress2_formula
from algebroids.fibration import (
    Curvature2Form,
    Fibration,
    _symbolic_inverse,
    anchor_fibration,
    covariant_derivative,
    curvature,
    evolve_cube_system,
    identity_residuals,
    jacobi_fibration,
    lift_cube,
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


@pytest.mark.parametrize(
    "chart, bivector, twist",
    [
        (PLANE, {(0, 1): "1"}, {(0, 1): ["1"]}),
        (PLANE, [["0", "1 + x^2"], ["-1 - x^2", "0"]], {(0, 1): ["1 + x^2"]}),
        (
            SPACE,
            [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
            {(0, 1): ["z"], (0, 2): ["-y"], (1, 2): ["x"]},
        ),
    ],
    ids=["constant", "variable", "3d"],
)
def test_jacobi_extension_is_the_rep_extension_twisted_by_the_bivector(chart, bivector, twist):
    # the central line with the zero action, and the bivector as its 2-cocycle
    base = make_cotangent_poisson(chart, bivector)
    zero = [[["0"]]] * chart.dim
    assert make_jacobi_extension(chart, bivector) == make_rep_extension(base, 1, zero, twist=twist)
    fib, rep = jacobi_fibration(chart, bivector), rep_extension_fibration(base, 1, zero, twist=twist)
    assert (fib.total, fib.base) == (rep.total, rep.base)
    assert (fib.projection, fib.splitting, fib.kernel) == (rep.projection, rep.splitting, rep.kernel)


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


def test_curvature_identity_sees_the_commutator_of_a_nonabelian_action():
    # the pure gauge g = exp(xA) exp(yB): a flat connection whose two action
    # matrices do not commute, so [F_x, F_y] enters the curvature identity
    twist = {(0, 1): ["1", "x"]}
    action_y = [["0", "0"], ["1", "0"]]
    fib = rep_extension_fibration(make_tangent(PLANE), 2, [[["y", "1"], ["-y^2", "-y"]], action_y], twist=twist)
    assert max(identity_residuals(fib, n_points=50).values()) < 1e-12
    assert check_axioms(fib.total, n_points=50).passed
    bent = rep_extension_fibration(make_tangent(PLANE), 2, [[["0", "1"], ["0", "0"]], action_y], twist=twist)
    assert identity_residuals(bent, n_points=50)["curvature_identity"] == pytest.approx(1.0, abs=1e-12)


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


def test_identity_residuals_draw_their_sample_once(monkeypatch):
    fib = rep_extension_fibration(
        make_tangent(SPACE), 1, action=[[["y"]], [["0"]], [["0"]]], twist={(0, 1): ["z"]}
    )
    draws = []
    sample = Chart.sample
    monkeypatch.setattr(Chart, "sample", lambda self, n, rng: draws.append(n) or sample(self, n, rng))
    got = identity_residuals(fib, n_points=40)
    assert draws == [40]

    def one_draw_per_family(chart, families, n_points, seed):
        return None, [core.sampled_values(chart, [f], n_points, seed)[1][0] for f in families]

    monkeypatch.setattr(fibration, "sampled_values", one_draw_per_family)
    want = identity_residuals(fib, n_points=40)
    assert len(draws) == 7
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
    assert want["curvature_identity"] > 0.5 and want["bianchi"] > 0.5


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


def test_a_kernel_drift_below_the_rank_test_is_refused_at_the_defaults():
    line = Chart(coords=("x",), box=((0.5, 1.5),))
    # at 25 samples the drift's singular value is 8e-11 of the largest, so the rank test keeps one kernel
    # direction, whose residual reaches 1.7e-10 of the largest anchor entry
    A = make_explicit(line, 2, [["1"], ["1 + 5e-10*x"]])
    with pytest.raises(ValueError, match="^anchor kernel drifts across the chart; no constant frame exists$"):
        anchor_fibration(A, [["1"], ["0"]])


def test_a_constant_kernel_of_a_varying_anchor_passes_the_drift_guard():
    line = Chart(coords=("x",), box=((0.5, 1.5),))
    fib = anchor_fibration(make_explicit(line, 2, [["exp(3*x)"], ["0.1*exp(3*x)"]]), [["1"], ["0"]])
    np.testing.assert_allclose([float(evaluate(k, {})) for k in fib.kernel[0]], np.array([-0.1, 1.0]) / np.sqrt(1.01))


JACOBI_SPLITTING = [["0", "0"], ["0", "1"], ["-1", "0"]]


def test_an_anchor_fibration_is_built_once_per_algebroid_splitting_samples_and_seed():
    A = make_jacobi_extension(PLANE, {(0, 1): "1"})
    fib = anchor_fibration(A, JACOBI_SPLITTING)
    # an equal splitting, of strings or of Exprs, and the defaults spelled out give the same object
    assert anchor_fibration(A, [[parse(v) for v in row] for row in JACOBI_SPLITTING]) is fib
    assert anchor_fibration(A, tuple(map(tuple, JACOBI_SPLITTING)), n_samples=25, seed=0) is fib
    assert fib.curvature_form is anchor_fibration(A, JACOBI_SPLITTING).curvature_form
    # any other splitting, sample count or seed, or a freshly built equal algebroid, gives a new one
    others = [
        anchor_fibration(A, [["0", "0"], ["0", "2"], ["-1", "0"]]),
        anchor_fibration(A, JACOBI_SPLITTING, n_samples=24),
        anchor_fibration(A, JACOBI_SPLITTING, seed=1),
        anchor_fibration(make_jacobi_extension(PLANE, {(0, 1): "1"}), JACOBI_SPLITTING),
    ]
    assert len({id(f) for f in [fib, *others]}) == 5
    assert others[0].splitting[1][1] == parse("2") and others[3].total == A and others[3].total is not A
    assert all(f.splitting == fib.splitting for f in others[1:])


def test_a_drifting_kernel_raises_on_every_call():
    A = make_explicit(Chart(coords=("x",), box=((0.5, 1.5),)), 2, [["1"], ["1 + 5e-10*x"]])
    for _ in range(2):
        with pytest.raises(ValueError, match="^anchor kernel drifts across the chart; no constant frame exists$"):
            anchor_fibration(A, [["1"], ["0"]])


def test_an_algebroid_with_an_anchor_fibration_still_copies_and_pickles():
    A = make_jacobi_extension(PLANE, {(0, 1): "1"})
    fib = anchor_fibration(A, JACOBI_SPLITTING)
    fib.curvature_form.pairing_program
    for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert B == A
        again = anchor_fibration(B, JACOBI_SPLITTING)
        assert again.total == B and again.kernel == fib.kernel
        assert again.curvature_form.entries == fib.curvature_form.entries


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
        evolve_cube_system(fib, np.ones((9, 17, 1)), gamma0, [], 8)
    # the same with a transverse field, so that the gradient runs at every stage too
    with pytest.raises(ChartEscapeError, match="leave the chart box"):
        evolve_cube_system(fib, np.ones((9, 17, 1)), gamma0, [np.zeros((9, 2))], 8)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("guard", ["log(x + 3)", "1/exp(x)"])
def test_a_lift_overflow_that_meets_a_domain_check_is_a_chart_escape(guard, k):
    # from x = -0.8 the anchor's -exp(-1000*x) makes the first stage rate -inf; the next stage state,
    # x = -inf, fails the guard's domain check (a log of -inf, or a division by exp(-inf) = 0)
    line = make_explicit(PLANE, 1, [["1", "0"]])
    E = make_explicit(PLANE, 1, [["-exp(-1000*x)", guard]])
    fib = Fibration(E, line, [["1"]], [["1"]], ())
    gamma0 = np.stack([np.full(9, -0.8), np.linspace(-0.5, 0.5, 9)], axis=-1)
    with pytest.raises(ChartEscapeError, match="leave the chart box"):
        evolve_cube_system(fib, np.ones((9, 17, 1)), gamma0, [np.zeros((9, 1))] * k, 8)


def test_a_field_free_lift_checks_the_w2_rows_its_anchor_image_drops():
    # w2 = (10 b, 0), and the anchor drops its first row, so the points stay put; the driver is 1 at
    # every stage time but overflows w2 on one line at the first midpoint or at the last node, which
    # only the integral of w2 carries into the state without a field, and the transverse difference
    # with one; w2 at the nodes is read off the table, so no run after the sweep checks the node
    E = make_explicit(PLANE, 2, [["0", "0"], ["1", "0"]])
    fib = Fibration(E, make_explicit(PLANE, 1, [["1", "0"]]), [["0", "1"]], [["10"], ["0"]], [["1", "0"]])
    lines = np.stack([np.full(9, 0.5), np.linspace(-0.5, 0.5, 9)], axis=-1)
    for gamma0, w0, line in [(np.array([0.5, 0.0]), [], ()), (lines, [np.zeros((9, 2))], (4,))]:
        b = np.ones(gamma0.shape[:-1] + (17, 1))
        assert np.isfinite(evolve_cube_system(fib, b, gamma0, w0, 8).coeffs).all()
        for j in (1, 16):
            overflowing = b.copy()
            overflowing[line + (j,)] = 1e308
            with pytest.raises(ChartEscapeError, match="leave the chart box"):
                evolve_cube_system(fib, overflowing, gamma0, w0, 8)


def test_lift_rejects_wrong_base():
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    wrong = tangent_lift(PLANE, ["t1", "0"], n=1, N=8)
    with pytest.raises(ValueError, match="base algebroid"):
        lift_cube(fib, wrong)
    with pytest.raises(ValueError, match="total algebroid"):
        project_cube(fib, wrong)


# --- transport -------------------------------------------------------------------


def test_an_overflowing_transport_raises_non_finite_error():
    # a kernel action of 1e8 along x: each RK4 step multiplies V by about 6e25, past the float range by step 12
    fib = rep_extension_fibration(make_tangent(PLANE), 1, action=[[["1e8"]], [["0"]]])
    path = tangent_lift(PLANE, ["t1 - 0.5", "0"], n=1, N=16)
    with pytest.raises(NonFiniteError, match="non-finite"):
        transport_matrix(fib, path)


def test_transport_trivial_action_is_identity():
    fib = jacobi_fibration(PLANE, {(0, 1): "1"})
    base = cotangent_lift(PLANE, {(0, 1): "1"}, ["t1", "t1^2"], n=1, N=16)
    V = transport_matrix(fib, base)
    np.testing.assert_array_equal(V, np.broadcast_to(np.eye(1), (17, 1, 1)))


def test_transport_matches_exponential():
    line = Chart(coords=("x",), box=((-2.0, 2.0),))
    fib = rep_extension_fibration(make_tangent(line), 1, action=[[["1"]]])
    path = tangent_lift(line, ["t1"], n=1, N=128)
    v = transport_matrix(fib, path) @ [1.0]
    ts = np.linspace(0, 1, 129)
    np.testing.assert_allclose(v[:, 0], np.exp(-ts), atol=1e-9)


def test_transport_with_position_dependent_action():
    line = Chart(coords=("x",), box=((-2.0, 2.0),))
    fib = rep_extension_fibration(make_tangent(line), 1, action=[[["x"]]])
    path = tangent_lift(line, ["t1"], n=1, N=128)
    v = transport_matrix(fib, path) @ [2.0]
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
    # the frame inverse folds its structurally zero cofactors, so one sin(th) load feeds every entry
    assert str(entry).count("sin(") + str(entry).count("cos(") == 7
    assert sum(op[0] in _TRANSCENDENTAL for op in om.program.ops) == 1
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


def test_symbolic_inverse_leaves_no_reference_cycle():
    # the determinant's cache recurses through its own closure cell; emptied on the way out, whether the
    # inverse returns or raises, it is freed by reference counting, so the cyclic collector finds nothing
    full = [[var(f"m{i}{j}") for j in range(3)] for i in range(3)]
    singular = [[ZERO, ZERO], [var("x"), ZERO]]
    _symbolic_inverse(full)  # first-use caches are built here
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            _symbolic_inverse(full)
            try:
                _symbolic_inverse(singular)
            except ValueError:
                pass
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_frame_singular_at_one_point_still_raises_domain_error():
    # the (kernel | splitting) frame is diag(x, 1): its off-diagonal cofactors fold to zero,
    # and the diagonal entries still divide by the determinant x
    line = Chart(coords=("x",), box=((-1.0, 1.0),))
    T = make_tangent(line)
    total = make_rep_extension(T, 1, [[["0"]]])
    fib = Fibration(total=total, base=T, projection=[["0", "1"]], splitting=[["0"], ["1"]], kernel=[["x", "0"]])
    assert fib.frame_inverse[0][1] is ZERO and fib.frame_inverse[1][0] is ZERO
    w = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(kernel_coefficient_values(fib, np.array([[0.5]]), w), [[2.0]])
    with pytest.raises(DomainError, match="division by zero"):
        kernel_coefficient_values(fib, np.array([[0.0]]), w)


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


def test_a_formula_transgression_builds_the_curvature_once(monkeypatch):
    # the rank-two kernel makes transgress2_formula check centrality, which reads the curvature too
    built = []
    init = Curvature2Form.__init__
    monkeypatch.setattr(Curvature2Form, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    fib = _rotation_fibration()
    transgress2_formula(fib, tangent_lift(PLANE, ["0.6*t1 - 0.3", "0.5*t2 - 0.2"], n=2, N=8))
    assert len(built) == 1


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
    got = chart.values(fib.lift_program(2), pts, b=b, y=fields)
    np.testing.assert_allclose(got, np.concatenate(want, axis=-1), rtol=1e-12, atol=0)

    # transport: the rate matrix -sum_u b_u F_u(points), which V multiplies
    F = [eval_exprs(M, env, (60,)) for M in fib.action_matrices]
    M = np.zeros((60, rK, rK))
    for u in range(rB):
        M += b[..., u, None, None] * F[u]
    np.testing.assert_allclose(chart.values(fib.transport_program, pts, b=b), -M, rtol=1e-12, atol=0)

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
    square = evolve_cube_system(fib, b_of(half_steps(N)), lifted_face.gamma, [lifted_face.coeffs[0]], N)
    # the driver re-evaluated after the sweep, at every node
    again = []
    for s in range(N + 1):
        G = square.gamma[:, s]
        sigma = eval_exprs(fib.splitting, fib.chart.env(G), G.shape[:-1])
        again.append(np.einsum("...er,...r->...e", sigma, b_of(s / N)))
    np.testing.assert_allclose(square.coeffs[1], np.stack(again, axis=-2), rtol=0, atol=1e-13)


def _spline_calls(monkeypatch, run) -> int:
    calls = []  # every evaluation, at positions or at a located (cached) set of them, goes through Spline.at
    at = Spline.at
    monkeypatch.setattr(Spline, "at", lambda self, location: calls.append(location) or at(self, location))
    run()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("sweep", ["lift", "transport"])
def test_every_sweep_samples_its_driver_once(monkeypatch, sweep):
    fib = _rotation_fibration()
    run = lift_cube if sweep == "lift" else transport_matrix
    comps = ["0.7*t1 + 0.2*sin(3*t2) - 0.5", "0.5*t2 + 0.3*t1*t2 - 0.4"]
    counts = [
        _spline_calls(monkeypatch, lambda: run(fib, tangent_lift(PLANE, comps, n=2, N=N))) for N in (12, 24)
    ]
    # one call per lifted axis, or one each for the path and its driver; per stage it was 4N or more
    assert counts[0] == counts[1] == 2


def test_rank_zero_lift_keeps_its_shape():
    T = make_tangent(point_chart())
    fib = Fibration(T, T, (), (), ())
    lifted = lift_cube(fib, Cube(T, np.zeros((5, 5, 0)), np.zeros((2, 5, 5, 0))))
    assert lifted.gamma.shape == (5, 5, 0) and lifted.coeffs.shape == (2, 5, 5, 0)


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
    got = PLANE.values(program, pts, b=b, y=fields)
    np.testing.assert_allclose(got[:, rE + 2 :], np.concatenate(brackets, axis=-1), rtol=1e-12)


def _per_stage_sweep(fib, b, gamma0, w0, N):
    """evolve_cube_system as each stage used to run it: fresh lift-program runs and np.gradient arrays.

    ``w2`` is recorded at each node by the first stage of its step, and by one more run at the last node.
    """
    h, m, rE, k = 1.0 / N, fib.chart.dim, fib.total.rank, len(w0)
    gamma0 = np.stack(list(fib.chart.env(gamma0).values()), axis=-1)  # lift_cube hands over a face's coordinates
    w_last = np.empty(gamma0.shape[:-1] + (N + 1, rE))

    def rates(b, Y):
        y = Y[..., m:].reshape(Y.shape[:-1] + (k, rE))
        return fib.chart.values(fib.lift_program(k), Y[..., :m], b=b, y=y)

    def rhs(j, Y):
        out = rates(b[..., j, :], Y)
        w2, dY = out[..., :rE], out[..., rE:].copy()
        if j % 2 == 0:
            w_last[..., j // 2, :] = w2
        for i in range(k):
            dY[..., m + i * rE : m + (i + 1) * rE] += np.gradient(w2, h, axis=i, edge_order=2)
        return dY

    Y = rk4(rhs, np.concatenate([gamma0, *w0], axis=-1), N)
    w_last[..., N, :] = rates(b[..., 2 * N, :], Y[N])[..., :rE]
    Y = np.moveaxis(Y, 0, -2)
    fields = [Y[..., m + i * rE : m + (i + 1) * rE] for i in range(k)]
    return Cube(fib.total, Y[..., :m], np.stack(fields + [w_last]))


def _assert_pinned_close(got: np.ndarray, want: np.ndarray) -> None:
    """Within the shipped reports' pin, 1e-12 absolute plus 1e-12 relative: a step-matrix sweep rounds in another order than rk4."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_bound_lift_sweeps_are_bitwise_the_per_stage_ones(monkeypatch):
    # the points are bitwise rk4's; the fields read each other in a cycle and go by their step matrices
    fib = _rotation_fibration()
    base = tangent_lift(PLANE, ["0.7*t1 + 0.2*sin(3*t2) - 0.5*t3", "0.5*t2 + 0.3*t1*t3 - 0.4"], n=3, N=7)
    got = lift_cube(fib, base)
    monkeypatch.setattr(fibration, "evolve_cube_system", _per_stage_sweep)
    want = lift_cube(fib, base)
    assert got.gamma.tobytes() == want.gamma.tobytes()
    _assert_pinned_close(got.coeffs, want.coeffs)


_SQUARE_PATH = ["0.7*t1 + 0.2*sin(3*t2) - 0.5", "0.5*t2 + 0.3*t1*t2 - 0.4"]


def _per_stage_transport(fib, path, program=None):
    """transport_matrix with ``program`` run at each stage's point, driver and V (by default the rate matrix, times V)."""
    n, N, rK = path.n, path.N, fib.kernel_rank
    ts = half_steps(N)
    g, b = Spline(path.gamma, axis=n - 1)(ts), Spline(path.coeffs[n - 1], axis=n - 1)(ts)

    def rhs(j, V):
        if program is not None:
            return fib.chart.values(program, g[..., j, :], b=b[..., j, :], v=V)
        M = fib.chart.values(fib.transport_program, g[..., j, :], b=b[..., j, :])
        out = M[..., :, 0:1] * V[..., 0:1, :]
        for s in range(1, rK):  # summed over s in order, as the symbolic product is
            out = out + M[..., :, s : s + 1] * V[..., s : s + 1, :]
        return out

    V = rk4(rhs, np.broadcast_to(np.eye(rK), path.gamma.shape[: n - 1] + (rK, rK)), N)
    return np.moveaxis(V, 0, n - 1)


def test_bound_transport_is_bitwise_the_per_stage_one():
    # transport steps by its RK4 step matrices, so it is rk4 within the pin, not bitwise
    fib = _rotation_fibration()
    path = tangent_lift(PLANE, _SQUARE_PATH, n=2, N=9)
    _assert_pinned_close(transport_matrix(fib, path), _per_stage_transport(fib, path))


def _rank_two_action_fibration() -> Fibration:
    """A rank-two kernel action with zero, constant and position-dependent entries."""
    action = [[["0", "1 + x"], ["-y", "0.3"]], [["x*y", "0"], ["0.5", "-x"]]]
    return rep_extension_fibration(make_tangent(PLANE), 2, action)


@pytest.mark.parametrize("make", [_rotation_fibration, _rank_two_action_fibration], ids=["rotation", "rank-two"])
def test_transport_is_bitwise_the_symbolic_product_with_v_at_every_stage(make):
    # the program of -sum_u b_u F_u V over the stage's V, one run per stage, as transport once ran; within the pin
    fib = make()
    rB, rK = fib.base.rank, fib.kernel_rank
    F, b, V = fib.action_matrices, fresh("b", (rB,)), fresh("v", (rK, rK))
    M = [[dot(b, (F[u][t][s] for u in range(rB))) for s in range(rK)] for t in range(rK)]
    program = compile_exprs([[neg(dot(M[t], V[:, c])) for c in range(rK)] for t in range(rK)])
    path = tangent_lift(PLANE, _SQUARE_PATH, n=2, N=9)
    _assert_pinned_close(transport_matrix(fib, path), _per_stage_transport(fib, path, program))


def test_a_transport_runs_its_rate_matrix_once_checked(monkeypatch):
    fib = _rotation_fibration()
    path = tangent_lift(PLANE, _SQUARE_PATH, n=2, N=9)
    runs = []
    run = expr_module.Bound.run
    monkeypatch.setattr(
        expr_module.Bound,
        "run",
        lambda self, out=None, checked=True: runs.append((checked, self.base_shape)) or run(self, out, checked),
    )
    transport_matrix(fib, path)
    # one run over all 19 stage times of the 10 lines; every stage is a product with V, no program run
    assert runs == [(True, (19, 10))]


@pytest.mark.parametrize(
    "action, x, message",
    [("1/x", "t1 - 0.5", "division by zero"), ("log(x)", "t1 - 0.5", "log of a non-positive"), ("sqrt(x)", "0.5 - t1", "sqrt of a negative")],
)
def test_a_domain_error_in_the_action_raises_from_transport(action, x, message):
    fib = rep_extension_fibration(make_tangent(PLANE), 1, action=[[[action]], [["0"]]])
    with pytest.raises(DomainError, match=message):
        transport_matrix(fib, tangent_lift(PLANE, [x, "0"], n=1, N=16))


def _field_free_fibration() -> Fibration:
    """An abelian rank-two total with constant anchor and splitting: every lift cell is state-free."""
    E = make_explicit(PLANE, 2, [["0", "0"], ["1", "0"]])
    return Fibration(E, make_explicit(PLANE, 1, [["1", "0"]]), [["0", "1"]], [["10"], ["0.5"]], [["1", "0"]])


def _hoisted_chain_fibration() -> Fibration:
    """A constant splitting, so w2 is state-free, and rate rows three levels deep.

    x reads y and y reads z; field row 2 reads rows 0 and 1, and row 3 reads rows 0 and 2.
    """
    anchor = [["1 + 0.2*y", "0", "0"], ["0", "1 + 0.3*z", "0"], ["0", "0", "1"], ["0", "0", "0"]]
    E = make_explicit(SPACE, 4, anchor, {(0, 1): ["0", "0", "1", "0"], (0, 2): ["0", "0", "0", "1"]})
    B = make_explicit(SPACE, 2, [["1", "0", "0"], ["0", "1", "0"]])
    splitting = [["1", "0"], ["0", "1"], ["0.5", "0.5"], ["0.2", "0"]]
    return Fibration(E, B, [[1, 0, 0, 0], [0, 1, 0, 0]], splitting, [[0, 0, 1, 0], [0, 0, 0, 1]])


def _point_chain_fibration() -> Fibration:
    """A w2 that reads the point, three levels deep: w2's row 0 and x read y, and w2's row 2 reads x.

    Field i's row 0 is a zero cell that sits on level 1 through the transverse difference of w2's row 0.
    """
    E = make_explicit(PLANE, 3, [["1", "0"], ["0", "1"], ["0", "0"]], {(0, 1): ["0", "0", "1"]})
    splitting = [["1 + 0.3*y", "0"], ["0", "1"], ["0.5*x", "0"]]
    return Fibration(E, make_tangent(PLANE), [[1, 0, 0], [0, 1, 0]], splitting, [[0, 0, 1]])


def _sweep_inputs(fib: Fibration, k: int, N: int):
    """A driver, an initial point and k initial fields over a (N+1)^k grid of lines, all varying across it."""
    rE, rB, m = fib.total.rank, fib.base.rank, fib.chart.dim
    s = sum((0.7**i * a for i, a in enumerate(np.meshgrid(*[np.linspace(-0.5, 0.5, N + 1)] * k, indexing="ij"))), np.zeros(()))
    b = 0.4 * np.cos(3 * half_steps(N)[:, None] + np.arange(rB) + s[..., None, None])
    gamma0 = np.stack([0.3 + 0.5 * s, -0.2 - 0.4 * s, 0.1 + 0.2 * s][:m], axis=-1)
    return b, gamma0, [np.cos(s[..., None] + np.arange(rE) + i) for i in range(k)]


def _rk4_calls(monkeypatch, name: str = "rk4") -> list:
    """The N of each call of ``cubes.rk4`` (or ``cubes.<name>``) from here on (``evolve_cube_system`` imports it when it runs)."""
    calls, step = [], getattr(cubes_module, name)
    monkeypatch.setattr(cubes_module, name, lambda *args: calls.append(args[-1] if name == "rk4_linear" else args[2]) or step(*args))
    return calls


def _self_loop_fibration() -> Fibration:
    """rep_transport's F: the kernel field's row reads itself through the action."""
    return rep_extension_fibration(make_tangent(PLANE), 1, [[["0"]], [["0.5"]]], twist={(0, 1): ["1"]})


def _point_cycle_fibration() -> Fibration:
    """Points that read themselves: x moves at (1 + 0.1 x) b0 and y at (1 - 0.2 y) b1, so every row is in or above a cycle."""
    T = make_tangent(PLANE)
    R = make_rep_extension(T, 1, [[["0.4"]], [["-0.3*x"]]], twist={(0, 1): ["1 + y"]})
    return Fibration(R, T, [[0, 1, 0], [0, 0, 1]], [["0.2*y", "0"], ["1 + 0.1*x", "0"], ["0", "1 - 0.2*y"]], [[1, 0, 0]])


@pytest.mark.parametrize(
    "make, k, hoisted, table_only, depth, path",
    [
        (_rotation_fibration, 1, False, False, 1, "linear"),  # transport_square's G: w2 reads the point, the fields a cycle
        (_self_loop_fibration, 1, True, False, 0, "linear"),
        (lambda: jacobi_fibration(PLANE, [["0", "1"], ["-1", "0"]]), 0, False, True, 0, "levels"),  # plane_lift's face lift
        (lambda: jacobi_fibration(PLANE, [["0", "1"], ["-1", "0"]]), 1, True, False, 1, "levels"),  # and its square
        (_field_free_fibration, 1, True, True, 0, "levels"),
        *((_hoisted_chain_fibration, k, k > 0, False, 2, "levels") for k in range(3)),
        *((_point_chain_fibration, k, False, False, 2, "levels") for k in range(3)),
        *((_point_cycle_fibration, k, False, False, 0, "rk4") for k in range(3)),
    ],
    ids=["rotation", "self-loop", "jacobi-k0", "jacobi-k1", "field-free"]
    + [f"{kind}-k{k}" for kind in ("hoisted-chain", "point-chain", "point-cycle") for k in range(3)],
)
def test_split_lift_sweeps_are_bitwise_the_per_stage_ones(monkeypatch, make, k, hoisted, table_only, depth, path):
    fib, N = make(), 12
    rE, m = fib.total.rank, fib.chart.dim
    free, _, _, (level, _, _, _) = fib.lift_split(k)
    # which of the rate paths the sweep takes: a transverse difference over the table or over the state,
    # a stage program or none, how many levels above 0 its settled rows fill, and level by level, the
    # fields by their step matrices (only field rows in or above a cycle, level -1) or stepped by rk4
    assert (k > 0 and bool(free[:rE].all()), bool(free.all())) == (hoisted, table_only)
    route = "rk4" if (level[: rE + m] < 0).any() else "linear" if (level < 0).any() else "levels"
    assert (max(level.max(), 0), route) == (depth, path)
    b, gamma0, w0 = _sweep_inputs(fib, k, N)
    want = _per_stage_sweep(fib, b, gamma0, w0, N)
    calls, linear_calls = _rk4_calls(monkeypatch), _rk4_calls(monkeypatch, "rk4_linear")
    got = evolve_cube_system(fib, b, gamma0, w0, N)
    assert (calls, linear_calls) == ([N] if path == "rk4" else [], [N] if path == "linear" else [])
    assert got.gamma.tobytes() == want.gamma.tobytes()
    if path == "linear":  # the fields round in another order than rk4
        _assert_pinned_close(got.coeffs, want.coeffs)
    else:
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_a_stepped_sweep_whose_point_pass_meets_a_domain_error_raises_rk4s(monkeypatch):
    # G with log(y) in w2's row 0: y falls through 0 a third of the way, so the level pass over
    # w2's integral and the point raises, and rk4 raises in its own stage order
    T = make_tangent(PLANE)
    R = make_rep_extension(T, 2, [[["0", "0"], ["0", "0"]], [["0", "0.7"], ["-0.7", "0"]]], twist={(0, 1): ["1", "x"]})
    splitting = [["0.3*log(y)", "0"], ["0", "0.3*x"], ["1", "0"], ["0", "1"]]
    _assert_rk4_raises_the_log_error(monkeypatch, Fibration(R, T, [[0, 0, 1, 0], [0, 0, 0, 1]], splitting, [[1, 0, 0, 0], [0, 1, 0, 0]]))


def _assert_rk4_raises_the_log_error(monkeypatch, fib: Fibration) -> None:
    """With y falling from 0.3 through 0, a k = 1 sweep makes one rk4 call, no rk4_linear call, and raises the per-stage sweep's log error."""
    N = 12
    b, gamma0, w0 = _sweep_inputs(fib, 1, N)
    b[..., 1], gamma0[..., 1] = -1.0, 0.3
    with pytest.raises(DomainError) as want:
        _per_stage_sweep(fib, b, gamma0, w0, N)
    calls, linear_calls = _rk4_calls(monkeypatch), _rk4_calls(monkeypatch, "rk4_linear")
    with pytest.raises(DomainError) as got:
        evolve_cube_system(fib, b, gamma0, w0, N)
    assert (calls, linear_calls) == ([N], [])
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value) == "log of a non-positive argument"


def _escaping_fibration(rate: str) -> Fibration:
    """x moves at ``rate`` (which reads y) times w2's row 0, y at w2's row 1: x is the one row of level 1."""
    E = make_explicit(PLANE, 2, [[rate, "0"], ["0", "1"]])
    return Fibration(E, make_tangent(PLANE), [[1, 0], [0, 1]], [["1", "0"], ["0", "1"]], [])


def _escape_causes(monkeypatch, sweep) -> list:
    """The causes of the ChartEscapeError that ``sweep()`` raises as it stands, then on rk4's path, as if every row read another in a cycle (level -1)."""
    causes, split = [], Fibration.lift_split

    def cyclic(self, k):
        free, table, stage, (level, read, rows, programs) = split(self, k)
        return free, table, stage, (np.full_like(level, -1), read, rows, programs)

    for stepped in (False, True):
        if stepped:
            monkeypatch.setattr(Fibration, "lift_split", cyclic)
        with pytest.raises(ChartEscapeError) as err:
            sweep()
        causes.append(err.value.__cause__)
    monkeypatch.undo()
    assert type(causes[0]) is type(causes[1]) is NonFiniteError
    return [str(cause) for cause in causes]


def test_a_level_one_row_that_overflows_raises_rk4s_error(monkeypatch):
    fib, N = _escaping_fibration("exp(800*y)"), 16
    b = np.ones((2 * N + 1, 2))  # y climbs from 0.5 to 1.5, and exp(800 y) overflows past y = 0.89
    causes = _escape_causes(monkeypatch, lambda: evolve_cube_system(fib, b, np.array([0.0, 0.5]), [], N))
    assert causes[0] == causes[1] and re.fullmatch(r"non-finite state at step \d+ of 16", causes[0])
    with pytest.raises(ChartEscapeError):
        lift_cube(fib, tangent_lift(PLANE, ["0.3*t1", "0.4 + 1.1*t1"], n=1, N=N))


def test_a_field_block_that_overflows_raises_rk4s_error(monkeypatch):
    # the self-loop's field grows about 3e7-fold a step from 1e245 and leaves the floats in step 10
    fib, N = rep_extension_fibration(make_tangent(PLANE), 1, [[["0"]], [["5000"]]], twist={(0, 1): ["1"]}), 12
    b, gamma0, w0 = _sweep_inputs(fib, 1, N)
    linear_calls = _rk4_calls(monkeypatch, "rk4_linear")
    causes = _escape_causes(monkeypatch, lambda: evolve_cube_system(fib, b, gamma0, [1e245 * w0[0]], N))
    assert linear_calls == [N] and causes[0] == causes[1] == "non-finite state at step 10 of 12"


def test_a_domain_error_in_the_field_matrix_alone_is_raised_by_rk4(monkeypatch):
    # log(y) is in the structure only, so the level pass over the point runs, the field matrix meets
    # y falling through 0, and rk4 raises in its own stage order
    _assert_rk4_raises_the_log_error(monkeypatch, rep_extension_fibration(make_tangent(PLANE), 1, [[["log(y)"]], [["0"]]]))


def test_a_domain_error_on_a_level_is_raised_by_rk4(monkeypatch):
    # y falls through 0 halfway, where x's rate takes its log: the level run raises, then rk4 raises in its order
    fib, N = _escaping_fibration("log(y)"), 16
    b = np.stack([np.ones(2 * N + 1), -np.ones(2 * N + 1)], axis=-1)
    calls = _rk4_calls(monkeypatch)
    with pytest.raises(DomainError, match="^log of a non-positive argument$"):
        evolve_cube_system(fib, b, np.array([0.0, 0.5]), [], N)
    assert calls == [N]


LINE = Chart(coords=("x",), box=((0.5, 1.5),))
TANGENT_FIB = rep_extension_fibration(make_tangent(PLANE), 1, action=[[["x"]], [["0"]]])
GUARDS = {
    "inverse shape": (lambda: _symbolic_inverse([[ZERO, ZERO]]), "matrix must be square"),
    "inverse singular": (lambda: _symbolic_inverse([[ZERO, ZERO], [var("x"), ZERO]]), "matrix is identically singular"),
    "fibration chart": (
        lambda: Fibration(make_tangent(PLANE), make_tangent(LINE), [["1", "0"]], [["1"], ["0"]], [["0", "1"]]),
        "total and base must share one chart",
    ),
    "fibration ranks": (
        lambda: Fibration(make_lie_algebra(1, {}, chart=PLANE), make_tangent(PLANE), [["1"], ["0"]], [["1", "0"]], []),
        "base rank exceeds total rank",
    ),
    "covariant derivative": (
        lambda: covariant_derivative(TANGENT_FIB, Section.of(["1"]), Section.of(["1"])),
        "X must be a base section and kappa a kernel-coefficient section",
    ),
    "transport base": (
        lambda: transport_matrix(TANGENT_FIB, tangent_lift(LINE, ["0.5 + t1"], n=1, N=4)),
        "transport needs a cube over the base",
    ),
    # a drift of 3e-9 confined to the top of the line: too small a singular value to raise
    # the kernel's dimension, too large a residual at the points it reaches
    "anchor kernel drift": (
        lambda: anchor_fibration(make_explicit(LINE, 2, [["1"], ["1 + 3e-9*(x/1.49)^400"]]), [["1"], ["0"]], n_samples=400),
        "anchor kernel drifts across the chart; no constant frame exists",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_library_guard_raises_its_message(guard):
    call, message = GUARDS[guard]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
