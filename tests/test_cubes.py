import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.linalg import null_space as scipy_null_space

from algebroids.core import Chart, make_lie_algebra, make_tangent, so3_structure
from algebroids.cubes import (
    ChartEscapeError,
    Cube,
    Spline,
    _bump,
    bicubic,
    commutation_residual,
    concat,
    cotangent_lift,
    cube_from_sections,
    cutoff,
    cutoff_prime,
    degeneracy,
    face,
    grid_times,
    homotopy_defect,
    is_homotopy,
    is_sphere,
    load_cube,
    morphism_residual,
    path_cube,
    reparam_cutoff,
    reverse,
    save_cube,
    sphere_defect,
    tangent_lift,
)
from algebroids.expr import DomainError
from algebroids.fibration import null_space

PLANE = Chart(coords=("x", "y"), box=((-3.0, 3.0), (-3.0, 3.0)))


def linear_square(N=16):
    return tangent_lift(PLANE, ["0.2 + 0.5*t1", "0.3 + 0.4*t2"], n=2, N=N)


def test_cube_validation_and_immutability():
    c = linear_square()
    assert c.n == 2 and c.N == 16
    np.testing.assert_allclose(c.basepoint, [0.2, 0.3])
    with pytest.raises(ValueError):
        c.gamma[0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        Cube(make_tangent(PLANE), c.gamma[..., :1], c.coeffs)
    with pytest.raises(ChartEscapeError):
        tangent_lift(PLANE, ["10*t1", "0"], n=1, N=8)


def test_cube_rejects_non_finite_data():
    c = linear_square(N=4)
    for bad in (np.nan, np.inf, -np.inf):
        coeffs = c.coeffs.copy()
        coeffs[1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            Cube(c.algebroid, c.gamma, coeffs)
        gamma = c.gamma.copy()
        gamma[1, 2, 0] = bad
        with pytest.raises(ChartEscapeError):
            Cube(c.algebroid, gamma, c.coeffs)


def test_cube_cannot_change_through_the_callers_arrays():
    A = make_tangent(PLANE)
    source = linear_square(N=4)
    # the caller's arrays, and views of them taken before construction, stay writable
    # and writing through them leaves the cube alone
    gamma, coeffs = source.gamma.copy(), source.coeffs.copy()
    top, field = gamma[0], coeffs[1]
    cube = Cube(A, gamma, coeffs)
    top[...] = 9.0
    field[...] = 9.0
    gamma[-1] = 9.0
    np.testing.assert_array_equal(cube.gamma, source.gamma)
    np.testing.assert_array_equal(cube.coeffs, source.coeffs)
    # a view of a larger array is copied too
    block = np.concatenate([source.gamma, source.gamma], axis=-1)
    cube = Cube(A, block[..., :2], source.coeffs)
    block[...] = 99.0
    np.testing.assert_array_equal(cube.gamma, source.gamma)
    # the cube's own arrays are frozen
    with pytest.raises(ValueError):
        cube.gamma[0, 0, 0] = 99.0
    # an array of another dtype is converted
    ints = np.ones((5, 5, 2), dtype=int)
    cube = Cube(A, ints, np.zeros((2, 5, 5, 2)))
    ints[...] = 2
    assert cube.gamma.dtype == np.float64 and np.all(cube.gamma == 1.0)


def test_overflowing_flow_is_a_chart_escape():
    # the velocity exp(1000*x) overflows within the first steps of the flow
    with pytest.raises(ChartEscapeError, match="shrink the time box"):
        cube_from_sections(make_tangent(PLANE), [["exp(1000*x)", "0"]], [0.5, 0.0], N=8)
    # a genuine domain error in a section is still reported as one
    with pytest.raises(DomainError, match="division by zero"):
        cube_from_sections(make_tangent(PLANE), [["1/(x - 0.5)", "0"]], [0.5, 0.0], N=8)


def test_grid_times():
    t1, t2 = grid_times(2, 4)
    assert t1.shape == (5, 5)
    np.testing.assert_allclose(t1[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(t2[0, :], [0, 0.25, 0.5, 0.75, 1.0])


def test_tangent_lift_linear_is_exact():
    # second-order differences are exact on affine data up to rounding
    res = morphism_residual(linear_square())
    assert res.structure < 1e-13
    assert res.base < 1e-13


def test_tangent_lift_rejects_chart_coordinates():
    with pytest.raises(ValueError):
        tangent_lift(PLANE, ["x + t1", "0"], n=1, N=8)


def test_tangent_lift_refinement_ratio():
    # a map with nonvanishing mixed third derivatives shows the
    # second-order character of the grid derivatives in both residuals
    comps = ["0.5*sin(t1)*sin(t2 + 0.3)", "0.5*t2 - 0.2*t1^3"]
    r64 = morphism_residual(tangent_lift(PLANE, comps, n=2, N=64))
    r128 = morphism_residual(tangent_lift(PLANE, comps, n=2, N=128))
    assert r128.base > 0
    assert 3.5 < r64.base / r128.base < 4.5
    assert 3.5 < r64.structure / r128.structure < 4.5


# --- flows -----------------------------------------------------------------


def test_flow_cube_matches_closed_form_linear_family():
    T = make_tangent(PLANE)
    secs = [["y - t2", "0"], ["0", "1"]]
    assert commutation_residual(T, secs) < 1e-12
    x0, y0 = 0.1, 0.7
    N = 32
    c = cube_from_sections(T, secs, [x0, y0], N)
    t1, t2 = grid_times(2, N)
    np.testing.assert_allclose(c.gamma[..., 0], x0 + y0 * t1, atol=1e-12)
    np.testing.assert_allclose(c.gamma[..., 1], y0 + t2, atol=1e-12)
    np.testing.assert_allclose(c.coeffs[0][..., 0], y0, atol=1e-12)
    np.testing.assert_allclose(c.coeffs[1][..., 1], 1.0, atol=1e-12)


def test_flow_cube_order_independent_for_commuting_family():
    T = make_tangent(PLANE)
    secs = [["(y - t2)^2 + 1", "0"], ["0", "1"]]
    assert commutation_residual(T, secs) < 1e-12
    a = cube_from_sections(T, secs, [0.0, 0.5], 24, order=(0, 1))
    b = cube_from_sections(T, secs, [0.0, 0.5], 24, order=(1, 0))
    assert np.max(np.abs(a.gamma - b.gamma)) < 1e-10
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10
    # closed form: x picks up (y0^2 + 1) t1 once y settles at y0 + t2
    t1, _ = grid_times(2, 24)
    np.testing.assert_allclose(a.gamma[..., 0], (0.5**2 + 1) * t1, atol=1e-10)


def test_flow_cube_zero_dimensional_chart():
    A = make_lie_algebra(3, so3_structure())
    secs = [["cos(t2)", "-sin(t2)", "0"], ["0", "0", "1"]]
    assert commutation_residual(A, secs) < 1e-12
    c = cube_from_sections(A, secs, [], 64)
    assert c.gamma.shape == (65, 65, 0)
    t1, t2 = grid_times(2, 64)
    np.testing.assert_allclose(c.coeffs[0][..., 0], np.cos(t2), atol=1e-14)
    res64 = morphism_residual(c)
    res128 = morphism_residual(cube_from_sections(A, secs, [], 128))
    assert res64.base == 0.0
    assert 3.5 < res64.structure / res128.structure < 4.5


def test_commutation_residual_detects_noncommuting_family():
    A = make_lie_algebra(3, so3_structure())
    bad = [["1", "0", "0"], ["0", "0", "1"]]
    assert commutation_residual(A, bad) == pytest.approx(1.0, abs=1e-12)


def test_flow_cube_rejects_bad_order_and_names():
    T = make_tangent(PLANE)
    secs = [["0", "1"]]
    with pytest.raises(ValueError):
        cube_from_sections(T, secs, [0, 0], 8, order=(1,))
    with pytest.raises(ValueError):
        cube_from_sections(T, secs, [0, 0], 8, time_names=("x",))
    two = [["1", "0"], ["0", "1"]]
    # a wrong count, a clash with a coordinate and a repeat are all ValueErrors, never IndexErrors
    for names in (("s",), ("s", "x"), ("s", "s")):
        with pytest.raises(ValueError, match="time name"):
            commutation_residual(T, two, time_names=names)
        with pytest.raises(ValueError, match="time name"):
            cube_from_sections(T, two, [0, 0], 8, time_names=names)
        with pytest.raises(ValueError, match="time name"):
            tangent_lift(PLANE, ["t1", "t2"], n=2, N=8, time_names=names)


# --- boundary classification -------------------------------------------------


def bump_sphere(N=24):
    # gamma vanishes on the whole boundary, velocities vanish on the
    # boundary slabs of the other axis
    return tangent_lift(PLANE, ["t1*(1 - t1)*t2*(1 - t2)", "0"], n=2, N=N)


def test_sphere_detection():
    s = bump_sphere()
    assert is_sphere(s, tol=1e-12)
    assert not is_sphere(linear_square(), tol=1e-3)
    # a closed 1-cube counts, an open one does not
    loop = tangent_lift(PLANE, ["sin(2*3.141592653589793*t1)", "0"], n=1, N=32)
    assert sphere_defect(loop) < 1e-10
    arc = tangent_lift(PLANE, ["t1", "0"], n=1, N=32)
    assert sphere_defect(arc) == pytest.approx(1.0)


def test_homotopy_detection():
    # last-axis component vanishes where the first coordinate hits the ends
    h = tangent_lift(PLANE, ["t1", "t1*(1 - t1)*t2"], n=2, N=16)
    assert homotopy_defect(h) < 1e-12
    assert is_homotopy(h)
    bad = linear_square()
    assert not is_homotopy(bad, tol=1e-3)
    with pytest.raises(ValueError):
        homotopy_defect(tangent_lift(PLANE, ["t1", "0"], n=1, N=8))


# --- surgery -------------------------------------------------------------------


def test_face_restricts_and_needs_two_axes():
    c = linear_square()
    f = face(c, axis=1, end=0)
    assert f.n == 1
    np.testing.assert_allclose(f.gamma, c.gamma[:, 0, :])
    np.testing.assert_allclose(f.coeffs[0], c.coeffs[0][:, 0, :])
    with pytest.raises(ValueError):
        face(f, 0, 0)


def test_degeneracy_then_face_recovers_cube():
    c = linear_square()
    for p in (0, 1, 2):
        d = degeneracy(c, p)
        assert d.n == 3
        np.testing.assert_array_equal(d.coeffs[p], 0.0)
        for end in (0, 1):
            back = face(d, p, end)
            np.testing.assert_array_equal(back.gamma, c.gamma)
            np.testing.assert_array_equal(back.coeffs, c.coeffs)
        assert morphism_residual(d).base == morphism_residual(c).base


def test_reverse_is_involutive_and_flips_component():
    c = tangent_lift(PLANE, ["t1^2", "t2 - t1"], n=2, N=12)
    r = reverse(c, 0)
    np.testing.assert_allclose(r.gamma[0], c.gamma[-1])
    np.testing.assert_allclose(r.coeffs[0][0], -c.coeffs[0][-1])
    np.testing.assert_allclose(r.coeffs[1][0], c.coeffs[1][-1])
    rr = reverse(r, 0)
    np.testing.assert_array_equal(rr.gamma, c.gamma)
    np.testing.assert_array_equal(rr.coeffs, c.coeffs)
    # reversal preserves the morphism property on the grid
    assert morphism_residual(r).base == pytest.approx(morphism_residual(c).base, rel=1e-9)


# --- cutoff reparametrization ---------------------------------------------------


def test_cutoff_shape():
    ts = np.linspace(0, 1, 1001)
    tau = cutoff(ts)
    assert tau[0] == 0.0 and tau[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(tau) >= 0)
    assert cutoff(0.5) == pytest.approx(0.5, abs=1e-9)
    assert cutoff_prime(0.0) == 0.0 and cutoff_prime(1.0) == 0.0
    # the table derivative agrees with the exact density
    fd = np.gradient(tau, ts[1] - ts[0], edge_order=2)
    assert np.max(np.abs(fd - cutoff_prime(ts))) < 1e-4


def test_cutoff_matches_the_clamped_simpson_table():
    s = np.linspace(0.0, 1.0, 8193)
    cum = cumulative_simpson(_bump(s), x=s, initial=0.0)
    table = CubicSpline(s, cum / cum[-1], bc_type=((1, 0.0), (1, 0.0)))
    ts = np.linspace(0.0, 1.0, 10001)
    assert np.max(np.abs(cutoff(ts) - np.clip(table(ts), 0.0, 1.0))) <= 1e-15
    for n in (1001, 4097):
        assert np.all(np.diff(cutoff(np.linspace(0.0, 1.0, n))) >= 0)


# --- the spline layer against scipy as the reference ------------------------------


def _positions(kind: str, rng: np.random.Generator):
    if kind == "scalar":
        return float(rng.choice([0.0, 1.0, rng.uniform()]))
    t = rng.uniform(size=7 if kind == "1-D" else (3, 4))
    t.flat[:2] = 0.0, 1.0
    return t


@settings(max_examples=40, deadline=None)
@given(
    N=st.sampled_from([2, 3, 6, 97, 768]),
    axis=st.integers(0, 2),
    kind=st.sampled_from(["scalar", "1-D", "2-D"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spline_matches_not_a_knot_cubic_spline(N, axis, kind, seed):
    rng = np.random.default_rng(seed)
    y = np.moveaxis(rng.normal(size=(N + 1, 3, 2)), 0, axis)
    t = _positions(kind, rng)
    want = CubicSpline(np.linspace(0.0, 1.0, N + 1), y, axis=axis)(t)
    got = Spline(y, axis=axis)(t)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(N=st.sampled_from([3, 6, 40]), seed=st.integers(0, 2**32 - 1))
def test_bicubic_matches_rect_bivariate_spline(N, seed):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, N + 1)
    data = rng.normal(size=(N + 1, N + 1, 2))
    x, y = _positions("2-D", rng), _positions("2-D", rng)
    want = np.stack([RectBivariateSpline(ts, ts, data[..., c]).ev(x, y) for c in range(2)], axis=-1)
    got = bicubic(data, x, y)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 6), rank=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_null_space_matches_scipy_up_to_sign(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))  # rank-deficient when rank < min(rows, cols)
    want = scipy_null_space(M, rcond=1e-10)
    got = null_space(M, rcond=1e-10)
    assert got.shape == want.shape == (cols, cols - np.linalg.matrix_rank(M))
    signs = np.sign(np.sum(got * want, axis=0))
    assert np.max(np.abs(got - want * signs), initial=0.0) < 1e-12


def test_reparam_cutoff_flattens_boundary():
    s = bump_sphere(N=96)
    flat = reparam_cutoff(s)
    assert is_sphere(flat, tol=1e-9)
    # after reparametrization each component also vanishes on its own ends
    assert np.max(np.abs(flat.coeffs[0][0])) == 0.0
    assert np.max(np.abs(flat.coeffs[0][-1])) == 0.0
    assert np.max(np.abs(flat.coeffs[1][:, 0])) == 0.0
    r = morphism_residual(flat)
    assert r.base < 5e-3 and r.structure < 5e-3


# --- concatenation ---------------------------------------------------------------


def test_concat_paths_end_to_end():
    first = tangent_lift(PLANE, ["0.5*t1", "0"], n=1, N=128)
    second = tangent_lift(PLANE, ["0.5 + 0.5*t1^2", "0"], n=1, N=128)
    c = concat(first, second, axis=0)
    assert c.N == 128
    np.testing.assert_allclose(c.gamma[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(c.gamma[-1], [1.0, 0.0], atol=1e-9)
    res128 = morphism_residual(c).base
    res256 = morphism_residual(
        concat(
            tangent_lift(PLANE, ["0.5*t1", "0"], n=1, N=256),
            tangent_lift(PLANE, ["0.5 + 0.5*t1^2", "0"], n=1, N=256),
            axis=0,
        )
    ).base
    assert res256 < 0.05
    assert 3.0 < res128 / res256 < 5.5


def test_concat_rejects_mismatched_faces():
    first = tangent_lift(PLANE, ["0.5*t1", "0"], n=1, N=16)
    gap = tangent_lift(PLANE, ["1 + t1", "0"], n=1, N=16)
    with pytest.raises(ValueError, match="not composable"):
        concat(first, gap, axis=0)
    other = tangent_lift(PLANE, ["0.5*t1", "0"], n=1, N=32)
    with pytest.raises(ValueError, match="matching"):
        concat(first, other, axis=0)


def test_concat_squares_along_matching_axis():
    # the two squares share the face t1 = 1 of the first piece
    a = tangent_lift(PLANE, ["0.4*t1", "0.3*t2"], n=2, N=128)
    b = tangent_lift(PLANE, ["0.4 + 0.4*t1", "0.3*t2"], n=2, N=128)
    c = concat(a, b, axis=0)
    np.testing.assert_allclose(face(c, 0, 0).gamma, face(a, 0, 0).gamma, atol=1e-10)
    np.testing.assert_allclose(face(c, 0, 1).gamma, face(b, 0, 1).gamma, atol=1e-10)
    r = morphism_residual(c)
    assert r.base < 5e-3 and r.structure < 5e-3


# --- duality lift and explicit paths ----------------------------------------------


def test_cotangent_lift_inverts_anchor():
    c = cotangent_lift(PLANE, {(0, 1): "1"}, ["0.5*t1", "0.3 + 0.2*t2"], n=2, N=16)
    np.testing.assert_allclose(c.coeffs[0][..., 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(c.coeffs[0][..., 1], -0.5, atol=1e-14)
    np.testing.assert_allclose(c.coeffs[1][..., 0], 0.2, atol=1e-14)
    r = morphism_residual(c)
    assert r.base < 1e-12 and r.structure < 1e-12


def test_cotangent_lift_variable_bivector_is_morphism():
    c = cotangent_lift(PLANE, {(0, 1): "1 + x^2"}, ["sin(t1)", "0.5*t2^2"], n=2, N=64)
    r64 = morphism_residual(c)
    r128 = morphism_residual(
        cotangent_lift(PLANE, {(0, 1): "1 + x^2"}, ["sin(t1)", "0.5*t2^2"], n=2, N=128)
    )
    assert r128.base < 1e-3
    assert 3.5 < r64.base / r128.base < 4.5


def test_cotangent_lift_rejects_vanishing_bivector():
    with pytest.raises(ValueError, match="vanishes"):
        cotangent_lift(PLANE, {(0, 1): "x"}, ["t1 - 0.5", "t2"], n=2, N=8)


def test_path_cube_with_kernel_slot():
    from algebroids.core import make_jacobi_extension

    E = make_jacobi_extension(PLANE, {(0, 1): "1"})
    # velocity (g', h') pairs with coefficients (k, h', -g')
    c = path_cube(E, ["t1^2", "t1"], ["0.3", "1", "-2*t1"], N=128)
    assert c.n == 1
    r = morphism_residual(c)
    assert r.base < 1e-4
    assert r.structure == 0.0


# --- serialization ------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    c = tangent_lift(PLANE, ["sin(t1)", "0.2*t2"], n=2, N=8)
    p = tmp_path / "cube.json"
    save_cube(c, p)
    back = load_cube(p, make_tangent(PLANE))
    np.testing.assert_array_equal(back.gamma, c.gamma)
    np.testing.assert_array_equal(back.coeffs, c.coeffs)
    with pytest.raises(ValueError, match="rank"):
        load_cube(p, make_lie_algebra(3, so3_structure()))
