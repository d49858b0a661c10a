import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.linalg import null_space as scipy_null_space

from algebroids import cubes as cubes_module
from algebroids import expr as expr_module
from algebroids import fibration as fibration_module
from algebroids.core import Chart, Section, make_lie_algebra, make_tangent, point_chart, so3_structure, sup_norm
from algebroids.cubes import (
    ChartEscapeError,
    Cube,
    Spline,
    bicubic,
    coarsen,
    commutation_residual,
    concat,
    cotangent_lift,
    cube_from_sections,
    cutoff,
    cutoff_prime,
    degeneracy,
    face,
    frozen,
    grid_times,
    half_steps,
    homotopy_defect,
    load_cube,
    morphism_residual,
    path_cube,
    reparam_cutoff,
    resample,
    reverse,
    rk4,
    rk4_levels,
    rk4_linear,
    rk4_table,
    stage_kinds,
    save_cube,
    sphere_defect,
    tangent_lift,
    time_names,
)
from algebroids.expr import DomainError, NonFiniteError, compile_exprs
from algebroids.fibration import jacobi_fibration, null_space

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
        # only the compact part of a broadcast is stored and checked; a bad value there is seen
        compact = c.coeffs[:, :, :1].copy()
        compact[1, 2, 0, 0] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            Cube(c.algebroid, c.gamma, np.broadcast_to(compact, c.coeffs.shape))


def _header_disagrees(tmp_path):
    path = tmp_path / "cube.json"
    save_cube(linear_square(N=4), path)
    payload = json.loads(path.read_text())
    payload["N"] = 8
    path.write_text(json.dumps(payload))
    return load_cube(path, make_tangent(PLANE))


SPACE = Chart(coords=("x", "y", "z"), box=((-3.0, 3.0),) * 3)
GUARDS = {
    "cube axes": (
        lambda tmp: Cube(make_tangent(PLANE), linear_square(4).gamma, linear_square(4).coeffs[0]),
        "gamma must be grid + point, coeffs must be (axes,) + grid + frame",
    ),
    "cube node counts": (
        lambda tmp: Cube(make_tangent(PLANE), linear_square(4).gamma, linear_square(6).coeffs),
        "all grid axes must have the same node count",
    ),
    "cube nodes": (
        lambda tmp: Cube(make_tangent(PLANE), linear_square(4).gamma[:2, :2], linear_square(4).coeffs[:, :2, :2]),
        "need at least three nodes per axis",
    ),
    "cube rank": (
        lambda tmp: Cube(make_tangent(PLANE), linear_square(4).gamma, linear_square(4).coeffs[..., :1]),
        "coefficient fields do not match the algebroid rank",
    ),
    "face end": (lambda tmp: face(linear_square(4), axis=0, end=2), "end must be 0 or 1"),
    "degeneracy axis": (lambda tmp: degeneracy(linear_square(4), axis=3), "axis must be in 0..2"),
    "reverse axis": (lambda tmp: reverse(linear_square(4), axis=2), "axis must be in 0..1"),
    "coarsen odd N": (lambda tmp: coarsen(linear_square(5)), "coarsen needs an even number of steps"),
    "resample steps": (lambda tmp: resample(linear_square(4), 2), "resampling needs at least three steps"),
    "concat algebroids": (
        lambda tmp: concat(
            linear_square(4), cotangent_lift(PLANE, {(0, 1): "1"}, ["0.2 + 0.5*t1", "0.3 + 0.4*t2"], 2, 4), axis=0
        ),
        "cannot concatenate cubes over different algebroids",
    ),
    "concat axis": (lambda tmp: concat(linear_square(4), linear_square(4), axis=2), "axis must be in 0..1"),
    "no sections": (lambda tmp: cube_from_sections(make_tangent(PLANE), [], [0.0, 0.0], 4), "need at least one section"),
    "tangent components": (
        lambda tmp: tangent_lift(PLANE, ["t1"], n=1, N=4),
        "need one component per chart coordinate",
    ),
    "cotangent chart": (
        lambda tmp: cotangent_lift(SPACE, {(0, 1): "1"}, ["t1", "0", "0"], 1, 4),
        "cotangent lifting is implemented for two-dimensional charts",
    ),
    "path counts": (
        lambda tmp: path_cube(make_tangent(PLANE), ["t1", "0"], ["1"], 4),
        "component counts must match chart dimension and rank",
    ),
    "file header": (_header_disagrees, "cube file header disagrees with its array shapes"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_library_guard_raises_its_message(tmp_path, guard):
    # the config schema rejects these inputs before a library call, so only a library caller reaches them
    call, message = GUARDS[guard]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


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
    # so is a broadcast of the caller's writable array, its compact part only
    compact = source.coeffs[:, :1, :1].copy()
    cube = Cube(A, source.gamma, np.broadcast_to(compact, source.coeffs.shape))
    compact[...] = 9.0
    np.testing.assert_array_equal(cube.coeffs, source.coeffs)
    assert cube.coeffs.strides[1:3] == (0, 0) and not np.shares_memory(cube.coeffs, compact)
    # so is a nested list
    nested = source.gamma.tolist()
    cube = Cube(A, nested, source.coeffs.tolist())
    nested[0][0][0] = 9.0
    np.testing.assert_array_equal(cube.gamma, source.gamma)
    # the cube's own arrays are frozen
    with pytest.raises(ValueError):
        cube.gamma[0, 0, 0] = 99.0
    assert not cube.coeffs.flags.writeable
    # an array of another dtype is converted
    ints = np.ones((5, 5, 2), dtype=int)
    cube = Cube(A, ints, np.zeros((2, 5, 5, 2)))
    ints[...] = 2
    assert cube.gamma.dtype == np.float64 and np.all(cube.gamma == 1.0)


def test_cube_adopts_a_read_only_array_that_owns_its_memory(monkeypatch):
    source = linear_square(N=4)
    gamma, coeffs = frozen(source.gamma.copy()), frozen(source.coeffs.copy())
    cube = Cube(source.algebroid, gamma, coeffs)
    assert cube.gamma is gamma and cube.coeffs is coeffs
    # another cube's points are held as they are, though they are views of its dense stack
    assert all(np.shares_memory(p, gamma) for p in Cube(source.algebroid, cube.points, coeffs).points)
    # a read-only view does not own its memory, so it is copied
    view = coeffs[:, ::-1]
    assert not np.shares_memory(Cube(source.algebroid, source.gamma[::-1], view).coeffs, coeffs)
    # but reversing an axis of stride 0 moves no byte, so the broadcast's compact part is held as it is
    assert np.shares_memory(Cube(source.algebroid, gamma, source.coeffs[:, ::-1]).coeffs, source.coeffs)
    # tangent_lift hands its fresh arrays over, and the cotangent lift reuses its points, compact, with no dense stack
    lifted = []

    def spy(*args):
        lifted.append(tangent_lift(*args))
        return lifted[-1]

    monkeypatch.setattr(cubes_module, "tangent_lift", spy)
    c = cotangent_lift(PLANE, {(0, 1): "1"}, ["0.5*t1", "0.3 + 0.2*t2"], 2, 8)
    assert all(np.shares_memory(a, b) for a, b in zip(c.points, lifted[0].points))
    assert [p.strides for p in c.points] == [p.strides for p in lifted[0].points] == [(8, 0), (0, 8)]
    assert "gamma" not in vars(c) and "gamma" not in vars(lifted[0])


WAVY = ["0.2 + 0.5*t1 + 0.1*sin(3*t1*t2)", "0.3 + 0.4*t2 - 0.2*t1^2*t2"]


def test_tangent_lift_stores_its_points_one_coordinate_at_a_time():
    cube = tangent_lift(PLANE, WAVY, n=2, N=12)
    assert cube.gamma.shape == (13, 13, 2)
    assert all(cube.gamma[..., a].flags.c_contiguous for a in range(2))
    assert not cube.gamma.flags.writeable and not cube.gamma.base.flags.writeable
    # the permuted view is adopted as it stands, by a cube built on it too
    assert Cube(cube.algebroid, cube.gamma, cube.coeffs).gamma is cube.gamma
    # a reversed or sliced view of the same memory is copied
    for view in (cube.gamma[::-1], cube.gamma[:, ::2][:, :7]):
        rebuilt = Cube(cube.algebroid, view[:7, :7], cube.coeffs[:, :7, :7])
        assert not np.shares_memory(rebuilt.gamma, cube.gamma)
        np.testing.assert_array_equal(rebuilt.gamma, view[:7, :7])


def test_coordinate_major_points_give_the_bits_of_a_contiguous_copy(tmp_path):
    cube = tangent_lift(PLANE, WAVY, n=2, N=12)
    dense = Cube(cube.algebroid, np.ascontiguousarray(cube.gamma), cube.coeffs)
    assert dense.gamma.flags.c_contiguous and not np.shares_memory(dense.gamma, cube.gamma)
    save_cube(cube, tmp_path / "cube.json")
    save_cube(dense, tmp_path / "dense.json")
    pairs = [
        (cube, dense),
        (face(cube, 1, 1), face(dense, 1, 1)),
        (coarsen(cube), coarsen(dense)),
        (load_cube(tmp_path / "cube.json", cube.algebroid), load_cube(tmp_path / "dense.json", cube.algebroid)),
    ]
    for got, want in pairs:
        assert got.gamma.shape == want.gamma.shape and got.gamma.tobytes() == want.gamma.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert (tmp_path / "cube.json").read_bytes() == (tmp_path / "dense.json").read_bytes()


@pytest.mark.parametrize("N", [12, 13])
def test_a_cube_builds_its_half_grid_once(N):
    cube = tangent_lift(PLANE, WAVY, n=2, N=N)
    assert cube.half is cube.half and cube.half.N == N // 2
    want = coarsen(cube) if N % 2 == 0 else resample(cube, N // 2)
    assert cube.half.gamma.tobytes() == want.gamma.tobytes() and cube.half.coeffs.tobytes() == want.coeffs.tobytes()


def test_a_coordinate_major_map_that_leaves_the_box_is_a_chart_escape():
    with pytest.raises(ChartEscapeError):
        tangent_lift(PLANE, ["0.2 + 0.5*t1", "2.9 + 0.2*t2*t1"], n=2, N=12)
    # the point that leaves is the last node of the second coordinate
    with pytest.raises(ChartEscapeError):
        tangent_lift(PLANE, ["0", "3.0 + 1e-7*t1*t2"], n=2, N=12)


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


def test_rk4_calls_its_rate_at_half_step_indices():
    calls = []

    def f(j, y):
        calls.append(j)
        return np.cos(half_steps(3)[j]) * np.ones_like(y)

    ys = rk4(f, np.zeros(2), 3)
    assert calls == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    np.testing.assert_allclose(half_steps(3), np.arange(7) / 6, rtol=1e-15, atol=0)
    np.testing.assert_allclose(ys[:, 0], np.sin(np.linspace(0.0, 1.0, 4)), rtol=0, atol=1e-5)


def _textbook_rk4(f, y0, N):
    """The out-of-place classical step, as rk4 wrote it before it ran in place."""
    h = 1.0 / N
    y = np.asarray(y0, dtype=float)
    out = [y]
    for s in range(N):
        j = 2 * s
        k1 = f(j, y)
        k2 = f(j + 1, y + (h / 2) * k1)
        k3 = f(j + 1, y + (h / 2) * k2)
        k4 = f(j + 2, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return np.stack(out)


@pytest.mark.parametrize("shape", [(3,), (7, 5)])  # one state, and (lines, k) states
def test_rk4_in_place_is_bitwise_the_textbook_step(shape):
    rng = np.random.default_rng(5)
    a, y0 = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    ts = half_steps(13)

    def f(j, y):  # nonlinear in y and t, so that every stage state matters
        return np.sin(3.0 * y) * a + y * y * np.cos(ts[j]) - 0.25 * y[..., ::-1]

    assert rk4(f, y0, 13).tobytes() == _textbook_rk4(f, y0, 13).tobytes()


def test_rk4_hands_its_rate_one_reused_stage_buffer():
    seen, rate = [], np.empty((4, 2))
    stage = np.empty((4, 2))

    def f(j, y):
        seen.append(y)
        np.multiply(y, -0.5, out=rate)  # a rate buffer of its own, reused too
        return rate

    ys = rk4(f, np.ones((4, 2)), 6, stage)
    assert len(seen) == 24 and all(y is stage for y in seen)
    want = _textbook_rk4(lambda j, y: -0.5 * y, np.ones((4, 2)), 6)
    assert ys.tobytes() == want.tobytes()
    np.testing.assert_allclose(ys[-1], np.exp(-0.5), rtol=1e-6)


@pytest.mark.parametrize("N", [1, 2, 13])
@pytest.mark.parametrize("shape", [(), (3,), (49, 2), (5, 97), (4, 0)])  # (4, 0): a zero-dimensional chart
def test_rk4_table_is_bitwise_rk4_of_the_table(shape, N):
    rng = np.random.default_rng(7)
    table, y0 = rng.uniform(-1.0, 1.0, (2 * N + 1,) + shape), rng.uniform(-1.0, 1.0, shape)
    assert rk4_table(table, y0, N).tobytes() == rk4(lambda j, _: table[j], y0, N).tobytes()


@pytest.mark.parametrize("j, value", [(0, np.inf), (5, np.nan), (7, -np.inf)])
def test_rk4_table_raises_rk4s_error_at_the_first_non_finite_node(j, value):
    table = np.ones((13, 2, 3))
    table[j, 1, 2] = value
    messages = []
    for sweep in (lambda: rk4(lambda i, _: table[i], np.zeros((2, 3)), 6), lambda: rk4_table(table, np.zeros((2, 3)), 6)):
        with pytest.raises(NonFiniteError) as err:
            sweep()
        messages.append(str(err.value))
    assert messages[0] == messages[1] == f"non-finite state at step {max(1, (j + 1) // 2)} of 6"


def _overflowing_tables():
    one = np.ones((13, 2, 3))
    one[11, 1, 2] = 1e308  # k2 = k3 of step 6: 2 k2 overflows, h/3 k2 does not
    return {
        "one-entry": (one, np.zeros((2, 3)), None),
        "all-from-zero": (np.full((13, 2, 3), 1e308), np.zeros((2, 3)), None),
        "all-from-1e308": (np.full((13, 2, 3), 1e308), np.full((2, 3), 1e308), "non-finite state at step 5 of 6"),
    }


@pytest.mark.parametrize("case", sorted(_overflowing_tables()))
def test_rk4_and_rk4_table_agree_on_a_table_whose_textbook_sum_overflows(case):
    # k1 + 2 k2 + 2 k3 + k4 of rates near 1e308 overflows; each step adds the rates scaled by h/6 and h/3
    # instead, so the nodes are finite until one passes the largest float (node 5 of 1e308 + s/6 1e308)
    table, y0, error = _overflowing_tables()[case]
    sweeps = (lambda: rk4(lambda i, _: table[i], y0, 6), lambda: rk4_table(table, y0, 6))
    if error is None:
        stepped, summed = (sweep() for sweep in sweeps)
        assert np.isfinite(summed).all() and summed.tobytes() == stepped.tobytes()
        simpson = np.tile([2.0, 4.0], 7)[:13] / 36  # RK4 of a state-free rate: Simpson's rule on each step
        simpson[[0, -1]] = 1 / 36
        np.testing.assert_allclose(summed[-1], y0 + np.tensordot(simpson, table, 1), rtol=1e-14, atol=0)
        return
    for sweep in sweeps:
        with pytest.raises(NonFiniteError, match=f"^{error}$"):
            sweep()


def test_rk4_scales_each_rate_before_the_sum_where_the_textbook_sum_overflows():
    # y' = y from 5e307: every rate is finite (below 1.4e308), but k1 + 2 k2 + 2 k3 + k4 is about
    # 3e308 from step 1 on, while the nodes (up to e 5e307) are finite, as rk4_linear's are
    N, y0 = 12, np.full((1, 1), 5e307)
    stepped = rk4(lambda j, y: 1.0 * y, y0, N)
    linear = rk4_linear(stage_kinds(np.ones((2 * N + 1, 1, 1))), None, y0, N)
    assert np.isfinite(stepped).all()
    np.testing.assert_allclose(stepped, linear, rtol=1e-14, atol=0)
    np.testing.assert_allclose(stepped[-1, 0, 0], np.e * 5e307, rtol=1e-6)  # RK4's error at h = 1/12: 4e-7


def test_a_rate_that_overflows_itself_stops_rk4_where_rk4_linear_goes_on():
    # y' = 50 y from 1e300 on 12 steps: node 5 is 8.4e307, but step 5's k2 = 50 (y4 + h/2 k1) = 3.4e308 is
    # itself past the largest float, so rk4 has no finite rate to form node 5 from; rk4_linear's step
    # factor (about 38.5) reaches it and overflows at node 6
    N, y0 = 12, np.full((1, 1), 1e300)
    B = stage_kinds(np.full((2 * N + 1, 1, 1), 50.0))
    for sweep, step in ((lambda: rk4(lambda j, y: 50.0 * y, y0, N), 5), (lambda: rk4_linear(B, None, y0, N), 6)):
        with pytest.raises(NonFiniteError, match=f"^non-finite state at step {step} of 12$"):
            sweep()


def test_levels_are_bitwise_rk4_where_a_textbook_sum_overflows_on_two_levels():
    # row 0's rates are near 1e308 and row 1's are 1.5 times row 0's state: both rows' textbook sums
    # overflow, and every node stays finite
    N = 6
    table = 1e308 * (1.0 - 0.1 * np.cos(half_steps(N)[:, None] + np.arange(3)))
    y0 = np.zeros((2, 3))
    stages = {0: np.empty((4, N, 3))}

    def rates(L):
        return [stage_kinds(table)] if L == 0 else [[1.5 * stages[0][q] for q in range(4)]]

    leveled = rk4_levels(rates, [[0], [1]], y0, N, stages)
    assert np.isfinite(leveled).all() and leveled[-1].min() > 5e307
    assert leveled.tobytes() == rk4(lambda j, y: np.stack([table[j], 1.5 * y[0]]), y0, N).tobytes()


def test_a_table_only_flow_that_overflows_leaves_the_chart():
    # exp(800 t1) reads no point and overflows from t1 = 0.887 on, at the last two stage times of N = 8
    with pytest.raises(ChartEscapeError, match="left the chart box"):
        cube_from_sections(make_tangent(PLANE), [["exp(800*t1)", "0"]], [0.5, 0.0], N=8)


def test_a_log_of_a_negative_argument_in_a_flow_raises_at_its_stage(monkeypatch):
    runs = []
    run = expr_module.Bound.run
    monkeypatch.setattr(
        expr_module.Bound,
        "run",
        lambda self, out=None, checked=True: runs.append((checked, out.shape)) or run(self, out, checked),
    )
    # log(0.55 - t1) has no value at the 12th stage time, t1 = 11/20.  The cell reads no point, so it
    # is one run over all 21 stage times before step 1, and that run raises: a state-free domain error
    # at a late stage time now wins over a chart escape at an earlier step (both are ValueErrors)
    with pytest.raises(DomainError, match="log of a non-positive"):
        cube_from_sections(make_tangent(PLANE), [["log(0.55 - t1)", "0"]], [0.0, 0.0], 10)
    # every run is unchecked: the domain check is per op, the finiteness check is rk4's
    assert runs == [(False, (21, 1, 2))]


def _per_stage_flow(A, sections, basepoint, N) -> np.ndarray:
    """The points of ``cube_from_sections`` in axis order, with the whole anchor program run at every stage."""
    names, m = time_names(A.chart, len(sections)), A.chart.dim
    G = np.asarray(basepoint, dtype=float)
    for axis, sec in enumerate(sections):
        S = G.shape[:-1]
        t_fixed = np.indices(S, dtype=float).reshape(axis, int(np.prod(S))) / N
        held = {names[l]: t_fixed[l] if l < axis else 0.0 for l in range(len(sections)) if l != axis}
        program = compile_exprs(A.anchor_of(Section.of(sec)))
        X = rk4(lambda j, X: A.chart.values(program, X, {**held, names[axis]: j / (2 * N)}), G.reshape(-1, m), N)
        G = np.moveaxis(X.reshape((N + 1,) + S + (m,)), 0, -2)
    return G


@pytest.mark.parametrize(
    "sections",
    [
        [["-y + 0.3*t1", "x"], ["0.5*x", "y*t2 - t1"]],  # anchor images that read the point: a stage program
        [["cos(3*t1)", "0.5"], ["t1 - t2", "sin(t2)"]],  # ones that read only the times: the table alone
    ],
    ids=["point", "times"],
)
def test_split_flows_are_bitwise_the_per_stage_ones(sections):
    T = make_tangent(PLANE)
    cube = cube_from_sections(T, sections, [0.3, 0.2], 12)
    assert cube.gamma.tobytes() == _per_stage_flow(T, sections, [0.3, 0.2], 12).tobytes()


@pytest.mark.parametrize("sweep", ["flow", "lift"])
def test_a_table_only_sweep_is_bitwise_the_per_stage_one_and_runs_no_rk4(monkeypatch, sweep):
    # both sweeps read no point and no field, so each is a quadrature of its table, with no rk4 call
    from test_fibration import _per_stage_sweep  # its rk4 and this module's are bound at import

    def no_rk4(*args):
        raise AssertionError("a table-only sweep ran rk4")

    monkeypatch.setattr(cubes_module, "rk4", no_rk4)
    if sweep == "flow":
        got = cube_from_sections(make_tangent(PLANE), [["0.5", "t1"]], [0.0, 0.0], 8)
        assert got.gamma.tobytes() == _per_stage_flow(make_tangent(PLANE), [["0.5", "t1"]], [0.0, 0.0], 8).tobytes()
    else:
        fib = jacobi_fibration(PLANE, [["0", "1"], ["-1", "0"]])
        base = cotangent_lift(PLANE, [["0", "1"], ["-1", "0"]], ["0.5*t1", "0.2"], 1, 8)
        got = fibration_module.lift_cube(fib, base)
        monkeypatch.setattr(fibration_module, "evolve_cube_system", _per_stage_sweep)
        want = fibration_module.lift_cube(fib, base)
        assert got.gamma.tobytes() == want.gamma.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _chain(N: int, c: float, late: int):
    """A rate three levels deep over 4 lines, as rk4's ``f`` and as rk4_levels' ``rates``.

    Row 0's rate is a table, non-finite from stage time ``late`` on; row 1's is row 0's state
    squared, and row 2's is exp(c y1) y0.
    """
    table = np.cos(3 * half_steps(N)[:, None] + np.arange(4))
    table[late:] = np.inf

    def f(j, y):
        return np.stack([table[j], y[0] * y[0], np.exp(c * y[1]) * y[0]])

    def rates(stages, L):
        if L == 0:
            return [stage_kinds(table)]
        y0, y1 = stages[0], stages.get(1)
        return [[y0[q] * y0[q] for q in range(4)]] if L == 1 else [[np.exp(c * y1[q]) * y0[q] for q in range(4)]]

    return f, rates


@pytest.mark.parametrize("c, late", [(1.0, 33), (20000.0, 24)])
def test_levels_are_bitwise_rk4_and_raise_at_the_first_non_finite_node_of_any_row(c, late):
    # with c = 20000 row 2 overflows a few steps in (y1 reaches 0.04 by step 5), before row 0
    # turns non-finite at step 12
    N = 16
    y0 = np.stack([np.linspace(-0.5, 0.5, 4), np.zeros(4), np.linspace(0.2, 0.4, 4)])
    f, rates = _chain(N, c, late)
    stages = {0: np.empty((4, N, 4)), 1: np.empty((4, N, 4))}

    def leveled():
        return rk4_levels(lambda L: rates(stages, L), [[0], [1], [2]], y0, N, stages)

    if late > 2 * N:
        assert leveled().tobytes() == rk4(f, y0, N).tobytes()
        return
    messages = []
    for sweep in (lambda: rk4(f, y0, N), leveled):
        with pytest.raises(NonFiniteError) as err:
            sweep()
        messages.append(str(err.value))
    assert messages[0] == messages[1] and re.fullmatch(r"non-finite state at step ([2-9]|1[01]) of 16", messages[0])


@pytest.mark.parametrize("r, cols", [(1, 1), (3, 2)])
@pytest.mark.parametrize("affine", [False, True], ids=["homogeneous", "affine"])
@pytest.mark.parametrize("shared", [True, False], ids=["k2-is-k3", "k2-not-k3"])
def test_rk4_linear_is_rk4_of_its_linear_rate_to_rounding(r, cols, affine, shared):
    rng, N, lines = np.random.default_rng(10 * r + cols), 10, (4,)
    if shared:  # a nonautonomous B over the 2N+1 stage times, whose k2 and k3 are one array
        t = half_steps(N)[:, None, None, None]
        B0, B1 = rng.normal(size=(2,) + lines + (r, r))
        B = stage_kinds(B0 * np.cos(3 * t) + B1 * t)
        assert B[1] is B[2]
    else:  # every stage of every step drawn on its own, as stage states of lower rows may give
        B = tuple(rng.normal(size=(4, N) + lines + (r, r)))
    c = tuple(rng.normal(size=(4, N) + lines + (r, cols))) if affine else None
    y0 = rng.normal(size=lines + (r, cols))
    calls = itertools.count()

    def f(j, y):
        s, q = divmod(next(calls), 4)  # rk4 calls f at k1, k2, k3 and k4 of each step, in order
        return B[q][s] @ y + (c[q][s] if affine else 0.0)

    np.testing.assert_allclose(rk4_linear(B, c, y0, N), rk4(f, y0, N), rtol=1e-12, atol=1e-12)


def _spun(N: int) -> tuple:
    """A rate with a closed form: (y0, y1) turns by 3t + t^2, and y2' = cos(t) y2 + exp(sin t), so y2 = exp(sin t) (y2(0) + t).

    Returns B and c at the stage kinds of N steps, y0, and the exact state at t = 1.
    """
    t = half_steps(N)
    B = np.zeros((2 * N + 1, 3, 3))
    B[:, 1, 0], B[:, 0, 1], B[:, 2, 2] = 3 + 2 * t, -(3 + 2 * t), np.cos(t)
    c = np.zeros((2 * N + 1, 3, 1))
    c[:, 2, 0] = np.exp(np.sin(t))
    y0, a = np.array([[1.0], [0.5], [-0.3]]), 4.0
    exact = np.array([[np.cos(a) - 0.5 * np.sin(a)], [np.sin(a) + 0.5 * np.cos(a)], [np.exp(np.sin(1.0)) * 0.7]])
    return stage_kinds(B), stage_kinds(c), y0, exact


def test_rk4_linear_converges_at_order_four():
    errors = []
    for N in (16, 32, 64):
        B, c, y0, exact = _spun(N)
        errors.append(np.abs(rk4_linear(B, c, y0, N)[-1] - exact).max())
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(14 < ratio < 18 for ratio in ratios), ratios


def test_rk4_linear_raises_rk4s_error_at_the_first_non_finite_node():
    # y' = 0.1 y grows by e^(1/120) a step, from e^(-5.5/120) times the largest float: past it in step 6.
    # (six times a rate this small stays finite, so neither stepper's increment overflows before its node does)
    N, big = 12, np.finfo(float).max * np.exp(-5.5 / 120)
    B = stage_kinds(np.full((2 * N + 1, 1, 1), 0.1))
    messages = []
    for sweep in (lambda: rk4(lambda j, y: 0.1 * y, np.full((1, 1), big), N), lambda: rk4_linear(B, None, np.full((1, 1), big), N)):
        with pytest.raises(NonFiniteError) as err:
            sweep()
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "non-finite state at step 6 of 12"


def test_flow_cube_zero_dimensional_chart():
    A = make_lie_algebra(3, so3_structure())
    secs = [["cos(t2)", "-sin(t2)", "0"], ["0", "0", "1"]]
    assert commutation_residual(A, secs) < 1e-12
    c = cube_from_sections(A, secs, [], 64)
    assert c.gamma.shape == (65, 65, 0)
    # the points carry the grid shape though they hold no coordinate array
    assert c.points == () and A.structure_values(c.points).shape == (65, 65, 3, 3, 3)
    assert A.anchor_values(c.points).shape == (65, 65, 3, 0)
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
    with pytest.raises(ValueError):
        cube_from_sections(T, [["0", "1"]], [0, 0], 8, order=(1,))
    # the time variables are t1 .. tn, so a chart coordinate t1 clashes with them
    clash = make_tangent(Chart(("t1", "y"), ((-1.0, 1.0), (-1.0, 1.0))))
    two = [["1", "0"], ["0", "1"]]
    with pytest.raises(ValueError, match="time name"):
        commutation_residual(clash, two)
    with pytest.raises(ValueError, match="time name"):
        cube_from_sections(clash, two, [0, 0], 8)
    with pytest.raises(ValueError, match="time name"):
        tangent_lift(clash.chart, ["t1", "t2"], n=2, N=8)
    with pytest.raises(ValueError, match="time name"):
        path_cube(clash, ["0", "0"], ["1", "0"], N=8)


# --- boundary classification -------------------------------------------------


def bump_sphere(N=24):
    # gamma vanishes on the whole boundary, velocities vanish on the
    # boundary slabs of the other axis
    return tangent_lift(PLANE, ["t1*(1 - t1)*t2*(1 - t2)", "0"], n=2, N=N)


def test_sphere_detection():
    s = bump_sphere()
    assert sphere_defect(s) < 1e-12
    assert sphere_defect(linear_square()) >= 1e-3
    # a closed 1-cube counts, an open one does not
    loop = tangent_lift(PLANE, ["sin(2*3.141592653589793*t1)", "0"], n=1, N=32)
    assert sphere_defect(loop) < 1e-10
    arc = tangent_lift(PLANE, ["t1", "0"], n=1, N=32)
    assert sphere_defect(arc) == pytest.approx(1.0)


def test_homotopy_detection():
    # last-axis component vanishes where the first coordinate hits the ends
    h = tangent_lift(PLANE, ["t1", "t1*(1 - t1)*t2"], n=2, N=16)
    assert homotopy_defect(h) < 1e-12
    assert homotopy_defect(linear_square()) >= 1e-3
    with pytest.raises(ValueError):
        homotopy_defect(tangent_lift(PLANE, ["t1", "0"], n=1, N=8))


def test_defects_of_a_rank_zero_cube_are_zero():
    # the shape lift_cube returns over a point chart: every field is empty
    cube = Cube(make_tangent(point_chart()), np.zeros((5, 5, 0)), np.zeros((2, 5, 5, 0)))
    assert morphism_residual(cube) == (0.0, 0.0)
    assert sphere_defect(cube) == 0.0
    assert homotopy_defect(cube) == 0.0


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


def test_cutoff_is_a_monotone_flat_ended_step():
    for n in (1001, 4097, 8193, 10001):
        assert np.all(np.diff(cutoff(np.linspace(0.0, 1.0, n))) >= 0)
    assert [cutoff(t) for t in (0.0, 0.5, 1.0)] == [0.0, 0.5, 1.0]
    ts = np.linspace(0.0, 0.01, 1001)
    assert np.max(cutoff(ts)) <= 1e-40
    assert np.max(1.0 - cutoff(1.0 - ts)) <= 1e-40
    ends = np.array([0.0, 1e-300, 1e-200, 1.0, 1.5, -0.5])
    assert np.all(cutoff_prime(ends) == 0.0)
    assert np.all(np.isfinite(cutoff_prime(np.linspace(-0.5, 1.5, 4001))))


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


def thomas_slopes(y: np.ndarray) -> np.ndarray:
    """Node slopes along axis 0 of the not-a-knot spline through ``y`` on uniform knots, by row-by-row elimination.

    The reference for the cached solve, and the loop ``scripts/spline_ladder.py`` times against it.
    """
    N = y.shape[0] - 1
    m = np.diff(y, axis=0) * N
    lower, diag, upper = [1.0] * (N + 1), [4.0] * (N + 1), [1.0] * (N + 1)
    r = np.empty(y.shape)
    r[1:-1] = 3 * (m[:-1] + m[1:])
    if N == 2:
        upper[0] = lower[N] = diag[0] = diag[N] = 1.0
        r[0], r[-1] = 2 * m[0], 2 * m[-1]
    else:
        upper[0] = lower[N] = 2.0
        diag[0] = diag[N] = 1.0
        r[0], r[-1] = (5 * m[0] + m[1]) / 2, (m[-2] + 5 * m[-1]) / 2
    for i in range(1, N + 1):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        r[i] -= w * r[i - 1]
    r[-1] /= diag[-1]
    for i in range(N - 1, -1, -1):
        r[i] -= upper[i] * r[i + 1]
        r[i] /= diag[i]
    return r


# one block of the cached inverse up to 32 rows (N = 31), two from 33; from 65 rows (N = 64) on, blocks read a cut system
@pytest.mark.parametrize("N", [2, 3, 6, 31, 32, 33, 63, 64, 65, 66, 97, 200, 768])
def test_the_cached_slope_solve_matches_the_thomas_loop(N):
    rng = np.random.default_rng(N)
    for y in (rng.normal(size=N + 1), rng.normal(size=(N + 1, 5, 2)), np.cumsum(rng.normal(size=(N + 1, 3)), axis=0)):
        want = thomas_slopes(y)
        got = cubes_module._node_slopes(y) * N  # the cached solve gives slopes in units of the step
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_the_cached_inverse_is_read_only():
    blocks = cubes_module._slope_solver(97)
    assert sum(rows.stop - rows.start for rows, _, _ in blocks) == 98
    for _, _, block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0


def _grid_caches():
    from algebroids import transgression

    return {
        "axis_times": (cubes_module.axis_times, (2, 24)),
        "half_steps": (half_steps, (24,)),
        "stage_location": (cubes_module.stage_location, (24,)),
        "grid_location": (cubes_module._grid_location, (48, 97)),
        "slope_solver": (cubes_module._slope_solver, (97,)),
        "trapezoid_weights": (transgression._trapezoid_weights, (24,)),
    }


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", sorted(_grid_caches()))
def test_every_per_n_grid_cache_is_bounded_and_read_only(name):
    cache, args = _grid_caches()[name]
    assert cache.cache_info().maxsize == 8
    value = cache(*args)
    assert cache(*args) is value
    arrays = list(_arrays(value))
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


@pytest.mark.parametrize("N", [2, 13, 97])
@pytest.mark.parametrize("shape", [(), (5,), (4, 3)], ids=["1-D", "lines", "grid"])
@pytest.mark.parametrize("axis", [0, -1], ids=["first", "last"])
def test_a_spline_at_the_cached_stage_times_is_bitwise_at_a_copy_of_them(N, shape, axis):
    y = np.moveaxis(np.random.default_rng(N).normal(size=(N + 1,) + shape), 0, axis)
    spline = Spline(y, axis=axis % y.ndim)
    want = spline(half_steps(N).copy()).tobytes()
    assert spline(half_steps(N)).tobytes() == want
    assert spline.at(cubes_module.stage_location(N)).tobytes() == want


def test_a_resample_reads_its_cached_location_bitwise_as_a_fresh_one():
    cube = cotangent_lift(PLANE, [["0", "1"], ["-1", "0"]], ["0.9*t1", "0.2*sin(3*t1 + t2)"], n=2, N=21)
    M, located = 10, cubes_module._locate(np.linspace(0.0, 1.0, 11), 21)
    cached = cubes_module._grid_location(M, 21)
    assert cached.index.tobytes() == located.index.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(cached.weights, located.weights))
    half = resample(cube, M)
    want = cube.coeffs
    for axis in range(2):
        want = Spline(want, axis=axis + 1)(np.linspace(0.0, 1.0, M + 1))
    assert half.coeffs.tobytes() == want.tobytes()


def test_a_spline_refuses_positions_located_on_another_number_of_steps():
    with pytest.raises(ValueError, match="located on 12 steps, not the spline's 24"):
        Spline(np.zeros((25, 2))).at(cubes_module.stage_location(12))


@pytest.mark.parametrize("nodes", [1, 2])
def test_a_spline_needs_three_nodes(nodes):
    with pytest.raises(ValueError, match="at least 3 nodes"):
        Spline(np.zeros((nodes, 2)))
    with pytest.raises(ValueError, match="at least 3 nodes"):
        bicubic(np.zeros((nodes, nodes, 2)), np.zeros(4), np.zeros(4))


def test_a_multi_field_bicubic_is_bitwise_one_call_per_field():
    rng = np.random.default_rng(7)
    fields = [rng.normal(size=(25, 25) + F) for F in ((2,), (3,), (), (2, 2))]
    x, y = rng.uniform(-0.1, 1.1, size=(2, 6, 9))
    together = bicubic(fields, x, y)
    assert len(together) == len(fields)
    for f, got in zip(fields, together):
        assert got.tobytes() == bicubic(f, x, y).tobytes()
        assert got.shape == x.shape + f.shape[2:]


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
    assert sphere_defect(flat) < 1e-9
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


def _gradient_inputs():
    """(name, array, axis) cases of grid_difference: negative axes, a transposed, a broadcast and a read-only array, three nodes."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 5, 3))
    ro = rng.normal(size=(9, 4))
    ro.flags.writeable = False
    yield "axis 0", a, 0
    yield "axis 1", a, 1
    yield "axis -1", a, -1
    yield "axis -2", a, -2
    yield "transposed", a.transpose((2, 0, 1)), 1
    yield "broadcast", np.broadcast_to(rng.normal(size=(6, 1, 2)), (6, 5, 2)), 0
    yield "broadcast along it", np.broadcast_to(rng.normal(size=(1, 4)), (5, 4)), 0
    yield "read-only", ro, -2
    yield "three nodes", rng.normal(size=(3, 4)), 0
    yield "three nodes, last axis", rng.normal(size=(2, 3)), -1
    yield "one axis", rng.normal(size=11), 0


@pytest.mark.parametrize("name, f, axis", list(_gradient_inputs()), ids=[case[0] for case in _gradient_inputs()])
def test_grid_difference_is_bitwise_numpys_second_order_gradient(name, f, axis):
    h = 1.0 / (f.shape[axis] - 1)
    want = np.gradient(f, h, axis=axis, edge_order=2)
    got = cubes_module.grid_difference(f, h, axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # written into a buffer, or added to one, as the sweeps do
    out = np.empty(f.shape)
    assert cubes_module.grid_difference(f, h, axis, out=out) is out and out.tobytes() == want.tobytes()
    acc = np.random.default_rng(1).normal(size=f.shape)
    summed = np.add(acc, want)
    cubes_module.grid_difference(f, h, axis, out=acc, add=True)
    assert acc.tobytes() == summed.tobytes()


def test_grid_difference_along_several_axes_stacks_numpys_gradients():
    f = np.random.default_rng(2).normal(size=(5, 4, 6))
    want = np.gradient(f, 0.25, axis=(2, 0), edge_order=2)
    got = cubes_module.grid_difference(f, 0.25, (2, -3))
    assert got.shape == (2,) + f.shape and got.tobytes() == np.array(want).tobytes()


def test_grid_difference_refuses_fewer_than_three_nodes():
    with pytest.raises(ValueError, match="at least 3 nodes, not 2"):
        cubes_module.grid_difference(np.zeros((4, 2)), 1.0, 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_morphism_residuals_pair_contraction_is_bitwise_the_three_operand_einsum(n, rank):
    rng = np.random.default_rng(10 * n + rank)
    grid = (9,) * n
    ci, cj, cvals = rng.normal(size=grid + (rank,)), rng.normal(size=grid + (rank,)), rng.normal(size=grid + (rank,) * 3)
    want = np.einsum("...p,...q,...pql->...l", ci, cj, cvals)
    got = np.einsum("...pq,...pql->...l", ci[..., :, None] * cj[..., None, :], cvals)
    assert got.tobytes() == want.tobytes()


def test_morphism_residual_is_bitwise_its_gradient_and_three_operand_form():
    A = make_lie_algebra(3, so3_structure())
    rng = np.random.default_rng(3)
    N = 10
    cube = Cube(A, np.zeros((N + 1,) * 3 + (0,)), rng.normal(size=(3,) + (N + 1,) * 3 + (3,)))
    h, c, cvals = 1.0 / N, cube.coeffs, A.structure_values(cube.points)
    structure = max(
        sup_norm(
            np.gradient(c[i], h, axis=j, edge_order=2) - np.gradient(c[j], h, axis=i, edge_order=2)
            - np.einsum("...p,...q,...pql->...l", c[i], c[j], cvals)
        )
        for i, j in itertools.combinations(range(3), 2)
    )
    assert morphism_residual(cube).structure == structure
    square = tangent_lift(PLANE, ["0.2 + sin(t1*t2)", "0.3*t2^2 - 0.1*t1"], n=2, N=12)
    rho, h = square.algebroid.anchor_values(square.points), 1.0 / 12
    base = max(
        sup_norm(np.gradient(square.gamma, h, axis=i, edge_order=2) - np.einsum("...p,...pm->...m", square.coeffs[i], rho))
        for i in range(2)
    )
    assert morphism_residual(square).base == base


def test_the_package_calls_no_python_level_axis_gradient_or_tensordot_helper():
    # np.moveaxis, np.gradient and np.tensordot normalise their arguments in Python on every call;
    # the package uses the transpose, second-order difference and matrix product they end in
    src = Path(cubes_module.__file__).resolve().parent
    calls = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bnp\.(moveaxis|gradient|tensordot)\(", text)
    ]
    assert not calls, calls
