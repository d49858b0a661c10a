import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.core import (
    Algebroid,
    AxiomWitness,
    Chart,
    Section,
    check_axioms,
    direct_sum,
    eval_exprs,
    make_cotangent_poisson,
    make_explicit,
    make_jacobi_extension,
    make_lie_algebra,
    make_rep_extension,
    make_tangent,
    point_chart,
    product_chart,
    so3_structure,
    unit_draws,
)
from algebroids.expr import ZERO, add, compile_exprs, dot, mul, parse, sub, total, var


PLANE = Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))


def env_at(**kv):
    return kv


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(coords=("x", "x"), box=((-1, 1), (-1, 1)))
    with pytest.raises(ValueError):
        Chart(coords=("x",), box=((1, -1),))
    with pytest.raises(ValueError):
        Chart(coords=("not a name",), box=((-1, 1),))
    with pytest.raises(ValueError):
        Chart(coords=("x", "y"), box=((-1, 1),))


def test_chart_env_contains_sample():
    pts = np.array([[0.0, 1.0], [1.5, -0.5]])
    env = PLANE.env(pts)
    np.testing.assert_allclose(env["x"], [0.0, 1.5])
    np.testing.assert_allclose(env["y"], [1.0, -0.5])
    assert PLANE.contains(pts)
    assert not PLANE.contains(np.array([3.0, 0.0]))
    assert PLANE.contains(np.array([2.05, 0.0]), tol=0.1)
    rng = np.random.default_rng(0)
    s = PLANE.sample(50, rng)
    assert s.shape == (50, 2)
    assert PLANE.contains(s)
    p = point_chart()
    assert p.dim == 0
    assert p.sample(5, rng).shape == (5, 0)
    assert p.contains(np.zeros((5, 0)))


def test_unit_draws_are_numpys_pcg64_uniform_stream_bit_for_bit():
    rnd = random.Random(36)
    seeds = [0, 1, 42, 2**32 - 1, 2**32, 2**64, 2**200 + 3] + [rnd.getrandbits(rnd.randint(1, 140)) for _ in range(30)]
    for seed in seeds:
        for shape in ((0, 2), (1, 1), (25, 2), (200, 3)):
            got = unit_draws(seed, shape)
            want = np.random.Generator(np.random.PCG64(seed)).uniform(size=shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, shape)
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0.0
    # pinned, so that a change of numpy's stream is told apart from a fault here
    assert [u.hex() for u in unit_draws(42, (3,))] == ["0x1.8c43f79a2db24p-1", "0x1.c16959869e47ep-2", "0x1.b79a2584ddb42p-1"]
    assert unit_draws(42, (3,)) is unit_draws(42, (3,))
    with pytest.raises(ValueError, match="non-negative"):
        unit_draws(-1, (3,))


def test_a_sample_from_a_seed_is_the_sample_from_its_default_rng():
    got = PLANE.sample(25, 0)
    assert got.tobytes() == PLANE.sample(25, np.random.default_rng(0)).tobytes()
    assert got.flags.writeable and point_chart().sample(4, 0).shape == (4, 0)


def test_coordinate_arrays_give_the_bits_of_their_stacked_points():
    # x varies along axis 0 only and y along axis 1 only; as a tuple each is read at its own shape
    x, y = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(0.5, 2.0, 7)[None, :]
    stacked = np.stack(np.broadcast_arrays(x, y), axis=-1)
    program = compile_exprs([parse("x*y + sin(x)"), parse("log(y) - x")])
    got = PLANE.values(program, (x, y))
    assert got.shape == (5, 7, 2) and got.tobytes() == PLANE.values(program, stacked).tobytes()
    assert PLANE.contains((x, y)) and not PLANE.contains((x, 4.0 + y))
    bound = PLANE.bind(program, (x, np.broadcast_to(y, (5, 7))))
    assert bound.base_shape == (5, 7) and bound.run().tobytes() == got.tobytes()


def test_product_chart_requires_disjoint_names():
    other = Chart(coords=("x",), box=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        product_chart(PLANE, other)
    ok = product_chart(PLANE, Chart(coords=("z",), box=((0.0, 1.0),)))
    assert ok.coords == ("x", "y", "z")


def test_eval_exprs_broadcasts_constants():
    pts = np.zeros((4, 0))
    out = eval_exprs((parse("2"), parse("3")), {}, (4,))
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out[:, 0], 2.0)
    env = PLANE.env(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = eval_exprs(((parse("x"), parse("1")), (parse("y"), parse("0"))), env, (2,))
    assert out.shape == (2, 2, 2)
    np.testing.assert_allclose(out[:, 0, 0], [1.0, 3.0])
    np.testing.assert_allclose(out[:, 1, 0], [2.0, 4.0])


def test_section_arithmetic():
    s = Section.of(["x", 1.0]) + Section.of(["y", 0.0]).scaled("2")
    vals = s.values(PLANE, np.array([1.0, 3.0]))
    np.testing.assert_allclose(vals, [7.0, 1.0])
    t = Section.of(["x", "y"]) - Section.of(["x", "0"])
    np.testing.assert_allclose(t.values(PLANE, np.array([1.0, 3.0])), [0.0, 3.0])


# --- tangent bracket against hand-expanded values --------------------------


def test_tangent_bracket_hand_values():
    T = make_tangent(PLANE)
    X = Section.of(["y", "x*x"])
    Y = Section.of(["sin(x)", "1"])
    B = T.bracket(X, Y)
    # first component: y*cos(x) - 1, second: -2*x*sin(x)
    pt = {"x": 0.5, "y": 1.2}
    assert float(B[0].evaluate(pt)) == pytest.approx(0.05309907426844735, abs=1e-12)
    assert float(B[1].evaluate(pt)) == pytest.approx(-0.479425538604203, abs=1e-12)
    # anchor of X is X itself on a tangent algebroid
    np.testing.assert_allclose(
        eval_exprs(T.anchor_of(X), PLANE.env(np.array([0.5, 1.2])), ()),
        [1.2, 0.25],
    )


def test_tangent_axioms_pass():
    rep = check_axioms(make_tangent(PLANE), n_points=50)
    assert rep.passed
    assert rep.jacobi_residual == 0.0
    assert rep.anchor_residual == 0.0


# --- lie algebra layer -------------------------------------------------------


def test_so3_constant_brackets_are_cross_products():
    A = make_lie_algebra(3, so3_structure())
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = rng.normal(size=(2, 3))
        B = A.bracket(Section.of(x), Section.of(y))
        got = np.array([float(c.evaluate({})) for c in B.components])
        np.testing.assert_allclose(got, np.cross(x, y), atol=1e-14)


def test_so3_axioms_pass_and_rescaled_constant_also_passes():
    assert check_axioms(make_lie_algebra(3, so3_structure()), n_points=20).passed
    # a constant rescale of the structure constants stays a Lie algebra
    assert check_axioms(make_lie_algebra(3, so3_structure(2.0)), n_points=20).passed


def test_pointwise_rescaled_so3_with_zero_anchor_still_passes():
    line = Chart(coords=("x",), box=((-1.0, 1.0),))
    A = make_lie_algebra(3, so3_structure(parse("1 + x")), chart=line)
    rep = check_axioms(A, n_points=100)
    # with zero anchor nothing differentiates the scale, so this is honest
    assert rep.passed


def test_corrupted_product_fails_jacobi_with_witness():
    line = Chart(coords=("x",), box=((-1.0, 1.0),))
    scaled = make_lie_algebra(3, so3_structure(parse("1 + x")), chart=line)
    A = direct_sum(scaled, make_tangent(line), shared_chart=True)
    rep = check_axioms(A, n_points=100)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.witness.kind == "jacobi"
    assert rep.witness.indices == (0, 1, 3)
    assert rep.witness.residual == pytest.approx(1.0, abs=1e-12)
    assert "jacobi defect" in rep.summary()


def test_anchor_incompatibility_detected():
    # identity anchor with a nonzero constant bracket cannot be integrable:
    # the image fields commute but the bracket insists they do not
    A = make_explicit(PLANE, 2, [["1", "0"], ["0", "1"]], {(0, 1): ["1", "0"]})
    rep = check_axioms(A, n_points=30)
    assert not rep.passed
    assert rep.witness.kind == "anchor"
    assert rep.witness.indices == (0, 1)
    assert rep.anchor_residual == pytest.approx(1.0, abs=1e-12)
    # the text a failing check task writes into its report
    text = rep.witness.describe()
    assert text.startswith("anchor/bracket mismatch on frame pair (0, 1) at point (")
    assert text.endswith("): |residual| = 1.000e+00")


# --- cotangent of a bivector -------------------------------------------------


def test_cotangent_frame_bracket_is_differential_of_bivector_entry():
    A = make_cotangent_poisson(PLANE, {(0, 1): "1 + x^2"})
    B = A.bracket(A.frame(0), A.frame(1))
    env = {"x": 0.7, "y": -0.3}
    np.testing.assert_allclose(
        [float(c.evaluate(env)) for c in B.components], [2 * 0.7, 0.0], atol=1e-14
    )
    # anchor convention: the first coordinate differential maps to
    # (0, pi12), the second to (-pi12, 0)
    a = A.anchor_values(np.array([0.7, -0.3]))
    np.testing.assert_allclose(a, [[0.0, 1.49], [-1.49, 0.0]], atol=1e-14)


def test_cotangent_bracket_of_exact_forms_is_differential_of_poisson_bracket():
    A = make_cotangent_poisson(PLANE, {(0, 1): "1 + x^2"})
    x, y = var("x"), var("y")
    f = x * x
    g = x * y
    df = Section(tuple(f.diff(n) for n in PLANE.coords))
    dg = Section(tuple(g.diff(n) for n in PLANE.coords))
    # {f, g} = pi(df, dg)
    pb = parse("(1 + x^2)*(2*x*x - 0*y)")
    lhs = A.bracket(df, dg)
    rng = np.random.default_rng(11)
    pts = PLANE.sample(40, rng)
    got = eval_exprs(lhs.components, PLANE.env(pts), (40,))
    want = eval_exprs(tuple(pb.diff(n) for n in PLANE.coords), PLANE.env(pts), (40,))
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("pi12", ["1", "x", "1 + x^2"])
def test_cotangent_axioms_pass(pi12):
    assert check_axioms(make_cotangent_poisson(PLANE, {(0, 1): pi12}), n_points=60).passed


def test_cotangent_r3_with_variable_bivector():
    space = Chart(coords=("x", "y", "z"), box=((-1, 1), (-1, 1), (-1, 1)))
    # linear (Lie-Poisson style) bivector, still Jacobi-flat in rank 3:
    # pi = z dx^dy wedge-style entry only
    A = make_cotangent_poisson(space, {(0, 1): "z"})
    assert check_axioms(A, n_points=60).passed


# --- central extension of the cotangent algebroid ---------------------------


def test_jacobi_extension_layout_and_axioms():
    A = make_jacobi_extension(PLANE, {(0, 1): "1"})
    assert A.rank == 3
    # frame 0 is central: zero anchor row and no brackets touching it
    np.testing.assert_allclose(A.anchor_values(np.array([0.3, 0.4]))[0], 0.0)
    B = A.bracket(A.frame(1), A.frame(2))
    assert [float(c.evaluate({"x": 0.1, "y": 0.2})) for c in B.components] == [1.0, 0.0, 0.0]
    assert check_axioms(A, n_points=60).passed


@pytest.mark.parametrize("pi12", ["x", "1 + x^2"])
def test_jacobi_extension_axioms_variable_bivector(pi12):
    assert check_axioms(make_jacobi_extension(PLANE, {(0, 1): pi12}), n_points=60).passed


# --- extension by a represented kernel ---------------------------------------


def test_rep_extension_layout():
    base = make_tangent(PLANE)
    E = make_rep_extension(base, 1, action=[[["0"]], [["0"]]], twist={(0, 1): ["1"]})
    assert E.rank == 3
    # kernel frame first, horizontal frames after
    B = E.bracket(E.frame(1), E.frame(2))
    assert [float(c.evaluate({"x": 0.0, "y": 0.0})) for c in B.components] == [1.0, 0.0, 0.0]
    assert check_axioms(E, n_points=40).passed


def test_rep_extension_action_sign():
    base = make_tangent(Chart(coords=("x",), box=((-1.0, 1.0),)))
    E = make_rep_extension(base, 1, action=[[["1"]]])
    # bracket of the kernel frame with the horizontal frame carries minus
    # the action matrix
    B = E.bracket(E.frame(0), E.frame(1))
    assert [float(c.evaluate({"x": 0.0})) for c in B.components] == [-1.0, 0.0]
    assert check_axioms(E, n_points=30).passed


def test_rep_extension_curved_action_fails_jacobi():
    # an action that does not commute with itself across frames while the
    # twist stays zero breaks the mixed Jacobi identity
    base = make_tangent(PLANE)
    E = make_rep_extension(base, 1, action=[[["y"]], [["0"]]])
    rep = check_axioms(E, n_points=60)
    assert not rep.passed
    assert rep.witness.kind == "jacobi"


# --- direct sums --------------------------------------------------------------


def test_direct_sum_blocks():
    A = make_lie_algebra(3, so3_structure())
    B = make_tangent(PLANE)
    S = direct_sum(A, B)
    assert S.rank == 5
    assert S.chart.coords == ("x", "y")
    # cross-factor brackets vanish
    C = S.bracket(S.frame(0), S.frame(4))
    assert all(float(c.evaluate({"x": 0.1, "y": 0.2})) == 0.0 for c in C.components)
    assert check_axioms(S, n_points=40).passed


def test_direct_sum_shared_chart_requires_same_chart():
    A = make_tangent(PLANE)
    B = make_tangent(Chart(coords=("u",), box=((-1, 1),)))
    with pytest.raises(ValueError):
        direct_sum(A, B, shared_chart=True)


# --- structural identities as properties --------------------------------------


@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_so3_jacobi_identity_on_constant_sections(x, y, z):
    A = make_lie_algebra(3, so3_structure())
    X, Y, Z = Section.of(x), Section.of(y), Section.of(z)
    J = A.bracket(A.bracket(X, Y), Z) + A.bracket(A.bracket(Y, Z), X) + A.bracket(A.bracket(Z, X), Y)
    vals = [abs(float(c.evaluate({}))) for c in J.components]
    assert max(vals) < 1e-10


def test_bracket_antisymmetry_and_leibniz():
    A = make_cotangent_poisson(PLANE, {(0, 1): "1 + x^2"})
    X = Section.of(["x", "sin(y)"])
    Y = Section.of(["y^2", "x + 1"])
    f = parse("x*y + 2")
    rng = np.random.default_rng(5)
    pts = PLANE.sample(50, rng)
    env = PLANE.env(pts)

    anti = A.bracket(X, Y) + A.bracket(Y, X)
    vals = eval_exprs(anti.components, env, (50,))
    assert np.max(np.abs(vals)) < 1e-10

    lhs = A.bracket(X, Y.scaled(f))
    rhs = A.bracket(X, Y).scaled(f) + Y.scaled(A.anchor_apply(X, f))
    diff = eval_exprs((lhs - rhs).components, env, (50,))
    assert np.max(np.abs(diff)) < 1e-10


def test_structure_values_antisymmetric():
    A = make_cotangent_poisson(PLANE, {(0, 1): "x"})
    pts = PLANE.sample(7, np.random.default_rng(1))
    c = A.structure_values(pts)
    assert c.shape == (7, 2, 2, 2)
    np.testing.assert_allclose(c + np.swapaxes(c, 1, 2), 0.0, atol=1e-15)
    np.testing.assert_allclose(c[:, 0, 1, 0], 1.0)


# --- the bracket against its per-component formula ------------------------------


def reference_bracket(A: Algebroid, X: Section, Y: Section) -> Section:
    """Component k: ``Σ_{p<q} (X_p Y_q - X_q Y_p) c_pq^k + ρ(X)(Y_k) - ρ(Y)(X_k)``, every term built."""
    rho_X, rho_Y = A.anchor_of(X), A.anchor_of(Y)
    out = []
    for k in range(A.rank):
        dY, dX = ([c[k].diff(name) for name in A.chart.coords] for c in (Y, X))
        anchored = sub(dot(rho_X, dY), dot(rho_Y, dX))
        table = total(mul(sub(mul(X[p], Y[q]), mul(X[q], Y[p])), c[k]) for (p, q), c in A.structure.items())
        out.append(add(table, anchored))
    return Section(tuple(out))


LINE = Chart(coords=("x",), box=((-1.0, 1.0),))
SPHERE = Chart(coords=("th", "ph"), box=((0.2, 2.9), (-0.1, 6.4)))
BRACKET_CASES = {
    "tangent": make_tangent(PLANE),
    "so3": make_lie_algebra(3, so3_structure(), chart=PLANE),
    "rep_extension": make_rep_extension(make_tangent(PLANE), 1, action=[[["y"]], [["1 + x"]]], twist={(0, 1): ["x"]}),
    "jacobi_extension": make_jacobi_extension(SPHERE, {(0, 1): "1/sin(th)"}),
    "cotangent_poisson": make_cotangent_poisson(PLANE, {(0, 1): "1 + x^2"}),
}


def chart_terms(chart: Chart) -> list[str]:
    a, b = chart.coords
    return ["0", "1", "-2.5", a, b, f"{a}*{b}", f"sin({a})", f"{b}^2 + 1", f"cos({a})*{b} - 3"]


@st.composite
def sections(draw, A: Algebroid) -> Section:
    """A frame, a section of constants, or a section of chart functions and constants."""
    kind = draw(st.sampled_from(["frame", "constant", "varying"]))
    if kind == "frame":
        return A.frame(draw(st.integers(0, A.rank - 1)))
    if kind == "constant":
        return Section.of(draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=A.rank, max_size=A.rank)))
    return Section.of(draw(st.lists(st.sampled_from(chart_terms(A.chart)), min_size=A.rank, max_size=A.rank)))


@given(st.data(), st.sampled_from(sorted(BRACKET_CASES)))
@settings(max_examples=150, deadline=None)
def test_bracket_is_bitwise_its_per_component_formula(data, case):
    # the bracket builds no anchor term toward a constant section; the values must not move
    A = BRACKET_CASES[case]
    X, Y = data.draw(sections(A), label="X"), data.draw(sections(A), label="Y")
    pts = A.chart.sample(6, np.random.default_rng(3))
    got, want = A.chart.values(A.bracket(X, Y).components, pts), A.chart.values(reference_bracket(A, X, Y).components, pts)
    assert got.tobytes() == want.tobytes()


def reference_jacobi(A: Algebroid, n_points: int, seed: int) -> tuple[float, AxiomWitness]:
    """Jacobi residual and witness from nested reference brackets, as :func:`check_axioms` picks them."""
    e = [A.frame(i) for i in range(A.rank)]

    def br(X: Section, Y: Section) -> Section:
        return reference_bracket(A, X, Y)

    triples = list(itertools.combinations(range(A.rank), 3))
    trees = [(br(br(e[i], e[j]), e[k]) + br(br(e[j], e[k]), e[i]) + br(br(e[k], e[i]), e[j])).components for i, j, k in triples]
    pts = A.chart.sample(n_points, np.random.default_rng(seed))
    vals = A.chart.values(trees, pts)
    norms = np.max(np.abs(vals), axis=-1).T
    f, at = np.unravel_index(np.argmax(norms), norms.shape)
    residual = float(norms[f, at])
    return residual, AxiomWitness("jacobi", triples[f], tuple(map(float, pts[at])), residual, tuple(map(float, vals[at, f])))


@pytest.mark.parametrize(
    "make",
    [
        lambda: direct_sum(make_lie_algebra(3, so3_structure(parse("1 + x")), chart=LINE), make_tangent(LINE), shared_chart=True),
        lambda: make_rep_extension(make_tangent(PLANE), 2, action=[[["y", "1"], ["0", "x"]], [["0", "0"], ["x*y", "0"]]]),
    ],
    ids=["corrupted_product", "curved_rep_extension"],
)
def test_check_axioms_reads_frame_brackets_off_the_table_with_the_nested_brackets_values(make):
    A = make()
    rep = check_axioms(A, n_points=100, seed=7)
    residual, witness = reference_jacobi(A, 100, 7)
    assert not rep.passed and rep.anchor_residual == 0.0
    assert rep.jacobi_residual.hex() == residual.hex()
    assert rep.witness == witness
    assert [v.hex() for v in rep.witness.values] == [v.hex() for v in witness.values]


def test_direct_sum_offsets_the_second_summands_structure_by_the_first_rank():
    T, L = make_tangent(PLANE), make_lie_algebra(3, so3_structure())
    S = direct_sum(T, L)
    assert S.chart.coords == ("x", "y") and S.rank == 5
    assert S.structure == {(2 + i, 2 + j): (ZERO, ZERO) + vec for (i, j), vec in L.structure.items()}
    B = S.bracket(S.frame(2), S.frame(3))
    assert [float(c.evaluate({})) for c in B.components] == [0.0, 0.0, 0.0, 0.0, 1.0]
    rep = check_axioms(S, n_points=40)
    assert rep.passed and rep.jacobi_residual == 0.0 and rep.anchor_residual == 0.0


RANK_TWO = make_tangent(PLANE)
GUARDS = {
    "chart points": (lambda: PLANE.env(np.zeros((4, 3))), ValueError, "expected trailing axis of length 2"),
    "chart coordinates": (lambda: PLANE.env((np.zeros(4),)), ValueError, "expected 2 coordinate arrays, not 1"),
    "matrix shape": (lambda: make_explicit(PLANE, 2, [["1", "0"]]), ValueError, "anchor must be 2 x 2"),
    "negative rank": (lambda: Algebroid(PLANE, -1, ()), ValueError, "rank must be nonnegative"),
    "anchor shape": (lambda: Algebroid(PLANE, 1, ((ZERO,),)), ValueError, "anchor must be rank x dim"),
    "frame index": (lambda: RANK_TWO.frame(2), IndexError, "frame index 2 out of range for rank 2"),
    # toward a constant section no anchor image of the other side is built, yet its length is still checked
    "short X": (lambda: RANK_TWO.bracket(Section.of(["x"]), RANK_TWO.frame(0)), ValueError, "section has 1 components, algebroid rank is 2"),
    "long Y": (lambda: RANK_TWO.bracket(RANK_TWO.frame(1), Section.of([1, 2, 3])), ValueError, "section has 3 components, algebroid rank is 2"),
    "long constant X": (lambda: RANK_TWO.bracket(Section.of([1, 2, 3]), Section.of([1, 2])), ValueError, "section has 3 components, algebroid rank is 2"),
    "action count": (
        lambda: make_rep_extension(RANK_TWO, 1, action=[[["0"]]]),
        ValueError,
        "need one action matrix per base frame (2)",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_library_guard_raises_its_message(guard):
    call, error, message = GUARDS[guard]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_an_empty_point_set_lies_in_every_chart():
    assert PLANE.contains(np.zeros((0, 2)))
