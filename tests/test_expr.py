import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.expr import (
    Binary,
    Const,
    DomainError,
    NonFiniteError,
    ParseError,
    UnboundVariableError,
    Unary,
    Var,
    as_expr,
    compile_exprs,
    cos,
    evaluate,
    is_zero,
    parse,
    power,
    sin,
    var,
)


def test_parse_numbers_and_precedence():
    assert evaluate(parse("2 + 3*4"), {}) == 14.0
    assert evaluate(parse("(2 + 3)*4"), {}) == 20.0
    assert evaluate(parse("2 - 3 - 4"), {}) == -5.0
    assert evaluate(parse("12/3/2"), {}) == 2.0
    assert evaluate(parse("1.5e2"), {}) == 150.0
    assert evaluate(parse("2.5e-1"), {}) == 0.25


def test_parse_unary_minus_and_power():
    assert evaluate(parse("-2^2"), {}) == -4.0
    assert evaluate(parse("(-2)^2"), {}) == 4.0
    assert evaluate(parse("2^-2"), {}) == 0.25
    assert evaluate(parse("-x"), {"x": 3.0}) == -3.0
    assert evaluate(parse("--x"), {"x": 3.0}) == 3.0


def test_parse_functions():
    env = {"x": 0.7}
    assert evaluate(parse("sin(x)"), env) == pytest.approx(math.sin(0.7))
    assert evaluate(parse("cos(x)^2 + sin(x)^2"), env) == pytest.approx(1.0)
    assert evaluate(parse("exp(log(x))"), env) == pytest.approx(0.7)
    assert evaluate(parse("sqrt(x*x)"), env) == pytest.approx(0.7)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as ei:
        parse("2^x")
    assert "constant integer" in str(ei.value)
    assert ei.value.offset == 2

    with pytest.raises(ParseError) as ei:
        parse("1 + @")
    assert ei.value.offset == 4

    with pytest.raises(ParseError):
        parse("sin(x")
    with pytest.raises(ParseError):
        parse("foo(x)")
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("2^1.5")


def test_eval_errors():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + y"), {"x": 1.0})
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), {"x": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^-1"), {"x": 0.0})
    # division by a syntactic zero is not folded away
    with pytest.raises(DomainError):
        evaluate(parse("(x - x)/(x - x)"), {"x": 2.0})


def test_eval_arrays():
    xs = np.linspace(0.1, 2.0, 17)
    got = evaluate(parse("x^2 + sin(x)"), {"x": xs})
    np.testing.assert_allclose(got, xs**2 + np.sin(xs), rtol=1e-15)
    # array domain violations are caught even when only one entry is bad
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), {"x": np.array([1.0, -1.0])})


def test_constant_folding():
    assert isinstance(parse("2 + 3"), Const)
    assert str(parse("0 + x")) == "x"
    assert str(parse("x*1")) == "x"
    assert str(parse("0*x")) == "0.0"
    assert str(parse("x^0")) == "1.0"
    assert str(parse("x^1")) == "x"
    # 0/x must stay a division: it still raises at x = 0
    with pytest.raises(DomainError):
        evaluate(parse("0/x"), {"x": 0.0})


def test_operator_overloads():
    x, y = var("x"), var("y")
    e = (x + 1) * y - x / 2 + (-y) ** 2
    env = {"x": 3.0, "y": 5.0}
    assert evaluate(e, env) == pytest.approx((3 + 1) * 5 - 1.5 + 25)
    assert evaluate(as_expr("x + y"), env) == 8.0
    assert evaluate(as_expr(2.5), {}) == 2.5


def test_variables():
    assert parse("x*sin(y) + z^2").variables() == {"x", "y", "z"}
    assert parse("1 + 2").variables() == frozenset()


# --- exact derivative against a central finite difference ----------------

_POOL = [
    "x^3 - 2*x + 1",
    "sin(x)*cos(y)",
    "exp(x*y)",
    "log(x^2 + 1)",
    "sqrt(x^2 + y^2 + 1)",
    "x/(y^2 + 1)",
    "sin(x^2)*exp(-y)",
    "(x + y)^4",
    "cos(exp(x) - y)",
    "x*y/(x^2 + 2)",
    "sqrt(exp(x) + 1)/(y^2 + 3)",
    "log(sqrt(x^2 + 1) + y^2 + 2)",
    "-x^2 + sin(y)^3",
    "exp(sin(x) + cos(y))",
    "(x - y)/(x + y + 5)",
]


@pytest.mark.parametrize("text", _POOL)
def test_diff_matches_finite_difference(text):
    e = parse(text)
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(8):
        pt = {"x": float(rng.uniform(-1.5, 1.5)), "y": float(rng.uniform(-1.5, 1.5))}
        for name in ("x", "y"):
            exact = float(evaluate(e.diff(name), pt))
            up = dict(pt)
            dn = dict(pt)
            up[name] += h
            dn[name] -= h
            fd = (float(evaluate(e, up)) - float(evaluate(e, dn))) / (2 * h)
            assert exact == pytest.approx(fd, abs=1e-6 * (1 + abs(exact)))


def test_diff_of_constant_and_other_variable():
    assert str(parse("7").diff("x")) == "0.0"
    assert str(parse("y").diff("x")) == "0.0"
    assert str(parse("x").diff("x")) == "1.0"


# --- printing round trip --------------------------------------------------


@pytest.mark.parametrize("text", _POOL + ["-2^2", "2^-3", "x - (y - 1)", "x/(y/2)"])
def test_str_round_trips_by_value(text):
    e = parse(text)
    e2 = parse(str(e))
    rng = np.random.default_rng(7)
    for _ in range(5):
        env = {"x": float(rng.uniform(0.2, 1.4)), "y": float(rng.uniform(0.2, 1.4))}
        assert float(evaluate(e, env)) == pytest.approx(float(evaluate(e2, env)), rel=1e-12)


# --- hypothesis: random trees survive print/parse and differentiate -------


@st.composite
def exprs(draw, depth=0):
    if depth > 4:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 5))
    if choice == 0:
        return Const(draw(st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 3))))
    if choice == 1:
        return var(draw(st.sampled_from(["x", "y"])))
    if choice == 2:
        return draw(exprs(depth=depth + 1)) + draw(exprs(depth=depth + 1))
    if choice == 3:
        return draw(exprs(depth=depth + 1)) * draw(exprs(depth=depth + 1))
    if choice == 4:
        return sin(draw(exprs(depth=depth + 1)))
    return power(draw(exprs(depth=depth + 1)), draw(st.integers(2, 3)))


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_and_diff_total(e):
    env = {"x": 0.37, "y": -0.81}
    v1 = float(evaluate(e, env))
    v2 = float(evaluate(parse(str(e)), env))
    assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-9)
    # differentiation is total on this fragment and never mutates e
    s_before = str(e)
    e.diff("x")
    assert str(e) == s_before


# --- compiled programs against a reference tree walk ----------------------


def _walk(e, env):
    """Reference: evaluate a tree node by node, as the compiler must reproduce."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        return np.asarray(env[e.name], dtype=np.float64)
    if isinstance(e, Unary):
        a = _walk(e.arg, env)
        if (e.op == "log" and np.any(a <= 0.0)) or (e.op == "sqrt" and np.any(a < 0.0)):
            raise DomainError(e.op)
        return -a if e.op == "neg" else getattr(np, e.op)(a)
    if isinstance(e, Binary):
        a, b = _walk(e.left, env), _walk(e.right, env)
        if e.op == "div" and np.any(b == 0.0):
            raise DomainError("div")
        return {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}[e.op](a, b)
    b = _walk(e.base, env)
    if e.k < 0 and np.any(b == 0.0):
        raise DomainError("power")
    return b**e.k


_ARRAY_ENV = {"x": np.linspace(-1.3, 1.1, 7), "y": np.linspace(0.4, -2.2, 7)}


@st.composite
def signed_exprs(draw):
    """exprs() trees mixed with negations, differences and quotients."""
    e = draw(exprs())
    for _ in range(draw(st.integers(0, 3))):
        f = draw(exprs().filter(lambda f: not is_zero(f)))
        combine = draw(st.sampled_from([
            lambda e, f: -e, lambda e, f: e - f, lambda e, f: f - e, lambda e, f: -e - f,
            lambda e, f: -e * f, lambda e, f: e * -f, lambda e, f: e / -f, lambda e, f: -(e + f),
        ]))
        e = combine(e, f)
    return e


@given(signed_exprs(), signed_exprs())
@settings(max_examples=120, deadline=None)
def test_compiled_values_equal_the_tree_walk_bitwise(e, f):
    # one tree, and a matrix of trees that share it or its negation
    for exprs in (e, ((e, -e, e + f), (f - e, -(e * f), sin(-e)))):
        leaves = np.array(exprs, dtype=object)
        try:
            with np.errstate(all="ignore"):
                want = np.stack([np.broadcast_to(_walk(x, _ARRAY_ENV), (7,)) for x in leaves.flat], axis=-1)
        except DomainError:
            with pytest.raises(DomainError):
                evaluate(exprs, _ARRAY_ENV, (7,))
            continue
        if not np.all(np.isfinite(want)):
            with pytest.raises(DomainError, match="non-finite"):
                evaluate(exprs, _ARRAY_ENV, (7,))
            continue
        got = evaluate(exprs, _ARRAY_ENV, (7,))
        assert got.shape == (7,) + leaves.shape
        assert got.reshape(7, -1).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text",
    # the exp() forms hide the infinity a missing check would let through
    ["x/(y - y)", "log(x - 2)", "sqrt(x - 2)", "(y - y)^-2", "x + z",
     "exp(-1/(y - y))", "exp(log(y - y))", "exp(-(y - y)^-2)"],
)
def test_compiled_and_walk_raise_the_same_error(text):
    e = parse(text)
    with pytest.raises(Exception) as walked:
        _walk(e, _ARRAY_ENV)
    with pytest.raises(Exception) as compiled:
        evaluate(e, _ARRAY_ENV)
    assert type(compiled.value) is type(walked.value)
    assert isinstance(compiled.value, (DomainError, UnboundVariableError))


def test_non_finite_values_are_domain_errors():
    with pytest.raises(NonFiniteError, match="non-finite"):
        evaluate(parse("exp(x)"), {"x": 1000.0})
    assert issubclass(NonFiniteError, DomainError)
    with pytest.raises(DomainError, match="non-finite"):
        evaluate(parse("1/x"), {"x": 1e-320})
    with pytest.raises(DomainError, match="non-finite"):
        evaluate(parse("x"), {"x": np.array([0.0, np.nan])})
    # the error names the offending entry of a matrix
    with pytest.raises(DomainError, match=r"\(1, 0\)"):
        evaluate(((parse("x"), parse("1")), (parse("exp(x)"), parse("2"))), {"x": np.array([1.0, 800.0])}, (2,))
    # an overflow that does not reach an output is no error
    assert evaluate(parse("1/exp(x)"), {"x": 1000.0}) == 0.0


def test_program_output_that_is_also_a_later_operand():
    x = var("x")
    s = sin(x)
    xs = np.array([0.3, -1.2, 2.5])
    program = compile_exprs((s * s, s, x, Const(2.0), s * s + s))
    assert [op[0] for op in program.ops] == ["sin", "mul", "add"]
    got = evaluate(program, {"x": xs}, (3,))
    np.testing.assert_array_equal(got, np.stack([np.sin(xs) ** 2, np.sin(xs), xs, 2.0 + 0 * xs, np.sin(xs) ** 2 + np.sin(xs)], axis=-1))
    # nothing outlives its last reader, and the program can be run again
    np.testing.assert_array_equal(evaluate(program, {"x": xs}, (3,)), got)


def test_program_shares_equal_subtrees_built_separately():
    a = parse("sin(x)*cos(y) + sin(x)")
    b = parse("sin(x)*cos(y) - cos(y)")
    program = compile_exprs((a, b))
    assert sorted(op[0] for op in program.ops) == ["add", "cos", "mul", "sin", "sub"]
    # a different op or operand order is a different node
    assert [op[0] for op in compile_exprs((parse("x*y"), parse("y*x"), parse("x/y"))).ops] == ["mul", "mul", "div"]
    # 0.0 and -0.0 stay distinct constants
    zeros = evaluate((Const(0.0), Const(-0.0)), {})
    assert np.signbit(zeros).tolist() == [False, True]
