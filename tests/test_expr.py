import dataclasses
import math
import operator
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import expr as expr_module
from algebroids.expr import (
    BLOCK,
    MAX_DEPTH,
    ZERO,
    Binary,
    Const,
    DomainError,
    Expr,
    NonFiniteError,
    ParseError,
    UnboundVariableError,
    Unary,
    Var,
    add,
    as_expr,
    bind,
    compile_exprs,
    cos,
    dot,
    evaluate,
    is_zero,
    mul,
    parse,
    power,
    sin,
    split_exprs,
    total,
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


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("x + 1.2.3", "bad numeric literal '1.2.3'", 4),
        (".5.", "bad numeric literal '.5.'", 0),
        ("x $ y", "unexpected character '$'", 2),
        ("x..", "unexpected character '.'", 1),
        ("2*foo(x)", "unknown function 'foo'", 2),
        ("sin(x", "expected ')', found ''", 5),
        ("(x y)", "expected ')', found 'y'", 3),
        ("(x 2)", "expected ')', found 2.0", 3),
        ("x y", "trailing input starting with 'y'", 2),
        ("x^2^3", "trailing input starting with '^'", 3),
        ("(x))", "trailing input starting with ')'", 3),
        ("", "unexpected token ''", 0),
        ("x + )", "unexpected token ')'", 4),
        ("-*x", "unexpected token '*'", 1),
        ("x^y", "exponent must be a constant integer", 2),
        ("x^-1.5", "exponent must be a constant integer", 3),
        ("(x)^", "exponent must be a constant integer", 4),
        ("-" * (MAX_DEPTH + 1) + "x", f"expression nests deeper than {MAX_DEPTH} levels", MAX_DEPTH),
    ],
)
def test_every_parse_error_names_its_problem_and_offset(text, message, offset):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == f"{message} (at offset {offset})"
    assert ei.value.offset == offset


def test_an_exponent_that_overflows_to_inf_is_a_parse_error():
    with pytest.raises(ParseError, match="exponent must be a constant integer") as ei:
        parse("x^1e400")
    assert ei.value.offset == 2


def test_an_overflowing_constant_power_folds_to_inf():
    # Python's float ** raises OverflowError here; the fold runs the evaluator's power
    assert parse("2^100000") == Const(math.inf)
    assert parse("1e200^2") == Const(math.inf)
    assert parse("(-2)^100001") == Const(-math.inf)
    assert parse("1e200^-2") == Const(0.0)
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        parse("0^-1")
    # like 1e308*10, the infinite constant is caught where it is evaluated
    with pytest.raises(NonFiniteError):
        evaluate(parse("2^100000*x"), {"x": 1.0})


@pytest.mark.parametrize(
    "shape",
    [
        lambda depth: "(" * depth + "x" + ")" * depth,  # nesting
        lambda depth: "sin(" * (depth - 1) + "x" + ")" * (depth - 1),  # nesting and tree height
        lambda depth: " + ".join(["x"] * depth),  # tree height: a left-leaning chain
        lambda depth: "-" * (depth - 1) + "x",  # unary minus nests too
    ],
    ids=["parentheses", "functions", "chain", "minus"],
)
def test_parse_rejects_expressions_nested_past_the_limit(shape):
    tree = parse(shape(MAX_DEPTH))
    assert str(tree) and compile_exprs(tree.diff("x")).size == 1  # printed, differentiated, compiled
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse(shape(MAX_DEPTH + 1))


def test_a_nesting_error_points_at_the_first_level_past_the_limit():
    with pytest.raises(ParseError) as ei:
        parse("1 + " + "(" * 250 + "x" + ")" * 250)
    assert ei.value.offset == 4 + MAX_DEPTH
    with pytest.raises(ParseError) as ei:
        parse(" + ".join(["x"] * 1200))
    assert ei.value.offset == len(" + ".join(["x"] * MAX_DEPTH)) + 1


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


def test_total_and_dot_are_left_folds_from_zero():
    a, b, c, x, y, z = (var(v) for v in "abcxyz")
    assert total([]) == ZERO and dot([], []) == ZERO
    assert total([a, b, c]) == add(add(a, b), c)
    assert dot([a, b, c], [x, y, z]) == add(add(mul(a, x), mul(b, y)), mul(c, z))
    assert dot(iter([a, b]), iter([x, y])) == add(mul(a, x), mul(b, y))
    with pytest.raises(ValueError):
        dot([a, b], [x])


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


# --- blocked evaluation -----------------------------------------------------------

# 50 rows of 1001 points: more than BLOCK points, with a block boundary inside the grid
_ROWS, _COLS = 50, 1001


def _grid_env():
    rng = np.random.default_rng(7)
    return {
        "x": rng.uniform(0.5, 2.0, (_ROWS, _COLS)),
        "y": rng.uniform(-1.0, 1.0, (_ROWS, 1)),  # broadcast along the columns
        "z": rng.uniform(0.5, 1.5, _COLS),  # constant along the leading axis
    }


def test_blocked_evaluation_is_bitwise_the_row_by_row_one():
    assert _ROWS * _COLS > BLOCK and _ROWS % (BLOCK // _COLS)  # the last block is a partial one
    env = _grid_env()
    program = compile_exprs(
        [
            [parse("sin(x)*y + x/z"), parse("2.5")],
            [parse("cos(y) - x^2*z"), parse("sqrt(x*x + y + 1) + log(x)")],
        ]
    )
    got = evaluate(program, env, (_ROWS, _COLS))
    rows = [
        evaluate(program, {"x": env["x"][i : i + 1], "y": env["y"][i : i + 1], "z": env["z"]}, (1, _COLS))
        for i in range(_ROWS)
    ]
    assert got.shape == (_ROWS, _COLS, 2, 2)
    assert got.tobytes() == np.concatenate(rows).tobytes()
    assert np.all(got[..., 0, 1] == 2.5)

    # every op runs once per block, on at most BLOCK points
    sizes = []

    def spy(fn):
        return lambda *args: sizes.append(max(np.size(a) for a in args)) or fn(*args)

    ops = tuple((name, spy(fn), *rest) for name, fn, *rest in program.ops)
    assert evaluate(dataclasses.replace(program, ops=ops), env, (_ROWS, _COLS)).tobytes() == got.tobytes()
    blocks = -(-_ROWS // (BLOCK // _COLS))
    assert len(sizes) == blocks * len(program.ops) and max(sizes) <= BLOCK


def test_a_zero_denominator_at_the_last_point_of_the_last_block_raises():
    env = _grid_env()
    env["z"] = np.ones((_ROWS, _COLS))
    env["z"][-1, -1] = 0.0
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(parse("x/z"), env, (_ROWS, _COLS))
    env["z"][-1, -1] = 1.0
    assert np.isfinite(evaluate(parse("x/z"), env, (_ROWS, _COLS))).all()


def test_a_non_finite_value_in_a_late_block_names_its_output():
    env = _grid_env()
    env["x"][-2, 3] = 800.0
    exprs = [[parse("x"), parse("1")], [parse("exp(x)"), parse("2")]]
    with pytest.raises(NonFiniteError, match=r"output \(1, 0\)"):
        evaluate(exprs, env, (_ROWS, _COLS))


# --- narrowed variables -------------------------------------------------------------


def _axis_env():
    """One variable constant along axis 0, one along axis 1, one along both and one along neither."""
    rng = np.random.default_rng(11)
    full = (_ROWS, _COLS)
    return {
        "u": np.broadcast_to(rng.uniform(0.5, 2.0, _COLS), full),  # constant along axis 0
        "v": np.broadcast_to(rng.uniform(-1.0, 1.0, (_ROWS, 1)), full),  # constant along axis 1
        "w": np.full(full, 1.25),  # constant along both
        "x": rng.uniform(0.5, 2.0, full),  # constant along neither
    }


def test_narrowed_variables_give_the_bits_of_the_full_grid(monkeypatch):
    assert _ROWS * _COLS > BLOCK
    env = _axis_env()
    program = compile_exprs(
        [parse("sin(v)*u + exp(w)/x"), parse("cos(u) - v^2*w"), parse("sqrt(x + w) + log(u) + v")]
    )
    shapes = {}
    real = expr_module._narrow

    def spy(v):
        out = real(v)
        shapes[v.shape, out.shape] = True
        return out

    monkeypatch.setattr(expr_module, "_narrow", spy)
    got = evaluate(program, env, (_ROWS, _COLS))
    assert set(shapes) == {
        (env["u"].shape, (1, _COLS)),
        (env["v"].shape, (_ROWS, 1)),
        (env["w"].shape, (1, 1)),
        (env["x"].shape, (_ROWS, _COLS)),
    }
    # the same program at full shape, on contiguous copies and with nothing narrowed
    monkeypatch.setattr(expr_module, "_narrow", lambda v: v)
    copies = {name: np.ascontiguousarray(value) for name, value in env.items()}
    full = evaluate(program, copies, (_ROWS, _COLS))
    assert got.shape == (_ROWS, _COLS, 3)
    assert got.tobytes() == full.tobytes()


def test_a_variable_that_differs_in_one_row_or_one_zero_sign_is_not_narrowed():
    last_row = np.ones((_ROWS, _COLS))
    last_row[-1] = 2.0  # still constant along each row
    assert expr_module._narrow(last_row).shape == (_ROWS, 1)
    last_row[:, -1] = 3.0  # and now the last column differs too
    assert expr_module._narrow(last_row).shape == (_ROWS, _COLS)
    zeros = np.zeros((_ROWS, _COLS))
    zeros[7, 5] = -0.0  # == calls it equal to 0.0; its bits differ
    assert expr_module._narrow(zeros).shape == (_ROWS, _COLS)
    out = evaluate(parse("2*x"), {"x": zeros}, (_ROWS, _COLS))
    assert np.argwhere(np.signbit(out)).tolist() == [[7, 5]]


def test_a_broadcast_axis_is_narrowed_to_a_slice_of_the_broadcast_array():
    column = np.linspace(0.5, 1.5, _ROWS)[:, None]
    y = np.broadcast_to(column, (_ROWS, _COLS))
    narrowed = expr_module._narrow(y)
    assert narrowed.shape == (_ROWS, 1) and np.shares_memory(narrowed, column)
    np.testing.assert_array_equal(np.broadcast_to(narrowed, y.shape), y)


@pytest.mark.parametrize("rows", [3, _ROWS])  # one whole-grid run, and blocks with narrowing
def test_evaluate_writes_into_a_strided_view_of_the_callers_buffer(rows):
    env = {name: value[:rows] for name, value in _axis_env().items()}
    program = compile_exprs([[parse("u*v + x"), parse("2")], [parse("w - v"), parse("sin(u)")]])
    buf = np.full((2, rows, _COLS, 2), np.nan)
    view = np.moveaxis(buf, 0, -2)
    assert evaluate(program, env, (rows, _COLS), out=view) is view
    fresh = np.moveaxis(evaluate(program, env, (rows, _COLS)), -2, 0)
    assert buf.tobytes() == np.ascontiguousarray(fresh).tobytes()
    with pytest.raises(ValueError, match="out must be a float64 array"):
        evaluate(program, env, (rows, _COLS), out=buf)


def test_small_calls_never_narrow(monkeypatch):
    calls = []
    monkeypatch.setattr(expr_module, "_narrow", lambda v: calls.append(v.shape) or v)
    x = np.full((5, 1), 0.5)
    assert evaluate(parse("sin(x)*x + 1"), {"x": np.broadcast_to(x, (5, 1))}, (5, 1)).shape == (5, 1)
    assert calls == []
    evaluate(parse("sin(x)*x + 1"), {"x": np.full((_ROWS, _COLS), 0.5)}, (_ROWS, _COLS))
    assert calls == [(_ROWS, _COLS)]


def test_a_bad_row_of_a_narrowed_variable_still_raises():
    column = np.linspace(0.5, 1.5, _ROWS)[:, None]
    column[23] = 0.0
    y = np.broadcast_to(column, (_ROWS, _COLS))  # constant along axis 1, narrowed to a column
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(parse("1/y"), {"y": y}, (_ROWS, _COLS))
    with pytest.raises(DomainError, match="log of a non-positive"):
        evaluate(parse("log(y)"), {"y": y}, (_ROWS, _COLS))


def test_a_non_finite_output_of_a_narrowed_variable_names_its_index():
    column = np.linspace(0.5, 1.5, _ROWS)[:, None]
    column[31] = 800.0
    env = {"y": np.broadcast_to(column, (_ROWS, _COLS))}
    with pytest.raises(NonFiniteError, match=r"output \(1,\)"):
        evaluate([parse("y + 1"), parse("exp(y)")], env, (_ROWS, _COLS))


# --- bind once, run many ---------------------------------------------------------


@pytest.mark.parametrize("rows", [3, _ROWS])  # one whole-grid run, and blocks with narrowing
def test_a_bound_program_reruns_on_what_its_buffers_hold_now(rows):
    env = {name: np.array(value[:rows]) for name, value in _axis_env().items()}
    program = compile_exprs([[parse("u*v + x"), parse("2")], [parse("sqrt(w) - v/x"), parse("sin(u) + log(x)")]])
    bound = bind(program, env, (rows, _COLS))
    out = np.empty((rows, _COLS, 2, 2))
    assert bound.run(out) is out
    assert out.tobytes() == evaluate(program, env, (rows, _COLS)).tobytes()
    rng = np.random.default_rng(3)
    for step in range(3):  # rewrite every buffer in place, in ways that change what narrows
        env["u"][...] = rng.uniform(0.5, 2.0, _COLS) if step != 1 else 0.75
        env["v"][...] = rng.uniform(-1.0, 1.0, (rows, 1)) if step != 2 else rng.uniform(-1.0, 1.0, (rows, _COLS))
        env["w"][...] = 1.25 + step
        env["x"][...] = rng.uniform(0.5, 2.0, (rows, _COLS))
        want = evaluate(program, env, (rows, _COLS))
        assert bound.run(out).tobytes() == want.tobytes()
        assert bound.run().tobytes() == want.tobytes()


def test_a_bound_program_checks_every_run():
    x = np.full(4, 2.0)
    bound = bind([parse("log(x)"), parse("1/(x - 1)"), parse("exp(x)")], {"x": x})
    assert bound.run().shape == (4, 3)
    x[2] = -1.0
    with pytest.raises(DomainError, match="log of a non-positive"):
        bound.run()
    x[2] = 1.0
    with pytest.raises(DomainError, match="division by zero"):
        bound.run()
    x[2] = 800.0
    with pytest.raises(NonFiniteError, match=r"output \(2,\)"):
        bound.run()
    x[2] = 2.0
    assert np.isfinite(bound.run()).all()


def test_bind_resolves_names_once_and_copies_only_what_is_not_float64():
    x, ints = np.linspace(0.0, 1.0, 5), np.arange(5)
    bound = bind(parse("x + n + c"), {"x": x, "n": ints, "c": 0.5})
    x += 1.0
    ints += 1  # an integer array is converted at bind time, so this is not seen
    np.testing.assert_array_equal(bound.run(), x + np.arange(5) + 0.5)
    with pytest.raises(UnboundVariableError, match="'z'"):
        bind(parse("x + z"), {"x": x})


# --- state-free cells ------------------------------------------------------------


def _cells(program) -> list:
    """The output cell of every write of a program, from its prelude and its ops."""
    writes = [index for index, _ in program.prelude] + [index for op in program.ops for index in op[5]]
    return [index[1:] for index in writes]


def test_the_two_programs_of_a_split_write_every_cell_once_bitwise_as_the_whole():
    # x and y are the state; t, the shared sin(t) and the constants are not
    shared = parse("sin(t)")
    exprs = [
        [parse("x*t + 1"), shared * parse("2"), parse("log(t + 2)")],
        [parse("3"), parse("y"), shared + parse("y*x")],
    ]
    free, table, stage = split_exprs(exprs, {"x", "y"})
    assert free.tolist() == [[False, True, True], [True, False, False]]
    assert {name for _, name in table.loads} == {"t"} and {name for _, name in stage.loads} == {"t", "x", "y"}
    written = _cells(table) + _cells(stage)
    assert sorted(written) == sorted(np.ndindex(2, 3))  # every cell, each once
    assert all(free[index] for index in _cells(table)) and not any(free[index] for index in _cells(stage))
    rng = np.random.default_rng(5)
    env = {"t": rng.uniform(0.0, 1.0, 50), "x": rng.normal(size=50), "y": rng.normal(size=50)}
    out = np.full((50, 2, 3), np.nan)  # each half runs unchecked, as in a sweep
    bind(table, env).run(out, checked=False)
    bind(stage, env).run(out, checked=False)
    assert out.tobytes() == evaluate(compile_exprs(exprs), env).tobytes()


@pytest.mark.parametrize("points", [3, 2 * BLOCK])  # one whole-grid run, and blocks
def test_a_checked_run_of_a_masked_program_checks_only_the_cells_it_writes(points):
    free, table, _ = split_exprs([parse("2*t"), parse("x*t")], {"x"})
    assert free.tolist() == [True, False]
    t = np.linspace(0.0, 1.0, points)
    out = np.full((points, 2), np.nan)  # cell (1,) is the other half's
    assert bind(table, {"t": t}).run(out) is out
    np.testing.assert_array_equal(out[:, 0], 2 * t)
    assert np.isnan(out[:, 1]).all()
    bind(table, {"t": t}).run()  # the cell it leaves unwritten holds whatever np.empty gave
    # a non-finite value in a cell it does write still raises, at that cell
    _, table, _ = split_exprs([parse("x*t"), parse("exp(t)")], {"x"})
    t[-1] = 800.0
    with pytest.raises(NonFiniteError, match=r"output \(1,\)"):
        bind(table, {"t": t}).run(np.full((points, 2), np.nan))


@pytest.mark.parametrize(
    "text, op, value",
    [("2 + x", "add", 6.0), ("2 - x", "sub", -2.0), ("2 * x", "mul", 8.0), ("2 / x", "div", 0.5)],
)
def test_a_number_on_the_left_of_an_operator_is_its_left_operand(text, op, value):
    x = var("x")
    e = {"add": lambda: 2 + x, "sub": lambda: 2 - x, "mul": lambda: 2 * x, "div": lambda: 2 / x}[op]()
    assert e == Binary(op, Const(2.0), x) == parse(text)
    assert evaluate(e, {"x": 4.0}) == value


def test_an_expr_repr_parses_back_and_a_program_repr_gives_its_size():
    e = parse("x*2 + sin(y)/(1 - x)")
    assert repr(e) == f"parse({str(e)!r})"
    assert eval(repr(e), {"parse": parse}) == e
    # mul, sin, sub, div and add; x, y and the constants are loads and registers
    assert repr(compile_exprs([[e, var("x")]])) == "<Program shape=(1, 2) ops=5>"


class Foreign(Expr):
    """An Expr subclass that no walk of the module knows."""

    __slots__ = ()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_expr([1.0]), "cannot convert list to Expr"),
        (lambda: as_expr(None), "cannot convert NoneType to Expr"),
        (lambda: power(var("x"), 1.5), "exponent must be an integer"),
        (lambda: var("x") ** 0.5, "exponent must be an integer"),
        # a tree built by hand around a value that is not an Expr: each walk names its type
        (lambda: compile_exprs([var("x"), "x"]), "not an Expr: str"),
        (lambda: Binary("add", var("x"), "y").diff("x"), "not an Expr: str"),
        (lambda: str(Binary("mul", var("x"), 2)), "not an Expr: int"),
        # an Expr subclass of no known kind: its repr would print it again, so the type is named
        (lambda: compile_exprs([Foreign()]), "not an Expr: Foreign"),
        (lambda: Foreign().diff("x"), "not an Expr: Foreign"),
        (lambda: str(Foreign()), "not an Expr: Foreign"),
    ],
    ids=["list", "none", "float-power", "float-pow", "compile", "diff", "format",
         "compile-foreign", "diff-foreign", "format-foreign"],
)
def test_what_is_not_an_expr_raises_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_is_imported_by_the_first_fold_and_folds_and_scalars_are_numpys():
    # a fresh process: literals and integer powers of variables load no numpy, the first fold of a
    # function of a constant does, and each fold is bitwise numpy's float64 value
    src = Path(expr_module.__file__).resolve().parents[1]
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from algebroids import cli, core, expr, fibration
x = expr.var("x")
trees = [expr.parse("x^2 - 3*x/2 + 1e-3"), expr.as_expr(3), expr.as_expr(0.5), expr.power(x, 2), x ** -1]
assert "numpy" not in sys.modules, "numpy loaded by literals"
folded = [expr.parse(t) for t in ("sin(0.5)", "exp(0.7)", "2^-1070", "cos(-0.0)", "sqrt(2)")]
import numpy as np
# the one stand-in every module imports now reads numpy's own namespace
assert cli.np is fibration.np is core.np is expr.np and vars(expr.np) is vars(np) and expr.np.sin is np.sin
want = [np.sin(np.float64(0.5)), np.exp(np.float64(0.7)), np.float64(2.0) ** -1070, np.cos(np.float64(-0.0)),
        np.sqrt(np.float64(2.0))]
assert [e.value.hex() for e in folded] == [float(v).hex() for v in want], folded
assert 0.0 < folded[2].value < np.finfo(np.float64).tiny  # subnormal
assert expr.as_expr(np.int64(3)) == expr.Const(3.0) and expr.as_expr(np.float32(0.5)) == expr.Const(0.5)
assert expr.power(x, np.int64(2)) == expr.Power(x, 2) and expr.power(expr.const(3), np.int64(2)) == expr.Const(9.0)
ops = expr._ops()
assert ops is expr._ops()
assert {{k: v for k, v in ops.items() if isinstance(v, np.ufunc)}} == {{
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp, "add": np.add, "sub": np.subtract,
    "mul": np.multiply}}
assert [ops[k] for k in ("log", "sqrt", "div", "power")] == [expr._log, expr._sqrt, expr._div, expr._power]
assert all(step[1] is ops[step[0]] for step in expr.compile_exprs([trees[0], expr.sin(x) / x]).ops)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
