import copy
import gc
import math
import operator
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebroids import cli, core, fibration
from algebroids import expr as expr_module
from algebroids.core import wedge
from algebroids.expr import (
    BLOCK,
    MAX_DEPTH,
    ONE,
    ZERO,
    Binary,
    Const,
    DomainError,
    Expr,
    NonFiniteError,
    ParseError,
    Power,
    Program,
    UnboundVariableError,
    Unary,
    Var,
    add,
    as_expr,
    bind,
    compile_exprs,
    const,
    cos,
    div,
    dot,
    evaluate,
    exp,
    is_zero,
    mul,
    neg,
    parse,
    power,
    sin,
    split_exprs,
    sub,
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


# --- folds: the shared ZERO and ONE, and sums that skip structural zeros ---
#
# The reference below is the fold rules as they stood before the builders
# returned ZERO/ONE and skipped zero terms: it builds every constant anew and
# adds every term.  The builders must give the same trees, constant bits
# (signed zeros, infinities, NaN) included.


def _ref_is_zero(e):
    return isinstance(e, Const) and e.value == 0.0


def _ref_add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(float(a.value + b.value))
    if _ref_is_zero(a):
        return b
    if _ref_is_zero(b):
        return a
    return Binary("add", a, b)


def _ref_sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(float(a.value - b.value))
    if _ref_is_zero(b):
        return a
    if _ref_is_zero(a):
        return _ref_neg(b)
    return Binary("sub", a, b)


def _ref_mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(float(a.value * b.value))
    if _ref_is_zero(a) or _ref_is_zero(b):
        return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Binary("mul", a, b)


def _ref_div(a, b):
    if _ref_is_zero(b):
        raise DomainError("division by constant zero")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(float(a.value / b.value))
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Binary("div", a, b)


def _ref_neg(a):
    if isinstance(a, Const):
        return Const(float(-a.value))
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _ref_total(terms):
    acc = Const(0.0)
    for t in terms:
        acc = _ref_add(acc, t)
    return acc


def _ref_dot(xs, ys):
    return _ref_total(_ref_mul(x, y) for x, y in zip(xs, ys, strict=True))


def _ref_wedge(x, y, table, width):
    terms = [(_ref_sub(_ref_mul(x[p], y[q]), _ref_mul(x[q], y[p])), c) for (p, q), c in table.items()]
    return tuple(_ref_total(_ref_mul(w, c[l]) for w, c in terms if not _ref_is_zero(w)) for l in range(width))


def _bits(e):
    """A tree as nested tuples, each constant as the bytes of its float64 (so -0.0 and each NaN stay apart)."""
    if isinstance(e, tuple):
        return tuple(_bits(c) for c in e)
    if isinstance(e, Const):
        return ("const", struct.pack("<d", e.value).hex())
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Unary):
        return (e.op, _bits(e.arg))
    if isinstance(e, Binary):
        return (e.op, _bits(e.left), _bits(e.right))
    return ("power", _bits(e.base), e.k)


def _folded(make, *args):
    """The tree's bits, or the error it raises."""
    try:
        return _bits(make(*args))
    except DomainError as err:
        return type(err)


_OPERANDS = st.sampled_from(
    [ZERO, ONE, Const(0.0), Const(-0.0), Const(math.inf), Const(-math.inf), Const(2.5), Const(-2.5), var("x"),
     Binary("mul", Const(2.0), var("y"))]
)


@given(_OPERANDS, _OPERANDS)
@settings(max_examples=150, deadline=None)
def test_each_fold_builds_the_tree_of_the_reference_rules(a, b):
    for make, ref in ((add, _ref_add), (sub, _ref_sub), (mul, _ref_mul), (div, _ref_div)):
        assert _folded(make, a, b) == _folded(ref, a, b), make.__name__
    assert _bits(neg(a)) == _bits(_ref_neg(a))


@given(st.lists(st.tuples(_OPERANDS, _OPERANDS), max_size=7))
@settings(max_examples=200, deadline=None)
def test_total_and_dot_build_the_tree_of_the_reference_rules(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert _bits(total(xs)) == _bits(_ref_total(xs))
    assert _bits(total(iter(ys))) == _bits(_ref_total(ys))
    assert _bits(dot(xs, ys)) == _bits(_ref_dot(xs, ys))
    assert _bits(dot(iter(ys), iter(xs))) == _bits(_ref_dot(ys, xs))


@given(
    st.lists(_OPERANDS, min_size=3, max_size=3),
    st.lists(_OPERANDS, min_size=3, max_size=3),
    st.dictionaries(st.sampled_from([(0, 1), (0, 2), (1, 2)]), st.tuples(_OPERANDS, _OPERANDS)),
)
@example([Const(math.inf), ZERO, ONE], [ZERO, ONE, ZERO], {(0, 1): (ZERO, ONE)})  # inf * ZERO is NaN, kept
@settings(max_examples=150, deadline=None)
def test_wedge_builds_the_tree_of_the_reference_rules(x, y, table):
    assert _bits(wedge(x, y, table, 2)) == _bits(_ref_wedge(x, y, table, 2))


def test_a_zero_factor_of_an_infinite_constant_still_fails_and_a_negative_zero_sum_is_positive():
    # 0 * inf folds to NaN, which evaluation rejects: dot must not drop that term for its ZERO factor
    with pytest.raises(NonFiniteError):
        evaluate(dot((ZERO,), (const(math.inf),)), {})
    with pytest.raises(NonFiniteError):
        evaluate(dot((var("x"), const(math.inf)), (ONE, ZERO)), {"x": 1.0})
    # -0.0 + 0.0 is +0.0: total must add a ZERO term after a negative zero
    s = total([const(-0.0), ZERO])
    assert s is ZERO and math.copysign(1.0, s.value) == 1.0
    assert math.copysign(1.0, total([const(-0.0)]).value) == 1.0


def test_folds_return_the_zero_and_one_objects_themselves():
    x = var("x")
    zeros = [const(0), const(0.0), parse("0"), add(ZERO, ZERO), sub(ONE, ONE), mul(const(2.5), ZERO), mul(ZERO, x),
             neg(const(-0.0)), sin(ZERO), power(ZERO, 3), total([ONE, const(-1.0)]), x.diff("y"), parse("2*0 + 0")]
    ones = [const(1), parse("1.0"), mul(ONE, ONE), div(const(2.5), const(2.5)), neg(const(-1.0)), power(ONE, 7),
            power(x, 0), cos(ZERO), exp(ZERO), x.diff("x"), parse("2 - 1")]
    assert all(e is ZERO for e in zeros), zeros
    assert all(e is ONE for e in ones), ones
    # a negative zero keeps a node of its own, and so does every other constant
    assert const(-0.0) is not ZERO and math.copysign(1.0, const(-0.0).value) == -1.0
    assert neg(ZERO) is not ZERO and const(2.5) is not const(2.5)


_NODES = [Const(2.5), Var("x"), Unary("sin", Var("x")), Binary("add", Const(2.0), Var("x")), Power(Var("x"), 3)]


@pytest.mark.parametrize("node", _NODES, ids=lambda e: type(e).__name__)
def test_a_node_refuses_every_write_and_copies_by_structure(node):
    before = _bits(node)
    for name in type(node).__slots__:
        with pytest.raises(AttributeError):
            setattr(node, name, ZERO)
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 1.0
    assert _bits(node) == before
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)


def _records():
    """Each record class of the describe path: keyword arguments by field name, the defaults of the fields left
    out, and how it compares: "value" (and hashes), "unhashable" (by value) or "identity"."""
    chart = core.Chart(coords=("x", "y"), box=((0.0, 1.0), (0.0, 1.0)))
    tangent = core.make_tangent(chart)
    jacobi = core.make_jacobi_extension(chart, {(0, 1): "1"})
    program = compile_exprs([var("x"), sin(var("y"))])
    return [
        (cli.SectionSpec, dict(kind="chart", name="c", line=3), dict(entries={}, lines={}), "unhashable"),
        (cli.SameAs, dict(key="tol"), {}, "value"),
        (cli.Key, {}, dict(parse=str, default=cli._REQUIRED, refers=None), "value"),
        (cli.Form, dict(keys={"tol": cli.Key(float, 1e-2)}), dict(check=None), "unhashable"),
        (core.Chart, dict(coords=("x",), box=((0.0, 1.0),)), {}, "value"),
        (core.Section, dict(components=(ONE, var("x"))), {}, "value"),
        (core.Algebroid, dict(chart=chart, rank=1, anchor=((ONE, ZERO),)), dict(structure={}), "unhashable"),
        (core.AxiomWitness, dict(kind="anchor", indices=(0, 1), point=(0.5,), residual=1e-3, values=(1e-3,)), {}, "value"),
        (core.AxiomReport, dict(jacobi_residual=0.0, anchor_residual=1e-3, tol=1e-8, n_points=200, seed=42,
                                witness=None), {}, "value"),
        (Program, {name: getattr(program, name) for name in ("shape", "size", "registers", "loads", "prelude", "ops",
                                                             "mask")}, {}, "identity"),
        (fibration.Fibration, dict(total=jacobi, base=tangent, projection=((0, 1, 0), (0, 0, 1)),
                                   splitting=((0, 0), (1, 0), (0, 1)), kernel=((1, 0, 0),)), {}, "identity"),
        (fibration.Curvature2Form, dict(chart=chart, base_rank=2, kernel_rank=1, entries={(0, 1): (ONE,)}), {},
         "identity"),
    ]


@pytest.mark.parametrize("cls, kwargs, defaults, compare", _records(), ids=lambda v: getattr(v, "__name__", ""))
def test_a_record_refuses_every_write_and_compares_by_value_or_identity(cls, kwargs, defaults, compare):
    a, b = cls(**kwargs), cls(**kwargs)
    for name, value in defaults.items():
        assert getattr(a, name) == value, name
        if isinstance(value, dict):  # a fresh one for each record
            assert getattr(a, name) is not getattr(b, name), name
    for name in [*kwargs, *defaults]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1.0
    if compare == "identity":
        assert a == a and a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b and a != kwargs
        if compare == "value":
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
    if cls is not Program:  # field by field, in constructor order
        assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={getattr(a, n)!r}' for n in [*kwargs, *defaults])})"
    twins = [copy.copy(a)]
    if cli._REQUIRED not in defaults.values():  # a deep copy or a pickle copies that sentinel too
        twins += [copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    for twin in twins:
        assert type(twin) is cls and (twin == a) is (compare != "identity")
        assert all(getattr(twin, name) == getattr(a, name) for name in [*kwargs, *defaults])


def test_nodes_compare_and_hash_by_structure():
    x = var("x")
    e = Binary("add", Const(2.0), x)
    assert e == parse("2 + x") and hash(e) == hash(parse("2 + x"))
    assert e != Binary("sub", Const(2.0), x) and e != Binary("add", Const(2.0), var("y"))
    assert Const(0.0) == ZERO and hash(Const(0.0)) == hash(ZERO) and Const(2.5) != Const(3.5)
    assert Const(1.0) != Var("x") and Var("x") != "x" and Const(1.0) != 1.0
    assert Power(x, 2) == parse("x^2") != Power(x, 3)
    assert Unary("sin", x) == sin(x) != Unary("cos", x)
    assert len({parse("x*sin(y)"), parse("x * sin(y)"), parse("sin(y)*x")}) == 2


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
    spied = Program(program.shape, program.size, program.registers, program.loads, program.prelude, ops, program.mask)
    assert evaluate(spied, env, (_ROWS, _COLS)).tobytes() == got.tobytes()
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
    """One variable broadcast along axis 0, one along axis 1, one dense with equal values and one varying along both."""
    rng = np.random.default_rng(11)
    full = (_ROWS, _COLS)
    return {
        "u": np.broadcast_to(rng.uniform(0.5, 2.0, _COLS), full),  # stride 0 along axis 0
        "v": np.broadcast_to(rng.uniform(-1.0, 1.0, (_ROWS, 1)), full),  # stride 0 along axis 1
        "w": np.full(full, 1.25),  # constant along both, but not a broadcast
        "x": rng.uniform(0.5, 2.0, full),  # constant along neither
    }


def test_narrowed_variables_give_the_bits_of_the_full_grid(monkeypatch):
    assert _ROWS * _COLS > BLOCK
    env = _axis_env()
    program = compile_exprs(
        [parse("sin(v)*u + exp(w)/x"), parse("cos(u) - v^2*w"), parse("sqrt(x + w) + log(u) + v")]
    )
    shapes = {}
    real = expr_module.compact_part

    def spy(v):
        out = real(v)
        shapes[v.shape, out.shape] = True
        return out

    monkeypatch.setattr(expr_module, "compact_part", spy)
    got = evaluate(program, env, (_ROWS, _COLS))
    assert set(shapes) == {
        (env["u"].shape, (1, _COLS)),
        (env["v"].shape, (_ROWS, 1)),
        (env["w"].shape, (_ROWS, _COLS)),  # dense: equal values are not a broadcast
        (env["x"].shape, (_ROWS, _COLS)),
    }
    # the same program at full shape, on contiguous copies and with nothing narrowed
    monkeypatch.setattr(expr_module, "compact_part", lambda v: v)
    copies = {name: np.ascontiguousarray(value) for name, value in env.items()}
    full = evaluate(program, copies, (_ROWS, _COLS))
    assert got.shape == (_ROWS, _COLS, 3)
    assert got.tobytes() == full.tobytes()


def test_a_broadcast_axis_is_narrowed_to_a_slice_of_the_broadcast_array():
    column = np.linspace(0.5, 1.5, _ROWS)[:, None]
    y = np.broadcast_to(column, (_ROWS, _COLS))
    narrowed = expr_module.compact_part(y)
    assert narrowed.shape == (_ROWS, 1) and np.shares_memory(narrowed, column)
    np.testing.assert_array_equal(np.broadcast_to(narrowed, y.shape), y)
    # a dense array is never cut, whatever its values
    rows = np.ones((_ROWS, _COLS))
    rows[-1] = 2.0  # constant along each row
    zeros = np.zeros((_ROWS, _COLS))
    zeros[7, 5] = -0.0  # == calls it equal to 0.0; its bits differ
    for dense in (np.ones((_ROWS, _COLS)), rows, zeros, np.ascontiguousarray(y)):
        assert expr_module.compact_part(dense) is dense
    out = evaluate(parse("2*x"), {"x": zeros}, (_ROWS, _COLS))
    assert np.argwhere(np.signbit(out)).tolist() == [[7, 5]]


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
    monkeypatch.setattr(expr_module, "compact_part", lambda v: calls.append(v.shape) or v)
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


# --- compact outputs -------------------------------------------------------------


def _broadcast_along(axis: int, bad: float | None = None) -> np.ndarray:
    """A (_ROWS, _COLS) broadcast of random values in [0.5, 1.5] along ``axis`` (stride 0), with ``bad`` at its 7th entry."""
    shape = (1, _COLS) if axis == 0 else (_ROWS, 1)
    values = np.random.default_rng(13).uniform(0.5, 1.5, shape)
    if bad is not None:
        values.flat[7] = bad
    return np.broadcast_to(values, (_ROWS, _COLS))


@pytest.mark.parametrize("axis", [0, 1])
def test_a_large_run_over_inputs_broadcast_along_an_axis_returns_a_read_only_broadcast(axis):
    env = {"y": _broadcast_along(axis), "c": 0.5}
    program = compile_exprs([[parse("sin(y)*c + 1/y"), parse("2")], [parse("sqrt(y) - c"), parse("exp(y)*y")]])
    got = evaluate(program, env, (_ROWS, _COLS))
    assert got.shape == (_ROWS, _COLS, 2, 2) and not got.flags.writeable
    assert got.strides[axis] == 0
    assert expr_module.compact_part(got).shape == ((1, _COLS) if axis == 0 else (_ROWS, 1)) + (2, 2)
    # bitwise the run on dense copies, which writes every point
    dense = evaluate(program, {"y": np.ascontiguousarray(env["y"]), "c": 0.5}, (_ROWS, _COLS))
    assert dense.flags.writeable and 0 not in dense.strides
    assert np.ascontiguousarray(got).tobytes() == dense.tobytes()
    # inputs broadcast along different axes vary along both: the output is dense and the caller's
    both = evaluate(parse("y + z"), {"y": env["y"], "z": _broadcast_along(1 - axis)}, (_ROWS, _COLS))
    assert both.flags.writeable and both.flags.owndata and 0 not in both.strides


@pytest.mark.parametrize("axis", [0, 1])
def test_a_non_finite_cell_of_a_broadcast_output_names_its_index(axis):
    env = {"y": _broadcast_along(axis, bad=800.0)}
    with pytest.raises(NonFiniteError, match=r"output \(1, 0\)"):
        evaluate([[parse("y + 1"), parse("2")], [parse("exp(y)"), parse("y")]], env, (_ROWS, _COLS))


@pytest.mark.parametrize("axis", [0, 1])
def test_a_domain_error_in_a_run_with_a_broadcast_output_still_raises(axis):
    with pytest.raises(DomainError, match="division by zero"):
        evaluate([parse("y"), parse("1/y")], {"y": _broadcast_along(axis, bad=0.0)}, (_ROWS, _COLS))
    with pytest.raises(DomainError, match="sqrt of a negative"):
        evaluate(parse("sqrt(y)"), {"y": _broadcast_along(axis, bad=-1.0)}, (_ROWS, _COLS))


def test_a_run_given_out_writes_every_point_of_it_over_broadcast_inputs():
    env = {"y": _broadcast_along(1)}
    program = compile_exprs([parse("sin(y)"), parse("y*y + 1")])
    out = np.full((_ROWS, _COLS, 2), np.nan)
    assert bind(program, env, (_ROWS, _COLS)).run(out) is out
    assert out.flags.writeable and 0 not in out.strides
    assert out.tobytes() == np.ascontiguousarray(evaluate(program, env, (_ROWS, _COLS))).tobytes()


def test_a_masked_run_over_broadcast_inputs_leaves_the_cells_it_does_not_write():
    free, table, _ = split_exprs([parse("2*t"), parse("x*t"), parse("t + 1")], {"x"})
    assert free.tolist() == [True, False, True]
    t = _broadcast_along(0)
    out = np.full((_ROWS, _COLS, 3), np.nan)  # cell (1,) is the other half's
    bind(table, {"t": t}).run(out)
    np.testing.assert_array_equal(out[..., 0], 2 * t)
    np.testing.assert_array_equal(out[..., 2], t + 1)
    assert np.isnan(out[..., 1]).all()
    # without out, the cells it writes come back broadcast as well
    got = bind(table, {"t": t}).run()
    assert got.strides[0] == 0 and got.shape == (_ROWS, _COLS, 3)
    np.testing.assert_array_equal(got[..., [0, 2]], out[..., [0, 2]])


# --- bind once, run many ---------------------------------------------------------


@pytest.mark.parametrize("rows", [3, _ROWS])  # one whole-grid run, and blocks
def test_a_bound_program_reruns_on_what_its_buffers_hold_now(rows):
    env = {name: np.array(value[:rows]) for name, value in _axis_env().items()}
    program = compile_exprs([[parse("u*v + x"), parse("2")], [parse("sqrt(w) - v/x"), parse("sin(u) + log(x)")]])
    bound = bind(program, env, (rows, _COLS))
    out = np.empty((rows, _COLS, 2, 2))
    assert bound.run(out) is out
    assert out.tobytes() == evaluate(program, env, (rows, _COLS)).tobytes()
    rng = np.random.default_rng(3)
    for step in range(3):  # rewrite every buffer in place
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
    # a non-finite constant prints as literals that fold back to it, not as the names inf and nan
    inf = parse("2^100000")
    assert repr(inf) == "parse('1e999')" and eval(repr(inf), {"parse": parse}) == Const(math.inf)
    x = var("x")
    for tree, text in [(parse("(-2)^100001"), "(-1e999)"), (mul(const(math.inf), x), "1e999*x"),
                       (sub(x, const(-math.inf)), "x - (-1e999)"), (power(add(x, const(-math.inf)), 2), "(x + (-1e999))^2")]:
        assert str(tree) == text and parse(text) == tree
    nan = parse("x + (1e200^2 - 1e200^2)")
    assert str(nan) == "x + (1e999 - 1e999)" and str(sin(const(math.inf))) == "(1e999 - 1e999)"
    back = parse(str(nan))
    assert back.op == "add" and back.left == x and type(back.right) is Const and math.isnan(back.right.value)
    # -0.0 prints in parentheses, so its sign stays with it: bare, -0.0^2 would parse as -(0.0^2)
    for tree, text in [(Const(-0.0), "(-0.0)"), (Power(Const(-0.0), 2), "(-0.0)^2"), (Power(Const(-0.0), 3), "(-0.0)^3"),
                       (Binary("sub", x, Const(-0.0)), "x - (-0.0)"), (Power(Const(0.0), 2), "0.0^2")]:
        assert str(tree) == text
        assert float(evaluate(parse(text), {"x": 2.0})).hex() == float(evaluate(tree, {"x": 2.0})).hex(), text
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


def test_compile_exprs_leaves_no_reference_cycle():
    # the walk's recursive closure refers to itself through its cell; emptied after the walk, it is
    # freed by reference counting, so a run of compiles leaves the cyclic collector nothing
    cells = [[parse("sin(x)*y + x^2 - exp(y)/3"), parse("x*y")], [parse("log(2 + x)"), parse("y^3")]]
    compile_exprs(cells)  # first-use caches are built here
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            compile_exprs(cells)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
