"""Scalar expression trees: parsing, compiled evaluation, exact differentiation.

Every coefficient in this package (anchor entries, structure functions,
bivectors, splittings, connection data) is a small immutable tree over
named variables.  Evaluation compiles a tree, or a nested matrix of
trees, into a :class:`Program`: equal subtrees become one shared
node, and the nodes run as a straight-line list of numpy calls that
writes every entry into one preallocated array.  Owners of hot matrices
compile once and keep the program; :func:`evaluate` compiles anything
else on the fly.  The environment holds floats or numpy arrays and
evaluation is deterministic.  Division by zero, log/sqrt domain
violations and zero to a negative power raise :class:`DomainError`,
and so does any NaN or inf in the result (as :class:`NonFiniteError`).
Differentiation is exact and closed over the node kinds defined here.
No simplification is performed beyond constant folding and the obvious
0/1 identities that keep derivative trees small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "ZERO",
    "ONE",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "DomainError",
    "NonFiniteError",
    "parse",
    "as_expr",
    "const",
    "is_zero",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "Program",
    "compile_exprs",
    "evaluate",
]

Number = Union[int, float]


class ParseError(ValueError):
    """Raised on malformed input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    pass


class UnboundVariableError(EvalError):
    pass


class DomainError(EvalError):
    pass


class NonFiniteError(DomainError):
    """Raised when an evaluated output is NaN or infinite."""


class Expr:
    """Base class for expression nodes.  Instances are immutable."""

    __slots__ = ()

    def evaluate(self, env: Mapping[str, object]):
        return evaluate(self, env)

    def diff(self, name: str) -> "Expr":
        return _diff(self, name)

    def variables(self) -> frozenset:
        return frozenset(_iter_vars(self))

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return power(self, k)

    def __str__(self) -> str:
        return _format(self, 0)

    def __repr__(self) -> str:
        return f"parse({_format(self, 0)!r})"


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Power(Expr):
    base: Expr
    k: int


ZERO = Const(0.0)
ONE = Const(1.0)


def const(v: Number) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    return Var(name)


def as_expr(x) -> Expr:
    """Coerce a float, int, string or Expr into an Expr."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, float, np.floating, np.integer)):
        return const(float(x))
    raise TypeError(f"cannot convert {type(x).__name__} to Expr")


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def is_zero(e: Expr) -> bool:
    """True for the constant zero; no other tree is recognised as zero."""
    return isinstance(e, Const) and e.value == 0.0


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if is_zero(a) or is_zero(b):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        raise DomainError("division by constant zero")
    if _is_const(a) and _is_const(b):
        return const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def power(base: Expr, k: int) -> Expr:
    if not isinstance(k, (int, np.integer)):
        raise TypeError("exponent must be an integer")
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return base
    if _is_const(base):
        if base.value == 0.0 and k < 0:
            raise DomainError("zero raised to a negative power")
        return const(base.value**k)
    return Power(base, k)


def _unary(op: str):
    fn = _OPS[op]

    def make(a) -> Expr:
        a = as_expr(a)
        if _is_const(a):
            with np.errstate(all="ignore"):  # an inf constant is caught when evaluated
                return const(float(fn(np.float64(a.value))))
        return Unary(op, a)

    make.__name__ = op
    return make


# --- evaluation ---------------------------------------------------------


def _div(a, b):
    if np.any(b == 0.0):
        raise DomainError("division by zero")
    return a / b


def _log(a):
    if np.any(a <= 0.0):
        raise DomainError("log of a non-positive argument")
    return np.log(a)


def _sqrt(a):
    if np.any(a < 0.0):
        raise DomainError("sqrt of a negative argument")
    return np.sqrt(a)


def _power(a, k: int):
    if k < 0 and np.any(a == 0.0):
        raise DomainError("zero raised to a negative power")
    return a**k


# every node kind as one numpy call; the checked ones raise DomainError
_OPS = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": _log,
    "sqrt": _sqrt,
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _div,
    "power": _power,
}

sin = _unary("sin")
cos = _unary("cos")
exp = _unary("exp")
log = _unary("log")
sqrt = _unary("sqrt")


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Program:
    """A nested matrix of expressions compiled into straight-line numpy.

    Built by :func:`compile_exprs` and run by :func:`evaluate`.  Values
    live in numbered slots: ``registers`` holds the preloaded value of
    each slot (constants and integer exponents; None otherwise),
    ``loads`` binds variable slots from the environment, and ``prelude``
    copies constant and variable slots to their output positions.  Each
    entry of ``ops`` is ``(name, fn, dst, a, b, writes, dead)``: it
    stores ``fn(slot a[, slot b])`` in slot ``dst``, copies that value
    to the output positions ``writes`` and then drops the slots
    ``dead``, which nothing later reads.  ``shape`` is the nested shape
    of the output.
    """

    shape: tuple
    registers: tuple
    loads: tuple
    prelude: tuple
    ops: tuple

    def __repr__(self) -> str:
        return f"<Program shape={self.shape} ops={len(self.ops)}>"


def compile_exprs(exprs) -> Program:
    """Compile an Expr, or a nested (rectangular) sequence of them, once.

    Nodes are hash-consed on ``(op, child slots)``, so equal subtrees
    evaluate once however often the trees repeat them; the walk is
    memoised by node identity, so shared objects are visited once.  No
    node is skipped: every operand is computed, so each division and
    domain check still runs.
    """
    cells = np.array(exprs, dtype=object)
    keys: dict = {}
    seen: dict[int, int] = {}
    registers: list = []
    loads, ops = [], []

    def slot(key, value=None) -> int:
        """Slot of a node; a new one is a preloaded value, a variable load or an op."""
        s = keys.get(key)
        if s is None:
            s = keys[key] = len(registers)
            registers.append(value)
            if key[0] == "var":
                loads.append((s, key[1]))
            elif value is None:
                ops.append(key + (s,))
        return s

    def visit(e) -> int:
        s = seen.get(id(e))
        if s is not None:
            return s
        if isinstance(e, Const):
            s = slot(("const", float(e.value).hex()), np.float64(e.value))  # hex keeps -0.0 apart
        elif isinstance(e, Var):
            s = slot(("var", e.name))
        elif isinstance(e, Unary):
            s = slot((e.op, visit(e.arg), None))
        elif isinstance(e, Binary):
            s = slot((e.op, visit(e.left), visit(e.right)))
        elif isinstance(e, Power):
            s = slot(("power", visit(e.base), slot(("int", e.k), int(e.k))))
        else:
            raise TypeError(f"not an Expr: {e!r}")
        seen[id(e)] = s
        return s

    writes: dict[int, list] = {}
    for index in np.ndindex(cells.shape):
        writes.setdefault(visit(cells[index]), []).append((Ellipsis,) + index)

    last_read = {}
    for pos, (_, a, b, _) in enumerate(ops):
        last_read[a] = last_read[b] = pos
    program_ops = tuple(
        (name, _OPS[name], dst, a, b, tuple(writes.pop(dst, ())),
         tuple(s for s in {a, b, dst} if s is not None and last_read.get(s, pos) == pos))
        for pos, (name, a, b, dst) in enumerate(ops)
    )
    prelude = tuple((index, s) for s, indices in writes.items() for index in indices)
    return Program(cells.shape, tuple(registers), tuple(loads), prelude, program_ops)


def evaluate(e, env: Mapping[str, object], base_shape: tuple | None = None):
    """Evaluate an Expr, a nested sequence of them, or a compiled Program.

    Trees are compiled on the fly; hot callers compile once with
    :func:`compile_exprs` and pass the Program.  Environment values may
    be floats or numpy arrays; the result has shape ``base_shape +``
    the nested shape, where ``base_shape`` defaults to the broadcast
    shape of the variables used, and a scalar result is a numpy float.
    Unbound variables, division by zero, log/sqrt domain violations,
    zero to a negative power and any non-finite result raise errors
    rather than producing NaN or inf.
    """
    program = e if isinstance(e, Program) else compile_exprs(e)
    regs = list(program.registers)
    for slot, name in program.loads:
        try:
            regs[slot] = np.asarray(env[name], dtype=np.float64)
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
    if base_shape is None:
        base_shape = np.broadcast_shapes(*(regs[slot].shape for slot, _ in program.loads))
    out = np.empty(tuple(base_shape) + program.shape)
    for index, slot in program.prelude:
        out[index] = regs[slot]
    with np.errstate(all="ignore"):  # overflow and NaN are caught at the outputs below
        for _, fn, dst, a, b, writes, dead in program.ops:
            v = regs[dst] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
            for index in writes:
                out[index] = v
            for slot in dead:
                regs[slot] = None
    if not np.isfinite(out).all():
        where = np.argwhere(~np.isfinite(out))[0][len(base_shape) :]
        raise NonFiniteError(f"non-finite value at output {tuple(int(i) for i in where)}")
    return out if out.ndim else out[()]


# --- differentiation ----------------------------------------------------


def _diff(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Unary):
        da = _diff(e.arg, name)
        if e.op == "neg":
            return neg(da)
        if e.op == "sin":
            return mul(cos(e.arg), da)
        if e.op == "cos":
            return neg(mul(sin(e.arg), da))
        if e.op == "exp":
            return mul(e, da)
        if e.op == "log":
            return div(da, e.arg)
        if e.op == "sqrt":
            return div(da, mul(const(2.0), e))
    if isinstance(e, Binary):
        da = _diff(e.left, name)
        db = _diff(e.right, name)
        if e.op == "add":
            return add(da, db)
        if e.op == "sub":
            return sub(da, db)
        if e.op == "mul":
            return add(mul(da, e.right), mul(e.left, db))
        num = sub(mul(da, e.right), mul(e.left, db))
        return div(num, power(e.right, 2))
    if isinstance(e, Power):
        db = _diff(e.base, name)
        return mul(mul(const(float(e.k)), power(e.base, e.k - 1)), db)
    raise TypeError(f"not an Expr: {e!r}")


def _iter_vars(e: Expr) -> Iterator[str]:
    if isinstance(e, Var):
        yield e.name
    elif isinstance(e, Unary):
        yield from _iter_vars(e.arg)
    elif isinstance(e, Binary):
        yield from _iter_vars(e.left)
        yield from _iter_vars(e.right)
    elif isinstance(e, Power):
        yield from _iter_vars(e.base)


# --- printing -----------------------------------------------------------

# precedence levels: add/sub 1, mul/div 2, unary minus 3, power 4
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2}


def _format(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        return repr(e.value) if e.value >= 0 else f"({e.value!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            s = f"-{_format(e.arg, 3)}"
            return f"({s})" if parent_prec > 3 else s
        return f"{e.op}({_format(e.arg, 0)})"
    if isinstance(e, Binary):
        p = _PREC[e.op]
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[e.op]
        # right operand of - and / needs the next precedence level
        left = _format(e.left, p)
        right = _format(e.right, p + (1 if e.op in ("sub", "div") else 0))
        # addition-like ops are left associative; same-level right operands
        # of + and * are fine unparenthesized
        s = f"{left}{sym}{right}"
        return f"({s})" if parent_prec > p else s
    if isinstance(e, Power):
        base = _format(e.base, 5)
        s = f"{base}^{e.k}"
        return f"({s})" if parent_prec > 4 else s
    raise TypeError(f"not an Expr: {e!r}")


# --- parser -------------------------------------------------------------

_FUNCTIONS = {"sin", "cos", "exp", "log", "sqrt"}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.parse_unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok[0] != "num" or tok[1] != int(tok[1]):
            raise ParseError("exponent must be a constant integer", tok[2])
        return power(base, sign * int(tok[1]))

    def parse_atom(self) -> Expr:
        tok = self.advance()
        kind, value, offset = tok
        if kind == "num":
            return const(value)
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in _FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return globals()[value](arg)
            return var(value)
        if kind == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str) -> Expr:
    """Parse an expression string.

    Grammar: + - * / with the usual precedence, unary minus, ``^`` with a
    constant integer exponent only, functions sin cos exp log sqrt,
    decimal literals and identifiers.  Errors carry byte offsets.
    """
    p = _Parser(text)
    e = p.parse_expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
    return e
