"""Scalar expression trees: parsing, compiled evaluation, exact differentiation.

Every coefficient in this package (anchor entries, structure functions,
bivectors, splittings, connection data) is a small immutable tree over
named variables.  Evaluation compiles a tree, or a nested matrix of
trees, into a :class:`Program`: equal subtrees become one shared
node, and the nodes run as a straight-line list of numpy calls that
writes every entry into one preallocated array: of the output's shape,
or over a large grid of broadcast inputs, of theirs (see below).  Owners
of hot matrices compile once and keep the program; :func:`evaluate`
compiles anything else on the fly.  Evaluation is two steps: :func:`bind`
resolves each variable to its array and fixes the base shape, and
:meth:`Bound.run` runs the op list with every check.  :func:`evaluate` does both; a
caller that runs one program at every stage of a sweep binds it to the
buffers it rewrites in place, once, and only runs it per stage, after
:func:`split_exprs` takes out the cells that read none of them.  A run
over more than ``BLOCK`` points first cuts each input to a length-1
slice along every axis it is broadcast along (stride 0), so that each
op runs at its own inputs' broadcast shape, and then runs the op list
over blocks of the leading axis, so that the temporaries of each op
stay in the L2 cache.  Without a caller's array to write into, such a
run allocates its output at the cut inputs' broadcast shape and returns
a read-only broadcast of it, so an output that varies along one axis
is written and checked along that axis alone.  Every point goes through
the same ufunc calls either way, so none of this changes a bit of the
result.  The environment holds floats or numpy arrays and evaluation is
deterministic.  Division by zero, log/sqrt domain
violations and zero to a negative power raise :class:`DomainError`,
and so does any NaN or inf in the result (as :class:`NonFiniteError`).
Differentiation is exact and closed over the node kinds defined here.
No simplification is performed beyond constant folding and the obvious
0/1 identities that keep derivative trees small.
"""

from __future__ import annotations

import math
import re
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union


class _Deferred:
    """numpy, imported on the first attribute read.

    That read makes numpy's own namespace this object's attribute dict,
    so every later read is one dict lookup, as on the module itself, and
    ``np`` stays bound to this one object in each module that imports it.
    Parsing, building and describing a config read no ``np``, so they
    never import numpy.
    """

    def __getattr__(self, name: str):  # only reached while the dict lacks ``name``
        import numpy

        self.__dict__ = vars(numpy)
        return getattr(numpy, name)


np = _Deferred()

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
    "MAX_DEPTH",
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
    "total",
    "dot",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "BLOCK",
    "compact_part",
    "Program",
    "compile_exprs",
    "split_exprs",
    "Bound",
    "bind",
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
        """A call of :func:`parse` on the printed tree; the node classes keep it (``repr=False``)."""
        return f"parse({_format(self, 0)!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
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
    if isinstance(x, (int, float)) or isinstance(x, (np.floating, np.integer)):
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


def total(terms: Iterable[Expr]) -> Expr:
    """Left-to-right sum of the terms, starting from zero."""
    acc: Expr = ZERO
    for t in terms:
        acc = add(acc, t)
    return acc


def dot(xs: Iterable[Expr], ys: Iterable[Expr]) -> Expr:
    """Sum of the pairwise products ``xs[k] * ys[k]``; the lengths must match."""
    return total(mul(x, y) for x, y in zip(xs, ys, strict=True))


def power(base: Expr, k: int) -> Expr:
    if not isinstance(k, int) and not isinstance(k, np.integer):
        raise TypeError("exponent must be an integer")
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return base
    if _is_const(base):
        with np.errstate(all="ignore"):  # an overflow folds to inf, caught when evaluated
            return const(float(_power(np.float64(base.value), k)))
    return Power(base, k)


def _unary(op: str):
    def make(a) -> Expr:
        a = as_expr(a)
        if _is_const(a):
            with np.errstate(all="ignore"):  # an inf constant is caught when evaluated
                return const(float(_ops()[op](np.float64(a.value))))
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


@lru_cache(maxsize=None)
def _ops() -> dict:
    """Every node kind as one numpy call; the checked ones raise DomainError."""
    return {
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
    ``dead``, which nothing later reads.  ``shape`` is the output's nested
    shape, ``size`` its entry count, ``mask`` the cells written (None: all).
    """

    shape: tuple
    size: int
    registers: tuple
    loads: tuple
    prelude: tuple
    ops: tuple
    mask: np.ndarray | None

    def __repr__(self) -> str:
        return f"<Program shape={self.shape} ops={len(self.ops)}>"


def compile_exprs(exprs, mask=None) -> Program:
    """Compile an Expr, or a nested (rectangular) sequence of them, once.

    Nodes are hash-consed on ``(op, child slots)``, so equal subtrees
    evaluate once however often the trees repeat them; the walk is
    memoised by node identity, so shared objects are visited once.  No
    node is skipped: every operand is computed, so each division and
    domain check still runs.  With a boolean ``mask`` of the nested
    shape, only the cells where it is True are computed and written.
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
            raise TypeError(f"not an Expr: {type(e).__name__}")
        seen[id(e)] = s
        return s

    writes: dict[int, list] = {}
    for index in np.ndindex(cells.shape):
        if mask is None or mask[index]:
            writes.setdefault(visit(cells[index]), []).append((Ellipsis,) + index)

    last_read = {}
    for pos, (_, a, b, _) in enumerate(ops):
        last_read[a] = last_read[b] = pos
    table = _ops()
    program_ops = tuple(
        (name, table[name], dst, a, b, tuple(writes.pop(dst, ())),
         tuple(s for s in {a, b, dst} if s is not None and last_read.get(s, pos) == pos))
        for pos, (name, a, b, dst) in enumerate(ops)
    )
    prelude = tuple((index, s) for s, indices in writes.items() for index in indices)
    return Program(cells.shape, cells.size, tuple(registers), tuple(loads), prelude, program_ops, mask)


def split_exprs(exprs, state) -> tuple[np.ndarray, Program, Program]:
    """The mask of the cells of nested Exprs that read no name in ``state``, their program, and the rest's.

    The programs are :func:`compile_exprs` under complementary masks, so
    run into one array they write each cell once, bitwise as one program.
    """
    cells = np.array(exprs, dtype=object)
    free = np.vectorize(lambda e: e.variables().isdisjoint(state), otypes=[bool])(cells)
    return free, compile_exprs(cells, free), compile_exprs(cells, ~free)


# Points per block of a blocked evaluation.  Each op of a program reads
# one or two per-point arrays and writes one; at 2**15 float64 points an
# array is 256 kB, so an op and the values it feeds stay in a 2 MB L2
# cache instead of streaming whole grids through it once per op.
BLOCK = 2**15


def compact_part(a: np.ndarray) -> np.ndarray:
    """``a`` cut to one slice along each axis of stride 0 and length > 1: the part of a broadcast that holds its numbers."""
    cut = tuple(slice(1) if step == 0 and size > 1 else slice(None) for step, size in zip(a.strides, a.shape))
    return a[cut] if slice(1) in cut else a


def _blocks(program: Program, regs: list, out: np.ndarray, ndim: int):
    """Registers and output view of each block of at most ``BLOCK`` points of the leading axis.

    A variable that spans the leading axis is sliced with the output; one
    that is constant along it is shared by every block at its own shape.
    Constants and exponents are reloaded for each block.
    """
    lead = out.shape[0]
    rows = max(1, BLOCK * program.size * lead // out.size)
    for start in range(0, lead, rows):
        block = list(program.registers)
        for slot, _ in program.loads:
            v = regs[slot]
            block[slot] = v[start : start + rows] if v.ndim == ndim and v.shape[0] == lead else v
        yield block, out[start : start + rows]


class Bound:
    """A Program with each variable slot resolved to its array: :meth:`run` evaluates it on what they hold.

    Made by :func:`bind`.  A float64 array in the environment is bound by
    reference, not copied, so a caller that rewrites its buffers in place
    (a view of an RK4 stage buffer, say) runs the program on the new
    values without binding again; anything else is converted once, here.
    ``base_shape`` is fixed at bind time.
    """

    __slots__ = ("program", "regs", "base_shape")

    def __init__(self, program: Program, regs: list, base_shape: tuple):
        self.program, self.regs, self.base_shape = program, regs, base_shape

    def run(self, out: np.ndarray | None = None, checked: bool = True):
        """The program's value at the bound inputs, as :func:`evaluate` returns it (see there).

        Each domain check runs per op; one ``np.errstate`` and the check of
        the cells written per run, unless ``checked`` is False (every RK4
        stage and sweep table; the sweep rule is in :func:`cubes.rk4`).
        Over more than ``BLOCK`` points without ``out``, the output is
        allocated at the broadcast shape of the inputs cut to their
        :func:`compact_part`; the prelude, the ops, the blocks and the
        non-finite check run on it, and a read-only broadcast of it to the
        full shape is returned when that shape is smaller.
        """
        program, base_shape, mask = self.program, self.base_shape, self.program.mask
        shape = base_shape + program.shape
        if out is not None and (out.shape != shape or out.dtype != np.float64):
            raise ValueError(f"out must be a float64 array of shape {shape}, not {out.dtype} {out.shape}")
        regs = self.regs.copy()  # the op loop below fills and drops slots
        if math.prod(shape) > BLOCK * program.size:
            for slot, _ in program.loads:
                regs[slot] = compact_part(regs[slot])
            if out is None:  # written at the cut inputs' broadcast shape, and returned as a broadcast of that
                loaded = (regs[slot].shape for slot, _ in program.loads)
                out = np.empty(np.broadcast_shapes((1,) * len(base_shape), *loaded) + program.shape)
        if out is None:
            out = np.empty(shape)
        for index, slot in program.prelude:
            out[index] = regs[slot]
        if out.size <= BLOCK * program.size:
            blocks = ((regs, out),)
        else:
            blocks = _blocks(program, regs, out, len(base_shape))
        bad = None  # the first block with a non-finite output, reported once every domain check has run
        # overflow and NaN are caught at the outputs below, or unchecked, at the sweep's node states
        with np.errstate(all="ignore") if checked else nullcontext():
            for regs, view in blocks:
                for _, fn, dst, a, b, writes, dead in program.ops:
                    v = regs[dst] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
                    for index in writes:
                        view[index] = v
                    for slot in dead:
                        regs[slot] = None
                if checked and bad is None and not np.isfinite(view if mask is None else view[..., mask]).all():
                    bad = view
        if bad is not None:
            where = np.argwhere(~np.isfinite(bad) & (True if mask is None else mask))[0][len(base_shape) :]
            raise NonFiniteError(f"non-finite value at output {tuple(int(i) for i in where)}")
        if out.shape != shape:
            return np.broadcast_to(out, shape)
        return out if out.ndim else out[()]


def bind(e, env: Mapping[str, object], base_shape: tuple | None = None) -> Bound:
    """Resolve every variable of an Expr, nested Exprs or a Program in ``env``, once.

    Each variable slot gets ``np.asarray(env[name], dtype=float64)``, so a
    float64 array is bound as itself; ``base_shape`` defaults to the
    broadcast shape of the variables used.  Unbound variables raise here.
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
    return Bound(program, regs, tuple(base_shape))


def evaluate(e, env: Mapping[str, object], base_shape: tuple | None = None, out: np.ndarray | None = None):
    """Evaluate an Expr, a nested sequence of them, or a compiled Program: :func:`bind`, then :meth:`Bound.run`.

    Trees are compiled on the fly; hot callers compile once with
    :func:`compile_exprs` and pass the Program, and callers that run one
    program many times on buffers they rewrite in place bind it once and
    call :meth:`Bound.run` instead.  Environment values may
    be floats or numpy arrays; the result has shape ``base_shape +``
    the nested shape, where ``base_shape`` defaults to the broadcast
    shape of the variables used, and a scalar result is a numpy float.
    A caller's float64 array ``out`` of that shape, a strided view
    included, receives the result in place of a new array, and is
    returned.  Without ``out``, a run over more than ``BLOCK`` points
    whose inputs are all broadcast along some axis (see below) returns a
    read-only broadcast; any other result is a new array of its own.
    Unbound variables, division by zero, log/sqrt domain violations,
    zero to a negative power and any non-finite result raise errors
    rather than producing NaN or inf: each domain check per op, the
    non-finite check per run, except in RK4 stages (see :func:`cubes.rk4`).

    Over more than ``BLOCK`` points each variable is cut to its
    :func:`compact_part`, so an op whose inputs vary along one axis runs
    on that axis alone, and the op list runs once per block of rows of
    the leading axis (see :func:`_blocks`), writing each block's slice of
    the output: ``out``, or else an array of the cut inputs' broadcast
    shape, of which a read-only broadcast to the full shape is returned.
    Every op is elementwise, so each cell is bitwise that of one
    whole-grid run.  The domain checks see every distinct input value
    and the non-finite check reads each block's output, every distinct
    value, while it is still in cache, so it needs no grid-sized mask.
    Smaller calls run the op list once over the arrays as given and
    write every point.
    """
    return bind(e, env, base_shape).run(out)


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
    raise TypeError(f"not an Expr: {type(e).__name__}")


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


# --- operator table, printing and parsing --------------------------------

# Binary operators by token: precedence and builder (named as its node's op).
# The parser climbs this table and the printer reads it back; unary minus
# binds at level 3 and ``^`` at level 4.
_BINARY = {"+": (1, add), "-": (1, sub), "*": (2, mul), "/": (2, div)}
_SYMBOL = {make.__name__: (tok, prec) for tok, (prec, make) in _BINARY.items()}

_FUNCTIONS = {f.__name__: f for f in (sin, cos, exp, log, sqrt)}


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
        tok, p = _SYMBOL[e.op]
        # the right operand of - and / needs the next level; + and * associate
        left = _format(e.left, p)
        right = _format(e.right, p + (e.op in ("sub", "div")))
        s = f"{left} {tok} {right}" if p == 1 else f"{left}{tok}{right}"
        return f"({s})" if parent_prec > p else s
    if isinstance(e, Power):
        base = _format(e.base, 5)
        s = f"{base}^{e.k}"
        return f"({s})" if parent_prec > 4 else s
    raise TypeError(f"not an Expr: {type(e).__name__}")


# One token per match after optional whitespace.  ``\d``, ``\w`` and ``\s``
# are str.isdecimal, str.isalnum or "_", and str.isspace; an identifier
# must also start with a letter or "_", which the loop checks.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str):
    """``(kind, value, offset)`` triples; an operator's kind is itself, and an ``end`` closes."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, offset = m.group(kind), m.start(kind)
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ParseError(f"bad numeric literal {value!r}", offset) from None
        elif kind == "bad" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            raise ParseError(f"unexpected character {value[0]!r}", offset)
        tokens.append((value if kind == "op" else kind, value, offset))
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest nesting of parentheses, function calls and unary minus, and
# tallest tree (in nodes), that parse accepts.  The parser takes three
# Python frames per nesting level, and compile_exprs, _diff and _format
# one per tree level of a tree or of its derivatives (a few times
# taller).  A config whose map, anchor and splitting nest 64 levels deep
# runs every task kind in under 450 frames, under half of Python's
# default recursion limit of 1000.
MAX_DEPTH = 64


class _Parser:
    """Precedence climbing over ``_BINARY``; each rule returns its tree and the tree's height bound."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0  # open parentheses, function calls and unary minus

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

    def deeper(self, depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
        return depth

    def nested(self, rule, offset: int):
        """Run ``rule`` one nesting level down."""
        self.level = self.deeper(self.level + 1, offset)
        out = rule()
        self.level -= 1
        return out

    def expr(self, min_prec: int = 1) -> tuple[Expr, int]:
        """Operands joined by binary operators of precedence ``min_prec`` or more, left to right."""
        e, h = self.prefix()
        while self.peek()[0] in _BINARY and _BINARY[self.peek()[0]][0] >= min_prec:
            kind, _, offset = self.advance()
            prec, make = _BINARY[kind]
            rhs, hr = self.expr(prec + 1)
            e, h = make(e, rhs), self.deeper(max(h, hr) + 1, offset)
        return e, h

    def prefix(self) -> tuple[Expr, int]:
        """A unary minus, or a number, name, call or parenthesis with an optional ``^k``."""
        kind, value, offset = self.advance()
        if kind == "-":
            e, h = self.nested(self.prefix, offset)
            return neg(e), self.deeper(h + 1, offset)
        if kind == "num":
            e, h = const(value), 1
        elif kind == "ident" and self.peek()[0] == "(":
            if value not in _FUNCTIONS:
                raise ParseError(f"unknown function {value!r}", offset)
            self.advance()
            arg, h = self.nested(self.expr, offset)
            self.expect(")")
            e, h = _FUNCTIONS[value](arg), self.deeper(h + 1, offset)
        elif kind == "ident":
            e, h = var(value), 1
        elif kind == "(":
            e, h = self.nested(self.expr, offset)
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {value!r}", offset)
        if self.peek()[0] != "^":
            return e, h
        offset = self.advance()[2]
        minus = self.peek()[0] == "-"
        self.pos += minus
        kind, k, at = self.advance()
        if kind != "num" or not k.is_integer():  # an overflowing literal is inf, not an integer
            raise ParseError("exponent must be a constant integer", at)
        return power(e, -int(k) if minus else int(k)), self.deeper(h + 1, offset)


def parse(text: str) -> Expr:
    """Parse an expression string.

    Grammar: + - * / with the usual precedence, unary minus, ``^`` with a
    constant integer exponent only, functions sin cos exp log sqrt,
    decimal literals and identifiers.  Nesting deeper than ``MAX_DEPTH``
    levels, or a tree taller than ``MAX_DEPTH`` nodes, is rejected.
    Errors carry byte offsets.
    """
    p = _Parser(text)
    e, _ = p.expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
    return e
