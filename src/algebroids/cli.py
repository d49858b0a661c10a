"""Config-driven batch front end with JSON reports.

A config file is a flat sequence of ``[kind name]`` sections holding
``key = value`` lines.  Charts, algebroids, fibrations, and cubes are
declared by name; ``task`` sections reference them and run in
declaration order.  ``run`` writes one JSON report per task and exits 0
only if every declared check passes; ``describe`` validates the file
and prints the entity table without running anything.

``_SCHEMA`` below is the one place that lists the keys each section
may hold, with the parser, default and allowed range of each.  Both
``describe`` and ``run`` check every section against it before any
task starts, so a config that ``describe`` accepts does not fail
validation in ``run``; a rejected value exits 2 with its line number.

Value grammars, all plain text:

* lists (names, numbers): whitespace separated;
* matrices of expressions: commas between entries, semicolons between
  rows (expressions never contain either character);
* structure or twist tables: ``i j: e1, e2, ...`` chunks joined by
  semicolons, frame indices zero-based with i < j;
* per-frame matrix lists (representation actions): matrices joined by
  ``|`` in frame order.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .core import (
    Chart,
    check_axioms,
    make_cotangent_poisson,
    make_explicit,
    make_jacobi_extension,
    make_lie_algebra,
    make_rep_extension,
    make_tangent,
    pair_table,
    sup_norm,
    time_names,
)
from .expr import Expr, np
from .expr import parse as parse_expr
from .fibration import Fibration, lift_cube, project_cube, splitting_from_projection


class ConfigError(Exception):
    """Config problem, pointing at a source line when one is known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass
class SectionSpec:
    """One ``[kind name]`` block of raw key/value text."""

    kind: str
    name: str
    line: int
    entries: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)

    def require(self, key: str) -> str:
        if key not in self.entries:
            raise ConfigError(f"[{self.kind} {self.name}] is missing key '{key}'", self.line)
        return self.entries[key]

    def where(self, key: str) -> int:
        return self.lines.get(key, self.line)

    def reject_unknown(self, allowed: set[str]) -> None:
        for key in self.entries:
            if key not in allowed:
                raise ConfigError(
                    f"[{self.kind} {self.name}] has unknown key '{key}' "
                    f"(allowed: {', '.join(sorted(allowed))})",
                    self.where(key),
                )


# --- parsing -------------------------------------------------------------------


def parse_config(text: str) -> list[SectionSpec]:
    """Split config text into sections, complaining with line numbers."""
    sections: list[SectionSpec] = []
    seen: dict[tuple[str, str], int] = {}
    current: SectionSpec | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            head = line[1:-1].split()
            if len(head) != 2:
                raise ConfigError("section header must be '[kind name]'", lineno)
            kind, name = head
            if kind not in _SCHEMA:
                raise ConfigError(
                    f"unknown section kind '{kind}' (one of {', '.join(_SCHEMA)})", lineno
                )
            if not name.isidentifier():
                raise ConfigError(f"bad section name '{name}'", lineno)
            if (kind, name) in seen:
                raise ConfigError(
                    f"duplicate section [{kind} {name}], first defined at line {seen[kind, name]}",
                    lineno,
                )
            seen[kind, name] = lineno
            current = SectionSpec(kind, name, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or a '[kind name]' header", lineno)
        if current is None:
            raise ConfigError("key/value line before any section header", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key.isidentifier():
            raise ConfigError(f"bad key '{key}'", lineno)
        if key in current.entries:
            raise ConfigError(f"duplicate key '{key}' in [{current.kind} {current.name}]", lineno)
        current.entries[key] = value.strip()
        current.lines[key] = lineno
    return sections


def apply_overrides(sections: list[SectionSpec], assignments: list[str]) -> dict[str, str]:
    """Apply ``kind.name.key=value`` assignments in place; return the echo map.  Errors name ``--set <i> '<text>'``."""
    index = {(s.kind, s.name): s for s in sections}
    applied: dict[str, str] = {}
    for i, item in enumerate(assignments, 1):
        where = f"--set {i} '{item}'"
        target, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"{where}: not of the form kind.name.key=value")
        parts = target.strip().split(".")
        if len(parts) != 3:
            raise ConfigError(f"{where}: target '{target.strip()}' is not kind.name.key")
        kind, name, key = parts
        if kind not in _SCHEMA:
            raise ConfigError(f"{where}: names unknown section kind '{kind}'")
        sec = index.get((kind, name))
        if sec is None:
            raise ConfigError(f"{where}: names undefined {kind} '{name}'")
        sec.entries[key] = value.strip()
        sec.lines.setdefault(key, sec.line)
        applied[target.strip()] = value.strip()
    return applied


@lru_cache(maxsize=1)
def _sha256():
    """The interpreter's built-in SHA-256 constructor, found once per process.

    It is ``_sha2``'s from Python 3.12, ``_sha256``'s before, neither of
    which loads OpenSSL; the standard library's OpenSSL-backed one is the
    fallback where neither exists.  A failed import is not cached, so
    each try would search ``sys.path`` again; only a run hashes its
    config, so describe imports none of them.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def config_hash(sections: list[SectionSpec], overrides: dict[str, str]) -> str:
    """SHA-256 digest of the canonicalized config plus the applied overrides, by :func:`_sha256`."""
    parts: list[str] = []
    for sec in sections:
        parts.append(f"[{sec.kind} {sec.name}]")
        parts.extend(f"{key}={sec.entries[key]}" for key in sorted(sec.entries))
    parts.extend(f"set {key}={value}" for key, value in sorted(overrides.items()))
    return _sha256()("\n".join(parts).encode("utf-8")).hexdigest()


# --- value grammars ------------------------------------------------------------
#
# Each parser reads one value's text and raises ValueError when the text
# is malformed or out of range; the schema check adds section, key and line.


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"'{text}' is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _positive(text: str) -> float:
    value = _number(text)
    if value <= 0.0:
        raise ValueError(f"{text} is not positive")
    return value


def _positive_or_none(text: str) -> float | None:
    return None if text == "none" else _positive(text)


def _integer(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"'{text}' is not an integer") from None
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return parse


def _one_of(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got '{text}'")
        return text

    return parse


def _file_name(text: str) -> str:
    """A bare file name: no directory part, and not ``.`` or ``..``."""
    if text in ("", ".", "..") or Path(text).name != text:
        raise ValueError(f"'{text}' must be a bare file name, with no directory part")
    return text


def _names(text: str) -> tuple[str, ...]:
    if not text.split():
        raise ValueError("needs at least one name")
    return tuple(text.split())


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(_number(tok) for tok in text.replace(",", " ").split())


def _integers(text: str) -> tuple[int, ...]:
    return tuple(_integer(0)(tok) for tok in text.split())


# Characters of a rejected expression that its error quotes.
QUOTE_CHARS = 60


def _quote(text: str, offset: int | None) -> str:
    """About ``QUOTE_CHARS`` characters of ``text`` around ``offset`` (from the start without one); ``...`` marks a cut."""
    start = 0 if offset is None else max(0, min(offset - QUOTE_CHARS // 2, len(text) - QUOTE_CHARS))
    end = start + QUOTE_CHARS
    return ("..." if start else "") + text[start:end] + ("..." if end < len(text) else "")


def _exprs(text: str) -> tuple:
    out = []
    for entry in (e.strip() for e in text.split(",")):
        if not entry:
            raise ValueError("has an empty entry")
        try:
            out.append(parse_expr(entry))
        except ValueError as err:
            raise ValueError(f"bad expression '{_quote(entry, getattr(err, 'offset', None))}': {err}") from None
    return tuple(out)


def _matrix(text: str) -> tuple[tuple, ...]:
    rows = tuple(_exprs(chunk) for chunk in text.split(";"))
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows have unequal lengths")
    return rows


def _matrices(text: str) -> tuple[tuple[tuple, ...], ...]:
    return tuple(_matrix(part) for part in text.split("|"))


def _bounds(text: str) -> tuple[tuple[float, float], ...]:
    rows = tuple(_numbers(chunk) for chunk in text.split(";"))
    if any(len(pair) != 2 for pair in rows):
        raise ValueError("each bounds row must be 'lo hi'")
    return rows


def _table(text: str) -> dict[tuple[int, int], tuple]:
    """``i j: e1, e2, ...`` chunks; index ranges and lengths are checked by ``_check_table``."""
    out: dict[tuple[int, int], tuple] = {}
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        head, colon, tail = chunk.partition(":")
        if not colon:
            raise ValueError(f"chunk '{chunk.strip()}' is missing ':'")
        pair = _integers(head)
        if len(pair) != 2:
            raise ValueError("each chunk needs two frame indices before ':'")
        if pair in out:
            raise ValueError(f"repeats the pair {pair}")
        out[pair] = _exprs(tail)
    return out


# --- schema --------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class SameAs:
    """Default that copies another key of the same form, listed before this one."""

    key: str


@dataclass(frozen=True)
class Key:
    """One allowed key: its parser (which enforces the range), default, and referent.

    ``refers`` names the section kind that the value (or each of its
    names) must point at.
    """

    parse: Callable[[str], object] = str
    default: object = _REQUIRED
    refers: str | None = None


@dataclass(frozen=True)
class Form:
    """The keys of one section variant, plus checks against other sections.

    ``check(ws, sec, params)`` compares sizes with the referenced
    entities; it must not build a cube grid, because ``describe`` runs it.
    """

    keys: dict[str, Key]
    check: Callable | None = None


def _fit(sec: SectionSpec, key: str, got: int, want: int, what: str) -> None:
    if got != want:
        raise ConfigError(
            f"[{sec.kind} {sec.name}] {key} needs {want} {what}, got {got}", sec.where(key)
        )


def _fit_matrix(sec: SectionSpec, key: str, rows, n_rows: int, n_cols: int) -> None:
    """Check a parsed matrix (rows of equal length) is ``n_rows`` x ``n_cols``, at its key's line."""
    _fit(sec, key, len(rows), n_rows, "rows")
    if rows:
        _fit(sec, key, len(rows[0]), n_cols, "entries per row")


# Largest grid a config may ask for, in bytes.  The largest grid shipped or
# benchmarked (sphere_periods' 769^2 nodes of 6 doubles, 28 MB) peaks at
# about 7.7 times its size in a run, so this keeps a run near 2 GB.
GRID_BUDGET_BYTES = 256 * 2**20


def grid_bytes(N: int, n: int, dim: int, rank: int) -> int:
    """Bytes of an n-cube grid: (N+1)^n nodes of a point and n coefficient vectors, in doubles."""
    return 8 * (N + 1) ** n * (dim + n * rank)


def _cube_dim(cube: SimpleNamespace) -> int:
    """Dimension of a generated (not file) cube from its parameters."""
    return cube.n if cube.source == "tangent_lift_of" else len(cube.sections)


def _fit_grid(sec: SectionSpec, p, A, what: str = "the cube", n: int | None = None) -> None:
    """Reject a grid over ``A`` with n axes (default the cube's) on the N of cube ``sec`` beyond the budget."""
    size = grid_bytes(p.N, _cube_dim(p) if n is None else n, A.chart.dim, A.rank)
    if size > GRID_BUDGET_BYTES:
        raise ConfigError(
            f"[cube {sec.name}] N = {p.N}: {what} needs {size / 2**20:.0f} MiB of grid, "
            f"over the {GRID_BUDGET_BYTES // 2**20} MiB budget",
            sec.where("N"),
        )


def _variables(value) -> set[str]:
    """Names used by a parsed expression value: an Expr, nested tuples of them or a pair table."""
    if isinstance(value, Expr):
        return set(value.variables())
    if isinstance(value, dict):
        value = value.values()
    return set().union(*(_variables(v) for v in value or ()))


def _fit_names(sec: SectionSpec, p, keys, allowed) -> None:
    """Reject a variable outside ``allowed`` in the expressions of each key, at that key's line."""
    for key in keys:
        extra = sorted(_variables(getattr(p, key)) - set(allowed))
        if extra:
            raise ConfigError(
                f"[{sec.kind} {sec.name}] {key}: unbound variable {extra[0]!r} "
                f"(allowed: {', '.join(allowed) or 'none'})",
                sec.where(key),
            )


def _cube_times(sec: SectionSpec, A, n: int) -> tuple[str, ...]:
    """Time names ``t1 .. tn`` of cube ``sec``; a clash with a chart coordinate is reported at its algebroid."""
    try:
        return time_names(A.chart, n)
    except ValueError as err:
        raise ConfigError(f"[cube {sec.name}] {err}", sec.where("algebroid")) from None


def _check_chart(ws, sec, p) -> None:
    if len(set(p.coords)) != len(p.coords) or not all(c.isidentifier() for c in p.coords):
        raise ConfigError(f"[chart {sec.name}] coords must be distinct identifiers", sec.where("coords"))
    _fit(sec, "bounds", len(p.bounds), len(p.coords), "rows (one 'lo hi' per coordinate)")
    for lo, hi in p.bounds:
        if not lo < hi:
            raise ConfigError(f"[chart {sec.name}] bounds: empty range ({lo}, {hi})", sec.where("bounds"))


def _check_table(sec: SectionSpec, key: str, table, n: int, width: int) -> None:
    """Run the pair-table check of ``core`` on a parsed table, at its key's line."""
    try:
        pair_table(table or {}, n, width, key)
    except ValueError as err:
        raise ConfigError(f"[{sec.kind} {sec.name}] {err}", sec.where(key)) from None


def _check_structure(ws, sec, p) -> None:
    _check_table(sec, "structure", p.structure, p.rank, p.rank)
    _fit_names(sec, p, ("structure",), () if p.chart is None else ws.build("chart", p.chart).coords)


def _check_explicit(ws, sec, p) -> None:
    chart = ws.build("chart", p.chart)
    _fit_matrix(sec, "anchor", p.anchor, p.rank, chart.dim)
    _fit_names(sec, p, ("anchor",), chart.coords)
    _check_structure(ws, sec, p)


def _check_bivector(ws, sec, p) -> None:
    chart = ws.build("chart", p.chart)
    _fit_matrix(sec, "bivector", p.bivector, chart.dim, chart.dim)
    _fit_names(sec, p, ("bivector",), chart.coords)


def _check_rep_extension(ws, sec, p) -> None:
    rB, d = ws.build("algebroid", p.base).rank, p.fiber_dim
    _fit(sec, "action", len(p.action), rB, "matrices (one per base frame)")
    for M in p.action:
        _fit_matrix(sec, "action", M, d, d)
    _check_table(sec, "twist", p.twist, rB, d)
    _fit_names(sec, p, ("action", "twist"), ws.build("algebroid", p.base).chart.coords)


def _check_fibration(ws, sec, p) -> None:
    rE, rB = ws.build("algebroid", p.total).rank, ws.build("algebroid", p.base).rank
    if rB > rE:
        raise ConfigError(f"[fibration {sec.name}] base rank {rB} exceeds total rank {rE}", sec.where("base"))
    _fit_matrix(sec, "pi", p.pi, rB, rE)
    if p.sigma is not None:
        _fit_matrix(sec, "sigma", p.sigma, rE, rB)
    _fit_matrix(sec, "kernel_frame", p.kernel_frame, rE - rB, rE)
    _fit_names(sec, p, ("pi", "sigma", "kernel_frame"), ws.build("algebroid", p.total).chart.coords)


def _check_file(ws, sec, p) -> None:
    path = ws.base_dir / p.path
    if not path.exists():
        raise ConfigError(f"cube file '{path}' does not exist", sec.where("path"))


def _check_sections(ws, sec, p) -> None:
    A = ws.build("algebroid", p.algebroid)
    _fit(sec, "sections", len(p.sections[0]), A.rank, "coefficient entries per row")
    _fit(sec, "basepoint", len(p.basepoint), A.chart.dim, "numbers")
    if p.order is not None and sorted(p.order) != list(range(len(p.sections))):
        raise ConfigError(f"order must permute 0..{len(p.sections) - 1}", sec.where("order"))
    _fit_names(sec, p, ("sections",), A.chart.coords + _cube_times(sec, A, len(p.sections)))
    _fit_grid(sec, p, A)


def _check_map(ws, sec, p) -> None:
    A = ws.build("algebroid", p.algebroid)
    _fit(sec, "map", len(p.map), A.chart.dim, "components")
    kind = ws.params("algebroid", p.algebroid).kind
    if kind != "tangent" and (kind != "cotangent_poisson" or A.chart.dim != 2):
        raise ConfigError(
            "tangent_lift_of needs a tangent algebroid or a cotangent_poisson one on a 2-D chart",
            sec.where("algebroid"),
        )
    _fit_names(sec, p, ("map",), _cube_times(sec, A, p.n))
    _fit_grid(sec, p, A)


def _check_flow(ws, sec, p) -> None:
    if p.expect_endpoint is not None:
        chart = ws.build("algebroid", ws.params("cube", p.cube).algebroid).chart
        _fit(sec, "expect_endpoint", len(p.expect_endpoint), chart.dim, "numbers")


def _fit_dim(ws, sec, key: str, names, low: int, high: float, lift=None, lift_n=None) -> None:
    """Compare the dimension of each named cube with low..high, without building it.

    With ``lift`` (a fibration name) the grid the task lifts each cube
    to is budgeted too: ``lift_n`` axes (default the cube's) over the
    total algebroid.  A file cube is left to the routine that uses it,
    because its header is only read when the cube is built.
    """
    for name in names:
        cube = ws.params("cube", name)
        if cube.source == "file":
            continue
        n = _cube_dim(cube)
        if not low <= n <= high:
            want = f"{low}" if low == high else f"at least {low}"
            raise ConfigError(
                f"[task {sec.name}] {key}: cube '{name}' has dimension {n}, needs {want}",
                sec.where(key),
            )
        if lift is not None:
            total = ws.build("fibration", lift).total
            _fit_grid(ws.section("cube", name), cube, total, f"task '{sec.name}'", lift_n)


def _check_lift(ws, sec, p) -> None:
    _fit_dim(ws, sec, "cube", (p.cube,), 1, math.inf, p.fibration)


def _check_transgress(ws, sec, p) -> None:
    lift = None if p.method == "formula" else p.fibration
    _fit_dim(ws, sec, "cube", (p.cube,), 2, math.inf if p.method == "lift" else 2, lift)


def _check_decompose(ws, sec, p) -> None:
    _fit_dim(ws, sec, "cube", (p.cube,), 1, 1, p.fibration, 2)  # lifted to the deformation square


def _check_monodromy(ws, sec, p) -> None:
    A = ws.build("algebroid", p.algebroid)
    _fit_matrix(sec, "splitting", p.splitting, A.rank, A.chart.dim)
    _fit_names(sec, p, ("splitting",), A.chart.coords)
    if (p.cube is None) == (p.cubes is None):
        raise ConfigError(f"[task {sec.name}] needs exactly one of 'cube' or 'cubes'", sec.line)
    if p.labels is not None:
        _fit(sec, "labels", len(p.labels), len(p.cubes or (p.cube,)), "names")
    _fit_dim(ws, sec, "cubes" if p.cube is None else "cube", p.cubes or (p.cube,), 2, 2)


_CHART = Key(refers="chart")
_ALGEBROID = Key(refers="algebroid")
_FIBRATION = Key(refers="fibration")
_CUBE = Key(refers="cube")
_RANK = Key(_integer(1))
_STRUCTURE = Key(_table, None)
_BIVECTOR = Key(_matrix)
_N = Key(_integer(2))
_TOL = Key(_positive, 1e-2)
_EXPECT = Key(_number, None)
_EXPECT_TOL = Key(_positive, SameAs("tol"))
_CENTRALITY_TOL = Key(_positive_or_none, 1e-6)
_SEED = Key(_integer(0), 42)
_SAVE = Key(_file_name, None)

# section kind -> discriminating key (absent for kinds with one form)
_TAGS = {"algebroid": "kind", "cube": "source", "task": "kind"}

# section kind -> discriminator value -> Form
_SCHEMA: dict[str, dict[str | None, Form]] = {
    "chart": {None: Form({"coords": Key(_names), "bounds": Key(_bounds)}, _check_chart)},
    "algebroid": {
        "tangent": Form({"chart": _CHART}),
        "lie_algebra": Form(
            {"rank": _RANK, "structure": _STRUCTURE, "chart": Key(default=None, refers="chart")},
            _check_structure,
        ),
        "cotangent_poisson": Form({"chart": _CHART, "bivector": _BIVECTOR}, _check_bivector),
        "jacobi_extension": Form({"chart": _CHART, "bivector": _BIVECTOR}, _check_bivector),
        "rep_extension": Form(
            {
                "base": _ALGEBROID,
                "fiber_dim": Key(_integer(1)),
                "action": Key(_matrices),
                "twist": Key(_table, None),
            },
            _check_rep_extension,
        ),
        "explicit": Form(
            {"chart": _CHART, "rank": _RANK, "anchor": Key(_matrix), "structure": _STRUCTURE},
            _check_explicit,
        ),
    },
    "fibration": {
        None: Form(
            {
                "total": _ALGEBROID,
                "base": _ALGEBROID,
                "pi": Key(_matrix),
                "sigma": Key(_matrix, None),
                "kernel_frame": Key(_matrix, ()),
            },
            _check_fibration,
        )
    },
    "cube": {
        "file": Form({"algebroid": _ALGEBROID, "path": Key()}, _check_file),
        "from_sections": Form(
            {
                "algebroid": _ALGEBROID,
                "sections": Key(_matrix),
                "basepoint": Key(_numbers),
                "N": _N,
                "order": Key(_integers, None),
            },
            _check_sections,
        ),
        "tangent_lift_of": Form(
            {"algebroid": _ALGEBROID, "map": Key(_exprs), "n": Key(_integer(1)), "N": _N},
            _check_map,
        ),
    },
    "task": {
        "check": Form(
            {
                "algebroid": _ALGEBROID,
                "tol": Key(_positive, 1e-6),
                "n_points": Key(_integer(1), 200),
                "seed": _SEED,
            }
        ),
        "flow": Form(
            {
                "cube": _CUBE,
                "tol": _TOL,
                "expect_endpoint": Key(_numbers, None),
                "expect_tol": _EXPECT_TOL,
                "save": _SAVE,
            },
            _check_flow,
        ),
        "lift": Form(
            {"fibration": _FIBRATION, "cube": _CUBE, "tol": _TOL, "save": _SAVE}, _check_lift
        ),
        "transgress": Form(
            {
                "fibration": _FIBRATION,
                "cube": _CUBE,
                "method": Key(_one_of("formula", "lift", "both"), "both"),
                "tol": _TOL,
                "expect": _EXPECT,
                "expect_tol": _EXPECT_TOL,
                "centrality_tol": _CENTRALITY_TOL,
            },
            _check_transgress,
        ),
        "monodromy": Form(
            {
                "algebroid": _ALGEBROID,
                "splitting": Key(_matrix),
                "cube": Key(default=None, refers="cube"),
                "cubes": Key(_names, None, refers="cube"),
                "labels": Key(_names, None),
                "expect": _EXPECT,
                "expect_tol": _TOL,
                "seed": _SEED,
                "n_samples": Key(_integer(1), 25),
                "max_denominator": Key(_integer(1), 64),
                "centrality_tol": _CENTRALITY_TOL,
            },
            _check_monodromy,
        ),
        "decompose": Form(
            {
                "fibration": _FIBRATION,
                "cube": _CUBE,
                "tol": _TOL,
                "endpoint_tol": Key(_positive, 1e-6),
            },
            _check_decompose,
        ),
    },
}


# --- workspace -----------------------------------------------------------------


class Workspace:
    """Checks, builds and memoizes the entities a config declares."""

    def __init__(self, sections: list[SectionSpec], base_dir: Path):
        self.base_dir = base_dir
        self.index = {(s.kind, s.name): s for s in sections}
        self._params: dict[tuple[str, str], SimpleNamespace] = {}
        self._built: dict[tuple[str, str], object] = {}
        self._stack: list[tuple[str, str]] = []

    def section(self, kind: str, name: str, where: int | None = None) -> SectionSpec:
        sec = self.index.get((kind, name))
        if sec is None:
            raise ConfigError(f"undefined {kind} '{name}'", where)
        return sec

    def params(self, kind: str, name: str) -> SimpleNamespace:
        """Typed parameters of a section, checked against ``_SCHEMA`` on first use.

        The discriminator (algebroid ``kind``, cube ``source``, task
        ``kind``) is included; absent optional keys take their defaults.
        """
        if (kind, name) in self._params:
            return self._params[kind, name]
        sec = self.section(kind, name)
        tag = _TAGS.get(kind)
        choice = sec.require(tag) if tag else None
        if choice not in _SCHEMA[kind]:
            raise ConfigError(
                f"unknown {kind} {tag} '{choice}' (one of {', '.join(_SCHEMA[kind])})",
                sec.where(tag),
            )
        form = _SCHEMA[kind][choice]
        sec.reject_unknown(set(form.keys) | {tag} - {None})
        values: dict[str, object] = {tag: choice} if tag else {}
        for key, spec in form.keys.items():
            if key not in sec.entries:
                if spec.default is _REQUIRED:
                    sec.require(key)  # raises: the key is missing
                default = spec.default
                values[key] = values[default.key] if isinstance(default, SameAs) else default
                continue
            try:
                value = spec.parse(sec.entries[key])
            except ValueError as err:
                raise ConfigError(f"[{kind} {name}] {key}: {err}", sec.where(key)) from None
            if spec.refers:
                for ref in (value,) if isinstance(value, str) else value:
                    self.section(spec.refers, ref, sec.where(key))
            values[key] = value
        p = SimpleNamespace(**values)
        if form.check is not None:
            form.check(self, sec, p)
        self._params[kind, name] = p
        return p

    def build(self, kind: str, name: str):
        key = (kind, name)
        if key in self._built:
            return self._built[key]
        sec = self.section(kind, name)
        if key in self._stack:
            raise ConfigError(f"circular reference through [{kind} {name}]", sec.line)
        self._stack.append(key)
        try:
            obj = getattr(self, f"_make_{kind}")(self.params(kind, name))
        except ValueError as err:
            raise ConfigError(f"[{kind} {name}]: {err}", sec.line) from err
        finally:
            self._stack.pop()
        self._built[key] = obj
        return obj

    def drop_anchor_fibrations(self) -> None:
        """Drop each built algebroid's :func:`fibration.anchor_fibration` memo, once its tasks are done.

        The memo refers back to its algebroid (through ``Fibration.total``),
        a cycle that only the cyclic garbage collector would break; without
        it the run's algebroids, fibrations and programs go by reference
        counting with the workspace.
        """
        for (kind, _), obj in self._built.items():
            if kind == "algebroid":
                vars(obj).pop("_anchor_fibrations", None)

    def _make_chart(self, p) -> Chart:
        return Chart(p.coords, p.bounds)

    def _make_algebroid(self, p):
        if p.kind == "tangent":
            return make_tangent(self.build("chart", p.chart))
        if p.kind == "lie_algebra":
            chart = None if p.chart is None else self.build("chart", p.chart)
            return make_lie_algebra(p.rank, p.structure or {}, chart=chart)
        if p.kind == "rep_extension":
            base = self.build("algebroid", p.base)
            return make_rep_extension(base, p.fiber_dim, p.action, twist=p.twist)
        chart = self.build("chart", p.chart)
        if p.kind == "explicit":
            return make_explicit(chart, p.rank, p.anchor, p.structure)
        maker = make_cotangent_poisson if p.kind == "cotangent_poisson" else make_jacobi_extension
        return maker(chart, p.bivector)

    def _make_fibration(self, p) -> Fibration:
        return Fibration(
            total=self.build("algebroid", p.total),
            base=self.build("algebroid", p.base),
            projection=p.pi,
            splitting=p.sigma if p.sigma is not None else splitting_from_projection(p.pi),
            kernel=p.kernel_frame,
        )

    def _make_cube(self, p):
        from .cubes import cotangent_lift, cube_from_sections, load_cube, tangent_lift

        A = self.build("algebroid", p.algebroid)
        if p.source == "file":
            return load_cube(self.base_dir / p.path, A)
        if p.source == "from_sections":
            return cube_from_sections(A, p.sections, p.basepoint, p.N, order=p.order)
        alg = self.params("algebroid", p.algebroid)
        if alg.kind == "tangent":
            return tangent_lift(A.chart, p.map, p.n, p.N)
        return cotangent_lift(A.chart, alg.bivector, p.map, p.n, p.N)


# --- describe ------------------------------------------------------------------


def _summary(p: SimpleNamespace) -> str:
    """The scalar and list parameters of a section, defaults included."""
    scalar = (str, int, float)
    parts = []
    for key, value in vars(p).items():
        if isinstance(value, tuple) and value and all(isinstance(v, scalar) for v in value):
            value = ",".join(map(str, value))
        if isinstance(value, scalar):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def inspect_config(sections: list[SectionSpec], base_dir: Path):
    """Check every section; return the workspace and one summary per section.

    Charts, algebroids and fibrations are built as well; cubes are only
    checked, so no grid is allocated here.
    """
    ws = Workspace(sections, base_dir)
    rows: list[tuple[str, str, str]] = []
    for sec in sections:
        p = ws.params(sec.kind, sec.name)
        if sec.kind in ("chart", "algebroid", "fibration"):
            ws.build(sec.kind, sec.name)
        rows.append((sec.kind, sec.name, _summary(p)))
    _check_save_names(ws, sections)
    return ws, rows


def _check_save_names(ws, sections: list[SectionSpec]) -> None:
    """Reject a ``save =`` file that a report (``<task>.json``) or an earlier ``save`` also writes."""
    writers = {f"{sec.name}.json": f"the report of task '{sec.name}'" for sec in sections if sec.kind == "task"}
    for sec in sections:
        name = getattr(ws.params(sec.kind, sec.name), "save", None) if sec.kind == "task" else None
        if name is None:
            continue
        if name in writers:
            raise ConfigError(f"[task {sec.name}] save: '{name}' is also {writers[name]}", sec.where("save"))
        writers[name] = f"saved by task '{sec.name}'"


# --- task execution ------------------------------------------------------------


def _jsonable(obj):
    """Plain JSON data, a non-finite float as None (null) so reports are strict JSON; other types raise TypeError."""
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot write a {type(obj).__name__} into a report")


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol), "passed": bool(value < tol)}


def _expect_check(p, checks, scalar):
    if p.expect is not None:
        checks.append(_check("expect", abs(scalar - p.expect), p.expect_tol))


def _run_check(ws, p, checks, values, out_dir):
    A = ws.build("algebroid", p.algebroid)
    report = check_axioms(A, n_points=p.n_points, seed=p.seed, tol=p.tol)
    values["jacobi_residual"] = report.jacobi_residual
    values["anchor_residual"] = report.anchor_residual
    if report.witness is not None and not report.passed:
        values["witness"] = report.witness.describe()
    checks.append(_check("axioms", max(report.jacobi_residual, report.anchor_residual), p.tol))


def _run_flow(ws, p, checks, values, out_dir):
    from .cubes import morphism_residual, save_cube

    cube = ws.build("cube", p.cube)
    res = morphism_residual(cube)
    endpoint = cube.point((-1,) * cube.n)
    values.update(
        n=cube.n,
        N=cube.N,
        structure_residual=res.structure,
        base_residual=res.base,
        endpoint=endpoint,
    )
    checks.append(_check("morphism_residual", max(res), p.tol))
    if p.expect_endpoint is not None:
        gap = sup_norm(endpoint - np.array(p.expect_endpoint))
        checks.append(_check("endpoint", gap, p.expect_tol))
    if p.save is not None:
        save_cube(cube, out_dir / p.save)


def _run_lift(ws, p, checks, values, out_dir):
    from .cubes import morphism_residual, save_cube

    fib = ws.build("fibration", p.fibration)
    cube = ws.build("cube", p.cube)
    lifted = lift_cube(fib, cube)
    res = morphism_residual(lifted)
    down = project_cube(fib, lifted)
    roundtrip = sup_norm(down.coeffs - cube.coeffs)
    values.update(
        endpoint=lifted.point((-1,) * lifted.n),
        structure_residual=res.structure,
        base_residual=res.base,
        projection_roundtrip=roundtrip,
    )
    checks.append(_check("morphism_residual", max(res), p.tol))
    checks.append(_check("projection_roundtrip", roundtrip, p.tol))
    if p.save is not None:
        save_cube(lifted, out_dir / p.save)


def _run_transgress(ws, p, checks, values, out_dir):
    from .transgression import transgress2_formula, transgress_lift

    fib = ws.build("fibration", p.fibration)
    cube = ws.build("cube", p.cube)
    results = {}
    if p.method in ("formula", "both"):
        results["formula"] = transgress2_formula(fib, cube, centrality_tol=p.centrality_tol)
        values["formula"] = results["formula"].as_dict()
    if p.method in ("lift", "both"):
        results["lift"] = transgress_lift(fib, cube)
        values["lift"] = results["lift"].as_dict()
    if p.method == "both":
        gap = sup_norm(results["formula"].value - results["lift"].value)
        checks.append(_check("methods_agree", gap, p.tol))
    primary = results.get("formula", results.get("lift"))
    if primary.value.size == 1:
        _expect_check(p, checks, primary.scalar())


def _run_monodromy(ws, p, checks, values, out_dir):
    from .transgression import monodromy_group, monodromy_period

    A = ws.build("algebroid", p.algebroid)
    if p.cube is not None:
        result = monodromy_period(
            A,
            p.splitting,
            ws.build("cube", p.cube),
            n_samples=p.n_samples,
            seed=p.seed,
            centrality_tol=p.centrality_tol,
        )
        values["period"] = result.as_dict()
        if result.value.size == 1:
            _expect_check(p, checks, result.scalar())
        return
    report = monodromy_group(
        A,
        p.splitting,
        [ws.build("cube", name) for name in p.cubes],
        labels=p.labels,
        max_denominator=p.max_denominator,
        n_samples=p.n_samples,
        seed=p.seed,
    )
    values["group"] = report.as_dict()
    if p.expect is not None and report.generator is not None:
        _expect_check(p, checks, report.generator)
    elif p.expect is not None:
        checks.append(_check("expect", float("inf"), 0.0))


def _run_decompose(ws, p, checks, values, out_dir):
    """Split the cube's path and check the factors' endpoints and the witness's homotopy defect.

    The ``witness_homotopy`` check reads only the witness's deformation
    field on its two vertical edges, which :func:`transgression.decompose_path`
    builds as exact zeros, so ``witness_defect`` is 0.0 whenever the task
    runs (a non-finite field stops it earlier, when the witness cube is
    built); only ``endpoints`` can fail on the numbers.
    """
    from .cubes import homotopy_defect
    from .transgression import decompose_path

    fib = ws.build("fibration", p.fibration)
    cube = ws.build("cube", p.cube)
    dec = decompose_path(fib, cube)
    defect = homotopy_defect(dec.witness)
    start_delta = sup_norm(dec.horizontal.point((0,)) - cube.point((0,)))
    end_delta = sup_norm(dec.kernel_path.point((-1,)) - cube.point((-1,)))
    values.update(
        witness_defect=defect,
        start_delta=start_delta,
        end_delta=end_delta,
        kernel_sup=sup_norm(dec.kernel_coefficients),
    )
    checks.append(_check("witness_homotopy", defect, p.tol))
    checks.append(_check("endpoints", max(start_delta, end_delta), p.endpoint_tol))


_RUNNERS = {
    "check": _run_check,
    "flow": _run_flow,
    "lift": _run_lift,
    "transgress": _run_transgress,
    "monodromy": _run_monodromy,
    "decompose": _run_decompose,
}


def run_task(ws: Workspace, sec: SectionSpec, overrides, cfg_hash: str, out_dir: Path) -> dict:
    """Execute one task section and assemble its report dictionary."""
    start = time.perf_counter()
    p = ws.params("task", sec.name)
    checks: list[dict] = []
    values: dict = {}
    error = None
    try:
        _RUNNERS[p.kind](ws, p, checks, values, out_dir)
    except ValueError as err:
        error = str(err)
    passed = error is None and all(c["passed"] for c in checks)
    report = {
        "task": {
            "name": sec.name,
            "kind": p.kind,
            "params": {k: sec.entries[k] for k in sorted(sec.entries)},
            "overrides": dict(sorted(overrides.items())),
        },
        "passed": passed,
        "checks": _jsonable(checks),
        "values": _jsonable(values),
        "config_hash": cfg_hash,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    if error is not None:
        report["error"] = error
    return report


def _write_report(path: Path, report: dict) -> None:
    import json  # only a run writes reports, so describe does not import it

    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# --- entry points ---------------------------------------------------------------


def _load(config: str, assignments) -> tuple[list[SectionSpec], dict[str, str], Path]:
    path = Path(config)
    text = path.read_text(encoding="utf-8")
    sections = parse_config(text)
    overrides = apply_overrides(sections, list(assignments or []))
    return sections, overrides, path.parent


def _cmd_run(args) -> int:
    try:
        sections, overrides, base_dir = _load(args.config, args.set)
        ws, _ = inspect_config(sections, base_dir)
        # errors only a cube constructor can see must stop the run before any report
        for sec in sections:
            if sec.kind == "cube":
                ws.build("cube", sec.name)
    except (OSError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    cfg_hash = config_hash(sections, overrides)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = True
    ran = 0
    try:
        for sec in sections:
            if sec.kind != "task":
                continue
            report = run_task(ws, sec, overrides, cfg_hash, out_dir)
            _write_report(out_dir / f"{sec.name}.json", report)
            ran += 1
            status = "PASS" if report["passed"] else "FAIL"
            print(f"{sec.name}: {status} ({report['wall_time_s']:.2f}s)")
            all_passed = all_passed and report["passed"]
    finally:
        ws.drop_anchor_fibrations()
    print(f"{ran} task(s), reports in {out_dir}")
    return 0 if all_passed else 1


def _cmd_describe(args) -> int:
    try:
        sections, _, base_dir = _load(args.config, args.set)
        _, rows = inspect_config(sections, base_dir)
    except (OSError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for kind, name, summary in rows:
        print(f"{kind:<10} {name:<20} {summary}")
    n_tasks = sum(1 for kind, _, _ in rows if kind == "task")
    print(f"{len(rows)} section(s), {n_tasks} task(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="algebroids", description="Batch runner for algebroid configs."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the tasks in a config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument(
        "--set",
        action="append",
        metavar="KIND.NAME.KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    run_p.add_argument("--out", default="reports", help="directory for JSON reports")
    run_p.set_defaults(func=_cmd_run)
    desc_p = sub.add_parser("describe", help="validate a config and list its entities")
    desc_p.add_argument("config", help="path to the config file")
    desc_p.add_argument("--set", action="append", metavar="KIND.NAME.KEY=VALUE")
    desc_p.set_defaults(func=_cmd_describe)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
