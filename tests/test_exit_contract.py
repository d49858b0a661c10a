"""The exit contract of ``algebroids run``, fuzzed over the shipped configs.

Every input either runs (exit 0, or 1 when a check fails) or is rejected
with exit 2 and the line it names; no exception escapes ``main`` and no
traceback reaches stderr.  The inputs are the shipped configs under one
mutation each: a ``--set`` of an existing key to a bad value, an N from
2 to 16 on one cube, a line of the config text dropped, duplicated or
broken as a header, or a ``--set`` with a bad target.  Every other cube's
N is capped at ``CAP`` through ``--set``, so that a run stays small.  A
bad target has no line to name, so it must exit 2 naming its position
among the ``--set`` options instead.

Beside the fuzz, one hand-written mutation per error branch that the
fuzz does not draw must exit 2 with its message and the line it names.

Not checked yet: that a PASS report has a finite ``est_error`` wherever
a check reads one.  A transgression on N < 6 has no half-grid estimate
and still PASSes; that clause lands with the failing check for an
undefined estimate, and the N range here is not raised to avoid it.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.cli import ConfigError, main, parse_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
CAP = 48
BAD_VALUES = (
    "nan",
    "1e308",
    "-1",
    "log(-1)",
    "(",
    "x $ y",
    "1, 2, 3; 4, 5, 6",  # a matrix of the wrong size for every shipped key
    "0, 1",
    "nosuch",  # a section name that is not declared, or a variable no key allows
    "nosuch*t1 + 1",
)
HEADER_BREAKS = (
    lambda head: head[:-1],  # unterminated
    lambda head: head.split()[0] + "]",  # no name
    lambda head: "[nosuch " + head[1:],  # three words
    lambda head: "[nosuch" + head[head.index(" ") :],  # unknown kind
)
BAD_TARGETS = (
    lambda kind, name, key: f"{kind}.nosuch.{key}=1",  # an undefined name of a declared kind
    lambda kind, name, key: f"nosuch.{name}.{key}=1",  # an unknown kind
    lambda kind, name, key: f"{kind}.{name}=1",  # two parts
    lambda kind, name, key: f"{kind}.{name}.{key}",  # no '='
)


@st.composite
def mutated_runs(draw):
    """Config text, ``--set`` assignments and the 1-based position of a bad target among them (else None).

    One mutation of a shipped config, other cubes capped.
    """
    lines = draw(st.sampled_from(CONFIGS)).read_text().splitlines()
    sections = parse_config("\n".join(lines))
    cubes = [s.name for s in sections if s.kind == "cube"]
    how = draw(st.sampled_from(("set", "N", "drop", "duplicate", "header", "target") if cubes else ("set", "drop", "duplicate", "header", "target")))
    assignments, target, bad = [], None, None
    if how == "target":
        sec = draw(st.sampled_from(sections))
        bad = draw(st.sampled_from(BAD_TARGETS))(sec.kind, sec.name, draw(st.sampled_from(sorted(sec.entries))))
    elif how == "set":
        target = draw(st.sampled_from([f"{s.kind}.{s.name}.{key}" for s in sections for key in s.entries]))
        assignments.append(f"{target}={draw(st.sampled_from(BAD_VALUES))}")
    elif how == "N":
        target = f"cube.{draw(st.sampled_from(cubes))}.N"
        assignments.append(f"{target}={draw(st.integers(2, 16))}")
    else:
        kept = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
        at = draw(st.sampled_from([i for i in kept if how != "header" or lines[i].startswith("[")]))
        if how == "drop":
            del lines[at]
        elif how == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines[at] = draw(st.sampled_from(HEADER_BREAKS))(lines[at])
    text = "\n".join(lines) + "\n"
    try:
        mutated = parse_config(text)
    except ConfigError:
        mutated = []  # rejected before any override is read
    for sec in mutated:
        key, N = f"cube.{sec.name}.N", sec.entries.get("N", "")
        if sec.kind == "cube" and key != target and N.isdigit() and int(N) > CAP:
            assignments.insert(0, f"{key}={CAP}")
    if bad is None:
        return text, assignments, None
    at = draw(st.integers(0, len(assignments)))
    assignments.insert(at, bad)
    return text, assignments, at + 1


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(mutated_runs())
def test_every_mutated_config_runs_or_exits_2_at_a_line(case):
    text, assignments, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(text, encoding="utf-8")
        argv = ["run", str(config), "--out", str(Path(tmp) / "out")]
        for item in assignments:
            argv += ["--set", item]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if bad is not None:
        assert code == 2 and f"--set {bad} '" in err, (code, err)
    elif code == 2:
        assert re.search(r"line \d+:", err), err


# config, a line of it, what replaces it (None drops it), the line the error names and its message
BRANCHES = [
    ("plane_area", "[cube rim]", "[cube 2rim]", "[cube 2rim]", "bad section name"),
    ("plane_area", "N = 64", "2N = 64", "2N = 64", "bad key"),
    ("plane_area", "method = both", "method = all", "method = all", "must be one of"),
    ("plane_area", "map = 0.9*t1, 0.9*t2", "map = 0.9*t1, , 0.9*t2", "map = 0.9*t1, , 0.9*t2", "empty entry"),
    ("plane_area", "bivector = 0, 1; -1, 0", "bivector = 0, 1; -1", "bivector = 0, 1; -1", "unequal lengths"),
    ("so3_check", "structure = 0 1: 0, 0, 1; 0 2: 0, -1, 0; 1 2: 1, 0, 0", "structure = 0 1: 0, 0, 1; 0 2 0, -1, 0",
     "structure = 0 1: 0, 0, 1; 0 2 0, -1, 0", "is missing ':'"),
    ("so3_check", "structure = 0 1: 0, 0, 1; 0 2: 0, -1, 0; 1 2: 1, 0, 0", "structure = 0 1 2: 0, 0, 1",
     "structure = 0 1 2: 0, 0, 1", "two frame indices"),
    ("so3_check", "structure = 0 1: 0, 0, 1; 0 2: 0, -1, 0; 1 2: 1, 0, 0", "structure = 0 1: 0, 0, 1; 0 1: 0, 0, 1",
     "structure = 0 1: 0, 0, 1; 0 1: 0, 0, 1", "repeats the pair"),
    ("plane_area", "N = 64", "N = 64\n[cube disk]\nalgebroid = CP\nsource = file\npath = nosuch.json",
     "path = nosuch.json", "does not exist"),
    ("plane_area", "basepoint = 0 0", "basepoint = 0 0\norder = 1 1", "order = 1 1", "order must permute"),
    ("s2_monodromy", "cube = wrap", "cube = wrap\ncubes = wrap", "[task period]", "exactly one of"),
    ("s2_monodromy", "cube = wrap", None, "[task period]", "exactly one of"),
    ("rep_transport", "base = T", "base = E", "[algebroid E]", "circular reference"),  # E's, the first
]


@pytest.mark.parametrize(
    "config, line, replacement, named, message",
    BRANCHES,
    ids=["section-name", "key", "option", "empty-entry", "unequal-rows", "chunk-colon", "chunk-pair", "chunk-repeat",
         "cube-file", "order", "cube-and-cubes", "no-cube", "circular"],
)
def test_each_undrawn_error_branch_exits_2_at_its_line(tmp_path, config, line, replacement, named, message):
    lines = (CONFIGS[0].parent / f"{config}.cfg").read_text().splitlines()
    at = lines.index(line)
    lines[at : at + 1] = [] if replacement is None else replacement.split("\n")
    (tmp_path / "mutated.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(tmp_path / "mutated.cfg"), "--out", str(tmp_path / "out")])
    err = err.getvalue()
    assert code == 2, err
    assert f"line {lines.index(named) + 1}: " in err and message in err, err
