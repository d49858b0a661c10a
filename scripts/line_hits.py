"""Executable lines of each ``src/algebroids`` module that no tier-1 test runs.

``coverage`` is not a dependency, so this runs the tier-1 suite in this
process under ``sys.settrace`` and records the line events in the
package's files.  A module's executable lines are the line numbers its
compiled code carries (``co_lines``), nested functions and classes
included.  It prints one line per module, its count of lines no test
ran and their numbers (as ranges), then the total:

    python3 scripts/line_hits.py
    python3 scripts/line_hits.py tests/test_cli.py   # any pytest arguments

Code that only a subprocess runs (``python -m algebroids`` in the CLI
tests) counts as not run.  Tracing makes the suite several times slower.

Usage: python3 scripts/line_hits.py [PYTEST_ARGS...]
"""

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "algebroids"


def executable(path: Path) -> set[int]:
    """Line numbers that the compiled code of ``path`` carries, in every nested code object."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start, no source line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs of consecutive numbers."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    modules = {os.path.realpath(p): p for p in sorted(PACKAGE.glob("*.py"))}
    known: dict[str, str | None] = {}  # a code object's file name -> its module's real path, or None
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in modules else None
        return local if known[name] else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print(f"\n{'module':<20}{'not run':>8}  lines")
    for real, path in modules.items():
        missed = sorted(executable(path) - hits[real])
        total += len(missed)
        print(f"{path.name:<20}{len(missed):>8}  {ranges(missed)}")
    print(f"{'all':<20}{total:>8}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
