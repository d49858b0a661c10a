"""Line counts of each module of ``src/algebroids``: total, code, docstring, comment and blank.

A docstring line is one spanned by the string that opens a module,
class or function body, found by ``ast``, blank lines inside it
included.  A comment line holds a comment and nothing else, found by
``tokenize``; a code line with a trailing comment counts as code.  A
blank line is any other line that holds only whitespace.  Code is every
other line, so the four kinds add up to the total.

``--against OTHER`` also prints, per module and in total, the net change
from the checkout ``OTHER`` (a module present on one side only counts
as zero on the other):

    python3 scripts/line_count.py --against ../parent

Usage: python3 scripts/line_count.py [--against OTHER]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "algebroids"
KINDS = ("total", "code", "doc", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(source: str) -> set[int]:
    """Line numbers holding a comment and no code token."""
    comments, code = set(), set()
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return comments - code


def count(path: Path) -> dict[str, int]:
    source = path.read_text()
    lines = source.splitlines()
    doc = docstring_lines(source)
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - doc
    comment = comment_lines(source)
    total = len(lines)
    return {
        "total": total,
        "code": total - len(blank) - len(doc) - len(comment),
        "doc": len(doc),
        "comment": len(comment),
        "blank": len(blank),
    }


def counts(checkout: Path) -> dict[str, dict[str, int]]:
    return {p.name: count(p) for p in sorted((checkout / PACKAGE).glob("*.py"))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, help="another checkout to print the net change from")
    args = ap.parse_args()

    here = counts(ROOT)
    other = counts(args.against) if args.against else {}
    names = sorted(set(here) | set(other))
    zero = dict.fromkeys(KINDS, 0)

    def total(table: dict) -> dict[str, int]:
        return {k: sum(table.get(name, zero)[k] for name in names) for k in KINDS}

    rows = [(name, here.get(name, zero), other.get(name, zero)) for name in names]
    rows.append(("all", total(here), total(other)))
    columns = "".join(f"{k:>9}" for k in KINDS)
    print(f"{'module':<18}{columns}" + (f"   net {columns}" if args.against else ""))
    for name, now, before in rows:
        line = f"{name:<18}" + "".join(f"{now[k]:>9}" for k in KINDS)
        if args.against:
            line += "       " + "".join(f"{now[k] - before[k]:>+9}" for k in KINDS)
        print(line)


if __name__ == "__main__":
    main()
