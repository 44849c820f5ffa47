"""Count code, docstring, comment and blank lines in each module of qeclab.

    python tools/source_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/qeclab next to this script's directory.  Each
line of a module falls in exactly one class:

- docstring: inside the span of a module, class or function docstring, as
  ast reports it, blank lines inside the docstring included;
- comment: a line whose only tokens are a comment, as tokenize reports it
  (a comment after code leaves its line a code line);
- blank: a line holding only whitespace, outside a docstring;
- code: every other line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) covered by a docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def comment_lines(source: str) -> set[int]:
    """Line numbers whose only tokens are a comment (and the line end)."""
    others: set[int] = set()
    comments: set[int] = set()
    layout = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in layout:
            others.update(range(tok.start[0], tok.end[0] + 1))
    return comments - others


def count(path: Path) -> dict[str, int]:
    source = path.read_text()
    docs = docstring_lines(ast.parse(source))
    comments = comment_lines(source)
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            counts["docstring"] += 1
        elif number in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qeclab"
    totals = dict.fromkeys(CLASSES, 0)
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in (*CLASSES, "total")))
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        for c in CLASSES:
            totals[c] += counts[c]
        row = [counts[c] for c in CLASSES]
        print(f"{path.name:<16}" + "".join(f"{v:>11,}" for v in (*row, sum(row))))
    row = [totals[c] for c in CLASSES]
    print(f"{'total':<16}" + "".join(f"{v:>11,}" for v in (*row, sum(row))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
