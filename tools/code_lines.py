"""Count the code lines of each module of a Python package.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/gossipsim. A code line is a line that holds
part of a token other than a comment: blank lines, comment lines and the
lines of module, class and function docstrings do not count. The script
prints one line per module, `<count> <file>`, then `<total> total`.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

#: tokens that put no code on a line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", type=Path, nargs="?", default=Path("src/gossipsim"),
                    help="package directory (default: src/gossipsim)")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
