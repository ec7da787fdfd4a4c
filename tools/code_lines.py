"""Count the code lines of each module of a Python package.

    python tools/code_lines.py [--functions] [PACKAGE_DIR]

PACKAGE_DIR defaults to src/gossipsim. A code line is a line that holds
part of a token other than a comment: blank lines, comment lines and the
lines of module, class and function docstrings do not count. The script
prints one line per module, `<count> <file>`, then `<total> total`.

With --functions it prints one line per top-level function, class and
method instead, `<count> <file>:<name>` (a method's name is
`Class.method`), by the same rule: a function's count holds its
decorators, signature and body, and a class's the lines of its body that
lie in none of its methods. The lines outside them all count as
`<file>:<module>`, so that the lines of a file add up to its count. The
last line is `<total> total` as before.
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


def _code_line_set(source: str, tree: ast.AST) -> set[int]:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    return len(_code_line_set(source, ast.parse(source)))


def _span(node: ast.AST) -> range:
    """The lines of a definition, its decorators included."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return range(first, node.end_lineno + 1)


def function_lines(source: str) -> dict[str, int]:
    """Code lines of each top-level function, class and method of the
    source, by name, and of the rest of the module as "<module>"."""
    tree = ast.parse(source)
    lines = _code_line_set(source, tree)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {}
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        own = lines & set(_span(node))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    inner = own & set(_span(sub))
                    out[f"{node.name}.{sub.name}"] = len(inner)
                    own -= inner
        out[node.name] = len(own)
        lines -= set(_span(node))
    out["<module>"] = len(lines)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", type=Path, nargs="?", default=Path("src/gossipsim"),
                    help="package directory (default: src/gossipsim)")
    ap.add_argument("--functions", action="store_true",
                    help="one line per top-level function, class and method")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if args.functions:
            counts = function_lines(source)
            for name, count in counts.items():
                print(f"{count:5d} {path.name}:{name}")
            total += sum(counts.values())
        else:
            count = code_lines(source)
            total += count
            print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
