"""Count the code lines of each Python module in a directory.

Usage:

    python tools/loc.py SRC_DIR

A code line is a line that is not blank, not a comment alone and not part
of a docstring (the string that opens a module, class or function body).
The script prints one ``count  path`` line per module under ``SRC_DIR``,
in path order, then ``count  total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token other than a comment,
    outside the docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
               tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
               tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in ignored:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/loc.py SRC_DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
