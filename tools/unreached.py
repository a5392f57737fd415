"""Name the functions of ``signedsum`` that no command of the CLI grid calls.

Usage:

    python tools/unreached.py SRC_ROOT

``SRC_ROOT`` is the directory that holds the ``signedsum`` package, such
as ``src`` in a checkout. The script runs ``tools/cli_grid.py``'s
``commands()`` through ``signedsum.cli.main`` in this one process, under
``sys.setprofile``, and records the code object of every Python call. It
then prints the qualified name of every function defined in the package
(``module.Class.method``, nested ones with ``<locals>``) that no command
called, in path and line order, then ``N of M functions never called``.

A function is matched to its code by file and first line. For a decorated
function that line is the first decorator's, not the ``def`` line. The
profile sees only this process, so code that runs only in sweep worker
processes, such as ``search._serve``, is always named. The script writes
no file and takes about 2 s on two vCPUs.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """Map ``(path, first line)`` of each function under ``package`` to its
    qualified name, in path and source order."""
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        visit(ast.parse(path.read_text()), str(path.resolve()), module + ".")
    return found


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/unreached.py SRC_ROOT", file=sys.stderr)
        return 2
    root = os.path.abspath(sys.argv[1])
    sys.path.insert(0, root)
    # checkouts older than the constant --budget default read this variable
    os.environ.pop("SUMSET_BUDGET", None)
    from cli_grid import commands, run

    functions = defined_functions(Path(root) / "signedsum")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from signedsum import cli
        for command in commands():
            run(cli.main, command.split())
    finally:
        sys.setprofile(None)
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno)
              for code in codes}
    never = [name for key, name in functions.items() if key not in called]
    for name in never:
        print(name)
    print(f"{len(never)} of {len(functions)} functions never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
