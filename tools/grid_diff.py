"""Compare the CLI grid's output at a git revision with the working tree's.

Usage:

    python tools/grid_diff.py REV

The script extracts the ``src`` tree of ``git archive REV`` into a
temporary directory and runs this checkout's ``tools/cli_grid.py`` on that
``src`` and on the working tree's ``src``, in two subprocesses at once, so
both sides run the same commands. It prints the argv of each command whose
exit code, stdout or stderr differ, then ``N of M commands differ``, and
exits 1 if any differ, 0 if none do and 2 if a side could not be run.
Neither subprocess writes bytecode, and both run in the temporary
directory, so nothing is written inside the repository.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from pairs import ROOT, extract


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/grid_diff.py REV", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        if not extract(sys.argv[1], tmp, "src"):
            return 2
        runs = [subprocess.Popen([sys.executable,
                                  str(ROOT / "tools" / "cli_grid.py"), src],
                                 stdout=subprocess.PIPE, cwd=tmp, env=env)
                for src in (os.path.join(tmp, "src"), str(ROOT / "src"))]
        (before, _), (after, _) = (run.communicate() for run in runs)
    for name, run in zip((sys.argv[1], "working tree"), runs):
        if run.returncode != 0:
            print(f"cli_grid.py exited with code {run.returncode} on "
                  f"{name}", file=sys.stderr)
            return 2
    before, after = before.splitlines(), after.splitlines()
    differ = 0
    for old, new in zip(before, after):
        if old != new:
            differ += 1
            print(" ".join(json.loads(new)["argv"]))
    print(f"{differ} of {len(after)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
