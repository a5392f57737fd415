"""The parts that tools/bench_pairs.py, tools/walk_pairs.py and
tools/dp_pairs.py share: a revision's tree from ``git archive``, one timed
run in a fresh interpreter and the pair rule's figures. tools/grid_diff.py
takes the revision's tree from here too.

A pair is one run on the parent, side 0, and one on the change, side 1.
The side that runs first alternates, the parent first in pair 0. The
figures are the parent's quartiles and median, the change's median and
the change's wins, where the better side of a pair wins it and a tie
counts for neither.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def extract(rev: str, dest: str, *paths: str) -> bool:
    """Extract ``git archive REV PATHS`` into ``dest``. When git cannot
    read ``rev``, write its error to stderr and return False."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev,
                              *paths], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)
    return True


def run_json(label: str, code: str, src: str, *args: str, cwd: str,
             stdin: str | None = None) -> dict | None:
    """The JSON that ``python -c CODE SRC ARGS`` prints, run in ``cwd``
    with ``stdin`` as its input and without writing bytecode. When it
    fails, write ``label``, its exit status and the end of its stderr to
    stderr and return None."""
    run = subprocess.run([sys.executable, "-c", code, src, *args],
                         input=stdin, capture_output=True, text=True,
                         cwd=cwd,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if run.returncode != 0:
        print(f"{label} on {src}: exit {run.returncode}\n"
              f"{run.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(run.stdout)


def order(pair: int) -> tuple[int, int]:
    """The sides of ``pair`` in the order they run."""
    return (0, 1) if pair % 2 == 0 else (1, 0)


class Figures(NamedTuple):
    q1: float
    median: float
    q3: float
    changed: float
    wins: int
    pairs: int

    def text(self, spec: str = ".6g", unit: str = "") -> str:
        """The figures as one clause, each number formatted by ``spec``
        and followed by ``unit``."""
        def f(x: float) -> str:
            return format(x, spec) + unit
        apart = abs(self.changed - self.median) > self.q3 - self.q1
        return (f"parent median {f(self.median)} (quartiles {f(self.q1)}-"
                f"{f(self.q3)}), change median {f(self.changed)}, change "
                f"wins {self.wins} of {self.pairs}, medians differ by more "
                f"than the parent's IQR: {'yes' if apart else 'no'}")


def figures(before: list[float], after: list[float], lower: bool = True
            ) -> Figures:
    """The pair rule's figures for the parent's values ``before`` and the
    change's ``after``, pair by pair; ``lower`` says which is better."""
    q1, median, q3 = statistics.quantiles(before, n=4, method="inclusive")
    wins = sum(a < b if lower else a > b for b, a in zip(before, after))
    return Figures(q1, median, q3, statistics.median(after), wins,
                   len(before))
