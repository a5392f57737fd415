"""Time pruned sweeps in pairs against a git revision.

Usage:

    python tools/walk_pairs.py REV

The script extracts the ``src`` tree of ``git archive REV``, the parent,
into a temporary directory and, for each of four wide pruned spaces, runs
10 pairs: one whole ``sweep()`` call (``workers=1``, the budget raised)
in a fresh interpreter on the parent's ``src`` and one on the working
tree's, the change. The side that runs first alternates from pair to
pair. The spaces are the census's slow corner and two of its wider ones:

    positive    k=5,  h=3, M=60
    zero-based  k=5,  h=4, M=60
    positive    k=8,  h=6, M=24
    positive    k=10, h=5, M=40

Each interpreter times its ``sweep()`` call alone, not its start-up. For
each space the script prints the sets measured, the parent's median time
and quartiles, the change's median, the change's wins out of the pairs
(the faster side of a pair wins it) and whether the medians differ by more
than the parent's interquartile range, by the rule of ``tools/pairs.py``,
which ``tools/bench_pairs.py`` applies too. It exits 1 if a summary
(``to_dict()``) or ``measured`` differs between the sides in any run, 0
otherwise, and 2 on a usage error, a revision ``git archive`` cannot read
or a run that fails. Neither side writes bytecode, and both run in the
temporary directory, so nothing is written inside the repository.
"""

from __future__ import annotations

import os
import sys
import tempfile

from pairs import PAIRS, ROOT, extract, figures, order, run_json

SPACES = (("positive", 5, 3, 60), ("zero-based", 5, 4, 60),
          ("positive", 8, 6, 24), ("positive", 10, 5, 40))
# run as ``python -c SWEEP SRC FAMILY K H M``: one timed sweep, as JSON
SWEEP = """if True:
    import json, sys
    from time import perf_counter
    sys.path.insert(0, sys.argv[1])
    from signedsum import Family, SearchSpace, sweep
    family, k, h, m = sys.argv[2], *map(int, sys.argv[3:])
    space = SearchSpace(k=k, h=h, max_element=m, family=Family(family))
    start = perf_counter()
    summary = sweep(space, budget=10**30, workers=1)
    seconds = perf_counter() - start
    print(json.dumps({"seconds": seconds, "summary": summary.to_dict(),
                      "measured": summary.measured}))
"""


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/walk_pairs.py REV", file=sys.stderr)
        return 2
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        if not extract(sys.argv[1], tmp, "src"):
            return 2
        srcs = (os.path.join(tmp, "src"), str(ROOT / "src"))
        for space in SPACES:
            times: tuple[list[float], list[float]] = ([], [])
            for i in range(PAIRS):
                results = {}
                for side in order(i):
                    result = run_json(str(space), SWEEP, srcs[side],
                                      *map(str, space), cwd=tmp)
                    if result is None:
                        return 2
                    times[side].append(result.pop("seconds"))
                    results[side] = result
                if results[0] != results[1]:
                    same = False
                    print(f"{space} pair {i}: the summaries differ",
                          file=sys.stderr)
            family, k, h, m = space
            print(f"{family} k={k} h={h} M={m}: measured "
                  f"{results[1]['measured']}, "
                  f"{figures(*times).text('.4f', ' s')}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
